"""CSV and JSON export of a table of rows, evaluated and written in blocks.

A table is given as rows_of(lo, hi), which returns the columns of rows
lo..hi, and its row count n: no column of the whole table is ever built.
CSV numbers are "%.17g", 17 significant digits, so every double
round-trips; csvnum writes them in numpy, a block of rows at a time, with
the bytes of Python's "%.17g".  The JSON bytes are those of one
json.dumps(..., indent=2).  Only solve and curvature import this module,
so verify never compiles it.
"""
from __future__ import annotations

import numpy as np

from .csvnum import csv_bytes

# Rows per call of the number formatter (csvnum), whose arrays peak at
# about 107 bytes per number (tracemalloc), 0.33 MB at 256 rows of 12
# columns; each call's fixed cost, some 80 numpy calls, is spread over the
# block.  Each 32-byte-slot array of a block stays within 128 KiB, glibc's
# mmap threshold: at 512 rows the kernel was slower than at 256.  256-row
# blocks raised solve-tight's peak RSS by about 0.3 MB while the series
# loaded fractions and decimal, which it no longer does.
_BLOCK_ROWS = 256
# Rows per evaluation: a table is evaluated, derived and stacked this many
# rows at a time, so no column of the whole table is built.  One block
# peaks at about 1.1 MB of arrays; 256-row evaluation blocks made the
# 50 000-row solve 5 % and curvature 14 % slower (2-vCPU VM).
_EVAL_ROWS = 4096
# Rows per json.dumps: a slice's rows as Python objects and the five copies
# of its text that the dump and the line breaks make are held at once.  In
# whole evaluation blocks they peaked at 8.5 MB (solve, row dicts) and
# 5.3 MB (curvature), 5-8x a CSV export's 1.1 MB; in 512-row slices the
# 50 000-row commands peak at 1.9 and 1.1 MB (tracemalloc), with the same
# bytes.
_JSON_ROWS = 512


def _tables(rows_of, lo, hi):
    """Rows lo..hi of a table, as 2-D arrays of at most _EVAL_ROWS rows;
    rows_of(lo, hi) returns the columns of rows lo..hi."""
    for start in range(lo, hi, _EVAL_ROWS):
        yield np.column_stack(rows_of(start, min(start + _EVAL_ROWS, hi)))


def _format_blocks(rows_of, lo, hi):
    """The CSV text of rows lo..hi, one bytes object per block of rows."""
    for table in _tables(rows_of, lo, hi):
        for start in range(0, len(table), _BLOCK_ROWS):
            yield csv_bytes(table[start:start + _BLOCK_ROWS])
        del table  # not held while the next table is evaluated


def write_csv(out, header, rows_of, n):
    """Write the n rows of rows_of as CSV under `header`.

    "%.17g" always writes 17 significant digits, so every double
    round-trips.  The rows are evaluated _EVAL_ROWS and formatted
    _BLOCK_ROWS at a time, in row order, so no more than about a block is
    held at once.
    """
    out.write(",".join(header) + "\n")
    for text in _format_blocks(rows_of, 0, n):
        out.write(text.decode())


def write_json(out, head, key, rows_of, n, names=None):
    """Write json.dumps({**head, key: rows}, indent=2) and a newline, where
    rows lists the n rows of rows_of, each a list or, given `names`, a dict
    of them.  The list is dumped _JSON_ROWS rows of an evaluation block at
    a time, each slice indented one level deeper, as it sits in the whole
    dump."""
    # imported here, so that CSV output never loads json
    import json

    out.write(json.dumps({**head, key: []}, indent=2)[:-len("]\n}")])
    # a slice is dumped without indent, by json's C encoder; the row
    # separators, the item separators and the brackets of each row then
    # take the line breaks and indents of the whole dump.  Floats and the
    # column names hold no ", ", bracket or brace.
    start, end = "{}" if names is not None else "[]"
    item = ",\n      "
    sep = "\n"
    for table in _tables(rows_of, 0, n):
        for lo in range(0, len(table), _JSON_ROWS):
            rows = table[lo:lo + _JSON_ROWS].tolist()
            if names is not None:
                rows = [dict(zip(names, row)) for row in rows]
            out.write(sep + "    " + json.dumps(rows)[1:-1]
                      .replace(", ", item)
                      .replace(end + item + start, end + ",\n    " + start)
                      .replace(start, start + item[1:])
                      .replace(end, "\n    " + end))
            sep = ",\n"
            del rows  # not held while the next slice is built
        del table  # not held while the next table is evaluated
    out.write("\n  ]\n}\n")
