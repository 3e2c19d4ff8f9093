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

import errno
import os

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
# 50 000-row solve 5 % and curvature 14 % slower (2-vCPU VM).  A table
# goes to no more processes than it has full blocks: 4 096 rows of 12
# columns take about 6 ms to format, a fork and reap about 2.4 ms, and
# smaller tables such as the 1 000-row default stay in one process.
_EVAL_ROWS = 4096
# Rows per json.dumps: a slice's rows as Python objects and the five copies
# of its text that the dump and the line breaks make are held at once.  In
# whole evaluation blocks they peaked at 8.5 MB (solve, row dicts) and
# 5.3 MB (curvature), 5-8x a CSV export's 1.1 MB; in 512-row slices the
# 50 000-row commands peak at 1.9 and 1.1 MB (tracemalloc), with the same
# bytes.
_JSON_ROWS = 512
_PIPE_READ = 1 << 16


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, or os.cpu_count()
    where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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


def _fork_formatter(rows_of, blocks, children):
    """Fork a process that evaluates and formats the row ranges `blocks`, in
    order, into a new pipe; return its pid and the pipe's read end, as a
    binary file.  Each block goes as its length in 8 bytes, then its text.
    The process closes the read ends of the earlier `children`, so the
    parent is the only reader of every pipe, and it leaves through os._exit
    on every path."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            for fd in (*(pipe.fileno() for _, pipe in children), r):
                os.close(fd)
            for lo, hi in blocks:
                # all of a block before its first write, so a full pipe
                # does not hold the formatting to the parent's pace
                data = bytearray(8)
                for text in _format_blocks(rows_of, lo, hi):
                    data += text
                data[:8] = (len(data) - 8).to_bytes(8, "little")
                _write_all(w, data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, os.fdopen(r, "rb", buffering=_PIPE_READ)


def _write_all(fd, data):
    """Write all of data to fd, a pipe that may take it in parts."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _copy_block(pipe, out) -> bool:
    """Copy the next block of a formatting process's pipe to out; False if
    the pipe ends first, as it does when the process fails."""
    head = pipe.read(8)
    left = int.from_bytes(head, "little")
    while left and (piece := pipe.read(min(left, _PIPE_READ))):
        out.write(piece.decode())
        left -= len(piece)
    return len(head) == 8 and not left


def write_csv(out, header, rows_of, n):
    """Write the n rows of rows_of as CSV under `header`.

    "%.17g" always writes 17 significant digits, so every double
    round-trips.  The rows are cut into _EVAL_ROWS-row blocks and dealt in
    turn to one process per usable CPU, but to no more processes than there
    are full blocks.  Each forked process evaluates and formats its
    blocks and sends them down a pipe, one block ahead at most; the parent
    formats its own blocks and copies the others' in row order.  So the
    bytes are the same at any CPU count, and no process holds more than
    about a block.
    """
    out.write(",".join(header) + "\n")
    procs = max(1, min(usable_cpus(), n // _EVAL_ROWS))
    blocks = [(lo, min(lo + _EVAL_ROWS, n)) for lo in range(0, n, _EVAL_ROWS)]
    children = []
    try:
        for k in range(1, procs):
            children.append(_fork_formatter(rows_of, blocks[k::procs],
                                            children))
        for i, (lo, hi) in enumerate(blocks):
            if i % procs == 0:
                for text in _format_blocks(rows_of, lo, hi):
                    out.write(text.decode())
            elif not _copy_block(children[i % procs - 1][1], out):
                break  # the process failed: its exit status is raised below
    finally:
        # after a failure here, a child still writing sees a closed pipe
        for _, pipe in children:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid, _ in children]
    failed = [code for code in codes if code]
    if failed:
        raise OSError(errno.EIO, "a CSV formatting process exited with "
                                 f"status {failed[0]}")


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
