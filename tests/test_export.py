"""The CSV number kernel: the bytes of "%.17g" for every double, and a
working set that never exceeds that of evaluating the rows."""
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ahgeom import cli, csvnum, export, ode
from ahgeom.config import ModelParams


def _reference(table):
    """The CSV lines of table, one "%" per row, as the rows of the kernel's
    contract."""
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(line % row for row in map(tuple, table.tolist())).encode()


def _assert_same(values, cols=1):
    table = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    assert csvnum.csv_bytes(table) == _reference(table)


def _ulps(x, k):
    """x and its k nearest doubles on either side."""
    x = np.asarray(x, dtype=np.float64)
    out = [x]
    down, up = x, x
    for _ in range(k):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


# 10^e for every decimal exponent e the kernel formats, and 10^(E_MAX + 1)
POWERS = np.array([float(f"1e{k}")
                   for k in range(csvnum._E_MIN, csvnum._E_MAX + 2)])

doubles = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 40), st.integers(1, 12)),
    elements=st.floats(allow_nan=True, allow_infinity=True,
                       allow_subnormal=True))
bit_patterns = hnp.arrays(
    np.uint64, st.tuples(st.integers(1, 40), st.integers(1, 12)),
    elements=st.integers(0, 2**64 - 1)).map(lambda a: a.view(np.float64))


@settings(max_examples=60, deadline=None)
@given(table=st.one_of(doubles, bit_patterns))
def test_rows_equal_percent_format(table):
    assert csvnum.csv_bytes(table) == _reference(table)


@pytest.mark.parametrize("values", [
    pytest.param([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                  -1.7976931348623157e308, 2.2250738585072014e-308,
                  np.nan, -np.nan, np.inf, -np.inf], id="extremes"),
    pytest.param(_ulps(POWERS, 1), id="powers-of-ten-1-ulp"),
    pytest.param(_ulps([1e-5, 1e-4, -1e-5, -1e-4], 3), id="switch-at-1e-4"),
    pytest.param(_ulps([1e16, 1e17, -1e16, -1e17], 3), id="switch-at-1e17"),
    pytest.param(_ulps([9.99999999999999955e-5, 9.9999999999999998e16,
                        99999999999999999.0, 0.99999999999999999], 3),
                 id="rounds-up-to-a-power"),
    pytest.param([1e100, -1.5e-100, 1e-290, 1e-291, 1e291, 9.99e290,
                  1e-300, 1e300, 1.23e-310], id="three-digit-exponents"),
])
def test_hard_cases(values):
    _assert_same(values)


@pytest.mark.parametrize("start", [1e12, 1e13, 1e14, 1e15])
def test_exact_ties(start):
    # integers/64 from 10^12 to 10^15: many lie exactly halfway between
    # two 17-digit decimals, where "%.17g" rounds to even; the kernel
    # leaves those to Python
    values = (np.arange(0, 512) + start * 64) / 64
    *_, ok = csvnum._decimal(values)
    assert not ok.all()
    _assert_same(values, cols=8)


def test_fixed_and_scientific_forms():
    # every digit count at every fixed exponent, and the scientific form on
    # either side, with and without sign
    digits = np.array([1.0, 1.5, 1.25, 1.2345678901234567, 1.0000000000000002])
    values = np.outer(10.0 ** np.arange(-6, 19), digits).ravel()
    _assert_same(np.concatenate([values, -values]), cols=5)


def test_group_tables():
    # the "%04d" text of every 4-digit group, and, per group k = 1..4 of the
    # 17 digits, the significant digits that its last nonzero digit makes
    _, _, ascii4, nsig, *_ = csvnum._tables()
    texts = [b"%04d" % v for v in range(10_000)]
    assert ascii4.tobytes() == b"".join(texts)
    for k, counts in enumerate(nsig, 1):
        assert counts.tolist() == [
            4 * (k - 1) + 1 + len(text.rstrip(b"0")) if text != b"0000" else 0
            for text in texts]


def _spans():
    """Every double whose top 16 bits are those of a double in the kernel's
    range, at both ends of the span those bits cover."""
    tens = csvnum._tables()[0]
    tops = np.arange(*tens[[0, -1]].view("<u2")[3::4] + [0, 1], dtype=np.uint64)
    first = tops << np.uint64(48)
    return np.concatenate([first, first + np.uint64((1 << 48) - 1)]).view(
        np.float64)


@pytest.mark.parametrize("values", [
    pytest.param(_ulps(POWERS[:-1], 3), id="powers-of-ten-3-ulps"),
    pytest.param(_ulps(np.ldexp(1.0, np.arange(-931, 968)), 2),
                 id="binade-edges-2-ulps"),
    pytest.param(np.random.default_rng(7).integers(
        0, 2**63, 200_000, dtype=np.uint64).view(np.float64),
                 id="bit-patterns"),
    pytest.param(_spans(), id="every-top-16-bits-span"),
])
def test_exponent_index(values):
    # the index that the top 16 bits and one compare give is the search's
    tens = csvnum._tables()[0]
    ax = np.abs(values)
    ax = ax[(ax >= tens[0]) & (ax < tens[-1])]
    assert ax.size
    np.testing.assert_array_equal(
        csvnum._index(ax), np.searchsorted(tens, ax, "right") - 1)


def _below_powers():
    """The largest double below each power of ten in POWERS."""
    return np.array([p if Fraction(p) < Fraction(10) ** k
                     else np.nextafter(p, 0.0)
                     for k, p in zip(range(csvnum._E_MIN, csvnum._E_MAX + 2),
                                     POWERS)])


@pytest.mark.parametrize("values", [
    pytest.param(_ulps(POWERS, 3), id="powers-of-ten-3-ulps"),
    pytest.param(_below_powers(), id="below-powers-of-ten"),
    pytest.param(np.random.default_rng(8).integers(
        0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
                 id="bit-patterns"),
])
def test_digit_groups(values):
    # where the kernel writes an element, digit 0 and its four 4-digit
    # groups are the 17 digits of "%.16e" % |x|
    groups, _, ok = csvnum._decimal(values)
    assert ok.mean() > 0.5
    texts = ["%.16e" % v for v in np.abs(values[ok]).tolist()]
    expected = [[int(t[0])] + [int(t[k:k + 4]) for k in range(2, 18, 4)]
                for t in texts]
    np.testing.assert_array_equal(groups[:, ok].T, expected)


def test_digit_groups_of_zero_and_unwritten():
    # +-0 are written, with every group 0; NaN, +-inf and subnormals are not
    groups, _, ok = csvnum._decimal(np.array([0.0, -0.0]))
    assert ok.all()
    assert not groups.any()
    subnormals = [5e-324, 1e-310, 2.2250738585072009e-308]
    values = np.array([np.nan, -np.nan, np.inf, -np.inf, *subnormals,
                       *np.negative(subnormals)])
    *_, ok = csvnum._decimal(values)
    assert not ok.any()


def _rows_of(monkeypatch, command, params, n):
    """The rows_of that command(params, n) hands to write_csv."""
    tables = []
    monkeypatch.setattr(export, "write_csv",
                        lambda out, header, rows_of, n: tables.append(rows_of))
    assert command(params, n, "csv", None) == 0
    rows_of, = tables
    return rows_of


@pytest.mark.parametrize("command", [cli.cmd_solve, cli.cmd_curvature])
def test_export_dense_tables(monkeypatch, command):
    # the tables of the export-dense input: their first 8 192 rows have the
    # bytes of "%.17g", and fewer than 1 in 10^4 of all their numbers go to
    # Python's "%.17g", so no quiet detour to the slow path goes unseen
    m = 0.731245
    params = ModelParams(m=m, r_max=20 * m, tol=1e-8)
    rows_of = _rows_of(monkeypatch, command, params, 50_000)
    slow = total = 0
    for table in export._tables(rows_of, 0, 50_000):
        if total < 8192 * table.shape[1]:
            assert b"".join(
                csvnum.csv_bytes(table[start:start + export._BLOCK_ROWS])
                for start in range(0, len(table), export._BLOCK_ROWS)
            ) == _reference(table)
        *_, ok = csvnum._decimal(table.ravel())
        slow += np.count_nonzero(~ok)
        total += table.size
    assert total == 50_000 * table.shape[1]
    assert slow * 10_000 < total, (slow, total)


def test_kernel_working_set():
    # one call on a block of _BLOCK_ROWS x 12 numbers peaks at 110 traced
    # bytes per number or less (about 107 today).  And each 32-byte-slot
    # array of a block stays within 128 KiB, glibc's default mmap
    # threshold: an array above it is mapped afresh, as zeroed pages, at
    # every call, and at 512 rows the kernel was slower than at 256
    assert export._BLOCK_ROWS * 12 * csvnum._SLOT <= 128 * 1024
    rng = np.random.default_rng(10)
    shape = (export._BLOCK_ROWS, 12)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    csvnum.csv_bytes(table)  # the tables are built at the first call
    tracemalloc.start()
    try:
        csvnum.csv_bytes(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 110 * table.size, peak / table.size


@pytest.mark.parametrize("command", [cli.cmd_solve, cli.cmd_curvature])
def test_formatting_never_sets_the_peak(monkeypatch, command):
    # with a block of rows in hand, formatting it takes less than
    # evaluating it took, so the number formatter never sets a process's
    # peak memory
    params = ModelParams(m=1.0, r_max=20.0, tol=1e-8)
    profile = ode.integrate(params)
    monkeypatch.setattr(cli, "integrate", lambda _: profile)
    tables = []
    monkeypatch.setattr(export, "write_csv",
                        lambda out, header, rows_of, n: tables.append(rows_of))
    assert command(params, 50_000, "csv", None) == 0
    rows_of, = tables
    lo = 2 * export._EVAL_ROWS
    peaks = []
    tracemalloc.start()
    try:
        table = next(export._tables(rows_of, lo, lo + export._EVAL_ROWS))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        for start in range(0, len(table), export._BLOCK_ROWS):
            csvnum.csv_bytes(table[start:start + export._BLOCK_ROWS])
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    evaluate, format_ = peaks
    assert format_ <= evaluate, peaks


@pytest.mark.parametrize("command", [cli.cmd_solve, cli.cmd_curvature])
def test_later_blocks_hold_no_earlier_table(monkeypatch, command):
    # each evaluated table is dropped before the next is evaluated: the
    # traced peak over blocks 2-4 of the export-dense table exceeds that
    # over block 1 by less than a tenth of a table (1-2 KB of bookkeeping
    # today), where a table held over would add all of it
    m = 0.731245
    params = ModelParams(m=m, r_max=20 * m, tol=1e-8)
    rows_of = _rows_of(monkeypatch, command, params, 50_000)
    csvnum._tables()  # built at the first call, which is not measured
    blocks = export._format_blocks(rows_of, 0, 4 * export._EVAL_ROWS)
    per_table = export._EVAL_ROWS // export._BLOCK_ROWS
    peaks = []
    tracemalloc.start()
    try:
        for count in (per_table, 3 * per_table):
            for _ in range(count):
                next(blocks)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
    finally:
        tracemalloc.stop()
    first, later = peaks
    table_bytes = 8 * export._EVAL_ROWS * len(rows_of(0, 1))
    assert later < first + table_bytes / 10, (peaks, table_bytes)


# the dispatched CPU features above numpy's baseline that this CPU has, and
# the sha256 of csv_bytes of a fixed table of random bit patterns
_SIMD_HASH = """
import hashlib
import numpy as np
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
from ahgeom import csvnum
table = np.random.default_rng(9).integers(
    0, 2**64, (256, 12), dtype=np.uint64).view(np.float64)
print(" ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]))
print(hashlib.sha256(csvnum.csv_bytes(table)).hexdigest())
"""


def _simd_hash(**env):
    """The features and hash that _SIMD_HASH prints, run with env."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    base = {k: v for k, v in os.environ.items()
            if k != "NPY_DISABLE_CPU_FEATURES"}
    done = subprocess.run([sys.executable, "-c", _SIMD_HASH],
                          capture_output=True, text=True, timeout=60,
                          check=True, env=dict(base, PYTHONPATH=str(src),
                                               **env))
    return done.stdout.splitlines()


def test_bytes_at_any_simd_level():
    # the kernel runs only exact operations, so its bytes do not depend on
    # the SIMD loops numpy dispatches to; NPY_DISABLE_CPU_FEATURES acts only
    # on the process it is set in
    features, default = _simd_hash()
    if not features:
        pytest.skip("numpy dispatches nothing above its baseline here")
    left, baseline = _simd_hash(NPY_DISABLE_CPU_FEATURES=features)
    assert left == ""
    assert baseline == default


@pytest.mark.slow
def test_sweep_against_percent_format():
    # 342 blocks of 256 x 12 random bit patterns (1 050 624 doubles), and
    # every power of ten the kernel formats, each with its 3 nearest
    # doubles on either side
    rng = np.random.default_rng(20)
    for _ in range(342):
        table = rng.integers(0, 2**64, (256, 12), dtype=np.uint64).view(
            np.float64)
        assert csvnum.csv_bytes(table) == _reference(table)
    _assert_same(_ulps(POWERS, 3), cols=7)
