"""The CSV number kernel: the bytes of "%.17g" for every double, and a
working set that never exceeds that of evaluating the rows."""
import tracemalloc

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
