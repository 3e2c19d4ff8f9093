"""Acceptance suite: every verification criterion at the default scale
(m = 1, r_max = 20, tol = 1e-10, 1000-point grid), one test per criterion,
each printing its pass/fail line.  Run with -s to see the lines live."""
import pytest

from ahgeom.config import ModelParams
from ahgeom.verify import run_verification

CRITERIA = [
    (1, "ode_residuals"),
    (2, "series_expansion"),
    (3, "shape_region"),
    (4, "hyperkahler_certificate"),
    (5, "strong_stability"),
    (6, "calibration_bound"),
    (7, "derivative_chain"),
    (8, "two_convexity"),
    (9, "kplane_oracle"),
    (10, "second_derivative_signs"),
    (11, "scale_covariance"),
    (12, "zero_section_limits"),
]


def _verify(m=1.0, r_max=None, tol=1e-10, grid_points=1000):
    """The report of `ahgeom verify` at these inputs; each default is the
    CLI's."""
    return run_verification(
        ModelParams(m, 20.0 * m if r_max is None else r_max, tol),
        grid_points)[0]


@pytest.fixture(scope="module")
def report():
    return _verify()


@pytest.mark.parametrize("index,name", CRITERIA)
def test_criterion(report, index, name):
    check = next(c for c in report["checks"] if c["check"] == name)
    status = "PASS" if check["status"] == "pass" else "FAIL"
    print(f"ACCEPTANCE {index:02d} {name}: {status} "
          f"worst={check['worst']:.3e} "
          f"({check['direction']} {check['budget']:g}) [{check['note']}]")
    assert check["status"] == "pass", f"{name}: {check['note']}"


def test_every_criterion_reported_once(report):
    names = [c["check"] for c in report["checks"]]
    assert names == [name for _, name in CRITERIA]
    assert len(set(names)) == len(names)


def test_all_pass(report):
    assert report["all_pass"]


@pytest.mark.parametrize("values, failing", [
    ({"grid_points": 2}, []),
    ({"m": 1e-30, "grid_points": 2}, []),
    ({"m": 1e30, "tol": 1e-14}, []),
    ({"m": 1e30, "tol": 3e-7}, []),
    ({"r_max": 1e4, "tol": 1e-14}, []),
    # c'' changes sign at 1.7176 m, beyond this horizon: no crossing is
    # bracketed, which is true of the horizon and not a defect
    ({"r_max": 0.5}, ["second_derivative_signs"]),
    pytest.param({"r_max": 1e5}, [], marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 3: the interp residual of "
        "ode_residuals reads 5.07e-6 against 1e-6, rounding in the "
        "identity's terms, which grow like r^2")),
    # about 3 s and 280 MB, so left out of the default run
    pytest.param({"r_max": 2, "grid_points": 1_000_000}, [], marks=[
        pytest.mark.slow, pytest.mark.xfail(
            strict=True, raises=AssertionError, reason="ROADMAP item 3: "
            "hyperkahler_certificate alone fails, its certificate term "
            "3.20e-5 against 1e-6 at the first radius 2e-6 m, rounding in "
            "kappa's numerators, which cancel to O(r^2)")]),
], ids=["grid-2", "m-1e-30-grid-2", "m-1e30-tol-1e-14", "m-1e30-tol-3e-7",
        "r_max-1e4-tol-1e-14", "r_max-0.5", "r_max-1e5", "r_max-2-grid-1e6"])
def test_verify_at_input_corners(values, failing):
    # accepted inputs at the corners of the input box, with every other
    # value at its default; only the named checks fail
    report = _verify(**values)
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["check"] for c in failed] == failing
    if failing:
        assert failed[0]["note"].endswith("(0 bracketed)")
