"""Correctness gate for the benchmark's CLI outputs.

Each check returns a list of problems; an empty list means the output is
correct.  The solve reference is an independent scipy DOP853 integration
started from the exact series, so it shares no integrator code with ahgeom.
"""
from __future__ import annotations

import json

import numpy as np

CHECK_NAMES = (
    "ode_residuals", "series_expansion", "shape_region",
    "hyperkahler_certificate", "strong_stability", "calibration_bound",
    "derivative_chain", "two_convexity", "kplane_oracle",
    "second_derivative_signs", "scale_covariance", "zero_section_limits",
)

# verify.tolerances(1e-10), the budgets every report must echo unchanged
PINNED_TOLERANCES = {
    "ode_stored_rel": 1e-09, "ode2_interp_abs": 1e-06,
    "asd_stored_abs": 1e-09, "asd_interp_abs": 1e-06,
    "kappa_cyclic_rel": 1e-12, "kappa_certificate_rel": 1e-06,
    "stability_rel": 1e-12, "calibration_slack": 1e-08,
    "kplane_agree": 0.001, "kplane_undercut": 1e-08, "kplane_trials": 100000,
    "scale_covariance_rel": 1e-08, "zero_limits_rel": 1e-13,
    "fiber_limit_rel": 0.0001,
}

# Checks whose sample count is fixed by the check itself or by --grid 1000.
# ode_residuals is absent: its count follows the integrator's node count.
PINNED_GRIDS = {
    "series_expansion": 10, "shape_region": 1000,
    "hyperkahler_certificate": 1000, "strong_stability": 4,
    "calibration_bound": 1001, "derivative_chain": 1000,
    "two_convexity": 1000, "kplane_oracle": 30,
    "second_derivative_signs": 1000, "scale_covariance": 100,
    "zero_section_limits": 1,
}

SOLVE_HEADER = "r,a,b,c,da,db,dc,dda,ddb,ddc,x,y"
CURVATURE_HEADER = "r,k1,k2,k3,asd1,asd2,asd3,Kfiber"
ASD_BUDGET = 1e-6
REFERENCE_START = 0.1     # in units of m
REFERENCE_RTOL = 1e-13


def parse_table(text: str, header: str):
    """(rows, problems) for a CSV table with the given header line."""
    head, _, body = text.partition("\n")
    if head != header:
        return None, [f"header {head[:80]!r} is not {header!r}"]
    ncol = header.count(",") + 1
    try:
        values = np.array(body.replace("\n", ",").rstrip(",").split(","),
                          dtype=float)
        return values.reshape(-1, ncol), []
    except ValueError as exc:
        return None, [f"unparsable table: {exc}"]


def _check_radii(r, r_max, grid):
    if len(r) != grid:
        return [f"{len(r)} rows, expected {grid}"]
    want = r_max * np.arange(grid) / (grid - 1)
    if np.max(np.abs(r - want)) > 1e-12 * r_max:
        return ["r column is not the requested grid"]
    return []


def reference_abc(m: float, radii) -> np.ndarray:
    """(a, b, c) at the given increasing radii >= 0.1 m: scipy DOP853 at
    rtol 1e-13 from the exact series expand(m, 16) at r = 0.1 m."""
    from scipy.integrate import solve_ivp

    from ahgeom.series import expand

    def f(_, y):
        a, b, c = y
        return ((a * a - (b - c) ** 2) / (2.0 * b * c),
                (b * b - (c - a) ** 2) / (2.0 * c * a),
                (c * c - (a - b) ** 2) / (2.0 * a * b))

    r0 = REFERENCE_START * m
    a, p, q = expand(m, 16).apq(r0)[:3]
    sol = solve_ivp(f, (r0, radii[-1]), (a, 0.5 * (p - q), 0.5 * (p + q)),
                    method="DOP853", rtol=REFERENCE_RTOL,
                    atol=1e-3 * REFERENCE_RTOL * m, t_eval=radii)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def check_solve(text: str, *, m: float, r_max: float, tol: float,
                grid: int) -> list:
    rows, problems = parse_table(text, SOLVE_HEADER)
    if rows is None:
        return problems
    problems = _check_radii(rows[:, 0], r_max, grid)
    if problems:
        return problems
    # the zero section (0, -m, m) plus every row the reference reaches
    rows = np.vstack([rows[:1], rows[rows[:, 0] >= REFERENCE_START * m]])
    want = np.vstack([[0.0, -m, m], reference_abc(m, rows[1:, 0])])
    err = np.abs(rows[:, 1:4] - want) / np.maximum(1.0, np.abs(want))
    worst = float(err.max())
    if not worst <= 10.0 * tol:
        i = int(np.argmax(err.max(axis=1)))
        problems.append(f"(a, b, c) off the reference by {worst:.3e} > 10 tol "
                        f"at r = {rows[i, 0]!r}")
    return problems


def check_curvature(text: str, *, m: float, r_max: float, grid: int) -> list:
    rows, problems = parse_table(text, CURVATURE_HEADER)
    if rows is None:
        return problems
    problems = _check_radii(rows[:, 0], r_max, grid)
    if problems:
        return problems
    asd = float(np.abs(rows[:, 4:7]).max())
    if not asd <= ASD_BUDGET:
        problems.append(f"ASD residual {asd:.3e} > {ASD_BUDGET:g}")
    k0, want = rows[0, 7], 1.5 / m ** 2
    if not abs(k0 - want) <= 1e-14 * want:
        problems.append(f"r = 0 Kfiber {k0!r} is not 3/(2m^2) = {want!r}")
    return problems


def check_verify(text: str, *, m: float, r_max: float, tol: float, grid: int,
                 seed: int) -> list:
    try:
        report = json.loads(text)
        checks = {c["check"]: c for c in report["checks"]}
        config, tolerances = report["config"], report["tolerances"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
    problems = []
    if report.get("all_pass") is not True:
        problems.append("all_pass is not true")
    names = sorted(c["check"] for c in report["checks"])
    if names != sorted(CHECK_NAMES):
        problems.append(f"checks {names} are not the twelve")
    problems += [f"{n} status {c.get('status')!r}" for n, c in checks.items()
                 if c.get("status") != "pass"]
    if tolerances != PINNED_TOLERANCES:
        diff = sorted(k for k in set(tolerances) | set(PINNED_TOLERANCES)
                      if tolerances.get(k) != PINNED_TOLERANCES.get(k))
        problems.append(f"tolerances differ from the pinned table: {diff}")
    problems += [f"{n} grid {checks[n].get('grid')} is not {g}"
                 for n, g in PINNED_GRIDS.items()
                 if n in checks and checks[n].get("grid") != g]
    want = {"m": m, "r_max": r_max, "tol": tol, "grid_points": grid,
            "seed": seed}
    if config != want:
        problems.append(f"config echo {config} is not {want}")
    return problems
