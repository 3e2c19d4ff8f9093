"""The full verification suite: every geometric claim the package makes
about the constructed metric, run as one machine-checkable report.

Each check reads the profile, its grid of radii (from profile.grid) and the
k-plane oracle's seed, and returns its entry of the report: a dict with its
worst observed margin or residual and the budget it was held to.  Budgets
are pinned here once; the tolerance table is echoed into every report.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from .config import M_MAX, ModelParams
from .convexity import (SplitMix64, brute_force_plane_min, chain_margins,
                        hessian_r2, hessian_r2_diagonal,
                        min_trace_over_kplanes, second_derivative_signs)
from .curvature import (asd_residual, curvature_components,
                        fiber_gauss_curvature, kappa_term_scale)
from .ode import integrate, product_identity_residual, region_margins, rhs
from .series import formal_residual_ok
from .zero_section import calibration_check, stability_operator


def tolerances(tol: float) -> dict:
    return {
        "ode_stored_rel": 10.0 * tol,
        "ode2_interp_abs": 1e-6,
        "asd_stored_abs": 1e-9,
        "asd_interp_abs": 1e-6,
        "kappa_cyclic_rel": 1e-12,
        "kappa_certificate_rel": 1e-6,
        "stability_rel": 1e-12,
        "calibration_slack": 1e-8,
        "kplane_agree": 1e-3,
        "kplane_undercut": 1e-8,
        "kplane_trials": 100_000,
        "scale_covariance_rel": 1e-8,
        "zero_limits_rel": 1e-13,
        "fiber_limit_rel": 1e-4,
    }


def _result(name, anchor, passed, worst, budget, direction, grid, note):
    """A check's entry of the report; `direction` is how `worst` compares
    against `budget` when passing."""
    return {"check": name, "anchor": anchor,
            "status": "pass" if passed else "fail", "worst": worst,
            "budget": budget, "direction": direction, "grid": grid,
            "note": note}


def check_ode_residuals(profile, grid, seed) -> dict:
    tols = tolerances(profile.params.tol)
    n = profile.samples
    worst_stored = max(
        float(np.max(np.abs(d - f) / np.maximum(1.0, np.abs(f))))
        for d, f in zip((n.da, n.db, n.dc), rhs(n.a, n.b, n.c)))
    # 12 evenly spaced points inside each step
    t = np.arange(1, 13) / 13
    inner = (n.r[:-1, None] + np.diff(n.r)[:, None] * t).ravel()
    # the identities' residual is a length; over m it is scale-free
    worst_inner = product_identity_residual(profile, inner) / profile.params.m
    ratio = max(worst_stored / tols["ode_stored_rel"],
                worst_inner / tols["ode2_interp_abs"])
    return _result(
        name="ode_residuals",
        anchor="coefficient system residuals on stored nodes; "
               "product identities (ca+ab)' = 2(ca)(ab)/(abc) between them",
        passed=ratio <= 1.0, worst=ratio, budget=1.0, direction="<=",
        grid=len(n) + len(inner),
        note=f"stored={worst_stored:.3e} (<= {tols['ode_stored_rel']:.1e}), "
             f"interp={worst_inner:.3e} (<= {tols['ode2_interp_abs']:.1e}); "
             f"nodes={len(n)}")


def check_series_expansion(profile, grid, seed) -> dict:
    ser = profile.bootstrap
    mf = Fraction(ser.m)
    ua, up, uq = ser.unit_a, ser.unit_p, ser.unit_q
    b = [(up[k] - uq[k]) / 2 for k in range(3)]
    c = [(up[k] + uq[k]) / 2 for k in range(3)]
    exact = (
        ua[1] == 2 and ua[2] == 0 and ua[3] == Fraction(-1, 2)
        and b == [Fraction(-1), Fraction(1, 2), Fraction(-3, 8)]
        and c == [Fraction(1), Fraction(1, 2), Fraction(3, 8)]
        and ser.coeff_a[1] == 2 and ser.coeff_q[0] == 2 * mf
        and ser.coeff_p[1] == 1 and ser.coeff_q[2] == Fraction(3, 4) / mf
    )
    # parity needs no test here: SeriesCoefficients enforces it when built
    ok = exact and formal_residual_ok(ser)
    return _result(
        name="series_expansion",
        anchor="a = 2r - r^3/(2m^2) + ..., b = -m + r/2 - 3r^2/(8m) + ..., "
               "c = m + r/2 + 3r^2/(8m) + ...; a, c+b odd in r, c-b even",
        passed=ok, worst=0.0 if ok else 1.0, budget=0.0, direction="<=",
        grid=ser.order,
        note=f"exact rational equality through printed orders; parity through "
             f"r^{ser.order}; formal residual zero through r^{ser.order - 1}")


def check_shape_region(profile, grid, seed) -> dict:
    s = profile.eval(grid)
    margins = region_margins(s, profile.params.m)
    worst = min(float(np.min(g)) for g in margins)
    # the x < 1 margin with its factor e^l put back, as log10
    gap_log10 = float(np.min(np.log10(margins[2]) + s.log_gap / math.log(10)))
    return _result(
        name="shape_region",
        anchor="shape curve (x, y) = (a/c, b/c) stays in "
               "y < -1 + x, 0 < x < 1, -1 < y < 0",
        passed=worst > 0.0, worst=worst, budget=0.0, direction=">",
        grid=len(grid),
        note=f"x < 1 margin 1 - x = e^l m/c from the integrated log gap l, "
             f"checked as m/c; smallest 1 - x = 10^{gap_log10:.3f}")


def check_hyperkahler_certificate(profile, grid, seed) -> dict:
    tols = tolerances(profile.params.tol)
    asd_stored = float(np.max(np.abs(asd_residual(profile.samples))))
    s = profile.eval(grid)
    asd_interp = float(np.max(np.abs(asd_residual(s))))
    k1, k2, k3 = curvature_components(s)
    cyc = float(np.max(np.abs(k1 + k2 + k3) / kappa_term_scale(s.a, s.b, s.c)))
    # relative to |kappa|, floored at the curvature scale 1/m^2
    cert = max(
        float(np.max(np.abs(du / u - ki)
                     / np.maximum(1.0 / profile.params.m ** 2, np.abs(ki))))
        for du, u, ki in ((s.dda, s.a, k1), (s.ddb, s.b, k2),
                          (s.ddc, s.c, k3)))
    ratio = max(asd_stored / tols["asd_stored_abs"],
                asd_interp / tols["asd_interp_abs"],
                cyc / tols["kappa_cyclic_rel"],
                cert / tols["kappa_certificate_rel"])
    return _result(
        name="hyperkahler_certificate",
        anchor="anti-self-dual identities a' + (b^2+c^2-a^2)/(2bc) = 1 (cyclic); "
               "kappa cyclic sum = 0; a''/a = kappa(a,b,c) (cyclic)",
        passed=ratio <= 1.0, worst=ratio, budget=1.0, direction="<=",
        grid=len(grid),
        note=f"asd stored={asd_stored:.2e}, interp={asd_interp:.2e}, "
             f"cyclic={cyc:.2e} (term-scale relative), certificate={cert:.2e}")


def check_strong_stability(profile, grid, seed) -> dict:
    tols = tolerances(profile.params.tol)
    worst = 0.0
    positive = True
    for m in (0.5, 1.0, 2.0, 10.0):
        s = stability_operator(m)
        target = np.eye(2) / m ** 2
        worst = max(worst, float(np.max(np.abs(s - target))) * m ** 2)
        # Sylvester's criterion, exact for a symmetric 2x2 (the lower
        # triangle, as eigvalsh reads it); the package's one LAPACK call
        # it replaces made 0.75 MB of `verify`'s peak RSS
        positive = positive and bool(
            s[0, 0] > 0.0 and s[0, 0] * s[1, 1] - s[1, 0] * s[1, 0] > 0.0)
    return _result(
        name="strong_stability",
        anchor="normal-bundle operator (curvature minus squared second "
               "fundamental form) equals identity / m^2, positive definite",
        passed=worst <= tols["stability_rel"] and positive,
        worst=worst, budget=tols["stability_rel"], direction="<=", grid=4,
        note="assembled from r=0 curvature limits and the second fundamental "
             "form for m in {0.5, 1, 2, 10}")


def check_calibration_bound(profile, grid, seed) -> dict:
    slack = tolerances(profile.params.tol)["calibration_slack"]
    m2 = profile.params.m ** 2
    # bc at r = 0, then at the grid's r > 0
    bc, dbc = calibration_check(profile, np.r_[0.0, grid])
    monotone = not (np.any(dbc[1:] >= 0.0) or np.any(bc[1:] >= bc[:-1]))
    # the bound up to the relative slack, bc <= -m^2 (1 - slack); strict
    # for r > 0, and at r = 0 bc = -m^2 exactly
    bound_holds = not np.any(bc > -m2 * (1.0 - slack))
    strict = not np.any(bc[1:] >= -m2)
    equal_at_zero = bool(bc[0] == -m2)
    # the excess over r > 0, relative to m^2, so scale-free
    worst = float(np.max((bc[1:] + m2) / m2))
    return _result(
        name="calibration_bound",
        anchor="b c <= -m^2 with equality only at r = 0; b c strictly decreasing",
        passed=bound_holds and monotone and strict and equal_at_zero,
        worst=worst, budget=0.0, direction="<=", grid=len(bc),
        note=f"bc(0) = -m^2: {equal_at_zero}, monotone={monotone}, "
             f"strict for r>0: {strict}")


def check_derivative_chain(profile, grid, seed) -> dict:
    margins, gap_log10 = chain_margins(profile, grid)
    worst = min(margins)
    return _result(
        name="derivative_chain",
        anchor="1 > r a'/a > r c'/c > -r b'/b > 0",
        passed=worst > 0.0, worst=worst, budget=0.0, direction=">",
        grid=len(grid),
        note="margins " + ", ".join(f"{g:.3e}" for g in margins)
             + f"; the second without its factor e^l > 0, which puts its "
               f"smallest at 10^{gap_log10:.3f}")


def check_two_convexity(profile, grid, seed) -> dict:
    eig = hessian_r2(profile.eval(grid))
    worst = float(min(np.min(min_trace_over_kplanes(eig, 2)),
                      np.min(min_trace_over_kplanes(eig, 3)), np.min(-eig[0])))
    return _result(
        name="two_convexity",
        anchor="sum of two (and of three) smallest Hess(r^2) eigenvalues "
               "positive for r > 0; smallest eigenvalue negative",
        passed=worst > 0.0, worst=worst, budget=0.0, direction=">",
        grid=len(grid),
        note="smallest eigenvalue < 0 confirms plain convexity fails")


def check_kplane_oracle(profile, grid, seed) -> dict:
    tols = tolerances(profile.params.tol)
    r_max = profile.r_max
    lo = r_max / 100.0
    radii = lo + (r_max - lo) * SplitMix64(seed).uniform(10)
    s = profile.eval(radii)
    diagonal = hessian_r2_diagonal(s)
    spectrum = hessian_r2(s)
    # one stream of lines (seed + 1000) and one of 2-planes (seed + 2000),
    # each scored at every radius; a 3-plane with unit normal n has trace
    # tr d - n^T D n, so the lines scored with -d give k = 3
    trials = tols["kplane_trials"]
    lines = brute_force_plane_min(np.hstack([diagonal, -diagonal]), 1,
                                  trials=trials, seed=seed + 1000)
    planes = brute_force_plane_min(diagonal, 2, trials=trials,
                                   seed=seed + 2000)
    on_d, on_minus_d = np.split(lines, 2)
    minima = (on_d, planes, np.sum(diagonal, axis=0) + on_minus_d)
    errs = np.array([m - min_trace_over_kplanes(spectrum, k)
                     for k, m in enumerate(minima, 1)])
    worst_diff = float(np.max(np.abs(errs)))
    worst_undercut = min(0.0, float(np.min(errs)))
    ok = worst_diff <= tols["kplane_agree"] and worst_undercut >= -tols["kplane_undercut"]
    return _result(
        name="kplane_oracle",
        anchor="minimum of tr_L Hess(r^2) over k-planes equals the sum of "
               "the k smallest eigenvalues",
        passed=ok, worst=worst_diff, budget=tols["kplane_agree"],
        direction="<=", grid=30,
        note=f"k in 1..3 at 10 radii, {trials} trials each; "
             f"worst undercut {worst_undercut:.2e} (>= -{tols['kplane_undercut']:.0e})")


def check_second_derivative_signs(profile, grid, seed) -> dict:
    max_dda, max_ddb, changes, crossing = second_derivative_signs(
        profile, grid)
    ok = (max_dda < 0.0 and max_ddb < 0.0
          and changes == 1 and crossing is not None)
    return _result(
        name="second_derivative_signs",
        anchor="a'' < 0 and b'' < 0 for r > 0; c'' positive near 0, one sign change",
        passed=ok, worst=max(max_dda, max_ddb), budget=0.0,
        direction="<", grid=len(grid),
        note=f"c'' crossing at r = {crossing!r} ({changes} bracketed)")


def check_scale_covariance(profile, grid, seed) -> dict:
    tols = tolerances(profile.params.tol)
    p1 = profile.params
    # compare against 2m, or against m/2 where 2m leaves the accepted range;
    # `integrate` rescales by either power of two bit for bit: worst is 0.0
    f = 2.0 if 2.0 * p1.m <= M_MAX else 0.5
    p2 = ModelParams(m=f * p1.m, r_max=f * p1.r_max, tol=p1.tol)
    prof2 = integrate(p2)
    r = p2.r_max * np.arange(1, 101) / 100.0
    s2 = prof2.eval(r)
    s1 = profile.eval(r / f)
    worst = max(
        float(np.max(np.abs(got - want) / np.maximum(floor, np.abs(got))))
        for got, want, floor in (
            (s2.a, f * s1.a, p2.m), (s2.b, f * s1.b, p2.m),
            (s2.c, f * s1.c, p2.m), (s2.da, s1.da, 1.0),
            (s2.dda, s1.dda / f, 1.0 / p2.m)))
    return _result(
        name="scale_covariance",
        anchor="coefficients at parameter 2m are the doubled rescaling "
               "a(r) -> 2 a(r/2) of the parameter-m profile",
        passed=worst <= tols["scale_covariance_rel"], worst=worst,
        budget=tols["scale_covariance_rel"], direction="<=", grid=100,
        note="values, first and second derivatives compared; 0.0 by "
             "construction at a power-of-two factor" + (
            "" if f == 2.0 else "; at parameter m/2, as 2m is out of range"))


def check_zero_section_limits(profile, grid, seed) -> dict:
    tols = tolerances(profile.params.tol)
    m = profile.params.m
    s = profile.eval(np.array([0.0, m / 1000.0]))
    # (value, limit, scale): each error is relative to its limit, floored at
    # the scale of its quantity (m, 1, 1/m), so the check is scale-free
    triples = (
        (s.a, 0.0, m), (s.b, -m, m), (s.c, m, m),
        (s.da, 2.0, 1.0), (s.db, 0.5, 1.0), (s.dc, 0.5, 1.0),
        (s.dda, 0.0, 1.0 / m), (s.ddb, -0.75 / m, 1.0 / m),
        (s.ddc, 0.75 / m, 1.0 / m),
    )
    worst = max(abs(got[0] - want) / max(scale, abs(want))
                for got, want, scale in triples)
    k_fiber, k_near = fiber_gauss_curvature(s)
    worst = float(max(worst, abs(k_fiber * m * m / 1.5 - 1.0)))
    approach = float(abs(k_near * m * m / 1.5 - 1.0))
    ok = worst <= tols["zero_limits_rel"] and approach <= tols["fiber_limit_rel"]
    return _result(
        name="zero_section_limits",
        anchor="r=0: (a,b,c) = (0,-m,m), derivatives (2, 1/2, 1/2), second "
               "derivatives (0, -3/(4m), 3/(4m)); fiber curvature -> 3/(2m^2)",
        passed=ok, worst=worst, budget=tols["zero_limits_rel"],
        direction="<=", grid=1,
        note=f"fiber curvature at r = m/1000 within {approach:.2e} of 3/(2m^2)")


ALL_CHECKS = (
    check_ode_residuals,
    check_series_expansion,
    check_shape_region,
    check_hyperkahler_certificate,
    check_strong_stability,
    check_calibration_bound,
    check_derivative_chain,
    check_two_convexity,
    check_kplane_oracle,
    check_second_derivative_signs,
    check_scale_covariance,
    check_zero_section_limits,
)


def run_verification(params: ModelParams, grid_points: int,
                     seed: int | None = None):
    """Integrate the profile of `params` and run every check on it, on a
    grid of `grid_points` radii; an unset seed keys the k-plane oracle
    by 0 and is echoed as null.

    Returns the report, the dict that is written as JSON, then the wall
    seconds of integrate and of each check, by name, and the stepper's
    statistics; those two are never in the report, so its bytes stay
    reproducible."""
    t0 = time.perf_counter()
    profile = integrate(params)
    seconds = {"integrate": time.perf_counter() - t0}
    args = profile, profile.grid(grid_points), 0 if seed is None else seed
    checks = []
    for fn in ALL_CHECKS:
        t0 = time.perf_counter()
        checks.append(fn(*args))
        seconds[checks[-1]["check"]] = time.perf_counter() - t0
    echo = {
        "m": params.m,
        "r_max": params.r_max,
        "tol": params.tol,
        "grid_points": grid_points,
        "seed": seed,
    }
    report = {"config": echo, "tolerances": tolerances(params.tol),
              "checks": checks,
              "all_pass": all(c["status"] == "pass" for c in checks)}
    return report, seconds, profile.stats
