"""The full verification suite: every geometric claim the package makes
about the constructed metric, run as one machine-checkable report.

Each check returns a CheckResult with its worst observed margin or residual
and the budget it was held to.  Budgets are pinned here once; the tolerance
table is echoed into every report.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import ModelParams, RunConfig
from .convexity import (brute_force_plane_min, chain_margins, hessian_r2,
                        hessian_r2_diagonal, min_trace_over_kplanes,
                        second_derivative_signs)
from .curvature import (asd_residual, curvature_components,
                        fiber_gauss_curvature, kappa_term_scale)
from .ode import (MetricProfile, integrate, product_identity_residual,
                  region_margins, rhs)
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    passed: bool
    worst: float
    budget: float
    direction: str  # how `worst` compares against `budget` when passing
    grid: int
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "anchor": self.anchor,
            "status": "pass" if self.passed else "fail",
            "worst": self.worst,
            "budget": self.budget,
            "direction": self.direction,
            "grid": self.grid,
            "note": self.note,
        }


@dataclass(frozen=True)
class VerifyContext:
    config: RunConfig
    profile: MetricProfile

    @property
    def grid(self) -> np.ndarray:
        return self.profile.grid(self.config.grid_points)

    @property
    def tol(self) -> float:
        return self.profile.params.tol

    @property
    def m(self) -> float:
        return self.profile.params.m


def check_ode_residuals(ctx: VerifyContext) -> CheckResult:
    tols = tolerances(ctx.tol)
    n = ctx.profile.samples
    worst_stored = max(
        float(np.max(np.abs(d - f) / np.maximum(1.0, np.abs(f))))
        for d, f in zip((n.da, n.db, n.dc), rhs(n.a, n.b, n.c)))
    mids = 0.5 * (n.r[:-1] + n.r[1:])
    worst_mid = product_identity_residual(ctx.profile, mids)
    ratio = max(worst_stored / tols["ode_stored_rel"],
                worst_mid / tols["ode2_interp_abs"])
    stats = ctx.profile.stats
    steps = "" if stats is None else f", capped steps={stats.capped_share:.4f}"
    return CheckResult(
        name="ode_residuals",
        anchor="coefficient system residuals on stored nodes; "
               "product identities (ca+ab)' = 2(ca)(ab)/(abc) at midpoints",
        passed=ratio <= 1.0, worst=ratio, budget=1.0, direction="<=",
        grid=len(n) + len(mids),
        note=f"stored={worst_stored:.3e} (<= {tols['ode_stored_rel']:.1e}), "
             f"interp={worst_mid:.3e} (<= {tols['ode2_interp_abs']:.1e}); "
             f"nodes={len(n)}{steps}")


def check_series_expansion(ctx: VerifyContext) -> CheckResult:
    ser = ctx.profile.bootstrap
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
    return CheckResult(
        name="series_expansion",
        anchor="a = 2r - r^3/(2m^2) + ..., b = -m + r/2 - 3r^2/(8m) + ..., "
               "c = m + r/2 + 3r^2/(8m) + ...; a, c+b odd in r, c-b even",
        passed=ok, worst=0.0 if ok else 1.0, budget=0.0, direction="<=",
        grid=ser.order,
        note=f"exact rational equality through printed orders; parity through "
             f"r^{ser.order}; formal residual zero through r^{ser.order - 1}")


def check_shape_region(ctx: VerifyContext) -> CheckResult:
    worst = min(float(np.min(g))
                for g in region_margins(ctx.profile.eval(ctx.grid)))
    return CheckResult(
        name="shape_region",
        anchor="shape curve (x, y) = (a/c, b/c) stays in "
               "y < -1 + x, 0 < x < 1, -1 < y < 0",
        passed=worst > 0.0, worst=worst, budget=0.0, direction=">",
        grid=len(ctx.grid),
        note="x < 1 margin evaluated from the tracked gap c - a")


def check_hyperkahler_certificate(ctx: VerifyContext) -> CheckResult:
    tols = tolerances(ctx.tol)
    asd_stored = float(np.max(np.abs(asd_residual(ctx.profile.samples))))
    s = ctx.profile.eval(ctx.grid)
    asd_interp = float(np.max(np.abs(asd_residual(s))))
    k = curvature_components(s)
    cyc = float(np.max(np.abs(k.cyclic_sum) / kappa_term_scale(s.a, s.b, s.c)))
    cert = max(
        float(np.max(np.abs(du / u - ki) / np.maximum(1.0, np.abs(ki))))
        for du, u, ki in ((s.dda, s.a, k.k1), (s.ddb, s.b, k.k2),
                          (s.ddc, s.c, k.k3)))
    ratio = max(asd_stored / tols["asd_stored_abs"],
                asd_interp / tols["asd_interp_abs"],
                cyc / tols["kappa_cyclic_rel"],
                cert / tols["kappa_certificate_rel"])
    return CheckResult(
        name="hyperkahler_certificate",
        anchor="anti-self-dual identities a' + (b^2+c^2-a^2)/(2bc) = 1 (cyclic); "
               "kappa cyclic sum = 0; a''/a = kappa(a,b,c) (cyclic)",
        passed=ratio <= 1.0, worst=ratio, budget=1.0, direction="<=",
        grid=len(ctx.grid),
        note=f"asd stored={asd_stored:.2e}, interp={asd_interp:.2e}, "
             f"cyclic={cyc:.2e} (term-scale relative), certificate={cert:.2e}")


def check_strong_stability(ctx: VerifyContext) -> CheckResult:
    tols = tolerances(ctx.tol)
    worst = 0.0
    positive = True
    for m in (0.5, 1.0, 2.0, 10.0):
        s = stability_operator(m)
        target = np.eye(2) / m ** 2
        worst = max(worst, float(np.max(np.abs(s - target))) * m ** 2)
        positive = positive and bool(np.all(np.linalg.eigvalsh(s) > 0.0))
    return CheckResult(
        name="strong_stability",
        anchor="normal-bundle operator (curvature minus squared second "
               "fundamental form) equals identity / m^2, positive definite",
        passed=worst <= tols["stability_rel"] and positive,
        worst=worst, budget=tols["stability_rel"], direction="<=", grid=4,
        note="assembled from r=0 curvature limits and the second fundamental "
             "form for m in {0.5, 1, 2, 10}")


def check_calibration_bound(ctx: VerifyContext) -> CheckResult:
    cal = calibration_check(ctx.profile, np.r_[0.0, ctx.grid],
                            tolerances(ctx.tol)["calibration_slack"])
    ok = cal.bound_holds and cal.monotone and cal.strict_after_zero
    return CheckResult(
        name="calibration_bound",
        anchor="b c <= -m^2 with equality only at r = 0; b c strictly decreasing",
        passed=ok, worst=cal.worst_excess, budget=0.0, direction="<=",
        grid=len(ctx.grid) + 1,
        note=f"min |bc| = {cal.min_abs_bc:.15g}, monotone={cal.monotone}, "
             f"strict for r>0: {cal.strict_after_zero}")


def check_derivative_chain(ctx: VerifyContext) -> CheckResult:
    margins = chain_margins(ctx.profile, ctx.grid)
    worst = min(margins)
    return CheckResult(
        name="derivative_chain",
        anchor="1 > r a'/a > r c'/c > -r b'/b > 0",
        passed=worst > 0.0, worst=worst, budget=0.0, direction=">",
        grid=len(ctx.grid),
        note="margins " + ", ".join(f"{g:.3e}" for g in margins))


def check_two_convexity(ctx: VerifyContext) -> CheckResult:
    eig = hessian_r2(ctx.profile.eval(ctx.grid))
    worst = float(min(np.min(min_trace_over_kplanes(eig, 2)),
                      np.min(min_trace_over_kplanes(eig, 3)), np.min(-eig[0])))
    return CheckResult(
        name="two_convexity",
        anchor="sum of two (and of three) smallest Hess(r^2) eigenvalues "
               "positive for r > 0; smallest eigenvalue negative",
        passed=worst > 0.0, worst=worst, budget=0.0, direction=">",
        grid=len(ctx.grid),
        note="smallest eigenvalue < 0 confirms plain convexity fails")


def check_kplane_oracle(ctx: VerifyContext) -> CheckResult:
    tols = tolerances(ctx.tol)
    seed = 0 if ctx.config.seed is None else ctx.config.seed
    r_max = ctx.profile.r_max
    radii = np.random.default_rng(seed).uniform(r_max / 100.0, r_max, size=10)
    s = ctx.profile.eval(radii)
    diagonal = hessian_r2_diagonal(s)
    spectrum = hessian_r2(s)
    # one minimizer call per k; radius i draws from seed + 1000*k + i
    errs = np.array([
        brute_force_plane_min(diagonal, k, trials=tols["kplane_trials"],
                              seed=seed + 1000 * k)
        - min_trace_over_kplanes(spectrum, k) for k in (1, 2, 3)])
    worst_diff = float(np.max(np.abs(errs)))
    worst_undercut = min(0.0, float(np.min(errs)))
    ok = worst_diff <= tols["kplane_agree"] and worst_undercut >= -tols["kplane_undercut"]
    return CheckResult(
        name="kplane_oracle",
        anchor="minimum of tr_L Hess(r^2) over k-planes equals the sum of "
               "the k smallest eigenvalues",
        passed=ok, worst=worst_diff, budget=tols["kplane_agree"],
        direction="<=", grid=30,
        note=f"k in 1..3 at 10 radii, {tols['kplane_trials']} trials each; "
             f"worst undercut {worst_undercut:.2e} (>= -{tols['kplane_undercut']:.0e})")


def check_second_derivative_signs(ctx: VerifyContext) -> CheckResult:
    rep = second_derivative_signs(ctx.profile, ctx.grid)
    ok = (rep.a_concave and rep.b_concave and rep.c_sign_changes == 1
          and rep.c_crossing is not None)
    return CheckResult(
        name="second_derivative_signs",
        anchor="a'' < 0 and b'' < 0 for r > 0; c'' positive near 0, one sign change",
        passed=ok, worst=max(rep.max_dda, rep.max_ddb), budget=0.0,
        direction="<", grid=len(ctx.grid),
        note=f"c'' crossing at r = {rep.c_crossing!r} "
             f"({rep.c_sign_changes} bracketed)")


def check_scale_covariance(ctx: VerifyContext) -> CheckResult:
    tols = tolerances(ctx.tol)
    p1 = ctx.profile.params
    p2 = ModelParams(m=2.0 * p1.m, r_max=2.0 * p1.r_max, tol=p1.tol)
    prof2 = integrate(p2)
    r = p2.r_max * np.arange(1, 101) / 100.0
    s2 = prof2.eval(r)
    s1 = ctx.profile.eval(r / 2.0)
    worst = max(
        float(np.max(np.abs(got - want) / np.maximum(floor, np.abs(got))))
        for got, want, floor in (
            (s2.a, 2.0 * s1.a, p2.m), (s2.b, 2.0 * s1.b, p2.m),
            (s2.c, 2.0 * s1.c, p2.m), (s2.da, s1.da, 1.0),
            (s2.dda, 0.5 * s1.dda, 1.0 / p2.m)))
    return CheckResult(
        name="scale_covariance",
        anchor="coefficients at parameter 2m are the doubled rescaling "
               "a(r) -> 2 a(r/2) of the parameter-m profile",
        passed=worst <= tols["scale_covariance_rel"], worst=worst,
        budget=tols["scale_covariance_rel"], direction="<=", grid=100,
        note="values, first and second derivatives compared")


def check_zero_section_limits(ctx: VerifyContext) -> CheckResult:
    tols = tolerances(ctx.tol)
    m = ctx.m
    s = ctx.profile.eval(np.array([0.0, m / 1000.0]))
    pairs = (
        (s.a, 0.0), (s.b, -m), (s.c, m),
        (s.da, 2.0), (s.db, 0.5), (s.dc, 0.5),
        (s.dda, 0.0), (s.ddb, -0.75 / m), (s.ddc, 0.75 / m),
    )
    worst = max(abs(got[0] - want) / max(1.0, abs(want)) for got, want in pairs)
    k_fiber, k_near = fiber_gauss_curvature(s)
    worst = float(max(worst, abs(k_fiber * m * m / 1.5 - 1.0)))
    approach = float(abs(k_near * m * m / 1.5 - 1.0))
    ok = worst <= tols["zero_limits_rel"] and approach <= tols["fiber_limit_rel"]
    return CheckResult(
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


@dataclass(frozen=True)
class VerificationReport:
    config: dict
    tolerances: dict
    checks: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self):
        return next((c for c in self.checks if not c.passed), None)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "tolerances": self.tolerances,
            "checks": [c.to_dict() for c in self.checks],
            "all_pass": self.all_pass,
        }


def run_verification(config: RunConfig,
                     profile: MetricProfile | None = None) -> VerificationReport:
    params = config.params()
    if profile is None:
        profile = integrate(params)
    ctx = VerifyContext(config=config, profile=profile)
    checks = tuple(fn(ctx) for fn in ALL_CHECKS)
    echo = {
        "m": params.m,
        "r_max": params.r_max,
        "tol": params.tol,
        "grid_points": config.grid_points,
        "seed": config.seed,
    }
    return VerificationReport(config=echo, tolerances=tolerances(params.tol),
                              checks=checks)
