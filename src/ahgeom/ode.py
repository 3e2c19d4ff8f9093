"""Coefficient ODE of the cohomogeneity-one metric ansatz

    ds^2 = dr^2 + a^2 (s1)^2 + b^2 (s2)^2 + c^2 (s3)^2

with a(0) = 0, b(0) = -m, c(0) = m.  The system has a regular singular point
at r = 0 (every right-hand side divides by a coefficient that vanishes
there), so integration starts from an exact series bootstrap at a small
radius r0 and proceeds with an adaptive embedded Runge-Kutta pair.  A
profile stores its accepted steps as one sample of arrays (radius, values,
first and second derivatives, gap with its derivatives) and evaluates a
whole array of radii in [0, r_max] at once with `MetricProfile.eval`: by
series below r0, by quintic Hermite interpolation of the stored values, first
and second derivatives above.  `eval` is the one way the package reads a
profile.

The difference c - a closes exponentially (rate ~ 3/m), so beyond r ~ 12 m
it falls below the floating-point resolution of c itself and the rounded
a, c collapse onto each other.  Since several strict inequalities of the
geometry (x = a/c < 1 and the derivative ordering a'/a > c'/c) live exactly
in that difference, the integrator tracks the gap u = c - a as an extra
state component with its own cancellation-free equation

    u' = u * (a + c - b)(a + b + c) / (2abc),

an exact algebraic consequence of the coefficient system.  Samples expose it
as `gap`, at full relative precision at every radius.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .config import ModelParams
from .series import SeriesCoefficients, expand


class IntegrationError(RuntimeError):
    """Integrator failure; carries the radius that was reached."""

    def __init__(self, message: str, r_reached: float):
        super().__init__(f"{message} (at r = {r_reached:.6g})")
        self.r_reached = r_reached


def rhs(a, b, c):
    """Right-hand side (a', b', c') of the coefficient system, elementwise
    on arrays.  For Python floats, a vanishing a, b or c raises ValueError."""
    try:
        return ((a * a - (b - c) ** 2) / (2.0 * b * c),
                (b * b - (c - a) ** 2) / (2.0 * c * a),
                (c * c - (a - b) ** 2) / (2.0 * a * b))
    except ZeroDivisionError:
        raise ValueError(
            "coefficient ODE is singular where a, b or c vanishes; "
            "use the series bootstrap at r = 0") from None


def gap_rate(a: float, b: float, c: float) -> float:
    """g with (c - a)' = (c - a) * g; exact consequence of the system."""
    return (a + c - b) * (a + b + c) / (2.0 * a * b * c)


def _d2_component(u, v, w, du, dv, dw):
    # chain rule through f = (u^2 - (v-w)^2) / (2 v w)
    n = u * u - (v - w) ** 2
    fu = u / (v * w)
    fv = -(v - w) / (v * w) - n / (2.0 * v * v * w)
    fw = (v - w) / (v * w) - n / (2.0 * v * w * w)
    return fu * du + fv * dv + fw * dw


def second_derivatives(a, b, c, da, db, dc):
    """(a'', b'', c'') by analytic differentiation of the right-hand side."""
    return (_d2_component(a, b, c, da, db, dc),
            _d2_component(b, c, a, db, dc, da),
            _d2_component(c, a, b, dc, da, db))


@dataclass(frozen=True)
class CoefficientSample:
    """The metric's full local data at one radius, or at an array of radii
    when every field is an array of the same shape.

    gap carries c - a at full relative precision (it underflows the plain
    float subtraction c - a beyond r ~ 12 m); dgap and ddgap are its first
    and second r-derivatives.
    """

    r: float
    a: float
    b: float
    c: float
    da: float
    db: float
    dc: float
    dda: float
    ddb: float
    ddc: float
    gap: float
    dgap: float
    ddgap: float

    def __len__(self) -> int:
        """Number of radii of an array sample."""
        return len(self.r)


def region_margins(sample: CoefficientSample):
    """Margins of the admissible shape region, each positive exactly when
    the strict inequalities  y < -1 + x,  0 < x < 1,  -1 < y < 0  hold.

    Written in cancellation-free form: the x < 1 margin is evaluated from
    the tracked gap c - a, and y < -1 + x as (-b - (c - a))/c, so both stay
    meaningful after the rounded x saturates at 1.
    """
    x, y = sample.a / sample.c, sample.b / sample.c
    m_region = (-sample.b - sample.gap) / sample.c  # (x - 1) - y
    return (m_region, x, sample.gap / sample.c, y + 1.0, -y)


def sample_from_series(series: SeriesCoefficients, r) -> CoefficientSample:
    """Sample with all fields from term-wise series differentiation;
    elementwise on arrays."""
    a, p, q, da, dp, dq, dda, ddp, ddq = series.apq(r)
    b, c = 0.5 * (p - q), 0.5 * (p + q)
    db, dc = 0.5 * (dp - dq), 0.5 * (dp + dq)
    ddb, ddc = 0.5 * (ddp - ddq), 0.5 * (ddp + ddq)
    return CoefficientSample(
        r=r, a=a, b=b, c=c, da=da, db=db, dc=dc, dda=dda, ddb=ddb, ddc=ddc,
        gap=c - a, dgap=dc - da, ddgap=ddc - dda)


# Dormand-Prince 5(4) embedded pair; the fifth-order solution propagates and
# the last stage is the first stage of the next step (FSAL).
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

# Step cap keeping quintic Hermite interpolation between stored nodes well
# inside the 10*tol reconstruction budget: its error is h^6 |y^(6)| / 46080,
# so the cap scales as tol^(1/6).  It binds on almost every step; without it
# the DP5(4) steps grow long enough for integration error alone to fail
# checks.
_HERMITE_STEP_FACTOR = 0.75

# Stored-node budget, about 170x a tol-floor run to 20 m (5 745 nodes); a huge
# finite r_max would otherwise grow the node store by 72 bytes a step until
# memory runs out.
_MAX_NODES = 1_000_000


def _f4(y):
    # flow of the augmented state (a, b, c, u): coefficient system plus the
    # slaved gap equation
    a, b, c, u = y
    da, db, dc = rhs(a, b, c)
    return (da, db, dc, u * gap_rate(a, b, c))


def _step_cap(m: float, tol: float) -> float:
    """Largest step `integrate` takes, and so the widest interpolation
    interval of a profile."""
    return _HERMITE_STEP_FACTOR * m * tol ** (1.0 / 6.0)


@dataclass(frozen=True)
class IntegrationStats:
    """What the stepper did in one `integrate` run.  Steps are the accepted
    r-increments (the last one is cut to land on r_max); a step is capped
    when it equals the step cap, so the error controller did not bind."""

    accepted: int
    rejected: int
    rhs_calls: int  # evaluations of the augmented flow, one per RK stage
    h_min: float
    h_max: float
    capped_share: float


def _combine(y, h, ks, coefs):
    return tuple(
        y[i] + h * math.fsum(cf * k[i] for cf, k in zip(coefs, ks))
        for i in range(4))


def integrate(params: ModelParams) -> "MetricProfile":
    """Adaptive integration from the series bootstrap at r0 out to r_max.

    Every accepted step has an embedded local error estimate at most tol
    relative to the solution scale m + |y| on the coefficient components,
    and is at most `_step_cap(m, tol)` long.  The gap component is not
    error-controlled: since log u is the integral of g, its relative error
    is the accumulated error of g along the path and grows with r (to about
    50 tol at r = 20 m for m = 1, tol = 1e-10).  Nodes store u'' = u' g + u g' beside the
    coefficients' second derivatives, for the quintic interpolation.
    Raises IntegrationError on step-size underflow, if a stored state
    leaves the physical region (a > 0, c > a, b < 0), or if the run would
    store more than _MAX_NODES nodes: before the first step when
    (r_max - r0) / h_max alone exceeds the budget, otherwise when it is hit.
    """
    series = expand(params.m, 10)
    r0 = series.truncation_radius(params.tol)
    if not r0 < 0.5 * params.r_max:
        raise ValueError(
            f"r_max = {params.r_max:g} too small: series bootstrap already "
            f"covers r < {r0:g}")

    m, tol = params.m, params.tol
    h_max = _step_cap(m, tol)
    h_min = 1e-13 * m
    # every accepted step is at most h_max, so this many nodes is a floor
    if (params.r_max - r0) / h_max > _MAX_NODES:
        raise IntegrationError(
            f"stored-node budget of {_MAX_NODES} exceeded: steps of at most "
            f"{h_max:.3g} need {(params.r_max - r0) / h_max:.3g} nodes; "
            "raise tol or lower r_max", r0)

    start = sample_from_series(series, r0)
    y = (start.a, start.b, start.c, start.gap)
    k1 = _f4(y)
    # one row (r, a, b, c, gap, da, db, dc, dgap) per accepted state, with
    # the derivatives taken from its FSAL stage
    rows = array("d", (r0, *y, *k1))

    r = r0
    h = min(h_max, r0)
    accepted = rejected = capped = 0
    rhs_calls = 1
    h_lo, h_hi = math.inf, 0.0
    while r < params.r_max:
        last = r + h >= params.r_max
        if last:
            h = params.r_max - r
        ks = [k1]
        try:
            for s in range(1, 7):
                ys = _combine(y, h, ks, _DP_A[s])
                ks.append(_f4(ys))
        except ValueError:
            raise IntegrationError("stage state hit a coordinate zero", r)
        rhs_calls += len(ks) - 1
        y_new = ys  # stage 7 state: the fifth-order solution
        norm = max(
            abs(h * math.fsum(e * k[i] for e, k in zip(_DP_ERR, ks)))
            / (tol * (m + abs(y[i])))
            for i in range(3))
        if norm <= 1.0:
            r_new = params.r_max if last else r + h
            a, b, c, u = y_new
            if a <= 0.0 or c <= 0.0 or b >= 0.0 or u <= 0.0:
                raise IntegrationError(
                    "state left the physical region a > 0 > b, c > a; "
                    "integrator failure", r_new)
            if len(rows) >= 9 * _MAX_NODES:
                raise IntegrationError(
                    f"stored-node budget of {_MAX_NODES} exhausted; "
                    "raise tol or lower r_max", r)
            accepted += 1
            capped += h == h_max
            h_lo, h_hi = min(h_lo, h), max(h_hi, h)
            r, y = r_new, y_new
            k1 = ks[6]  # FSAL
            rows.append(r)
            rows.extend(y)
            rows.extend(k1)
            fac = 5.0 if norm == 0.0 else min(5.0, 0.9 * norm ** -0.2)
            h = min(h * fac, h_max)
        else:
            rejected += 1
            h *= max(0.2, 0.9 * norm ** -0.2)
        if h < h_min and r < params.r_max:
            raise IntegrationError("step size underflow", r)

    r, a, b, c, gap, da, db, dc, dgap = np.array(rows).reshape(-1, 9).T.copy()
    dda, ddb, ddc, ddgap = _second_derivatives_on_flow(a, b, c, gap, dgap)
    nodes = CoefficientSample(r, a, b, c, da, db, dc, dda, ddb, ddc,
                              gap, dgap, ddgap)
    stats = IntegrationStats(
        accepted=accepted, rejected=rejected, rhs_calls=rhs_calls,
        h_min=h_lo, h_max=h_hi, capped_share=capped / accepted)
    return MetricProfile(params=params, bootstrap=series, samples=nodes,
                         stats=stats)


def _second_derivatives_on_flow(a, b, c, gap, dgap):
    # (a'', b'', c'', gap'') of states on the flow, with (a', b', c') from
    # the right-hand side; gap'' = gap' g + gap g' with g = gap_rate and g'
    # its analytic r-derivative, g times the logarithmic derivative
    da, db, dc = rhs(a, b, c)
    g = gap_rate(a, b, c)
    dlog_g = ((da + dc - db) / (a + c - b) + (da + db + dc) / (a + b + c)
              - da / a - db / b - dc / c)
    return (*second_derivatives(a, b, c, da, db, dc),
            dgap * g + gap * g * dlog_g)


def _quintic_hermite_weights(t, h):
    """Weights of quintic Hermite interpolation at t = (r - r_lo) / h in an
    interval [r_lo, r_lo + h]: those of the value for y0, y1, y0', y1', y0'',
    y1'' (the h factors folded in), and those of the derivative for
    y1 - y0, y0', y1', y0'', y1''.  At t = 0 and t = 1 each is exactly 0 or
    1, so stored nodes come back bit for bit."""
    s = 1.0 - t
    t2, s2 = t * t, s * s
    t3, s3 = t2 * t, s2 * s
    w = (s3 * (1.0 + t * (3.0 + 6.0 * t)),
         t3 * (10.0 + t * (6.0 * t - 15.0)),
         h * t * s3 * (1.0 + 3.0 * t),
         h * t3 * s * (3.0 * t - 4.0),
         0.5 * h * h * t2 * s3,
         0.5 * h * h * t3 * s2)
    dw = (30.0 * t2 * s2 / h,
          s2 * (1.0 + 5.0 * t) * (1.0 - 3.0 * t),
          t2 * (6.0 - 5.0 * t) * (3.0 * t - 2.0),
          0.5 * h * t * s2 * (2.0 - 5.0 * t),
          0.5 * h * t2 * s * (3.0 - 5.0 * t))
    return w, dw


@dataclass(frozen=True)
class MetricProfile:
    """Numerically constructed metric: the accepted integration steps over
    [r0, r_max] as one sample of arrays, plus the series used below r0, and
    the stepper's statistics when `integrate` built it.  Immutable after
    construction; evaluation is safe from concurrent readers."""

    params: ModelParams
    bootstrap: SeriesCoefficients
    samples: CoefficientSample
    stats: IntegrationStats | None = None

    def __post_init__(self):
        if not np.all(np.diff(self.samples.r) > 0):
            raise ValueError("profile samples must have strictly increasing r")

    @property
    def r0(self) -> float:
        """Bootstrap radius, where `integrate` stores its first node."""
        return float(self.samples.r[0])

    @property
    def r_max(self) -> float:
        return self.params.r_max

    def eval(self, r) -> CoefficientSample:
        """Metric data at every radius of the array r, each in [0, r_max],
        as one sample of arrays: exact series limit below the bootstrap
        radius, quintic Hermite interpolation of the stored values, first
        and second derivatives elsewhere (a, b, c and the gap alike).

        Interpolated samples carry the Hermite derivative as (da, db, dc,
        dgap) and analytic second derivatives of the interpolated state, so
        residual checks against the ODE measure genuine interpolation error.
        Stored nodes come back exactly: there t is 0 or 1, where every
        Hermite weight is exactly 0 or 1 and selects one node's value and
        derivative.
        """
        r = np.array(r, dtype=float, ndmin=1)
        inside = (r >= 0.0) & (r <= self.r_max * (1.0 + 1e-12))
        if not inside.all():
            raise ValueError(
                f"r = {r[~inside][0]:g} outside [0, {self.r_max:g}]")
        nodes = self.samples
        x = np.clip(r, self.r0, nodes.r[-1])
        hi = np.clip(np.searchsorted(nodes.r, x), 1, len(nodes) - 1)
        lo = hi - 1
        h = nodes.r[hi] - nodes.r[lo]
        w, dw = _quintic_hermite_weights((x - nodes.r[lo]) / h, h)

        def interp(y, dy, ddy):
            y0, y1, m0, m1 = y[lo], y[hi], dy[lo], dy[hi]
            s0, s1 = ddy[lo], ddy[hi]
            v = (w[0] * y0 + w[1] * y1 + w[2] * m0 + w[3] * m1
                 + w[4] * s0 + w[5] * s1)
            dv = (dw[0] * (y1 - y0) + dw[1] * m0 + dw[2] * m1
                  + dw[3] * s0 + dw[4] * s1)
            return v, dv

        a, da = interp(nodes.a, nodes.da, nodes.dda)
        b, db = interp(nodes.b, nodes.db, nodes.ddb)
        c, dc = interp(nodes.c, nodes.dc, nodes.ddc)
        gap, dgap = interp(nodes.gap, nodes.dgap, nodes.ddgap)
        # the second derivatives below set eval's peak memory
        del w, dw, lo, hi, h
        dda, ddb, ddc, ddgap = _second_derivatives_on_flow(a, b, c, gap, dgap)
        out = CoefficientSample(x, a, b, c, da, db, dc, dda, ddb, ddc,
                                gap, dgap, ddgap)
        below = r < self.r0
        if below.any():
            series = sample_from_series(self.bootstrap, r[below])
            for f in fields(out):
                getattr(out, f.name)[below] = getattr(series, f.name)
        return out

    def at(self, r: float) -> CoefficientSample:
        """Metric data at one radius in [0, r_max], as floats: `eval` of a
        one-element array.  Nothing in the package or its scripts reads the
        profile this way; it stays while perfbench/traced.py times it as its
        `ode.query` span, and goes once that tracer wraps `eval` instead."""
        one = self.eval(r)
        return CoefficientSample(*(getattr(one, f.name).item()
                                   for f in fields(one)))

    def grid(self, n: int) -> np.ndarray:
        """Evenly spaced radii r_max * i/n for i = 1..n."""
        return self.r_max * np.arange(1, n + 1) / n


def product_identity_residual(profile: MetricProfile, grid) -> float:
    """Worst residual of the product-form identities

        (ca + ab)' = 2 (ca)(ab) / (abc)    and cyclic companions

    over the given radii, with the left side assembled from the sample's
    stored derivatives.  An algebraic consequence of the coefficient system,
    so this measures integration plus interpolation error only.
    """
    s = profile.eval(grid)
    a, b, c = s.a, s.b, s.c
    da, db, dc = s.da, s.db, s.dc
    den = a * b * c
    e1 = (dc * a + c * da + da * b + a * db) - 2.0 * (c * a) * (a * b) / den
    e2 = (da * b + a * db + db * c + b * dc) - 2.0 * (a * b) * (b * c) / den
    e3 = (db * c + b * dc + dc * a + c * da) - 2.0 * (b * c) * (c * a) / den
    return float(np.max(np.abs([e1, e2, e3]), initial=0.0))
