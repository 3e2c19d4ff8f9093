"""Coefficient ODE of the cohomogeneity-one metric ansatz

    ds^2 = dr^2 + a^2 (s1)^2 + b^2 (s2)^2 + c^2 (s3)^2

with a(0) = 0, b(0) = -m, c(0) = m.  The system has a regular singular point
at r = 0 (every right-hand side divides by a coefficient that vanishes
there), so integration starts from an exact series bootstrap at a small
radius r0 and proceeds with an adaptive embedded Runge-Kutta pair.  A
profile stores its accepted steps as one sample of arrays (radius, values,
first and second derivatives, gap and log gap) and evaluates a whole array
of radii in [0, r_max] at once with `MetricProfile.eval`: by series below
r0, by quintic Hermite interpolation of the stored values, first and second
derivatives above.  `eval` is the one way the package reads a profile.

The difference c - a closes exponentially (rate ~ 3/m), so beyond r ~ 12 m
it falls below the floating-point resolution of c itself and the rounded
a, c collapse onto each other.  Since several strict inequalities of the
geometry (x = a/c < 1 and the derivative ordering a'/a > c'/c) live exactly
in that difference, the integrator carries its logarithm
l = log((c - a)/m) in place of c, with the cancellation-free equation

    l' = (a + c - b)(a + b + c) / (2abc),

an exact algebraic consequence of the coefficient system, and forms
c = a + m e^l wherever it needs c.  So the gap is c - a by construction and
sits in the error norm as l.  Samples expose l as `log_gap` and the gap as
`gap` = m e^l, at full relative precision until it underflows (r ~ 240 m).
"""
from __future__ import annotations

import math
from array import array
from operator import mul

import numpy as np

from .config import ModelParams, Record
from .series import SeriesCoefficients, expand


class IntegrationError(RuntimeError):
    """Integrator failure; its message ends with the radius reached."""

    def __init__(self, message: str, r_reached: float):
        super().__init__(f"{message} (at r = {r_reached:.6g})")


def rhs(a, b, c):
    """Right-hand side (a', b', c') of the coefficient system, elementwise
    on arrays.  For Python floats, a vanishing a, b or c raises ValueError.
    Squares are products, not libm's pow, so floats and arrays agree bit for
    bit and a power-of-two rescaling is exact."""
    try:
        return ((a * a - (b - c) * (b - c)) / (2.0 * b * c),
                (b * b - (c - a) * (c - a)) / (2.0 * c * a),
                (c * c - (a - b) * (a - b)) / (2.0 * a * b))
    except ZeroDivisionError:
        raise ValueError(
            "coefficient ODE is singular where a, b or c vanishes; "
            "use the series bootstrap at r = 0") from None


def gap_rate(a: float, b: float, c: float) -> float:
    """g = (log(c - a))'; exact consequence of the system."""
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


class CoefficientSample(Record):
    """The metric's full local data at one radius, or at an array of radii
    when every field is an array of the same shape; the constructor takes
    the fields in the order of __slots__.

    gap carries c - a at full relative precision (it underflows the plain
    float subtraction c - a beyond r ~ 12 m).  log_gap = log(gap / m) stays
    finite where gap itself underflows; dlog_gap and ddlog_gap are its first
    and second r-derivatives.
    """

    __slots__ = ("r", "a", "b", "c", "da", "db", "dc", "dda", "ddb", "ddc",
                 "gap", "log_gap", "dlog_gap", "ddlog_gap")

    def __len__(self) -> int:
        """Number of radii of an array sample."""
        return len(self.r)


def region_margins(sample: CoefficientSample, m: float):
    """Margins of the admissible shape region, each positive exactly when
    the strict inequalities  y < -1 + x,  0 < x < 1,  -1 < y < 0  hold.

    Written in cancellation-free form: y < -1 + x as (-b - (c - a))/c, and
    x < 1 as 1 - x = (c - a)/c = e^l m/c with the factor e^l > 0 of the log
    gap l taken out, so that margin reads m/c.  It keeps its sign where the
    gap m e^l underflows (r ~ 240 m) and reads 0; its true size is
    log10(m/c) + l / ln 10.
    """
    x, y = sample.a / sample.c, sample.b / sample.c
    m_region = (-sample.b - sample.gap) / sample.c  # (x - 1) - y
    return (m_region, x, m / sample.c, y + 1.0, -y)


def sample_from_series(series: SeriesCoefficients, r) -> CoefficientSample:
    """Sample with all fields from term-wise series differentiation;
    elementwise on arrays."""
    a, p, q, da, dp, dq, dda, ddp, ddq = series.apq(r)
    b, c = 0.5 * (p - q), 0.5 * (p + q)
    db, dc = 0.5 * (dp - dq), 0.5 * (dp + dq)
    ddb, ddc = 0.5 * (ddp - ddq), 0.5 * (ddp + ddq)
    gap = c - a
    dl = (dc - da) / gap
    return CoefficientSample(r, a, b, c, da, db, dc, dda, ddb, ddc, gap,
                             np.log(gap / series.m), dl,
                             (ddc - dda) / gap - dl * dl)


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

# Stored-node budget, also the largest (r_max - r0)/m: steps grow with r
# until rounding binds, so at tol 1e-14 a run to 1e6 m stores about 36 000
# nodes (0.6 s) and one to 1e7 m would store about 327 000 (5.7 s).
_MAX_NODES = 1_000_000


class IntegrationStats(Record):
    """What the stepper did in one `integrate` run.  Steps are the accepted
    r-increments (the last one is cut to land on r_max); rhs_calls counts
    evaluations of the flow, one per RK stage."""

    __slots__ = ("accepted", "rejected", "rhs_calls", "h_min", "h_max")

    def __init__(self, accepted: int, rejected: int, rhs_calls: int,
                 h_min: float, h_max: float):
        super().__init__(accepted, rejected, rhs_calls, h_min, h_max)


def integrate(params: ModelParams) -> "MetricProfile":
    """Adaptive integration of (a, b, l) from the series bootstrap at r0
    out to r_max.

    Every accepted step has an embedded local error estimate at most
    0.1 tol on each component: relative to m + |y| for a and b, absolute
    for the dimensionless l = log((c - a)/m), so m -> 2^k m rescales a run
    bit for bit.  The error controller alone sets the steps: at m = 1,
    r_max = 20 a run stores 78, 195, 490 and 1 242 nodes at tol 1e-8,
    1e-10, 1e-12 and 1e-14, with (a, b, c) within 0.22 tol of scipy's
    DOP853 and the gap at r in [12, 20] within 3.1 tol relative of a run
    at tol / 100.  With a factor 1 in place of 0.1, `verify` fails at tol
    3e-7.  Nodes store c = a + m e^l and analytic first and second
    derivatives of (a, b, c, l), l'' = g' among them.
    Raises IntegrationError on step-size underflow, if a stored state
    leaves the physical region (a > 0 > b), or if the run would store more
    than _MAX_NODES nodes: before the first step when (r_max - r0)/m
    exceeds the budget, otherwise when it is hit.
    """
    series = expand(params.m, 10)
    r0 = series.truncation_radius(params.tol)
    if not r0 < 0.5 * params.r_max:
        raise ValueError(
            f"r_max = {params.r_max:g} too small: series bootstrap already "
            f"covers r < {r0:g}")

    m, tol = params.m, params.tol
    h_min = 1e-13 * m
    if (params.r_max - r0) / m > _MAX_NODES:
        raise IntegrationError(
            f"stored-node budget of {_MAX_NODES} exceeded: r_max - r0 = "
            f"{(params.r_max - r0) / m:.3g} m is above {_MAX_NODES} m; "
            "lower r_max", r0)

    start = sample_from_series(series, r0)
    a, b, l = start.a, start.b, float(start.log_gap)
    # stage values k_j of the flow of (a, b, l = log((c - a)/m)), one list
    # per component; a stage state is y + h sum_j coefs[j] k_j, each sum
    # correctly rounded by one fsum
    c = a + m * math.exp(l)
    ka, kb, _ = rhs(a, b, c)
    ka, kb, kl = [ka], [kb], [gap_rate(a, b, c)]
    # one row (r, a, b, l) per accepted state
    rows = array("d", (r0, a, b, l))

    r = h = r0
    accepted = rejected = 0
    rhs_calls = 1
    h_lo, h_hi = math.inf, 0.0
    while r < params.r_max:
        last = r + h >= params.r_max
        if last:
            h = params.r_max - r
        try:
            for coefs in _DP_A[1:]:
                sa = a + h * math.fsum(map(mul, coefs, ka))
                sb = b + h * math.fsum(map(mul, coefs, kb))
                sl = l + h * math.fsum(map(mul, coefs, kl))
                sc = sa + m * math.exp(sl)
                da, db, _ = rhs(sa, sb, sc)
                ka.append(da)
                kb.append(db)
                kl.append(gap_rate(sa, sb, sc))
        except (ValueError, OverflowError):
            raise IntegrationError(
                "stage state hit a coordinate zero or overflowed", r)
        rhs_calls += 6
        # the stage 7 state (sa, sb, sl) is the fifth-order solution
        norm = max(abs(h * math.fsum(map(mul, _DP_ERR, ka))) / (m + abs(a)),
                   abs(h * math.fsum(map(mul, _DP_ERR, kb))) / (m + abs(b)),
                   abs(h * math.fsum(map(mul, _DP_ERR, kl)))) / (0.1 * tol)
        if norm <= 1.0:
            r_new = params.r_max if last else r + h
            if not sa > 0.0 > sb:
                raise IntegrationError(
                    "state left the physical region a > 0 > b; "
                    "integrator failure", r_new)
            if len(rows) >= 4 * _MAX_NODES:
                raise IntegrationError(
                    f"stored-node budget of {_MAX_NODES} exhausted; "
                    "raise tol or lower r_max", r)
            accepted += 1
            h_lo, h_hi = min(h_lo, h), max(h_hi, h)
            r, a, b, l = r_new, sa, sb, sl
            rows.extend((r, a, b, l))
            del ka[:6], kb[:6], kl[:6]  # FSAL: stage 7 is the next stage 1
            h *= 5.0 if norm == 0.0 else min(5.0, 0.9 * norm ** -0.2)
        else:
            rejected += 1
            del ka[1:], kb[1:], kl[1:]
            h *= max(0.2, 0.9 * norm ** -0.2)
        if h < h_min and r < params.r_max:
            raise IntegrationError("step size underflow", r)

    r, a, b, log_gap = np.array(rows).reshape(-1, 4).T.copy()
    gap = m * np.exp(log_gap)
    c = a + gap
    (da, db, dc, dlog_gap), (dda, ddb, ddc, ddlog_gap) = _jet_on_flow(a, b, c)
    nodes = CoefficientSample(r, a, b, c, da, db, dc, dda, ddb, ddc,
                              gap, log_gap, dlog_gap, ddlog_gap)
    stats = IntegrationStats(accepted=accepted, rejected=rejected,
                             rhs_calls=rhs_calls, h_min=h_lo, h_max=h_hi)
    return MetricProfile(params=params, bootstrap=series, samples=nodes,
                         stats=stats)


def _jet_on_flow(a, b, c):
    # first and second r-derivatives of (a, b, c, l) for states on the flow:
    # (a', b', c') from the right-hand side, l' = g = gap_rate, and
    # l'' = g' as g times its logarithmic derivative
    da, db, dc = rhs(a, b, c)
    g = gap_rate(a, b, c)
    dlog_g = ((da + dc - db) / (a + c - b) + (da + db + dc) / (a + b + c)
              - da / a - db / b - dc / c)
    return ((da, db, dc, g),
            (*second_derivatives(a, b, c, da, db, dc), g * dlog_g))


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


class MetricProfile(Record):
    """Numerically constructed metric: the accepted integration steps over
    [r0, r_max] as one sample of arrays, plus the series used below r0, and
    the stepper's statistics when `integrate` built it.  Immutable after
    construction; evaluation is safe from concurrent readers."""

    __slots__ = ("params", "bootstrap", "samples", "stats")

    def __init__(self, params: ModelParams, bootstrap: SeriesCoefficients,
                 samples: CoefficientSample,
                 stats: IntegrationStats | None = None):
        if not np.all(np.diff(samples.r) > 0):
            raise ValueError("profile samples must have strictly increasing r")
        super().__init__(params, bootstrap, samples, stats)

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
        and second derivatives of a, b and l = log(gap / m) elsewhere, with
        gap = m e^l and c = a + gap.

        Interpolated samples carry Hermite derivatives as (da, db, dc,
        dlog_gap), dc that of the stored c, and analytic second derivatives
        of the interpolated state, so residual checks against the ODE
        measure genuine interpolation error.  Stored nodes come back
        exactly: there t is 0 or 1, where every Hermite weight is exactly 0
        or 1 and selects one node's value and derivative.
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
        l, dl = interp(nodes.log_gap, nodes.dlog_gap, nodes.ddlog_gap)
        dc = interp(nodes.c, nodes.dc, nodes.ddc)[1]
        # the second derivatives below set eval's peak memory
        del w, dw, lo, hi, h
        gap = self.params.m * np.exp(l)
        c = a + gap
        _, (dda, ddb, ddc, ddl) = _jet_on_flow(a, b, c)
        out = CoefficientSample(x, a, b, c, da, db, dc, dda, ddb, ddc,
                                gap, l, dl, ddl)
        below = r < self.r0
        if below.any():
            series = sample_from_series(self.bootstrap, r[below])
            for name in out.__slots__:
                getattr(out, name)[below] = getattr(series, name)
        return out

    def at(self, r: float) -> CoefficientSample:
        """Metric data at one radius in [0, r_max], as floats: `eval` of a
        one-element array.  Nothing in the package or its scripts reads the
        profile this way; it stays while perfbench/traced.py times it as its
        `ode.query` span, and goes once that tracer wraps `eval` instead."""
        one = self.eval(r)
        return CoefficientSample(*(getattr(one, name).item()
                                   for name in one.__slots__))

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
