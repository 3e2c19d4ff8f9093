"""Two-convexity machinery for the squared distance to the zero section.

Hess(r^2) is diagonal in the metric's orthonormal co-frame with eigenvalues

    { 2,  2r a'/a,  2r b'/b,  2r c'/c },

and the derivative ordering 1 > r a'/a > r c'/c > -r b'/b > 0 makes the sum
of the two smallest eigenvalues positive for every r > 0.  Together with the
fact that the minimum of tr_L Hess over k-planes equals the sum of the k
smallest eigenvalues, that is the quantitative input to the uniqueness of
the minimal sphere; this module computes the spectrum, the ordering margins,
the exact k-plane minimum and an independent random-subspace minimizer.
"""
from __future__ import annotations

import math
import operator

import numpy as np

from .ode import CoefficientSample, MetricProfile


def hessian_r2_diagonal(sample: CoefficientSample) -> np.ndarray:
    """Hess(r^2) in the orthonormal co-frame: the diagonal
    (2, 2r a'/a, 2r b'/b, 2r c'/c), unsorted, as one float array along the
    first axis: shape (4,) for a sample at one radius, (4, n) for n radii.
    At r = 0 the co-frame rates are 0/0."""
    r = sample.r
    return np.array(np.broadcast_arrays(2.0,
                                        2.0 * r * sample.da / sample.a,
                                        2.0 * r * sample.db / sample.b,
                                        2.0 * r * sample.dc / sample.c),
                    dtype=float)


def hessian_r2(sample: CoefficientSample) -> np.ndarray:
    """Spectrum of Hess(r^2): the diagonal from `hessian_r2_diagonal`,
    ascending along the first axis.  Needs r > 0: at r = 0 the co-frame
    rates are 0/0 (the limit is diag(2, 2, 0, 0))."""
    if np.any(sample.r <= 0.0):
        raise ValueError("hessian_r2 needs r > 0")
    return np.sort(hessian_r2_diagonal(sample), axis=0)


def min_trace_over_kplanes(eig: np.ndarray, k: int):
    """Exact minimum of tr_L Hess(r^2) over k-dimensional subspaces L (Ky
    Fan): the sum of the first k rows of the spectrum from `hessian_r2`."""
    if not 1 <= k <= 4:
        raise ValueError(f"k must be in 1..4, got {k}")
    return np.sum(eig[:k], axis=0)


def chain_margins(profile: MetricProfile, grid):
    """Worst (smallest) values over the grid of the four strict gaps in

        1 > r a'/a > r c'/c > -r b'/b > 0,

    and the log10 of the smallest middle gap.  The middle gap
    r a'/a - r c'/c closes exponentially with the coefficient gap
    c - a = m e^l, so it is evaluated in the cancellation-free form

        e^l * r (m/c)(1 + x - y) / (c x (-y)),   1 - x = e^l m/c,

    which is the same quantity by the quotient rule applied to x = a/c.
    The factor e^l > 0 is taken out of the returned margin, which so keeps
    its sign where the gap underflows (r ~ 240 m), and is put back into the
    log10, which stays finite there.
    """
    r = np.asarray(grid, dtype=float)
    s = profile.eval(r)
    x, y = s.a / s.c, s.b / s.c
    middle = r * (profile.params.m / s.c) * (1.0 + x - y) / (s.c * x * (-y))
    gaps = (1.0 - r * s.da / s.a,
            middle,
            r * s.dc / s.c + r * s.db / s.b,
            -r * s.db / s.b)
    margins = tuple(float(np.min(g, initial=math.inf)) for g in gaps)
    return margins, float(np.min(np.log10(middle) + s.log_gap / math.log(10),
                                 initial=math.inf))


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2^64 / golden ratio


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function (Steele, Lea & Flood, "Fast splittable
    pseudorandom number generators", OOPSLA 2014), in place on a uint64
    array, wrapping modulo 2^64."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


class SplitMix64:
    """A counter-based SplitMix64 stream: word i is mix64(key + (i + 1) g),
    g = 0x9E3779B97F4A7C15, so any slice of the stream is drawn without the
    words before it.  The key is the seed, an int >= 0 of any size, put
    through the mixer 64 bits at a time, so nearby seeds (s, s + 1000,
    s + 2000) give unrelated streams."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        key = np.zeros(1, dtype=np.uint64)
        for shift in range(0, max(seed.bit_length(), 1), 64):
            key += (seed >> shift) & 0xFFFFFFFFFFFFFFFF
            key += _GAMMA
            _mix64(key)
        self.key = int(key[0])

    def words(self, start: int, n: int) -> np.ndarray:
        """Words start .. start + n - 1, as uint64."""
        z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        z *= _GAMMA
        z += self.key
        return _mix64(z)

    def uniform(self, n: int, start: int = 0) -> np.ndarray:
        """n doubles (word >> 11) 2^-53 in [0, 1), from words start on."""
        return (self.words(start, n) >> 11) * 2.0 ** -53

    def unit_points(self, out: np.ndarray, start: int = 0) -> np.ndarray:
        """Fill the C-contiguous (n, 4) array `out` with uniform points of
        S^3, or an (n, 6) one with points (u, v) of S^2 x S^2, for trials
        start .. start + n - 1, and return it.  Trial i reads the uniforms
        3i .. 3i + 2, or 4i .. 4i + 3, so a draw in blocks is bitwise the
        one-shot draw.  S^3 takes Shoemake's Hopf coordinates
        (sqrt(1 - w) e^{i theta}, sqrt(w) e^{i theta'}) ("Uniform random
        rotations", Graphics Gems III, 1992), each S^2 Archimedes'
        z = 2w - 1 with (sqrt(1 - z^2) e^{i theta}, z) (Marsaglia, Ann.
        Math. Stat. 43, 1972).  An angle theta = 2 pi w enters through
        t = tan(theta/2), cos theta = (1 - t^2)/(1 + t^2) and sin theta =
        2t/(1 + t^2): one vectorized tan, where np.cos and np.sin are two
        scalar loops.  The points are unit to rounding."""
        n, width = out.shape
        per = 3 if width == 4 else 4
        w = self.uniform(per * n, per * start).reshape(n, per)
        if width == 4:
            pts, angle = out.reshape(n, 2, 2), w[:, 1:]
            rad = np.sqrt(np.stack([1.0 - w[:, 0], w[:, 0]], axis=1))
        else:
            pts, angle = out.reshape(n, 2, 3), w[:, 1::2]
            pts[:, :, 2] = 2.0 * w[:, ::2] - 1.0
            # sqrt(1 - z^2) = 2 sqrt(w (1 - w))
            rad = 2.0 * np.sqrt(w[:, ::2] * (1.0 - w[:, ::2]))
        t = np.tan(angle * math.pi)
        tt = t * t
        rad /= 1.0 + tt
        t *= 2.0
        np.multiply(rad, 1.0 - tt, out=pts[:, :, 0])
        np.multiply(rad, t, out=pts[:, :, 1])
        return out


# coordinates per trial: a line is a point of S^3, a 2-plane two of S^2
_WIDTH = {1: 4, 2: 6}
# trials per block: the oracle's 20-column line call keeps a (20, block)
# trace array, 320 KB; at 4 096 (640 KB) `verify`'s peak RSS read 33.1 MB
# against 32.2 MB (numpy 2.4, x86-64).  No minimum depends on the block size
_BLOCK = 2048
# steps of the polish, which cost the same at any count: over seeds 0-499
# the oracle's worst error reads 1.1e-3 at 200 steps (three seeds over the
# 1e-3 budget), 5.5e-4 at 10^3, 1.25e-5 at 10^5 and 1.8e-6 at 10^6, as
# planes split eigenvalue gaps of 0.003-0.01 at r ~ 3 m
_STEPS = 100_000


def _plane_weights(cols: np.ndarray):
    """The weights h, shape (n, 3), and the shift, shape (n,), of the
    2-plane trace s/2 + sum_i h_i u_i v_i for each diagonal c = cols[j] of
    an (n, 4) stack: h = delta/2 and s/2 = tr c / 2 (see `_plane_traces`)."""
    c0, c1, c2, c3 = cols.T
    return (0.5 * np.stack([c0 + c1 - c2 - c3, c0 + c2 - c1 - c3,
                            c0 + c3 - c1 - c2], axis=1),
            0.5 * (c0 + c1 + c2 + c3))


def _plane_traces(draws: np.ndarray, weights: np.ndarray, shifts,
                  out: np.ndarray) -> np.ndarray:
    """Write tr(P_L diag(c)) into out[j, t] for each diagonal c = cols[j]
    of an (n, 4) stack and the subspace L of row t of a (t, 4) or (t, 6)
    stack of unit points, and return `out`, shape (n, t).  Lines take
    weights = cols and shifts = None, 2-planes the weights h and shifts s/2
    of `_plane_weights(cols)`.

    A row x of S^3 is a line, with tr = sum_i c_i x_i^2.  A row (u, v) of
    S^2 x S^2 is the 2-plane whose Pluecker vector is (u+ + v-)/sqrt(2): u
    on the self-dual basis (e01+e23, e02-e13, e03+e12)/sqrt(2) and v on the
    anti-self-dual one (e01-e23, e02+e13, e03-e12)/sqrt(2).  Its trace,
    summed from the Pluecker coordinates by Cauchy-Binet, is

        tr = s/2 + (1/2) sum_i delta_i u_i v_i,

    with s = tr c and delta = (c0+c1-c2-c3, c0+c2-c1-c3, c0+c3-c1-c2).
    The oriented Gr(2, 4) is S^2 x S^2 this way, and its Haar measure the
    product of the uniform measures.  The terms x_i^2, or u_i v_i, are
    formed once per draw, as a C-ordered (terms, t) array, and one einsum
    weighs them for all diagonals at once; each diagonal's sums take the
    same terms in the same order, so its traces are bitwise those of a call
    with that diagonal alone.  Every trace is that of a genuine subspace,
    so none undercuts the Ky Fan sum beyond rounding.
    """
    rows = draws.T
    # x_i x_i on a line, u_i v_i on a plane
    half = 4 if len(rows) == 4 else 3
    np.einsum("ji,it->jt", weights,
              np.multiply(rows[:half], rows[-half:], order="C"), out=out)
    if shifts is not None:
        out += shifts[:, None]
    return out


def _polish(draws: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Trace reached by each unit-point draw p of a (p, 4) or (p, 6)
    stack, for the diagonal d[p] of a (p, 4) stack, after _STEPS descent
    steps taken in closed form: the traced operator is diagonal, so a step
    only rescales the draw's coordinates.

    A line x of S^3 has tr = sum_i d_i x_i^2; a power step on
    diag(d_max - d) takes it to x w, normalized, w = (d_max - d) /
    (d_max - d_min).  A 2-plane (u, v) of S^2 x S^2 has tr = s/2 +
    sum_i h_i u_i v_i (`_plane_weights`), whose minimum over u at fixed v
    is s/2 - |h v|; that minimization and the same one over v at fixed u
    take v to h^2 v, normalized, so there w = h^2 / max h^2.  N steps give
    y = x w^N (x = v on a plane), of trace d_max - (e y, y) / (y, y) on a
    line, e = d_max - d, and s/2 - sqrt((e y, y) / (y, y)) on a plane,
    e = h^2.  Each step lowers the trace, so none exceeds the draw's own,
    and each point is a genuine subspace, whose trace never undercuts the
    Ky Fan sum (beyond rounding).  w = 1 - (max e - e) / max e is exactly 1
    where e is largest, and everywhere when e = 0."""
    if draws.shape[1] == 4:
        top, x = d.max(axis=1), draws
        e = top[:, None] - d
    else:
        (h, top), x = _plane_weights(d), draws[:, 3:]
        e = h * h
    big = e.max(axis=1)[:, None]
    y = x * (1.0 - (big - e) / np.maximum(big, 1e-300)) ** _STEPS
    y *= y
    rayleigh = np.sum(e * y, axis=1) / np.sum(y, axis=1)
    return top - (rayleigh if draws.shape[1] == 4 else np.sqrt(rayleigh))


def brute_force_plane_min(d: np.ndarray, k: int, trials: int = 100_000, *,
                          seed: int, polish: bool = True) -> np.ndarray:
    """Minimize tr_L diag(d) over random k-planes L, k = 1 or 2, for each
    column of d, n Hess(r^2) diagonals from `hessian_r2_diagonal` (or their
    negatives) of shape (4, n): the n minima, shape (n,).

    The call draws `trials` Haar subspaces from `SplitMix64(seed)`, in
    blocks of _BLOCK trials: a line is a uniform point of S^3 (3 words per
    trial), a 2-plane one of S^2 x S^2, the oriented Gr(2, 4) (4 words; see
    `_plane_traces`).  A 3-plane with unit normal n has tr(P_L D) =
    tr d - n^T D n, and the normal of a Haar 3-plane is a Haar line, so
    tr d plus the line minimum for -d is the 3-plane minimum.  Every column
    scores the same stream in closed form, with no orthonormalization and
    no eigensolver, so its minimum is bitwise that of a one-column call at
    the same seed.  Each column keeps its best draw (the earliest on ties),
    and with polish=True `_polish` refines it, all columns in one batch.
    Every value is the trace of a genuine subspace, so the result never
    undercuts the true minimum (beyond rounding), and pure sampling
    (polish=False) converges to it from above as trials grow.  trials is
    capped at 200 000 to bound the time of a call; the buffers hold one
    block at any trials.
    """
    d = np.array(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != 4 or not np.all(np.isfinite(d)):
        raise ValueError("plane minimization needs finite diagonals of "
                         "shape (4, n), from radii r > 0")
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    if not 1000 <= trials <= 200_000:
        raise ValueError(f"trials must be in 1000..200000, got {trials}")
    cols = d.T
    weights, shifts = (cols, None) if k == 1 else _plane_weights(cols)
    stream = SplitMix64(seed)
    block = np.empty((min(trials, _BLOCK), _WIDTH[k]))
    tr = np.empty((len(cols), len(block)))
    rows = np.arange(len(cols))
    # each column's best draw so far, and its trace
    best = np.full(len(cols), np.inf)
    pick = np.empty((len(cols), _WIDTH[k]))
    for lo in range(0, trials, _BLOCK):
        n = min(_BLOCK, trials - lo)
        stream.unit_points(block[:n], lo)
        _plane_traces(block[:n], weights, shifts, tr[:, :n])
        i = tr[:, :n].argmin(axis=1)
        low = tr[rows, i]
        j = low < best
        best[j] = low[j]
        pick[j] = block[i[j]]
    if polish:
        best = np.minimum(best, _polish(pick, cols))
    return best


def second_derivative_signs(profile: MetricProfile, grid):
    """Largest a'' and b'' on the grid of radii r > 0, the number of
    bracketed sign changes of c'' (positive near the zero section, negative
    far out), and the first one's radius, or None, located to 1e-10
    relative in r: each round evaluates 65 evenly spaced radii of the
    bracket in one batch and keeps the first subinterval where c'' changes
    sign.  c'' is bracketed on the grid with r = 0 prepended, where
    c''(0) = 3/(4m) > 0, so a crossing below the grid's first radius (a
    coarse grid over a long horizon) is still found."""
    grid = np.r_[0.0, grid]
    s = profile.eval(grid)
    positive = s.ddc > 0.0
    brackets = np.flatnonzero(positive[:-1] != positive[1:])
    crossing = None
    if brackets.size:
        i = brackets[0]
        lo, hi = float(grid[i]), float(grid[i + 1])
        while hi - lo > 1e-10 * hi:
            r = np.linspace(lo, hi, 65)
            up = profile.eval(r).ddc > 0.0
            j = np.flatnonzero(up[:-1] != up[1:])[0]
            lo, hi = float(r[j]), float(r[j + 1])
        crossing = 0.5 * (lo + hi)
    return (float(np.max(s.dda[1:])), float(np.max(s.ddb[1:])),
            len(brackets), crossing)
