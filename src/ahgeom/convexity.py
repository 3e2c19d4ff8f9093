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
from dataclasses import dataclass

import numpy as np

from .ode import CoefficientSample, MetricProfile, shape_point


def hessian_r2_diagonal(sample: CoefficientSample) -> tuple:
    """Hess(r^2) in the orthonormal co-frame: the diagonal
    (2, 2r a'/a, 2r b'/b, 2r c'/c), unsorted.  Elementwise on a sample of
    arrays, where the radial entry stays the scalar 2."""
    r = sample.r
    return (2.0,
            2.0 * r * sample.da / sample.a,
            2.0 * r * sample.db / sample.b,
            2.0 * r * sample.dc / sample.c)


def hessian_r2(sample: CoefficientSample) -> np.ndarray:
    """Spectrum of Hess(r^2), ascending along the first axis: shape (4,) for
    a sample at one radius, (4, n) for n radii.  Needs r > 0: at r = 0 the
    co-frame rates are 0/0 (the limit is diag(2, 2, 0, 0))."""
    if np.any(sample.r <= 0.0):
        raise ValueError("hessian_r2 needs r > 0")
    return np.sort(np.broadcast_arrays(*hessian_r2_diagonal(sample)), axis=0)


def min_trace_over_kplanes(eig: np.ndarray, k: int):
    """Exact minimum of tr_L Hess(r^2) over k-dimensional subspaces L (Ky
    Fan): the sum of the first k rows of the spectrum from `hessian_r2`."""
    if not 1 <= k <= 4:
        raise ValueError(f"k must be in 1..4, got {k}")
    return np.sum(eig[:k], axis=0)


def chain_margins(profile: MetricProfile, grid):
    """Worst (smallest) values over the grid of the four strict gaps in

        1 > r a'/a > r c'/c > -r b'/b > 0.

    The middle gap r a'/a - r c'/c closes exponentially with the coefficient
    gap c - a, so it is evaluated in the cancellation-free form

        r (1 - x)(1 + x - y) / (c x (-y)),   1 - x = (c - a)/c,

    which is the same quantity by the quotient rule applied to x = a/c.
    """
    r = np.asarray(grid, dtype=float)
    s = profile.eval(r)
    sp = shape_point(s)
    gaps = (1.0 - r * s.da / s.a,
            r * sp.one_minus_x * (1.0 + sp.x - sp.y) / (s.c * sp.x * (-sp.y)),
            r * s.dc / s.c + r * s.db / s.b,
            -r * s.db / s.b)
    return tuple(float(np.min(g, initial=math.inf)) for g in gaps)


def _orthonormalize(frames: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of a (t, 4, k) frame stack in place by
    modified Gram-Schmidt and return it.

    Column j of each result spans, with columns 0..j-1, the same subspace
    as the first j + 1 input columns, as LAPACK QR's Q does (up to column
    signs, which no trace sees).  Each column is projected out twice: one
    pass loses orthogonality in proportion to the frame's condition number
    (1.8e-12 over 10 000 Gaussian 4x4 frames), and a second pass brings it
    back to rounding ("twice is enough": Parlett, The Symmetric Eigenvalue
    Problem, 1980, section 6-9).
    """
    for j in range(frames.shape[2]):
        v = frames[:, :, j]
        for _ in range(2):
            for i in range(j):
                q = frames[:, :, i]
                v -= np.einsum("ti,ti->t", q, v)[:, None] * q
        v /= np.sqrt(np.einsum("ti,ti->t", v, v))[:, None]
    return frames


def brute_force_plane_min(sample: CoefficientSample, k: int,
                          trials: int = 100_000, seed: int | None = None,
                          polish: bool = True) -> float:
    """Minimize tr_L Hess(r^2) over random k-planes.

    Candidate subspaces are spanned by Gram-Schmidt-orthonormalized
    standard-normal frames (Haar on the Stiefel manifold, Mezzadri 2007).
    With polish=True the 8 best frames are refined by 200 steps of
    projected gradient descent with Gram-Schmidt retraction, which uses
    only matrix-vector products with the Hessian, no eigendecomposition.
    Every evaluation is the trace over a genuine subspace, so the result can
    never undercut the true minimum (beyond rounding), and pure sampling
    (polish=False) converges to it from above as trials grow.  All frames
    are drawn at once, so trials is capped at 200 000 to bound memory.
    """
    if sample.r <= 0.0:
        raise ValueError("plane minimization needs r > 0")
    if not 1 <= k <= 4:
        raise ValueError(f"k must be in 1..4, got {k}")
    if not 1000 <= trials <= 200_000:
        raise ValueError(f"trials must be in 1000..200000, got {trials}")
    d = np.array(hessian_r2_diagonal(sample))
    rng = np.random.default_rng(seed)
    frames = _orthonormalize(rng.standard_normal((trials, 4, k)))
    tr = np.einsum("i,tij,tij->t", d, frames, frames)
    best = float(tr.min())
    if polish:
        V = frames[np.argpartition(tr, 7)[:8]]
        # free the frame stack before the polish's many small allocations;
        # kept live through them, it left the process's peak RSS depending
        # on the seed (50.6 to 56.6 MB for a default verify)
        del frames, tr
        step = 0.5 / max(float(d.max() - d.min()), 1e-300)
        dcol = d[:, None]
        traces = []
        for _ in range(200):
            # half the Riemannian gradient of tr V^T D V: (1 - V V^T) D V
            dv = dcol * V
            horiz = dv - V @ (V.transpose(0, 2, 1) @ dv)
            V = _orthonormalize(V - step * horiz)
            traces.append(np.einsum("i,pij,pij->p", d, V, V))
        best = min(best, float(np.min(traces)))
    return best


@dataclass(frozen=True)
class SignReport:
    """Signs of the coefficient second derivatives along the profile."""

    a_concave: bool          # a'' < 0 at every grid radius
    b_concave: bool          # b'' < 0 at every grid radius
    max_dda: float
    max_ddb: float
    c_sign_changes: int      # bracketed sign changes of c''
    c_crossing: float | None  # bisected crossing radius, if bracketed


def second_derivative_signs(profile: MetricProfile, grid) -> SignReport:
    """Check a'' < 0 and b'' < 0 on the grid and locate the sign change of
    c'' (positive near the zero section, negative far out) by bisection to
    1e-10 relative in r."""
    grid = np.asarray(grid, dtype=float)
    s = profile.eval(grid)
    positive = s.ddc > 0.0
    brackets = np.flatnonzero(positive[:-1] != positive[1:])
    crossing = None
    if brackets.size:
        i = brackets[0]
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = profile.at(lo).ddc
        while hi - lo > 1e-10 * hi:
            mid = 0.5 * (lo + hi)
            fmid = profile.at(mid).ddc
            if (fmid > 0.0) == (flo > 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
    max_dda, max_ddb = float(np.max(s.dda)), float(np.max(s.ddb))
    return SignReport(
        a_concave=max_dda < 0.0,
        b_concave=max_ddb < 0.0,
        max_dda=max_dda,
        max_ddb=max_ddb,
        c_sign_changes=len(brackets),
        c_crossing=crossing)
