"""Geometry of the zero-section sphere: second fundamental form, the
pointwise stability operator on its normal bundle, and the calibration
bound that makes it area-minimizing.

Frame convention: in the orthonormal co-frame (e0, e1, e2, e3), e0 and e1
are normal to the sphere and e2, e3 tangent to it.  The second fundamental
form is the (2, 4, 4) array h[mu, j, k], paired with the normal leg mu; its
entries with j or k normal are zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import kappa_at_zero
from .ode import MetricProfile


def second_fundamental_form(m: float) -> np.ndarray:
    """The (2, 4, 4) array h[mu, j, k].  Nonzero components: -h022 = h033 =
    h123 = h132 = 1/(2m).  Traceless in both normal directions (the sphere
    is minimal) but nonzero, so it is not totally geodesic."""
    if not m > 0:
        raise ValueError(f"m must be positive, got {m}")
    e = 1.0 / (2.0 * m)
    h = np.zeros((2, 4, 4))
    h[0, 2, 2] = -e
    h[0, 3, 3] = e
    h[1, 2, 3] = e
    h[1, 3, 2] = e
    return h


def stability_operator(m: float) -> np.ndarray:
    """Zeroth-order part of the Jacobi operator on the normal bundle,
    assembled from the r = 0 curvature limits and the second fundamental
    form; no independent constants enter.  Pointwise positive definiteness
    of this matrix is the strong stability of the sphere."""
    k0 = kappa_at_zero(m)
    h = second_fundamental_form(m)
    # curvature sums over tangential legs: R_2002 + R_3003 = k2 + k3 in the
    # e0 direction and R_2112 + R_3113 = k3 + k2 in the e1 direction; the
    # normal-mixing curvature components all vanish in the nontrivial
    # component list, so only the form contributes off the diagonal
    return (np.diag([k0.k2 + k0.k3, k0.k3 + k0.k2])
            - np.einsum("ajk,bjk->ab", h, h))


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the comass-one scan of the calibrating two-form."""

    min_abs_bc: float
    monotone: bool
    bound_holds: bool
    worst_excess: float  # max over the grid of bc + m^2 (<= 0 required)
    strict_after_zero: bool


def calibration_check(profile: MetricProfile, grid,
                      slack: float) -> CalibrationResult:
    """Verify bc <= -m^2 with equality only at r = 0 and bc strictly
    decreasing.  The product bc starts at -m^2 and (bc)' < 0 for r > 0; that
    is exactly the comass-one condition of the calibrating form, whose
    comass at radius r is m^2/|bc|.  The bound is checked up to the relative
    slack, bc <= -m^2 (1 - slack), since bc = -m^2 - r^2/2 + O(r^4)."""
    m2 = profile.params.m ** 2
    r = np.asarray(grid, dtype=float)
    s = profile.eval(r)
    bc = s.b * s.c
    dbc = s.db * s.c + s.b * s.dc
    after_zero = r > 0.0
    monotone = not (np.any(dbc[after_zero] >= 0.0)
                    or np.any(bc[1:] >= bc[:-1]))
    return CalibrationResult(
        min_abs_bc=float(np.min(np.abs(bc), initial=math.inf)),
        monotone=monotone,
        bound_holds=not np.any(bc > -m2 * (1.0 - slack)),
        worst_excess=float(np.max(bc + m2, initial=-math.inf)),
        strict_after_zero=not np.any(bc[after_zero] >= -m2))

