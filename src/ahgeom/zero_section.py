"""Geometry of the zero-section sphere: second fundamental form, the
pointwise stability operator on its normal bundle, and the calibration
bound that makes it area-minimizing.

Frame convention: in the orthonormal co-frame (e0, e1, e2, e3), e0 and e1
are normal to the sphere and e2, e3 tangent to it.  The second fundamental
form is the (2, 4, 4) array h[mu, j, k], paired with the normal leg mu; its
entries with j or k normal are zero.
"""
from __future__ import annotations

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
    _, k2, k3 = kappa_at_zero(m)
    h = second_fundamental_form(m)
    # curvature sums over tangential legs: R_2002 + R_3003 = k2 + k3 in the
    # e0 direction and R_2112 + R_3113 = k3 + k2 in the e1 direction; the
    # normal-mixing curvature components all vanish in the nontrivial
    # component list, so only the form contributes off the diagonal
    return (np.diag([k2 + k3, k3 + k2])
            - np.einsum("ajk,bjk->ab", h, h))


def calibration_check(profile: MetricProfile, radii):
    """bc and (bc)' at the given radii.  The product bc starts at -m^2 and
    (bc)' < 0 for r > 0; that is exactly the comass-one condition of the
    calibrating form, whose comass at radius r is m^2/|bc|, so bc <= -m^2
    with equality only at r = 0.  Near r = 0, bc = -m^2 - r^2/2 + O(r^4)."""
    s = profile.eval(np.asarray(radii, dtype=float))
    return s.b * s.c, s.db * s.c + s.b * s.dc
