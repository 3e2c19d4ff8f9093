"""Geometry of the zero-section sphere: second fundamental form, the
pointwise stability operator on its normal bundle, and the calibration
bound that makes it area-minimizing.

Index convention: 0 and 1 are normal directions of the sphere, 2 and 3 are
tangential; h[(mu, j, k)] is the second fundamental form paired with the
normal leg mu.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .curvature import kappa_at_zero
from .ode import MetricProfile

NORMAL = (0, 1)
TANGENT = (2, 3)


@dataclass(frozen=True)
class SecondFundamentalForm:
    m: float
    h: Dict[Tuple[int, int, int], float]

    @property
    def norm_squared(self) -> float:
        return sum(v * v for v in self.h.values())

    def mean_curvature_trace(self, mu: int) -> float:
        return sum(self.h[(mu, j, j)] for j in TANGENT)


def second_fundamental_form(m: float) -> SecondFundamentalForm:
    """Nonzero components: -h022 = h033 = h123 = h132 = 1/(2m).  Traceless
    in both normal directions (the sphere is minimal) but nonzero, so it is
    not totally geodesic."""
    if not m > 0:
        raise ValueError(f"m must be positive, got {m}")
    e = 1.0 / (2.0 * m)
    h = {(mu, j, k): 0.0 for mu in NORMAL for j in TANGENT for k in TANGENT}
    h[(0, 2, 2)] = -e
    h[(0, 3, 3)] = e
    h[(1, 2, 3)] = e
    h[(1, 3, 2)] = e
    return SecondFundamentalForm(m=m, h=h)


def stability_operator(m: float) -> np.ndarray:
    """Zeroth-order part of the Jacobi operator on the normal bundle,
    assembled from the r = 0 curvature limits and the second fundamental
    form; no independent constants enter.  Pointwise positive definiteness
    of this matrix is the strong stability of the sphere."""
    k0 = kappa_at_zero(m)
    sff = second_fundamental_form(m).h
    # curvature sums over tangential legs: R_2002 + R_3003 = k2 + k3 in the
    # e0 direction and R_2112 + R_3113 = k3 + k2 in the e1 direction
    curv = {0: k0.k2 + k0.k3, 1: k0.k3 + k0.k2}
    out = np.empty((2, 2))
    for mu in NORMAL:
        out[mu, mu] = curv[mu] - sum(
            sff[(mu, j, k)] ** 2 for j in TANGENT for k in TANGENT)
    # normal-mixing curvature components all vanish in the nontrivial
    # component list, so only the form contributes off the diagonal
    cross = -sum(sff[(0, j, k)] * sff[(1, j, k)] for j in TANGENT for k in TANGENT)
    out[0, 1] = out[1, 0] = cross
    return out


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the comass-one scan of the calibrating two-form."""

    min_abs_bc: float
    monotone: bool
    bound_holds: bool
    worst_excess: float  # max over the grid of bc + m^2 (<= 0 required)
    strict_after_zero: bool


def calibration_check(profile: MetricProfile, grid) -> CalibrationResult:
    """Verify bc <= -m^2 with equality only at r = 0 and bc strictly
    decreasing.  The product bc starts at -m^2 and (bc)' < 0 for r > 0; that
    is exactly the comass-one condition of the calibrating form, whose
    comass at radius r is m^2/|bc|."""
    m2 = profile.params.m ** 2
    slack = 1.0 - 1e-8
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
        bound_holds=not np.any(bc > -m2 * slack),
        worst_excess=float(np.max(bc + m2, initial=-math.inf)),
        strict_after_zero=not np.any(bc[after_zero] >= -m2))


def zero_section_area(m: float) -> float:
    """Area of the zero section: a round sphere of radius m."""
    if not m > 0:
        raise ValueError(f"m must be positive, got {m}")
    return 4.0 * math.pi * m * m
