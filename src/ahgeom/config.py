"""The parameters of one model run and the range of m they accept, and the
read-only base of the package's records."""
from __future__ import annotations

import math

# The accepted m, [M_MIN, M_MAX]: curvature divides by (abc)^2 ~ m^6, so it
# reads 0 or inf at m = 1e60 and 1e-60, and the integrator fails at 1e-120
# and 1e160.
M_MIN, M_MAX = 1e-30, 1e30


class Record:
    """A read-only record: its fields are its __slots__, which the
    constructor takes in that order; assigning or deleting one afterwards
    raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ModelParams(Record):
    """Parameters of one Atiyah-Hitchin model run.

    m is the radius of the zero-section sphere; the metric with parameter m
    is the m-fold rescaling of the unit model, so m fixes every length scale.
    r_max is the integration horizon in the same units as the geodesic
    distance r, and tol the (dimensionless) local error tolerance of the
    adaptive integrator.
    """

    __slots__ = ("m", "r_max", "tol")

    def __init__(self, m: float, r_max: float, tol: float):
        if not M_MIN <= m <= M_MAX:
            raise ValueError("m must be positive and finite, in "
                             f"[1e-30, 1e30], got {m}")
        if not 0 < r_max < math.inf:
            raise ValueError(
                f"r_max must be positive and finite, got {r_max}")
        # the floor, about 45 ulp of 1.0, keeps the 10*tol budgets on stored
        # nodes above the rounding of the values they bound
        if not 1e-14 <= tol < 1e-2:
            raise ValueError(f"tol must lie in [1e-14, 1e-2), got {tol}")
        super().__init__(m, r_max, tol)
