"""Dataclass configs for the model and for CLI runs."""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one Atiyah-Hitchin model run.

    m is the radius of the zero-section sphere; the metric with parameter m
    is the m-fold rescaling of the unit model, so m fixes every length scale.
    r_max is the integration horizon in the same units as the geodesic
    distance r, and tol the (dimensionless) local error tolerance of the
    adaptive integrator.
    """

    m: float
    r_max: float
    tol: float = 1e-10

    def __post_init__(self):
        # curvature divides by (abc)^2 ~ m^6: it reads 0 or inf at m = 1e60
        # and 1e-60, and the integrator fails at 1e-120 and 1e160
        if not 1e-30 <= self.m <= 1e30:
            raise ValueError("m must be positive and finite, in "
                             f"[1e-30, 1e30], got {self.m}")
        if not 0 < self.r_max < math.inf:
            raise ValueError(
                f"r_max must be positive and finite, got {self.r_max}")
        # the floor, about 45 ulp of 1.0, keeps the 10*tol budgets on stored
        # nodes above the rounding of the values they bound
        if not 1e-14 <= self.tol < 1e-2:
            raise ValueError(f"tol must lie in [1e-14, 1e-2), got {self.tol}")


# Grid cap, 20x the densest grid in use (50 000 rows): solve and curvature
# hold about a dozen float arrays of this length, so an unbounded grid could
# ask for more memory than the machine has.
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: model parameters plus output options."""

    m: float = 1.0
    r_max: float | None = None  # None -> 20*m
    tol: float = 1e-10
    grid_points: int = 1000
    seed: int | None = None
    fmt: str = "csv"
    output: str | None = None

    def __post_init__(self):
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if not 2 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(f"grid_points must lie in [2, {MAX_GRID_POINTS}], "
                             f"got {self.grid_points}")
        # numpy generators take non-negative seeds only; the k-plane oracle
        # seeds them with seed + 1000*k + i
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # delegate positivity checks (m, r_max, tol) to ModelParams
        self.params()

    def params(self) -> ModelParams:
        # horizon 20*m: the verified claims are local or monotone, so a
        # finite scale-covariant horizon suffices
        r_max = 20.0 * self.m if self.r_max is None else self.r_max
        return ModelParams(m=self.m, r_max=r_max, tol=self.tol)
