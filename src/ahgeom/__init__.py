"""Numerical construction of the Atiyah-Hitchin metric from its coefficient
ODE system, with machine verification of the geometry of its minimal sphere:
the hyper-Kaehler curvature identities, strong stability, the calibration
bound, and two-convexity of the squared distance function.

The package re-exports nothing: import its modules (ahgeom.ode,
ahgeom.verify, ...), so that each command loads only what it runs."""

__version__ = "0.1.0"
