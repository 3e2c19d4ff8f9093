import pytest

from ahgeom.config import ModelParams, RunConfig
from ahgeom.ode import integrate


@pytest.fixture(scope="session")
def profile1():
    """Default-scale profile: m = 1, r_max = 20, tol = 1e-10."""
    return integrate(RunConfig().params())


@pytest.fixture(scope="session")
def profile1_tight():
    """Reference run at tol = 1e-12 for hold-out interpolation checks."""
    return integrate(ModelParams(m=1.0, r_max=20.0, tol=1e-12))


@pytest.fixture(scope="session")
def profile2():
    """Doubled model, for scale-covariance checks."""
    return integrate(ModelParams(m=2.0, r_max=40.0, tol=1e-10))


@pytest.fixture(scope="session")
def grid1(profile1):
    return profile1.grid(1000)
