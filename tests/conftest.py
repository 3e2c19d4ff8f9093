import os

import pytest

from ahgeom.config import ModelParams
from ahgeom.ode import integrate


def replace(record, **changes):
    """A new record of record's type with the given fields changed and the
    rest copied: the fields are its __slots__, which its constructor takes
    in that order, so its validators run again."""
    assert set(changes) <= set(record.__slots__), changes
    return type(record)(*(changes.get(name, getattr(record, name))
                          for name in record.__slots__))


def at(profile, r):
    """`profile.eval` at the one radius r, as a sample of floats."""
    one = profile.eval(r)
    return type(one)(*(getattr(one, name).item() for name in one.__slots__))


def force_cpus(monkeypatch, n):
    """Let the process see n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.fixture(scope="session")
def profile1():
    """Default-scale profile: m = 1, r_max = 20, tol = 1e-10."""
    return integrate(ModelParams(m=1.0, r_max=20.0, tol=1e-10))


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
