"""Curvature: the generator kappa, its identities, ASD residuals."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahgeom.curvature import (asd_residual, curvature_components,
                              fiber_gauss_curvature, kappa, kappa_at_zero,
                              kappa_term_scale)
from ahgeom.ode import sample_from_series
from ahgeom.series import expand
from conftest import at, replace

nz = st.floats(min_value=0.1, max_value=10.0).flatmap(
    lambda v: st.sampled_from([v, -v]))


class TestKappa:
    def test_hand_evaluated(self):
        # numerator 2 - 1 - 5 + 5 - 25 = -24 over 2*(abc)^2 = 72
        assert kappa(1.0, 2.0, 3.0) == pytest.approx(-1 / 3, rel=1e-15)

    @given(s=nz)
    @settings(max_examples=200)
    def test_fully_symmetric_point(self, s):
        # the numerator vanishes identically at a = b = c; in floats the
        # 2a^4 and a^3(b+c) terms round independently, leaving ~ulp residue
        assert abs(kappa(s, s, s)) <= 1e-14 * kappa_term_scale(s, s, s)

    @given(a=nz, b=nz, c=nz)
    @settings(max_examples=300)
    def test_swap_symmetry_exact(self, a, b, c):
        # identical floating expression under b <-> c
        assert kappa(a, b, c) == kappa(a, c, b)

    def test_cyclic_sum_random_triples(self):
        rng = np.random.default_rng(11)
        vals = rng.uniform(-10, 10, size=(10_000, 3))
        vals = vals[np.all(np.abs(vals) > 1e-2, axis=1)]
        a, b, c = vals[:, 0], vals[:, 1], vals[:, 2]
        total = kappa(a, b, c) + kappa(b, c, a) + kappa(c, a, b)
        scale = kappa_term_scale(a, b, c)
        assert np.max(np.abs(total) / scale) <= 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            kappa(0.0, 1.0, 1.0)


class TestKappaAtZero:
    def test_m_one(self):
        assert kappa_at_zero(1.0) == (-1.5, 0.75, 0.75)

    def test_inverse_square_scaling(self):
        assert kappa_at_zero(2.0) == (-3 / 8, 3 / 16, 3 / 16)

    def test_series_limit_consistency(self):
        s = sample_from_series(expand(1.0, 10), 1e-4)
        k1, k2, k3 = curvature_components(s)
        assert k1 == pytest.approx(-1.5, abs=1e-3)
        assert k2 == pytest.approx(0.75, abs=1e-3)
        assert k3 == pytest.approx(0.75, abs=1e-3)


class TestAsdResidual:
    def test_rhs_derivatives_give_zero(self, profile1):
        worst = np.max(np.abs(asd_residual(profile1.samples)))
        assert worst <= 1e-9

    def test_linear_in_perturbation(self, profile1):
        s = at(profile1, 1.0)
        e1, _, _ = asd_residual(s)
        e1p, _, _ = asd_residual(replace(s, da=s.da + 0.01))
        assert e1p - e1 == pytest.approx(0.01, abs=1e-12)

    def test_along_profile(self, profile1, grid1):
        worst = max(max(abs(e) for e in asd_residual(at(profile1, r)))
                    for r in grid1)
        assert worst <= 1e-6


class TestCurvatureComponents:
    def test_second_derivative_certificate(self, profile1, grid1):
        worst = 0.0
        for r in grid1[:: 5]:
            s = at(profile1, r)
            k1, k2, k3 = curvature_components(s)
            for du, u, ki in ((s.dda, s.a, k1), (s.ddb, s.b, k2),
                              (s.ddc, s.c, k3)):
                worst = max(worst, abs(du / u - ki) / max(1.0, abs(ki)))
        assert worst <= 1e-6

    def test_ricci_flat_along_profile(self, profile1, grid1):
        for r in grid1[:: 25]:
            s = at(profile1, r)
            k1, k2, k3 = curvature_components(s)
            assert abs(k1 + k2 + k3) <= 1e-12 * kappa_term_scale(s.a, s.b, s.c)

    def test_stored_second_derivatives_match_kappa(self, profile1):
        s = profile1.samples
        k1 = kappa(s.a, s.b, s.c)
        assert np.all(np.abs(s.dda - s.a * k1) <= 1e-8 * np.maximum(1.0, np.abs(s.dda)))

    def test_regression_at_half(self, profile1):
        # frozen from this construction; cross-checked against an
        # independent DOP853 integration of the same system
        k1, k2, k3 = curvature_components(at(profile1, 0.5))
        assert k1 == pytest.approx(-0.9012366790567108, rel=1e-8)
        assert k2 == pytest.approx(0.4615829914102433, rel=1e-8)
        assert k3 == pytest.approx(0.4396536876464677, rel=1e-8)

    def test_domain_error_at_zero(self, profile1):
        with pytest.raises(ValueError):
            curvature_components(at(profile1, 0.0))


class TestFiberCurvature:
    def test_zero_section_value(self, profile1):
        assert fiber_gauss_curvature(at(profile1, 0.0)) == 1.5

    def test_positive_along_profile(self, profile1, grid1):
        for r in grid1[:: 10]:
            assert fiber_gauss_curvature(at(profile1, r)) > 0

    def test_regression_at_one(self, profile1):
        got = fiber_gauss_curvature(at(profile1, 1.0))
        assert got == pytest.approx(0.29198973105500375, rel=1e-8)
