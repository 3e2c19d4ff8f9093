"""Zero-section geometry: second fundamental form, stability, calibration."""
from fractions import Fraction as F

import numpy as np
import pytest

from ahgeom import verify
from ahgeom.ode import sample_from_series
from ahgeom.series import expand
from ahgeom.zero_section import (calibration_check, second_fundamental_form,
                                 stability_operator)
from conftest import replace

SLACK = verify.tolerances(1e-10)["calibration_slack"]


class TestSecondFundamentalForm:
    def test_component_list(self):
        h = second_fundamental_form(1.0)
        assert h.shape == (2, 4, 4)
        assert h[0, 2, 2] == -0.5
        assert h[0, 3, 3] == 0.5
        assert h[1, 2, 3] == 0.5 and h[1, 3, 2] == 0.5
        for idx in ((0, 2, 3), (0, 3, 2), (1, 2, 2), (1, 3, 3)):
            assert h[idx] == 0.0
        # only tangential legs carry the form
        assert not h[:, :2, :].any() and not h[:, :, :2].any()

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0])
    def test_minimal_but_not_totally_geodesic(self, m):
        h = second_fundamental_form(m)
        assert np.trace(h[0]) == 0.0
        assert np.trace(h[1]) == 0.0
        assert np.sum(h * h) == pytest.approx(1.0 / m ** 2, rel=1e-15)

    def test_consistency_with_connection_limit(self):
        # -h022 = 1/(2m) must match the limit of -b'/b; h123 matches the
        # limit of (a^2 + c^2 - b^2)/(2abc)
        m = 1.0
        s = sample_from_series(expand(m, 12), 1e-6)
        h = second_fundamental_form(m)
        assert -h[0, 2, 2] == pytest.approx(-s.db / s.b, abs=1e-5)
        w31 = (s.a ** 2 + s.c ** 2 - s.b ** 2) / (2 * s.a * s.b * s.c)
        assert h[1, 2, 3] == pytest.approx(-w31, abs=1e-5)


class TestStabilityOperator:
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0])
    def test_identity_over_m_squared(self, m):
        s = stability_operator(m)
        assert np.max(np.abs(s - np.eye(2) / m ** 2)) <= 1e-12 / m ** 2
        assert np.all(np.linalg.eigvalsh(s) > 0)

    @pytest.mark.parametrize("operator, passed", [
        ([[2.0, 1.0], [1.0, 2.0]], True),     # eigenvalues 1 and 3
        ([[1.0, 2.0], [2.0, 1.0]], False),    # -1 and 3: positive diagonal
        ([[1.0, 0.0], [0.0, -1e-3]], False),
        ([[-1.0, 0.0], [0.0, -1.0]], False),  # positive determinant
    ], ids=["definite", "indefinite", "one-negative", "negative"])
    def test_check_needs_positive_definite(self, monkeypatch, profile1, grid1,
                                           operator, passed):
        # with the closeness budget out of the way, the check's verdict is
        # positive definiteness alone, and agrees with the eigenvalues
        assert bool(np.all(np.linalg.eigvalsh(operator) > 0)) == passed
        tols = verify.tolerances(1e-10)
        monkeypatch.setattr(verify, "tolerances",
                            lambda tol: {**tols, "stability_rel": 10.0})
        monkeypatch.setattr(verify, "stability_operator",
                            lambda m: np.array(operator) / m ** 2)
        result = verify.check_strong_stability(profile1, grid1, 0)
        assert (result["status"] == "pass") == passed

    def test_assembly_arithmetic(self):
        # 2 * (3/(4m^2)) - 2 * (1/(2m))^2 = 1/m^2, in exact rationals
        m = F(3)
        assert 2 * (F(3, 4) / m ** 2) - 2 * (F(1, 2) / m) ** 2 == 1 / m ** 2


class TestCalibration:
    def test_bc_at_zero_exact(self, profile1):
        s = profile1.at(0.0)
        assert s.b * s.c == -1.0

    def test_bound_and_monotonicity(self, profile1, grid1):
        # bc and (bc)' at r = 0 and the grid, for m = 1
        bc, dbc = calibration_check(profile1, np.r_[0.0, grid1])
        assert np.all(bc <= -(1.0 - SLACK))
        assert np.all(dbc[1:] < 0.0) and np.all(bc[1:] < bc[:-1])
        assert np.all(bc[1:] < -1.0)
        assert bc[0] == -1.0
        assert np.min(np.abs(bc)) == pytest.approx(1.0, abs=1e-12)
        assert np.max(bc[1:] + 1.0) <= 0.0
        result = verify.check_calibration_bound(profile1, grid1, 0)
        assert result["status"] == "pass"
        assert result["note"] == ("bc(0) = -m^2: True, monotone=True, "
                               "strict for r>0: True")

    def test_worst_is_measured_over_r_positive(self, profile1, grid1):
        # the report's worst is bc + m^2 at the grid's r > 0, -r1^2/2 at its
        # first radius r1 = 0.02, not the 0.0 of the equality at r = 0
        result = verify.check_calibration_bound(profile1, grid1, 0)
        assert result["status"] == "pass"
        assert result["worst"] < 0.0
        assert result["worst"] == pytest.approx(-0.5 * grid1[0] ** 2, rel=1e-3)

    def test_equality_at_zero_is_required(self, profile1, grid1):
        # bc(0) = -m^2 exactly: against m one ulp above 1, the r = 0 value
        # fails the check though every r > 0 still passes
        params = replace(profile1.params, m=1.0 + 2.0 ** -52)
        bad = replace(profile1, params=params)
        m2 = params.m ** 2
        bc, dbc = calibration_check(bad, np.r_[0.0, grid1])
        assert np.all(bc <= -m2 * (1.0 - SLACK))
        assert np.all(dbc[1:] < 0.0) and np.all(bc[1:] < bc[:-1])
        assert np.all(bc[1:] < -m2)
        assert bc[0] != -m2
        result = verify.check_calibration_bound(bad, grid1, 0)
        assert result["status"] == "fail"
        assert result["note"] == ("bc(0) = -m^2: False, monotone=True, "
                               "strict for r>0: True")

    def test_negative_control_flipped_sign(self, profile1, grid1):
        from ahgeom.ode import MetricProfile
        nodes = profile1.samples
        flipped = replace(nodes, b=-nodes.b)
        bad = MetricProfile(params=profile1.params, bootstrap=profile1.bootstrap,
                            samples=flipped)
        bc, _ = calibration_check(bad, grid1[100::200])
        assert np.any(bc > -(1.0 - SLACK))
        assert verify.check_calibration_bound(
            bad, grid1[100::200], 0)["status"] == "fail"

    def test_pinned_slack_is_honoured(self, profile1, grid1, monkeypatch):
        # a negative slack demands bc <= -m^2 (1 + 1e-3), which fails near
        # r = 0; the check must read the slack from the tolerance table
        pinned = verify.tolerances
        monkeypatch.setattr(verify, "tolerances", lambda tol: {
            **pinned(tol), "calibration_slack": -1e-3})
        assert verify.check_calibration_bound(
            profile1, grid1, 0)["status"] == "fail"

    def test_small_r_expansion_coefficient(self):
        # bc = -m^2 - r^2/2 + O(r^4): the quadratic coefficient is exactly
        # -1/2 from (p^2 - q^2)/4 with p = r + ..., q = 2m + 3r^2/(4m) + ...
        s = expand(1.0, 8)
        bc2 = (s.unit_p[1] ** 2 - 2 * s.unit_q[0] * s.unit_q[2]) / 4
        assert bc2 == F(-1, 2)
        # same for the even-order parity: bc is even in r
        bc1 = (0 - 2 * s.unit_q[0] * 0) / 4
        assert bc1 == 0

    def test_numeric_expansion_matches(self, profile1):
        for r in (1e-3, 5e-3):
            s = profile1.at(r)
            assert s.b * s.c == pytest.approx(-1.0 - 0.5 * r * r, abs=r ** 4)

