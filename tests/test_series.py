"""Series oracle: exact coefficients, parity, formal residuals, scaling."""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahgeom import series, verify
from ahgeom.series import SeriesCoefficients, expand, formal_residual_ok
from conftest import replace

# Low-order coefficients derived independently by hand, matching the cleared
# identities order by order (m = 1): the level-1 and level-2 unknowns.
HAND_COEFFS = {
    ("a", 1): F(2), ("a", 3): F(-1, 2), ("a", 5): F(3, 8),
    ("p", 1): F(1), ("p", 3): F(1, 8), ("p", 5): F(-3, 32),
    ("q", 0): F(2), ("q", 2): F(3, 4), ("q", 4): F(-15, 64),
}


def test_hand_derived_coefficients():
    s = expand(1.0, 6)
    lists = {"a": s.unit_a, "p": s.unit_p, "q": s.unit_q}
    for (name, k), want in HAND_COEFFS.items():
        assert lists[name][k] == want, (name, k)


def _full_residual_coefficients(order):
    """Reference solver: each unknown from the whole cleared-identity
    polynomials through its degree, built at the unknown = 0 and 1."""
    A, P, Q = ([F(0)] * (order + 1) for _ in range(3))
    A[1], P[1], Q[0] = F(2), F(1), F(2)

    def match(which, k, target, index):
        values = []
        for x in (F(0), F(1)):
            target[index] = x
            values.append(series._cleared_residuals(A, P, Q, k)[which][k])
        target[index] = -values[0] / (values[1] - values[0])

    for j in range(1, order // 2 + 1):
        match(1, 2 * j, Q, 2 * j)
        if 2 * j + 1 <= order:
            match(0, 2 * j, A, 2 * j + 1)
            match(2, 2 * j + 1, P, 2 * j + 1)
    return tuple(A), tuple(P), tuple(Q)


@pytest.mark.parametrize("order", range(4, 17))
def test_single_degree_solver_matches_full_residuals(order):
    # the solver evaluates one coefficient of one identity per unknown; the
    # full polynomials give the same exact rationals
    got = series._unit_coefficients(order)
    assert got == _full_residual_coefficients(order)
    assert all(type(c) is F for coeffs in got for c in coeffs)


def test_printed_leading_terms_b_c():
    s = expand(1.0, 4)
    b = [(s.unit_p[k] - s.unit_q[k]) / 2 for k in range(3)]
    c = [(s.unit_p[k] + s.unit_q[k]) / 2 for k in range(3)]
    assert b == [F(-1), F(1, 2), F(-3, 8)]
    assert c == [F(1), F(1, 2), F(3, 8)]


def test_scaled_coefficients_exact():
    s = expand(2.0, 6)
    # coefficient of r^k scales exactly as m**(1-k)
    assert s.coeff_a[3] == F(-1, 2) / 4
    assert s.coeff_q[0] == 4
    assert s.coeff_q[2] == F(3, 8)


@given(order=st.integers(min_value=4, max_value=14))
@settings(max_examples=11, deadline=None)
def test_parity_all_orders(order):
    s = expand(1.0, order)
    for k in range(0, order + 1, 2):
        assert s.unit_a[k] == 0 and s.unit_p[k] == 0
    for k in range(1, order + 1, 2):
        assert s.unit_q[k] == 0


def test_parity_enforced_when_built():
    # the series check relies on this: no series that breaks parity can be
    # built, so none reaches the check
    s = expand(1.0, 10)
    bad_a = list(s.unit_a)
    bad_a[4] = F(1)
    with pytest.raises(ValueError, match="parity violated"):
        replace(s, unit_a=tuple(bad_a))


@pytest.mark.parametrize("m,order", [(1.0, 10), (3.0, 8), (0.5, 6)])
def test_formal_residual(m, order):
    assert formal_residual_ok(expand(m, order))


def test_formal_residual_negative_control():
    s = expand(1.0, 8)
    bad_q = list(s.unit_q)
    bad_q[2] = F(1)  # perturb the leading curvature-carrying term
    bad = SeriesCoefficients(m=1.0, order=8, unit_a=s.unit_a,
                             unit_p=s.unit_p, unit_q=tuple(bad_q))
    assert not formal_residual_ok(bad)


def test_series_check_certifies_full_formal_residual(profile1, grid1):
    # a wrong r^9 term keeps the printed orders and the parity, so only the
    # formal residual through r^(order-1) can fail the check
    ser = profile1.bootstrap
    bad_a = list(ser.unit_a)
    bad_a[9] += 1
    bad = replace(ser, unit_a=tuple(bad_a))
    for series, ok in ((ser, True), (bad, False)):
        result = verify.check_series_expansion(
            replace(profile1, bootstrap=series), grid1, 0)
        assert (result["status"] == "pass") is ok


def test_m_scaling_equals_unit_rescaling():
    s1, s3 = expand(1.0, 8), expand(3.0, 8)
    for k in range(9):
        assert s3.coeff_a[k] == s1.unit_a[k] * F(3) ** (1 - k)
        assert s3.coeff_p[k] == s1.unit_p[k] * F(3) ** (1 - k)
        assert s3.coeff_q[k] == s1.unit_q[k] * F(3) ** (1 - k)


def test_order_validation():
    with pytest.raises(ValueError):
        expand(1.0, 3)
    with pytest.raises(ValueError):
        expand(-1.0, 8)


def test_truncation_radius_monotone_in_tol():
    s = expand(1.0, 10)
    assert 0 < s.truncation_radius(1e-12) < s.truncation_radius(1e-8)
    # tighter order retains more terms and so reaches further
    assert s.truncation_radius(1e-10) < expand(1.0, 16).truncation_radius(1e-10)


def test_evaluation_at_zero_is_exact_limit():
    a, p, q, da, dp, dq, dda, ddp, ddq = expand(1.0, 10).apq(0.0)
    assert (a, p, q) == (0.0, 0.0, 2.0)
    assert (da, dp, dq) == (2.0, 1.0, 0.0)
    assert (dda, ddp) == (0.0, 0.0) and ddq == 1.5


def test_a_value_regression():
    # frozen from the order-16 evaluation; order 12 agrees to ~2e-14
    assert expand(1.0, 16).apq(0.1)[0] == pytest.approx(0.19950371978779413, abs=1e-13)
    assert expand(1.0, 10).apq(0.1)[0] == pytest.approx(0.1995037, abs=1e-6)


def test_series_cross_validated_by_independent_integration():
    # float series at r = m/100 vs an independent high-order integration
    # started from a ten-times-smaller radius
    scipy_integrate = pytest.importorskip("scipy.integrate")
    from ahgeom.ode import rhs, sample_from_series

    ser = expand(1.0, 12)
    r_lo, r_hi = 0.001, 0.01
    s0 = sample_from_series(ser, r_lo)
    sol = scipy_integrate.solve_ivp(
        lambda r, y: rhs(*y), (r_lo, r_hi), [s0.a, s0.b, s0.c],
        method="DOP853", rtol=1e-13, atol=1e-16)
    s1 = sample_from_series(ser, r_hi)
    assert sol.y[0, -1] == pytest.approx(s1.a, abs=1e-12)
    assert sol.y[1, -1] == pytest.approx(s1.b, abs=1e-12)
    assert sol.y[2, -1] == pytest.approx(s1.c, abs=1e-12)
