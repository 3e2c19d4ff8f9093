"""ODE core: right-hand sides, bootstrap, integration, interpolation."""
import math
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahgeom import ode
from ahgeom.config import ModelParams, RunConfig
from ahgeom.ode import (IntegrationError, MetricProfile, integrate,
                        product_identity_residual, region_margins, rhs,
                        sample_from_series, shape_point)
from ahgeom.series import expand

nonzero = st.floats(min_value=0.05, max_value=50.0).flatmap(
    lambda v: st.sampled_from([v, -v]))


class TestRhs:
    def test_hand_evaluated(self):
        # termwise: da = (1-1)/12, db = (4-4)/6, dc = (9-1)/4
        assert rhs(1.0, 2.0, 3.0) == (0.0, 0.0, 2.0)

    @given(s=nonzero)
    @settings(max_examples=200)
    def test_symmetric_point(self, s):
        # numerator and denominator share the same rounded s*s
        assert rhs(s, s, s) == (0.5, 0.5, 0.5)

    def test_near_singular_limit(self):
        da, _, _ = rhs(1e-6, -1.0, 1.0)
        assert da == pytest.approx(2.0, abs=1e-11)

    @pytest.mark.parametrize("state", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_domain_error(self, state):
        with pytest.raises(ValueError):
            rhs(*state)


class TestBootstrap:
    def test_values_near_zero(self):
        s = sample_from_series(expand(1.0, 10), 1e-8)
        assert s.a == pytest.approx(2e-8, rel=1e-12)
        assert s.b == pytest.approx(-1.0, abs=1e-8)
        assert s.c == pytest.approx(1.0, abs=1e-8)
        assert (s.da, s.db, s.dc) == pytest.approx((2.0, 0.5, 0.5), abs=1e-7)

    def test_value_at_r0_001(self):
        s = sample_from_series(expand(1.0, 10), 0.01)
        assert s.a == pytest.approx(0.0199995, abs=1e-7)
        # against the longer series
        ref = sample_from_series(expand(1.0, 16), 0.01)
        assert s.a == pytest.approx(ref.a, abs=1e-13)

    def test_scaling_symmetry(self):
        # m = 2 at r0 equals doubled m = 1 at r0/2; first derivatives equal,
        # second derivatives halve (binary scaling is exact in floats)
        r0 = 0.04
        s2 = sample_from_series(expand(2.0, 10), r0)
        s1 = sample_from_series(expand(1.0, 10), r0 / 2)
        assert (s2.a, s2.b, s2.c) == (2 * s1.a, 2 * s1.b, 2 * s1.c)
        assert (s2.da, s2.db, s2.dc) == (s1.da, s1.db, s1.dc)
        assert (s2.dda, s2.ddb, s2.ddc) == (s1.dda / 2, s1.ddb / 2, s1.ddc / 2)


class TestIntegrate:
    def test_profile_basics(self, profile1):
        nodes = profile1.samples
        assert nodes.r[0] == profile1.r0
        assert nodes.r[-1] == 20.0
        assert len(nodes) == nodes.r.size
        assert np.all(np.diff(nodes.r) > 0)
        # the grid is r_max * i/n with the division last, as in scalar code
        assert profile1.grid(7).tolist() == [20.0 * i / 7 for i in range(1, 8)]

    def test_physical_signs_on_samples(self, profile1):
        s = profile1.samples
        assert np.all(s.a > 0) and np.all(s.c > 0) and np.all(s.b < 0)
        assert np.all(s.da > 0) and np.all(s.db > 0) and np.all(s.dc > 0)
        assert np.all(s.gap > 0)

    def test_stored_ode_residual_is_rounding(self, profile1):
        s = profile1.samples
        step = max(1, len(s) // 500)
        rows = zip(*(v[::step].tolist()
                     for v in (s.a, s.b, s.c, s.da, s.db, s.dc)))
        worst = 0.0
        for a, b, c, da, db, dc in rows:
            fa, fb, fc = rhs(a, b, c)
            worst = max(worst, abs(da - fa), abs(db - fb), abs(dc - fc))
        assert worst == 0.0  # stored derivatives are defined through rhs

    def test_against_series_at_r_01(self, profile1):
        ref = sample_from_series(expand(1.0, 16), 0.1)
        got = profile1.at(0.1)
        assert got.a == pytest.approx(ref.a, abs=1e-10)
        assert got.b == pytest.approx(ref.b, abs=1e-10)
        assert got.c == pytest.approx(ref.c, abs=1e-10)

    def test_against_independent_integrator(self, profile1):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        s0 = profile1.at(profile1.r0)
        sol = scipy_integrate.solve_ivp(
            lambda r, y: rhs(*y), (s0.r, 20.0), [s0.a, s0.b, s0.c],
            method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
        for r in (0.5, 1.0, 5.0, 20.0):
            mine = profile1.at(r)
            ref = sol.sol(r)
            assert mine.a == pytest.approx(ref[0], abs=1e-10)
            assert mine.b == pytest.approx(ref[1], abs=1e-10)
            assert mine.c == pytest.approx(ref[2], abs=1e-10)

    def test_tight_against_independent_integrator(self, profile1_tight):
        # the tol 1e-12 profile at nodes and off them, within the solve
        # gate's budget of 10*tol relative to max(1, |y|)
        scipy_integrate = pytest.importorskip("scipy.integrate")
        s0 = profile1_tight.at(profile1_tight.r0)
        sol = scipy_integrate.solve_ivp(
            lambda r, y: rhs(*y), (s0.r, 20.0), [s0.a, s0.b, s0.c],
            method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
        nodes = profile1_tight.samples.r
        radii = np.r_[0.5, 1.0, 5.0, 20.0, nodes[:: 97],
                      0.5 * (nodes[:-1] + nodes[1:])[:: 89]]
        got = profile1_tight.eval(radii)
        ref = sol.sol(radii)
        budget = 10 * profile1_tight.params.tol
        for mine, want in zip((got.a, got.b, got.c), ref):
            assert np.all(np.abs(mine - want)
                          <= budget * np.maximum(1.0, np.abs(want)))

    def test_gap_against_tight_profile(self, profile1, profile1_tight):
        # log u integrates g, so the gap's relative error accumulates along
        # the flow; at r in [12, 20] it stays within 100*tol of the tight run
        nodes = profile1.samples.r
        radii = np.r_[nodes, 0.5 * (nodes[:-1] + nodes[1:])]
        radii = radii[radii >= 12.0]
        got, ref = profile1.eval(radii).gap, profile1_tight.eval(radii).gap
        assert np.all(np.abs(got - ref) <= 100 * profile1.params.tol * ref)

    def test_stored_gap_second_derivative(self, profile1):
        # gap'' from gap' g + gap g' is c'' - a'' where the plain difference
        # still resolves it
        n = profile1.samples
        near = n.r <= 6.0
        err = np.abs(n.ddgap - (n.ddc - n.dda))[near]
        assert np.all(err <= 1e-12 * np.abs(n.ddc[near]) + 1e-13)

    def test_stats(self, profile1):
        stats = profile1.stats
        assert stats.accepted == len(profile1.samples) - 1
        assert stats.rhs_calls == 1 + 6 * (stats.accepted + stats.rejected)
        assert 0.0 <= stats.capped_share <= 1.0
        steps = np.diff(profile1.samples.r)
        cap = ode._step_cap(1.0, profile1.params.tol)
        assert 0.0 < stats.h_min <= stats.h_max <= cap
        assert steps.max() == pytest.approx(stats.h_max, rel=1e-12)
        assert steps.min() == pytest.approx(stats.h_min, rel=1e-12)

    def test_series_agreement_at_twice_r0(self, profile1):
        # the integrated profile just past the bootstrap radius against a
        # longer series, at the hold-out budget of 10*tol
        two = 2 * profile1.r0
        si, ref = profile1.at(two), sample_from_series(expand(1.0, 16), two)
        tol = profile1.params.tol
        for u, v in ((si.a, ref.a), (si.b, ref.b), (si.c, ref.c)):
            assert abs(u - v) <= 10 * tol * max(1.0, abs(v))

    def test_r_max_too_small(self):
        with pytest.raises(ValueError):
            integrate(ModelParams(m=1.0, r_max=0.05, tol=1e-10))

    def test_node_budget(self, monkeypatch):
        # a finite but huge r_max ends in IntegrationError, not in a node
        # store that grows until memory runs out
        monkeypatch.setattr(ode, "_MAX_NODES", 1000)
        with pytest.raises(IntegrationError, match="node budget of 1000"):
            integrate(RunConfig().params())

    def test_node_budget_up_front(self):
        # r_max / h_max alone exceeds the budget: fail before the first step,
        # not after about a minute of stepping
        t0 = time.perf_counter()
        with pytest.raises(IntegrationError, match="node budget of 1000000"):
            integrate(ModelParams(m=1.0, r_max=1e5, tol=1e-10))
        assert time.perf_counter() - t0 < 1.0

    def test_node_budget_in_loop(self, monkeypatch):
        # a budget just above the r_max / h_max floor passes the up-front
        # test; the run stores one node more than the floor, and the guard
        # inside the loop stops it
        params = RunConfig().params()
        r0 = expand(params.m, 10).truncation_radius(params.tol)
        h_max = ode._step_cap(params.m, params.tol)
        budget = math.floor((params.r_max - r0) / h_max) + 1
        monkeypatch.setattr(ode, "_MAX_NODES", budget)
        with pytest.raises(IntegrationError,
                           match=f"node budget of {budget} exhausted"):
            integrate(params)

    def test_shape_flow(self, profile1, grid1):
        pts = shape_point(profile1.eval(grid1))
        assert np.all(pts.one_minus_x > 0)
        assert np.all(np.diff(pts.one_minus_x) < 0)  # x strictly increasing
        assert np.all(np.diff(pts.y) > 0)            # y strictly increasing
        assert 0.9 <= pts.x[-1] <= 1.0 and pts.one_minus_x[-1] > 0
        assert -0.1 < pts.y[-1] < 0

    def test_region_margins_positive(self, profile1, grid1):
        for margin in region_margins(profile1.eval(grid1[:: 10])):
            assert np.all(margin > 0)

    def test_shape_at_zero_and_small_r(self, profile1):
        sp0 = shape_point(profile1.at(0.0))
        assert (sp0.x, sp0.y) == (0.0, -1.0)
        # x ~ 2r - r^2 and y ~ -1 + r - r^2/2 for m = 1
        r = 0.01
        sp = shape_point(profile1.at(r))
        assert sp.x == pytest.approx(2 * r - r * r, abs=5 * r ** 3)
        assert sp.y == pytest.approx(-1 + r - r * r / 2, abs=5 * r ** 3)

    def test_gap_matches_plain_difference_where_representable(self, profile1):
        for r in (0.3, 1.0, 3.0, 6.0):
            s = profile1.at(r)
            assert abs(s.gap - (s.c - s.a)) <= 1e-12 * s.c

    def test_positivity_and_ap_monotone(self, profile1, grid1):
        prev_ap = 0.0
        for r in grid1:
            s = profile1.at(r)
            p, q = s.c + s.b, s.c - s.b
            assert q > 0 and p > 0
            ap = s.a * p
            assert ap > prev_ap
            prev_ap = ap
        s0 = profile1.at(0.0)
        assert s0.c - s0.b == 2.0


class TestEval:
    def test_zero_limit_exact(self, profile1):
        s = profile1.at(0.0)
        assert (s.a, s.b, s.c) == (0.0, -1.0, 1.0)
        assert (s.da, s.db, s.dc) == (2.0, 0.5, 0.5)
        assert (s.dda, s.ddb, s.ddc) == (0.0, -0.75, 0.75)

    def test_stored_node_returned_exactly(self, profile1):
        # at t = 0 and t = 1 the Hermite weights select one node
        nodes = profile1.samples
        got = profile1.eval(nodes.r)
        for f in fields(nodes):
            assert getattr(got, f.name).tobytes() == getattr(nodes, f.name).tobytes()

    def test_batch_matches_scalar(self, profile1):
        # eval of an array is at() of each radius, bit for bit, on both
        # branches and at every boundary between them
        r0, r_max, nodes = profile1.r0, profile1.r_max, profile1.samples.r
        rs = np.array([0.0, 0.5 * r0, r0, nodes[1], nodes[len(nodes) // 2],
                       0.5 * (nodes[7] + nodes[8]), 1.0, 7.3, r_max,
                       r_max * (1 + 1e-13)])
        batch = profile1.eval(rs)
        scalars = [profile1.at(float(r)) for r in rs]
        for f in fields(batch):
            stacked = np.array([getattr(s, f.name) for s in scalars])
            assert stacked.tobytes() == getattr(batch, f.name).tobytes(), f.name

    def test_quintic_exact_on_degree_five(self):
        # nodes holding degree-5 polynomials with exact first and second
        # derivatives: the quintic Hermite interpolant is the polynomial
        # itself, so midpoints come back to rounding (a cubic does not)
        r = np.array([1.0, 1.13, 1.4, 1.5, 1.9, 2.35, 2.4, 3.0])
        polys = [np.polynomial.Polynomial(cf) for cf in (
            (1.0, 0.3, -0.2, 0.05, 0.01, -0.002),
            (-2.0, 0.1, 0.04, -0.03, 0.006, 0.0011),
            (3.0, -0.4, 0.15, 0.02, -0.008, 0.0013),
            (0.5, 0.2, -0.1, 0.03, -0.004, 0.0009))]
        a, b, c, u = polys
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (u0, u1, u2) = (
            (p(r), p.deriv(1)(r), p.deriv(2)(r)) for p in polys)
        nodes = ode.CoefficientSample(r, a0, b0, c0, a1, b1, c1, a2, b2, c2,
                                      u0, u1, u2)
        profile = MetricProfile(
            params=ModelParams(m=1.0, r_max=3.0, tol=1e-10),
            bootstrap=expand(1.0, 10), r0=1.0, samples=nodes)
        mids = 0.5 * (r[:-1] + r[1:])
        got = profile.eval(mids)
        for p, v, dv in ((a, got.a, got.da), (b, got.b, got.db),
                         (c, got.c, got.dc), (u, got.gap, got.dgap)):
            for exact, mine in ((p(mids), v), (p.deriv(1)(mids), dv)):
                assert np.all(np.abs(mine - exact) <= 1e-13 * np.abs(exact))

    def test_out_of_domain(self, profile1):
        with pytest.raises(ValueError):
            profile1.at(-0.1)
        with pytest.raises(ValueError):
            profile1.at(20.5)
        for bad in (np.nan, -1e-300, 20.0 * (1 + 1e-11)):
            with pytest.raises(ValueError):
                profile1.eval([0.0, 1.0, bad])

    def test_holdout_states_reproduced(self, profile1, profile1_tight):
        # interpolation must reproduce independently integrated states to
        # within 10*tol relative
        rng = np.random.default_rng(5)
        budget = 10 * profile1.params.tol
        for r in rng.uniform(profile1.r0, 20.0, 150):
            s, t = profile1.at(float(r)), profile1_tight.at(float(r))
            for u, v in ((s.a, t.a), (s.b, t.b), (s.c, t.c)):
                assert abs(u - v) <= budget * max(1.0, abs(v))

    def test_scale_covariance(self, profile1, profile2):
        worst = 0.0
        for i in range(1, 101):
            r = 40.0 * i / 100
            s2, s1 = profile2.at(r), profile1.at(r / 2)
            for v2, v1 in ((s2.a, s1.a), (s2.b, s1.b), (s2.c, s1.c)):
                worst = max(worst, abs(v2 - 2 * v1) / max(2.0, abs(v2)))
        assert worst <= 100 * profile1.params.tol


class TestProductIdentities:
    def test_stored_nodes_rounding_level(self, profile1):
        nodes = profile1.samples.r[:: 7]
        assert product_identity_residual(profile1, nodes) < 1e-11

    def test_interpolated_midpoints(self, profile1):
        nodes = profile1.samples.r
        mids = (0.5 * (nodes[:-1] + nodes[1:]))[:: 3]
        assert product_identity_residual(profile1, mids) <= 1e-6

    def test_corrupted_profile_fails(self, profile1):
        nodes = profile1.samples
        flipped = replace(nodes, b=-nodes.b)
        bad = MetricProfile(params=profile1.params, bootstrap=profile1.bootstrap,
                            r0=profile1.r0, samples=flipped)
        assert product_identity_residual(bad, nodes.r[:: 50]) > 0.1
