"""ODE core: right-hand sides, bootstrap, integration, interpolation."""
import collections
import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahgeom import cli, ode
from ahgeom.config import ModelParams
from ahgeom.ode import (IntegrationError, MetricProfile, integrate,
                        product_identity_residual, region_margins, rhs,
                        sample_from_series)
from ahgeom.series import expand
from conftest import at, replace

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

    def test_floats_match_arrays(self):
        # squares are products: libm's pow, which ** calls on floats, can
        # differ from x*x, the form arrays use, in the last bit
        rng = np.random.default_rng(11)
        a, b, c = rng.uniform(0.05, 50.0, (3, 20_000)) * [[1.0], [-1.0], [1.0]]
        scalar = [rhs(*t) for t in zip(a.tolist(), b.tolist(), c.tolist())]
        assert np.array(scalar).tobytes() == np.array(rhs(a, b, c)).T.tobytes()

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
        # the first node is the bootstrap radius
        assert nodes.r[0] == expand(1.0, 10).truncation_radius(1e-10)
        assert profile1.r0 == nodes.r[0]
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
        got = at(profile1, 0.1)
        assert got.a == pytest.approx(ref.a, abs=1e-10)
        assert got.b == pytest.approx(ref.b, abs=1e-10)
        assert got.c == pytest.approx(ref.c, abs=1e-10)

    def test_against_independent_integrator(self, profile1):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        s0 = at(profile1, profile1.r0)
        sol = scipy_integrate.solve_ivp(
            lambda r, y: rhs(*y), (s0.r, 20.0), [s0.a, s0.b, s0.c],
            method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
        for r in (0.5, 1.0, 5.0, 20.0):
            mine = at(profile1, r)
            ref = sol.sol(r)
            assert mine.a == pytest.approx(ref[0], abs=1e-10)
            assert mine.b == pytest.approx(ref[1], abs=1e-10)
            assert mine.c == pytest.approx(ref[2], abs=1e-10)

    def test_tight_against_independent_integrator(self, profile1_tight):
        # the tol 1e-12 profile at nodes and off them, within the solve
        # gate's budget of 10*tol relative to max(1, |y|)
        scipy_integrate = pytest.importorskip("scipy.integrate")
        s0 = at(profile1_tight, profile1_tight.r0)
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
        # log(gap / m) is in the error norm at absolute tol, so the gap is
        # under relative error control; at r in [12, 20] it stays within
        # 10*tol of the tight run
        nodes = profile1.samples.r
        radii = np.r_[nodes, 0.5 * (nodes[:-1] + nodes[1:])]
        radii = radii[radii >= 12.0]
        got, ref = profile1.eval(radii).gap, profile1_tight.eval(radii).gap
        assert np.all(np.abs(got - ref) <= 10 * profile1.params.tol * ref)

    def test_stored_gap_second_derivative(self, profile1):
        # l'' = g' is (c - a)''/(c - a) - l'^2 where the plain difference
        # c'' - a'' still resolves it, up to the rounding of its terms
        n = profile1.samples
        near = n.r <= 6.0
        gap, dl = n.gap[near], n.dlog_gap[near]
        want = (n.ddc - n.dda)[near] / gap - dl * dl
        scale = (np.abs(n.ddc) + np.abs(n.dda))[near] / gap + dl * dl
        assert np.all(np.abs(n.ddlog_gap[near] - want) <= 1e-11 * scale)

    def test_log_gap_past_gap_underflow(self):
        # to r = 400 m the gap m e^l underflows near r = 240 m; l itself
        # keeps falling, integrates l' = g, and eval stays finite
        p = integrate(ModelParams(m=1.0, r_max=400.0, tol=1e-10))
        n = p.samples
        far = n.r >= 200.0
        assert np.all(np.diff(n.log_gap[far]) < 0)
        assert n.log_gap[-1] < math.log(5e-324) - 400
        assert n.dlog_gap.tobytes() == ode.gap_rate(n.a, n.b, n.c).tobytes()
        # each increment of l against the Hermite quadrature of g over its step
        h = np.diff(n.r)
        quad = (0.5 * h * (n.dlog_gap[:-1] + n.dlog_gap[1:])
                + h * h / 12 * (n.ddlog_gap[:-1] - n.ddlog_gap[1:]))
        step = np.diff(n.log_gap)
        assert np.all(np.abs(step - quad) <= 1e-8 * np.abs(step))
        s = p.eval(np.linspace(0.0, 400.0, 4001))
        for v in (s.a, s.b, s.c, s.gap, s.log_gap):
            assert np.all(np.isfinite(v))
        assert np.all(s.gap >= 0) and s.gap[-1] == 0.0
        assert np.all(s.c >= s.a)

    def test_stats(self, profile1):
        stats = profile1.stats
        assert stats.accepted == len(profile1.samples) - 1
        assert stats.rhs_calls == 1 + 6 * (stats.accepted + stats.rejected)
        steps = np.diff(profile1.samples.r)
        assert 0.0 < stats.h_min <= stats.h_max
        assert steps.max() == pytest.approx(stats.h_max, rel=1e-12)
        assert steps.min() == pytest.approx(stats.h_min, rel=1e-12)

    def test_stats_at_tight_tol(self, profile1_tight):
        # the stepper's path at tol 1e-12, pinned: a change in any stage sum
        # or error estimate moves a step and with it these counts
        stats = profile1_tight.stats
        assert (stats.accepted, stats.rejected, stats.rhs_calls) == (
            489, 2, 2947)
        assert len(profile1_tight.samples) == 490
        assert stats.h_min == pytest.approx(0.0019280383729839052, rel=1e-12)
        assert stats.h_max == pytest.approx(0.15602054011730004, rel=1e-12)

    def test_series_agreement_at_twice_r0(self, profile1):
        # the integrated profile just past the bootstrap radius against a
        # longer series, at the hold-out budget of 10*tol
        two = 2 * profile1.r0
        si, ref = at(profile1, two), sample_from_series(expand(1.0, 16), two)
        tol = profile1.params.tol
        for u, v in ((si.a, ref.a), (si.b, ref.b), (si.c, ref.c)):
            assert abs(u - v) <= 10 * tol * max(1.0, abs(v))

    def test_r_max_too_small(self):
        with pytest.raises(ValueError):
            integrate(ModelParams(m=1.0, r_max=0.05, tol=1e-10))

    def test_node_budget(self, monkeypatch):
        # a run that needs more nodes than the budget ends in
        # IntegrationError, not in a node store that grows until memory
        # runs out (the default run stores 195 nodes)
        monkeypatch.setattr(ode, "_MAX_NODES", 100)
        with pytest.raises(IntegrationError, match="node budget of 100"):
            integrate(ModelParams(m=1.0, r_max=20.0, tol=1e-10))

    def test_node_budget_up_front(self):
        # (r_max - r0)/m alone exceeds the budget: fail before the first
        # step, not after tens of seconds of stepping
        t0 = time.perf_counter()
        with pytest.raises(IntegrationError, match="node budget of 1000000"):
            integrate(ModelParams(m=1.0, r_max=1e7, tol=1e-10))
        assert time.perf_counter() - t0 < 1.0

    def test_node_budget_in_loop(self, monkeypatch):
        # a budget just above (r_max - r0)/m passes the up-front test; the
        # default run stores 195 nodes, and the guard inside the loop
        # stops it
        params = ModelParams(m=1.0, r_max=20.0, tol=1e-10)
        r0 = expand(params.m, 10).truncation_radius(params.tol)
        budget = math.floor((params.r_max - r0) / params.m) + 1
        monkeypatch.setattr(ode, "_MAX_NODES", budget)
        with pytest.raises(IntegrationError,
                           match=f"node budget of {budget} exhausted"):
            integrate(params)

    def test_shape_flow(self, profile1, grid1):
        # shape coordinates (x, y) = (a/c, b/c); 1 - x from the tracked gap
        s = profile1.eval(grid1)
        x, y, one_minus_x = s.a / s.c, s.b / s.c, s.gap / s.c
        assert np.all(one_minus_x > 0)
        assert np.all(np.diff(one_minus_x) < 0)  # x strictly increasing
        assert np.all(np.diff(y) > 0)            # y strictly increasing
        assert 0.9 <= x[-1] <= 1.0 and one_minus_x[-1] > 0
        assert -0.1 < y[-1] < 0

    def test_region_margins_positive(self, profile1, grid1):
        s = profile1.eval(grid1[:: 10])
        margins = region_margins(s, 1.0)
        for margin in margins:
            assert np.all(margin > 0)
        # the x < 1 margin is 1 - x without its factor e^l
        assert np.allclose(margins[2] * np.exp(s.log_gap), s.gap / s.c,
                           rtol=1e-12, atol=0.0)

    def test_region_margins_where_the_gap_underflows(self):
        # past r ~ 240 m the gap reads 0, and so would 1 - x = gap/c; the
        # margin without its factor e^l stays positive
        p = integrate(ModelParams(m=1.0, r_max=500.0, tol=1e-10))
        s = p.eval(np.array([250.0, 500.0]))
        assert np.all(s.gap == 0.0)
        assert all(np.all(margin > 0) for margin in region_margins(s, 1.0))

    def test_shape_at_zero_and_small_r(self, profile1):
        s0 = at(profile1, 0.0)
        assert (s0.a / s0.c, s0.b / s0.c) == (0.0, -1.0)
        # x ~ 2r - r^2 and y ~ -1 + r - r^2/2 for m = 1
        r = 0.01
        s = at(profile1, r)
        assert s.a / s.c == pytest.approx(2 * r - r * r, abs=5 * r ** 3)
        assert s.b / s.c == pytest.approx(-1 + r - r * r / 2, abs=5 * r ** 3)

    def test_gap_matches_plain_difference_where_representable(self, profile1):
        for r in (0.3, 1.0, 3.0, 6.0):
            s = at(profile1, r)
            assert abs(s.gap - (s.c - s.a)) <= 1e-12 * s.c

    def test_positivity_and_ap_monotone(self, profile1, grid1):
        prev_ap = 0.0
        for r in grid1:
            s = at(profile1, r)
            p, q = s.c + s.b, s.c - s.b
            assert q > 0 and p > 0
            ap = s.a * p
            assert ap > prev_ap
            prev_ap = ap
        s0 = at(profile1, 0.0)
        assert s0.c - s0.b == 2.0


def _sums_by_stage(ks, coefs):
    # reference form of the stage sums: one generator over the stages per
    # component
    return [math.fsum(cf * k[i] for cf, k in zip(coefs, ks)) for i in range(3)]


def _reference_stepper(params):
    """The DP5(4) stepper in its per-stage tuple form: each stage state
    y + h sum_j coefs[j] k_j from `_sums_by_stage`, the flow of
    (a, b, l = log((c - a)/m)) through `rhs` and `gap_rate`.  Returns the
    accepted rows (r, a, b, l) and (accepted, rejected, rhs_calls, h_min,
    h_max)."""
    m, tol, r_max = params.m, params.tol, params.r_max
    series = expand(m, 10)
    r0 = series.truncation_radius(tol)

    def flow(y):
        a, b, l = y
        c = a + m * math.exp(l)
        da, db, _ = rhs(a, b, c)
        return (da, db, ode.gap_rate(a, b, c))

    start = sample_from_series(series, r0)
    y = (start.a, start.b, float(start.log_gap))
    k1 = flow(y)
    rows = [(r0, *y)]
    r = h = r0
    accepted = rejected = 0
    rhs_calls, h_lo, h_hi = 1, math.inf, 0.0
    while r < r_max:
        last = r + h >= r_max
        if last:
            h = r_max - r
        ks = [k1]
        for coefs in ode._DP_A[1:]:
            ys = tuple(yi + h * v
                       for yi, v in zip(y, _sums_by_stage(ks, coefs)))
            ks.append(flow(ys))
        rhs_calls += 6
        err = [abs(h * v) for v in _sums_by_stage(ks, ode._DP_ERR)]
        norm = max(err[0] / (m + abs(y[0])), err[1] / (m + abs(y[1])),
                   err[2]) / (0.1 * tol)
        if norm <= 1.0:
            accepted += 1
            h_lo, h_hi = min(h_lo, h), max(h_hi, h)
            r, y, k1 = r_max if last else r + h, ys, ks[6]
            rows.append((r, *y))
            h *= 5.0 if norm == 0.0 else min(5.0, 0.9 * norm ** -0.2)
        else:
            rejected += 1
            h *= max(0.2, 0.9 * norm ** -0.2)
    return rows, (accepted, rejected, rhs_calls, h_lo, h_hi)


STAGE_FAILURES = ["rhs-zero", "exp-overflow"]


def patch_stage_failure(monkeypatch, kind, after=300):
    """From the `after`-th call on, well past the first stage (six per
    step), rhs sees a = 0 and refuses it with ValueError ("rhs-zero"), or
    math.exp overflows ("exp-overflow")."""
    owner, name = (ode, "rhs") if kind == "rhs-zero" else (math, "exp")
    real = getattr(owner, name)
    calls = itertools.count()

    def failing(*args):
        if next(calls) >= after:
            args = (0.0, *args[1:]) if kind == "rhs-zero" else (1e6,)
        return real(*args)

    monkeypatch.setattr(owner, name, failing)


class TestStepper:
    @pytest.mark.parametrize("m", [1.0, 0.731245, 2.0 ** 10, 2.0 ** -10,
                                   1e30, 1e-30])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-14])
    def test_matches_reference_stepper(self, tol, m):
        # the inlined stage loop does the reference's float operations in
        # its order: the same nodes and stats, bit for bit
        params = ModelParams(m=m, r_max=20.0 * m, tol=tol)
        profile = integrate(params)
        rows, stats = _reference_stepper(params)
        nodes = profile.samples
        got = np.stack([nodes.r, nodes.a, nodes.b, nodes.log_gap], axis=1)
        assert got.tobytes() == np.array(rows).tobytes()
        got_stats = profile.stats
        assert (got_stats.accepted, got_stats.rejected, got_stats.rhs_calls,
                got_stats.h_min, got_stats.h_max) == stats

    @pytest.mark.parametrize("kind", STAGE_FAILURES)
    def test_stage_failure(self, monkeypatch, kind):
        # a ValueError or OverflowError inside a step's stages ends the
        # run as IntegrationError at the radius the step started from
        patch_stage_failure(monkeypatch, kind)
        params = ModelParams(m=1.0, r_max=20.0, tol=1e-10)
        with pytest.raises(IntegrationError) as info:
            integrate(params)
        found = re.fullmatch(
            r"stage state hit a coordinate zero or overflowed "
            r"\(at r = (\S+)\)", str(info.value))
        assert found
        r0 = expand(1.0, 10).truncation_radius(params.tol)
        assert r0 < float(found[1]) < params.r_max

    @pytest.mark.parametrize("kind", STAGE_FAILURES)
    def test_stage_failure_exits_3(self, monkeypatch, capsys, kind):
        patch_stage_failure(monkeypatch, kind)
        assert cli.main(["solve", "--grid", "10"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("ahgeom: numerical failure: stage state hit a "
                              "coordinate zero or overflowed (at r = ")

    def test_every_rhs_call_and_one_expand_seen_through_the_module(
            self, monkeypatch):
        # perfbench's tracer wraps ode.rhs and ode.expand in the module's
        # namespace: integrate looks both up there, one rhs call per stage
        # plus the array call for the nodes' derivatives
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ode, "rhs", counting("rhs", ode.rhs))
        monkeypatch.setattr(ode, "expand", counting("expand", ode.expand))
        profile = integrate(ModelParams(m=1.0, r_max=20.0, tol=1e-12))
        assert calls == {"rhs": profile.stats.rhs_calls + 1, "expand": 1}


class TestEval:
    def test_zero_limit_exact(self, profile1):
        s = at(profile1, 0.0)
        assert (s.a, s.b, s.c) == (0.0, -1.0, 1.0)
        assert (s.da, s.db, s.dc) == (2.0, 0.5, 0.5)
        assert (s.dda, s.ddb, s.ddc) == (0.0, -0.75, 0.75)

    def test_stored_node_returned_exactly(self, profile1):
        # at t = 0 and t = 1 the Hermite weights select one node
        nodes = profile1.samples
        got = profile1.eval(nodes.r)
        for name in nodes.__slots__:
            assert (getattr(got, name).tobytes()
                    == getattr(nodes, name).tobytes())

    def test_batch_matches_scalar(self, profile1):
        # eval of an array is at() of each radius, bit for bit, on both
        # branches and at every boundary between them
        r0, r_max, nodes = profile1.r0, profile1.r_max, profile1.samples.r
        rs = np.array([0.0, 0.5 * r0, r0, nodes[1], nodes[len(nodes) // 2],
                       0.5 * (nodes[7] + nodes[8]), 1.0, 7.3, r_max,
                       r_max * (1 + 1e-13)])
        batch = profile1.eval(rs)
        scalars = [profile1.at(float(r)) for r in rs]
        for name in batch.__slots__:
            stacked = np.array([getattr(s, name) for s in scalars])
            assert stacked.tobytes() == getattr(batch, name).tobytes(), name

    @given(n=st.integers(min_value=2, max_value=3000), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cuts_match_whole_grid(self, profile1, n, data):
        # eval is elementwise, so a grid evaluated in contiguous pieces, as
        # solve and curvature write it, is the whole grid's eval bit for bit;
        # squared spacing puts radii below the bootstrap radius too
        r = profile1.r_max * (np.arange(n) / (n - 1)) ** 2
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=8)))
        whole = profile1.eval(r)
        pieces = [profile1.eval(r[lo:hi])
                  for lo, hi in zip([0, *cuts], [*cuts, n])]
        for name in whole.__slots__:
            joined = np.concatenate([getattr(p, name) for p in pieces])
            assert joined.tobytes() == getattr(whole, name).tobytes(), name

    def test_quintic_exact_on_degree_five(self):
        # nodes holding degree-5 polynomials in a, b and l = log(gap / m)
        # with exact first and second derivatives: the quintic Hermite
        # interpolant is the polynomial itself, so midpoints come back to
        # rounding (a cubic does not), and so do gap = m e^l and c = a + gap
        m = 1.5
        r = np.array([1.0, 1.13, 1.4, 1.5, 1.9, 2.35, 2.4, 3.0])
        polys = [np.polynomial.Polynomial(cf) for cf in (
            (1.0, 0.3, -0.2, 0.05, 0.01, -0.002),
            (-2.0, 0.1, 0.04, -0.03, 0.006, 0.0011),
            (0.5, 0.2, -0.1, 0.03, -0.004, 0.0009))]
        a, b, l = polys
        (a0, a1, a2), (b0, b1, b2), (l0, l1, l2) = (
            (p(r), p.deriv(1)(r), p.deriv(2)(r)) for p in polys)
        u0 = m * np.exp(l0)
        nodes = ode.CoefficientSample(
            r, a0, b0, a0 + u0, a1, b1, a1 + u0 * l1, a2, b2,
            a2 + u0 * (l2 + l1 * l1), u0, l0, l1, l2)
        profile = MetricProfile(
            params=ModelParams(m=m, r_max=3.0, tol=1e-10),
            bootstrap=expand(m, 10), samples=nodes)
        mids = 0.5 * (r[:-1] + r[1:])
        got = profile.eval(mids)
        gap = m * np.exp(l(mids))
        for exact, mine in ((a(mids), got.a), (a.deriv(1)(mids), got.da),
                            (b(mids), got.b), (b.deriv(1)(mids), got.db),
                            (l(mids), got.log_gap),
                            (l.deriv(1)(mids), got.dlog_gap),
                            (gap, got.gap), (a(mids) + gap, got.c)):
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
            s, t = at(profile1, float(r)), at(profile1_tight, float(r))
            for u, v in ((s.a, t.a), (s.b, t.b), (s.c, t.c)):
                assert abs(u - v) <= budget * max(1.0, abs(v))

    def test_scale_covariance(self, profile1, profile2):
        worst = 0.0
        for i in range(1, 101):
            r = 40.0 * i / 100
            s2, s1 = at(profile2, r), at(profile1, r / 2)
            for v2, v1 in ((s2.a, s1.a), (s2.b, s1.b), (s2.c, s1.c)):
                worst = max(worst, abs(v2 - 2 * v1) / max(2.0, abs(v2)))
        assert worst <= 100 * profile1.params.tol

    @pytest.mark.parametrize("k", [10, -10])
    def test_power_of_two_m_rescales_nodes_exactly(self, profile1, k):
        # m -> 2^k m multiplies every length by 2^k and the error norm is
        # scale-free, so the run takes the same steps: each stored field is
        # the m = 1 field times 2^k to its dimension in length, bit for bit
        f = 2.0 ** k
        nodes = integrate(ModelParams(m=f, r_max=20.0 * f, tol=1e-10)).samples
        ref = profile1.samples
        power = dict(r=1, a=1, b=1, c=1, gap=1, dda=-1, ddb=-1, ddc=-1,
                     dlog_gap=-1, ddlog_gap=-2)
        for name in nodes.__slots__:
            want = getattr(ref, name) * f ** power.get(name, 0)
            assert getattr(nodes, name).tobytes() == want.tobytes(), name


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
                            samples=flipped)
        assert product_identity_residual(bad, nodes.r[:: 50]) > 0.1


@pytest.mark.parametrize("owner, kind", [
    ("params", "ModelParams"), ("bootstrap", "SeriesCoefficients"),
    ("stats", "IntegrationStats"), (None, "MetricProfile")])
def test_records_are_read_only(profile1, owner, kind):
    # as the frozen dataclasses they replace: no field can be assigned or
    # deleted, and no other attribute added
    record = profile1 if owner is None else getattr(profile1, owner)
    assert type(record).__name__ == kind
    for name in record.__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1
