"""Convexity machinery: Hessian spectrum, derivative chain, k-plane minima."""
import functools
import math
import re
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

import ahgeom
from ahgeom import convexity, verify
from ahgeom.config import ModelParams
from ahgeom.convexity import (SplitMix64, _plane_traces, _plane_weights,
                              brute_force_plane_min, chain_margins, hessian_r2,
                              hessian_r2_diagonal, min_trace_over_kplanes,
                              second_derivative_signs)
from ahgeom.ode import integrate
from conftest import at, force_cpus

C_CROSSING_M1 = 1.7175933153182266  # frozen; stable under tol 1e-10 -> 1e-12


class TestHessianSpectrum:
    def test_structure(self, profile1):
        eig = hessian_r2(at(profile1, 1.0))
        assert eig.shape == (4,)
        assert eig.tolist() == sorted(eig.tolist())
        assert eig[3] == 2.0                    # the radial eigenvalue
        assert sum(1 for e in eig if e < 0) == 1
        assert min_trace_over_kplanes(eig, 2) == eig[0] + eig[1]

    def test_batch_diagonal_matches_spectrum(self, profile1):
        # the spectrum of an eval batch is each radius's spectrum, and it is
        # the sorted diagonal
        rs = [1e-3, 0.5, 1.0, 7.0, 20.0]
        eig = hessian_r2(profile1.eval(rs))
        assert eig.shape == (4, len(rs))
        diag = hessian_r2_diagonal(profile1.eval(rs))
        assert diag.shape == (4, len(rs))
        for i, r in enumerate(rs):
            one = hessian_r2(at(profile1, r))
            assert eig[:, i].tolist() == one.tolist()
            assert one.tolist() == sorted(hessian_r2_diagonal(at(profile1, r)))
        # bitwise: a batch diagonal is the stacked one-radius diagonals
        stacked = np.stack([hessian_r2_diagonal(at(profile1, r)) for r in rs],
                           axis=1)
        assert diag.tobytes() == stacked.tobytes()

    def test_small_r_eigenvalues_match_series(self, profile1):
        r = 1e-3
        s = at(profile1, r)
        # 2r b'/b ~ -r + r^2 and 2r c'/c ~ r + r^2 for m = 1
        assert 2 * r * s.db / s.b == pytest.approx(-r, abs=3 * r * r)
        assert 2 * r * s.dc / s.c == pytest.approx(r, abs=3 * r * r)
        assert 2 * r * s.da / s.a == pytest.approx(2.0, abs=3 * r * r)

    def test_min2sum_positive_on_grid(self, profile1, grid1):
        for r in grid1[:: 5]:
            eig = hessian_r2(at(profile1, r))
            assert min_trace_over_kplanes(eig, 2) > 0
            assert min_trace_over_kplanes(eig, 3) > 0
            assert eig[0] < 0  # plain convexity genuinely fails

    def test_semiconvexity_rate_at_zero(self, profile1):
        # the two-plane minimum ~ 2 r^2 / m^2 from the series of (bc)'/(bc)
        for r in (1e-3, 5e-3, 1e-2):
            eig = hessian_r2(at(profile1, r))
            assert min_trace_over_kplanes(eig, 2) == pytest.approx(2 * r * r,
                                                                   rel=0.1)

    def test_zero_limit_flag(self, profile1):
        with pytest.raises(ValueError):
            hessian_r2(at(profile1, 0.0))
        with pytest.raises(ValueError):
            hessian_r2(profile1.eval([0.0, 1.0]))

    def test_laplacian_positive(self, profile1, grid1):
        for r in grid1[:: 25]:
            assert min_trace_over_kplanes(hessian_r2(at(profile1, r)), 4) > 0
        # the Laplacian tends to 2 + 2 + 0 + 0 = 4 at the zero section
        lap0 = min_trace_over_kplanes(hessian_r2(at(profile1, 1e-6)), 4)
        assert lap0 == pytest.approx(4.0, abs=1e-10)


class TestChainMargins:
    def test_all_positive(self, profile1, grid1):
        margins, _ = chain_margins(profile1, grid1)
        assert all(g > 0 for g in margins)

    def test_leading_margin_near_zero(self, profile1):
        # 1 - r a'/a ~ r^2/(2 m^2), from a/a' = r + r^3/(2 m^2) + ...
        r = 0.01
        g1 = chain_margins(profile1, [r])[0][0]
        assert g1 == pytest.approx(r * r / 2, rel=0.3)

    def test_gap_form_matches_direct_form(self, profile1):
        # the cancellation-free second margin, with its factor e^l put
        # back, equals r a'/a - r c'/c where the plain difference is still
        # representable; so does its log10
        for r in (0.5, 1.0, 3.0, 6.0):
            s = at(profile1, r)
            direct = r * s.da / s.a - r * s.dc / s.c
            (_, g2, _, _), log10 = chain_margins(profile1, [r])
            assert g2 * math.exp(s.log_gap) == pytest.approx(direct, rel=1e-6)
            assert log10 == pytest.approx(math.log10(direct), abs=1e-6)

    def test_positive_where_the_gap_underflows(self):
        # past r ~ 240 m the gap m e^l reads 0, so the plain middle margin
        # would too; without its factor e^l it stays positive, and its
        # log10 keeps falling
        profile = integrate(ModelParams(m=1.0, r_max=500.0, tol=1e-10))
        s = profile.eval([250.0, 500.0])
        assert np.all(s.gap == 0.0)
        margins, log10 = chain_margins(profile, [250.0, 500.0])
        assert all(g > 0 for g in margins)
        assert -700.0 < log10 < -600.0
        assert chain_margins(profile, [250.0])[1] > log10

    def test_negative_control_swapped_roles(self, profile1):
        # swapping the roles of b and c in the third gap makes it negative
        s = at(profile1, 1.0)
        r = s.r
        swapped = r * s.db / s.b + r * s.dc / s.c  # genuine margin, positive
        wrong = r * s.db / s.c + r * s.dc / s.b    # roles interchanged
        assert swapped > 0 > wrong


class TestKPlaneMin:
    def test_k4_is_trace(self, profile1):
        eig = hessian_r2(at(profile1, 2.0))
        assert min_trace_over_kplanes(eig, 4) == pytest.approx(math.fsum(eig),
                                                               rel=1e-15)

    def test_k_validation(self, profile1):
        eig = hessian_r2(at(profile1, 2.0))
        with pytest.raises(ValueError):
            min_trace_over_kplanes(eig, 0)
        with pytest.raises(ValueError):
            min_trace_over_kplanes(eig, 5)

    def test_k2_equals_rate_sum(self, profile1):
        s = at(profile1, 1.0)
        eig = hessian_r2(s)
        want = 2 * s.r * (s.db / s.b + s.dc / s.c)
        assert min_trace_over_kplanes(eig, 2) == pytest.approx(want, rel=1e-12)


class TestSplitMix64:
    def test_reference_outputs(self):
        # word i is SplitMix64's output i from the state key, and a seed
        # below 2^64 keys the stream with the first output from that seed:
        # the reference outputs from state 0
        reference = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                     0x06C45D188009454F]
        stream = SplitMix64(0)
        assert stream.key == reference[0]
        stream.key = 0
        assert stream.words(0, 3).tolist() == reference
        assert stream.words(1, 2).tolist() == reference[1:]

    def test_blockwise_draw_is_one_shot(self):
        stream = SplitMix64(3)
        for width in (4, 6):
            whole = stream.unit_points(np.empty((10_001, width)))
            cuts = [0, 1, 3, 2048, 2051, 6000, 10_001]
            parts = [stream.unit_points(np.empty((b - a, width)), a)
                     for a, b in zip(cuts, cuts[1:])]
            assert np.concatenate(parts).tobytes() == whole.tobytes()
            # as the minimizer draws: into one (block, width) buffer, tail
            # included
            block = np.empty((2048, width))
            rows = [stream.unit_points(block[:n], lo).copy()
                    for lo, n in ((0, 2048), (2048, 2048), (4096, 3))]
            assert np.vstack(rows).tobytes() == whole[:4099].tobytes()
        assert (stream.uniform(5).tolist()
                == ((stream.words(0, 5) >> 11) * 2.0 ** -53).tolist())

    def test_points_from_their_words(self):
        # trial i of a line is Shoemake's point of S^3 from words 3i .. 3i+2,
        # of a 2-plane two of Archimedes' points of S^2 from words 4i .. 4i+3
        stream = SplitMix64(5)
        for i in (0, 1, 777):
            w0, w1, w2 = (stream.words(3 * i, 3) >> 11) * 2.0 ** -53
            want = [math.sqrt(1 - w0) * math.cos(2 * math.pi * w1),
                    math.sqrt(1 - w0) * math.sin(2 * math.pi * w1),
                    math.sqrt(w0) * math.cos(2 * math.pi * w2),
                    math.sqrt(w0) * math.sin(2 * math.pi * w2)]
            got = stream.unit_points(np.empty((1, 4)), i)[0]
            assert np.abs(got - want).max() <= 1e-15
            want = []
            for z, phi in ((stream.words(4 * i, 4) >> 11) * 2.0 ** -53
                           ).reshape(2, 2):
                z, phi = 2 * z - 1, 2 * math.pi * phi
                want += [math.sqrt(1 - z * z) * math.cos(phi),
                         math.sqrt(1 - z * z) * math.sin(phi), z]
            got = stream.unit_points(np.empty((1, 6)), i)[0]
            assert np.abs(got - want).max() <= 1e-15

    def test_seeds_give_unrelated_streams(self):
        one, two = (SplitMix64(7).unit_points(np.empty((1000, 6)))
                    for _ in range(2))
        assert one.tobytes() == two.tobytes()
        # the oracle's seeds s, s + 1000 and s + 2000 share no word, so no
        # stream is a shifted copy of another
        words = [set(SplitMix64(s).words(0, 10_000).tolist())
                 for s in (7, 1007, 2007)]
        assert all(not a & b for a, b in combinations(words, 2))

    def test_seed_range(self, profile1):
        d = hessian_r2_diagonal(at(profile1, 1.0))
        exact = min_trace_over_kplanes(np.sort(d), 2)
        assert SplitMix64(2 ** 64 + 5).key != SplitMix64(5).key
        for seed in (0, 2 ** 64 + 5):
            (got,) = brute_force_plane_min(d[:, None], 2, trials=1000,
                                           seed=seed)
            assert exact - 1e-8 <= got <= exact + 1e-3
        with pytest.raises(ValueError, match=">= 0"):
            SplitMix64(-1)

    def test_draws_are_uniform(self):
        # on S^2, z is uniform on [-1, 1] (Archimedes); on S^3, x0^2 + x1^2
        # is uniform on [0, 1]; and on both each circle's angle is uniform
        stats = pytest.importorskip("scipy.stats")
        planes = SplitMix64(1).unit_points(np.empty((10_000, 6)))
        lines = SplitMix64(3).unit_points(np.empty((20_000, 4)))
        assert stats.kstest(planes[:, 2::3].ravel(), "uniform",
                            args=(-1, 2)).pvalue > 1e-3
        assert stats.kstest(lines[:, 0] ** 2 + lines[:, 1] ** 2,
                            "uniform").pvalue > 1e-3
        for x, y in (planes[:, :2].T, planes[:, 3:5].T, lines[:, :2].T,
                     lines[:, 2:].T):
            assert stats.kstest(np.arctan2(y, x), "uniform",
                                args=(-math.pi, 2 * math.pi)).pvalue > 1e-3
        assert stats.kstest(SplitMix64(2).uniform(20_000),
                            "uniform").pvalue > 1e-3


class TestBruteForce:
    def test_matches_exact_minimum(self, profile1):
        s = at(profile1, 1.0)
        eig = hessian_r2(s)
        d = hessian_r2_diagonal(s)[:, None]
        for k in (1, 2, 3):
            exact = min_trace_over_kplanes(eig, k)
            (got,) = _kplane_min(d, k, trials=20_000, seed=42)
            assert abs(got - exact) <= 1e-3
            assert got >= exact - 1e-8

    def test_k_other_than_1_or_2_rejected(self, profile1):
        # a 3-plane is scored through its normal line by the caller, and
        # every 4-plane is the whole space: min_trace_over_kplanes gives tr d
        d = hessian_r2_diagonal(at(profile1, 3.0))[:, None]
        for k in (0, 3, 4):
            with pytest.raises(ValueError, match="1 or 2"):
                brute_force_plane_min(d, k, trials=1000, seed=0)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("polish", [True, False])
    def test_k3_is_tr_d_plus_line_minimum_of_minus_d(self, profile1, grid1,
                                                     monkeypatch, polish,
                                                     cpus):
        # the k-plane oracle makes two calls, whatever the CPU count: one
        # line call on the 20 columns d and -d from seed + 1000 and one
        # 2-plane call on d from seed + 2000.  Its k = 3 minima are bitwise
        # tr d plus the line minima of -d: with k = 1 and k = 2 answered
        # exactly by the spy, the worst error is theirs alone, polished or
        # sampled
        force_cpus(monkeypatch, cpus)
        minimize = (brute_force_plane_min if polish else
                    functools.partial(_sampled, monkeypatch,
                                      brute_force_plane_min))
        calls, lines = [], []

        def spy(d, k, trials, seed):
            calls.append((d.shape, k, seed))
            if k == 2:
                return min_trace_over_kplanes(np.sort(d, axis=0), 2)
            got = minimize(d, 1, trials=1000, seed=seed)
            lines.append(got)
            # the exact line minima of d, then the sampled ones of -d
            return np.r_[np.min(d[:, :10], axis=0), got[10:]]
        monkeypatch.setattr(verify, "brute_force_plane_min", spy)
        result = verify.check_kplane_oracle(profile1, grid1, 7)
        assert calls == [((4, 20), 1, 1007), ((4, 10), 2, 2007)]
        radii = 0.2 + (20.0 - 0.2) * SplitMix64(7).uniform(10)
        d = hessian_r2_diagonal(profile1.eval(radii))
        alone = minimize(-d, 1, trials=1000, seed=1007)
        assert lines[0][10:].tobytes() == alone.tobytes()
        errs = (np.sum(d, axis=0) + alone
                - min_trace_over_kplanes(hessian_r2(profile1.eval(radii)), 3))
        assert result["worst"] == np.max(np.abs(errs))

    def test_pure_sampling_converges_from_above(self, profile1, monkeypatch):
        s = at(profile1, 1.0)
        exact = min_trace_over_kplanes(hessian_r2(s), 2)
        d = hessian_r2_diagonal(s)[:, None]
        excesses = [
            _sampled(monkeypatch, brute_force_plane_min, d, 2, trials=n,
                     seed=9)[0] - exact
            for n in (1_000, 10_000, 100_000)]
        assert all(e >= -1e-8 for e in excesses)
        assert excesses[2] < excesses[0]

    def test_deterministic_given_seed(self, profile1):
        d = hessian_r2_diagonal(at(profile1, 2.0))[:, None]
        one = brute_force_plane_min(d, 2, trials=5_000, seed=123)
        two = brute_force_plane_min(d, 2, trials=5_000, seed=123)
        assert one.tobytes() == two.tobytes()

    def test_validation(self, profile1):
        d = hessian_r2_diagonal(at(profile1, 1.0))[:, None]
        with pytest.raises(ValueError):
            brute_force_plane_min(d, 2, trials=10, seed=0)
        with pytest.raises(ValueError):
            brute_force_plane_min(d, 2, trials=200_001, seed=0)
        # the trial count has one home, verify's `kplane_trials`
        with pytest.raises(TypeError):
            brute_force_plane_min(d, 2, seed=0)
        # at r = 0 the co-frame rates are 0/0
        with np.errstate(invalid="ignore"):
            d0 = hessian_r2_diagonal(profile1.eval([0.0]))
        assert np.isnan(d0).any()
        with pytest.raises(ValueError):
            brute_force_plane_min(d0, 2, trials=1000, seed=0)
        with pytest.raises(ValueError):
            brute_force_plane_min(d[:3], 2, trials=1000, seed=0)

    def test_batch_matches_single_radius_calls(self, profile1, monkeypatch):
        # every column of a (4, n) diagonal scores the call's one stream and
        # is polished together with the others, bitwise as n one-radius
        # calls at the same seed, and so is its best sampled trace
        d = hessian_r2_diagonal(profile1.eval([0.5, 1.0, 3.0, 7.0]))
        sampled = functools.partial(_sampled, monkeypatch,
                                    brute_force_plane_min)
        for k, minimize in product((1, 2), (brute_force_plane_min, sampled)):
            # lines score the columns d and -d at once, as the oracle's do
            cols = np.hstack([d, -d]) if k == 1 else d
            batch = minimize(cols, k, trials=5_000, seed=10 * k)
            assert batch.shape == (len(cols.T),)
            single = [minimize(c[:, None], k, trials=5_000, seed=10 * k)
                      for c in cols.T]
            assert np.array_equal(batch, np.concatenate(single))

    def test_batch_validation(self, profile1):
        with np.errstate(invalid="ignore"):
            d = hessian_r2_diagonal(profile1.eval([1.0, 0.0, 2.0]))
        assert np.isnan(d[:, 1]).any()
        with pytest.raises(ValueError):
            brute_force_plane_min(d, 2, trials=1000, seed=0)
        d = np.delete(d, 1, axis=1)
        # one radius is a (4, 1) stack, never a bare (4,) diagonal
        for bad in (d[:3], d[:, :, None], d[:, 0]):
            with pytest.raises(ValueError, match=r"shape \(4, n\)"):
                brute_force_plane_min(bad, 2, trials=1000, seed=0)

    def test_oracle_calls_once_per_k(self, profile1, grid1, monkeypatch):
        # the k-plane oracle hands all ten radii to one call per sampled k:
        # the lines of d and -d (k = 1, and k = 3 through its normal line)
        # share one stream from seed + 1000, the 2-planes draw theirs from
        # seed + 2000, and a spy on the module's own binding sees no third
        calls = []

        def spy(d, k, trials, seed):
            calls.append((d.shape, k, seed))
            return brute_force_plane_min(d, k, trials=1000, seed=seed)
        monkeypatch.setattr(verify, "brute_force_plane_min", spy)
        monkeypatch.setattr(convexity, "brute_force_plane_min", spy)
        verify.check_kplane_oracle(profile1, grid1, 7)
        assert calls == [((4, 20), 1, 1007), ((4, 10), 2, 2007)]


def _kplane_min(d, k, **kwargs):
    """Minima over k-planes, k in 1..3, as the k-plane oracle takes them:
    a 3-plane through its normal line, as tr d plus the line minimum of
    -d."""
    if k == 3:
        return np.sum(d, axis=0) + brute_force_plane_min(-d, 1, **kwargs)
    return brute_force_plane_min(d, k, **kwargs)


def _sampled(monkeypatch, fn, *args, **kwargs):
    """fn(*args, **kwargs) with `_polish` stubbed to +inf, so that each
    minimizer call keeps its columns' best sampled traces: the sampling
    alone, without the polish that every call applies."""
    with monkeypatch.context() as m:
        m.setattr(convexity, "_polish",
                  lambda draws, d: np.full(len(d), np.inf))
        return fn(*args, **kwargs)


def _qr_traces(frames, d):
    """Reference traces: orthonormalize by LAPACK QR, then sum d_i over the
    squared entries of each frame."""
    q, _ = np.linalg.qr(frames)
    return np.einsum("i,tij,tij->t", d, q, q)


def _det(rows):
    """Determinant of a square list of exact rows, by cofactors."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)))


def _exact_trace(frame, d):
    """tr(P_L diag(d)) for the span of one float frame, in exact rational
    arithmetic from its k x k minors (Cauchy-Binet)."""
    g = [[Fraction(x) for x in row] for row in frame.tolist()]
    k = len(g[0])
    num = den = Fraction(0)
    for rows in combinations(range(4), k):
        p2 = _det([g[i] for i in rows]) ** 2
        num += sum(Fraction(d[i]) for i in rows) * p2
        den += p2
    return num / den


def _draws(seed, trials, k, d):
    """The draws that `_kplane_min` makes from `seed`, with the (4, n)
    diagonals that score them and the offset added to their traces: lines
    are points of S^3 (3 words per trial), 2-planes points of S^2 x S^2 (4
    words per trial), and at k = 3 the normal lines are scored with -d and
    offset by tr d."""
    offset = 0.0
    if k == 3:
        offset, d, k = np.sum(d, axis=0), -d, 1
    width = 6 if k == 2 else 4
    draws = SplitMix64(seed).unit_points(np.empty((trials, width)))
    return draws, d, offset


def _score(draws, cols, out):
    """`_plane_traces` of a stack of line or 2-plane draws for the
    diagonals cols[j] of an (n, 4) stack, with the weights the minimizer
    takes."""
    if draws.shape[1] == 4:
        return _plane_traces(draws, cols, None, out)
    return _plane_traces(draws, *_plane_weights(cols), out)


def _traces(draws, d):
    """`_plane_traces` of a stack of draws for one diagonal d."""
    return _score(draws, d[None], np.empty((1, len(draws))))[0]


def _frames(draws):
    """(t, 4, k) frames of a stack of line or 2-plane draws.  A 2-plane's
    Pluecker vector is the antisymmetric W with P_L = -W^2 (u and v on the
    bases of `_plane_traces`); column a of W and of W^2 span the plane at
    the a where (P_L)_aa is largest, at least 1/2."""
    if draws.shape[1] == 4:
        return draws[:, :, None]
    u = draws[:, :3] / np.linalg.norm(draws[:, :3], axis=1)[:, None]
    v = draws[:, 3:] / np.linalg.norm(draws[:, 3:], axis=1)[:, None]
    w = np.zeros((len(draws), 4, 4))
    for (i, j), x in (((0, 1), u[:, 0] + v[:, 0]),
                      ((0, 2), u[:, 1] + v[:, 1]),
                      ((0, 3), u[:, 2] + v[:, 2]),
                      ((2, 3), u[:, 0] - v[:, 0]),
                      ((1, 3), v[:, 1] - u[:, 1]),
                      ((1, 2), u[:, 2] - v[:, 2])):
        w[:, i, j], w[:, j, i] = x / 2, -x / 2
    w2 = w @ w
    t, a = np.arange(len(w)), np.argmin(np.einsum("tii->ti", w2), axis=1)
    return np.stack([w[t, :, a], w2[t, :, a]], axis=2)


class TestPlaneTraces:
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_gram_schmidt(self, profile1, k):
        # the elementwise kernels give the traces of the QR-orthonormalized
        # frames for every diagonal, each bitwise as with that diagonal
        # alone, and leave the draws as they were
        draws, d, _ = _draws(300 + k, 20_000, k,
                             hessian_r2_diagonal(profile1.eval([0.5, 3.0])))
        before = draws.copy()
        out = np.empty((2, len(draws)))
        assert _score(draws, d.T, out) is out
        for c, tr in zip(d.T, out):
            assert np.abs(tr - _qr_traces(_frames(draws), c)).max() <= 1e-13
            assert np.array_equal(tr, _traces(draws, c))
        assert np.array_equal(draws, before)

    def test_plane_draws_are_haar(self, profile1):
        # points of S^2 x S^2 from the package's stream give the trace law
        # of Gaussian 4x2 frames drawn by numpy
        stats = pytest.importorskip("scipy.stats")
        d = hessian_r2_diagonal(at(profile1, 1.0))
        draws = SplitMix64(11).unit_points(np.empty((20_000, 6)))
        frames = np.random.default_rng(12).standard_normal((20_000, 4, 2))
        got = _traces(draws, d)
        assert stats.ks_2samp(got, _qr_traces(frames, d)).pvalue > 1e-3

    def test_plane_traces_exact(self, profile1):
        # against exact rational traces of the frames' spans built from W
        d = hessian_r2_diagonal(at(profile1, 1.0))
        draws = SplitMix64(13).unit_points(np.empty((64, 6)))
        exact = [float(_exact_trace(g, d)) for g in _frames(draws)]
        got = _traces(draws, d)
        assert np.abs(got - exact).max() <= 1e-14

    @pytest.mark.parametrize("k, width", [(1, 4), (2, 6), (3, 4)])
    def test_draws_per_trial(self, profile1, monkeypatch, k, width):
        # one stream serves all ten radii, read once and in order: a line
        # (width 4, a point of S^3) takes 3 words per trial, a 2-plane
        # (width 6, a point of S^2 x S^2) 4, a 3-plane's normal line 3
        generators = []

        class Counting(SplitMix64):
            def __init__(self, seed):
                super().__init__(seed)
                self.drawn = 0
                generators.append(self)

            def words(self, start, n):
                assert start == self.drawn
                self.drawn += n
                return super().words(start, n)
        monkeypatch.setattr(convexity, "SplitMix64", Counting)
        d = hessian_r2_diagonal(profile1.eval(np.linspace(0.5, 19.0, 10)))
        _kplane_min(d, k, trials=20_000, seed=k)
        words = 3 if width == 4 else 4
        assert [g.drawn for g in generators] == [words * 20_000]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_unpolished_minima_match_gram_schmidt(self, profile1,
                                                  monkeypatch, k):
        d = hessian_r2_diagonal(profile1.eval([0.5, 2.0, 9.0]))
        got = _sampled(monkeypatch, _kplane_min, d, k, trials=5_000,
                       seed=50 * k)
        draws, c, offset = _draws(50 * k, 5_000, k, d)
        want = offset + np.array([_qr_traces(_frames(draws), ci).min()
                                  for ci in c.T])
        assert np.abs(got - want).max() <= 1e-13

    def test_three_plane_trace_through_normal(self, profile1):
        # exactly: a 4x3 frame spans the 3-plane with normal n, its
        # generalized cross product, and tr(P_L D) = tr d - n^T D n / n^T n
        frames = np.random.default_rng(5).standard_normal((16, 4, 3))
        d = hessian_r2_diagonal(at(profile1, 1.0))
        dq = [Fraction(x) for x in d]
        for g in frames:
            rows = [[Fraction(x) for x in row] for row in g.tolist()]
            n = [(-1) ** l * _det(rows[:l] + rows[l + 1:]) for l in range(4)]
            assert all(sum(n[i] * rows[i][j] for i in range(4)) == 0
                       for j in range(3))
            nn = sum(x * x for x in n)
            ndn = sum(di * x * x for di, x in zip(dq, n))
            assert _exact_trace(g, d) == sum(dq) - ndn / nn

    @pytest.mark.parametrize("polish", [True, False])
    def test_only_polish_frames_orthonormalized(self, profile1, monkeypatch,
                                                polish):
        # nothing is orthonormalized, and only the best draw per radius is
        # refined: `_polish` sees them once, as (3, 4) unit normal-line
        # draws (the stub of `_sampled` stands in for it when False); each
        # trace call scores one draw block for every radius, so no scoring
        # temporary exceeds the block, and every block reuses one draw
        # buffer and one trace array, with the polish or without
        seen, sizes, buffers = [], [], set()
        polish_draws = convexity._polish
        traces = convexity._plane_traces

        def spy_polish(draws, d):
            seen.append(draws.shape)
            return polish_draws(draws, d)

        def spy_traces(draws, weights, shifts, out):
            sizes.append(len(draws))
            assert out.shape == (3, len(draws))
            buffers.add((draws.ctypes.data, out.ctypes.data))
            return traces(draws, weights, shifts, out)
        monkeypatch.setattr(convexity, "_polish", spy_polish)
        monkeypatch.setattr(convexity, "_plane_traces", spy_traces)
        d = hessian_r2_diagonal(profile1.eval([0.5, 2.0, 9.0]))
        minimize = (_kplane_min if polish else
                    functools.partial(_sampled, monkeypatch, _kplane_min))
        minimize(d, 3, trials=40_000, seed=1)
        assert seen == ([(3, 4)] if polish else [])
        assert sum(sizes) == 40_000
        assert max(sizes) <= convexity._BLOCK
        assert len(buffers) == 1


    @pytest.mark.parametrize("k", [1, 2])
    def test_polish_gets_each_columns_best_draw(self, profile1, monkeypatch,
                                                k):
        # the polish starts from each column's single best draw of the
        # whole stream, bitwise, and the earliest one where draws tie: on
        # the zero diagonal every draw scores 0, so that column keeps draw 0
        seen = []
        polish_draws = convexity._polish

        def spy_polish(draws, d):
            seen.append(draws.copy())
            return polish_draws(draws, d)
        monkeypatch.setattr(convexity, "_polish", spy_polish)
        d = hessian_r2_diagonal(profile1.eval([0.5, 2.0, 9.0, 15.0]))
        zero = np.zeros((4, 1))
        cols = np.hstack([d, -d, zero] if k == 1 else [d, zero])
        brute_force_plane_min(cols, k, trials=50_000, seed=3)
        draws, _, _ = _draws(3, 50_000, k, cols)
        traces = _score(draws, cols.T, np.empty((len(cols.T), 50_000)))
        (got,) = seen
        assert not traces[-1].any()
        assert got.tobytes() == draws[np.argmin(traces, axis=1)].tobytes()
        assert got[-1].tobytes() == draws[0].tobytes()


class TestSamplingThreads:
    # the sampler reads no CPU count and draws in blocks; no minimum, the
    # polished one or the best sampled trace, may depend on either
    @pytest.mark.parametrize("trials", [5_000, 16_390, 100_000])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_minima_independent_of_workers(self, profile1, monkeypatch, k,
                                           trials):
        # 16 390 frames end in a partial block of 6, 100 000 in one of
        # 1 696
        d = hessian_r2_diagonal(profile1.eval([0.5, 2.0, 9.0]))
        got = {}
        for cpus in (1, 2):
            force_cpus(monkeypatch, cpus)
            got[cpus, True] = _kplane_min(d, k, trials=trials, seed=70 * k)
            got[cpus, False] = _sampled(monkeypatch, _kplane_min, d, k,
                                        trials=trials, seed=70 * k)
        for polish in (True, False):
            assert np.array_equal(got[1, polish], got[2, polish])
        # bitwise the traces of one full-length stream, read by every radius
        draws, c, offset = _draws(70 * k, trials, k, d)
        want = offset + _score(draws, c.T, np.empty((3, trials))).min(axis=1)
        assert np.array_equal(got[1, False], want)


class TestPolish:
    def test_splits_near_degenerate_eigenvalues(self):
        # the k = 2 spectrum at r = 2.694 m, where the 2nd and 3rd
        # eigenvalues lie 0.0055 apart: from the plane e0 ^ (e1 + e2)/sqrt(2),
        # (u, v) = (h, h, 0, h, h, 0), which mixes their directions at 45
        # degrees, the polish reaches the Ky Fan sum to rounding
        d = np.array([[-0.137, 1.592, 1.5975, 2.0]])
        h = math.sqrt(0.5)
        draw = np.array([[h, h, 0.0, h, h, 0.0]])
        excess = convexity._polish(draw, d)[0] - (-0.137 + 1.592)
        assert abs(excess) <= 1e-15

    @pytest.mark.parametrize("k", [1, 2])
    def test_closed_form_takes_the_steps(self, monkeypatch, k):
        # at 7 steps, the closed form is the descent taken step by step:
        # power steps on diag(d_max - d) for a line, and for a plane exact
        # minimizations over u, then v, then a last one over u
        monkeypatch.setattr(convexity, "_STEPS", 7)
        d = np.random.default_rng(60 + k).standard_normal((200, 4))
        draws = SplitMix64(60 + k).unit_points(
            np.empty((200, convexity._WIDTH[k])))
        want = []
        for x, c in zip(draws, d):
            if k == 1:
                for _ in range(7):
                    x = (c.max() - c) * x
                    x /= np.linalg.norm(x)
                want.append(np.sum(c * x * x))
                continue
            (h,), (half,) = _plane_weights(c[None])
            v = x[3:]
            for _ in range(7):
                u = -h * v / np.linalg.norm(h * v)
                v = -h * u / np.linalg.norm(h * u)
            u = -h * v / np.linalg.norm(h * v)
            want.append(half + np.sum(h * u * v))
        got = convexity._polish(draws, d)
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("k", [1, 2])
    def test_never_above_the_draws_own_trace(self, k):
        # every polish step lowers the trace, so no polished trace exceeds
        # that of the draw it starts from, on random spectra
        d = np.random.default_rng(50 + k).standard_normal((2_000, 4))
        draws = SplitMix64(50 + k).unit_points(
            np.empty((2_000, convexity._WIDTH[k])))
        own = np.array([_traces(x[None], c)[0] for x, c in zip(draws, d)])
        assert np.all(convexity._polish(draws, d) <= own)

    @pytest.mark.parametrize("k", [1, 2])
    def test_never_undercuts_ky_fan(self, k):
        # from random starts on random spectra, every polished trace is that
        # of a genuine subspace: none undercuts the Ky Fan sum
        d = np.random.default_rng(40 + k).standard_normal((2_000, 4))
        draws = SplitMix64(40 + k).unit_points(
            np.empty((2_000, convexity._WIDTH[k])))
        got = convexity._polish(draws, d)
        exact = min_trace_over_kplanes(np.sort(d, axis=1).T, k)
        assert np.min(got - exact) >= -1e-12


class TestOracle:
    def test_trace_buffers_stay_small(self, profile1, grid1, monkeypatch):
        # each minimizer call of the oracle scores its 100 000 trials in
        # blocks whose (columns, block) trace array holds at most 40 960
        # cells (320 KB), and reuses one draw buffer and one trace array
        sizes, buffers = {}, {}
        traces = convexity._plane_traces

        def spy(draws, weights, shifts, out):
            assert out.size <= 40_960
            sizes[len(out)] = sizes.get(len(out), 0) + len(draws)
            buffers.setdefault(len(out), set()).add(
                (draws.ctypes.data, out.ctypes.data))
            return traces(draws, weights, shifts, out)
        monkeypatch.setattr(convexity, "_plane_traces", spy)
        result = verify.check_kplane_oracle(profile1, grid1, 7)
        assert result["status"] == "pass"
        assert sizes == {20: 100_000, 10: 100_000}
        assert {n: len(b) for n, b in buffers.items()} == {20: 1, 10: 1}

    @pytest.mark.parametrize("seed", [212, 233, 149])
    def test_hard_seeds(self, profile1, grid1, monkeypatch, seed):
        # 212 and 233 are the two worst seeds of 0-499 (1.25e-5 and
        # 1.22e-5), where the polish must split the near-equal 2nd and 3rd
        # eigenvalues.  149 is the one whose best draws are worst (2.25e-2):
        # the sampling alone fails the 1e-3 budget there, and the polish
        # carries the check
        result = verify.check_kplane_oracle(profile1, grid1, seed)
        assert result["status"] == "pass"
        assert result["worst"] <= 5e-5
        if seed == 149:
            sampled = _sampled(monkeypatch, verify.check_kplane_oracle,
                               profile1, grid1, seed)
            assert sampled["status"] == "fail"
            assert sampled["worst"] > result["budget"] == 1e-3

    @pytest.mark.slow
    def test_every_seed(self, profile1, grid1):
        # the sweep the hard seeds come from: every seed 0-499 passes within
        # 5e-5, a twentieth of the 1e-3 budget
        worst = {}
        for seed in range(500):
            result = verify.check_kplane_oracle(profile1, grid1, seed)
            assert result["status"] == "pass", seed
            worst[seed] = result["worst"]
        assert max(worst.values()) <= 5e-5
        assert sorted(worst, key=worst.get)[-2:] == [233, 212]


def test_no_lapack_qr_in_package():
    # the package orthonormalizes nothing: subspaces are drawn, scored and
    # polished as points of S^3 and S^2 x S^2
    src = Path(ahgeom.__file__).parent
    for path in sorted(src.glob("*.py")):
        assert not re.search(r"\bqr\b", path.read_text()), path.name


def test_no_scalar_profile_reads_in_package_or_scripts():
    # one read path: the package and its scripts evaluate the profile with
    # MetricProfile.eval over arrays of radii, never one radius at a time
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    for folder in (Path(ahgeom.__file__).parent, scripts):
        paths = sorted(folder.glob("*.py"))
        assert paths, folder
        for path in paths:
            assert ".at(" not in path.read_text(), path.name


class TestSignReport:
    def test_signs_and_crossing(self, profile1, grid1):
        max_dda, max_ddb, changes, crossing = second_derivative_signs(
            profile1, grid1)
        assert max_dda < 0
        assert max_ddb < 0
        assert changes == 1
        assert crossing == pytest.approx(C_CROSSING_M1, abs=1e-7)

    def test_c_positive_near_zero(self, profile1):
        # c''(0) = 3/(4m) > 0
        assert at(profile1, 0.0).ddc == 0.75
        assert at(profile1, 1e-3).ddc > 0

    def test_crossing_scales_with_m(self, profile2):
        _, _, changes, crossing = second_derivative_signs(
            profile2, profile2.grid(1000))
        assert changes == 1
        assert crossing == pytest.approx(2 * C_CROSSING_M1, rel=1e-9)

    def test_no_bracket_reported(self, profile1):
        # a grid that stays below the crossing has no bracketed sign change
        _, _, changes, crossing = second_derivative_signs(
            profile1, [0.5, 1.0, 1.5])
        assert changes == 0
        assert crossing is None

    @pytest.mark.parametrize("r_max", [1800.0, 1e4])
    def test_crossing_below_first_grid_radius(self, r_max):
        # at 1000 points the grid starts at r_max/1000 > 1.7176 m, past the
        # crossing: c'' is bracketed from r = 0, where it is 3/(4m) > 0
        profile = integrate(ModelParams(m=1.0, r_max=r_max, tol=1e-10))
        grid = profile.grid(1000)
        assert grid[0] > C_CROSSING_M1
        max_dda, max_ddb, changes, crossing = second_derivative_signs(
            profile, grid)
        assert max_dda < 0 and max_ddb < 0
        assert changes == 1
        assert crossing == pytest.approx(C_CROSSING_M1, abs=1e-7)
        result = verify.check_second_derivative_signs(profile, grid, 0)
        assert result["status"] == "pass", result["note"]
