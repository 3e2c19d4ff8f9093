"""Convexity machinery: Hessian spectrum, derivative chain, k-plane minima."""
import math
import re
from pathlib import Path

import numpy as np
import pytest

import ahgeom
from ahgeom import verify
from ahgeom.config import RunConfig
from ahgeom.convexity import (_orthonormalize, brute_force_plane_min,
                              chain_margins, hessian_r2, hessian_r2_diagonal,
                              min_trace_over_kplanes, second_derivative_signs)

C_CROSSING_M1 = 1.7175933153182266  # frozen; stable under tol 1e-10 -> 1e-12


class TestHessianSpectrum:
    def test_structure(self, profile1):
        eig = hessian_r2(profile1.at(1.0))
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
            one = hessian_r2(profile1.at(r))
            assert eig[:, i].tolist() == one.tolist()
            assert one.tolist() == sorted(hessian_r2_diagonal(profile1.at(r)))
        # bitwise: a batch diagonal is the stacked one-radius diagonals
        stacked = np.stack([hessian_r2_diagonal(profile1.at(r)) for r in rs],
                           axis=1)
        assert diag.tobytes() == stacked.tobytes()

    def test_small_r_eigenvalues_match_series(self, profile1):
        r = 1e-3
        s = profile1.at(r)
        # 2r b'/b ~ -r + r^2 and 2r c'/c ~ r + r^2 for m = 1
        assert 2 * r * s.db / s.b == pytest.approx(-r, abs=3 * r * r)
        assert 2 * r * s.dc / s.c == pytest.approx(r, abs=3 * r * r)
        assert 2 * r * s.da / s.a == pytest.approx(2.0, abs=3 * r * r)

    def test_min2sum_positive_on_grid(self, profile1, grid1):
        for r in grid1[:: 5]:
            eig = hessian_r2(profile1.at(r))
            assert min_trace_over_kplanes(eig, 2) > 0
            assert min_trace_over_kplanes(eig, 3) > 0
            assert eig[0] < 0  # plain convexity genuinely fails

    def test_semiconvexity_rate_at_zero(self, profile1):
        # the two-plane minimum ~ 2 r^2 / m^2 from the series of (bc)'/(bc)
        for r in (1e-3, 5e-3, 1e-2):
            eig = hessian_r2(profile1.at(r))
            assert min_trace_over_kplanes(eig, 2) == pytest.approx(2 * r * r,
                                                                   rel=0.1)

    def test_zero_limit_flag(self, profile1):
        with pytest.raises(ValueError):
            hessian_r2(profile1.at(0.0))
        with pytest.raises(ValueError):
            hessian_r2(profile1.eval([0.0, 1.0]))

    def test_laplacian_positive(self, profile1, grid1):
        for r in grid1[:: 25]:
            assert min_trace_over_kplanes(hessian_r2(profile1.at(r)), 4) > 0
        # the Laplacian tends to 2 + 2 + 0 + 0 = 4 at the zero section
        lap0 = min_trace_over_kplanes(hessian_r2(profile1.at(1e-6)), 4)
        assert lap0 == pytest.approx(4.0, abs=1e-10)


class TestChainMargins:
    def test_all_positive(self, profile1, grid1):
        margins = chain_margins(profile1, grid1)
        assert all(g > 0 for g in margins)

    def test_leading_margin_near_zero(self, profile1):
        # 1 - r a'/a ~ r^2/(2 m^2), from a/a' = r + r^3/(2 m^2) + ...
        r = 0.01
        g1 = chain_margins(profile1, [r])[0]
        assert g1 == pytest.approx(r * r / 2, rel=0.3)

    def test_gap_form_matches_direct_form(self, profile1):
        # the cancellation-free second margin equals r a'/a - r c'/c where
        # the plain difference is still representable
        for r in (0.5, 1.0, 3.0, 6.0):
            s = profile1.at(r)
            direct = r * s.da / s.a - r * s.dc / s.c
            g2 = chain_margins(profile1, [r])[1]
            assert g2 == pytest.approx(direct, rel=1e-6)

    def test_negative_control_swapped_roles(self, profile1):
        # swapping the roles of b and c in the third gap makes it negative
        s = profile1.at(1.0)
        r = s.r
        swapped = r * s.db / s.b + r * s.dc / s.c  # genuine margin, positive
        wrong = r * s.db / s.c + r * s.dc / s.b    # roles interchanged
        assert swapped > 0 > wrong


class TestKPlaneMin:
    def test_k4_is_trace(self, profile1):
        eig = hessian_r2(profile1.at(2.0))
        assert min_trace_over_kplanes(eig, 4) == pytest.approx(math.fsum(eig),
                                                               rel=1e-15)

    def test_k_validation(self, profile1):
        eig = hessian_r2(profile1.at(2.0))
        with pytest.raises(ValueError):
            min_trace_over_kplanes(eig, 0)
        with pytest.raises(ValueError):
            min_trace_over_kplanes(eig, 5)

    def test_k2_equals_rate_sum(self, profile1):
        s = profile1.at(1.0)
        eig = hessian_r2(s)
        want = 2 * s.r * (s.db / s.b + s.dc / s.c)
        assert min_trace_over_kplanes(eig, 2) == pytest.approx(want, rel=1e-12)


class TestBruteForce:
    def test_matches_exact_minimum(self, profile1):
        s = profile1.at(1.0)
        eig = hessian_r2(s)
        d = hessian_r2_diagonal(s)
        for k in (1, 2, 3):
            exact = min_trace_over_kplanes(eig, k)
            got = brute_force_plane_min(d, k, trials=20_000, seed=42)
            assert abs(got - exact) <= 1e-3
            assert got >= exact - 1e-8

    def test_k4_plane_independent(self, profile1):
        s = profile1.at(3.0)
        eig = hessian_r2(s)
        got = brute_force_plane_min(hessian_r2_diagonal(s), 4, trials=1000,
                                    seed=0, polish=False)
        assert got == pytest.approx(math.fsum(eig), rel=1e-12)

    def test_pure_sampling_converges_from_above(self, profile1):
        s = profile1.at(1.0)
        exact = min_trace_over_kplanes(hessian_r2(s), 2)
        d = hessian_r2_diagonal(s)
        excesses = [
            brute_force_plane_min(d, 2, trials=n, seed=9, polish=False) - exact
            for n in (1_000, 10_000, 100_000)]
        assert all(e >= -1e-8 for e in excesses)
        assert excesses[2] < excesses[0]

    def test_deterministic_given_seed(self, profile1):
        d = hessian_r2_diagonal(profile1.at(2.0))
        one = brute_force_plane_min(d, 2, trials=5_000, seed=123)
        two = brute_force_plane_min(d, 2, trials=5_000, seed=123)
        assert one == two

    def test_validation(self, profile1):
        d = hessian_r2_diagonal(profile1.at(1.0))
        with pytest.raises(ValueError):
            brute_force_plane_min(d, 2, trials=10)
        with pytest.raises(ValueError):
            brute_force_plane_min(d, 2, trials=200_001)
        # at r = 0 the co-frame rates are 0/0
        with np.errstate(invalid="ignore"):
            d0 = hessian_r2_diagonal(profile1.eval([0.0]))[:, 0]
        assert np.isnan(d0).any()
        with pytest.raises(ValueError):
            brute_force_plane_min(d0, 2)
        with pytest.raises(ValueError):
            brute_force_plane_min(d[:3], 2)

    def test_batch_matches_single_radius_calls(self, profile1):
        # column i of a (4, n) diagonal draws from seed + i and is polished
        # together with the others, bitwise as n one-radius calls
        d = hessian_r2_diagonal(profile1.eval([0.5, 1.0, 3.0, 7.0]))
        for k in (1, 2, 3):
            batch = brute_force_plane_min(d, k, trials=5_000, seed=10 * k)
            assert batch.shape == (4,)
            single = [brute_force_plane_min(d[:, i], k, trials=5_000,
                                            seed=10 * k + i)
                      for i in range(4)]
            assert np.array_equal(batch, single)

    def test_one_radius_returns_float(self, profile1):
        d = hessian_r2_diagonal(profile1.eval([1.0]))
        got = brute_force_plane_min(d[:, 0], 2, trials=1000, seed=0)
        assert type(got) is float
        assert brute_force_plane_min(d, 2, trials=1000, seed=0).tolist() == [got]

    def test_batch_validation(self, profile1):
        with np.errstate(invalid="ignore"):
            d = hessian_r2_diagonal(profile1.eval([1.0, 0.0, 2.0]))
        assert np.isnan(d[:, 1]).any()
        with pytest.raises(ValueError):
            brute_force_plane_min(d, 2)
        d = np.delete(d, 1, axis=1)
        for bad in (d[:3], d[:, :, None]):
            with pytest.raises(ValueError):
                brute_force_plane_min(bad, 2)

    def test_oracle_calls_once_per_k(self, profile1, monkeypatch):
        # the k-plane oracle hands all ten radii to one call per k, with
        # per-radius seeds seed + 1000*k + i
        calls = []

        def spy(d, k, trials, seed):
            calls.append((d.shape, k, seed))
            return brute_force_plane_min(d, k, trials=1000, seed=seed)
        monkeypatch.setattr(verify, "brute_force_plane_min", spy)
        ctx = verify.VerifyContext(config=RunConfig(seed=7), profile=profile1)
        verify.check_kplane_oracle(ctx)
        assert calls == [((4, 10), k, 7 + 1000 * k) for k in (1, 2, 3)]


class TestOrthonormalize:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_lapack_qr(self, profile1, k):
        # the same subspaces as QR from the same Gaussian frames, hence the
        # same traces; orthonormal to rounding even for ill-conditioned 4x4
        frames = np.random.default_rng(100 + k).standard_normal((10_000, 4, k))
        ref, _ = np.linalg.qr(frames)
        q = _orthonormalize(frames.copy())
        gram = np.einsum("tij,tik->tjk", q, q) - np.eye(k)
        assert np.linalg.norm(gram, axis=(1, 2)).max() <= 1e-14
        proj = np.einsum("tij,tkj->tik", q, q)
        proj_ref = np.einsum("tij,tkj->tik", ref, ref)
        assert np.abs(proj - proj_ref).max() <= 1e-13
        d = hessian_r2_diagonal(profile1.at(1.0))
        tr = np.einsum("i,tij->t", d, q ** 2)
        tr_ref = np.einsum("i,tij->t", d, ref ** 2)
        assert np.abs(tr - tr_ref).max() <= 1e-13

    def test_no_lapack_qr_in_package(self):
        # one orthonormalization path: the Gram-Schmidt above
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
        rep = second_derivative_signs(profile1, grid1)
        assert rep.a_concave and rep.max_dda < 0
        assert rep.b_concave and rep.max_ddb < 0
        assert rep.c_sign_changes == 1
        assert rep.c_crossing == pytest.approx(C_CROSSING_M1, abs=1e-7)

    def test_c_positive_near_zero(self, profile1):
        # c''(0) = 3/(4m) > 0
        assert profile1.at(0.0).ddc == 0.75
        assert profile1.at(1e-3).ddc > 0

    def test_crossing_scales_with_m(self, profile2):
        rep = second_derivative_signs(profile2, profile2.grid(1000))
        assert rep.c_sign_changes == 1
        assert rep.c_crossing == pytest.approx(2 * C_CROSSING_M1, rel=1e-9)

    def test_no_bracket_reported(self, profile1):
        # a grid that stays below the crossing has no bracketed sign change
        rep = second_derivative_signs(profile1, [0.5, 1.0, 1.5])
        assert rep.c_sign_changes == 0
        assert rep.c_crossing is None
