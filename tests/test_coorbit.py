"""Coorbit norms, coercivity, and the lifting constants machinery."""

import weakref

import mpmath
import numpy as np
import pytest
import scipy.linalg

from framelift import coorbit, matalg, verified
from framelift.coorbit import (
    IDENTITY_RTOL,
    _lifting_maps,
    coercivity_check,
    lifting_constants,
    lifting_theorem_pipeline,
    map_constants,
)
from framelift.frames import onb, random_frame
from framelift.gabor import TFLattice, gabor_system
from framelift.matalg import upper_constant
from framelift.multipliers import _coefficient_maps, _SplitCore, galerkin, multiplier
from framelift.weights import UNIT_SPEC, Weight
from tests import reference
from tests.reference import gram, invertibility_matrix


class TestCoercivity:
    def test_unit_symbol_recovers_frame_bounds(self, small_frame):
        res = coercivity_check(small_frame, np.ones(small_frame.n))
        assert res["identity_ok"]
        A, B = small_frame.bounds
        lo, hi = res["ambient_constants"]
        assert lo == pytest.approx(A, rel=1e-10)
        assert hi == pytest.approx(B, rel=1e-10)

    def test_onb_constants_are_symbol_extremes(self, rng):
        fr = onb(7)
        mu = rng.uniform(0.3, 3.0, size=7)
        res = coercivity_check(fr, mu)
        assert res["identity_ok"]
        lo, hi = res["ambient_constants"]
        assert lo == pytest.approx(mu.min(), rel=1e-12)
        assert hi == pytest.approx(mu.max(), rel=1e-12)

    def test_quadratic_form_identity_on_random_vectors(self, rng, small_frame, monkeypatch):
        monkeypatch.setattr(coorbit, "COERCIVITY_DRAWS", 50)
        mu = rng.uniform(0.5, 2.0, small_frame.n)
        res = coercivity_check(small_frame, mu, seed=3)
        assert res["identity_ok"]
        assert res["identity_residual"] < 1e-12
        assert res["bijective"]
        assert res["sigma_min_weighted"] > 0

    def test_sigma_min_weighted_is_the_p2_lifting_lower_constant(self, rng, small_frame):
        mu = rng.uniform(0.5, 2.0, small_frame.n)
        res = coercivity_check(small_frame, mu)
        assert res["sigma_min_weighted"] == lifting_constants(small_frame, mu, p=2)[0]

    def test_sigma_min_weighted_does_not_see_the_scale_of_mu(self, rng, small_frame):
        mu = rng.uniform(0.5, 2.0, small_frame.n)
        base = coercivity_check(small_frame, mu)["sigma_min_weighted"]
        res = coercivity_check(small_frame, 1e-22 * mu)
        assert res["sigma_min_weighted"] == pytest.approx(base, rel=1e-9)
        assert res["bijective"]

    def test_relative_constants_match_manual_pencil(self, small_frame):
        mu = np.linspace(0.5, 2.5, small_frame.n)
        res = coercivity_check(small_frame, mu)
        C = small_frame.analysis_matrix
        Cd = small_frame.canonical_dual().analysis_matrix
        lhs = C.conj().T @ np.diag(mu) @ C
        rhs = Cd.conj().T @ np.diag(mu) @ Cd
        w = scipy.linalg.eigh(lhs, rhs, eigvals_only=True)
        lo, hi = res["relative_constants"]
        assert lo == pytest.approx(np.sqrt(w.min()), rel=1e-8)
        assert hi == pytest.approx(np.sqrt(w.max()), rel=1e-8)

    def test_map_a_is_released_before_x_is_built(self, small_frame, monkeypatch):
        # coercivity_check holds one map pair at a time: B = diag(sqrt(mu))
        # C_Psid is factored beside A, and X = diag(sqrt(mu)) C_Psi only once
        # A, with the SVD map_constants made of it, is gone.
        maps, alive, a_alive_at = coorbit._coefficient_maps, [], []

        def spy_maps(*args):
            A, B = maps(*args)
            alive.append(weakref.ref(A))
            return A, B

        def spy_factored(M):
            a_alive_at.append(alive[-1]() is not None)
            return matalg._Factored(M)

        monkeypatch.setattr(coorbit, "_coefficient_maps", spy_maps)
        monkeypatch.setattr(coorbit, "_Factored", spy_factored)
        res = coercivity_check(small_frame, np.linspace(0.5, 2.5, small_frame.n))
        assert a_alive_at == [True, False]  # B beside A, then X alone
        assert res["bijective"]


class TestLiftingConstants:
    def test_onb_unit_symbol_is_isometric_for_every_p(self, rng):
        fr = onb(6)
        for p in (1, 1.5, 2, 3, np.inf):
            lo, hi = lifting_constants(fr, np.ones(6), p=p)
            assert lo == pytest.approx(1.0, abs=1e-9)
            assert hi == pytest.approx(1.0, abs=1e-9)

    def test_scalar_symbol_cancels(self, small_frame):
        # mu = c rescales the target space by exactly the factor the
        # multiplier contributes, so the constants cannot see c at all
        base = lifting_constants(small_frame, np.ones(small_frame.n), p=2)
        scaled = lifting_constants(small_frame, 3.0 * np.ones(small_frame.n), p=2)
        assert scaled[0] == pytest.approx(base[0], rel=1e-10)
        assert scaled[1] == pytest.approx(base[1], rel=1e-10)

    def test_unit_symbol_p2_equals_frame_bounds(self, small_frame):
        lo, hi = lifting_constants(small_frame, np.ones(small_frame.n), p=2)
        A, B = small_frame.bounds
        assert lo == pytest.approx(A, rel=1e-9)
        assert hi == pytest.approx(B, rel=1e-9)

    def test_constants_invariant_under_symbol_rescaling(self, rng, small_frame):
        mu = rng.uniform(0.5, 2.0, small_frame.n)
        a = lifting_constants(small_frame, mu, p=2)
        b = lifting_constants(small_frame, 7.5 * mu, p=2)
        assert b[0] == pytest.approx(a[0], rel=1e-12)
        assert b[1] == pytest.approx(a[1], rel=1e-12)

    def test_p2_matches_independent_generalized_eig(self, rng, small_frame):
        mu = rng.uniform(0.5, 2.0, small_frame.n)
        lo, hi = lifting_constants(small_frame, mu, p=2)
        # assemble the coefficient maps from scratch and reduce the pencil
        # (A^H A, B^H B) by a Cholesky factor instead of scipy's solver
        Cd = small_frame.canonical_dual().analysis_matrix
        M = multiplier(mu, small_frame)
        A = (1.0 / np.sqrt(mu))[:, None] * (Cd @ M)
        B = np.sqrt(mu)[:, None] * Cd
        L = np.linalg.cholesky(B.conj().T @ B)
        Linv = np.linalg.inv(L)
        core = Linv @ (A.conj().T @ A) @ Linv.conj().T
        w = np.linalg.eigvalsh(core)
        assert lo == pytest.approx(np.sqrt(max(w.min(), 0.0)), rel=1e-10)
        assert hi == pytest.approx(np.sqrt(w.max()), rel=1e-10)

    def test_off_p2_brackets_are_ordered(self, rng, small_frame):
        mu = rng.uniform(0.5, 2.0, small_frame.n)
        for p in (1, 1.5, np.inf):
            rec = lifting_constants(small_frame, mu, p=p, detail=True)
            (ll, lh) = rec["lower"]
            (ul, uh) = rec["upper"]
            assert ll <= lh + 1e-12
            assert ul <= uh + 1e-12
            assert lh <= uh + 1e-12

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    @pytest.mark.parametrize("scaled", ["m", "mu"])
    def test_constants_do_not_see_a_tiny_scale_of_m_or_mu(self, rng, small_frame, p, scaled):
        # m -> c m rescales both coefficient maps by c and mu -> c mu by
        # sqrt(c), here 1e-12 and 1e-11: the constants cannot move, and at
        # p = 2 they stay exact.
        mu = rng.uniform(0.5, 2.0, small_frame.n)
        m = rng.uniform(0.5, 2.0, small_frame.n)
        base = lifting_constants(small_frame, mu, m=m, p=p, detail=True)
        kw = {"mu": 1e-22 * mu, "m": m} if scaled == "mu" else {"mu": mu, "m": 1e-12 * m}
        rec = lifting_constants(small_frame, p=p, detail=True, **kw)
        for side in ("lower", "upper"):
            assert rec[side] == pytest.approx(base[side], rel=1e-9)
        if p == 2:
            assert rec["lower"][0] == rec["lower"][1] > 0
            assert rec["upper"][0] == rec["upper"][1] < np.inf

    @pytest.mark.parametrize("p", [1, 2, 3, np.inf])
    def test_rank_deficient_B_gives_an_infinite_upper_bound(self, rng, p):
        # B f = 0 for f = (1, 0, -1) while A f != 0: no finite upper constant.
        A = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        B = A.copy()
        B[:, 2] = B[:, 0]
        c = map_constants(A, B, p)
        assert c["upper"][1] == np.inf
        assert 0 < c["lower"][0] <= c["lower"][1] <= c["upper"][0] < np.inf

    @pytest.mark.parametrize("p", [1, 2, 3, np.inf])
    def test_rank_deficient_A_gives_a_zero_lower_bound(self, rng, p):
        # A f = 0 for f = (1, 0, -1) while B f != 0: the best lower constant is 0.
        B = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        A = B.copy()
        A[:, 2] = A[:, 0]
        c = map_constants(A, B, p)
        assert c["lower"][0] == 0.0
        assert 0 < c["lower"][1] <= c["upper"][0] <= c["upper"][1] < np.inf

    @pytest.mark.parametrize("p", [1, 2, 3, np.inf])
    @pytest.mark.parametrize("case", ["invertible", "singular_T", "deficient_B"])
    def test_upper_constant_is_the_upper_side_of_map_constants(self, rng, p, case):
        # Bit for bit, whether A is injective or not; a B that is not has
        # the trivial upper bound. At p = 2 an injective B makes it exact
        # whatever A is.
        psi = random_frame(rng, 12, 5)
        T = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        if case == "singular_T":
            T[:, 4] = T[:, 0]
        m = rng.uniform(0.5, 2.0, 12)
        A, B = _coefficient_maps(psi, T, m, m)
        if case == "deficient_B":
            B[:, 4] = B[:, 0]
        upper = upper_constant(A, B, p)
        assert upper == map_constants(A, B, p)["upper"]
        if case == "deficient_B":
            assert upper[1] == np.inf
        elif p == 2:
            assert upper[0] == upper[1] < np.inf

    def test_p3_sides_come_from_the_left_inverse_svd(self, rng, monkeypatch):
        # ||A B^+||_2 is sigma_max(A V diag(1/s)) from B's own SVD: no QR is
        # made, and the certified sides match the dense n x n reference.
        w = np.exp(rng.uniform(-3.0, 3.0, 12))
        A = w[:, None] * (rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4)))
        B = (1.0 / w)[:, None] * (rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4)))

        def no_qr(*args, **kwargs):
            raise AssertionError("map_constants made a QR factorization")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        c = map_constants(A, B, 3)

        def dense(L, R):
            return reference.interpolated_upper(L @ np.linalg.pinv(R), 3)

        assert c["upper"][1] == pytest.approx(dense(A, B), rel=1e-13)
        assert c["lower"][0] == pytest.approx(1.0 / dense(B, A), rel=1e-13)

    def test_each_product_is_formed_once_whatever_the_ps(self, rng, monkeypatch):
        # p = 1, 3 and inf all read |A B^+| and |B A^+|: each n x n product is
        # formed by the first p that needs it, and the others reuse its sums.
        A, B = (
            matalg._Factored(rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))) for _ in range(2)
        )
        formed, product_sums = [], matalg._Factored.product_sums

        def spy(self, L):
            if L not in self._product_sums:
                formed.append((self, L))
            return product_sums(self, L)

        monkeypatch.setattr(matalg._Factored, "product_sums", spy)
        c = {p: map_constants(A, B, p) for p in (1, 3, np.inf)}
        assert formed == [(B, A), (A, B)]
        for p in (1, np.inf):
            want = reference.induced_norm(A.matrix @ np.linalg.pinv(B.matrix), p)
            assert c[p]["upper"][1] == pytest.approx(want, rel=1e-12)

    def test_each_map_pair_draws_once_per_seed_whatever_the_ps(self, rng, monkeypatch):
        # The seeded draws F, |F B^T| and |F A^T| are made by the first p that
        # needs them; every later p only takes l^p norms, and its inner sides
        # equal those of draws made afresh for that p. A second map A2 on the
        # same B reuses F and |F B^T|.
        A, A2, B = (
            matalg._Factored(rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))) for _ in range(3)
        )
        ps = (1, 3, np.inf)
        fresh = {p: reference.sampled_ratios(A.matrix, B.matrix, p, matalg.MAP_SAMPLES, 5) for p in ps}
        fresh2 = reference.sampled_ratios(A2.matrix, B.matrix, 1, matalg.MAP_SAMPLES, 5)
        draws, images, make_draws, ratios = [], [], matalg._draws, matalg._ratios
        monkeypatch.setattr(matalg, "_draws", lambda *args: draws.append(args) or make_draws(*args))
        monkeypatch.setattr(matalg, "_ratios", lambda AF, BF, p: images.append(id(AF)) or ratios(AF, BF, p))
        for p in ps:
            c = map_constants(A, B, p, seed=5)
            assert (c["upper"][0], c["lower"][1]) == (fresh[p].max(), fresh[p].min())
        assert upper_constant(A2, B, 1, seed=5)[0] == fresh2.max()
        assert draws == [(matalg.MAP_SAMPLES, 4, 5)]
        assert len(set(images[:3])) == 1 and images[3] != images[0]
        map_constants(A, B, 1, seed=6)
        assert len(draws) == 2

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_wide_maps_are_not_injective(self, rng, p):
        # a 3 x 5 map has three nonzero singular values and a kernel
        A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        B = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        c = map_constants(A, B, p)
        assert c["lower"][0] == 0.0
        assert c["upper"][1] == np.inf

    def test_nonpositive_symbol_rejected(self, small_frame):
        mu = np.ones(small_frame.n)
        mu[0] = 0.0
        with pytest.raises(ValueError):
            lifting_constants(small_frame, mu)


class TestPipeline:
    def test_all_steps_pass_on_random_frame(self, rng):
        fr = random_frame(rng, 10, 5)
        mu = rng.uniform(0.5, 2.0, 10)
        report = lifting_theorem_pipeline(fr, mu, ps=(1, 2, np.inf))
        assert report["verdicts"]["all_steps"]
        assert report["residuals"]["step_iii_identity"] < 1e-10
        assert report["verdicts"]["B_invertible_l2_sqrt_mu"]
        assert report["verdicts"]["B_reverse_invertible"]
        assert report["verdicts"]["verdicts_agree"]
        assert 0 < report["lower"] <= report["upper"]
        assert report["condition"] == pytest.approx(report["upper"] / report["lower"])

    def test_exponential_weight_is_flagged_not_fatal(self, rng):
        fr = onb(8)
        k = np.arange(8.0)
        mu = np.exp(3.0 * k)  # huge moderateness constant on a line of indices
        report = lifting_theorem_pipeline(fr, mu)
        assert report["verdicts"]["all_steps"]
        flagged = [w for w, rec in report["moderateness"].items() if rec["flagged"]]
        assert "mu" in flagged

    def test_nonpositive_symbol_fails_precondition(self, rng):
        fr = onb(4)
        with pytest.raises(ValueError, match="precondition"):
            lifting_theorem_pipeline(fr, np.array([1.0, -1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("p", [200, 1e300])
    def test_large_p_brackets_are_finite_and_ordered(self, p):
        # Gabor N = 32 at mu t = 6: unscaled |x|^p overflowed at p = 200, so
        # the map brackets read nan and step (iv)'s lower ends inf.
        psi, mu, m = _gabor(32, 6.0)
        report = lifting_theorem_pipeline(psi, mu, m=m, ps=(2, p))
        key = coorbit._p_key(p)
        lower, upper = (report["per_p_results"][key]["brackets"][side] for side in ("lower", "upper"))
        step_iv = report["residuals"]["step_iv"][key]
        for lo, hi in (lower, upper, step_iv["B_norm"], step_iv["B_inv_norm"], step_iv["condition_bracket"]):
            assert np.isfinite([lo, hi]).all()
            assert 0 < lo <= hi

    @pytest.mark.parametrize("ps", [(2,), (1, 2, np.inf), (2, 1, np.inf)], ids=lambda ps: "-".join(map(str, ps)))
    def test_one_svd_of_each_coefficient_map(self, monkeypatch, ps):
        # Each n x d map gets one thin SVD, whichever p reads it first.
        psi, mu, m = _gabor(16, 6.0)
        maps = _lifting_maps(psi, multiplier(mu, psi), mu, m)
        svd, hits = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            hits.extend(i for i, X in enumerate(maps) if np.shape(a) == X.shape and np.array_equal(a, X))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        lifting_theorem_pipeline(psi, mu, m=m, ps=ps)
        assert sorted(hits) == [0, 1]

    def test_a_weight_m_core_recertifies_bit_for_bit(self, monkeypatch):
        # Every core certifies itself. The certificate is unweighted, so
        # step (iv)'s core on m sqrt(mu) computes step (i)'s W and margin
        # again, bit for bit, and its 2-norms equal those of a core built
        # directly on that weight.
        psi, mu, m = _gabor(16, 2.0, 1.0)
        O = multiplier(1.0 / mu, psi) @ multiplier(mu, psi)
        fresh = _SplitCore(O, psi, w=m * np.sqrt(mu))
        step_i = _SplitCore(O, psi, w=np.sqrt(mu))
        assert np.array_equal(step_i.W, fresh.W) and step_i.certificate_margin == fresh.certificate_margin
        calls, certificate = [], verified.woodbury_certificate

        def spy(*args):
            calls.append(certificate(*args))
            return calls[-1]

        monkeypatch.setattr(verified, "woodbury_certificate", spy)
        cores, split_core = [], coorbit._SplitCore
        monkeypatch.setattr(coorbit, "_SplitCore", lambda *a, **k: cores.append(split_core(*a, **k)) or cores[-1])
        report = lifting_theorem_pipeline(psi, mu, m=m, ps=(1, 2, np.inf))
        assert len(calls) == 2
        (W0, r0), (W1, r1) = calls
        assert np.array_equal(W0, W1) and r0 == r1 == fresh.certificate_margin
        assert cores[1].sigma == fresh.sigma and cores[1].inverse_norm == fresh.inverse_norm
        assert report["verdicts"]["all_steps"]

    def test_headline_matches_p2_entry(self, rng):
        fr = random_frame(rng, 9, 4)
        mu = rng.uniform(0.5, 2.0, 9)
        report = lifting_theorem_pipeline(fr, mu, ps=(2,))
        entry = report["per_p_results"]["2"]
        assert report["lower"] == entry["lower"]
        assert report["upper"] == entry["upper"]


def _gabor(N: int, t_mu: float, t_m: float = 0.0):
    """Gabor frame on Z_N at redundancy 4 with polynomial mu and m."""
    lat = TFLattice.balanced(N, 4)
    psi = gabor_system(lat.N, lat.a, lat.b)
    idx = psi.index_set
    return psi, Weight.polynomial(idx, t_mu).values, Weight.polynomial(idx, t_m).values


def _dense_steps(psi, muv, mv, ps) -> dict:
    """Steps (i), (iv) and (v) on the dense n x n splitting matrix.

    The reference route: SVDs of the mu-conjugated B and B_rev, verdicts
    from the dense certificate with X = inv(B) (verified.dense_certificate),
    B^{-1} from np.linalg.inv, and operator norms of the conjugated B and
    B^{-1}, with each sampled lower end raised to 1 when d < n.
    """
    n = psi.n
    cross = gram(psi, psi.canonical_dual())
    M_mu = multiplier(muv, psi)
    M_rec = multiplier(1.0 / muv, psi)

    def split(O):
        return galerkin(O, psi, psi) + (np.eye(n) - cross)

    def verdict(B):
        Bw = matalg.conjugate(B, np.sqrt(muv))
        sv = np.linalg.svd(Bw, compute_uv=False)
        return sv[-1] / sv[0], bool(verified.dense_certificate(Bw)[1] < 1.0)

    B = split(M_rec @ M_mu)
    ratio, invertible = verdict(B)
    w = mv * np.sqrt(muv)
    B_inv = np.linalg.inv(B) if invertible else None
    def norm(T, p):  # when d < n, T fixes ker Y, so ||T||_p >= 1
        v = reference.induced_norm(matalg.conjugate(T, w), p)
        return (max(v[0], 1.0), v[1]) if isinstance(v, tuple) and psi.d < n else v

    step_iv = {}
    for p in ps:
        entry = {"B_norm": norm(B, p)}
        if invertible:
            entry["B_inv_norm"] = norm(B_inv, p)
        step_iv["inf" if p == np.inf else str(p)] = entry
    return {
        "ratio": ratio,
        "invertible": invertible,
        "reverse_invertible": verdict(split(M_mu @ M_rec))[1],
        "step_iv": step_iv,
    }


def _random_case(n: int, d: int, weighted: bool):
    rng = np.random.default_rng(7 * n + d)
    psi = random_frame(rng, n, d)
    mu = rng.uniform(0.5, 2.0, n)
    m = rng.uniform(0.5, 3.0, n) if weighted else np.ones(n)
    return psi, mu, m


PS = (1, 2, 3, np.inf)


class TestLowRankSplitting:
    """The pipeline reads B = I + C (M_{1/mu} M_mu - S^{-1}) D through its
    factors and factorizes no n x n matrix."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_no_nxn_factorization(self, nxn_factorizations, weighted):
        psi, mu, m = _gabor(32, 2.0, 1.0 if weighted else 0.0)
        n = psi.n
        assert (n, psi.d) == (128, 32)
        square = nxn_factorizations(n)
        report = lifting_theorem_pipeline(psi, mu, m=m, ps=PS)
        assert report["verdicts"]["all_steps"]
        assert square == []

    @pytest.mark.parametrize(
        "case",
        [
            ("gabor", 16, 2.0, 0.0),
            ("gabor", 16, 6.0, 0.0),
            ("gabor", 32, 2.0, 0.0),
            ("gabor", 32, 6.0, 0.0),
            ("gabor", 16, 2.0, 1.0),
            ("random", 24, 8, False),
            ("random", 12, 8, False),
            ("random", 24, 8, True),
        ],
        ids=lambda c: "-".join(str(x) for x in c),
    )
    def test_matches_dense_reference(self, case):
        kind, a, b, c = case
        psi, mu, m = _gabor(a, b, c) if kind == "gabor" else _random_case(a, b, c)
        report = lifting_theorem_pipeline(psi, mu, m=m, ps=PS)
        ref = _dense_steps(psi, mu, m, PS)
        v = report["verdicts"]
        assert v["B_invertible_l2_sqrt_mu"] == ref["invertible"]
        assert v["B_reverse_invertible"] == ref["reverse_invertible"]
        assert v["verdicts_agree"]
        # The dense route drifts once B is badly conditioned. At N = 16,
        # t_mu = 6 (cond 4e7) its sigma_min / sigma_max sits 3e-10 off a
        # 40-digit mpmath value, and its p = 1 and p = 3 inverse norms 8e-13
        # and 1.7e-12; the core route matches all three to 1.4e-13. So below
        # cond 1e6 the ratio is compared to 1e-10 and the inverse norms to
        # 1e-12; above it only the inverse norms, to 1e-11. At N = 32,
        # t_mu = 6 (cond 1.4e9) the dense inverse norms at p = 1, 2, inf sit
        # 5.3e-12, 3.2e-12 and 1.9e-11 off 40-digit mpmath values, the core's
        # 1.1e-12, 8.9e-14 and 2.9e-13: beyond cond 1e8 the tolerance is
        # 5e-11.
        well_conditioned = ref["ratio"] >= 1e-6
        if well_conditioned:
            assert report["residuals"]["B_sigma_min_over_max"] == pytest.approx(ref["ratio"], rel=1e-10, abs=0)
        inv_rtol = 1e-12 if well_conditioned else 1e-11 if ref["ratio"] >= 1e-8 else 5e-11
        for key, want in ref["step_iv"].items():
            got = report["residuals"]["step_iv"][key]
            assert set(got) == set(want) | ({"condition_bracket"} if "B_inv_norm" in want else set())
            np.testing.assert_allclose(np.ravel(got["B_norm"]), np.ravel(want["B_norm"]), rtol=1e-12)
            if "B_inv_norm" in want:
                fwd, rev = np.ravel(want["B_norm"]), np.ravel(want["B_inv_norm"])
                np.testing.assert_allclose(np.ravel(got["B_inv_norm"]), rev, rtol=inv_rtol)
                bracket = (fwd[0] * rev[0], fwd[-1] * rev[-1])
                np.testing.assert_allclose(got["condition_bracket"], bracket, rtol=inv_rtol)

    def test_inverse_norm_matches_mpmath_where_the_sigma_min_shortcut_does_not(self):
        # Gabor N = 8 (n = 32, d = 8), mu = (1+|x|)^4, m = (1+|x|)^2: B on
        # l^2_{m sqrt(mu)} has cond between 1e6 and 1e7, set by the weights.
        psi, mu, m = _gabor(8, 4.0, 2.0)
        w = m * np.sqrt(mu)
        report = lifting_theorem_pipeline(psi, mu, m=m, ps=(2,))
        got = report["residuals"]["step_iv"]["2"]["B_inv_norm"]

        mpmath.mp.dps = 40
        V = mpmath.matrix(psi.vectors.tolist())
        Vh = V.H

        def mult(sym):
            return V * mpmath.diag([mpmath.mpf(float(x)) for x in sym]) * Vh

        B = Vh * (mult(1.0 / mu) * mult(mu) - (V * Vh) ** -1) * V
        for i in range(psi.n):
            B[i, i] += 1
            for j in range(psi.n):
                B[i, j] *= mpmath.mpf(float(w[i])) / mpmath.mpf(float(w[j]))
        sv = mpmath.svd_c(B, compute_uv=False)
        sv = [sv[i] for i in range(psi.n)]
        want = float(1 / min(sv))
        assert 1e6 < float(max(sv) / min(sv)) < 1e7

        tol = 3e-14
        assert got == pytest.approx(want, rel=tol)
        # 1/sigma_min from a values-only SVD of the dense conjugated matrix
        # misses it.
        cross = gram(psi, psi.canonical_dual())
        B_dense = galerkin(multiplier(1.0 / mu, psi) @ multiplier(mu, psi), psi, psi)
        B_dense = matalg.conjugate(B_dense + (np.eye(psi.n) - cross), w)
        shortcut = 1.0 / np.linalg.svd(B_dense, compute_uv=False)[-1]
        assert shortcut != pytest.approx(want, rel=tol)

    def test_step_v_is_the_adjoint_identity(self):
        # Gabor N = 64, mu = (1+|x|)^14: scaled by max|B| the residual of
        # B_rev = B^H lands above rtol; the entrywise bound puts it at rounding.
        psi, mu, _ = _gabor(64, 14.0)
        report = lifting_theorem_pipeline(psi, mu, ps=(2,))
        assert report["residuals"]["step_v_adjoint_identity"] <= 1e-14
        assert report["verdicts"]["verdicts_agree"]


def _dense_identity_residuals(psi, muv) -> tuple:
    """Steps (iii) and (v) on the assembled n x n matrices, each entry of the
    difference divided by the same entry of the moduli of its terms."""
    n = psi.n
    eye = np.eye(n)
    G, cross = psi.gram_matrix, gram(psi, psi.canonical_dual())
    M_mu, M_rec = multiplier(muv, psi), multiplier(1.0 / muv, psi)
    B = invertibility_matrix(M_rec @ M_mu, psi)
    Gmu = matalg.conjugate(G, muv)
    cross_mu = matalg.conjugate(cross, muv)
    rhs = Gmu @ G @ Gmu + eye - cross_mu
    scale = np.abs(Gmu) @ np.abs(G) @ np.abs(Gmu) + np.abs(cross_mu) + eye
    step3 = float(np.max(np.abs(matalg.conjugate(B, muv) - rhs) / scale))
    B_rev = invertibility_matrix(M_mu @ M_rec, psi)
    scale = np.abs(G) @ np.abs(Gmu) @ np.abs(G) + np.abs(cross) + eye
    step5 = float(np.max(np.abs(B_rev - B.conj().T) / scale))
    return step3, step5


class TestProbeChecks:
    """Steps (iii) and (v) apply both sides to seeded probes through the factors."""

    def test_perturbed_core_factor_fails_step_iii(self, monkeypatch):
        # Each row of the residual is scaled by the moduli of all the terms
        # that form it, so one entry changed by 1e-8 shows above the 1e-10
        # tolerance on a small frame (n = 6, d = 3), where it weighs most.
        psi, mu, _ = _random_case(6, 3, False)
        assert lifting_theorem_pipeline(psi, mu, ps=(2,))["verdicts"]["step_iii_ok"]

        class Perturbed(_SplitCore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.Y = self.Y.copy()
                self.Y[np.unravel_index(np.argmax(np.abs(self.Y)), self.Y.shape)] *= 1 + 1e-8

        monkeypatch.setattr(coorbit, "_SplitCore", Perturbed)
        report = lifting_theorem_pipeline(psi, mu, ps=(2,))
        assert report["residuals"]["step_iii_identity"] > IDENTITY_RTOL
        assert not report["verdicts"]["step_iii_ok"]
        assert not report["verdicts"]["all_steps"]

    def test_perturbed_adjoint_side_breaks_verdicts_agree(self, monkeypatch):
        psi, mu, _ = _random_case(24, 8, False)
        apply_adjoint = _SplitCore.apply_adjoint
        monkeypatch.setattr(_SplitCore, "apply_adjoint", lambda self, V: apply_adjoint(self, V) * (1 + 1e-8))
        report = lifting_theorem_pipeline(psi, mu, ps=(2,))
        v = report["verdicts"]
        assert v["step_iii_ok"] and v["B_invertible_l2_sqrt_mu"]
        assert report["residuals"]["step_v_adjoint_identity"] > IDENTITY_RTOL
        assert not v["verdicts_agree"]
        assert not v["B_reverse_invertible"]
        assert not v["all_steps"]

    @pytest.mark.parametrize("case", [("random", 24, 8), ("random", 12, 8), ("random", 40, 6), ("gabor", 16, 6.0)])
    def test_probe_verdicts_agree_with_dense_residuals(self, case):
        kind, a, b = case
        psi, mu, _ = _gabor(a, b) if kind == "gabor" else _random_case(a, b, False)
        report = lifting_theorem_pipeline(psi, mu, ps=(2,))
        step3, step5 = _dense_identity_residuals(psi, mu)
        assert max(step3, step5) < IDENTITY_RTOL
        assert report["residuals"]["step_iii_identity"] < 1e-14
        assert report["residuals"]["step_v_adjoint_identity"] < 1e-14
        assert report["verdicts"]["step_iii_ok"] == (step3 < IDENTITY_RTOL)
        assert report["verdicts"]["verdicts_agree"] == (step5 < IDENTITY_RTOL)

    def test_gabor_t6_n64_passes_every_step(self):
        # Scaled by max|rhs|, the n x n residual of step (iii) was 2.2e-10
        # here, over the tolerance, though the certificate closes (r = 3.9e-2).
        psi, mu, _ = _gabor(64, 6.0)
        report = lifting_theorem_pipeline(psi, mu, ps=(2,))
        assert report["residuals"]["step_iii_identity"] < 1e-14
        assert report["verdicts"]["step_iii_ok"]
        assert report["verdicts"]["all_steps"]


def _assembled(core) -> tuple:
    """B_w = I + X_w Y_w and its Woodbury inverse I + X_w (-(W Y_w)), as
    n x n arrays."""
    return reference.assembled(core.X, core.Y), reference.assembled(core.X, core.inverse_factor)


def _factor_norms(core, ps) -> tuple:
    """:func:`matalg.operator_norm` of B_w and of its Woodbury inverse, on
    the core's factors (X_w, Y_w) and (X_w, -(W Y_w)) as step (iv) reads
    them."""
    return (
        matalg.operator_norm(core.X, core.Y, ps, core.sigma[1]),
        matalg.operator_norm(core.X, core.inverse_factor, ps, core.inverse_norm),
    )


class TestSlabNorms:
    """Step (iv)'s p = 1 and p = inf norms come from row slabs of the factors."""

    @pytest.mark.parametrize(
        "case",
        [("random", 24, 8, False), ("random", 12, 8, False), ("random", 24, 8, True), ("gabor", 32, 6.0, 0.0)],
        ids=lambda c: "-".join(str(x) for x in c),
    )
    def test_match_dense_norms_of_the_assembled_matrices(self, case, monkeypatch):
        kind, a, b, c = case
        psi, mu, m = _gabor(a, b, c) if kind == "gabor" else _random_case(a, b, c)
        monkeypatch.setattr(matalg, "SLAB_ROWS", 5)  # several slabs, the last one short
        w = m * np.sqrt(mu)
        O = multiplier(1.0 / mu, psi) @ multiplier(mu, psi)
        core = _SplitCore(O, psi, w=w)
        B_dense, inv_dense = _assembled(core)
        B_ref = matalg.conjugate(invertibility_matrix(O, psi), w)
        report = lifting_theorem_pipeline(psi, mu, m=m, ps=(1, np.inf))
        fwd, rev = _factor_norms(core, (1, np.inf))
        for p in (1, np.inf):
            got = report["residuals"]["step_iv"]["inf" if p == np.inf else "1"]
            assert fwd[p] == pytest.approx(reference.induced_norm(B_dense, p), rel=1e-13)
            assert got["B_norm"] == pytest.approx(reference.induced_norm(B_ref, p), rel=1e-13)
            want = reference.induced_norm(inv_dense, p)
            assert rev[p] == pytest.approx(want, rel=1e-13)
            assert got["B_inv_norm"] == pytest.approx(want, rel=1e-13)

    def test_sampled_side_goes_through_the_factors(self, rng):
        psi, mu, m = _random_case(24, 8, True)
        core = _SplitCore(multiplier(1.0 / mu, psi) @ multiplier(mu, psi), psi, w=m * np.sqrt(mu))
        factors = ((core.X, core.Y), (core.X, core.inverse_factor))
        for (U, V), dense, norms in zip(factors, _assembled(core), _factor_norms(core, (3,))):
            got = reference.factor_ratios(U, V, 3, 16, seed=4)
            np.testing.assert_allclose(got, reference.sampled_ratios(dense, None, 3, 16, seed=4), rtol=1e-13)
            assert norms[3][0] == reference.factor_ratios(U, V, 3, matalg.MAP_SAMPLES, seed=0).max()

    def test_p3_lower_ends_scan_every_map_sample(self):
        # Step (iv) scans MAP_SAMPLES draws, whose first 64 are the 64-draw
        # scan's: each lower end is at least that scan's and stays inside
        # its bracket.
        psi, mu, m = _gabor(32, 6.0)
        core = _SplitCore(multiplier(1.0 / mu, psi) @ multiplier(mu, psi), psi, w=np.sqrt(mu))
        assert core.invertible()
        report = lifting_theorem_pipeline(psi, mu, ps=(3,))
        got = report["residuals"]["step_iv"]["3"]
        for key, (U, V) in (("B_norm", (core.X, core.Y)), ("B_inv_norm", (core.X, -(core.W @ core.Y)))):
            lower, upper = got[key]
            assert reference.factor_ratios(U, V, 3, 64, seed=0).max() <= lower <= upper
            assert lower == reference.factor_ratios(U, V, 3, matalg.MAP_SAMPLES, seed=0).max()
        (lo, hi), (rlo, rhi) = got["B_norm"], got["B_inv_norm"]
        assert got["condition_bracket"] == (lo * rlo, hi * rhi)

    def test_one_set_of_draws_per_matrix(self, monkeypatch):
        # p = 1.5 and 3 share one set of draws in dimension n for B_w and one
        # for its inverse; map_constants draws in dimension d, apart.
        psi, mu, m = _random_case(24, 8, False)
        ps = (1, 1.5, 2, 3, np.inf)
        calls, draws = [], matalg._draws
        monkeypatch.setattr(matalg, "_draws", lambda *args: calls.append(args) or draws(*args))
        report = lifting_theorem_pipeline(psi, mu, m=m, ps=ps)
        assert [args for args in calls if args[1] == psi.n] == [(matalg.MAP_SAMPLES, psi.n, 0)] * 2
        ref = _dense_steps(psi, mu, m, ps)
        for key, want in ref["step_iv"].items():
            got = report["residuals"]["step_iv"][key]
            for side in ("B_norm", "B_inv_norm"):
                np.testing.assert_allclose(np.ravel(got[side]), np.ravel(want[side]), rtol=1e-12)


class TestSweep:
    def test_a_size_listed_twice_raises_before_anything_runs(self):
        # Tables are keyed by size, so a repeated size would merge two runs.
        class Twice(coorbit.FrameFamily):
            def case(self, n):
                raise AssertionError("no size may run")

        family = Twice(onb(4))
        family.sizes = (4, 4)
        with pytest.raises(ValueError, match="'size' lists a size twice: \\[4, 4\\]"):
            coorbit.sweep(family, UNIT_SPEC, UNIT_SPEC)
