"""Frame multipliers and Galerkin matrices against closed-form references."""

import numpy as np
import pytest

from framelift import matalg
from framelift.matalg import map_constants
from framelift.frames import onb, random_frame
from framelift.gabor import TFLattice, gabor_system
from framelift.coorbit import lifting_theorem_pipeline
from framelift.multipliers import (
    Slots,
    _coefficient_maps,
    _splitting_factor,
    _SplitCore,
    galerkin,
    invertibility_verdicts,
    multiplier,
    spectral_invariance_suite,
)
from framelift.verified import dense_certificate, woodbury_certificate
from framelift.weights import Weight
from tests.conftest import random_vector
from tests.reference import (
    assembled,
    extended_residual,
    galerkin_pinv_crosscheck,
    invertibility_matrix,
    op_from_matrix,
    splitting_case,
)


def _random_symbol(rng, n):
    return rng.uniform(0.5, 2.0, size=n)


def _random_operator(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestMultiplier:
    def test_onb_multiplier_is_diagonal(self, rng):
        fr = onb(6)
        mu = _random_symbol(rng, 6)
        np.testing.assert_allclose(multiplier(mu, fr), np.diag(mu), atol=1e-14)

    def test_unit_symbol_gives_frame_operator(self, small_frame):
        M = multiplier(np.ones(small_frame.n), small_frame)
        np.testing.assert_allclose(M, small_frame.frame_operator, atol=1e-13)

    def test_matches_synthesis_diag_analysis(self, rng):
        psi = random_frame(rng, 10, 5)
        mu = _random_symbol(rng, 10)
        want = psi.synthesis_matrix @ np.diag(mu) @ psi.analysis_matrix
        np.testing.assert_allclose(multiplier(mu, psi), want, atol=1e-13)

    def test_weight_object_accepted_as_symbol(self, small_frame):
        w = Weight.polynomial(small_frame.index_set, 2.0)
        np.testing.assert_allclose(
            multiplier(w, small_frame),
            multiplier(w.values, small_frame),
        )

    def test_symbol_length_mismatch_rejected(self, small_frame):
        with pytest.raises(ValueError):
            multiplier(np.ones(small_frame.n + 1), small_frame)

    def test_complex_symbol_rejected(self, small_frame):
        # Symbols are read like weights; numpy would drop the imaginary part.
        with pytest.raises(ValueError, match="real"):
            multiplier(np.full(small_frame.n, 1 + 1j), small_frame)


class TestGalerkin:
    def test_entries_are_sandwich(self, rng):
        psi = random_frame(rng, 8, 4)
        phi = random_frame(rng, 8, 4)
        O = _random_operator(rng, 4)
        rec = galerkin(O, phi, psi)
        want = phi.analysis_matrix @ O @ psi.synthesis_matrix
        np.testing.assert_allclose(rec, want, atol=1e-13)

    def test_dual_slots_invert_the_matrix_map(self, rng, small_frame):
        dual = small_frame.canonical_dual()
        O = _random_operator(rng, small_frame.d)
        back = op_from_matrix(galerkin(O, dual, dual), small_frame, small_frame)
        np.testing.assert_allclose(back, O, atol=1e-10)

    def test_composition_collapses_through_gram(self, rng, small_frame):
        mu = _random_symbol(rng, small_frame.n)
        G = small_frame.gram_matrix
        comp = multiplier(1.0 / mu, small_frame) @ multiplier(mu, small_frame)
        rec = galerkin(comp, small_frame, small_frame)
        want = G @ np.diag(1.0 / mu) @ G @ np.diag(mu) @ G
        np.testing.assert_allclose(rec, want, atol=1e-11)

    def test_operator_shape_checked(self, rng, small_frame):
        with pytest.raises(ValueError):
            galerkin(np.eye(small_frame.d + 1), small_frame, small_frame)

    def test_pinv_crosscheck_both_dual_orderings_hold(self, rng):
        psi = random_frame(rng, 12, 6)
        phi = random_frame(rng, 12, 6)
        res = galerkin_pinv_crosscheck(_random_operator(rng, 6), psi, phi)
        assert res["ordering_A"] < 1e-10
        assert res["ordering_B"] < 1e-10
        assert res["passing"] == ["ordering_A", "ordering_B"]

    def test_pinv_crosscheck_needs_dual_slots(self, rng):
        # swapping a dual for the frame itself breaks the identity unless the
        # frame is tight, so a generic frame distinguishes the two
        psi = random_frame(rng, 12, 6)
        phi = random_frame(rng, 12, 6)
        O = _random_operator(rng, 6)
        from framelift.matalg import pseudo_inverse

        wrong = pseudo_inverse(galerkin(O, psi, phi))
        right = galerkin(np.linalg.inv(O), phi, psi)
        assert np.abs(wrong - right).max() > 1e-6


class TestInvertibility:
    def test_verdicts_agree_across_slots_invertible(self, rng, small_frame):
        mu = _random_symbol(rng, small_frame.n)
        M = multiplier(mu, small_frame)
        v = invertibility_verdicts(M, small_frame)
        assert v["operator"] is True
        assert set(v) == {"operator", "PSI_PSI", "PSI_DUAL", "DUAL_PSI", "DUAL_DUAL"}
        assert all(v.values())

    def test_verdicts_agree_across_slots_singular(self, rng, small_frame):
        f = random_vector(rng, small_frame.d)
        M = np.outer(f, f.conj())  # rank one, singular for d > 1
        v = invertibility_verdicts(M, small_frame)
        assert not any(v.values())

    def test_matrix_has_identity_on_coefficient_kernel(self, rng, small_frame):
        # directions killed by synthesis must pass through B_O untouched
        B = invertibility_matrix(np.zeros((small_frame.d, small_frame.d)), small_frame)
        ns = np.linalg.svd(small_frame.synthesis_matrix)[2][small_frame.d :].conj().T
        kvec = ns @ random_vector(rng, ns.shape[1])
        np.testing.assert_allclose(B @ kvec, kvec, atol=1e-10)

    def test_slot_variants_all_encode_the_same_verdict(self, rng, small_frame):
        O = _random_operator(rng, small_frame.d)
        for slots in Slots:
            B = invertibility_matrix(O, small_frame, slots)
            assert np.linalg.matrix_rank(B) == small_frame.n

    def test_operator_shape_checked(self, rng, small_frame):
        # (1, d) would broadcast against the d x n dual synthesis matrix
        d = small_frame.d
        for shape in ((1, d), (d, d + 1), (d - 1, d - 1)):
            with pytest.raises(ValueError, match="operator shape"):
                invertibility_verdicts(rng.standard_normal(shape), small_frame)

    def test_verdicts_make_no_nxn_factorization(self, nxn_factorizations):
        lat = TFLattice.balanced(32, 4)
        psi = gabor_system(lat.N, lat.a, lat.b)
        n = psi.n
        assert (n, psi.d) == (128, 32)
        M = multiplier(Weight.polynomial(psi.index_set, 2.0), psi)
        square = nxn_factorizations(n)
        v = invertibility_verdicts(M, psi)
        assert all(v.values())
        assert square == []

    def test_verdicts_make_no_qr_and_no_svd(self, monkeypatch):
        # Each slot verdict is the d x d Woodbury certificate on the analysis
        # matrix: one d x d inverse, and no QR, SVD or k x k core.
        psi = gabor_system(32, 2, 4)
        assert (psi.n, psi.d) == (128, 32)
        M = multiplier(Weight.polynomial(psi.index_set, 2.0), psi)

        def forbidden(*args, **kwargs):
            raise AssertionError("the verdicts made a QR or an SVD")

        for name in ("qr", "svd"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        v = invertibility_verdicts(M, psi)
        assert all(v.values())


def _forbid_qr(monkeypatch):
    """With k >= n the core is I + X Y itself: no QR may be made."""

    def no_qr(*args, **kwargs):
        raise AssertionError("the core made a QR factorization")

    monkeypatch.setattr(np.linalg, "qr", no_qr)


def _dense_extremes(B):
    sv = np.linalg.svd(B, compute_uv=False)
    return sv[-1], sv[0]


class TestSplitCore:
    """The core's extreme singular values of B_O against a dense SVD of
    invertibility_matrix."""

    @pytest.mark.parametrize("n, d", [(24, 8), (14, 8), (8, 8)], ids=["2d<n", "2d>n", "onb"])
    @pytest.mark.parametrize("slots", list(Slots), ids=lambda s: s.name)
    @pytest.mark.parametrize("weighted", [False, True, "flat"])
    def test_extremes_match_dense_svd(self, n, d, slots, weighted, monkeypatch):
        rng = np.random.default_rng(11 * n + d)
        psi = random_frame(rng, n, d, kind="onb" if n == d else "generic")
        w = rng.uniform(0.5, 2.0, n) if weighted else None
        if weighted == "flat":
            w = np.full(n, 3.0)
        O = _random_operator(rng, d)
        if 2 * d >= n:
            _forbid_qr(monkeypatch)
        core = _SplitCore(O, psi, slots, w)
        B = invertibility_matrix(O, psi, slots)
        lo, hi = _dense_extremes(B if w is None else matalg.conjugate(B, w))
        assert core.sigma == pytest.approx((lo, hi), rel=1e-10, abs=0)
        assert core.invertible() == (dense_certificate(B if w is None else matalg.conjugate(B, w))[1] < 1.0)
        assert core.invertible()

    @pytest.mark.parametrize("n, d", [(24, 8), (14, 8)], ids=["2d<n", "2d>n"])
    @pytest.mark.parametrize("slots", list(Slots), ids=lambda s: s.name)
    def test_rank_one_operator_is_singular_in_both_routes(self, n, d, slots, monkeypatch):
        rng = np.random.default_rng(3 * n + d)
        psi = random_frame(rng, n, d)
        f = random_vector(rng, d)
        O = np.outer(f, f.conj())
        if 2 * d >= n:
            _forbid_qr(monkeypatch)
        core = _SplitCore(O, psi, slots)
        lo, hi = _dense_extremes(invertibility_matrix(O, psi, slots))
        assert core.sigma[1] == pytest.approx(hi, rel=1e-10)
        assert core.sigma[0] < 1e-12 * core.sigma[1]
        assert lo < 1e-12 * hi
        assert not core.invertible()

    def test_invertibility_matrix_rounds_like_the_plain_sum(self, rng, small_frame):
        O = _random_operator(rng, small_frame.d)
        dual = small_frame.canonical_dual()
        for slots in Slots:
            left, right = (small_frame if s == "frame" else dual for s in slots.value)
            cross = small_frame.analysis_matrix @ dual.synthesis_matrix
            plain = galerkin(O, left, right) + (np.eye(small_frame.n) - cross)
            assert np.array_equal(invertibility_matrix(O, small_frame, slots), plain)
            held = cross.copy()
            assert np.array_equal(invertibility_matrix(O, small_frame, slots, cross=cross), plain)
            assert np.array_equal(cross, held)


def _gabor_core(N: int, t_mu: float):
    O, psi, _, w = splitting_case("gabor", N, t_mu)
    return _SplitCore(O, psi, w=w), O, psi, w


def _pinned_core(case: str) -> _SplitCore:
    if case == "gabor32-t6":
        return _gabor_core(32, 6.0)[0]
    if case == "verify32-dual-dual":
        psi = gabor_system(32, 2, 4)
        return _SplitCore(multiplier(Weight.polynomial(psi.index_set, 2.0), psi), psi, Slots.DUAL_DUAL)
    rng = np.random.default_rng(78)
    psi = random_frame(rng, 14, 8)
    w = np.exp(rng.uniform(-4.0, 4.0, 14))
    return _SplitCore(_random_operator(rng, 8), psi, Slots.PSI_DUAL, w)


class TestCertificate:
    """A split core's verdict is Rump's certificate on its d x d Woodbury
    core (tests/test_verified.py holds the certificate's own tests): a
    bound r on ||I - B_O Xt||_inf below 1, Xt = I - C W Y."""

    @pytest.mark.parametrize("n, d", [(24, 8), (14, 8)], ids=["2d<n", "2d>n"])
    @pytest.mark.parametrize("slots", list(Slots), ids=lambda s: s.name)
    def test_margin_does_not_depend_on_the_weight(self, n, d, slots):
        # A diagonal similarity does not change invertibility, so every core
        # takes the unweighted certificate, whatever its weight.
        rng = np.random.default_rng(7 * n + d)
        psi = random_frame(rng, n, d)
        O = _random_operator(rng, d)
        Y, Y_err = _splitting_factor(O, psi, slots)
        W, margin = woodbury_certificate(psi.analysis_matrix, Y, Y_err)
        for w in (None, np.full(n, np.exp(3.0)), np.exp(rng.uniform(-4.0, 4.0, n))):
            core = _SplitCore(O, psi, slots, w)
            assert core.certificate_margin == margin
            assert np.array_equal(core.W, W)
            assert core.invertible()

    def test_float_does_not_close_at_t14(self):
        # mu = (1+|x|)^14: sigma_min/sigma_max is 7.3e-25, and the float
        # residual itself is far above 1, so the verdict stays open.
        core, O, psi, w = _gabor_core(32, 14.0)
        Y = _splitting_factor(O, psi, Slots.PSI_PSI)[0]
        assert extended_residual(core.W, Y, O, psi, Slots.PSI_PSI) > 1.0
        assert core.certificate_margin > 1.0
        assert not core.invertible()

    @pytest.mark.parametrize(
        "case, margin, sigma, inverse_norm",
        [
            ("gabor32-t6", 0.0005043599374219882, (0.013426401122720272, 18299392.942669757), 74.48012247360846),
            ("verify32-dual-dual", 2.3619959584879194e-08, (1.0, 474.3835172962562), 1.0),
            ("random14x8-Q-None", 6.873646593046427e-11, (0.0022980607670503887, 1670.4903111004041), 435.14950271899113),
        ],
    )
    def test_core_numbers_are_pinned(self, case, margin, sigma, inverse_norm):
        # Exact values of the core's three reported numbers. How the core
        # holds its factors and temporaries must not move a digit: any
        # change here is a change of arithmetic, to be argued on its own.
        # The cores: a weighted Gabor core at a steep symbol, a unit-weight
        # slot core on a Gabor frame, and one with 2d >= n. Against the
        # 40-digit singular values of I + X_w Y_w from the same float
        # factors, sigma_max sits 3.9e-17 (verify32) and 3.8e-16
        # (random14x8) off, sigma_min and the inverse norm of random14x8
        # 2.6e-16 and 2.2e-16. gabor32-t6 is held to B_w built at 50 digits
        # from the float frame by tests/test_oracle.py.
        core = _pinned_core(case)
        assert core.certificate_margin == margin
        assert core.sigma == sigma
        assert core.inverse_norm == inverse_norm

    def test_constant_symbol_lift_on_a_redundant_frame_matches_dense(self):
        # A constant mu gives a flat weight: [X, Y^H] has rank d, and the
        # reads through the factors still give B_w's extremes.
        rng = np.random.default_rng(41)
        psi = random_frame(rng, 40, 8)
        mu = np.full(psi.n, 3.0)
        report = lifting_theorem_pipeline(psi, mu, ps=(2,))
        O = multiplier(1.0 / mu, psi) @ multiplier(mu, psi)
        lo, hi = _dense_extremes(matalg.conjugate(invertibility_matrix(O, psi), np.sqrt(mu)))
        assert report["verdicts"]["B_invertible_l2_sqrt_mu"]
        assert report["residuals"]["B_sigma_min_over_max"] == pytest.approx(lo / hi, rel=1e-12)
        entry = report["residuals"]["step_iv"]["2"]
        assert entry["B_norm"] == pytest.approx(hi, rel=1e-12)
        assert entry["B_inv_norm"] == pytest.approx(1.0 / lo, rel=1e-12)

    def test_exactly_singular_core_gives_infinite_margin(self):
        # On an orthonormal basis with O = 0, B_O = I - C Dd = 0: LAPACK
        # finds I + Y X singular, and the margin is inf.
        psi = onb(4)
        core = _SplitCore(np.zeros((4, 4)), psi)
        assert core.certificate_margin == np.inf
        assert not core.invertible()

    @pytest.mark.parametrize("n, d", [(24, 8), (14, 8)], ids=["2d<n", "2d>n"])
    def test_inverse_matches_dense(self, n, d):
        rng = np.random.default_rng(13 * n + d)
        psi = random_frame(rng, n, d)
        w = rng.uniform(0.5, 2.0, n)
        O = _random_operator(rng, d)
        core = _SplitCore(O, psi, Slots.PSI_PSI, w)
        dense = np.linalg.inv(matalg.conjugate(invertibility_matrix(O, psi), w))
        inverse = assembled(core.X, -(core.W @ core.Y))  # the Woodbury inverse I - X_w (W Y_w)
        np.testing.assert_allclose(inverse, dense, rtol=0, atol=1e-12 * np.abs(dense).max())


class TestFactorizations:
    """A certified core reads both 2-norms through X_w, Y_w and -(W Y_w);
    its one factorization is the certificate's d x d inverse. A core whose
    certificate fails compresses B_w for one values-only SVD and keeps
    nothing of it."""

    @pytest.mark.parametrize(
        "case",
        [("gabor", N, 2.0) for N in (64, 128, 256)]
        + [("gabor", N, 6.0) for N in (32, 64)]
        + [("fock", R, 6.0) for R in (2.5, 4.0, 5.5, 7.0, 8.0)],
        ids=lambda c: f"{c[0]}-{c[1]:g}-t{c[2]:g}",
    )
    def test_workload_cores_factorize_nothing_larger_than_d(self, case, monkeypatch):
        # Every step (i) core of the three benchmark workloads that the
        # certificate passes: gabor-ladder's, steep-mix's Gabor t = 6 and
        # its Fock sizes (2d >= n from R = 5.5 on). The one inverse is the
        # certificate's d x d W; no QR or SVD is made, and each
        # Golub-Kahan-Lanczos run, of B_w and of its inverse, ends within a
        # few dozen steps (13 at most here).
        O, psi, _, w = splitting_case(*case)
        inv, identity_plus, steps = np.linalg.inv, matalg.identity_plus, []

        def forbidden(*args, **kwargs):
            raise AssertionError("a certified core made a QR or an SVD")

        def small_inv(a):
            assert a.shape == (psi.d, psi.d)
            return inv(a)

        def counted(U, V):
            apply, apply_adjoint, n = identity_plus(U, V)
            steps.append(0)

            def step(v):
                steps[-1] += 1
                return apply(v)

            return step, apply_adjoint, n

        monkeypatch.setattr(np.linalg, "qr", forbidden)
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        monkeypatch.setattr(np.linalg, "inv", small_inv)
        monkeypatch.setattr(matalg, "identity_plus", counted)
        core = _SplitCore(O, psi, w=w)
        lo, hi = core.sigma
        assert core.invertible() and lo == 1.0 / core.inverse_norm and hi > 1.0
        assert len(steps) == 2 and max(steps) <= 24

    @pytest.mark.parametrize("N", [16, 32])
    def test_uncertified_core_holds_no_k_by_k_array(self, N, nxn_factorizations):
        # Gabor t = 14 (steep-mix's failing rows): sigma compresses B_w to a
        # 2d x 2d K for its SVD and drops it, so nothing n x n is factorized;
        # the core keeps its n x d and d x n factors, the d x d W and the
        # weight alone.
        core = _gabor_core(N, 14.0)[0]
        square = nxn_factorizations(core.n)
        lo, hi = core.sigma
        assert square == []
        assert not core.invertible() and 0.0 < lo < 1e-16 * hi
        assert core.inverse_norm is None and core.inverse_factor is None
        n, d = core.X.shape
        shapes = {np.shape(v) for v in vars(core).values() if isinstance(v, np.ndarray)}
        assert shapes <= {(n, d), (d, n), (d, d), (n,)}


    @pytest.mark.parametrize("N", [16, 32])
    def test_uncertified_sigma_min_is_at_most_one_when_d_below_n(self, N, monkeypatch):
        # B_w is the identity on ker Y_w when d < n, so sigma_min(B_w) <= 1
        # whatever K's values-only SVD returns. Patched to return values
        # above 1 on this uncertified core, it leaves sigma_min at 1.
        core = _gabor_core(N, 14.0)[0]
        assert not core.invertible() and core.X.shape[1] < core.n
        svd = np.linalg.svd

        def above_one(a, compute_uv=True):
            assert not compute_uv
            return 2.0 + svd(a, compute_uv=False)

        monkeypatch.setattr(np.linalg, "svd", above_one)
        assert core.sigma[0] == 1.0


class TestSpectralInvariance:
    def test_suite_reports_constants_per_weight_and_p(self, rng, small_frame):
        mu = _random_symbol(rng, small_frame.n)
        M = multiplier(mu, small_frame)
        w = Weight.polynomial(small_frame.index_set, 2.0)
        rep = spectral_invariance_suite(M, small_frame, weights=[w], ps=[1, 2, np.inf], s=4.0)
        assert rep["operator_invertible"] is True
        assert np.isfinite(rep["galerkin_decay_constant"])
        assert rep["galerkin_decay_constant"] > 0
        assert set(rep["constants"]) == {"w0_p1", "w0_p2", "w0_pinf"}
        for entry in rep["constants"].values():
            lo, hi = entry["norm"]
            assert 0 < lo <= hi
            assert entry["invertible"] is True
            ilo, ihi = entry["inverse_norm"]
            assert 0 < ilo <= ihi

    def test_suite_entries_equal_the_one_shot_norms(self, rng, small_frame):
        mu = _random_symbol(rng, small_frame.n)
        M = multiplier(mu, small_frame)
        ws = [Weight.constant(small_frame.index_set, 1.0), Weight.polynomial(small_frame.index_set, 1.0)]
        ps = [1, 2, 3, np.inf]
        rep = spectral_invariance_suite(M, small_frame, weights=ws, ps=ps, s=4.0)
        inv = np.linalg.inv(M)
        for i, w in enumerate(ws):
            for p in ps:
                entry = rep["constants"][f"w{i}_p{p}"]
                for key, T in (("norm", M), ("inverse_norm", inv)):
                    assert entry[key] == map_constants(*_coefficient_maps(small_frame, T, w, w), p)["upper"]

    def test_suite_factors_only_the_weighted_dual_analysis_map(self, monkeypatch):
        # Only upper sides are reported: per weight, the one map factorized
        # is B = diag(m) C_dual, by one thin SVD; neither A nor A_inv is.
        psi = gabor_system(32, 2, 4)
        M = multiplier(Weight.polynomial(psi.index_set, 2.0), psi)
        ws = [Weight.constant(psi.index_set, 1.0), Weight.polynomial(psi.index_set, 1.0)]
        maps = [(_coefficient_maps(psi, M, w, w), _coefficient_maps(psi, np.linalg.inv(M), w, w)[0]) for w in ws]
        svd, seen = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            seen.append((np.array(a), kwargs.get("full_matrices", True)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        rep = spectral_invariance_suite(M, psi, weights=ws, ps=[1, 2, 3, np.inf], s=4.0)
        assert rep["operator_invertible"]
        for (A, B), A_inv in maps:
            assert [full for a, full in seen if np.array_equal(a, B)] == [False]
            assert not any(np.array_equal(a, A) or np.array_equal(a, A_inv) for a, _ in seen)

    def test_suite_flags_singular_operator(self, rng, small_frame):
        f = random_vector(rng, small_frame.d)
        w = Weight.constant(small_frame.index_set, 1.0)
        rep = spectral_invariance_suite(
            np.outer(f, f.conj()), small_frame, weights=[w], ps=[2], s=4.0
        )
        assert rep["operator_invertible"] is False
        assert "inverse_norm" not in rep["constants"]["w0_p2"]
