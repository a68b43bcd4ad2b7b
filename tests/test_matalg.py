"""Weighted conjugation, pseudo-inverses, induced norms, and decay bookkeeping."""

import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelift import matalg
from framelift.fock import fock_gram_exact
from framelift.weights import IndexSet
from tests import reference
from tests.reference import schur_constant, schur_product_constant


def cmat(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


class TestConjugate:
    def test_entrywise_formula(self):
        A = np.arange(4.0).reshape(2, 2) + 1.0
        mu = np.array([2.0, 3.0])
        got = matalg.conjugate(A, mu)
        want = np.diag(mu) @ A @ np.diag(1.0 / mu)
        np.testing.assert_allclose(got, want)

    def test_trivial_weight_is_identity(self, rng):
        A = cmat(rng, 5)
        np.testing.assert_allclose(matalg.conjugate(A, np.ones(5)), A)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    def test_homomorphism_property(self, n, seed):
        """Conjugation respects products: (AB)^mu = A^mu B^mu."""
        r = np.random.default_rng(seed)
        A = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        B = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        mu = np.exp(r.uniform(-1, 1, n))
        lhs = matalg.conjugate(A @ B, mu)
        rhs = matalg.conjugate(A, mu) @ matalg.conjugate(B, mu)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_adjoint_interchanges_weight_and_reciprocal(self, rng):
        A = cmat(rng, 6)
        mu = np.exp(rng.uniform(-1, 1, 6))
        lhs = matalg.conjugate(A, 1.0 / mu)
        rhs = matalg.conjugate(A.conj().T, mu).conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPseudoInverse:
    def test_penrose_conditions(self, rng):
        A = cmat(rng, 6, 4)
        P = matalg.pseudo_inverse(A)
        np.testing.assert_allclose(A @ P @ A, A, atol=1e-10)
        np.testing.assert_allclose(P @ A @ P, P, atol=1e-10)
        np.testing.assert_allclose((A @ P).conj().T, A @ P, atol=1e-10)
        np.testing.assert_allclose((P @ A).conj().T, P @ A, atol=1e-10)

    def test_plain_pinv_does_not_commute_with_conjugation(self):
        """The unweighted pseudo-inverse is the wrong object on weighted spaces."""
        A = np.array([[1.0, 1.0], [1.0, 1.0]]) / 2.0  # rank-1 projection
        mu = np.array([2.0, 1.0])
        pinv_of_conj = matalg.pseudo_inverse(matalg.conjugate(A, mu))
        conj_of_pinv = matalg.conjugate(matalg.pseudo_inverse(A), mu)
        assert np.abs(pinv_of_conj - conj_of_pinv).max() > 0.1

    def test_plain_pinv_commutes_for_invertible_matrices(self, rng):
        A = cmat(rng, 5) + 5.0 * np.eye(5)
        mu = np.exp(rng.uniform(-1, 1, 5))
        lhs = matalg.pseudo_inverse(matalg.conjugate(A, mu))
        rhs = matalg.conjugate(matalg.pseudo_inverse(A), mu)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def _identity_plus(A: np.ndarray) -> tuple:
    """Factors (U, V) = (I, A - I) of A = I + U V."""
    eye = np.eye(len(A))
    return eye, A - eye


class TestOperatorNorm:
    def test_exact_values_small_matrix(self):
        A = np.array([[1.0, -2.0], [3.0, 4.0]])
        n2 = np.linalg.svd(A, compute_uv=False)[0]
        got = matalg.operator_norm(*_identity_plus(A), [1, 2, np.inf], n2)
        assert got[1] == reference.induced_norm(A, 1) == 6.0  # max column abs sum
        assert got[np.inf] == reference.induced_norm(A, np.inf) == 7.0  # max row abs sum
        assert got[2] == reference.induced_norm(A, 2) == pytest.approx(n2)

    def test_intermediate_p_returns_valid_bracket(self, rng):
        A = cmat(rng, 8)
        lo, hi = reference.induced_norm(A, 1.5)
        assert 0 < lo <= hi
        flo, fhi = matalg.operator_norm(*_identity_plus(A), [1.5], reference.induced_norm(A, 2))[1.5]
        assert 0 < flo <= fhi
        # the bracket must contain a densely sampled lower estimate
        dense = reference.sampled_ratios(A, None, 1.5, 512, seed=5).max()
        assert dense <= hi * (1 + 1e-12)
        assert dense <= fhi * (1 + 1e-12)

    def test_scan_keeps_the_draw_order_of_a_per_vector_loop(self):
        # The reference draws each f as n real parts, then n imaginary parts,
        # and takes one matrix-vector product per draw.
        rng = np.random.default_rng(11)
        A, U, V = cmat(rng, 12), cmat(rng, 12, 4), cmat(rng, 4, 12)
        draws = np.random.default_rng(0)
        best, best_T = 0.0, 0.0
        for _ in range(matalg.MAP_SAMPLES):
            v = draws.standard_normal(12) + 1j * draws.standard_normal(12)
            den = float((np.abs(v) ** 3).sum() ** (1 / 3))
            best = max(best, float((np.abs(A @ v) ** 3).sum() ** (1 / 3)) / den)
            best_T = max(best_T, float((np.abs(v + U @ (V @ v)) ** 3).sum() ** (1 / 3)) / den)
        lo, _ = reference.induced_norm(A, 3)
        assert lo == pytest.approx(best, rel=1e-15, abs=0)
        T = reference.assembled(U, V)
        lo, _ = matalg.operator_norm(U, V, [3], reference.induced_norm(T, 2))[3]
        assert lo == pytest.approx(best_T, rel=1e-15, abs=0)

    @pytest.mark.parametrize("d, seed", [(1, 0), (12, 0), (40, 7)])
    def test_fewer_draws_are_the_first_draws_of_the_scan(self, d, seed):
        # A seed fixes draw i whatever the count, so a longer scan can only
        # raise the lower end of a bracket.
        np.testing.assert_array_equal(matalg._draws(matalg.MAP_SAMPLES, d, seed)[:64], matalg._draws(64, d, seed))

    def test_diagonal_matrix_all_p_agree(self):
        D = np.diag([3.0, -1.0, 2.0])
        got = matalg.operator_norm(*_identity_plus(D), [1, 2, np.inf, 1.7], 3.0)
        for p in (1, 2, np.inf):
            assert reference.induced_norm(D, p) == pytest.approx(3.0)
            assert got[p] == pytest.approx(3.0)
        for lo, hi in (reference.induced_norm(D, 1.7), got[1.7]):
            assert lo <= 3.0 <= hi

    def test_no_draws_and_no_sums_at_p2_alone(self):
        # p = 2 is the 2-norm the caller gives: the factors are not read.
        assert matalg.operator_norm(np.ones((5, 2)), None, [2], 1.25) == {2: 1.25}

    def test_lower_ends_are_at_least_one_when_k_is_below_n(self):
        # T = I - 0.9 Q Q^H fixes the complement of ran(Q), so ||T||_p >= 1;
        # the scan alone reads 0.645 at p = 1.5 and 0.636 at p = 3.
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(cmat(rng, 40, 32))[0]
        U, V = -0.9 * Q, Q.conj().T
        scan = {p: reference.factor_ratios(U, V, p, matalg.MAP_SAMPLES, 0).max() for p in (1.5, 3)}
        assert max(scan.values()) < 0.7
        got = matalg.operator_norm(U, V, [1.5, 3], 1.0)
        for p in (1.5, 3):
            lo, hi = got[p]
            assert 1.0 == lo <= hi
        # With k = n there is no kernel to fix: T = I - 0.5 I reads 0.5.
        eye = np.eye(40)
        assert matalg.operator_norm(eye, -0.5 * eye, [3], 0.5)[3] == pytest.approx((0.5, 0.5), rel=1e-15)


def _arrays(x):
    """Every array reachable from x through tuples, lists and (weak) dicts."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from _arrays(y)
    elif isinstance(x, (dict, weakref.WeakKeyDictionary)):
        for y in x.values():
            yield from _arrays(y)


class TestFactored:
    @pytest.mark.parametrize("injective", [True, False])
    def test_u_is_released_once_the_left_inverse_is_read(self, rng, injective):
        # U's one reader is left_inverse; after it, the map holds no n x d
        # or d x n array but its matrix and its left inverse.
        n, d = 36, 8
        M = cmat(rng, n, d)
        if not injective:
            M[:, 3] = M[:, 0]
        F, L = matalg._Factored(M), matalg._Factored(cmat(rng, n, d))
        s = F.singular_values.copy()
        assert any(a.shape == (n, d) for a in _arrays(vars(F)) if a is not F.matrix)
        pinv = F.left_inverse
        assert (pinv is not None) is injective
        if injective:
            F.product_sums(L), F.product_svals(L), F.sampled_ratios(L, 3, 0)
        wide = [a.shape for a in _arrays(vars(F)) if a.shape in ((n, d), (d, n)) and a is not F.matrix and a is not pinv]
        assert wide == []
        assert np.array_equal(F.singular_values, s) and F.injective is injective

    def test_left_inverse_is_the_pseudo_inverse_formula_bit_for_bit(self, rng):
        # Formed in U's own memory, it equals V diag(1/s) U^H evaluated with
        # fresh temporaries, bit for bit.
        M = cmat(rng, 40, 9)
        u, s, vh = np.linalg.svd(M, full_matrices=False)
        want = vh.conj().T @ ((1.0 / s)[:, None] * u.conj().T)
        assert np.array_equal(matalg._Factored(M).left_inverse, want)

    @pytest.mark.parametrize("readers", [0, 1, 2])
    def test_each_factor_dies_at_its_last_planned_reader(self, rng, readers):
        # U goes with the SVD when no left inverse has a reader, and the left
        # inverse after the last of its readers; the sums, the singular values
        # and the p = 2 products equal those of a map that keeps everything.
        n, d = 30, 6
        M = cmat(rng, n, d)
        Ls = [matalg._Factored(cmat(rng, n, d)) for _ in range(readers)]
        kept, F = matalg._Factored(M), matalg._Factored(M, readers)
        assert (F._svd[0] is None) is (readers == 0)
        assert np.array_equal(F.product_svals(kept), kept.product_svals(kept))
        for i, L in enumerate(Ls):
            assert F.product_sums(L) == kept.product_sums(L)
            assert (F._pinv is None) is (i == readers - 1)
            assert F.product_sums(L) == kept.product_sums(L)  # read again from the cache
        assert F._svd[0] is None and F._pinv is None
        assert not [a for a in _arrays(vars(F)) if a.shape in ((n, d), (d, n)) and a is not F.matrix]
        with pytest.raises(RuntimeError, match="last planned reader"):
            F.product_sums(matalg._Factored(cmat(rng, n, d)))


def _counted(op: tuple) -> tuple:
    """sigma_max's arguments ``op`` with a counter of the products with the
    operator and its adjoint, returned as (op, counter)."""
    apply, apply_adjoint, n = op
    counter = [0]

    def count(f):
        def counted(v):
            counter[0] += 1
            return f(v)

        return counted

    return (count(apply), count(apply_adjoint), n), counter


def _graded(rng, n):
    """A complex matrix with rows and columns scaled over 7 orders of magnitude."""
    w = np.exp(rng.uniform(-8.0, 8.0, n))
    return matalg.conjugate(cmat(rng, n), w)


def _operator(A: np.ndarray, form: str, U=None, V=None) -> tuple:
    """sigma_max's arguments for A: the dense matrix, or I + U V through the
    factors, by default U = A - I and V = I."""
    n = A.shape[0]
    if form == "dense":
        return (lambda v: A @ v), (lambda u: A.conj().T @ u), n
    return matalg.identity_plus(A - np.eye(n) if U is None else U, np.eye(n) if V is None else V)


@pytest.fixture(params=["dense", "identity+UV"])
def form(request):
    return request.param


class TestSigmaMax:
    """Golub-Kahan-Lanczos sigma_max against LAPACK's dense SVD, on a dense
    matrix and on the same matrix written as I + U V."""

    @pytest.mark.parametrize("n", [1, 7, 60, 200])
    @pytest.mark.parametrize("kind", ["plain", "real", "graded", "identity+low-rank"])
    def test_matches_dense_svd(self, n, kind, form):
        rng = np.random.default_rng(n)
        U = V = None
        if kind == "plain":
            A = cmat(rng, n)
        elif kind == "real":
            A = rng.standard_normal((n, n))
        elif kind == "graded":
            A = _graded(rng, n)
        else:  # I + X Y with inner dimension d >= n/2, as a core with 2d >= n
            d = max(1, (n + 1) // 2)
            w = np.exp(rng.uniform(-4.0, 4.0, n))
            U, V = w[:, None] * cmat(rng, n, d), cmat(rng, d, n) / w[None, :]
            A = np.eye(n) + U @ V
        want = np.linalg.svd(A, compute_uv=False)[0]
        assert matalg.sigma_max(*_operator(A, form, U, V)) == pytest.approx(want, rel=1e-14, abs=0)

    def test_degenerate_matrices_end_without_a_division_by_zero(self, form):
        x, y = cmat(np.random.default_rng(5), 9, 2).T
        with np.errstate(all="raise"):
            assert matalg.sigma_max(*_operator(np.zeros((9, 9)), form)) == 0.0
            assert matalg.sigma_max(*_operator(np.eye(9), form)) == pytest.approx(1.0, rel=1e-15)
            rank_one = matalg.sigma_max(*_operator(np.outer(x, y.conj()), form))
        assert rank_one == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y), rel=1e-14)

    def test_repeated_calls_are_identical(self, rng, form):
        A = _graded(rng, 50)
        op = _operator(A, form)
        assert matalg.sigma_max(*op) == matalg.sigma_max(*op) == matalg.sigma_max(*_operator(A.copy(), form))

    def test_run_ends_within_the_dimension(self, form):
        # A separated top value converges in a few steps. On evenly spaced
        # singular values the residual is still 65 u sigma at step n - 1, and
        # the run stops at step n, where the bidiagonalization is complete.
        # Each step takes one product with A and one with A^H.
        rng = np.random.default_rng(2)
        n = 40
        P, Q = (np.linalg.qr(cmat(rng, n))[0] for _ in range(2))
        separated, products = _counted(_operator((P * np.concatenate([[10.0], rng.uniform(0.0, 1.0, n - 1)])) @ Q.conj().T, form))
        assert matalg.sigma_max(*separated) == pytest.approx(10.0, rel=1e-14)
        assert products[0] <= 16
        even, products = _counted(_operator((P * np.linspace(1.0, 0.5, n)) @ Q.conj().T, form))
        assert matalg.sigma_max(*even) == pytest.approx(1.0, rel=1e-14)
        assert products[0] == 2 * n

    def test_identity_plus_holds_no_n_by_n_array(self):
        # I + U V with n = 2000, k = 8: the n x n I + U V would trace 64 MB;
        # the run holds its bases (2 n complex numbers a step) and
        # n-vectors alone.
        rng = np.random.default_rng(10)
        n, k = 2000, 8
        U, V = cmat(rng, n, k), cmat(rng, k, n)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            top = matalg.sigma_max(*matalg.identity_plus(U, V))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * n * n * np.dtype(complex).itemsize
        # I + U V is the identity off the span Q of ran U and ran V^H.
        Q = np.linalg.qr(np.hstack([U, V.conj().T]))[0]
        K = np.eye(2 * k) + (Q.conj().T @ U) @ (V @ Q)
        assert top == pytest.approx(np.linalg.svd(K, compute_uv=False)[0], rel=1e-14)

    def test_an_overflowing_start_product_raises_with_no_warning(self):
        # The first product (I + U V) v_1 overflows: inf cannot be rescaled
        # and bounds nothing, so the run raises before any warning.
        rng = np.random.default_rng(11)
        U, V = 1e300 * cmat(rng, 6, 2), 1e300 * cmat(rng, 2, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="start product A v_1 overflowed"):
                matalg.sigma_max(*matalg.identity_plus(U, V))


class TestDecayConstant:
    def test_all_ones_matrix_on_a_line(self):
        idx = IndexSet(np.arange(3.0))
        c = matalg.decay_constant(np.ones((3, 3)), 1.0, idx)
        assert isinstance(c, float)
        assert c == pytest.approx(3.0)

    def test_gaussian_gram_patch_value(self):
        # five collinear unit-spaced kernels: the s = 4 constant sits at
        # the nearest-neighbor pair, 2^4 * e^{-pi/2}
        lam = np.arange(5.0) + 0j
        idx = IndexSet(np.column_stack([lam.real, lam.imag]))
        c = matalg.decay_constant(fock_gram_exact(lam), 4.0, idx)
        assert c == pytest.approx(16.0 * np.exp(-np.pi / 2), rel=1e-12)


class TestSchurConstants:
    def test_kappa_two_points(self):
        idx = IndexSet(np.array([0.0, 1.0]))
        assert schur_constant(idx, 1.0) == pytest.approx(1.5)

    def test_kappa2_two_points(self):
        idx = IndexSet(np.array([0.0, 1.0]))
        assert schur_product_constant(idx, 1.0) == pytest.approx(2.0)

    def test_kappa_form_of_submultiplicativity_fails(self):
        """kappa * C(A) * C(B) does not dominate C(AB); the kappa2 form does."""
        idx = IndexSet(np.array([0.0, 1.0]))
        A = np.array([[1.0, 0.5], [0.5, 1.0]])
        cA = matalg.decay_constant(A, 1.0, idx)
        cAB = matalg.decay_constant(A @ A, 1.0, idx)
        kappa = schur_constant(idx, 1.0)
        kappa2 = schur_product_constant(idx, 1.0)
        assert cAB > kappa * cA * cA  # 2.0 vs 1.5
        assert cAB <= kappa2 * cA * cA * (1 + 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
    def test_kappa2_bound_holds_generically(self, n, seed):
        r = np.random.default_rng(seed)
        pts = np.sort(r.uniform(0, 10, n))
        pts += np.arange(n) * 1e-6  # keep points distinct
        idx = IndexSet(pts)
        A = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        B = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        s = 2.0
        bound = (
            schur_product_constant(idx, s)
            * matalg.decay_constant(A, s, idx)
            * matalg.decay_constant(B, s, idx)
        )
        assert matalg.decay_constant(A @ B, s, idx) <= bound * (1 + 1e-10)
