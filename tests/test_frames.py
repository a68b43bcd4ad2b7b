"""Frames: bounds, duals, Gram identities, factories."""

import numpy as np
import pytest

from framelift import matalg
from framelift.frames import (
    Frame,
    NotAFrameError,
    gram_identities_check,
    onb,
    random_frame,
)
from framelift.gabor import gabor_system
from tests.conftest import random_vector
from tests.reference import gram


class TestBasics:
    def test_onb_coefficients_are_the_vector(self, rng):
        fr = onb(5)
        f = random_vector(rng, 5)
        np.testing.assert_allclose(fr.analysis_matrix @ f, f)
        assert fr.bounds == pytest.approx((1.0, 1.0))

    def test_analysis_convention_conjugates_the_frame_vector(self, rng):
        fr = random_frame(rng, 7, 4)
        f = random_vector(rng, 4)
        want = np.array([np.sum(f * np.conj(fr.synthesis_matrix[:, k])) for k in range(7)])
        np.testing.assert_allclose(fr.analysis_matrix @ f, want, atol=1e-12)

    def test_synthesis_is_adjoint_of_analysis(self, rng):
        fr = random_frame(rng, 9, 5)
        f = random_vector(rng, 5)
        c = random_vector(rng, 9)
        # <Df, g> = <f, Cg> up to conjugation layout: here check matrices directly
        np.testing.assert_allclose(
            fr.synthesis_matrix, fr.analysis_matrix.conj().T, atol=1e-15
        )
        lhs = np.sum((fr.synthesis_matrix @ c) * np.conj(f))
        rhs = np.sum(c * np.conj(fr.analysis_matrix @ f))
        assert lhs == pytest.approx(rhs)

    def test_tight_frame_bounds_are_redundancy(self, tight_frame):
        A, B = tight_frame.bounds
        assert A == pytest.approx(2.0, abs=1e-10)
        assert B == pytest.approx(2.0, abs=1e-10)

    def test_union_of_two_bases_is_tight_with_bound_two(self, rng):
        q1 = np.linalg.qr(random_vector(rng, 16).reshape(4, 4))[0]
        q2 = np.linalg.qr(random_vector(rng, 16).reshape(4, 4))[0]
        fr = Frame(np.hstack([q1, q2]))
        A, B = fr.bounds
        assert (A, B) == pytest.approx((2.0, 2.0), abs=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_vectors(self, bad):
        V = np.eye(3, dtype=complex)
        V[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            Frame(V)

    def test_gabor_z16_square_lattice_bounds(self):
        fr = gabor_system(16, 2, 2)
        A, B = fr.bounds
        assert A == pytest.approx(3.970176713771091, rel=1e-9)
        assert B == pytest.approx(4.029934881184299, rel=1e-9)


class TestFrameProperty:
    def test_rank_deficient_family_raises_with_bounds_attached(self, rng):
        vecs = np.zeros((4, 6), dtype=complex)
        vecs[:2] = rng.standard_normal((2, 6))  # spans only 2 of 4 dimensions
        fr = Frame(vecs)
        assert not fr.is_frame
        with pytest.raises(NotAFrameError) as exc_info:
            fr.canonical_dual()
        assert exc_info.value.lower == pytest.approx(0.0, abs=1e-12)
        assert exc_info.value.upper > 0

    def test_dual_of_non_frame_refuses(self, rng):
        vecs = np.zeros((3, 5), dtype=complex)
        vecs[0] = rng.standard_normal(5)
        with pytest.raises(NotAFrameError):
            Frame(vecs).canonical_dual()


class TestDuality:
    def test_dual_of_dual_returns_original(self, small_frame):
        dd = small_frame.canonical_dual().canonical_dual()
        np.testing.assert_allclose(dd.synthesis_matrix, small_frame.synthesis_matrix, atol=1e-10)

    def test_dual_gram_is_pseudo_inverse_of_gram(self, small_frame):
        Gd = small_frame.canonical_dual().gram_matrix
        np.testing.assert_allclose(Gd, matalg.pseudo_inverse(small_frame.gram_matrix), atol=1e-10)

    def test_cross_gram_slots(self, rng):
        psi = random_frame(rng, 8, 4)
        phi = random_frame(rng, 8, 4)
        # entry (k, l) pairs phi_l against psi_k
        G = gram(psi, phi)
        want = psi.analysis_matrix @ phi.synthesis_matrix
        np.testing.assert_allclose(G, want, atol=1e-14)


class TestGramIdentities:
    def test_random_frames_pass(self, rng):
        for _ in range(5):
            fr = random_frame(rng, 10, 6)
            chk = gram_identities_check(fr)
            assert chk["ok"], chk
            assert chk["projection_rank"] == 6

    def test_projection_eats_analysis_range_only(self, rng):
        fr = random_frame(rng, 9, 4)
        dual = fr.canonical_dual()
        P = gram(fr, dual)
        c = fr.analysis_matrix @ random_vector(rng, 4)
        np.testing.assert_allclose(P @ c, c, atol=1e-10)
        # a vector in the kernel of the synthesis map is annihilated
        ns = np.linalg.svd(fr.synthesis_matrix)[2][4:].conj().T
        kvec = ns @ random_vector(rng, 5)
        np.testing.assert_allclose(fr.synthesis_matrix @ kvec, 0, atol=1e-10)
        np.testing.assert_allclose(P @ kvec, 0, atol=1e-10)


def _dense_gram_identities(frame, rtol=1e-10):
    """The n x n reference route: pinv of G, a full SVD of D for ker(D_Psi),
    and n x n x n products."""
    dual = frame.canonical_dual()
    G = frame.gram_matrix
    Gd = dual.gram_matrix
    P = gram(frame, dual)
    Gp = np.linalg.pinv(G, rcond=1e-12, hermitian=True)
    C = frame.analysis_matrix
    n = C.shape[0]
    resid = {
        "product_identity": float(np.abs(G @ Gd - P).max()) / max(1.0, float(np.abs(G).max())),
        "pinv_cross": float(np.abs(Gp @ G - P).max()),
        "pinv_dual": float(np.abs(Gp @ Gp @ G - Gd).max()) / max(1.0, float(np.abs(Gd).max())),
        "idempotent": float(np.abs(P @ P - P).max()),
        "self_adjoint": float(np.abs(P - P.conj().T).max()),
        "fixes_analysis_range": float(np.abs(P @ C - C).max()) / max(1.0, float(np.abs(C).max())),
    }
    _, sv, vh = np.linalg.svd(frame.synthesis_matrix)
    null = vh[np.sum(sv > sv[0] * 1e-12) :].conj().T
    if null.shape[1] > 0:
        resid["kills_synthesis_kernel"] = float(np.abs(P @ null).max())
        resid["splitting"] = float(np.abs(frame.synthesis_matrix @ (np.eye(n) - P)).max())
    else:
        resid["kills_synthesis_kernel"] = 0.0
        resid["splitting"] = 0.0
    resid["projection_rank"] = int(np.round(np.trace(P).real))
    resid["ok"] = all(v < rtol for k, v in resid.items() if k != "projection_rank")
    return resid


IDENTITY_CASES = ["generic-2d<n", "generic-2d>n", "tight", "onb", "gabor"]


def _identity_case(name: str) -> Frame:
    rng = np.random.default_rng(IDENTITY_CASES.index(name))
    if name == "generic-2d<n":
        return random_frame(rng, 24, 8)
    if name == "generic-2d>n":
        return random_frame(rng, 14, 8)
    if name == "tight":
        return random_frame(rng, 12, 4, kind="tight")
    if name == "onb":
        return random_frame(rng, 8, 8, kind="onb")
    return gabor_system(16, 2, 4)


class TestGramIdentitiesInDSpace:
    """gram_identities_check against the dense n x n formulas it replaced."""

    @pytest.mark.parametrize("case", IDENTITY_CASES)
    def test_matches_dense_route(self, case):
        fr = _identity_case(case)
        got, want = gram_identities_check(fr), _dense_gram_identities(fr)
        assert got.keys() == want.keys()
        assert got["ok"] is want["ok"] is True
        assert got["projection_rank"] == want["projection_rank"] == fr.d
        for key in want.keys() - {"ok", "projection_rank"}:
            assert abs(got[key] - want[key]) <= 1e-12, key

    @pytest.mark.parametrize("case", IDENTITY_CASES)
    def test_perturbed_dual_fails_both_routes(self, monkeypatch, case):
        fr = _identity_case(case)
        dual = fr.canonical_dual()
        noise = np.random.default_rng(5).standard_normal((2, fr.d, fr.n))
        bad = Frame(dual.vectors + 1e-6 * (noise[0] + 1j * noise[1]), dual.index_set)
        monkeypatch.setattr(fr, "canonical_dual", lambda: bad)
        assert gram_identities_check(fr)["ok"] is False
        assert _dense_gram_identities(fr)["ok"] is False


class TestFactories:
    def test_generic_tight_onb_kinds(self, rng):
        assert random_frame(rng, 8, 5).is_frame
        t = random_frame(rng, 8, 4, kind="tight")
        np.testing.assert_allclose(t.frame_operator, 2.0 * np.eye(4), atol=1e-10)
        o = random_frame(rng, 6, 6, kind="onb")
        np.testing.assert_allclose(o.frame_operator, np.eye(6), atol=1e-10)

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ValueError):
            random_frame(rng, 6, 3, kind="wavelet")

    @pytest.mark.parametrize("n, d, kind", [(64, 16, "tight"), (256, 32, "tight"), (6, 6, "onb")])
    def test_tight_frame_factors_only_d_columns(self, monkeypatch, n, d, kind):
        qr, shapes = np.linalg.qr, []

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        fr = random_frame(np.random.default_rng(3), n, d, kind=kind)
        assert shapes == [(n, d)]
        # The construction that factored the whole n x n draw: the first d
        # columns of its Q depend on the first d columns of the draw alone.
        rng = np.random.default_rng(3)
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q = qr(M)[0]
        want = Q.conj().T if kind == "onb" else Q[:, :d].conj().T * np.sqrt(n / d)
        np.testing.assert_array_equal(fr.synthesis_matrix, want)
