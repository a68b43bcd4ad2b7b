"""The rounding model and both of Rump's certificates, against residuals and
errors evaluated in extended precision (np.clongdouble)."""

import numpy as np
import pytest

from framelift import verified
from framelift.frames import random_frame
from framelift.multipliers import Slots, _splitting_factor
from tests.reference import extended_residual, splitting_case, woodbury_residual


def cmat(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _certified(O, psi, slots=Slots.PSI_PSI) -> tuple:
    """(Y, W, r): the float factor Y, the Woodbury core's W and the margin."""
    Y, Y_err = _splitting_factor(O, psi, slots)
    return (Y, *verified.woodbury_certificate(psi.analysis_matrix, Y, Y_err))


class TestRoundingModel:
    def test_gamma_constants(self):
        u = 2.0**-53
        assert verified.UNIT_ROUNDOFF == u
        assert verified.gamma(3) == pytest.approx(3 * u, rel=1e-15)
        assert verified.gamma_c(4) == pytest.approx(np.sqrt(2) * 10 * u, rel=1e-15)

    def test_certified_bound_raises_and_reads_an_overflow_as_inf(self):
        assert verified.certified_bound(1.0, 10) == 1.0 + verified.gamma(10) > 1.0
        assert verified.certified_bound(np.nan, 10) == verified.certified_bound(np.inf, 10) == np.inf

    @pytest.mark.parametrize("case", ["rounding", "L", "P", "from-zero"])
    def test_left_product_error_bounds_the_extended_precision_error(self, rng, case):
        # L and P stand for L + dL and P + dP, and their error maps are |dL|
        # and |dP|. The map of fl(L P) must bound its distance from the
        # exact product, which clongdouble evaluates with 11 more bits. Each
        # case is set by one term of the map: rounding alone (gamma_c |L| |P|),
        # dL alone (L_err |P|), dP alone (|L| P_err), and L = P = 0, where
        # only L_err P_err is left.
        L, P = cmat(rng, 6, 9), cmat(rng, 9, 5)
        dL = 1e-9 * cmat(rng, 6, 9) if case in ("L", "from-zero") else np.zeros((6, 9))
        dP = 1e-9 * cmat(rng, 9, 5) if case in ("P", "from-zero") else np.zeros((9, 5))
        if case == "from-zero":
            L, P, dL, dP = 0 * L, 0 * P, 1e9 * dL, 1e9 * dP
        err = verified.left_product_error(L, lambda v: np.abs(dL) @ v, P, lambda v: np.abs(dP) @ v)
        LD = np.clongdouble
        exact = (L.astype(LD) + dL.astype(LD)) @ (P.astype(LD) + dP.astype(LD))
        v = np.ones(5)
        moved = np.abs(exact - (L @ P).astype(LD)) @ v.astype(LD)
        assert np.all(moved <= err(v))
        assert np.all(moved > (0.0 if case == "rounding" else 1e-12))


class TestDenseCertificate:
    def test_detects_rank_deficiency(self, rng):
        A = cmat(rng, 5, 3) @ cmat(rng, 3, 5)
        assert not verified.dense_certificate(A)[1] < 1.0
        assert verified.dense_certificate(A + 2.0 * np.eye(5))[1] < 1.0

    def test_margin_bounds_the_extended_precision_residual(self, rng):
        # diag(e^-6..e^6) A spreads the rows over five decades; the bound
        # covers ||I - A inv(A)||_inf evaluated with a 64-bit mantissa.
        A = np.exp(rng.uniform(-6.0, 6.0, 12))[:, None] * cmat(rng, 12)
        X = np.linalg.inv(A).astype(np.clongdouble)
        R = np.eye(12, dtype=np.clongdouble) - A.astype(np.clongdouble) @ X
        residual = float(np.abs(R).sum(axis=1).max())
        assert residual <= verified.dense_certificate(A)[1] < 1e-8

    def test_exactly_singular_matrix_has_infinite_margin(self):
        X, margin = verified.dense_certificate(np.zeros((3, 3)))
        assert X is None and margin == np.inf

    def test_ill_conditioned_but_invertible(self):
        # cond 1e12 is far past any ratio threshold, yet certified.
        A = np.diag([1.0, 1e-6, 1e-12])
        assert verified.dense_certificate(A)[1] < 1e-12

    def test_only_square_matrices(self):
        with pytest.raises(ValueError, match="square"):
            verified.dense_certificate(np.ones((2, 3)))

    def test_inverse_is_lapacks_bit_for_bit(self, rng):
        # The suite reads O^{-1} from the certificate: the one LAPACK call.
        A = cmat(rng, 9)
        X, margin = verified.dense_certificate(A)
        assert np.array_equal(X, np.linalg.inv(A)) and margin < 1.0


class TestWoodburyCertificate:
    """B_O's verdict is Rump's certificate on its d x d Woodbury core: a
    bound r on ||I - B_O Xt||_inf below 1, Xt = I - C W Y."""

    @pytest.mark.parametrize("n, d", [(24, 8), (14, 8), (8, 8)], ids=["2d<n", "2d>n", "onb"])
    @pytest.mark.parametrize("slots", list(Slots), ids=lambda s: s.name)
    def test_margin_bounds_the_extended_precision_residual(self, n, d, slots):
        # The residual is evaluated with a 64-bit mantissa; the margin, with
        # every rounding counted, must lie above it.
        rng = np.random.default_rng(5 * n + d)
        psi = random_frame(rng, n, d, kind="onb" if n == d else "generic")
        O = cmat(rng, d)
        Y, W, margin = _certified(O, psi, slots)
        residual = extended_residual(W, Y, O, psi, slots)
        assert residual <= margin < 1e-6

    @pytest.mark.parametrize("n, d", [(24, 8), (14, 8)], ids=["2d<n", "2d>n"])
    @pytest.mark.parametrize("slots", [Slots.PSI_PSI, Slots.DUAL_DUAL], ids=lambda s: s.name)
    def test_margin_counts_a_perturbation_of_y_made_after_w(self, n, d, slots, monkeypatch):
        # After W is formed, Y gains E of size 1e-8 max|Y|, so W no longer
        # inverts I + Y X: the certificate forms G from the Y it is given,
        # and the margin must still bound the residual of the perturbed B.
        rng = np.random.default_rng(29 + n)
        psi = random_frame(rng, n, d)
        O = cmat(rng, d)
        Y, W, _ = _certified(O, psi, slots)
        E = 1e-8 * np.abs(Y).max() * (rng.standard_normal(Y.shape) + 1j * rng.standard_normal(Y.shape))
        Y_err = _splitting_factor(O, psi, slots)[1]
        monkeypatch.setattr(np.linalg, "inv", lambda M: W)  # the W of the unperturbed Y
        W_kept, margin = verified.woodbury_certificate(psi.analysis_matrix, Y + E, Y_err)
        assert W_kept is W
        residual = extended_residual(W, Y, O, psi, slots, E)
        assert residual > 1e-9  # E, not rounding, sets the residual
        assert residual <= margin < 1.0

    @pytest.mark.parametrize("n, d", [(24, 8), (14, 8)], ids=["2d<n", "2d>n"])
    def test_margin_counts_the_rounding_of_y_x(self, n, d):
        # B = I + C Y for a Y taken as exact (no error map), O = 1e-6 I: Y X
        # is -I up to 1e-6, so I + fl(Y X) keeps few of the digits of Y X,
        # and only the gamma_c(n) |Y| |X| term counts what was lost.
        rng = np.random.default_rng(3)
        psi = random_frame(rng, n, d)
        Y = _splitting_factor(1e-6 * np.eye(d), psi, Slots.PSI_PSI)[0]
        W, margin = verified.woodbury_certificate(psi.analysis_matrix, Y, lambda v: np.zeros(d))
        LD = np.clongdouble
        B = np.eye(n, dtype=LD) + psi.analysis_matrix.astype(LD) @ Y.astype(LD)
        residual = woodbury_residual(B, W, Y, psi)
        assert residual > 1e-10
        assert residual <= margin < 1e-3

    @pytest.mark.parametrize("n, d", [(24, 8), (48, 8)])
    def test_margin_counts_the_rounding_in_y(self, n, d):
        # O = S^{-1} in float: B_O = I + C (O D - Dd) is the identity up to
        # rounding, and the float Y = fl(O D) - Dd is rounding alone, so
        # Y's error map sets the margin.
        rng = np.random.default_rng(3)
        psi = random_frame(rng, n, d)
        O = np.linalg.inv(psi.frame_operator)
        Y, W, margin = _certified(O, psi)
        residual = extended_residual(W, Y, O, psi, Slots.PSI_PSI)
        assert residual > 1e-17
        assert residual <= margin < 1e-10

    @pytest.mark.parametrize("N, t_mu", [(16, 2.0), (32, 2.0), (16, 6.0), (32, 6.0)])
    def test_gabor_splitting_is_certified(self, N, t_mu):
        # Gabor, mu = (1+|x|)^t on l^2_sqrt(mu). At t = 6 sigma_min/sigma_max
        # is 2.5e-8 at N = 16 and 7.3e-10 at N = 32, and 40-digit mpmath
        # SVDs agree. The matrix is invertible, and the certificate says so.
        O, psi, _, _ = splitting_case("gabor", N, t_mu)
        Y, W, margin = _certified(O, psi)
        residual = extended_residual(W, Y, O, psi, Slots.PSI_PSI)
        assert residual <= margin < 1e-2
