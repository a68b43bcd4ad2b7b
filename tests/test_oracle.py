"""p = 2 lifting constants against a 50-digit mpmath reference.

For a Gabor frame with synthesis matrix V (d x n), S = V V^H and M_w =
V diag(w) V^H, the p = 2 constants of M_mu : H^2_sqrt(mu) -> H^2_{1/sqrt(mu)}
are the square roots of the extreme eigenvalues of the Hermitian pencil

    (M_mu S^-1 M_{1/mu} S^-1 M_mu,  S^-1 M_mu S^-1),

the pencil of the benchmark's oracle. Here it is evaluated from the float
frame vectors and symbol values that framelift itself uses, so the
reference measures the error of framelift's route alone: the three d x d
Grams S, M_mu, M_{1/mu} are summed exactly in integer arithmetic, and
everything after them runs at 50 digits. With x = R y for S = R R^H, the
pencil is congruent to (Z^H Y_r Z, Y), where Y = R^-1 M_mu R^-H, Y_r =
R^-1 M_{1/mu} R^-H and Z = R^-1 M_mu R, so only triangular matrices are
inverted.

The extreme singular values of the splitting core K (see
:class:`framelift.multipliers._SplitCore`) are checked the same way: the
float K that framelift holds, with its singular values at 40 digits. A core
on the factor route holds no K; its sigma_max(B_w) and ||B_w^-1||_2 are
checked against B_w = I + C Y built at 40 digits from the float frame
vectors and symbol values (:func:`splitting_reference`).
"""

import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from framelift.coorbit import lifting_constants
from framelift.fock import FockFamily
from framelift.gabor import TFLattice, gabor_system
from framelift.multipliers import _SplitCore, multiplier
from framelift.weights import Weight

DPS = 50
RTOL = 1e-10


def _scaled_ints(a: np.ndarray):
    """Python integers N and an exponent E with a = N 2^-E exactly."""
    nz = np.abs(a[a != 0])
    E = 53 - min(math.frexp(float(x))[1] for x in nz) if nz.size else 0
    return np.vectorize(lambda x: int(math.ldexp(float(x), E)), otypes=[object])(a), E


def _weighted_outer(V: np.ndarray, w: np.ndarray, scaled=None):
    """V diag(w) V^H, summed exactly and rounded once to the working
    precision. ``scaled`` = (s, Es) gives the weights as integers s 2^-Es
    in place of the floats w."""
    Vr, Er = _scaled_ints(V.real)
    Vi, Ei = _scaled_ints(V.imag)
    E = max(Er, Ei)
    Vr, Vi = Vr * (1 << (E - Er)), Vi * (1 << (E - Ei))
    s, Es = _scaled_ints(w) if scaled is None else scaled
    Wr, Wi = Vr * s[None, :], Vi * s[None, :]
    re, im = Wr @ Vr.T + Wi @ Vi.T, Wi @ Vr.T - Wr @ Vi.T
    scale = mp.ldexp(1, -(2 * E + Es))
    d = V.shape[0]
    return mp.matrix([[mp.mpc(re[i, j], im[i, j]) * scale for j in range(d)] for i in range(d)])


def _lower_inverse(L):
    """Inverse of a lower-triangular mp matrix by forward substitution."""
    d = L.rows
    X = mp.zeros(d, d)
    for j in range(d):
        X[j, j] = 1 / L[j, j]
        for i in range(j + 1, d):
            X[i, j] = -mp.fdot((L[i, k], X[k, j]) for k in range(j, i)) / L[i, i]
    return X


def _hermitian(A):
    return (A + A.H) / 2


@functools.lru_cache(maxsize=None)
def _frame(N: int, a: int, b: int):
    """The Gabor frame and the Cholesky factor R of S with R^-1, at DPS digits."""
    psi = gabor_system(N, a, b)
    with mp.workdps(DPS):
        R = mp.cholesky(_hermitian(_weighted_outer(psi.vectors, np.ones(psi.n))))
        return psi, R, _lower_inverse(R)


def p2_reference(N: int, a: int, b: int, t_mu: float) -> tuple:
    psi, R, Ri = _frame(N, a, b)
    mu = Weight.polynomial(psi.index_set, t_mu).values
    with mp.workdps(DPS):
        RiM = Ri * _weighted_outer(psi.vectors, mu)
        Y = _hermitian(RiM * Ri.H)
        Yr = _hermitian(Ri * _weighted_outer(psi.vectors, 1.0 / mu) * Ri.H)
        U = (RiM * R) * _lower_inverse(mp.cholesky(Y)).H
        ev = sorted(mp.re(e) for e in mp.eighe(_hermitian(U.H * Yr * U), eigvals_only=True))
        return float(mp.sqrt(ev[0])), float(mp.sqrt(ev[-1])), psi, mu


# N = 32 at t_mu = 18 is left out: its map A fails the RANK_RTOL injectivity
# test, so the certified lower constant is 0.0 there by design.
CASES = [(16, 2, 2, t) for t in (2.0, 6.0, 14.0, 18.0)] + [(32, 2, 4, t) for t in (2.0, 6.0, 14.0)]


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"N{c[0]}-a{c[1]}-b{c[2]}-t{c[3]:g}")
def test_p2_constants_match_mpmath(case):
    lo_ref, hi_ref, psi, mu = p2_reference(*case)
    lo, hi = lifting_constants(psi, mu, p=2)
    assert lo == pytest.approx(lo_ref, rel=RTOL, abs=0)
    assert hi == pytest.approx(hi_ref, rel=RTOL, abs=0)


def test_core_extremes_match_mpmath(k_route):
    # Gabor N = 16 (k = 32), mu = (1+|x|)^6, on l^2_sqrt(mu): sigma_min /
    # sigma_max is 2.5e-8. The values-only SVD's sigma_min is 8.9e-14 off
    # the reference, 1/sigma_max(K^-1) 1.6e-16.
    lat = TFLattice.balanced(16, 4)
    psi = gabor_system(lat.N, lat.a, lat.b)
    mu = Weight.polynomial(psi.index_set, 6.0).values
    core = _SplitCore(multiplier(1.0 / mu, psi) @ multiplier(mu, psi), psi, w=np.sqrt(mu))
    assert core.invertible()
    with mp.workdps(40):
        K = mp.matrix([[mp.mpc(x.real, x.imag) for x in row] for row in core.K.tolist()])
        sv = mp.svd_c(K, compute_uv=False)
        lo, hi = min(sv), max(sv)

        def err(x):
            return float(abs(mp.mpf(float(x)) - lo) / lo)

        svd_lo = np.linalg.svd(core.K, compute_uv=False)[-1]
        assert core.sigma[1] == pytest.approx(float(hi), rel=1e-14, abs=0)
        assert err(core.sigma[0]) <= err(svd_lo)
        assert err(core.sigma[0]) <= 1e-14


def _reciprocal_squares(w: np.ndarray, bits: int = 300) -> tuple:
    """(s, bits): integers s with s 2^-bits within 2^-bits of 1 / w^2, for
    :func:`_weighted_outer`."""
    one = 1 << bits
    return np.array([int(one / Fraction(float(x)) ** 2) for x in w], dtype=object), bits


def splitting_reference(psi, mu: np.ndarray, w: np.ndarray) -> tuple:
    """(sigma_max, ||B_w^-1||_2) at 40 digits of B_w = diag(w) B diag(1/w),
    B = I + C Z D, Z = M_{1/mu} M_mu - S^-1, built from the float frame
    vectors and the float values of mu, 1/mu and w, for 2d < n and a w
    that is not flat.

    B_w = I + X Y with X = diag(w) C and Y = Z D diag(1/w), so
    B_w^H B_w - I = N J N^H for N = [X, Y^H] and J = [[0, I], [I, X^H X]].
    Its nonzero eigenvalues are those of H = L^H J L for the Cholesky
    factor L of the Gram matrix N^H N, whose blocks are
    X^H X = V diag(w^2) V^H, Y X = Z S and Y Y^H = Z (V diag(1/w^2) V^H) Z^H
    (V the synthesis matrix). H's extreme eigenvalues are the Rayleigh
    quotients rho of its float eigenvectors x after one Newton correction,
    with H x applied at 40 digits as L^H (J (L x)), each enclosed by the
    Kato-Temple bound: it lies between rho and rho -+ ||H x - rho x||^2 /
    gap, the gap taken to the next float eigenvalue less 1e-8 ||H||. An
    enclosure wider than 1e-30 of the squared singular value 1 + rho fails
    the call. B_w is the identity on the rest of C^n, so
    both norms are at least 1.
    """
    V = psi.vectors
    d = psi.d
    with mp.workdps(40):
        S = _hermitian(_weighted_outer(V, np.ones(psi.n)))
        Ri = _lower_inverse(mp.cholesky(S))
        Z = _weighted_outer(V, 1.0 / mu) * _weighted_outer(V, mu) - Ri.H * Ri
        ws, Es = _scaled_ints(w)
        XX = _hermitian(_weighted_outer(V, None, (ws * ws, 2 * Es)))
        YX = Z * S
        YY = _hermitian(Z * _weighted_outer(V, None, _reciprocal_squares(w)) * Z.H)
        gram = mp.zeros(2 * d, 2 * d)
        for i in range(d):
            for j in range(d):
                gram[i, j], gram[i, d + j], gram[d + i, j], gram[d + i, d + j] = XX[i, j], mp.conj(YX[j, i]), YX[i, j], YY[i, j]
        L = mp.cholesky(_hermitian(gram))

        def apply(x):  # H x = L^H (J (L x))
            y = L * x
            top, bottom = y[:d, 0], y[d:, 0]
            return L.H * _stack(bottom, top + XX * bottom)

        Lf = np.array(L.tolist(), dtype=complex)
        Jf = np.block([[np.zeros((d, d)), np.eye(d)], [np.eye(d), np.array(XX.tolist(), dtype=complex)]])
        lam, U = np.linalg.eigh(Lf.conj().T @ Jf @ Lf)
        margin = 1e-8 * np.abs(lam).max()
        ends = []
        for k, nxt, side in ((2 * d - 1, lam[-2] + margin, 1), (0, lam[1] - margin, -1)):
            x = mp.matrix([mp.mpc(z.real, z.imag) for z in U[:, k]])
            rho, r = _rayleigh(apply, x)
            # One Newton step on the float eigenvector: x - sum over the other
            # eigenpairs of u_j (u_j^H r) / (lam_j - rho).
            others = np.arange(2 * d) != k
            rf = np.array(r.tolist(), dtype=complex).ravel()
            step = U[:, others] @ ((U[:, others].conj().T @ rf) / (lam[others] - float(rho)))
            rho, r = _rayleigh(apply, x - mp.matrix([mp.mpc(z.real, z.imag) for z in step]))
            width = mp.norm(r) ** 2 / abs(rho - nxt)
            assert side * (rho - nxt) > 0 and width <= 1e-30 * (1 + rho)
            ends.append(1 + rho)
        return float(max(mp.sqrt(ends[0]), 1)), float(max(1 / mp.sqrt(ends[1]), 1))


def _rayleigh(apply, x) -> tuple:
    """(rho, H x - rho x) for the Hermitian map ``apply`` and x normalized."""
    x = x / mp.norm(x)
    Hx = apply(x)
    rho = mp.re(mp.fdot(x.H, Hx))
    return rho, Hx - rho * x


def _stack(top, bottom):
    """The mp column vector [top; bottom]."""
    return mp.matrix([top[i] for i in range(top.rows)] + [bottom[i] for i in range(bottom.rows)])


def _splitting_case(case: str):
    """The step (i) core's O, frame, symbol and weight sqrt(mu): Gabor at
    redundancy 4, mu = (1+|x|)^2, or steep-mix's Fock run, mu = (1+|x|)^6."""
    family, size = case.split("-")
    if family == "gabor":
        lat = TFLattice.balanced(int(size), 4)
        psi, t = gabor_system(lat.N, lat.a, lat.b), 2.0
    else:
        psi, t = FockFamily(0.8, [float(size)], margin=0.5, jitter=0.0, seed=1).case(float(size))[1], 6.0
    mu = Weight.polynomial(psi.index_set, t).values
    return multiplier(1.0 / mu, psi) @ multiplier(mu, psi), psi, mu, np.sqrt(mu)


@pytest.mark.parametrize("case", ["gabor-16", "gabor-32", "fock-2.5", "fock-4"])
def test_factor_route_norms_match_mpmath(case):
    # Cores whose Woodbury product cancels little read sigma_max(B_w) and
    # ||B_w^-1||_2 through X_w and Y_w by Golub-Kahan-Lanczos; both lie
    # within 1e-13 of the 40-digit values of B_w from the float frame.
    O, psi, mu, w = _splitting_case(case)
    core = _SplitCore(O, psi, w=w)
    assert core.K is None
    top, inv = splitting_reference(psi, mu, w)
    assert core.sigma[1] == pytest.approx(top, rel=1e-13, abs=0)
    assert core.inverse_norm == pytest.approx(inv, rel=1e-13, abs=0)
    assert core.sigma[0] == 1.0 / core.inverse_norm
