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

The splitting core (:class:`framelift.multipliers._SplitCore`) reads
sigma_max(B_w) and ||B_w^-1||_2 through its Woodbury factors. Both are
checked against B_w = I + C Y built at 50 digits from the float frame
vectors and symbol values (:func:`splitting_reference`). Where the
certificate fails, sigma_max alone is checked, against I + X_w Y_w of the
core's own float factors (:func:`factor_sigma_max`).
"""

import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from framelift.coorbit import lifting_constants
from framelift.gabor import gabor_system
from framelift.multipliers import _SplitCore
from framelift.weights import Weight
from tests.reference import splitting_case

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


def _reciprocal_squares(w: np.ndarray, bits: int = 300) -> tuple:
    """(s, bits): integers s with s 2^-bits within 2^-bits of 1 / w^2, for
    :func:`_weighted_outer`."""
    one = 1 << bits
    return np.array([int(one / Fraction(float(x)) ** 2) for x in w], dtype=object), bits


def _exact_product(A: np.ndarray, B: np.ndarray):
    """A B for float matrices, summed exactly in integer arithmetic and
    rounded once to the working precision."""
    (Ar, Ai), Ea = _scaled_ints(np.stack([A.real, A.imag]))
    (Br, Bi), Eb = _scaled_ints(np.stack([B.real, B.imag]))
    re, im = Ar @ Br - Ai @ Bi, Ar @ Bi + Ai @ Br
    scale = mp.ldexp(1, -(Ea + Eb))
    return mp.matrix([[mp.mpc(re[i, j], im[i, j]) * scale for j in range(re.shape[1])] for i in range(re.shape[0])])


def _frame_grams(psi, mu: np.ndarray, w: np.ndarray) -> tuple:
    """(X^H X, Y X, Y Y^H) at DPS digits for B_w = I + X Y, X = diag(w) C
    and Y = Z D diag(1/w), Z = M_{1/mu} M_mu - S^-1, built from the float
    frame vectors and the float values of mu, 1/mu and w: X^H X = V
    diag(w^2) V^H, Y X = Z S and Y Y^H = Z (V diag(1/w^2) V^H) Z^H (V the
    synthesis matrix)."""
    V = psi.vectors
    S = _hermitian(_weighted_outer(V, np.ones(psi.n)))
    Ri = _lower_inverse(mp.cholesky(S))
    Z = _weighted_outer(V, 1.0 / mu) * _weighted_outer(V, mu) - Ri.H * Ri
    ws, Es = _scaled_ints(w)
    XX = _hermitian(_weighted_outer(V, None, (ws * ws, 2 * Es)))
    YY = _hermitian(Z * _weighted_outer(V, None, _reciprocal_squares(w)) * Z.H)
    return XX, Z * S, YY


def _squared_extremes(XX, YX, YY, ends=(0, -1)) -> tuple:
    """The smallest (end 0) and largest (end -1) squared singular values of
    B = I + X Y on the span of ran(X) and ran(Y^H), for each of ``ends``,
    given the Gram blocks X^H X, Y X and Y Y^H of N = [X, Y^H] at the
    working precision.

    B^H B - I = N J N^H with J = [[0, I], [I, X^H X]], so these are 1 + the
    extreme eigenvalues of H = L^H J L, L the Cholesky factor of N^H N.
    Each is first sought as the Rayleigh quotient rho of H's float
    eigenvector after one Newton correction, with H x applied as
    L^H (J (L x)), and enclosed by the Kato-Temple bound: it lies between
    rho and rho -+ ||H x - rho x||^2 / gap, the gap taken to the next float
    eigenvalue less 1e-8 ||H||. Where that enclosure does not close within
    1e-30 of 1 + rho (a badly scaled B: steep symbols), the eigenvalue is
    read from a full mp.eighe of H instead.
    """
    d = XX.rows
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
    values, full = [], None
    for k in ends:
        k %= 2 * d
        nxt, side = (lam[1] - margin, -1) if k == 0 else (lam[-2] + margin, 1)
        x = mp.matrix([mp.mpc(z.real, z.imag) for z in U[:, k]])
        rho, r = _rayleigh(apply, x)
        # One Newton step on the float eigenvector: x - sum over the other
        # eigenpairs of u_j (u_j^H r) / (lam_j - rho).
        others = np.arange(2 * d) != k
        rf = np.array(r.tolist(), dtype=complex).ravel()
        step = U[:, others] @ ((U[:, others].conj().T @ rf) / (lam[others] - float(rho)))
        rho, r = _rayleigh(apply, x - mp.matrix([mp.mpc(z.real, z.imag) for z in step]))
        if not (side * (rho - nxt) > 0 and mp.norm(r) ** 2 / abs(rho - nxt) <= 1e-30 * abs(1 + rho)):
            if full is None:
                J = mp.zeros(2 * d, 2 * d)
                for i in range(d):
                    J[i, d + i] = J[d + i, i] = 1
                    for j in range(d):
                        J[d + i, d + j] = XX[i, j]
                full = sorted(mp.re(e) for e in mp.eighe(_hermitian(L.H * J * L), eigvals_only=True))
            rho = full[k]
        values.append(1 + rho)
    return tuple(values)


def splitting_reference(psi, mu: np.ndarray, w: np.ndarray) -> tuple:
    """(sigma_max, ||B_w^-1||_2) at DPS digits of B_w = diag(w) B diag(1/w),
    B = I + C Z D, built from the float frame vectors and the float values
    of mu, 1/mu and w (:func:`_frame_grams`), for 2d < n and a w that is
    not flat. B_w is the identity on the rest of C^n, so both norms are at
    least 1."""
    with mp.workdps(DPS):
        low, high = _squared_extremes(*_frame_grams(psi, mu, w))
        return float(max(mp.sqrt(high), 1)), float(max(1 / mp.sqrt(low), 1))


def factor_sigma_max(X: np.ndarray, Y: np.ndarray) -> float:
    """sigma_max at DPS digits of I + X Y for the float factors X (n x d)
    and Y (d x n), 2d < n, whose Gram blocks are summed exactly. Only the
    top end is read: where I + X Y may be singular (an uncertified core),
    the bottom end's enclosure cannot close."""
    with mp.workdps(DPS):
        grams = _exact_product(X.conj().T, X), _exact_product(Y, X), _exact_product(Y, Y.conj().T)
        return float(max(mp.sqrt(_squared_extremes(*grams, ends=(-1,))[0]), 1))


def _rayleigh(apply, x) -> tuple:
    """(rho, H x - rho x) for the Hermitian map ``apply`` and x normalized."""
    x = x / mp.norm(x)
    Hx = apply(x)
    rho = mp.re(mp.fdot(x.H, Hx))
    return rho, Hx - rho * x


def _stack(top, bottom):
    """The mp column vector [top; bottom]."""
    return mp.matrix([top[i] for i in range(top.rows)] + [bottom[i] for i in range(bottom.rows)])


@pytest.mark.parametrize(
    "case",
    [("gabor", 16, 2.0), ("gabor", 32, 2.0), ("gabor", 16, 6.0), ("gabor", 32, 6.0), ("fock", 2.5, 6.0), ("fock", 4.0, 6.0)],
    ids=lambda c: f"{c[0]}-{c[1]:g}-t{c[2]:g}",
)
def test_factor_route_norms_match_mpmath(case):
    # A certified core reads sigma_max(B_w) and ||B_w^-1||_2 through X_w,
    # Y_w and -(W Y_w) by Golub-Kahan-Lanczos; both lie within 1e-13 of the
    # values of B_w built at DPS digits from the float frame. At t = 6,
    # sigma_min / sigma_max is 2.5e-8 (N = 16) and 7.3e-10 (N = 32), and the
    # Kato-Temple enclosure of the small end does not close.
    O, psi, mu, w = splitting_case(*case)
    core = _SplitCore(O, psi, w=w)
    assert core.invertible()
    top, inv = splitting_reference(psi, mu, w)
    assert core.sigma[1] == pytest.approx(top, rel=1e-13, abs=0)
    assert core.inverse_norm == pytest.approx(inv, rel=1e-13, abs=0)
    assert core.sigma[0] == 1.0 / core.inverse_norm


def test_uncertified_sigma_max_matches_mpmath():
    # Gabor N = 16, t = 14: the certificate fails (sigma_min / sigma_max is
    # below u), and sigma_max(B_w) is read through X_w and Y_w all the same.
    # It lies within 1e-13 of sigma_max of I + X_w Y_w from the same float
    # factors. Against B_w built from the float frame it sits 2.0e-13 off,
    # for the rounding of O = M_{1/mu} M_mu, not of the read.
    O, psi, mu, w = splitting_case("gabor", 16, 14.0)
    core = _SplitCore(O, psi, w=w)
    assert not core.invertible()
    assert core.sigma[1] == pytest.approx(factor_sigma_max(core.X, core.Y), rel=1e-13, abs=0)
