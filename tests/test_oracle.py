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
float K that framelift holds, with its singular values at 40 digits.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest

from framelift.coorbit import lifting_constants
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


def _weighted_outer(V: np.ndarray, w: np.ndarray):
    """V diag(w) V^H, summed exactly and rounded once to the working precision."""
    Vr, Er = _scaled_ints(V.real)
    Vi, Ei = _scaled_ints(V.imag)
    E = max(Er, Ei)
    Vr, Vi = Vr * (1 << (E - Er)), Vi * (1 << (E - Ei))
    s, Es = _scaled_ints(w)
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


def test_core_extremes_match_mpmath():
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
