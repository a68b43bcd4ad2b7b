"""Frame multipliers and the Galerkin matrix calculus.

A multiplier is a diagonal matrix sandwiched between analysis and synthesis:
M_{m,Psi,Phi} = D_Phi diag(m) C_Psi. The Galerkin matrix of an operator O
relative to a frame pair is Mat^{(Phi,Psi)}(O) = C_Phi O D_Psi, and
Op^{(Phi,Psi)}(M) = D_Phi M C_Psi maps matrices back to operators; with dual
slots inside, Op after Mat is the identity on operators.

Invertibility of O on C^d transfers to invertibility of the n x n matrix
B_O = Mat(O) + (I - G_{Psi,Psid}) and back; the second summand kills the
coefficient-space directions Mat can never see (ker D_Psi). This module is
the one owner of B_O: :func:`invertibility_matrix` builds its entries, and
:class:`_SplitCore` holds it as a k x k core, k = min(n, 2d), from which
the verdicts of ``verify`` and the factorizations of the lifting pipeline
are taken without any n x n factorization.
"""

import functools
from enum import Enum

import numpy as np

from . import matalg
from .frames import Frame, gram
from .matalg import _Factored, map_constants
from .weights import weight_values

# Residual below which an ordering passes galerkin_pinv_crosscheck.
CROSSCHECK_RTOL = 1e-8


class Multiplier:
    def __init__(self, symbol, psi: Frame, phi: Frame | None = None):
        phi = psi if phi is None else phi
        if phi.d != psi.d:
            raise ValueError("frames must share the ambient dimension")
        if phi.n != psi.n:
            raise ValueError("frames must have the same number of vectors")
        self.symbol = weight_values(symbol, psi.n)
        self.psi = psi
        self.phi = phi
        self.matrix = phi.synthesis_matrix @ (self.symbol[:, None] * psi.analysis_matrix)

    def apply(self, f) -> np.ndarray:
        return self.phi.synthesis(self.symbol * self.psi.analysis(f))


def multiplier(symbol, psi: Frame, phi: Frame | None = None) -> Multiplier:
    """M_{m,Psi,Phi} f = sum_k m_k <f, psi_k> phi_k."""
    return Multiplier(symbol, psi, phi)


def galerkin(O: np.ndarray, phi: Frame, psi: Frame) -> np.ndarray:
    """Mat^{(Phi,Psi)}(O) = C_Phi O D_Psi, entries <O psi_l, phi_k>."""
    O = np.asarray(O)
    if O.shape != (phi.d, psi.d):
        raise ValueError("operator shape does not match the frame pair")
    return phi.analysis_matrix @ O @ psi.synthesis_matrix


def _coefficient_maps(psi: Frame, T, m_out, m_in):
    """The n x d maps A = diag(m_out) C_Psid T and B = diag(m_in) C_Psid.

    Their constants (:func:`map_constants`) are those of T :
    H^p_{m_in} -> H^p_{m_out} over the frame psi.
    """
    dual = psi.canonical_dual()
    Cd = dual.analysis_matrix
    wout = weight_values(m_out, psi.n)
    win = weight_values(m_in, psi.n)
    A = wout[:, None] * (Cd @ np.asarray(T))
    B = win[:, None] * Cd
    return A, B


def op_from_matrix(M: np.ndarray, phi: Frame, psi: Frame) -> np.ndarray:
    """Op^{(Phi,Psi)}(M) = D_Phi M C_Psi."""
    M = np.asarray(M)
    if M.shape != (phi.n, psi.n):
        raise ValueError("matrix shape does not match the frame pair")
    return phi.synthesis_matrix @ M @ psi.analysis_matrix


class Slots(Enum):
    """Frame/dual assignment for the Galerkin part of the invertibility matrix."""

    PSI_PSI = ("frame", "frame")
    PSI_DUAL = ("frame", "dual")
    DUAL_PSI = ("dual", "frame")
    DUAL_DUAL = ("dual", "dual")


def _pick(frame: Frame, which: str) -> Frame:
    return frame if which == "frame" else frame.canonical_dual()


def invertibility_matrix(
    O: np.ndarray, psi: Frame, slots: Slots = Slots.PSI_PSI, cross=None
) -> np.ndarray:
    """B_O = Mat(O) + (I - G_{Psi,Psid}) with the requested slot assignment.

    O is invertible on C^d exactly when B_O is invertible on C^n, for every
    slot choice; the default (Psi, Psi) matches the composed-multiplier
    splitting used by the lifting pipeline. ``cross`` is G_{Psi,Psid} when
    the caller already holds it (it is read, not changed). The sum is
    assembled in place as -G, then + 1 on the diagonal, then + Mat(O),
    which rounds exactly like Mat(O) + (I - G) and holds one n x n
    temporary fewer.
    """
    left, right = (_pick(psi, w) for w in slots.value)
    if cross is None:
        out = gram(psi, psi.canonical_dual())
        np.negative(out, out=out)
    else:
        out = np.negative(cross)
    out[np.diag_indices(psi.n)] += 1.0
    out += galerkin(O, left, right)
    return out


def _extremes(sv: np.ndarray, n: int) -> tuple:
    """(sigma_min, sigma_max) of an n x n matrix that is a k x k core with
    singular values sv on ran(Q) and the identity on its complement."""
    if sv.shape[0] < n:
        sv = np.append(sv, 1.0)
    return float(sv.min()), float(sv.max())


class _SplitCore:
    """diag(w) B_O diag(1/w) for the slot choice ``slots``, held as a k x k core.

    With L, R in {I, S^{-1}} set by the slots, Mat(O) = C L O R D and
    G_{Psi,Psid} = C S^{-1} D, so B_O = I + C Z D with Z = L O R - S^{-1}:
    the identity plus a term of rank <= d. With X = diag(w) C (n x d) and
    Y = Z D diag(1/w) (d x n), a thin QR Q of [X, Y^H] has k = min(n, 2d)
    orthonormal columns spanning both factors, so I + X Y is
    K = I_k + (Q^H X)(Y Q) on ran(Q) and the identity on its complement.
    This is the compression behind the Sherman-Morrison-Woodbury formula
    (Golub & Van Loan, Matrix Computations). The singular values are those
    of K, plus 1 when k < n; the inverse is I + Q (K^{-1} - I) Q^H.
    ``w = None`` is the unit weight.
    """

    def __init__(self, O: np.ndarray, psi: Frame, slots: Slots = Slots.PSI_PSI, w=None):
        O = np.asarray(O)
        if O.shape != (psi.d, psi.d):
            raise ValueError("operator shape does not match the frame pair")
        left, right = slots.value
        ZD = O @ _pick(psi, right).synthesis_matrix
        if left == "dual":
            ZD = np.linalg.solve(psi.frame_operator, ZD)
        ZD = ZD - psi.canonical_dual().synthesis_matrix
        w = weight_values(w, psi.n)
        X = w[:, None] * psi.analysis_matrix
        Y = ZD / w[None, :]
        self.n = psi.n
        self.Q = np.linalg.qr(np.hstack([X, Y.conj().T]))[0]
        self.K = np.eye(self.Q.shape[1]) + (self.Q.conj().T @ X) @ (Y @ self.Q)
        self.sigma = _extremes(np.linalg.svd(self.K, compute_uv=False), self.n)

    def invertible(self) -> bool:
        """sigma_min > INVERTIBILITY_RTOL * sigma_max, the test of :func:`matalg.is_invertible`."""
        return bool(self.sigma[0] > matalg.INVERTIBILITY_RTOL * self.sigma[1])

    @functools.cached_property
    def K_inv(self) -> np.ndarray:
        return np.linalg.inv(self.K)

    @functools.cached_property
    def inverse_norm(self) -> float:
        """||(diag(w) B_O diag(1/w))^{-1}||_2 = max(sigma_max(K^{-1}), 1).

        Taken from the explicit K^{-1}, not as 1/sigma_min(K): a
        values-only SVD loses relative accuracy in sigma_min when B_O is
        badly scaled, while the LU-based inverse keeps it.
        """
        return _extremes(np.linalg.svd(self.K_inv, compute_uv=False), self.n)[1]

    def inverse(self) -> np.ndarray:
        """The n x n matrix (diag(w) B_O diag(1/w))^{-1} = I + Q (K^{-1} - I) Q^H."""
        core = self.K_inv - np.eye(self.K.shape[0])
        out = (self.Q @ core) @ self.Q.conj().T
        out[np.diag_indices(self.n)] += 1.0
        return out


def invertibility_verdicts(O: np.ndarray, psi: Frame) -> dict:
    """Invertibility of O on C^d versus of B_O on C^n, for all slot choices.

    Each B_O verdict is read from its k x k core (:class:`_SplitCore`).
    """
    out = {"operator": matalg.is_invertible(O)}
    for slots in Slots:
        out[slots.name] = _SplitCore(O, psi, slots).invertible()
    return out


def galerkin_pinv_crosscheck(O: np.ndarray, psi: Frame, phi: Frame) -> dict:
    """Which dual-slot ordering satisfies Mat(O)^dagger = Mat(O^{-1})?

    Candidate A: pinv(Mat^{(Psid,Phid)}(O)) = Mat^{(Phi,Psi)}(O^{-1}).
    Candidate B: pinv(Mat^{(Phid,Psid)}(O)) = Mat^{(Psi,Phi)}(O^{-1}).
    Returns both residuals and the names of the orderings below CROSSCHECK_RTOL.
    """
    O = np.asarray(O)
    Oinv = np.linalg.inv(O)
    psid = psi.canonical_dual()
    phid = phi.canonical_dual()
    res = {}
    pin_a = matalg.pseudo_inverse(galerkin(O, psid, phid))
    res["ordering_A"] = float(np.abs(pin_a - galerkin(Oinv, phi, psi)).max())
    pin_b = matalg.pseudo_inverse(galerkin(O, phid, psid))
    res["ordering_B"] = float(np.abs(pin_b - galerkin(Oinv, psi, phi)).max())
    passing = [k for k in ("ordering_A", "ordering_B") if res[k] < CROSSCHECK_RTOL]
    res["passing"] = passing
    return res


def spectral_invariance_suite(O: np.ndarray, psi: Frame, weights: list, ps: list, s: float) -> dict:
    """Condition constants of O on each coefficient-space H^p_m and verdict agreement.

    The operator acts on C^d; its coorbit condition at (p, m) is measured in
    dual-frame coefficient coordinates. In finite dimensions the verdict
    (invertible or not) must agree across all (p, m); the constants may vary.
    """
    O = np.asarray(O)
    dual = psi.canonical_dual()
    g = galerkin(O, psi, dual)
    report = {
        "operator_invertible": matalg.is_invertible(O),
        "galerkin_decay_constant": matalg.decay_constant(g, s, psi.index_set),
        "constants": {},
    }
    inv = np.linalg.inv(O) if report["operator_invertible"] else None
    for i, m in enumerate(weights):
        # B = diag(m) C_Psid is shared by O and O^{-1} and across p.
        A, B = (_Factored(x) for x in _coefficient_maps(psi, O, m, m))
        A_inv = None if inv is None else _Factored(_coefficient_maps(psi, inv, m, m)[0])
        for p in ps:
            entry = {"norm": map_constants(A, B, p)["upper"], "invertible": report["operator_invertible"]}
            if A_inv is not None:
                entry["inverse_norm"] = map_constants(A_inv, B, p)["upper"]
            report["constants"][f"w{i}_p{p}"] = entry
    return report
