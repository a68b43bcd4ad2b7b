"""Frame multipliers and the Galerkin matrix calculus.

A multiplier is a diagonal matrix sandwiched between analysis and synthesis
of one frame: M_m = D_Psi diag(m) C_Psi, positive when m is. The Galerkin
matrix of an operator O relative to a frame pair is Mat^{(Phi,Psi)}(O) =
C_Phi O D_Psi.

Invertibility of O on C^d transfers to invertibility of the n x n matrix
B_O = Mat(O) + (I - G_{Psi,Psid}) and back; the second summand kills the
coefficient-space directions Mat can never see (ker D_Psi). This module is
the one owner of B_O, and no n x n copy of it is ever assembled:
:class:`_SplitCore` holds it as the identity plus the factors X (n x d) and
Y (d x n) of a term of rank d, and compresses them to a k x k core:
k = min(n, d) for a flat weight, whose factors both lie in ran(C), on the
frame's one QR of C; k = min(n, 2d) otherwise. The verdicts of ``verify``
(four slot cores on one QR, and no SVD) and the lifting pipeline's
factorizations come from the core; the pipeline's identity checks apply B_O
and B_O^H to probe vectors through X and Y, and its p = 1 and p = inf norms
of B_O and B_O^{-1} are read from the factors one row slab at a time. The
spectral-invariance suite reports upper constants only, so it factorizes
neither O's coefficient map nor O^{-1}'s.
"""

import functools
from enum import Enum

import numpy as np

from . import matalg
from .frames import Frame
from .matalg import _Factored, upper_constant
from .weights import weight_values


def multiplier(symbol, psi: Frame) -> np.ndarray:
    """The d x d matrix of M_m f = sum_k m_k <f, psi_k> psi_k."""
    m = weight_values(symbol, psi.n)
    return psi.synthesis_matrix @ (m[:, None] * psi.analysis_matrix)


def galerkin(O: np.ndarray, phi: Frame, psi: Frame) -> np.ndarray:
    """Mat^{(Phi,Psi)}(O) = C_Phi O D_Psi, entries <O psi_l, phi_k>."""
    O = np.asarray(O)
    if O.shape != (phi.d, psi.d):
        raise ValueError("operator shape does not match the frame pair")
    return phi.analysis_matrix @ O @ psi.synthesis_matrix


def _coefficient_map(psi: Frame, T, m) -> np.ndarray:
    """The n x d map diag(m) C_Psid T; T = None is the identity."""
    Cd = psi.canonical_dual().analysis_matrix
    w = weight_values(m, psi.n)[:, None]
    return w * Cd if T is None else w * (Cd @ np.asarray(T))


def _coefficient_maps(psi: Frame, T, m_out, m_in):
    """The n x d maps A = diag(m_out) C_Psid T and B = diag(m_in) C_Psid.

    Their constants (:func:`matalg.map_constants`) are those of T :
    H^p_{m_in} -> H^p_{m_out} over the frame psi.
    """
    return _coefficient_map(psi, T, m_out), _coefficient_map(psi, None, m_in)


class Slots(Enum):
    """Frame/dual assignment for the Galerkin part of the invertibility matrix."""

    PSI_PSI = ("frame", "frame")
    PSI_DUAL = ("frame", "dual")
    DUAL_PSI = ("dual", "frame")
    DUAL_DUAL = ("dual", "dual")


def _pick(frame: Frame, which: str) -> Frame:
    return frame if which == "frame" else frame.canonical_dual()


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
    the identity plus a term of rank <= d. The d x n factor Z D is formed
    from the float inputs C, D = C^H, O, the dual synthesis matrix Dd
    (= S^{-1} D) and w alone: R D is D or Dd, S^{-1} D is Dd, and a dual
    left slot takes S^{-1} = Dd Dd^H, so Z D = L O (R D) - Dd. This
    matrix, rounded nowhere, is the B_O that :meth:`invertible` certifies.

    With X = diag(w) C (n x d) and Y = Z D diag(1/w) (d x n), any Q with
    k < n orthonormal columns spanning both ran(X) and ran(Y^H) makes
    I + X Y equal to K = I_k + (Q^H X)(Y Q) on ran(Q) and the identity on
    its complement. This is the compression behind the
    Sherman-Morrison-Woodbury formula (Golub & Van Loan, Matrix
    Computations). The singular values are those of K, plus 1; the inverse
    is I + Q (K^{-1} - I) Q^H. Y^H = diag(1/w) C Z^H, so when w is flat
    (all entries equal) both ranges lie in ran(C): Q is the frame's
    :attr:`~framelift.frames.Frame.analysis_basis`, one QR of C shared by
    every core on the frame, and k = d. Otherwise Q is a thin QR of
    [X, Y^H] and k = 2d. When k >= n there is nothing to compress: Q is
    None and K = I_n + X Y itself. In float arithmetic Y^H lies in ran(Q)
    only up to rounding; :meth:`_margin` counts that part, Y - Y Q Q^H,
    from its computed value. ``w = None`` is the unit weight.

    What is held: X and Y^H are the two blocks of one column-major n x 2d
    buffer, X and Y views of it with the layouts of X = diag(w) C and
    Y = Z D diag(1/w), so the QR of [X, Y^H] reads the buffer itself. Past
    the constructor the core keeps X, Y, Q (when it is not the frame's),
    K and K^{-1}; P = L O (R D) lives on only as |P| in Y's error map, and
    that map, Q^H X and Y Q are freed with the constructor.
    """

    def __init__(self, O: np.ndarray, psi: Frame, slots: Slots = Slots.PSI_PSI, w=None):
        O = np.asarray(O)
        if O.shape != (psi.d, psi.d):
            raise ValueError("operator shape does not match the frame pair")
        n, d = psi.n, psi.d
        left, right = slots.value
        Dd = psi.canonical_dual().synthesis_matrix
        RD = _pick(psi, right).synthesis_matrix
        P = O @ RD
        P_err = _scaled(matalg.gamma_c(d), O, RD)
        if left == "dual":
            L = Dd @ Dd.conj().T
            L_err = _scaled(matalg.gamma_c(n), Dd, Dd.conj().T)
            P_err = _left_product_error(L, L_err, P, P_err)
            P = L @ P
        w = weight_values(w, n)
        # [X, Y^H] in one column-major buffer, X and Y views of its blocks;
        # Y is conjugated in place, and back, around the QR that reads it.
        XY = np.empty((n, 2 * d), dtype=complex, order="F")
        X = np.multiply(w[:, None], psi.analysis_matrix, out=XY[:, :d])
        Y = np.divide(P - Dd, w[None, :], out=XY[:, d:].T)
        P = np.abs(P)  # Y's error map reads P only through its moduli

        def Y_err(v):  # |Y - fl Y| v: P's rounding, then one in P - Dd and one in / w
            v = v / w
            return P_err(v) + matalg.gamma(2) * (P @ v + matalg.abs_chain(v, Dd))

        self.n, self.w, self.X, self.Y = n, w, X, Y
        flat = bool(np.all(w == w[0]))
        if (d if flat else 2 * d) >= n:
            self.Q = None
            Xq, Yq = X, Y
        else:
            if flat:
                self.Q = psi.analysis_basis
            else:
                np.conjugate(Y, out=Y)
                self.Q = np.linalg.qr(XY)[0]
                np.conjugate(Y, out=Y)
            Xq, Yq = self.Q.conj().T @ X, Y @ self.Q
        self.K = np.eye(Xq.shape[0]) + Xq @ Yq
        try:
            self.K_inv = np.linalg.inv(self.K)
        except np.linalg.LinAlgError:  # B_w may be singular; then no verdict closes
            self.K_inv = None
        X_err = _scaled(matalg.gamma(1), X)  # |X - fl X|: one rounding per entry
        self.certificate_margin = np.inf if self.K_inv is None else self._margin(X, Y, Xq, Yq, X_err, Y_err)

    def _margin(self, X, Y, Xq, Yq, X_err, Y_err) -> float:
        """Upper bound r on ||I - B_w Xt||_inf, Xt = I + Q (K^{-1} - I) Q^H.

        B_w is the float-defined matrix of the class docstring and Xt the
        approximate inverse made of the float Q and K^{-1}; Q need not be
        orthonormal. With Xq = Q^H X, Yq = Y Q, F = K^{-1} - I, X_perp =
        X - Q Xq, Y_perp = Y - Yq Q^H, Delta = Q^H Q - I and the k x k
        residual G = (I + Xq Yq) K^{-1} - I, exactly

            I - B_w Xt = - X Y_perp Xt - Q G Q^H - Q Xq Yq Delta F Q^H
                         - X_perp Yq (K^{-1} + Delta F) Q^H,

        and r bounds the row sums of the moduli of the four terms. Every
        factor is taken from its computed value plus a bound on the rounding
        made since the inputs: one rounding per entry of X, Y and sums, and
        gamma_c(k) |a| |b| for a product of inner dimension k (see
        :func:`matalg.gamma_c`); X_err and Y_err bound it for X and Y. Each
        product of moduli is applied to a vector, never formed, so the bound
        costs O(n k (d + k)) and no factorization. With Q = None, Q is the
        identity, Delta = 0 and X_perp, Y_perp are the rounding in X, Y.

        What is held: F, T = Yq K^{-1} and G are formed complex, then kept
        only as their moduli, and so is Q. The moduli of Y_perp, Delta and
        X_perp are formed just before the first term that reads each (the
        first, the third and the fourth) and freed after the last one, so
        at most one of these n x k or k x k temporaries is alive at a time.
        The terms are evaluated and summed in the order written above.
        """
        g1, chain = matalg.gamma(1), matalg.abs_chain
        Q, Kinv = self.Q, self.K_inv
        k, d = Kinv.shape[0], X.shape[1]
        F = Kinv - np.eye(k)
        T = Yq @ Kinv
        G = F + Xq @ T
        F, T, G = _modulus(F), _modulus(T), _modulus(G)  # the bound reads only their moduli
        gc_d, gc_k = matalg.gamma_c(d), matalg.gamma_c(k)

        def G_bound(v):  # |G| v, G exact
            rounding = g1 * chain(v, F) + gc_d * chain(v, Xq, T) + gc_k * chain(v, Xq, Yq, Kinv)
            return (1 + g1) * chain(v, G) + rounding

        if Q is None:
            Qabs = Qh = lambda v: v
            Y_perp, X_perp = (lambda: Y_err), (lambda: X_err)

            def Delta():
                return lambda v: 0.0 * v
        else:
            Q_mod = np.abs(Q)
            Qabs, Qh = (lambda v: Q_mod @ v), (lambda v: Q_mod.T @ v)

            def Y_perp():
                Yp_hat = _modulus(Y - Yq @ Q.conj().T)
                return lambda v: (1 + g1) * chain(v, Yp_hat) + gc_k * chain(v, Yq, Qh) + Y_err(v)

            def Delta():
                D_hat, gc_n = _modulus(Q.conj().T @ Q - np.eye(k)), matalg.gamma_c(self.n)
                return lambda v: (1 + g1) * chain(v, D_hat) + gc_n * chain(v, Qh, Qabs)

            def X_perp():
                Xp_hat = _modulus(X - Q @ Xq)
                return lambda v: (1 + g1) * chain(v, Xp_hat) + gc_k * chain(v, Qabs, Xq) + X_err(v)

        vq = chain(np.ones(self.n), Qh)
        Fvq = (1 + g1) * chain(vq, F)  # F = K^{-1} - I is rounded on its diagonal
        # The four terms, in this order, summed in this order.
        total = (1 + g1) * chain(1.0 + chain(Fvq, Qabs), X, Y_perp())
        total = total + chain(G_bound(vq), Qabs)
        delta = Delta()
        total = total + chain(Fvq, Qabs, Xq, Yq, delta)
        inner = chain(vq, Kinv) + delta(Fvq)
        del delta
        total = total + chain(inner, X_perp(), Yq)
        return matalg.certified_bound(np.max(total), 8 * (self.n + d) + 64)

    def invertible(self) -> bool:
        """Rump's certificate: :attr:`certificate_margin` < 1 proves B_w
        invertible. A singular B_w never passes: for it every I - B_w Xt
        has an eigenvalue 1. A K that LAPACK finds singular has margin inf."""
        return bool(self.certificate_margin < 1.0)

    @functools.cached_property
    def sigma(self) -> tuple:
        """(sigma_min, sigma_max) of B_w: the extremes of sigma(K), and 1
        when Q is not None."""
        return _extremes(np.linalg.svd(self.K, compute_uv=False), self.n)

    @functools.cached_property
    def inverse_norm(self) -> float:
        """||(diag(w) B_O diag(1/w))^{-1}||_2 = max(sigma_max(K^{-1}), 1).

        Taken from the explicit K^{-1}, not as 1/sigma_min(K): a
        values-only SVD loses relative accuracy in sigma_min when B_O is
        badly scaled, while the LU-based inverse keeps it.
        """
        return _extremes(np.linalg.svd(self.K_inv, compute_uv=False), self.n)[1]

    def matrix(self) -> matalg._SlabMatrix:
        """B_w = diag(w) B_O diag(1/w) = I + X Y, held as its factors (K
        itself when Q is None)."""
        return matalg._SlabMatrix(self.K) if self.Q is None else matalg._SlabMatrix(self.X, self.Y)

    def inverse_matrix(self) -> matalg._SlabMatrix:
        """The approximate inverse that :meth:`invertible` certifies: K^{-1}
        itself when Q is None, else I + Q (K^{-1} - I) Q^H, held as the
        factors Q (K^{-1} - I) and Q^H."""
        if self.Q is None:
            return matalg._SlabMatrix(self.K_inv)
        return matalg._SlabMatrix(self.Q @ (self.K_inv - np.eye(self.K.shape[0])), self.Q.conj().T)

    def apply(self, V: np.ndarray, w) -> np.ndarray:
        """diag(w) B_O diag(1/w) V for the columns of V, from X and Y with
        their weight rescaled to w: O(n d) per column."""
        r = (weight_values(w, self.n) / self.w)[:, None]
        return V + r * (self.X @ (self.Y @ (V / r)))

    def apply_adjoint(self, V: np.ndarray) -> np.ndarray:
        """B_O^H V = V + diag(w) Y^H X^H diag(1/w) V for the columns of V."""
        w = self.w[:, None]
        return V + w * (self.Y.conj().T @ (self.X.conj().T @ (V / w)))


def _modulus(A: np.ndarray):
    """The nonnegative map v -> |A| v for :func:`matalg.abs_chain`, with
    the moduli taken once and A itself not kept."""
    A = np.abs(A)
    return lambda v: A @ v


def _scaled(c: float, *factors):
    """The nonnegative map v -> c |F_1| ... |F_m| v."""
    return lambda v: c * matalg.abs_chain(v, *factors)


def _left_product_error(L, L_err, P, P_err):
    """Error map of fl(L P) against the exact product of the matrices that
    L and P approximate, given their error maps: gamma_c |L| |P| +
    L_err |P| + |L| P_err + L_err P_err."""
    gc = matalg.gamma_c(L.shape[1])
    absL, absP = np.abs(L), np.abs(P)
    return lambda v: gc * (absL @ (absP @ v)) + L_err(absP @ v) + absL @ P_err(v) + L_err(P_err(v))


def invertibility_verdicts(O: np.ndarray, psi: Frame) -> dict:
    """Invertibility of O on C^d versus of B_O on C^n, for all slot choices.

    Every verdict is Rump's certificate: the operator's from the dense
    d x d matrix (:func:`matalg.is_invertible`), each B_O verdict from its
    k x k core (:meth:`_SplitCore.invertible`).
    """
    cores = {slots.name: _SplitCore(O, psi, slots).invertible() for slots in Slots}
    return {"operator": matalg.is_invertible(O), **cores}


def _galerkin_decay(O: np.ndarray, psi: Frame, s: float) -> float:
    """Decay constant at s of Mat(O) = (C_Psi O) D_Psid, read one row slab
    at a time."""
    CO, Dd = psi.analysis_matrix @ O, psi.canonical_dual().synthesis_matrix
    scan = matalg.PairScan(psi.n)
    mat = scan.matrix("galerkin", lambda i0, i1, out: np.matmul(CO[i0:i1], Dd, out=out))
    decay = scan.decay(mat, s, psi.index_set)
    return scan.run()[decay]


def _upper_sides(psi: Frame, O: np.ndarray, inv, m, ps: list) -> dict:
    """Per p, the upper side of O, and of its inverse ``inv`` unless None,
    on the weight m. B = diag(m) C_Psid is factorized once and shared by
    both and across p; O's map and the moduli of its draws are released
    before inv's map, built alone, and its draws are made."""
    A, B = (_Factored(x) for x in _coefficient_maps(psi, O, m, m))
    entries = {p: {"norm": upper_constant(A, B, p), "invertible": inv is not None} for p in ps}
    del A
    if inv is not None:
        A_inv = _Factored(_coefficient_map(psi, inv, m))
        for p in ps:
            entries[p]["inverse_norm"] = upper_constant(A_inv, B, p)
    return entries


def spectral_invariance_suite(O: np.ndarray, psi: Frame, weights: list, ps: list, s: float) -> dict:
    """Condition constants of O on each coefficient-space H^p_m and verdict agreement.

    The operator acts on C^d; its coorbit condition at (p, m) is measured in
    dual-frame coefficient coordinates. In finite dimensions the verdict
    (invertible or not) must agree across all (p, m); the constants may vary.
    Each entry is the upper side of :func:`matalg.map_constants` alone
    (:func:`matalg.upper_constant`): per weight, B is factorized once and
    neither A nor A_inv is. No n x n array is held: the Galerkin decay and
    the p = 1, inf norms of A B^+ are read in row slabs.
    """
    O = np.asarray(O)
    report = {
        "operator_invertible": matalg.is_invertible(O),
        "galerkin_decay_constant": _galerkin_decay(O, psi, s),
        "constants": {},
    }
    inv = np.linalg.inv(O) if report["operator_invertible"] else None
    for i, m in enumerate(weights):
        for p, entry in _upper_sides(psi, O, inv, m, ps).items():
            report["constants"][f"w{i}_p{p}"] = entry
    return report
