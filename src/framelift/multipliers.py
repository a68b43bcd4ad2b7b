"""Frame multipliers and the Galerkin matrix calculus.

A multiplier is a diagonal matrix sandwiched between analysis and synthesis
of one frame: M_m = D_Psi diag(m) C_Psi, positive when m is. The Galerkin
matrix of an operator O relative to a frame pair is Mat^{(Phi,Psi)}(O) =
C_Phi O D_Psi.

Invertibility of O on C^d transfers to invertibility of the n x n matrix
B_O = Mat(O) + (I - G_{Psi,Psid}) and back; the second summand kills the
coefficient-space directions Mat can never see (ker D_Psi). This module is
the one owner of B_O, and no n x n copy of it is ever assembled: B_O is the
identity plus X Y, with X = C (n x d) and Y (d x n) the factors of a term of
rank d. In finite dimensions the transfer is Sylvester's identity: B_O is
invertible exactly when the d x d matrix I + Y X is. Every B_O verdict,
those of ``verify`` and the lifting pipeline's alike, is Rump's certificate
on that d x d Woodbury core (:func:`framelift.verified.woodbury_certificate`,
fed the error map of Y that :func:`_splitting_factor` builds from
verified's rounding constants and error maps): no QR, no SVD and no
n x k array. :class:`_SplitCore` adds what the pipeline's p = 2 norms on a
weighted space need: sigma_max(B_w) and ||B_w^{-1}||_2 by Golub-Kahan-Lanczos
(:func:`matalg.sigma_max`), applied through the Woodbury factors of B_w and
of its inverse; only a core the certificate does not pass compresses B_w to
a k x k matrix (k = min(n, 2d)), for one values-only SVD of its sigma_min.
The pipeline's identity checks apply B_O and B_O^H to probe vectors through
X and Y, and its l^p norms of B_w and of the Woodbury inverse B_w^{-1} for
p != 2 are read from their factors by :func:`matalg.operator_norm`. The
spectral-invariance suite reports upper constants only, so it factorizes
neither O's coefficient map nor O^{-1}'s; it takes O^{-1} from O's dense
certificate (:func:`framelift.verified.dense_certificate`).
"""

import functools
from enum import Enum

import numpy as np

from . import matalg, verified
from .frames import Frame
from .matalg import _Factored, upper_constant
from .weights import weight_values


def multiplier(symbol, psi: Frame) -> np.ndarray:
    """The d x d matrix of M_m f = sum_k m_k <f, psi_k> psi_k."""
    m = weight_values(symbol, psi.n)
    C = psi.analysis_matrix  # a conjugated copy, scaled in place
    return psi.synthesis_matrix @ np.multiply(m[:, None], C, out=C)


def galerkin(O: np.ndarray, phi: Frame, psi: Frame) -> np.ndarray:
    """Mat^{(Phi,Psi)}(O) = C_Phi O D_Psi, entries <O psi_l, phi_k>."""
    O = np.asarray(O)
    if O.shape != (phi.d, psi.d):
        raise ValueError("operator shape does not match the frame pair")
    return phi.analysis_matrix @ O @ psi.synthesis_matrix


def _coefficient_map(psi: Frame, T, m) -> np.ndarray:
    """The n x d map diag(m) C_Psid T; T = None is the identity. The
    weight scales the one new n x d array in place: the conjugated copy
    C_Psid, or C_Psid T, which it replaces."""
    M = psi.canonical_dual().analysis_matrix
    if T is not None:
        M = M @ np.asarray(T)
    return np.multiply(weight_values(m, psi.n)[:, None], M, out=M)


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


def _splitting_factor(O: np.ndarray, psi: Frame, slots: Slots) -> tuple:
    """(Y, Y_err): the d x n factor Y = L O (R D) - Dd of B_O = I + C Y,
    and its error map v -> |Y - fl Y| v.

    With L, R in {I, S^{-1}} set by the slots, Mat(O) = C L O R D and
    G_{Psi,Psid} = C S^{-1} D, so B_O = I + C (L O R - S^{-1}) D. Y is
    formed from the float inputs D = C^H, O and the dual synthesis matrix
    Dd (= S^{-1} D) alone: R D is D or Dd, S^{-1} D is Dd, and a dual left
    slot takes S^{-1} = Dd Dd^H. The matrix this defines, rounded nowhere,
    is the B_O that every verdict certifies. Y is formed in P = L O (R D)'s
    own memory, and P lives on only as |P| in the error map.
    """
    O = np.asarray(O)
    if O.shape != (psi.d, psi.d):
        raise ValueError("operator shape does not match the frame pair")
    n, d = psi.n, psi.d
    left, right = slots.value
    Dd = psi.canonical_dual().synthesis_matrix
    RD = _pick(psi, right).synthesis_matrix
    P = O @ RD
    P_err = lambda v: verified.gamma_c(d) * verified.abs_chain(v, O, RD)
    if left == "dual":
        DdH = Dd.conj().T
        L = Dd @ DdH
        L_err = lambda v: verified.gamma_c(n) * verified.abs_chain(v, Dd, DdH)
        P_err = verified.left_product_error(L, L_err, P, P_err)
        P = L @ P
    absP = np.abs(P)  # the error map reads P only through its moduli
    Y = np.subtract(P, Dd, out=P)

    def Y_err(v):  # P's rounding, then one rounding in P - Dd
        return P_err(v) + verified.gamma(1) * (absP @ v + verified.abs_chain(v, Dd))

    return Y, Y_err


class _SplitCore:
    """B_O for the slot choice ``slots``, certified in unweighted coordinates
    and read, for its p = 2 norms on l^2_w, as B_w = diag(w) B_O diag(1/w).

    B_O = I + X Y with X = C (n x d) and Y = L O (R D) - Dd (d x n) from
    :func:`_splitting_factor`. The verdict is
    :func:`framelift.verified.woodbury_certificate` on X, Y and Y's error
    map: a d x d Woodbury core, no QR and no n x k array. A diagonal
    similarity does not change invertibility, so the unweighted certificate
    decides B_w for every w; it keeps W = inv(I + Y X), so the inverse is
    B_w^{-1} = I - X_w W Y_w (X_w = diag(w) X, Y_w = Y diag(1/w), which
    have Y_w X_w = Y X). B_w = I + X_w Y_w and B_w^{-1} = I + X_w V with
    V = -(W Y_w) (:attr:`inverse_factor`, formed for each read) are read
    from those factors by :func:`matalg.operator_norm`. Every core certifies itself,
    so a core is built one way whatever its weight; two cores of the same
    O, frame and slots have the same certificate bit for bit.

    The p = 2 norms are sigma_max(B_w) and ||B_w^{-1}||_2, each by
    Golub-Kahan-Lanczos (:func:`matalg.sigma_max`) on B_w and B_w^{-1}
    applied through (X_w, Y_w) and (X_w, V) (:func:`matalg.identity_plus`)
    at O(n d) per product. A certified core reads its inverse norm on first
    use and makes no QR, no SVD and no inverse but the certificate's d x d
    one: ``inverse_norm`` is ||B_w^{-1}||_2, at least 1 where B_w fixes a
    vector. A core whose certificate fails may be
    singular, so nothing iterates on an inverse: its ``inverse_norm`` and
    ``inverse_factor`` are None, and its sigma_min comes from a values-only
    SVD (:attr:`sigma`).

    ``w = None`` is the unit weight. The certificate's temporaries and Y's
    error map (with |P|) are freed before either norm is read. Past the
    constructor the core keeps X_w, Y_w and W alone: V lives only while
    its reader runs, so no n x n, k x k or third n x d array is held
    between reads.
    """

    def __init__(self, O: np.ndarray, psi: Frame, slots: Slots = Slots.PSI_PSI, w=None):
        n = psi.n
        X = np.conjugate(psi.vectors.T)  # C = D^H
        Y, Y_err = _splitting_factor(O, psi, slots)
        self.W, self.certificate_margin = verified.woodbury_certificate(X, Y, Y_err)
        del Y_err
        w = weight_values(w, n)
        np.multiply(w[:, None], X, out=X)
        np.divide(Y, w[None, :], out=Y)
        self.n, self.w, self.X, self.Y = n, w, X, Y

    @property
    def inverse_factor(self):
        """V = -(W Y_w), so that B_w^{-1} = I + X_w V; None when the
        certificate fails. Re-formed on every read and held by no core, so
        V is alive only while its reader is: :attr:`inverse_norm`, or step
        (iv) of the pipeline once it has read B_w."""
        if not self.invertible():
            return None
        V = self.W @ self.Y
        return np.negative(V, out=V)

    @functools.cached_property
    def inverse_norm(self):
        """||B_w^{-1}||_2 by Golub-Kahan-Lanczos through (X_w, V), at least 1
        where B_w fixes a vector; None when the certificate fails."""
        V = self.inverse_factor
        return None if V is None else self._at_least_one(matalg.sigma_max(*matalg.identity_plus(self.X, V)))

    def invertible(self) -> bool:
        """Rump's certificate: :attr:`certificate_margin` < 1 proves B_O,
        and so every B_w, invertible. A singular B_O never passes: for it
        every I - B_O Xt has an eigenvalue 1."""
        return bool(self.certificate_margin < 1.0)

    @functools.cached_property
    def sigma(self) -> tuple:
        """(sigma_min, sigma_max) of B_w.

        sigma_max is that of B_w through its factors, by
        Golub-Kahan-Lanczos; at least 1 where B_w fixes a vector. A
        certified core's sigma_min is 1 / :attr:`inverse_norm`, the number
        step (iv) reports. Where the certificate fails, sigma_min is the
        smallest value of a values-only SVD of K, and at most 1 when d < n.
        K is B_w itself when 2d >= n. Otherwise it is the k x k compression
        K = I_k + (Q^H X_w)(Y_w Q), k = 2d, for Q a thin QR factor of
        [X_w, Y_w^H]: B_w equals K on ran(Q) and the identity on its
        complement, so its singular values are those of K, plus 1 (the
        compression behind the Sherman-Morrison-Woodbury formula; Golub &
        Van Loan, Matrix Computations). K is dropped on return.
        """
        top = self._at_least_one(matalg.sigma_max(*matalg.identity_plus(self.X, self.Y)))
        if self.invertible():
            return 1.0 / self.inverse_norm, top
        X, Y = self.X, self.Y
        if 2 * X.shape[1] < self.n:
            Q = np.linalg.qr(np.hstack([X, Y.conj().T]))[0]
            X, Y = Q.conj().T @ X, Y @ Q
        low = float(np.linalg.svd(np.eye(X.shape[0]) + X @ Y, compute_uv=False)[-1])
        return (min(low, 1.0) if self._fixes_vectors else low), top

    @property
    def _fixes_vectors(self) -> bool:
        """Whether B_w is the identity on a nonzero subspace: on ker Y_w,
        when d < n."""
        return self.X.shape[1] < self.n

    def _at_least_one(self, norm: float) -> float:
        """A 2-norm of B_w or of its inverse, raised to 1 where B_w fixes a
        vector (so both norms are at least 1)."""
        return max(norm, 1.0) if self._fixes_vectors else norm

    def apply(self, V: np.ndarray, w) -> np.ndarray:
        """diag(w) B_O diag(1/w) V for the columns of V, from X and Y with
        their weight rescaled to w: O(n d) per column."""
        r = (weight_values(w, self.n) / self.w)[:, None]
        return V + r * (self.X @ (self.Y @ (V / r)))

    def apply_adjoint(self, V: np.ndarray) -> np.ndarray:
        """B_O^H V = V + diag(w) Y^H X^H diag(1/w) V for the columns of V."""
        w = self.w[:, None]
        return V + w * (self.Y.conj().T @ (self.X.conj().T @ (V / w)))


def invertibility_verdicts(O: np.ndarray, psi: Frame) -> dict:
    """Invertibility of O on C^d versus of B_O on C^n, for all slot choices.

    Every verdict is Rump's certificate: the operator's from the dense
    d x d matrix (:func:`framelift.verified.dense_certificate`), each B_O
    verdict from its d x d Woodbury core
    (:func:`framelift.verified.woodbury_certificate`) on the one analysis matrix
    C. No QR, no SVD and no k x k core is made. The slot verdicts remain
    float certificates of the n x n B_O, with every n-dimensional rounding
    counted: they are this command's numerical test of the invertibility
    transfer, not a proof of it.
    """
    C = psi.analysis_matrix
    slot_verdicts = {}
    for slots in Slots:
        Y, Y_err = _splitting_factor(O, psi, slots)
        slot_verdicts[slots.name] = bool(verified.woodbury_certificate(C, Y, Y_err)[1] < 1.0)
    return {"operator": bool(verified.dense_certificate(O)[1] < 1.0), **slot_verdicts}


def _galerkin_decay(O: np.ndarray, psi: Frame, s: float) -> float:
    """Decay constant at s of Mat(O) = (C_Psi O) D_Psid, read one row slab
    at a time."""
    CO, Dd = psi.analysis_matrix @ O, psi.canonical_dual().synthesis_matrix
    scan = matalg.PairScan(psi.n)
    mat = scan.matrix("galerkin", lambda i0, i1, out: np.matmul(CO[i0:i1], Dd, out=out))
    decay = scan.decay(mat, s, psi.index_set)
    return scan.run()[decay]


def _upper_sides(psi: Frame, O: np.ndarray, inv, m, ps: list, seed: int) -> dict:
    """Per p, the upper side of O, and of its inverse ``inv`` unless None,
    on the weight m, with inner ends from draws seeded by ``seed``.
    B = diag(m) C_Psid is factorized once and shared by both and across p;
    O's map and the moduli of its draws are released before inv's map,
    built alone, and its draws are made. B's left inverse has one reader
    per map when some p != 2 asks for it, so it is formed once for both
    and dropped after the last."""
    readers = (1 if inv is None else 2) if any(p != 2 for p in ps) else 0
    A, B = _coefficient_maps(psi, O, m, m)
    A, B = _Factored(A), _Factored(B, readers)
    entries = {p: {"norm": upper_constant(A, B, p, seed), "invertible": inv is not None} for p in ps}
    del A
    if inv is not None:
        A_inv = _Factored(_coefficient_map(psi, inv, m))
        for p in ps:
            entries[p]["inverse_norm"] = upper_constant(A_inv, B, p, seed)
    return entries


def spectral_invariance_suite(
    O: np.ndarray, psi: Frame, weights: list, ps: list, s: float, seed: int = 0
) -> dict:
    """Condition constants of O on each coefficient-space H^p_m and verdict agreement.

    The operator acts on C^d; its coorbit condition at (p, m) is measured in
    dual-frame coefficient coordinates. In finite dimensions the verdict
    (invertible or not) must agree across all (p, m); the constants may vary.
    Each entry is the upper side of :func:`matalg.map_constants` alone
    (:func:`matalg.upper_constant`): per weight, B is factorized once and
    neither A nor A_inv is. O's verdict and its inverse both come from
    :func:`framelift.verified.dense_certificate`. Every scanned inner end
    comes from draws seeded by ``seed``. No n x n array is held: the Galerkin decay and the p = 1,
    inf norms of A B^+ are read in row slabs.
    """
    O = np.asarray(O)
    decay = _galerkin_decay(O, psi, s)
    inv, margin = verified.dense_certificate(O)
    if not margin < 1.0:  # not certified: no inverse norm is read
        inv = None
    report = {"operator_invertible": inv is not None, "galerkin_decay_constant": decay, "constants": {}}
    for i, m in enumerate(weights):
        for p, entry in _upper_sides(psi, O, inv, m, ps, seed).items():
            report["constants"][f"w{i}_p{p}"] = entry
    return report
