"""Finite frames in C^d and the Gram-matrix identity suite.

Conventions, fixed once and used everywhere: the inner product is linear in
its first argument, frame vectors are the columns psi_k of a d x n matrix V,
and

    analysis      (C f)_k = <f, psi_k>            C = V^H   (n x d)
    synthesis     D c     = sum_k c_k psi_k       D = V = C^H
    frame op      S = D C = V V^H                 (d x d)
    Gram          G = C D = V^H V,  G_kl = <psi_l, psi_k>

The canonical dual has vectors S^{-1} psi_k. A family counts as a frame when
the smallest eigenvalue of S clears FRAME_RTOL times the largest; families
below the threshold are still constructible (experiments deliberately build
them) but dual-dependent operations raise :class:`NotAFrameError`.
"""

import json

import numpy as np

from . import matalg
from .weights import IndexSet

FRAME_RTOL = 1e-8


class NotAFrameError(ValueError):
    def __init__(self, lower: float, upper: float):
        self.lower = lower
        self.upper = upper
        super().__init__(
            f"family is not a frame: lower bound {lower:.3e} below threshold "
            f"({FRAME_RTOL:.0e} * upper bound {upper:.3e})"
        )


class Frame:
    """A family of n >= 1 vectors in C^d, given as columns of ``vectors``.

    The index set defaults to the integer points 0..n-1 on the line; Gabor
    and Fock constructors attach their own geometric index sets.
    """

    def __init__(self, vectors, index_set: IndexSet | None = None):
        V = np.asarray(vectors, dtype=complex)
        if V.ndim != 2 or V.shape[1] == 0:
            raise ValueError("vectors must be a d x n matrix with n >= 1")
        if not np.all(np.isfinite(V)):
            raise ValueError("frame vectors must be finite")
        self.vectors = V
        self.index_set = index_set if index_set is not None else IndexSet(np.arange(V.shape[1]))
        if len(self.index_set) != V.shape[1]:
            raise ValueError("index set size must equal the number of frame vectors")
        self._S = None
        self._G = None
        self._bounds = None
        self._dual = None

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def analysis_matrix(self) -> np.ndarray:
        return self.vectors.conj().T

    @property
    def synthesis_matrix(self) -> np.ndarray:
        return self.vectors

    @property
    def frame_operator(self) -> np.ndarray:
        if self._S is None:
            self._S = self.vectors @ self.vectors.conj().T
        return self._S

    @property
    def gram_matrix(self) -> np.ndarray:
        if self._G is None:
            self._G = self.vectors.conj().T @ self.vectors
        return self._G

    @property
    def bounds(self) -> tuple:
        """Extreme eigenvalues of S, without the frame-property check."""
        if self._bounds is None:
            ev = np.linalg.eigvalsh(self.frame_operator)
            self._bounds = (float(ev[0]), float(ev[-1]))
        return self._bounds

    @property
    def is_frame(self) -> bool:
        a, b = self.bounds
        return a > FRAME_RTOL * b

    def canonical_dual(self) -> "Frame":
        if self._dual is None:
            a, b = self.bounds
            if not self.is_frame:
                raise NotAFrameError(a, b)
            dual_vectors = np.linalg.solve(self.frame_operator, self.vectors)
            self._dual = Frame(dual_vectors, self.index_set)
        return self._dual

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "vectors_real": self.vectors.real.ravel().tolist(),
            "vectors_imag": self.vectors.imag.ravel().tolist(),
            "index_set": self.index_set.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Frame":
        shape = (d["d"], d["n"])
        V = np.empty(shape, dtype=complex)  # parts set apart: no 1j * inf = nan + inf j
        V.real = np.reshape(d["vectors_real"], shape)
        V.imag = np.reshape(d["vectors_imag"], shape)
        return cls(V, IndexSet.from_dict(d["index_set"]))

    @classmethod
    def load_json(cls, path) -> "Frame":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _rel(err: float, scale: float) -> float:
    return err / max(1.0, scale)


def _max_abs(A: np.ndarray) -> float:
    return float(np.abs(A).max())


def _gap(rows: np.ndarray, P: np.ndarray, moduli: np.ndarray) -> float:
    """max|rows - P|; the difference overwrites ``rows`` and its moduli fill
    ``moduli``, so no array is allocated."""
    return np.abs(np.subtract(rows, P, out=rows), out=moduli).max()


def gram_identities_check(frame: Frame, rtol: float = 1e-10) -> dict:
    """Residuals of the Gram identities and the coefficient-space projection laws.

    Checks G_Psi G_Psid = G_{Psi,Psid}, the two pseudo-inverse identities
    G_{Psi,Psid} = G^dagger G and G_Psid = (G^dagger)^2 G, and that
    P = G_{Psi,Psid} = C Dd is the orthogonal projection fixing ran(C_Psi)
    and killing ker(D_Psi). C, D are the analysis and synthesis matrices of
    the frame, Cd, Dd those of its canonical dual; each residual is the
    entrywise max modulus of the matrix below, divided by max(1, scale):

        product_identity        C((D Cd) Dd) - P              scale max_k ||psi_k||^2
        pinv_cross              (U s^-2)((U^H C) D) - P
        pinv_dual               (U s^-4)((U^H C) D) - Cd Dd   scale max|G_Psid|
        idempotent              C((Dd C) Dd) - P
        self_adjoint            P^H - P
        fixes_analysis_range    C(Dd C) - C                   scale max|C|
        kills_synthesis_kernel  C(Dd - (Dd U) U^H)
        splitting               D - (D C) Dd

    with C = U diag(s) W^H a thin SVD, so G = U s^2 U^H and G^dagger =
    U s^-2 U^H without a rank cut: canonical_dual() has already found
    S = D C of full rank. By Cauchy-Schwarz, max|G| is its largest diagonal
    entry max_k ||psi_k||^2, so G itself is not formed. ker(D_Psi) =
    ran(U)^perp, so the last two are 0 when n = d. projection_rank is the
    rounded trace of P = trace(Dd C).

    Every matrix product has d among its dimensions, and the SVD of the
    n x d matrix C is the one factorization. No n x n matrix is held: each
    n x n one is a left n x d factor times a d x n right factor, formed
    once, and is read in row slabs (:func:`matalg._slabs`) as rows
    L[i0:i1] R, written into buffers carved from one block that the check
    allocates once. The only n x d left factors held whole are U and C,
    and C only until the right factors exist: a slab's rows of C and Cd
    are the conjugated columns D[:, i0:i1]^H and Dd[:, i0:i1]^H, the same
    numbers. A row slab of a product rounds like the same rows of
    the whole product, while a column slab, or Cd D in place of conj(P)^T,
    need not (BLAS may order the complex multiply-adds differently). So
    self_adjoint pairs the block P[I, J] of row slab I with P[J, I] read
    from the rows of slab J, for J >= I: |P^H - P| takes equal values on
    (i, j) and (j, i). A max is exact, so every residual equals the one
    read from the whole matrices bit for bit.
    """
    D, Dd = frame.synthesis_matrix, frame.canonical_dual().synthesis_matrix
    C = frame.analysis_matrix
    n, d = C.shape
    U, s, _ = np.linalg.svd(C, full_matrices=False)
    DdC = Dd @ C
    gram_max = float((D.real**2 + D.imag**2).sum(axis=0).max())  # max_k ||psi_k||^2 = max|G|
    fixes = _rel(_max_abs(C @ DdC - C), _max_abs(C))
    splitting = _max_abs(D - (D @ C) @ Dd) if n > d else 0.0
    # The d x n right factors; each n x n product below is (left rows) @ right.
    UhCD = (U.conj().T @ C) @ D
    del C  # from here on, rows of C and Cd are conjugated columns of D and Dd
    identity, idempotent = (D @ Dd.conj().T) @ Dd, DdC @ Dd
    kernel = Dd - (Dd @ U) @ U.conj().T if n > d else None
    s2, s4 = s**-2, s**-4

    def rows_of(Z, i0, i1):  # rows i0:i1 of Z^H
        return Z[:, i0:i1].conj().T

    slabs = matalg._slabs(n)
    r = max(i1 - i0 for i0, i1 in slabs)
    # One block holds every buffer: the rows of G_Psid and then of P, the
    # rows of one product, their moduli, and rows of U s^-k.
    block = np.empty(5 * r * n + 2 * r * d)
    P_buf, T_buf = (block[i * r * n : (i + 2) * r * n].view(complex).reshape(r, n) for i in (0, 2))
    moduli = block[4 * r * n : 5 * r * n].reshape(r, n)
    Us_buf = block[5 * r * n :].view(complex).reshape(r, d)
    keys = ("Gd", "pinv_dual", "product_identity", "pinv_cross", "idempotent", "self_adjoint", "kills_synthesis_kernel")
    maxima = {key: [] for key in keys}
    for k, (i0, i1) in enumerate(slabs):
        m = i1 - i0
        P, T, A, Us, Cr = P_buf[:m], T_buf[:m], moduli[:m], Us_buf[:m], rows_of(D, i0, i1)
        np.matmul(rows_of(Dd, i0, i1), Dd, out=P)  # rows of G_Psid
        maxima["Gd"].append(np.abs(P, out=A).max())
        np.multiply(U[i0:i1], s4, out=Us)
        maxima["pinv_dual"].append(_gap(np.matmul(Us, UhCD, out=T), P, A))
        np.matmul(Cr, Dd, out=P)  # rows of P
        maxima["product_identity"].append(_gap(np.matmul(Cr, identity, out=T), P, A))
        np.multiply(U[i0:i1], s2, out=Us)
        maxima["pinv_cross"].append(_gap(np.matmul(Us, UhCD, out=T), P, A))
        maxima["idempotent"].append(_gap(np.matmul(Cr, idempotent, out=T), P, A))
        if kernel is not None:
            maxima["kills_synthesis_kernel"].append(np.abs(np.matmul(Cr, kernel, out=T), out=A).max())
        # Last, as it overwrites P: |P^H - P| on the blocks (I, J >= I) of
        # this slab I, each P[J, I] read from whole rows of slab J.
        for j0, j1 in slabs[k:]:
            rows_J = T_buf[: j1 - j0]
            if j0 == i0:
                np.copyto(rows_J, P)
            else:
                np.matmul(rows_of(D, j0, j1), Dd, out=rows_J)
            conj_JI = np.conjugate(rows_J[:, i0:i1], out=rows_J[:, i0:i1])
            gap = np.subtract(P[:, j0:j1], conj_JI.T, out=P[:, j0:j1])  # -(P^H - P) on block (I, J)
            maxima["self_adjoint"].append(np.abs(gap, out=A[:, : j1 - j0]).max())
    top = {key: float(np.max(v, initial=0.0)) for key, v in maxima.items()}
    resid = {
        "product_identity": _rel(top["product_identity"], gram_max),
        "pinv_cross": top["pinv_cross"],
        "pinv_dual": _rel(top["pinv_dual"], top["Gd"]),
        "idempotent": top["idempotent"],
        "self_adjoint": top["self_adjoint"],
        "fixes_analysis_range": fixes,
        "kills_synthesis_kernel": top["kills_synthesis_kernel"],
        "splitting": splitting,
    }
    resid["projection_rank"] = int(np.round(np.trace(DdC).real))
    resid["ok"] = all(v < rtol for k, v in resid.items() if k != "projection_rank")
    return resid


def random_frame(rng: np.random.Generator, n: int, d: int, kind: str = "generic") -> Frame:
    """Random test frames: "generic" (Gaussian columns), "tight", or "onb".

    Tight frames are the first d columns of the Q factor of a random n x n
    Gaussian, conjugate-transposed and scaled so that A = B = n / d; "onb"
    requires n = d. Those columns depend on the first d columns of the draw
    alone, so only they are factored.
    """
    if n < d:
        raise ValueError("need n >= d")
    if kind == "generic":
        V = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
        # Gaussian d x n with n >= d is almost surely a frame; rescale to
        # keep bounds O(1).
        return Frame(V / np.sqrt(n))
    if kind in ("tight", "onb"):
        if kind == "onb" and n != d:
            raise ValueError("an orthonormal basis needs n = d")
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q = np.linalg.qr(M[:, :d])[0]
        return Frame(Q.conj().T * np.sqrt(n / d))
    raise ValueError(f"unknown frame kind {kind!r}")


def onb(d: int) -> Frame:
    return Frame(np.eye(d, dtype=complex))
