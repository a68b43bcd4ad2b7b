"""Matrix bookkeeping for off-diagonal decay and weighted conjugation.

The central surrogate is the decay profile: for a matrix A over an index set
with distances d(k,l), the best constant C_s with |a_kl| <= C_s (1+d(k,l))^(-s).
Finite matrices belong to every decay class, so the content of the profile is
never membership but the size of the constant and how it scales across a
family of growing index sets.

Weighted conjugation A^mu = diag(mu) A diag(1/mu) realizes the same operator
on the weighted space l^2_mu in unweighted coordinates; norms on weighted
spaces are computed through it.

Induced l^p norms are computed here for the whole package. Every inner
side of a bracket is a scan of MAP_SAMPLES seeded draws (:func:`_draws`),
made once per matrix for all p. :func:`operator_norm` reads T = I + U V
from its factors, for every requested p at once: exact for p in
{1, 2, inf}, a bracket otherwise.
:func:`map_constants` owns the constants between two coefficient maps,
the lifting constants among them: exact generalized singular values at
p = 2, certified brackets otherwise;
:func:`upper_constant` is its upper side alone. :func:`sigma_max` finds a
2-norm, the largest singular value, by Golub-Kahan-Lanczos in a few
products with vectors where no other singular value is needed: of a dense
matrix, or of I + U V through its factors.

The rounding model and the invertibility certificates live in
:mod:`framelift.verified`; matalg reads only its unit roundoff, for the
stopping rule of :func:`sigma_max`.
"""

import functools
import weakref

import numpy as np

from . import kernels
from .verified import UNIT_ROUNDOFF
from .weights import IndexSet, lp_norms, weight_values

# Singular values at or below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-10
# Seeded draws behind the inner side of a bracket: map_constants, operator_norm.
MAP_SAMPLES = 256
# Golub-Kahan-Lanczos (sigma_max) stops once its top Ritz residual is at most
# this many times u times the Ritz value.
LANCZOS_RTOL = 4
# Rows alive at a time when an n x n matrix is read in row slabs: the moduli
# sums of _moduli_sums, a PairScan's pair constants, the Gram identities.
SLAB_ROWS = 256
# A PairScan told that its index order is a lattice checks one more row of
# each table against row 0: entries may differ by this much relative to
# row 0's largest (gabor_system's float frames reach 8.4e-14 at N = 512).
LATTICE_RTOL = 1e-9


def decay_constant(A: np.ndarray, s: float, idx: IndexSet) -> float:
    """Exact minimal C_s with |a_kl| <= C_s (1 + dist(k,l))^(-s), read by a
    :class:`PairScan` of the rows of A."""
    A = np.asarray(A)
    n = len(idx)
    if A.shape != (n, n):
        raise ValueError("matrix shape does not match index set size")
    scan = PairScan(n)
    j = scan.decay(scan.matrix("A", lambda i0, i1, out: A[i0:i1]), s, idx)
    return scan.run()[j]


def _slabs(n: int) -> list:
    """Row slabs (i0, i1) of SLAB_ROWS rows covering 0..n-1. A last slab of
    one row joins the slab before it: a one-row product is a matrix-vector
    product in BLAS, whose sums may round differently from the same row of
    the whole product."""
    starts = list(range(0, n, SLAB_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _lattice_differences(P: int, Q: int, k: int) -> np.ndarray:
    """Per column l, the index of the lattice difference l - k on the P x Q
    torus lattice with index order k = ix Q + iw."""
    ix, iw = np.divmod(np.arange(P * Q), Q)
    return ((ix - ix[k]) % P) * Q + (iw - iw[k]) % Q


def _check_covariant(row0: np.ndarray, row: np.ndarray, perm: np.ndarray, what: str) -> None:
    """Raise ValueError unless ``row`` equals ``row0`` permuted by ``perm``,
    entrywise within LATTICE_RTOL times the largest entry of ``row0``."""
    gap = float(np.max(np.abs(row - row0[perm])))
    if not gap <= LATTICE_RTOL * float(np.max(row0)):
        raise ValueError(f"{what} is not covariant on the declared lattice: rows differ by {gap:.3e}")


def _ratio_table(w: np.ndarray, P: int, Q: int) -> np.ndarray:
    """R(delta) = max_k w_k / w_{k + delta} over the differences delta of the
    P x Q torus lattice, in the index order k = ix Q + iw.

    Each quotient is the one the slab route forms, and a max is exact. The
    n^2 quotients are made a block of differences at a time: each row of Q
    differences in pieces of at most SLAB_ROWS, so one buffer of at most
    SLAB_ROWS n floats serves every block. A constant weight has R = 1, its
    every quotient, with no divide.
    """
    n = P * Q
    if w.min() == w.max():
        return np.ones(n)
    W = w.reshape(P, Q)
    # shifted[x, y] is W moved by the difference (x, y): its entry (ix, iw)
    # is w at the lattice point (ix + x, iw + y).
    shifted = np.lib.stride_tricks.sliding_window_view(np.tile(W, (2, 2))[: 2 * P - 1, : 2 * Q - 1], (P, Q))
    block = np.empty(min(SLAB_ROWS, Q) * n)
    R = np.empty((P, Q))
    for x in range(P):
        for y0 in range(0, Q, SLAB_ROWS):
            y1 = min(Q, y0 + SLAB_ROWS)
            quotients = block[: (y1 - y0) * n].reshape(y1 - y0, P, Q)
            np.divide(W, shifted[x, y0:y1], out=quotients)
            R[x, y0:y1] = quotients.reshape(y1 - y0, n).max(axis=1)
    return R.reshape(n)


class PairScan:
    """Constants that are maxima over the index pairs (k, l) of n-point index
    sets, read in one pass, so no n x n table is held.

    A request is a decay constant max |(w_k / w_l) a_kl| (1 + d_kl)^s of a
    registered matrix (:meth:`decay`) or a moderateness constant max
    (m_k / m_l) / g(d_kl) for a growth law g: polynomial, (1 + d)^t
    (:meth:`moderateness`), or subexponential, exp(alpha d^beta)
    (:meth:`subexponential`). Each request names its index set and its
    growth law, a kernel of :mod:`framelift.kernels` with its parameters;
    a decay request's law is the polynomial one at s. A weight ratio that
    overflows is inf, with no warning.

    :meth:`run` is one pass over row ranges i0:i1. In each range it forms
    every index set's distances, every (index set, law) growth table, and
    every matrix's rows and their moduli once, and every request that reads
    them shares them: a moderateness constant is the max of ratio / g
    (:func:`framelift.kernels.moderateness_max`), a decay constant the max
    of |a| g, with |ratio a| for a weighted request
    (:func:`framelift.kernels.decay_max`). Each range fills the same
    buffers, carved from one block of O(SLAB_ROWS n) floats that the pass
    allocates once, so the ranges do not churn the heap. The ranges and
    the weight ratio rows come from one of two row sources (:meth:`_route`).

    Row slabs, by default: rows i0:i1, SLAB_ROWS at a time (:func:`_slabs`),
    with rows i0:i1 of the quotients w_k / w_l. Every constant equals the
    dense formula on the whole matrix bit for bit: each entry goes through
    the same elementwise operations, and a max is exact.

    A lattice, once :meth:`on_lattice` has declared the index order a P x Q
    torus lattice on which every registered matrix and index set is
    covariant: |a_kl| and d_kl depend only on the lattice difference
    delta = l - k. The Gram, dual Gram and cross-Gram of a lattice Gabor
    system and its torus distances are (the canonical dual is the Gabor
    system of S^{-1} g, since S commutes with the lattice's time-frequency
    shifts: Groechenig, Foundations of Time-Frequency Analysis, Prop.
    5.2.1). Each constant is then a max over the n differences,

        decay         max_delta |R_w(delta) a_0,delta| (1 + d_0,delta)^s,
        moderateness  max_delta R_m(delta) / g(d_0,delta),

    so the one range is row 0 of each matrix (its ``rows`` hook) and of
    each index set, and the ratio row is the table R_w(delta) = max_k w_k /
    w_{k + delta}, one per distinct weight (:func:`_ratio_table`), whose
    real divides are the only O(n^2) work. The declaration is checked, not
    trusted: before the pass, row n - 1 of every matrix's moduli and of
    every index set's distances is compared with row 0 permuted to it
    (:func:`_check_covariant`), in O(n d), and a table that is not
    covariant raises ValueError. Division by a positive float is monotone,
    so it commutes with the max: where the distances are exact (integer
    torus points), every moderateness constant equals the slab route's bit
    for bit. Decay constants are those of row 0; they differ from the
    all-pairs maxima by the rounding of the float matrix.
    """

    def __init__(self, n: int):
        self.n = n
        self._sources = {}  # key -> rows(i0, i1, out)
        self._requests = []  # (index set, growth law, weight or values, matrix key; None: moderateness)
        self.lattice = None  # (P, Q) once declared by on_lattice
        self.values = None

    def on_lattice(self, P: int, Q: int) -> None:
        """Declare the index order the P x Q torus lattice k = ix Q + iw (as
        in :attr:`framelift.gabor.TFLattice.points`), with every registered
        matrix and index set covariant on it; :meth:`run` then takes the
        lattice route."""
        if P * Q != self.n:
            raise ValueError(f"a {P} x {Q} lattice does not have the scan's {self.n} points")
        self.lattice = (int(P), int(Q))

    def matrix(self, key, rows):
        """Register the n x n matrix named by the hashable ``key``.

        rows(i0, i1, out) returns its rows i0:i1; ``out`` is a complex
        buffer of that shape it may fill. A key already registered keeps its
        first rows function, so requests on one key share its rows. Returns
        the key.
        """
        self._sources.setdefault(key, rows)
        return key

    def gram(self, frame, other=None):
        """Register the cross-Gram G_{Psi,Phi} = C_Psi D_Phi of two frames,
        given by their d x n ``vectors`` (the Gram matrix G_Psi when
        ``other`` is None): rows i0:i1 are C_Psi[i0:i1] D_Phi, one product
        of the slab's vectors with all of Phi's."""
        other = frame if other is None else other

        def rows(i0, i1, out):
            return np.matmul(frame.vectors[:, i0:i1].conj().T, other.vectors, out=out)

        return self.matrix(("gram", frame, other), rows)

    def _request(self, idx, law, values, key=None) -> int:
        if len(idx) != self.n or (values is not None and np.shape(values) != (self.n,)):
            raise ValueError("index set or weight length does not match the scan")
        self._requests.append((idx, law, None if values is None else np.asarray(values, dtype=float), key))
        return len(self._requests) - 1

    def decay(self, key, s: float, idx: IndexSet, w=None) -> int:
        """Request the decay constant of the matrix ``key`` at s on ``idx``,
        conjugated by the weight values w (None: not conjugated); returns
        the request's position in :meth:`run`'s values."""
        if key not in self._sources:
            raise KeyError(f"no matrix registered as {key!r}")
        return self._request(idx, (kernels.growth_table, float(s)), w, key)

    def moderateness(self, values, t: float, idx: IndexSet) -> int:
        """Request the polynomial moderateness constant of the weight values at t."""
        return self._request(idx, (kernels.growth_table, float(t)), values)

    def subexponential(self, values, alpha: float, beta: float, idx: IndexSet) -> int:
        """Request the subexponential moderateness constant of the weight values."""
        return self._request(idx, (kernels.exp_growth_table, float(alpha), float(beta)), values)

    def run(self) -> list:
        """Every requested constant, in request order, also kept as
        :attr:`values`. The scan then releases its matrices and index sets."""
        n, requests = self.n, self._requests
        per_set, reads = {}, {}  # per index set its growth laws, per matrix key its decay requests
        for j, (idx, law, _, key) in enumerate(requests):
            per_set.setdefault(idx, {})[law] = None  # a dict keeps the laws' request order
            if key is not None:
                reads.setdefault(key, []).append(j)
        keys = [(idx, law) for idx, laws in per_set.items() for law in laws]
        weighted = any(key is not None and w is not None for _, _, w, key in requests)
        maxima = [[] for _ in requests]
        # A weight ratio that overflows is inf; an entry 0 times it is the
        # NaN that kernels.decay_max skips.
        with np.errstate(over="ignore", invalid="ignore"):
            ranges, ratios = self._route(per_set, reads)
            shape = (max(i1 - i0 for i0, i1 in ranges), n)
            # One block holds every buffer of the pass: one complex buffer
            # (pairs of floats) for a matrix's rows and, for weighted
            # requests, one for their conjugated copy; the moduli (which
            # first hold each index set's distances), a scratch buffer and a
            # growth table per (index set, law).
            size, n_complex = shape[0] * n, 2 if weighted else 1
            block = np.empty((len(keys) + 2 + 2 * n_complex) * size)
            bufs = block[: 2 * n_complex * size].view(complex).reshape((n_complex,) + shape)
            rows_buf, conj_buf = bufs[0], (bufs[1] if weighted else None)
            moduli, scratch, *tables = block[2 * n_complex * size :].reshape((-1,) + shape)
            growths = dict(zip(keys, tables))
            for i0, i1 in ranges:
                r = i1 - i0
                for idx, laws in per_set.items():
                    d = idx.distances(i0, i1, out=moduli[:r])
                    for law in laws:
                        law[0](d, *law[1:], out=growths[idx, law][:r])
                for j, (idx, law, v, key) in enumerate(requests):
                    if key is None:
                        ratio = ratios(v, i0, i1, scratch[:r])
                        maxima[j].append(kernels.moderateness_max(ratio, growths[idx, law][:r], out=scratch[:r]))
                for key, js in reads.items():
                    A, absA = self._sources[key](i0, i1, rows_buf[:r]), None
                    for j in js:
                        idx, law, w, _ = requests[j]
                        if w is None:  # the moduli of the rows, shared by every unweighted request
                            if absA is None:
                                absA = np.abs(A, out=moduli[:r])
                            a = absA
                        else:  # the rows of diag(w) A diag(1/w), then their moduli
                            ratio = ratios(w, i0, i1, scratch[:r])
                            a = np.abs(np.multiply(ratio, A, out=conj_buf[:r]), out=scratch[:r])
                        maxima[j].append(kernels.decay_max(a, growths[idx, law][:r], out=scratch[:r]))
        self.values = [float(np.max(m)) for m in maxima]
        self._sources, self._requests = {}, []  # a scan runs once; drop what it read
        return self.values

    def _route(self, per_set, reads) -> tuple:
        """The pass's row ranges and its weight ratio rows ratios(w, i0, i1,
        out): every row slab and rows i0:i1 of w_k / w_l, or, on a declared
        lattice, row 0 alone and R_w, once row n - 1 of every index set's
        distances and of every matrix's moduli has confirmed the lattice.
        Each matrix then hands the pass the row 0 its check read."""
        n = self.n
        if self.lattice is None:

            def quotients(w, i0, i1, out):
                return np.divide(w[i0:i1, None], w[None, :], out=out)

            return _slabs(n), quotients
        (P, Q), last = self.lattice, n - 1
        perm = _lattice_differences(P, Q, last)
        for idx in per_set:
            _check_covariant(idx.distances(0, 1)[0], idx.distances(last, n)[0], perm, "an index set's distance table")
        for key in reads:
            rows = self._sources[key]
            row0, row = (rows(i, i + 1, np.empty((1, n), dtype=complex)) for i in (0, last))
            _check_covariant(np.abs(row0[0]), np.abs(row[0]), perm, "a registered matrix")
            self._sources[key] = lambda i0, i1, out, row0=row0: row0  # the pass reads the checked row 0
        tables = {}  # one ratio table per distinct weight, keyed by its values

        def ratio_row(w, i0, i1, out):
            key = w.tobytes()
            if key not in tables:
                tables[key] = _ratio_table(w, P, Q)[None, :]
            return tables[key]

        return [(0, 1)], ratio_row


def conjugate(A: np.ndarray, mu) -> np.ndarray:
    """diag(mu) A diag(1/mu); entrywise (mu_k/mu_l) a_kl."""
    A = np.asarray(A)
    v = weight_values(mu, A.shape[0])
    if A.shape[0] != A.shape[1]:
        raise ValueError("conjugation requires a square matrix")
    return (v[:, None] / v[None, :]) * A


def pseudo_inverse(A: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse; rank decided at RANK_RTOL * sigma_max."""
    return np.linalg.pinv(np.asarray(A), rcond=RANK_RTOL)


def _moduli_sums(n: int, rows) -> tuple:
    """(max column sum, max row sum) of |T|, the exact p = 1 and p = inf
    norms of the n x n matrix T, read one :func:`_slabs` slab at a time.

    rows(i0, i1, out) returns rows i0:i1 of T; ``out`` is a complex buffer
    of that shape it may fill. Both sums equal those of the whole |T| bit
    for bit: a row sum reads one row, and |T|.sum(axis=0) adds the rows of
    |T| one after another. So the running column sums (which start at 0,
    and 0 + x = x exactly) are added into a slab's first row, and the
    slab's reduce over its rows, which also adds them in row order, gives
    the new running sums. One block, allocated once, holds a slab's rows,
    their moduli and the sums.
    """
    slabs = _slabs(n)
    r = max(i1 - i0 for i0, i1 in slabs)
    block = np.empty((3 * r + 1) * n)
    rows_buf = block[: 2 * r * n].view(complex).reshape(r, n)
    moduli = block[2 * r * n : 3 * r * n].reshape(r, n)
    cols = block[3 * r * n :]
    cols.fill(0.0)
    row_max = []
    for i0, i1 in slabs:
        a = np.abs(rows(i0, i1, rows_buf[: i1 - i0]), out=moduli[: i1 - i0])
        row_max.append(a.sum(axis=1).max())
        a[0] += cols
        np.add.reduce(a, axis=0, out=cols)
    return float(cols.max()), float(np.max(row_max))


def sigma_max(apply, apply_adjoint, n: int) -> float:
    """Largest singular value of an n x n operator A, given as the maps
    ``apply`` (v -> A v) and ``apply_adjoint`` (u -> A^H u), by
    Golub-Kahan-Lanczos bidiagonalization (Golub and Kahan, SIAM J. Numer.
    Anal. B 2, 1965). :func:`identity_plus` gives the maps of I + U V.

    From a seeded unit start vector v_1 the recurrences

        alpha_j u_j = A v_j - beta_{j-1} u_{j-1},
        beta_j v_{j+1} = A^H u_j - alpha_j v_j

    build orthonormal U_j and V_j with A V_j = U_j B_j, B_j upper
    bidiagonal (alpha on the diagonal, beta above it). Each new vector is
    orthogonalized against all the earlier ones, twice, so both bases stay
    orthonormal to working precision. The estimate is the top Ritz value
    theta = sigma_max(B_j), the square root of the top eigenvalue of the
    real tridiagonal T = B_j^T B_j: with T q = theta^2 q, the Ritz vectors
    x = V_j q and y = U_j B_j q / theta have A x = theta y and
    ||A^H y - theta x|| = alpha_j beta_j |q_j| / theta, and some singular
    value of A lies within that residual of theta. The run stops once the
    residual is at most LANCZOS_RTOL u theta. Otherwise it stops at step n,
    where the bidiagonalization is complete and B_n has the singular
    values of A; an alpha_j or beta_j of exactly 0 (an invariant subspace:
    the zero matrix, the identity) ends it before. After j steps the bases
    hold 2 j n numbers.

    The recurrences square what they read (the norms, B_j^T B_j, theta^2),
    which overflows once sigma_max passes about 1e154. So when A v_1 has
    an entry above 2^256, the run is made on A / 2^k, 2^k the power of two
    just above that entry, and theta is scaled back. A power of two scales
    every step exactly, and a run that stays below 2^256 is not touched.
    A start product that has itself overflowed cannot be rescaled, and it
    proves nothing about sigma_max: it raises LinAlgError.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    with np.errstate(over="ignore", invalid="ignore"):
        Av, scale = apply(v), 1.0
    if not np.all(np.isfinite(Av)):
        raise np.linalg.LinAlgError("the Golub-Kahan start product A v_1 overflowed")
    top = float(np.max(np.abs(Av)))
    if top > 2.0**256:
        scale = 2.0 ** -np.frexp(top)[1]
        Av *= scale
        apply, apply_adjoint = (lambda x, f=apply: scale * f(x)), (lambda x, f=apply_adjoint: scale * f(x))
    U, V, alphas, betas = [], [], [], []
    u, beta = np.zeros_like(v), 0.0
    while True:
        V.append(v)
        u = _orthogonalize(Av - beta * u, U)
        alpha = float(np.linalg.norm(u))
        alphas.append(alpha)
        if alpha == 0.0:
            return _top_ritz(alphas, betas)[0] / scale
        u /= alpha
        U.append(u)
        v = _orthogonalize(apply_adjoint(u) - alpha * v, V)
        beta = float(np.linalg.norm(v))
        betas.append(beta)
        theta, q_last = _top_ritz(alphas, betas)
        if alpha * beta * abs(q_last) <= LANCZOS_RTOL * UNIT_ROUNDOFF * theta**2 or len(alphas) == n:
            return theta / scale
        v /= beta
        Av = apply(v)


def identity_plus(U: np.ndarray, V: np.ndarray) -> tuple:
    """The :func:`sigma_max` arguments of T = I + U V (U n x k, V k x n),
    applied through its factors at O(n k) per product and never assembled:
    T v = v + U (V v), and T^H u = u + conj((conj(u) U) V)."""
    return (lambda v: v + U @ (V @ v)), (lambda u: u + ((u.conj() @ U) @ V).conj()), U.shape[0]


def _orthogonalize(x: np.ndarray, basis: list) -> np.ndarray:
    """x minus its projection on the span of the orthonormal vectors in
    ``basis``, taken twice (classical Gram-Schmidt with one
    reorthogonalization)."""
    if basis:
        R = np.array(basis)
        for _ in range(2):
            x = x - (R @ x.conj()).conj() @ R
    return x


def _top_ritz(alphas: list, betas: list) -> tuple:
    """(sigma_max(B), last entry of its right singular vector) for the upper
    bidiagonal B with ``alphas`` on the diagonal and the first
    len(alphas) - 1 ``betas`` above it, from the top eigenpair of the
    tridiagonal B^T B."""
    a, b = np.array(alphas), np.array(betas[: len(alphas) - 1])
    T = np.diag(a**2)
    T[1:, 1:] += np.diag(b**2)
    i = np.arange(len(b))
    T[i, i + 1] = T[i + 1, i] = a[:-1] * b
    lam, Q = np.linalg.eigh(T)
    return float(np.sqrt(max(lam[-1], 0.0))), float(Q[-1, -1])


def _draws(n_samples: int, d: int, seed: int) -> np.ndarray:
    """Seeded complex Gaussian draws, one per row. Row i is f_i: its real
    parts, then its imaginary parts, drawn in sample order, so a seed fixes
    each f_i whatever n_samples is."""
    draws = np.random.default_rng(seed).standard_normal((n_samples, 2, d))
    return draws[:, 0] + 1j * draws[:, 1]


def _ratios(AF, BF, p) -> np.ndarray:
    """||A f||_p / ||B f||_p from the rows of AF = F A^T and BF = F B^T (or
    their moduli), skipping the draws with B f = 0."""
    den = lp_norms(BF, p)
    keep = den != 0
    return lp_norms(AF[keep], p) / den[keep]


def operator_norm(U: np.ndarray, V: np.ndarray, ps, n2: float) -> dict:
    """Induced l^p norms of T = I + U V (U n x k, V k x n) for every p in
    ``ps``, as {p: norm} for p in {1, 2, inf} and {p: (lower, upper)} for
    other p in (1, inf). T is read from its factors and never assembled. On
    a weighted space l^p_w, pass the factors of diag(w) T diag(1/w).

    p = 2 is n2, T's exact 2-norm, known without reading T (found by
    :class:`framelift.multipliers._SplitCore`). Every norm and upper end is
    :func:`_outer_end`'s, from n2 and the column and row sums of |T|, which
    are read once in row slabs (:func:`_moduli_sums`) when some p != 2
    first asks for them. When some p is not in {1, 2, inf}, one set of
    MAP_SAMPLES draws F seeded by 0, as :func:`map_constants` makes by
    default, and the moduli of F and of F T^T = F + (F V^T) U^T are made
    once, and each such p takes its lower end, the largest ratio
    ||T f||_p / ||f||_p, from them. When k < n, every x in ker V has
    T x = x, so ||T||_p >= 1 and no lower end is below 1. U and V are read
    only when some p != 2.
    """
    n, k = U.shape

    def rows(i0, i1, out):  # rows i0:i1 of T: U V, then + 1 on the diagonal
        T = np.matmul(U[i0:i1], V, out=out)
        T.reshape(-1)[i0 :: n + 1] += 1.0  # entries (j, i0 + j)
        return T

    sums = functools.cache(lambda: _moduli_sums(n, rows))
    norms, moduli = {}, None
    for p in ps:
        upper = _outer_end(p, sums, lambda: n2)
        if p in (1, 2, np.inf):
            norms[p] = upper
            continue
        if moduli is None:
            F = _draws(MAP_SAMPLES, n, 0)
            moduli = np.abs(F + (F @ V.T) @ U.T), np.abs(F)
            del F
        lower = float(np.max(_ratios(*moduli, p), initial=0.0))
        norms[p] = (max(lower, 1.0) if k < n else lower, upper)
    return norms


def _outer_end(p, sums, n2) -> float:
    """The outer end of an n x n operator's l^p norm: the norm itself for p
    in {1, 2, inf}, and for other p the Riesz-Thorin bound that
    interpolates those three. ``sums()`` gives the (max column sum, max row
    sum) of the operator's moduli, its p = 1 and p = inf norms, and
    ``n2()`` its 2-norm; each is called only when p needs it."""
    if p in (1, np.inf):
        return sums()[0 if p == 1 else 1]
    two = n2()
    if p == 2:
        return two
    n1, ninf = sums()
    return _riesz_thorin(n1, two, ninf, p)


def _riesz_thorin(n1: float, n2: float, ninf: float, p) -> float:
    if not 1 < p < np.inf:
        raise ValueError("p must lie in [1, inf]")
    if p < 2:
        theta = 2.0 - 2.0 / p
        return n1 ** (1 - theta) * n2**theta
    theta = 1.0 - 2.0 / p
    return n2 ** (1 - theta) * ninf**theta


class _Factored:
    """An n x d coefficient map with its one thin SVD M = U diag(s) V^H,
    made on first use, and what is read from it.

    No n x d array it makes outlives its last reader. U's one reader is
    :attr:`left_inverse`, whose readers are the :meth:`product_sums` reads,
    one per map L. ``readers`` is how many such L the caller will read,
    derived from its ps: none when it asks for p = 2 alone, which reads no
    left inverse. With no reader, the SVD keeps only s and V^H; otherwise U
    is dropped when the left inverse is formed, and the left inverse once
    its last reader has its sums. ``readers=None`` keeps the left inverse
    for the map's life. U is gone by then, so a read past the plan raises
    RuntimeError.

    :func:`map_constants` accepts these in place of arrays, so a caller that
    needs several p for one pair of maps (the lifting pipeline) factors
    each map once, whichever p comes first. The map need not be injective:
    one that fails the injectivity test has no left inverse, and the bound
    that needs it is reported as the trivial one.
    """

    def __init__(self, matrix, readers=None):
        self.matrix = np.asarray(matrix)
        self._readers_left = readers
        self._pinv = None
        # Keyed by the map L of L M^+, or A of ||A f|| / ||M f||; weak, so two
        # maps never keep each other alive.
        self._product_sums = weakref.WeakKeyDictionary()
        self._product_svals = weakref.WeakKeyDictionary()
        self._draw_moduli = weakref.WeakKeyDictionary()
        self._draws = {}  # seed -> (F, |F M^T|)

    @functools.cached_property
    def _svd(self) -> tuple:
        u, s, vh = np.linalg.svd(self.matrix, full_matrices=False)
        return (None if self._readers_left == 0 else u), s, vh

    @property
    def singular_values(self) -> np.ndarray:
        """Descending singular values."""
        return self._svd[1]

    @property
    def injective(self) -> bool:
        """d singular values with s_min > RANK_RTOL * s_max.

        The test is relative, so rescaling the map cannot change it.
        """
        s = self.singular_values
        return bool(s.shape[0] == self.matrix.shape[1] and s[-1] > RANK_RTOL * s[0])

    @functools.cached_property
    def vs_inv(self):
        """V diag(1/s) if the map is injective, else None.

        U has orthonormal columns, so L M^+ = (L V diag(1/s)) U^H has the
        singular values of the n x d matrix L V diag(1/s).
        """
        if not self.injective:
            return None
        _, s, vh = self._svd
        return vh.conj().T * (1.0 / s)[None, :]

    @property
    def left_inverse(self):
        """The pseudo-inverse V diag(1/s) U^H if the map is injective, with
        no singular value cut, else None. The first read releases U,
        injective or not: nothing else reads it. diag(1/s) U^H is formed in
        U's own memory, so the product is the one new n x d array."""
        u, s, vh = self._svd
        if u is not None:
            self._svd = (None, s, vh)
            if self.injective:
                uh = np.conjugate(u, out=u).T
                self._pinv = vh.conj().T @ np.multiply((1.0 / s)[:, None], uh, out=uh)
        elif self._pinv is None and self.injective:
            raise RuntimeError("the left inverse was read past its last planned reader")
        return self._pinv

    def product_sums(self, L: "_Factored") -> tuple:
        """(max column sum, max row sum) of |L M^+|, the exact p = 1 and
        p = inf norms of the n x n product, for an injective M.

        The product is read once per L, whichever p asks first, as row
        slabs L[i0:i1] M^+ (:func:`_moduli_sums`), so it is never held
        whole; only its two sums are kept, equal to those of the whole
        product bit for bit. The left inverse is dropped once its last
        planned reader has read.
        """
        if L not in self._product_sums:
            Lm, pinv = L.matrix, self.left_inverse
            self._product_sums[L] = _moduli_sums(len(Lm), lambda i0, i1, out: np.matmul(Lm[i0:i1], pinv, out=out))
            if self._readers_left is not None:
                self._readers_left -= 1
                if self._readers_left == 0:
                    self._pinv = None
        return self._product_sums[L]

    def sampled_ratios(self, A: "_Factored", p, seed: int) -> np.ndarray:
        """||A f||_p / ||M f||_p over MAP_SAMPLES draws f seeded by
        ``seed`` (:func:`_draws`), skipping the draws with M f = 0.

        The draws F and the moduli of F M^T are made once per seed, those of
        F A^T once per A and seed, so a new p only takes their l^p norms.
        """
        if seed not in self._draws:
            F = _draws(MAP_SAMPLES, self.matrix.shape[1], seed)
            self._draws[seed] = (F, np.abs(F @ self.matrix.T))
        F, absMF = self._draws[seed]
        per_seed = self._draw_moduli.setdefault(A, {})
        if seed not in per_seed:
            per_seed[seed] = np.abs(F @ A.matrix.T)
        return _ratios(per_seed[seed], absMF, p)

    def product_svals(self, L: "_Factored") -> np.ndarray:
        """Descending singular values of L M^+ for an injective M, those of
        the n x d matrix L V diag(1/s) (see :attr:`vs_inv`), computed once
        per L."""
        if L not in self._product_svals:
            self._product_svals[L] = np.linalg.svd(L.matrix @ self.vs_inv, compute_uv=False)
        return self._product_svals[L]


def _factored(M) -> _Factored:
    return M if isinstance(M, _Factored) else _Factored(M)


def _product_norm(L: _Factored, F: _Factored, p) -> float:
    """Induced l^p norm of the n x n product L F^+ (upper end for 1 < p < inf).

    L is an n x d map and F^+ the d x n left inverse of an injective map F.
    :func:`_outer_end` reads the p = 1 and p = inf norms from
    :meth:`_Factored.product_sums` and the 2-norm from
    :meth:`_Factored.product_svals`; both are shared across p, and no n x n
    factorization is needed.
    """
    return _outer_end(p, lambda: F.product_sums(L), lambda: float(F.product_svals(L)[0]))


def map_constants(A, B, p, seed: int = 0) -> dict:
    """Best constants L, U with L ||Bf||_p <= ||Af||_p <= U ||Bf||_p.

    A and B are n x d arrays or :class:`_Factored` maps, which keep their
    factorizations across calls. Returns bracket pairs
    {"lower": (lo, hi), "upper": (lo, hi)}: the outer ends are those of
    :func:`upper_constant` and :func:`_lower_end`, and the inner ends come
    from one set of MAP_SAMPLES seeded draws
    (:meth:`_Factored.sampled_ratios`), which are not made when both sides
    are exact. The reads run one map at a time: B's SVD, its left inverse
    and the sums of |A B^+|, then A's, so that each map's left inverse,
    with a planned reader count (:class:`_Factored`), is gone before the
    other map is factored; the draws come last.
    """
    A, B = _factored(A), _factored(B)
    hi = _upper_end(A, B, p)
    lo = _lower_end(A, B, p)
    if p == 2 and A.injective and B.injective:
        return {"lower": (lo, lo), "upper": (hi, hi), "p": p}
    ratios = B.sampled_ratios(A, p, seed)
    inner = hi if p == 2 and B.injective else float(np.max(ratios, initial=0.0))
    return {"lower": (lo, float(np.min(ratios, initial=np.inf))), "upper": (inner, hi), "p": p}


def upper_constant(A, B, p, seed: int = 0) -> tuple:
    """(inner, outer) bracket on the best U with ||Af||_p <= U ||Bf||_p.

    With B injective the outer end is ||A B^+||_p, B^+ the left inverse of
    :class:`_Factored`; at p = 2 it is exact, sigma_max of the n x d matrix
    A V diag(1/s) read from B's own thin SVD B = U diag(s) V^H (Van Loan,
    SIAM J. Numer. Anal. 13, 1976), whatever A is, and both ends are that
    value. No Gram matrix A^H A or B^H B is formed, so cond(B) is not
    squared, and A is never factorized. A B that fails its injectivity test
    gives the trivial outer end, inf. Otherwise the inner end is the largest
    of the :meth:`_Factored.sampled_ratios` of MAP_SAMPLES draws seeded by
    ``seed``, made after the outer end is read.
    """
    A, B = _factored(A), _factored(B)
    hi = _upper_end(A, B, p)
    if p == 2 and B.injective:
        return (hi, hi)
    return (float(np.max(B.sampled_ratios(A, p, seed), initial=0.0)), hi)


def _upper_end(A: _Factored, B: _Factored, p) -> float:
    """The outer end of :func:`upper_constant`: ||A B^+||_p, or inf when B
    fails its injectivity test."""
    return _product_norm(A, B, p) if B.injective else np.inf


def _lower_end(A: _Factored, B: _Factored, p) -> float:
    """The outer end of the bracket on the best L with
    L ||Bf||_p <= ||Af||_p.

    At p = 2 with both maps injective it is exact, sigma_min of A V
    diag(1/s) as in :func:`upper_constant`; the injectivity tests are
    relative, so it does not move when both maps are rescaled. Otherwise
    it is 1 / ||B A^+||_p, or the trivial 0 when A fails its injectivity
    test.
    """
    if p == 2 and A.injective and B.injective:
        return float(B.product_svals(A)[-1])
    return 1.0 / _product_norm(B, A, p) if A.injective else 0.0
