"""The rounding model of IEEE double precision and Rump's certificates.

Every certified number in the package is a float evaluation raised to an
upper bound on the exact value, with each rounding counted componentwise
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3):
k real roundings compound to at most :func:`gamma` (k), a complex inner
product of length k errs by at most :func:`gamma_c` (k) times the inner
product of the moduli, and :func:`certified_bound` raises a float sum of
nonnegative terms above its exact value. An error map is a nonnegative map
v -> E v with |A - fl A| v <= E v entrywise; :func:`abs_chain` applies a
product of moduli one matrix-vector product at a time, and
:func:`left_product_error` carries two error maps through a product.

Invertibility verdicts are a posteriori certificates (Rump, "Verification
methods: rigorous results using floating-point arithmetic", Acta Numerica
19, 2010): a square matrix B is invertible when an upper bound r on
||I - B Xt||_inf, for some approximate inverse Xt and with every rounding
made in evaluating the residual counted, is below 1. A singular B never
passes: for it every I - B Xt has an eigenvalue 1. Both certificates here
return (approximate inverse, r) and read the residual of their one
inverse through :func:`_inverse_residual`: :func:`dense_certificate` on a
dense square matrix, :func:`woodbury_certificate` on I + X Y through its
d x d Woodbury core.
"""

import numpy as np

# Unit roundoff of IEEE double precision, u = 2^-53.
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def gamma(k) -> float:
    """gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3): k real roundings compound to at most this
    relative error."""
    ku = k * UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def gamma_c(k) -> float:
    """Entrywise error bound of a complex inner product of length k.

    |fl(x^T y) - x^T y| <= gamma_c(k) |x|^T |y| for complex x, y, in any
    summation order and with or without fused multiply-adds, provided the
    product is an ordinary (not Strassen-like) one and nothing underflows.
    sqrt(2) gamma_{k+2} is Higham's complex bound (Lemma 3.5 and section
    3.6); BLAS forms real and imaginary parts as real inner products of
    length 2k, which gives sqrt(2) gamma_{2k}. gamma_c takes
    sqrt(2) gamma_{2k+2}, above both.
    """
    return float(np.sqrt(2.0)) * gamma(2 * k + 2)


def abs_chain(vec, *factors) -> np.ndarray:
    """|F_1| |F_2| ... |F_m| vec for nonnegative vec and matrices F_i, one
    matrix-vector product at a time, so no product of the factors is
    formed."""
    for f in reversed(factors):
        vec = np.abs(f) @ vec
    return vec


def certified_bound(r: float, depth: int) -> float:
    """r, the float value of a sum of products of nonnegative terms with at
    most ``depth`` roundings on any path, raised to an upper bound on the
    exact value; nan (an overflowed evaluation) becomes inf."""
    r = float(r) * (1.0 + gamma(depth))
    return r if np.isfinite(r) else np.inf


def left_product_error(L, L_err, P, P_err):
    """Error map of fl(L P) against the exact product of the matrices that
    L and P approximate, given their error maps: gamma_c |L| |P| +
    L_err |P| + |L| P_err + L_err P_err."""
    gc = gamma_c(L.shape[1])
    absL, absP = np.abs(L), np.abs(P)
    return lambda v: gc * (absL @ (absP @ v)) + L_err(absP @ v) + absL @ P_err(v) + L_err(P_err(v))


def _inverse_residual(M: np.ndarray, v: np.ndarray, c: float) -> tuple:
    """(W, |W| v, g) for the float square matrix M and W = inv(M), with

        g = (1 + gamma_1) |fl(I - fl(M W))| v + c |M| |W| v,

    which bounds |I - M W| v once c covers the rounding of fl(M W):
    |fl(M W) - M W| <= gamma_c(k) |M| |W| for M of order k, and the
    subtraction from I rounds once. A caller whose M itself stands for an
    exact matrix adds that error to c. The residual is formed from M and
    W as they are, so the bound holds for whatever matrix the inverse
    returned. An M that LAPACK rejects gives (None, None, inf).
    """
    try:
        W = np.linalg.inv(M)
    except np.linalg.LinAlgError:  # M may be singular; then no verdict closes
        return None, None, np.inf
    G_hat = np.eye(len(M)) - M @ W
    Wv = np.abs(W) @ v
    return W, Wv, (1 + gamma(1)) * (np.abs(G_hat) @ v) + c * (np.abs(M) @ Wv)


def dense_certificate(A: np.ndarray) -> tuple:
    """(X, r): Rump's certificate on the dense square matrix A, with
    X = inv(A) and r an upper bound on ||I - A X||_inf. r < 1 proves A
    invertible.

    The residual is formed as fl(I - fl(A X)), and its rounding is counted
    (:func:`_inverse_residual` with v = 1 and c = gamma_c(n)). A that
    LAPACK finds exactly singular gives (None, inf).
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("invertibility is decided for square matrices")
    n = A.shape[0]
    X, _, r = _inverse_residual(A, np.ones(n), gamma_c(n))
    return X, certified_bound(np.max(r), 4 * n + 8)


def woodbury_certificate(X: np.ndarray, Y: np.ndarray, Y_err) -> tuple:
    """(W, r): Rump's certificate of B = I + X Y through its d x d Woodbury
    core. r < 1 proves B invertible.

    B is n x n, X n x d and Y d x n float matrices; the B certified is
    I + X Y_true with |Y_true - Y| <= Y_err entrywise (an error map), and
    X is taken as exact. By Sylvester's identity B is invertible exactly
    when I + Y X is, and Woodbury's formula gives the approximate inverse
    Xt = I - X W Y of any d x d W; here W = inv(fl(I + fl(Y X))). Exactly,

        I - B Xt = - X G Y - X (Y_true - Y) Xt,   G = I - (I + Y X) W,

    so r bounds the row sums of |X| |G| |Y| 1 + |X| Y_err(|Xt| 1), with
    |Xt| 1 <= 1 + |X| |W| |Y| 1 (Xt is defined by exact products, so it
    carries no rounding). G is read from the computed M = fl(I + H),
    H = fl(Y X), and G_hat = fl(I - fl(M W)), with every rounding made
    since the inputs counted:

    - Y X: |H - Y X| <= gamma_c(n) |Y| |X| (see :func:`gamma_c`);
    - I + H: one rounding on the diagonal, |I + H - M| <= gamma_1 |M|;
    - M W: |fl(M W) - M W| <= gamma_c(d) |M| |W|;
    - I - fl(M W): |I - fl(M W)| <= (1 + gamma_1) |G_hat|.

    Since I + Y X = M + (I + H - M) + (Y X - H),

        |G| <= (1 + gamma_1) |G_hat| + (gamma_c(d) + gamma_1) |M| |W|
               + gamma_c(n) |Y| |X| |W|,

    and every term is applied to |Y| 1: the first two are
    :func:`_inverse_residual` with v = |Y| 1 and c = gamma_c(d) + gamma_1,
    whose |W| |Y| 1 the third term and the bound on |Xt| 1 share. Each
    product of moduli is applied to a vector, never formed, so past H the
    bound costs O(n d + d^3): one d x d inverse and one d x d product. A
    singular M that LAPACK rejects gives (None, inf). The float evaluation
    of the bound is raised by :func:`certified_bound`.
    """
    n, d = X.shape
    M = Y @ X  # H = fl(Y X), then M = fl(I + H) in place
    M[np.diag_indices(d)] += 1.0
    absY = np.abs(Y)
    Y1 = absY @ np.ones(n)  # |Y| 1
    W, WY1, GY1 = _inverse_residual(M, Y1, gamma_c(d) + gamma(1))
    if W is None:
        return None, np.inf
    absX = np.abs(X)
    GY1 = GY1 + gamma_c(n) * (absY @ (absX @ WY1))
    del absY  # |Y| has no reader past here; Y's error map below has its own moduli
    Xt1 = 1.0 + absX @ WY1  # bounds |Xt| 1
    total = absX @ (GY1 + Y_err(Xt1))
    return W, certified_bound(np.max(total), 8 * (n + d) + 64)
