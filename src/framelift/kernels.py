"""Array kernels for pairwise-distance and decay scans.

One numpy implementation per kernel. Every pair scan reads one block of
rows i0:i1 against all n columns, so a caller can stream an n x n table in
row slabs; ``out`` takes a caller's buffer of that block's shape. A growth
law g, polynomial (1 + d)^t or subexponential exp(alpha d^beta), is read
only through its table over a block (:func:`growth_table`,
:func:`exp_growth_table`), so the decay and moderateness maxima take
either law. Dense linear algebra (eigendecompositions, SVD, matrix
products) is not handled here, since BLAS/LAPACK already saturate those
paths.
"""

import numpy as np


def pairwise_dist(pts: np.ndarray, period: float = 0.0, rows=None, out=None) -> np.ndarray:
    """Distances from rows i0:i1 of ``pts`` (shape (n, D)) to every row;
    ``rows = (i0, i1)``, all rows when None.

    ``period > 0`` selects the torus metric: coordinatewise circular
    distance modulo ``period``, then the Euclidean norm. Each coordinate is
    reduced into [0, period) once, so a difference already lies in
    [0, period) and only needs the fold min(diff, period - diff). The
    squares are summed one coordinate at a time, so no (rows, n, D)
    temporary is built.
    """
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[0]
    i0, i1 = (0, n) if rows is None else rows
    sq = np.empty((i1 - i0, n)) if out is None else out
    sq.fill(0.0)
    diff, tmp = np.empty_like(sq), np.empty_like(sq)
    for col in pts.T:
        if period > 0.0:
            col = col % period
        np.abs(np.subtract(col[i0:i1, None], col[None, :], out=diff), out=diff)
        if period > 0.0:
            np.minimum(diff, np.subtract(period, diff, out=tmp), out=diff)
        sq += np.multiply(diff, diff, out=tmp)
    return np.sqrt(sq, out=sq)


def dist_to_origin(pts: np.ndarray, period: float = 0.0) -> np.ndarray:
    """Distances from each row of ``pts`` to the origin."""
    diff = np.abs(pts)
    if period > 0.0:
        diff = diff % period
        diff = np.minimum(diff, period - diff)
    return np.sqrt((diff * diff).sum(axis=-1))


def growth_table(dist: np.ndarray, s: float, out=None) -> np.ndarray:
    """(1 + dist_kl)**s over the pairs of ``dist``: the polynomial growth law."""
    out = np.add(dist, 1.0, out=out)
    out **= s
    return out


def exp_growth_table(dist: np.ndarray, alpha: float, beta: float, out=None) -> np.ndarray:
    """exp(alpha * dist_kl**beta) over the pairs of ``dist``: the
    subexponential growth law."""
    out = np.positive(dist, out=out)  # a copy of dist, then powered in place
    out **= beta
    out *= alpha
    return np.exp(out, out=out)


def decay_max(absa: np.ndarray, growth: np.ndarray, out=None) -> float:
    """max over (k,l) of |a_kl| * g(dist_kl), ``growth`` the table of g.

    NaN entries are skipped: the one NaN a weighted decay meets is
    0 * inf, an entry 0 whose weight ratio or growth overflowed, and it
    contributes 0 (every row's diagonal entry is a number)."""
    return float(np.fmax.reduce(np.multiply(absa, growth, out=out), axis=None))


def moderateness_max(values: np.ndarray, growth: np.ndarray, i0: int = 0, out=None) -> float:
    """max over (k,l) of m_k / (g(dist_kl) * m_l), ``growth`` the table of
    the growth law g at rows k = i0, i0 + 1, ... and every column l."""
    ratio = np.divide(values[i0 : i0 + growth.shape[0], None], values[None, :], out=out)
    return float(np.divide(ratio, growth, out=ratio).max())
