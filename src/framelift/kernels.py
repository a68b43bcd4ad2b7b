"""Array kernels for pairwise-distance and decay scans.

One numpy implementation per kernel. Every pair scan reads one block of
rows i0:i1 against all n columns, so a caller can stream an n x n table in
row slabs; ``out`` takes a caller's buffer of that block's shape. Dense linear
algebra (eigendecompositions, SVD, matrix products) is not handled here,
since BLAS/LAPACK already saturate those paths.
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
    """(1 + dist_kl)**s over the pairs of ``dist``: the table both scans below read."""
    out = np.add(dist, 1.0, out=out)
    out **= s
    return out


def decay_max(absa: np.ndarray, growth: np.ndarray, out=None) -> float:
    """max over (k,l) of |a_kl| * (1 + dist_kl)**s, ``growth`` the table at s."""
    return float(np.multiply(absa, growth, out=out).max())


def moderateness_max(values: np.ndarray, growth: np.ndarray, i0: int = 0, out=None) -> float:
    """max over (k,l) of m_k / ((1 + dist_kl)**t * m_l), ``growth`` the table
    at t of rows k = i0, i0 + 1, ... and every column l."""
    ratio = np.divide(values[i0 : i0 + growth.shape[0], None], values[None, :], out=out)
    return float(np.divide(ratio, growth, out=ratio).max())


def moderateness_max_subexp(
    values: np.ndarray, dist: np.ndarray, alpha: float, beta: float, i0: int = 0
) -> float:
    """max over (k,l) of m_k / (exp(alpha * dist_kl**beta) * m_l), ``dist``
    the distances of rows k = i0, i0 + 1, ... to every column l."""
    ratio = values[i0 : i0 + dist.shape[0], None] / values[None, :]
    return float((ratio / np.exp(alpha * dist**beta)).max())
