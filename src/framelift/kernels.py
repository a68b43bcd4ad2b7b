"""Array kernels for pairwise-distance and decay scans.

One numpy implementation per kernel. The distance scans are a few percent
of a lifting run; dense linear algebra (eigendecompositions, SVD, matrix
products) is not handled here, since BLAS/LAPACK already saturate those
paths.
"""

import numpy as np


def pairwise_dist(pts: np.ndarray, period: float = 0.0) -> np.ndarray:
    """All pairwise distances between rows of ``pts`` (shape (n, D)).

    ``period > 0`` selects the torus metric: coordinatewise circular
    distance modulo ``period``, then the Euclidean norm. Each coordinate is
    reduced into [0, period) once, so a difference already lies in
    [0, period) and only needs the fold min(diff, period - diff). The
    squares are summed one coordinate at a time, so no (n, n, D) temporary
    is built.
    """
    pts = np.asarray(pts, dtype=float)
    sq = np.zeros((pts.shape[0], pts.shape[0]))
    for col in pts.T:
        if period > 0.0:
            col = col % period
        diff = np.abs(col[:, None] - col[None, :])
        if period > 0.0:
            np.minimum(diff, period - diff, out=diff)
        sq += diff * diff
    return np.sqrt(sq, out=sq)


def dist_to_origin(pts: np.ndarray, period: float = 0.0) -> np.ndarray:
    """Distances from each row of ``pts`` to the origin."""
    diff = np.abs(pts)
    if period > 0.0:
        diff = diff % period
        diff = np.minimum(diff, period - diff)
    return np.sqrt((diff * diff).sum(axis=-1))


def growth_table(dist: np.ndarray, s: float) -> np.ndarray:
    """(1 + dist_kl)**s over all pairs: the table both scans below read."""
    return (1.0 + dist) ** s


def decay_max(absa: np.ndarray, growth: np.ndarray) -> float:
    """max over (k,l) of |a_kl| * (1 + dist_kl)**s, ``growth`` the table at s."""
    return float((absa * growth).max())


def moderateness_max(values: np.ndarray, growth: np.ndarray) -> float:
    """max over (k,l) of m_k / ((1 + dist_kl)**t * m_l), ``growth`` the table at t."""
    ratio = values[:, None] / values[None, :]
    return float((ratio / growth).max())


def moderateness_max_subexp(
    values: np.ndarray, dist: np.ndarray, alpha: float, beta: float
) -> float:
    """max over (k,l) of m_k / (exp(alpha * dist_kl**beta) * m_l)."""
    ratio = values[:, None] / values[None, :]
    return float((ratio / np.exp(alpha * dist**beta)).max())
