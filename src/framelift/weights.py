"""Weighted sequence spaces over finite metric index sets.

An :class:`IndexSet` is a finite list of points carrying either the Euclidean
metric or the torus metric of a given period. A :class:`Weight` is a strictly
positive sequence over such a set. Together they define the norms
``||c||_{p,m} = ||m * c||_p`` (with ``p = inf`` as a genuine distinguished
value), whose row kernel is :func:`lp_norms`, and the pairwise
moderateness constants.

This module owns weight specs, the JSON objects ``{"type": "constant" |
"polynomial" | "values", ...}`` that name a weight without its index set:
:meth:`Weight.from_spec` is their one reader, :func:`keyed_weight` reads the
spec under a config key for every command and lift family, and
:func:`weight_values` is the one coercer of weights and symbols to their
values.
"""

import numpy as np

from . import kernels

EUCLIDEAN = "euclidean"
TORUS = "torus"

# The weight specs the commands default to; read-only, shared by every caller.
UNIT_SPEC = {"type": "constant", "c": 1.0}
SYMBOL_SPEC = {"type": "polynomial", "t": 2.0}  # mu of the Gabor and Fock lifts
CHECK_SPEC = {"type": "polynomial", "t": 1.0}  # the weight verify checks by default


class IndexSet:
    """Finite point set with a metric.

    Args:
        points: array-like of shape (n,) or (n, D); 1-d input is treated as
            points on the line.
        metric: "euclidean" or "torus".
        period: torus period; required when metric is "torus".
    """

    def __init__(self, points, metric: str = EUCLIDEAN, period: float | None = None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, D) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("index set points must be finite")
        if metric not in (EUCLIDEAN, TORUS):
            raise ValueError(f"unknown metric {metric!r}")
        if metric == TORUS:
            if period is None or not 0 < period < np.inf:
                raise ValueError("torus metric requires a finite positive period")
            period = float(period)
        else:
            period = None
        self.points = pts
        self.metric = metric
        self.period = period
        if len(np.unique(pts.round(12), axis=0)) != len(pts):
            raise ValueError("index set points must be distinct")

    def __len__(self) -> int:
        return self.points.shape[0]

    def distances(self, i0: int, i1: int, out=None) -> np.ndarray:
        """Rows i0:i1 of the distance matrix: from points i0..i1-1 to every point."""
        return kernels.pairwise_dist(self.points, self.period or 0.0, (i0, i1), out)

    def distance_matrix(self) -> np.ndarray:
        """All n x n distances, built on each call and kept by no one."""
        return self.distances(0, len(self))

    def distance_to_origin(self) -> np.ndarray:
        return kernels.dist_to_origin(self.points, self.period or 0.0)

    def to_dict(self) -> dict:
        d = {"points": self.points.tolist(), "metric": self.metric}
        if self.period is not None:
            d["period"] = self.period
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "IndexSet":
        return cls(d["points"], d.get("metric", EUCLIDEAN), d.get("period"))


class Weight:
    """Finite, strictly positive sequence over an index set."""

    def __init__(self, values, index_set: IndexSet):
        vals = np.asarray(values, dtype=float)
        if vals.shape != (len(index_set),):
            raise ValueError("weight length does not match index set size")
        if not np.all((vals > 0) & (vals < np.inf)):
            raise ValueError("weights must be finite and strictly positive")
        self.values = vals
        self.index_set = index_set

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def constant(cls, index_set: IndexSet, c: float = 1.0) -> "Weight":
        return cls(np.full(len(index_set), float(c)), index_set)

    @classmethod
    def polynomial(cls, index_set: IndexSet, t: float) -> "Weight":
        """The weight (1 + dist(k, 0))^t. A power that overflows is inf,
        which the constructor rejects."""
        with np.errstate(over="ignore"):
            values = (1.0 + index_set.distance_to_origin()) ** t
        return cls(values, index_set)

    @classmethod
    def from_spec(cls, spec, index_set: IndexSet) -> "Weight":
        """The weight a spec names, on ``index_set``.

        ``spec`` is ``{"type": "constant", "c": c}`` (c defaults to 1),
        ``{"type": "polynomial", "t": t}`` (see :meth:`polynomial`) or
        ``{"type": "values", "values": [...]}`` with one value per index.
        Anything else, and a spec whose values are not finite and strictly
        positive, raises ValueError.
        """
        if not isinstance(spec, dict) or "type" not in spec:
            raise ValueError("weight spec must be an object with a 'type'")
        kind = spec["type"]
        try:
            if kind == "constant":
                return cls.constant(index_set, float(spec.get("c", 1.0)))
            if kind == "polynomial":
                return cls.polynomial(index_set, float(spec["t"]))
            if kind == "values":
                return cls(spec["values"], index_set)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad {kind} weight: {exc}") from exc
        raise ValueError(f"unknown weight type {kind!r}")


class SpecError(ValueError):
    """A config value that names no weight; the message starts with its key."""


def keyed_weight(key: str, spec, index_set: IndexSet) -> Weight:
    """The weight ``spec`` names on ``index_set``, read for the config key ``key``.

    A spec :meth:`Weight.from_spec` rejects raises :class:`SpecError`
    "'key': reason", so every command names the bad key the same way.
    """
    try:
        return Weight.from_spec(spec, index_set)
    except ValueError as exc:
        raise SpecError(f"'{key}': {exc}") from exc


def weight_values(m, n: int) -> np.ndarray:
    """The values of the weight or symbol ``m`` on n indices.

    ``m`` is a :class:`Weight`, an array of length n, or None for the unit
    weight.
    """
    if m is None:
        return np.ones(n)
    if np.iscomplexobj(m):
        raise ValueError("weights and symbols must be real")
    vals = m.values if isinstance(m, Weight) else np.asarray(m, dtype=float)
    if vals.shape != (n,):
        raise ValueError("weight length does not match sequence length")
    return vals


def lp_norms(X, p) -> np.ndarray:
    """The l^p norm of X along its last axis; p = np.inf gives the max.

    p = 1 is the plain sum of moduli. For 1 < p < inf each row is first
    divided by its largest modulus m, ||x||_p = m ||x / m||_p: its largest
    term is then 1, so the sum of powers neither overflows to inf nor
    underflows to 0 however large p or the entries are. A zero row has
    norm 0.
    """
    a = np.abs(X)
    if p == np.inf:
        return a.max(axis=-1)
    if p == 1:
        return a.sum(axis=-1)
    top = a.max(axis=-1, keepdims=True)
    np.divide(a, top, out=a, where=top > 0)  # a zero row stays 0
    return top[..., 0] * (a**p).sum(axis=-1) ** (1.0 / p)


def moderateness_constant(m: Weight, t: float, profile: str = "polynomial", beta: float = 1.0) -> float:
    """Smallest C with m_k <= C * profile(dist(k,l)) * m_l over all pairs.

    profile "polynomial": (1 + dist)^t. profile "subexponential":
    exp(t * dist^beta). Both are read through
    :func:`framelift.kernels.moderateness_max`. Always >= 1 (take k = l).
    This reads the whole n x n distance matrix at once; the lift and its
    families read the same constants one row slab at a time
    (:class:`framelift.matalg.PairScan`).
    """
    dist = m.index_set.distance_matrix()
    if profile == "polynomial":
        return kernels.moderateness_max(m.values, kernels.growth_table(dist, float(t)))
    if profile == "subexponential":
        return kernels.moderateness_max(m.values, kernels.exp_growth_table(dist, float(t), float(beta)))
    raise ValueError(f"unknown moderateness profile {profile!r}")
