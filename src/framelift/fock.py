"""Truncated Bargmann-Fock kernel frames with closed-form Gramians.

The normalized reproducing kernel at lambda has monomial coefficients
c_n(lambda) = e^{-pi |lambda|^2 / 2} (sqrt(pi) conj(lambda))^n / sqrt(n!),
so inner products never need quadrature: the exact Gram is
exp(pi conj(lambda_l) lambda_k - pi(|lambda_k|^2 + |lambda_l|^2)/2) and its
modulus depends only on |lambda_k - lambda_l|. Truncating the coefficient
sequence at degree Dmax embeds the system into C^{Dmax+1} with factorially
small error once Dmax passes pi R^2; the default ceil(4 pi R^2) keeps the
entrywise Gram error near machine precision.

The frame verdict and the lifting constants ask different questions of the
truncation. The verdict needs the full bulk C^K0 with K0 = ceil(pi R^2),
where a sub-critical lattice (delta >= 1 on the square grid) is genuinely
rank-deficient. Conditioning of the lifting is measured one kernel-width
further in, on C^K1 with K1 = ceil(pi max(R - margin, 0)^2), so boundary kernels
whose mass lives outside the sampled disk do not masquerade as asymptotic
degeneration.
"""

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import matalg
from .frames import Frame
from .weights import SYMBOL_SPEC, IndexSet, Weight

GRAM_MATCH_WARN = 1e-8


@dataclass(frozen=True)
class FockLattice:
    """delta (Z + iZ) clipped to the disk |lambda| <= R, optionally jittered."""

    delta: float
    R: float
    jitter: float = 0.0
    seed: int = 1

    def __post_init__(self):
        if self.delta <= 0 or self.R <= 0:
            raise ValueError("delta and R must be positive")

    @functools.cached_property
    def points(self) -> np.ndarray:
        """The lattice points as a read-only complex array, built on first use."""
        idx = int(np.floor(self.R / self.delta))
        pts = []
        for i in range(-idx, idx + 1):
            for j in range(-idx, idx + 1):
                lam = self.delta * (i + 1j * j)
                if abs(lam) <= self.R + 1e-12:
                    pts.append(lam)
        lam = np.array(pts, dtype=complex)
        if self.jitter:
            rng = np.random.default_rng(self.seed)
            u = rng.uniform(-0.5, 0.5, size=(len(lam), 2))
            lam = lam + self.jitter * self.delta * (u[:, 0] + 1j * u[:, 1])
        ordered = np.sort(lam)  # by real part, then imaginary part: equal points end up adjacent
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("lattice points must be pairwise distinct")
        lam.flags.writeable = False
        return lam

    @property
    def n(self) -> int:
        return len(self.points)

    def index_set(self) -> IndexSet:
        lam = self.points
        return IndexSet(np.column_stack([lam.real, lam.imag]))


def fock_gram_exact(points, rows=None) -> np.ndarray:
    """Closed-form Gram of normalized kernels; Hermitian with unit diagonal.

    Entry (k, l) is <psi_l, psi_k>; its modulus is e^{-pi |l_k - l_l|^2 / 2}.
    ``rows = (i0, i1)`` gives rows i0:i1 alone, entry for entry those of the
    whole matrix.
    """
    lam = points.points if isinstance(points, FockLattice) else np.asarray(points, dtype=complex)
    sq = np.abs(lam) ** 2
    k = slice(None) if rows is None else slice(*rows)
    return np.exp(np.pi * lam[k, None] * np.conj(lam[None, :]) - np.pi * (sq[k, None] + sq[None, :]) / 2)


def default_degree(R: float) -> int:
    return math.ceil(4 * np.pi * R * R)


def bulk_dimension(R: float) -> int:
    """Landau count of the disk: the honest ambient dimension for verdicts."""
    return math.ceil(np.pi * R * R)


def core_dimension(R: float, margin: float = 0.5) -> int:
    """One kernel width inside the disk: the ambient dimension for constants.

    R - margin is clamped at 0, so a margin of 0 or more never gives a core
    larger than :func:`bulk_dimension`; a negative margin raises ValueError.
    """
    if not margin >= 0:
        raise ValueError(f"margin must be nonnegative, got {margin!r}")
    return max(1, math.ceil(np.pi * max(R - margin, 0.0) ** 2))


def _coefficients(lam: np.ndarray, degree: int) -> np.ndarray:
    E = np.zeros((degree + 1, len(lam)), dtype=complex)
    c = np.exp(-np.pi * np.abs(lam) ** 2 / 2).astype(complex)
    E[0] = c
    for n in range(1, degree + 1):
        c = c * (np.sqrt(np.pi) * np.conj(lam)) / np.sqrt(n)
        E[n] = c
    return E


def embed_truncated(lattice: FockLattice, Dmax=None) -> Frame:
    """The kernel system as a frame-candidate in C^{Dmax+1}.

    Warns when the embedded Gram misses the closed form by more than 1e-8
    entrywise (Dmax too small for this R).
    """
    if Dmax is None:
        Dmax = default_degree(lattice.R)
    lam = lattice.points
    E = _coefficients(lam, Dmax)
    err = float(np.abs(E.conj().T @ E - fock_gram_exact(lam)).max())
    if err > GRAM_MATCH_WARN:
        warnings.warn(
            f"truncation degree {Dmax} leaves Gram error {err:.2e}; "
            f"recommended degree is {default_degree(lattice.R)}",
            stacklevel=2,
        )
    return Frame(E, lattice.index_set())


def bulk_frame(lattice: FockLattice, K: int) -> Frame:
    """Kernel coefficients cut at degree K - 1: the system compressed to C^K."""
    if K < 1:
        raise ValueError("bulk dimension must be at least 1")
    return Frame(_coefficients(lattice.points, K - 1), lattice.index_set())


def beurling_density_table(lattice: FockLattice, radii) -> list:
    """Worst-case point count per disk area over a quarter-spacing center grid.

    One row per radius r in ``radii`` with r <= R. Its centers z run over a
    grid of spacing delta / 4 with |z| <= R - r, so every counted disk stays
    inside the sampled region; the row value is min_z card(points in
    B_r(z)) / (pi r^2). Edge effects are reported, not corrected.
    """
    lam = lattice.points
    if len(lam) == 0:
        raise ValueError("density of an empty lattice is undefined")
    R = lattice.R
    step = lattice.delta / 4
    rows = []
    for r in radii:
        zmax = R - r
        if zmax < 0:
            continue
        g = np.arange(-zmax, zmax + step / 2, step)
        zz = (g[:, None] + 1j * g[None, :]).ravel()
        zz = zz[np.abs(zz) <= zmax]
        if len(zz) == 0:
            zz = np.array([0.0 + 0.0j])
        # min_z card(B_r(z)), counted over blocks of at most SLAB_ROWS centers
        least = min(
            (np.abs(lam[None, :] - zz[i0 : i0 + matalg.SLAB_ROWS, None]) <= r).sum(axis=1).min()
            for i0 in range(0, len(zz), matalg.SLAB_ROWS)
        )
        rows.append({"r": float(r), "min_density": float(least / (np.pi * r**2))})
    if not rows:
        raise ValueError("no admissible center/radius pairs: density undefined")
    return rows


def beurling_density_lower(lattice: FockLattice) -> float:
    """The lower density proxy: the table value at radius R / 2."""
    return beurling_density_table(lattice, (lattice.R / 2,))[0]["min_density"]


class FockFamily:
    """The Fock lift: per R, a frame verdict at the Landau count, the pipeline on the core.

    ``mu`` is read on each R's lattice points. A lattice that fails the frame
    test on the bulk (sub-critical density) becomes a failure entry quoting
    its density proxy. The core's frame operator is a leading principal
    block of the bulk's, so by Cauchy interlacing the core is a frame
    whenever the bulk is. ``seed`` also seeds the lattice jitter.
    """

    key = "R"
    mu_default = SYMBOL_SPEC

    def __init__(self, delta: float, R_list, margin: float = 0.5, jitter: float = 0.0, seed: int = 1):
        for R in R_list:
            if isinstance(R, bool) or not isinstance(R, numbers.Real) or not 0 < R < np.inf:
                raise ValueError(f"R must be a finite positive number, got {R!r}")
        self.sizes = [float(R) for R in R_list]
        self.delta, self.margin, self.jitter, self.seed = delta, margin, jitter, seed

    def case(self, R: float):
        lat = FockLattice(self.delta, R, jitter=self.jitter, seed=self.seed)
        K0, K1 = bulk_dimension(R), core_dimension(R, self.margin)
        verdict_frame = bulk_frame(lat, K0)
        A, B = verdict_frame.bounds
        entry = {
            "R": R,
            "n_points": lat.n,
            "K_verdict": K0,
            "K_core": K1,
            "bulk_bounds": [float(A), float(B)],
            "density_proxy": beurling_density_lower(lat),
        }
        if not verdict_frame.is_frame:
            entry["status"] = "not_a_frame"
            entry["note"] = (
                "kernel system rank-deficient on the bulk: lower density "
                f"proxy {entry['density_proxy']:.4f} is consistent with the "
                "sub-critical regime (frames require density above one)"
            )
            entry["condition"] = float("inf")
        # _coefficients makes row j alike at every degree, and K1 <= K0: the
        # core is the verdict frame's first K1 rows.
        return entry, Frame(verdict_frame.vectors[:K1], verdict_frame.index_set)

    def extras(self, entry: dict, frame: Frame, mu: Weight, s: float, scan: matalg.PairScan):
        """The symbol's subexponential constant and the exact Gram's decay,
        read in the pipeline's pass from row slabs of :func:`fock_gram_exact`.

        The core's index set holds each lattice point as (Re, Im).
        """
        idx = frame.index_set
        lam = idx.points[:, 0] + 1j * idx.points[:, 1]
        G = scan.matrix("fock_gram", lambda i0, i1, out: fock_gram_exact(lam, (i0, i1)))
        decay = {str(se): scan.decay(G, se, idx) for se in (2.0, s, 6.0)}
        subexp = scan.subexponential(mu.values, 1.0, 1.0, idx)

        def finish() -> dict:
            entry["report"]["metadata"]["mu_subexponential_constant"] = scan.values[subexp]
            return {"gram_decay_scaling": {key: scan.values[j] for key, j in decay.items()}}

        return finish

    def fields(self, s: float, ps: list, tables: dict) -> dict:
        return {
            "kind": "fock_lifting",
            "delta": self.delta,
            "margin": self.margin,
            "s": s,
            "ps": ps,
            "gram_decay_scaling": tables["gram_decay_scaling"],
        }
