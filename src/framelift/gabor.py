"""Finite Gabor systems on Z_N and the N-scaling lifting experiment.

Everything is exact on the cyclic group: time-frequency shifts are unitary
permutation-times-phase matrices, the STFT is a bank of FFTs, and frame
bounds come from eigenvalues of the frame operator. The continuum enters
only through interpretation: growing N emulates the asymptotic regime, and
the scaling tables (condition constants, decay constants) are the finite
echo of the isomorphism statement.

Distances live on the torus Z_N x Z_N. Raw integer coordinates are the
default everywhere; the normalized metric (coordinates divided by sqrt(N),
period sqrt(N)) is what makes decay constants comparable across N, and the
experiment reports both.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import matalg
from .frames import Frame
from .weights import SYMBOL_SPEC, TORUS, IndexSet, Weight

WINDOW_PERIODIZATION = 3  # tail terms below 1e-12 for N >= 4
# Window entries below this fraction of the largest are set to zero.
WINDOW_FLOOR = 2.0**-500


def gaussian_window(N: int) -> np.ndarray:
    """Periodized Gaussian at the self-dual scale, l2-normalized.

    g(t) = sum_{|j| <= 3} exp(-pi (t + jN)^2 / N); real, nonnegative, and
    symmetric under t -> N - t.

    Entries below WINDOW_FLOOR = 2^-500 of the largest are set to zero, so
    that no product of two entries is subnormal: each such product is at
    least 2^-1000 max(g)^2, above the smallest normal double 2^-1022. An
    operation on a subnormal number takes the CPU's slow path, and from
    N = 512 on the Gaussian tail falls below the floor (1.1e-175 at
    N = 512, subnormal at N = 1024). The entries dropped are below 1e-150
    of the largest, so the norm does not move; up to N = 256 no entry is
    dropped (the smallest is 2.8e-88), and the window is positive.
    """
    if N < 4:
        raise ValueError("window needs N >= 4")
    t = np.arange(N, dtype=float)
    g = np.zeros(N)
    for j in range(-WINDOW_PERIODIZATION, WINDOW_PERIODIZATION + 1):
        g += np.exp(-np.pi * (t + j * N) ** 2 / N)
    g[g < WINDOW_FLOOR * g.max()] = 0.0
    return g / np.linalg.norm(g)


def tf_shift(f: np.ndarray, x, omega) -> np.ndarray:
    """pi(x, omega) f (t) = e^{2 pi i omega t / N} f(t - x), indices mod N.

    x and omega may be integer arrays of one shape; then the result has
    that shape after its first axis t, pi(x_j, omega_j) f along it.
    """
    f = np.asarray(f)
    N = f.shape[0]
    x, omega = np.asarray(x), np.asarray(omega)
    t = np.arange(N).reshape((N,) + (1,) * x.ndim)
    return np.exp(2j * np.pi * (omega % N) * t / N) * f[(t - x) % N]


def stft(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Full short-time Fourier transform V[x, omega] = <f, pi(x, omega) g>.

    Computed as one batched FFT over the rows f conj(g(. - x)), one per
    shift x; satisfies the discrete orthogonality relation
    sum_{x, omega} |V|^2 = N ||f||^2 ||g||^2.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != g.shape:
        raise ValueError("stft needs equal lengths")
    N = f.shape[0]
    t = np.arange(N)
    return np.fft.fft(f * np.conj(g[(t[None, :] - t[:, None]) % N]), axis=1)


@dataclass(frozen=True)
class TFLattice:
    """Separable lattice aZ_N x bZ_N with both steps dividing N."""

    N: int
    a: int
    b: int

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.N % self.a or self.N % self.b:
            raise ValueError("lattice steps must be positive divisors of N")

    @classmethod
    def balanced(cls, N: int, redundancy: int = 4) -> "TFLattice":
        """Most nearly square power-of-two factorization of a*b = N/redundancy."""
        if N % redundancy:
            raise ValueError("redundancy must divide N")
        m = N // redundancy
        a = 1
        while (a * 2) ** 2 <= m:
            a *= 2
        if m % a:
            raise ValueError("N/redundancy admits no power-of-two factor split")
        return cls(N, a, m // a)

    @property
    def points(self) -> np.ndarray:
        xs = np.arange(0, self.N, self.a)
        ws = np.arange(0, self.N, self.b)
        return np.array([(x, w) for x in xs for w in ws], dtype=float)

    @property
    def shape(self) -> tuple:
        """(P, Q), the numbers of time and of frequency steps: :attr:`points`
        lists (ix a, iw b) at index k = ix Q + iw."""
        return self.N // self.a, self.N // self.b

    @property
    def n(self) -> int:
        P, Q = self.shape
        return P * Q

    @property
    def redundancy(self) -> float:
        return self.n / self.N

    def index_set(self, normalized: bool = False) -> IndexSet:
        scale = math.sqrt(self.N) if normalized else 1.0
        return IndexSet(self.points / scale, metric=TORUS, period=self.N / scale)


def gabor_system(N: int, a: int, b: int) -> Frame:
    """The frame {pi(x, omega) g} of the Gaussian window g over the lattice
    aZ_N x bZ_N, columns in point order, from one :func:`tf_shift` over
    all points."""
    lat = TFLattice(N, a, b)
    x, omega = lat.points.astype(int).T
    return Frame(tf_shift(gaussian_window(N), x, omega), lat.index_set())


def stft_decay_constant(g: np.ndarray, exponents) -> list:
    """Measured C_s with |V_g g(x, omega)| <= C_s (1 + dist((x,omega), 0))^{-s},
    for each s in ``exponents``.

    Exhaustive scan over the full grid with the normalized torus metric:
    coordinates are divided by sqrt(N), so constants compare across N.
    |V_g g| and the distance table are made once for all exponents.
    """
    g = np.asarray(g, dtype=complex)
    N = g.shape[0]
    V = np.abs(stft(g, g))
    scale = math.sqrt(N)
    t = np.arange(N, dtype=float)
    d2 = (np.minimum(t, N - t) / scale) ** 2  # squared torus distance of x (or omega) to 0
    dist = np.sqrt(d2[:, None] + d2[None, :])
    return [float(np.max(V * (1.0 + dist) ** s)) for s in exponents]


def _interplay(scan: matalg.PairScan, frame: Frame, t: float, s: float):
    """Add the three constants of :func:`moderate_interplay_check` to
    ``scan``; returns the reader of its report from the scan's values."""
    idx = frame.index_set
    mu = Weight.polynomial(idx, t).values
    G = scan.gram(frame)
    lhs, cmod, decay = scan.decay(G, s, idx, mu), scan.moderateness(mu, t, idx), scan.decay(G, s + t, idx)

    def report(values: list) -> dict:
        rhs = values[cmod] * values[decay]
        ok = bool(values[lhs] <= rhs * (1 + 1e-12))
        return {"lhs": values[lhs], "rhs": rhs, "moderateness": values[cmod], "ok": ok}

    return report


def moderate_interplay_check(frame: Frame, t: float, s: float) -> dict:
    """decay(G^mu, s) <= moderateness(mu, t) * decay(G, s + t) for mu = w_t.

    The pointwise inequality (mu_k / mu_l) |G_kl| <= C_mod (1 + d_kl)^t |G_kl|
    makes this hold for every t-moderate mu; checked here for the polynomial
    weight itself, its three constants read in one pass over row slabs of G.
    """
    scan = matalg.PairScan(frame.n)
    report = _interplay(scan, frame, t, s)
    return report(scan.run())


def _lattice_for(N: int, redundancy, a_ratio, b_ratio) -> TFLattice:
    """a = N / a_ratio, b = N / b_ratio; a ratio given alone stands for both.

    A ratio above N gives no step, and one that leaves a step not dividing
    N gives no lattice; either raises ValueError.
    """
    if a_ratio is None and b_ratio is None:
        return TFLattice.balanced(N, redundancy)
    a_ratio = b_ratio if a_ratio is None else a_ratio
    b_ratio = a_ratio if b_ratio is None else b_ratio
    if max(a_ratio, b_ratio) > N:
        raise ValueError(f"lattice ratios {a_ratio}, {b_ratio} exceed N = {N}: no lattice step")
    return TFLattice(N, N // a_ratio, N // b_ratio)


class GaborFamily:
    """The Gabor lift: one system on Z_N per N, over a balanced or ratio lattice.

    ``mu`` is read on each N's raw torus lattice. A lattice that is not a
    frame becomes a failure entry instead of an exception. Decay constants
    are tabulated in both raw and normalized metrics; only the normalized
    ones are comparable across N.
    """

    key = "N"
    mu_default = SYMBOL_SPEC

    def __init__(self, Ns, redundancy: int = 4, a_ratio=None, b_ratio=None, t_check: float = 2.0):
        for N in Ns:
            if isinstance(N, bool) or not isinstance(N, numbers.Integral):
                raise ValueError(f"N must be an integer, got {N!r}")
        self.sizes = [int(N) for N in Ns]
        self.redundancy, self.a_ratio, self.b_ratio = redundancy, a_ratio, b_ratio
        self.t_check = t_check

    def case(self, N: int):
        lat = _lattice_for(N, self.redundancy, self.a_ratio, self.b_ratio)
        frame = gabor_system(lat.N, lat.a, lat.b)
        A, B = frame.bounds
        entry = {
            "N": N,
            "a": lat.a,
            "b": lat.b,
            "n_vectors": lat.n,
            "redundancy": lat.redundancy,
            "frame_bounds": [float(A), float(B)],
        }
        return entry, frame

    def extras(self, entry: dict, frame: Frame, mu: Weight, s: float, scan: matalg.PairScan):
        """The interplay check and the normalized decay of G and the dual
        Gram, read in the pipeline's pass; then the window decay.

        The frame's index order is its lattice's, so the family declares
        that lattice on ``scan``: every Gram the pass reads (G, the dual
        Gram, the cross-Gram) and both torus index sets are covariant on
        it, and each constant is read from row 0 and one ratio table per
        weight (:meth:`framelift.matalg.PairScan.on_lattice`)."""
        lat = TFLattice(entry["N"], entry["a"], entry["b"])
        scan.on_lattice(*lat.shape)
        idx_norm = lat.index_set(normalized=True)
        normalized = scan.decay(scan.gram(frame), s, idx_norm)
        dual_normalized = scan.decay(scan.gram(frame.canonical_dual()), s, idx_norm)
        interplay = _interplay(scan, frame, self.t_check, s)

        def finish() -> dict:
            metadata = entry["report"]["metadata"]
            exponents = (2.0, 4.0, 6.0, 8.0)
            constants = stft_decay_constant(gaussian_window(lat.N), exponents)
            window_decay = {str(se): c for se, c in zip(exponents, constants)}
            metadata["window_decay_constants"] = window_decay
            metadata["interplay"] = interplay(scan.values)
            return {
                "gram_normalized": scan.values[normalized],
                "dual_gram_normalized": scan.values[dual_normalized],
                # G on the raw index set at s, from step (ii)
                "gram_raw": entry["report"]["decay_profiles"]["G"],
                "window_decay": window_decay,
            }

        return finish

    def fields(self, s: float, ps: list, tables: dict) -> dict:
        decay = {name: tables[name] for name in ("gram_normalized", "dual_gram_normalized", "gram_raw")}
        return {
            "kind": "gabor_lifting",
            "s": s,
            "ps": ps,
            "decay_scaling": {"s": s, **decay},
            "window_decay": tables["window_decay"],
        }
