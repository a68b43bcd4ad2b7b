"""High-precision oracle for the p = 2 constants of Gabor lifting runs.

framelift reports p = 2 lifting constants as exact generalized singular
values. This module recomputes them from the definitions with mpmath, far
from float64 rounding, so the benchmark can count how many digits each
reported constant gets right.

For a Gabor frame {pi(x, w) g} on Z_N with symbol mu and weight m = 1, let
V be the d x n synthesis matrix, S = V V^H the frame operator and
M_w = V diag(w) V^H. The dual analysis matrix is V^H S^-1, so the constants
of M_mu : H^2_sqrt(mu) -> H^2_{1/sqrt(mu)} are the square roots of the
extreme eigenvalues of the Hermitian pencil

    (M_mu S^-1 M_{1/mu} S^-1 M_mu,  S^-1 M_mu S^-1).

`framelift verify` reports the smaller one as coercivity.sigma_min_weighted,
and its coercivity.relative_constants come from the pencil
(M_mu, S^-1 M_mu S^-1).

The oracle is slow (minutes at d = 128), so its values are cached in
oracle_p2.json next to this file. Regenerate them with

    python3 perfbench/oracle.py

Every value is computed at 50 and at 80 digits and must agree to 12
significant digits, or regeneration stops with an error.
"""

import json
import sys
from pathlib import Path

import mpmath as mp

BASE_DPS = 50
CHECK_DPS = 80
AGREE_DIGITS = 12
WINDOW_PERIODIZATION = 3
CACHE = Path(__file__).with_name("oracle_p2.json")

# (N, a, b, t_mu, with_relative): every Gabor p = 2 constant with d <= 64 in
# the workloads, plus the coercivity constants of verify-1024 (d = 128).
CASES = (
    (32, 2, 4, 6.0, False),
    (32, 2, 4, 14.0, False),
    (64, 4, 4, 2.0, False),
    (64, 4, 4, 6.0, False),
    (64, 4, 4, 14.0, False),
    (128, 2, 8, 2.0, True),
)


def case_key(N: int, a: int, b: int, t_mu: float) -> str:
    return f"gabor N={N} a={a} b={b} t_mu={float(t_mu):g}"


def _window(N: int):
    t = [mp.mpf(k) for k in range(N)]
    g = [
        mp.fsum(mp.exp(-mp.pi * (tk + j * N) ** 2 / N) for j in range(-WINDOW_PERIODIZATION, WINDOW_PERIODIZATION + 1))
        for tk in t
    ]
    norm = mp.sqrt(mp.fsum(v * v for v in g))
    return [v / norm for v in g]


def _frame_and_symbol(N: int, a: int, b: int, t_mu: float):
    """Synthesis matrix V (d x n) and the polynomial symbol on the torus lattice."""
    g = _window(N)
    points = [(x, w) for x in range(0, N, a) for w in range(0, N, b)]
    V = mp.matrix(N, len(points))
    mu = []
    for j, (x, w) in enumerate(points):
        for t in range(N):
            V[t, j] = mp.expjpi(mp.mpf(2 * w * t) / N) * g[(t - x) % N]
        dx, dw = min(x, N - x), min(w, N - w)
        mu.append((1 + mp.sqrt(dx * dx + dw * dw)) ** mp.mpf(t_mu))
    return V, mu


def _weighted_outer(V, w):
    """V diag(w) V^H."""
    Vw = V.copy()
    for j in range(V.cols):
        for t in range(V.rows):
            Vw[t, j] *= w[j]
    return Vw * V.H


def _pencil_extremes(HA, HB):
    """Smallest and largest eigenvalue of HA x = lambda HB x, HB positive definite."""
    Linv = mp.inverse(mp.cholesky(HB))
    C = Linv * HA * Linv.H
    C = (C + C.H) / 2
    ev = sorted(mp.re(e) for e in mp.eighe(C, eigvals_only=True))
    return ev[0], ev[-1]


def gabor_p2_constants(N: int, a: int, b: int, t_mu: float, with_relative: bool, dps: int) -> dict:
    """The p = 2 constants for one Gabor case, computed at ``dps`` digits."""
    with mp.workdps(dps):
        V, mu = _frame_and_symbol(N, a, b, t_mu)
        S = _weighted_outer(V, [mp.mpf(1)] * V.cols)
        M = _weighted_outer(V, mu)
        Mr = _weighted_outer(V, [1 / m for m in mu])
        Sinv = mp.inverse(S)
        HB = Sinv * M * Sinv
        lo, hi = _pencil_extremes(M * Sinv * Mr * Sinv * M, HB)
        out = {"lower": mp.sqrt(lo), "upper": mp.sqrt(hi)}
        if with_relative:
            rlo, rhi = _pencil_extremes(M, HB)
            out["relative_lower"] = mp.sqrt(rlo)
            out["relative_upper"] = mp.sqrt(rhi)
        return out


def _agree(x, y, digits: int) -> bool:
    return abs(x - y) <= mp.mpf(10) ** (-digits) * abs(y)


def regenerate(path: Path = CACHE) -> dict:
    out = {
        "base_dps": BASE_DPS,
        "check_dps": CHECK_DPS,
        "agree_digits": AGREE_DIGITS,
        "cases": {},
    }
    for N, a, b, t_mu, with_relative in CASES:
        base = gabor_p2_constants(N, a, b, t_mu, with_relative, BASE_DPS)
        check = gabor_p2_constants(N, a, b, t_mu, with_relative, CHECK_DPS)
        entry = {}
        for name, value in base.items():
            with mp.workdps(CHECK_DPS):
                if not _agree(value, check[name], AGREE_DIGITS):
                    raise SystemExit(
                        f"{case_key(N, a, b, t_mu)} {name}: {mp.nstr(value, 20)} at {BASE_DPS} digits"
                        f" vs {mp.nstr(check[name], 20)} at {CHECK_DPS} digits"
                    )
                entry[name] = mp.nstr(check[name], 25)
        out["cases"][case_key(N, a, b, t_mu)] = entry
        print(case_key(N, a, b, t_mu), entry, flush=True)
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return out


def load(path: Path = CACHE) -> dict:
    """{case key: {constant name: float}} from the cache."""
    data = json.loads(path.read_text())
    return {key: {k: float(v) for k, v in entry.items()} for key, entry in data["cases"].items()}


if __name__ == "__main__":
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else CACHE)
