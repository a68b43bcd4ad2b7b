"""Reference formulas the tests check the package against.

Each one checks a claim of the paper or reads back what a command writes;
no command computes them, so they live with the tests.
"""

import csv
import json

import mpmath as mp
import numpy as np

from framelift import fock, gabor
from framelift.frames import Frame
from framelift.matalg import MAP_SAMPLES, PairScan, _draws, _ratios, _riesz_thorin, pseudo_inverse
from framelift.multipliers import Slots, galerkin, multiplier
from framelift.weights import IndexSet, Weight, lp_norms, weight_values

# Residual below which an ordering passes galerkin_pinv_crosscheck.
CROSSCHECK_RTOL = 1e-8


def gram(frame: Frame, other: Frame | None = None) -> np.ndarray:
    """G_Psi, or the cross-Gram G_{Psi,Phi} = C_Psi D_Phi when ``other`` is given."""
    if other is None:
        return frame.gram_matrix
    if other.d != frame.d:
        raise ValueError("frames must share the ambient dimension")
    return frame.analysis_matrix @ other.synthesis_matrix


def dense_gram_identities(frame: Frame, rtol: float = 1e-10) -> dict:
    """:func:`framelift.frames.gram_identities_check` with every n x n
    matrix formed whole, in the same operation order: P = C Dd and G_Psid
    are held, and each product is formed whole and P subtracted from it in
    place. The slab route must equal it bit for bit."""

    def max_abs(A):
        return float(np.abs(A).max())

    def max_gap(X, Y):
        X -= Y
        return max_abs(X)

    def rel(err, scale):
        return err / max(1.0, scale)

    dual = frame.canonical_dual()
    C, D = frame.analysis_matrix, frame.synthesis_matrix
    Cd, Dd = dual.analysis_matrix, dual.synthesis_matrix
    n, d = C.shape
    U, s, _ = np.linalg.svd(C, full_matrices=False)
    UhCD = (U.conj().T @ C) @ D
    Gd = Cd @ Dd
    pinv_dual = rel(max_gap((U * s**-4) @ UhCD, Gd), max_abs(Gd))
    P = C @ Dd
    DdC = Dd @ C
    gram_max = float((D.real**2 + D.imag**2).sum(axis=0).max())
    resid = {
        "product_identity": rel(max_gap(C @ ((D @ Cd) @ Dd), P), gram_max),
        "pinv_cross": max_gap((U * s**-2) @ UhCD, P),
        "pinv_dual": pinv_dual,
        "idempotent": max_gap(C @ (DdC @ Dd), P),
        "self_adjoint": max_gap(P.conj().T, P),
        "fixes_analysis_range": rel(max_abs(C @ DdC - C), max_abs(C)),
    }
    if n > d:
        resid["kills_synthesis_kernel"] = max_abs(C @ (Dd - (Dd @ U) @ U.conj().T))
        resid["splitting"] = max_abs(D - (D @ C) @ Dd)
    else:
        resid["kills_synthesis_kernel"] = 0.0
        resid["splitting"] = 0.0
    resid["projection_rank"] = int(np.round(np.trace(DdC).real))
    resid["ok"] = all(v < rtol for k, v in resid.items() if k != "projection_rank")
    return resid


def op_from_matrix(M: np.ndarray, phi: Frame, psi: Frame) -> np.ndarray:
    """Op^{(Phi,Psi)}(M) = D_Phi M C_Psi; with dual slots inside, Op after Mat
    is the identity on operators."""
    return phi.synthesis_matrix @ np.asarray(M) @ psi.analysis_matrix


def invertibility_matrix(O: np.ndarray, psi: Frame, slots: Slots = Slots.PSI_PSI, cross=None) -> np.ndarray:
    """B_O = Mat(O) + (I - G_{Psi,Psid}) with the requested slot assignment,
    assembled as an n x n array: the dense reference for the factors that
    :class:`framelift.multipliers._SplitCore` holds.

    O is invertible on C^d exactly when B_O is invertible on C^n, for every
    slot choice. ``cross`` is G_{Psi,Psid} when the caller already holds it
    (it is read, not changed). The sum is assembled in place as -G, then
    + 1 on the diagonal, then + Mat(O), which rounds exactly like
    Mat(O) + (I - G).
    """
    left, right = (psi if which == "frame" else psi.canonical_dual() for which in slots.value)
    out = gram(psi, psi.canonical_dual()) if cross is None else cross.copy()
    np.negative(out, out=out)
    out[np.diag_indices(psi.n)] += 1.0
    out += galerkin(O, left, right)
    return out


def assembled(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """T = I + U V as an n x n array, in the operations of the rows that
    :func:`framelift.matalg.operator_norm` reads: U V, then + 1 on the
    diagonal."""
    T = U @ V
    T[np.diag_indices(len(T))] += 1.0
    return T


def woodbury_residual(B, W, Y, psi) -> float:
    """||I - B Xt||_inf in extended precision (np.clongdouble) for the
    n x n np.clongdouble B and the Woodbury inverse Xt = I - C W Y of the
    float W and Y."""
    LD = np.clongdouble
    eye = np.eye(psi.n, dtype=LD)
    Xt = eye - psi.analysis_matrix.astype(LD) @ (W.astype(LD) @ Y.astype(LD))
    return float(np.abs(eye - B @ Xt).sum(axis=1).max())


def extended_residual(W, Y, O, psi, slots, dY=None) -> float:
    """:func:`woodbury_residual` of B = I + C Y, formed in np.clongdouble
    from the same float inputs as the certificate (C, D, O, the dual
    synthesis matrix), and of Y; with a d x n perturbation dY, of
    B + C dY and Y + dY."""
    LD = np.clongdouble
    left, right = slots.value
    Dd = psi.canonical_dual().synthesis_matrix.astype(LD)
    E = (psi.synthesis_matrix if right == "frame" else psi.canonical_dual().synthesis_matrix).astype(LD)
    P = O.astype(LD) @ E
    if left == "dual":
        P = (Dd @ Dd.conj().T) @ P
    Z = P - Dd
    if dY is not None:
        Z, Y = Z + dY.astype(LD), Y.astype(LD) + dY.astype(LD)
    B = np.eye(psi.n, dtype=LD) + psi.analysis_matrix.astype(LD) @ Z
    return woodbury_residual(B, W, Y, psi)


def splitting_case(family: str, size: float, t: float) -> tuple:
    """(O, psi, mu, sqrt(mu)): the lift's step (i) operator O =
    M_{1/mu} M_mu, frame, symbol mu = (1+|x|)^t and weight, on a Gabor
    system at redundancy 4 with N = size, or on steep-mix's Fock family
    at radius size."""
    if family == "gabor":
        lat = gabor.TFLattice.balanced(int(size), 4)
        psi = gabor.gabor_system(lat.N, lat.a, lat.b)
    else:
        psi = fock.FockFamily(0.8, [size], margin=0.5, jitter=0.0, seed=1).case(size)[1]
    mu = Weight.polynomial(psi.index_set, t).values
    return multiplier(1.0 / mu, psi) @ multiplier(mu, psi), psi, mu, np.sqrt(mu)


def sampled_ratios(A: np.ndarray, B, p, n_samples: int, seed: int) -> np.ndarray:
    """||A f||_p / ||B f||_p over seeded complex Gaussian draws f
    (:func:`framelift.matalg._draws`) for dense A and B; B = None is the
    identity. Draws with B f = 0 are skipped."""
    F = _draws(n_samples, A.shape[1], seed)
    return _ratios(F @ A.T, F if B is None else F @ B.T, p)


def factor_ratios(U: np.ndarray, V: np.ndarray, p, n_samples: int, seed: int) -> np.ndarray:
    """:func:`sampled_ratios` of T = I + U V, with F T^T formed from the
    factors as :func:`framelift.matalg.operator_norm` forms it."""
    F = _draws(n_samples, U.shape[0], seed)
    return _ratios(F + (F @ V.T) @ U.T, F, p)


def induced_norm(A: np.ndarray, p):
    """Induced l^p norm of the dense matrix A, the reference for
    :func:`framelift.matalg.operator_norm`: exact for p in {1, 2, inf},
    otherwise (lower, upper), the largest of :func:`sampled_ratios` over
    MAP_SAMPLES draws seeded by 0 and :func:`interpolated_upper`."""
    A = np.asarray(A)
    if p == 1:
        return float(np.abs(A).sum(axis=0).max())
    if p == np.inf:
        return float(np.abs(A).sum(axis=1).max())
    if p == 2:
        return float(np.linalg.svd(A, compute_uv=False)[0])
    lower = float(np.max(sampled_ratios(A, None, p, MAP_SAMPLES, 0), initial=0.0))
    return lower, interpolated_upper(A, p)


def interpolated_upper(A: np.ndarray, p) -> float:
    """Riesz-Thorin bound on the l^p induced norm of the dense matrix A from
    its exact p = 1, 2, inf norms, for 1 < p < inf."""
    return _riesz_thorin(induced_norm(A, 1), induced_norm(A, 2), induced_norm(A, np.inf), p)


def galerkin_pinv_crosscheck(O: np.ndarray, psi: Frame, phi: Frame) -> dict:
    """Which dual-slot ordering satisfies Mat(O)^dagger = Mat(O^{-1})?

    Candidate A: pinv(Mat^{(Psid,Phid)}(O)) = Mat^{(Phi,Psi)}(O^{-1}).
    Candidate B: pinv(Mat^{(Phid,Psid)}(O)) = Mat^{(Psi,Phi)}(O^{-1}).
    Returns both residuals and the names of the orderings below CROSSCHECK_RTOL.
    """
    O = np.asarray(O)
    Oinv = np.linalg.inv(O)
    psid, phid = psi.canonical_dual(), phi.canonical_dual()
    res = {
        "ordering_A": float(np.abs(pseudo_inverse(galerkin(O, psid, phid)) - galerkin(Oinv, phi, psi)).max()),
        "ordering_B": float(np.abs(pseudo_inverse(galerkin(O, phid, psid)) - galerkin(Oinv, psi, phi)).max()),
    }
    res["passing"] = [k for k in ("ordering_A", "ordering_B") if res[k] < CROSSCHECK_RTOL]
    return res


def weighted_norm(c, p, m) -> float:
    """The norm ||c||_{p,m} = ||m * c||_p for p in [1, inf].

    ``p = np.inf`` (or the string "inf") gives sup_k m_k |c_k|.
    """
    c = np.asarray(c)
    vals = weight_values(m, c.shape[0])
    if isinstance(p, str):
        if p != "inf":
            raise ValueError(f"unknown p {p!r}")
        p = np.inf
    if p != np.inf and p < 1:
        raise ValueError("p must lie in [1, inf]")
    return float(lp_norms(vals * np.abs(c), p))


def diag_lift(c, mu) -> np.ndarray:
    """The diagonal map c |-> (mu_k c_k): an isometry l^p_{mu m} -> l^p_m."""
    c = np.asarray(c)
    return weight_values(mu, c.shape[0]) * c


def schur_constant(idx: IndexSet, s: float) -> float:
    """kappa = max_k sum_l (1 + dist(k,l))^(-s)."""
    return float(((1.0 + idx.distance_matrix()) ** (-float(s))).sum(axis=1).max())


def schur_product_constant(idx: IndexSet, s: float) -> float:
    """Tight submultiplicativity constant for decay constants at exponent s.

    kappa2 = max_{k,l} (1+d(k,l))^s sum_j (1+d(k,j))^(-s) (1+d(j,l))^(-s),
    giving decay_constant(AB, s) <= kappa2 * decay_constant(A, s) *
    decay_constant(B, s) with equality attainable.
    """
    d = idx.distance_matrix()
    w = (1.0 + d) ** (-float(s))
    return float(((1.0 + d) ** float(s) * (w @ w)).max())


def truncation_residual(lattice: fock.FockLattice, Dmax: int) -> float:
    """max_k (1 - sum_n |c_n|^2): per-kernel coefficient mass beyond Dmax."""
    E = fock._coefficients(lattice.points, Dmax)
    return float(np.max(1.0 - np.sum(np.abs(E) ** 2, axis=0)))


def _display_assembly(lam: np.ndarray, mu: np.ndarray, degree: int, half: bool) -> np.ndarray:
    # Normalized-monomial matrix elements of F -> sum mu_l F(l) e^{pi conj(l) z} w(l),
    # with weight w = e^{-pi |l|^2} (section display) or e^{-pi |l|^2 / 2} (intro).
    P = np.zeros((degree + 1, len(lam)), dtype=complex)
    term = np.ones(len(lam), dtype=complex)
    P[0] = term
    for n in range(1, degree + 1):
        term = term * (np.sqrt(np.pi) * lam) / np.sqrt(n)
        P[n] = term
    w = np.exp((-np.pi / 2 if half else -np.pi) * np.abs(lam) ** 2)
    return np.conj(P) @ ((mu * w)[:, None] * P.T)


def fock_multiplier(lattice: fock.FockLattice, mu, Dmax=None) -> np.ndarray:
    """Discrete-measure Toeplitz operator on the truncated space, built as
    the frame multiplier of the normalized kernel system."""
    if Dmax is None:
        Dmax = fock.default_degree(lattice.R)
    return multiplier(mu, fock.embed_truncated(lattice, Dmax))


def fock_multiplier_report(lattice: fock.FockLattice, mu) -> dict:
    """The abstract multiplier against both closed-form displays of the paper.

    The section display, with the reproducing weight e^{-pi |lambda|^2},
    is the kernel multiplier itself; the intro display, with the
    half-exponent weight, is it with symbol mu e^{pi |lambda|^2 / 2}.
    """
    Dmax = fock.default_degree(lattice.R)
    lam = lattice.points
    muv = weight_values(mu, len(lam))
    abstract = fock_multiplier(lattice, muv, Dmax)
    section = _display_assembly(lam, muv, Dmax, half=False)
    intro = _display_assembly(lam, muv, Dmax, half=True)
    rescaled = _display_assembly(lam, muv * np.exp(-np.pi * np.abs(lam) ** 2 / 2), Dmax, half=True)
    scale = max(1.0, float(np.abs(abstract).max()))
    return {
        "residual_section_vs_abstract": float(np.abs(section - abstract).max()) / scale,
        "residual_intro_rescaled_vs_abstract": float(np.abs(rescaled - abstract).max()) / scale,
        "intro_max_entry": float(np.abs(intro).max()),
    }


def load_matrix_json(path) -> np.ndarray:
    """The matrix `framelift export` writes as JSON."""
    with open(path) as fh:
        d = json.load(fh)
    shape = tuple(d["shape"])
    re, im = (np.asarray(d[part], dtype=float).reshape(shape) for part in ("real", "imag"))
    return re + 1j * im


def load_matrix_csv(path_real, path_imag) -> np.ndarray:
    """The matrix `framelift export` writes as a pair of CSV files."""
    parts = []
    for path in (path_real, path_imag):
        with open(path, newline="") as fh:
            parts.append(np.asarray([[float(x) for x in row] for row in csv.reader(fh)]))
    return parts[0] + 1j * parts[1]


def dense_decay(A: np.ndarray, s: float, idx: IndexSet, w=None) -> float:
    """max |(w_k / w_l) a_kl| (1 + d_kl)^s over the whole n x n matrix at once,
    in the operation order of the slab scan."""
    if w is not None:
        A = (w[:, None] / w[None, :]) * A
    return float((np.abs(A) * (1.0 + idx.distance_matrix()) ** s).max())


def dense_moderateness(values: np.ndarray, t: float, idx: IndexSet) -> float:
    """max (m_k / m_l) / (1 + d_kl)^t over the whole n x n table at once."""
    return float(((values[:, None] / values[None, :]) / (1.0 + idx.distance_matrix()) ** t).max())


def dense_subexponential(values: np.ndarray, alpha: float, beta: float, idx: IndexSet) -> float:
    """max (m_k / m_l) / exp(alpha d_kl^beta) over the whole n x n table at once."""
    ratio = values[:, None] / values[None, :]
    return float((ratio / np.exp(alpha * idx.distance_matrix() ** beta)).max())


def lattice_differences(P: int, Q: int) -> np.ndarray:
    """The n x n table of lattice differences l - k on the P x Q torus
    lattice with index order k = ix Q + iw."""
    ix, iw = np.divmod(np.arange(P * Q), Q)
    return ((ix[None, :] - ix[:, None]) % P) * Q + (iw[None, :] - iw[:, None]) % Q


def ratio_table(w: np.ndarray, P: int, Q: int) -> np.ndarray:
    """R(delta) = max_k w_k / w_{k + delta}, read from the whole n x n table of
    quotients w_k / w_l at once."""
    R = np.full(P * Q, -np.inf)
    np.maximum.at(R, lattice_differences(P, Q).ravel(), (w[:, None] / w[None, :]).ravel())
    return R


def lattice_decay(frame: Frame, other: Frame, s: float, idx: IndexSet, P: int, Q: int, w=None) -> float:
    """max_delta |R_w(delta) a_0,delta| (1 + d_0,delta)^s for the cross-Gram
    of ``frame`` and ``other``, from its row 0 and row 0 of idx's distances,
    in the operation order of the lattice scan."""
    a = np.matmul(frame.vectors[:, :1].conj().T, other.vectors)[0]
    if w is not None:
        a = ratio_table(w, P, Q) * a
    return float((np.abs(a) * (1.0 + idx.distances(0, 1)[0]) ** s).max())


def _exact_gabor_moduli(N: int, a: int, b: int) -> dict:
    """|G|, |G_dual| and |G_cross| (n x n, as mpf) of :func:`gabor.gabor_system`
    on aZ_N x bZ_N, evaluated at the working precision from the periodized
    Gaussian of :func:`gabor.gaussian_window`: the window, the exact phases
    e^{2 pi i (omega t mod N) / N}, S, S^{-1}, the dual vectors S^{-1} psi_k
    and every inner product."""
    J = gabor.WINDOW_PERIODIZATION
    g = [mp.fsum(mp.exp(-mp.pi * mp.mpf(t + j * N) ** 2 / N) for j in range(-J, J + 1)) for t in range(N)]
    norm = mp.sqrt(mp.fsum(x * x for x in g))
    g = [x / norm for x in g]
    points = gabor.TFLattice(N, a, b).points.astype(int).tolist()
    psi = [[mp.expjpi(mp.mpf(2 * ((w * t) % N)) / N) * g[(t - x) % N] for t in range(N)] for x, w in points]
    S = mp.matrix([[mp.fdot(row_i, row_j, conjugate=True) for row_j in zip(*psi)] for row_i in zip(*psi)])
    S_inv = mp.inverse(S)
    dual = [list(S_inv * mp.matrix(v)) for v in psi]

    def moduli(left, right):  # |<right_l, left_k>| at (k, l)
        return [[abs(mp.fdot(r, lf, conjugate=True)) for r in right] for lf in left]

    return {"G": moduli(psi, psi), "Gdual": moduli(dual, dual), "cross": moduli(psi, dual)}


def gabor_decay_oracle(N: int, s: float = 4.0, dps: int = 30) -> dict:
    """Unweighted decay constants at s of G, the dual Gram and the cross-Gram
    of the balanced Gabor system on Z_N, on the raw and the normalized torus
    metric, by three routes:

    - exact: :func:`_exact_gabor_moduli` at ``dps`` digits, with the exact
      distances, maximized over all n^2 pairs;
    - lattice: a :class:`PairScan` on the declared lattice, which reads
      row 0 of each float Gram;
    - all_pairs: :func:`dense_decay` over the whole float Gram.

    Returns, per "<matrix>/<metric>", the exact value rounded to a float,
    the relative error of each route and the route that is closer
    ("lattice", "all_pairs" or "tie").
    """
    lat = gabor.TFLattice.balanced(N, 4)
    psi = gabor.gabor_system(N, lat.a, lat.b)
    dual = psi.canonical_dual()
    pairs = {"G": (psi, psi), "Gdual": (dual, dual), "cross": (psi, dual)}
    metrics = {"raw": lat.index_set(), "normalized": lat.index_set(normalized=True)}
    scan = PairScan(psi.n)
    scan.on_lattice(*lat.shape)
    requests = {
        (name, metric): scan.decay(scan.gram(*frames), s, idx)
        for name, frames in pairs.items()
        for metric, idx in metrics.items()
    }
    values = scan.run()
    # squared raw torus distances: integers, recovered exactly from the floats
    dist2 = np.rint(metrics["raw"].distance_matrix() ** 2).astype(int)
    out = {}
    with mp.workdps(dps):
        exact_moduli = _exact_gabor_moduli(N, lat.a, lat.b)
        for metric, idx in metrics.items():
            scale = 1 if metric == "raw" else mp.sqrt(N)
            growth = {q: (1 + mp.sqrt(q) / scale) ** mp.mpf(s) for q in np.unique(dist2).tolist()}
            for name, (left, right) in pairs.items():
                mod = exact_moduli[name]
                exact = max(mod[k][l] * growth[int(dist2[k, l])] for k in range(psi.n) for l in range(psi.n))
                errors = {}
                for route, value in (
                    ("lattice", values[requests[name, metric]]),
                    ("all_pairs", dense_decay(gram(left, right), s, idx)),
                ):
                    errors[route] = float(abs(mp.mpf(value) - exact) / exact)
                lat_err, dense_err = errors["lattice"], errors["all_pairs"]
                closer = "tie" if lat_err == dense_err else ("lattice" if lat_err < dense_err else "all_pairs")
                out[f"{name}/{metric}"] = {"exact": float(exact), **errors, "closer": closer}
    return out
