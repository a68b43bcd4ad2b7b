"""The lifting-theorem pipeline and the one sweep that runs it over a family.

The coorbit space H^p_m over a frame Psi is C^d renormed by the weighted
l^p norm of canonical-dual coefficients: ||f||_{H^p_m} = ||C_Psid f||_{p,m}.
The lifting question asks for the best constants in

    lower * ||f||_{H^p_{m sqrt(mu)}} <= ||M_mu f||_{H^p_{m/sqrt(mu)}}
                                      <= upper * ||f||_{H^p_{m sqrt(mu)}}.

For p = 2 both constants are exact generalized singular values when both
coefficient maps are injective. Otherwise, and for p in {1, inf}, they are
bracketed: certified outer bounds come from the left-inverse factorization
(B^+ B = I for an injective coefficient map B; a map that is not injective
gives the trivial bound), inner bounds from a seeded randomized scan.
Other p get outer bounds by interpolating the exact p = 1, 2, inf norms.
Brackets are part of every report; nothing outside {2} is claimed exact.
All of these constants come from :func:`framelift.matalg.map_constants`.

:func:`sweep` is the one experiment loop: a family (Gabor, Fock, or one
given frame) supplies a frame per size, and the sweep reads the weights,
runs the pipeline and assembles the report.
"""

from collections import defaultdict

import numpy as np

from . import matalg
from .frames import Frame, NotAFrameError
from .matalg import _Factored, map_constants
from .multipliers import _coefficient_maps, _SplitCore, multiplier
from .weights import UNIT_SPEC, Weight, keyed_weight, weight_values

# Relative residual below which the pipeline's identities (iii) and (v) hold.
IDENTITY_RTOL = 1e-10
# Seeded probe vectors on which identities (iii) and (v) are checked.
PROBES = 4
# Seeded random vectors on which coercivity_check checks the quadratic form.
COERCIVITY_DRAWS = 100
# Reporting flag only: a pairwise moderateness constant above this makes the
# weight behave non-polynomially at desk scale (nothing fails on it).
MODERATE_FLAG = 1e3


def coercivity_check(psi: Frame, mu, seed: int = 0, tol: float = 1e-12, M=None) -> dict:
    """The sesquilinear coercivity identity and its two-sided constants.

    [f,f] = <M_mu f, f> = sum_k mu_k |<f,psi_k>|^2 is checked on
    COERCIVITY_DRAWS random draws seeded by ``seed``; the ambient constants
    are the eigenvalue extremes of M_mu, and the constants relative to
    ||f||^2_{H^2_sqrt(mu)} are the p = 2 constants of :func:`map_constants`
    between X = diag(sqrt(mu)) C_Psi and diag(sqrt(mu)) C_Psid, whose Gram
    matrices are the two quadratic forms.
    ``extremes_agreement`` is the relative gap between the eigenvalue
    extremes of M_mu and the squared singular value extremes of X, read
    from the SVD that :func:`map_constants` made of X. ``M`` is the matrix
    of M_mu when the caller already holds it. B is shared by both pairs;
    the map A of M_mu and its SVD are released before X is built, so one
    map pair is held at a time.
    """
    muv = weight_values(mu, psi.n)
    if not np.all(muv > 0):
        raise ValueError("mu must be strictly positive")
    if M is None:
        M = multiplier(muv, psi)
    rng = np.random.default_rng(seed)
    worst = 0.0
    C = psi.analysis_matrix  # a conjugated copy: read once, not once per draw
    for _ in range(COERCIVITY_DRAWS):
        f = rng.standard_normal(psi.d) + 1j * rng.standard_normal(psi.d)
        quad = np.vdot(f, M @ f)  # <M f, f> with vdot conjugating its first slot
        coeff = float(np.sum(muv * np.abs(C @ f) ** 2))
        worst = max(worst, abs(quad - coeff) / max(1.0, abs(coeff)))
    del C
    ev = np.linalg.eigvalsh(M)
    # B = diag(sqrt(mu)) C_Psid is the second map of both calls, factored once.
    A, B = _coefficient_maps(psi, M, 1.0 / np.sqrt(muv), np.sqrt(muv))
    B = _Factored(B)
    # sigma_min of M_mu : H^2_sqrt(mu) -> H^2_{1/sqrt(mu)} certifies bijectivity.
    sigma_min = map_constants(A, B, 2)["lower"][0]
    del A  # and its SVD with it: X below is the one other map held beside B
    X = _Factored(np.sqrt(muv)[:, None] * psi.analysis_matrix)
    c = map_constants(X, B, 2)
    # M_mu = X^H X, so its extreme eigenvalues are also the squared extreme
    # singular values of X: a second, independent route to them.
    sv2 = X.singular_values**2
    agreement = max(abs(ev[0] - sv2[-1]), abs(ev[-1] - sv2[0])) / max(1.0, sv2[0])
    return {
        "identity_residual": worst,
        "identity_ok": worst < tol,
        "ambient_constants": (float(ev[0]), float(ev[-1])),
        "relative_constants": (c["lower"][0], c["upper"][1]),
        "sigma_min_weighted": sigma_min,
        "bijective": sigma_min > 0,
        "extremes_agreement": float(agreement),
    }


def _lifting_maps(psi: Frame, M_mu: np.ndarray, muv: np.ndarray, mv: np.ndarray):
    """Coefficient maps of M_mu : H^p_{m sqrt(mu)} -> H^p_{m/sqrt(mu)}."""
    return _coefficient_maps(psi, M_mu, mv / np.sqrt(muv), mv * np.sqrt(muv))


def lifting_constants(psi: Frame, mu, m=None, p=2, seed: int = 0, detail: bool = False):
    """Best constants of M_mu : H^p_{m sqrt(mu)} -> H^p_{m/sqrt(mu)}.

    Returns (lower, upper); with ``detail=True`` the full bracket record.
    The returned floats are the certified outer bounds, so they are exact
    for p = 2 when both coefficient maps pass the injectivity test of
    :class:`_Factored` (which a rescaled m or mu does not change) and safe
    (lower <= true lower, upper >= true upper) otherwise.
    """
    muv = weight_values(mu, psi.n)
    if not np.all(muv > 0):
        raise ValueError("mu must be strictly positive")
    mv = weight_values(m, psi.n)
    A, B = _lifting_maps(psi, multiplier(muv, psi), muv, mv)
    c = map_constants(A, B, p, seed)
    if detail:
        c["diagnostics"] = {"mu_min": float(muv.min())}
        return c
    return c["lower"][0], c["upper"][1]


def _p_key(p) -> str:
    return "inf" if p == np.inf else str(p)


def _probe_residuals(psi: Frame, core: _SplitCore, muv, M_mu, M_rec, seed: int) -> tuple:
    """Residuals of the pipeline's identities (iii) and (v) on PROBES seeded
    probe vectors V (Freivalds' check), every term applied through n x d
    factors in O(n d) per probe.

    (iii) B^mu = G^mu G G^mu + I - cross^mu, its left side applied by the
    certified core's own factors with their weight rescaled to mu, its right
    side through C, D and the dual synthesis matrix Dd. (v) B_rev = I +
    C M_mu M_{1/mu} D - C Dd against B^H from the core's factors. Each row
    of |lhs V - rhs V| is divided by the same row of the moduli of the
    right side's factors applied to |V|, the componentwise scale of their
    rounding (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3);
    each residual is the largest such ratio. Products that overflow (a
    steep mu) are evaluated without a warning, and a residual they leave
    NaN or inf reads inf, so it fails its check.
    """
    C, D, Dd = psi.analysis_matrix, psi.synthesis_matrix, psi.canonical_dual().synthesis_matrix
    Da, Dda = np.abs(D), np.abs(Dd)
    Ca = Da.T  # C = D^H and |conj(x)| = |x|
    draws = np.random.default_rng(seed).standard_normal((2, psi.n, PROBES))
    V = draws[0] + 1j * draws[1]
    absV = np.abs(V)
    mu_c = muv[:, None]

    def gram_mu(X, C, D):  # diag(mu) C D diag(1/mu) X; on moduli, its bound
        return mu_c * (C @ (D @ (X / mu_c)))

    with np.errstate(over="ignore", invalid="ignore"):
        rhs = gram_mu(C @ (D @ gram_mu(V, C, D)), C, D) + V - gram_mu(V, C, Dd)
        scale = absV + gram_mu(Ca @ (Da @ gram_mu(absV, Ca, Da)), Ca, Da) + gram_mu(absV, Ca, Dda)
        step3 = float(np.max(np.abs(core.apply(V, muv) - rhs) / scale))
        b_rev = V + C @ (M_mu @ (M_rec @ (D @ V))) - C @ (Dd @ V)
        scale = absV + Ca @ (Da @ gram_mu(Ca @ (Da @ absV), Ca, Da)) + Ca @ (Dda @ absV)
        step5 = float(np.max(np.abs(b_rev - core.apply_adjoint(V)) / scale))
    return tuple(r if np.isfinite(r) else np.inf for r in (step3, step5))


def lifting_theorem_pipeline(
    psi: Frame, mu, m=None, ps=(2,), s: float = 4.0, seed: int = 0, scan=None
) -> dict:
    """Run the invertibility-splitting proof as a computation.

    The splitting matrix is B = Mat(M_{1/mu} M_mu) + (I - G_{Psi,Psid}).
    Since Mat(O) = C O D and G_{Psi,Psid} = C S^{-1} D, it is the identity
    plus a term of rank d: B = I + C Y, Y = (M_{1/mu} M_mu - S^{-1}) D. Its
    verdict therefore comes from the d x d matrix I + Y C and its p = 2
    norms from Golub-Kahan-Lanczos through the Woodbury factors (see
    :class:`framelift.multipliers._SplitCore`); no n x n matrix is
    factorized.

    Steps: (i) decide invertibility of B on l^2_sqrt(mu) by Rump's a
    posteriori certificate on its d x d Woodbury core, taken in unweighted
    coordinates (a diagonal similarity does not change invertibility; see
    :func:`framelift.verified.woodbury_certificate`), reporting the certificate's
    bound r on ||I - B Xt||_inf, Xt = I - C W Y, as ``B_certificate_margin``
    (invertible when r < 1) and sigma_min / sigma_max of B_sqrt(mu) as a
    number: sigma_max and, for a certified core, sigma_min = 1 / ||B^{-1}||_2,
    each by Golub-Kahan-Lanczos (:func:`framelift.matalg.sigma_max`) on
    B_w and B_w^{-1} applied through their Woodbury factors: no QR, no SVD
    and no inverse but the certificate's d x d one. A core the certificate
    does not pass has no inverse norm; its sigma_min is the smallest value
    of a values-only SVD of B_w compressed to k x k, k = min(n, 2d). The
    verdict stays a float certificate of the n x n B, with every
    n-dimensional rounding counted; (ii) profile the
    decay of the five Gram matrices the argument rests on, with the
    moderateness of the five weights, in one pass of a
    :class:`framelift.matalg.PairScan`: over row slabs, or, when the
    caller has declared psi's index order a lattice on which G, the dual
    Gram and the cross-Gram are covariant (a Gabor system), from row 0 of
    each and one ratio table per weight; (iii) confirm
    the conjugation identity B^mu = G^mu G G^mu + I - G_{Psi,Psid}^mu on
    PROBES seeded probe vectors (Freivalds' check): the left side is the
    certified B, applied through the core's own factors with their weight
    rescaled to mu, the right side is applied through C, D and the dual
    synthesis matrix, and each row of the difference is divided by the same
    row of the moduli of the right side's factors applied to the probe's
    moduli (see :func:`_probe_residuals`); (iv) condition B on each
    requested l^p_{m sqrt(mu)}: the p = 2 norms of B and B^{-1} are those
    step (i) reads (each at least 1 where B fixes a vector), from the core
    step (i) already built and read when m = 1 (for another m, a core
    built the same way on m sqrt(mu), whose unweighted certificate is step
    (i)'s bit for bit); every other p is read by two calls of
    :func:`framelift.matalg.operator_norm`, on the factors (X_w, Y_w) of
    B_w and (X_w, -(W Y_w)) of the Woodbury inverse of the core's
    certificate (inner dimension d): each reads the column
    and row sums of its matrix's moduli once, the exact p = 1 and p = inf
    norms, which the upper ends of other p interpolate, and makes one set
    of ``matalg.MAP_SAMPLES`` draws seeded by 0 for the inner ends of all
    p outside {1, 2, inf}, each at least 1 when d < n; (v) check on the
    same probes that the reversed composition
    B_rev = Mat(M_mu M_{1/mu}) + (I - G_{Psi,Psid}) equals B^H, which
    holds because M_mu, M_{1/mu} and G_{Psi,Psid} are
    Hermitian: B_rev is applied through C, M_mu, M_{1/mu} and D, B^H
    through the core's factors, and rows are scaled as in (iii). B_rev then
    inherits the verdict of step (i), and the two verdicts agree exactly
    when the identity holds. No n x n B, B^{-1} or B_rev is assembled, and
    no product of two n x n matrices is formed. The report then carries
    lifting constants for every requested p; the multiplier, the
    coefficient maps and their factorizations are built once and shared
    across p.

    The steps run in the order (ii), (i), (iii), (iv), (v), so that no core
    is alive during the pair scan; they are independent, and ``verdicts``
    and ``residuals`` keep the order (i)-(v). Step (iv) reads the 2-norms
    from the core, then frees it once B_w and its inverse are held as
    their factors; a weight m other than 1 frees step (i)'s core before
    its own is built.

    ``scan`` is a :class:`framelift.matalg.PairScan` over psi's n indices
    that holds the caller's own pair constants: step (ii) adds its ten and
    runs them all in one pass, and the caller reads its own from
    ``scan.values``.

    Returns the report as a dict: its headline ``lower``, ``upper`` and
    ``condition`` (those of p = 2 when requested, else of the first p),
    ``per_p_results``, ``verdicts``, ``residuals``, ``decay_profiles``,
    ``moderateness`` and ``metadata``.
    """
    muv = weight_values(mu, psi.n)
    if not np.all(muv > 0):
        raise ValueError("pipeline precondition failed: mu > 0")
    mv = weight_values(m, psi.n)
    dual = psi.canonical_dual()
    idx = psi.index_set
    n = psi.n

    verdicts, residuals = {}, {}
    metadata = {
        "n": n,
        "d": psi.d,
        "s": s,
        "seed": seed,
        "notes": [
            "decay constants certify nothing beyond this index set; only their"
            " growth across a family carries content (inverse-closedness is a"
            " hypothesis, not a finite computation)",
            "p=0 coincides with p=inf at finite size and is not reported"
            " separately",
        ],
    }

    # Hypothesis bookkeeping and step (ii), run before any core exists: the
    # moderateness of the five weights (flagged only) and the decay profiles
    # of the five Gram matrices, read with the caller's pair constants in
    # one pass that forms each slab's distances, (1 + dist)^s table and
    # rows of G, Gdual and the cross-Gram once (on a declared lattice, row 0
    # of each); no n x n matrix is held.
    scan = matalg.PairScan(n) if scan is None else scan
    five = {
        "m": mv,
        "mu": muv,
        "sqrt(mu)": np.sqrt(muv),
        "m*sqrt(mu)": mv * np.sqrt(muv),
        "m/sqrt(mu)": mv / np.sqrt(muv),
    }
    # Weight() rejects a product that overflowed or underflowed.
    moderate = {name: scan.moderateness(Weight(vals, idx).values, s, idx) for name, vals in five.items()}
    G, Gdual, cross = scan.gram(psi), scan.gram(dual), scan.gram(psi, dual)
    profiles = {
        name: scan.decay(mat, s, idx, w)
        for name, mat, w in (
            ("G", G, None),
            ("G^mu", G, muv),
            ("G^(1/mu)", G, 1.0 / muv),
            ("Gdual^mu", Gdual, muv),
            ("cross^mu", cross, muv),
        )
    }
    values = scan.run()
    moderateness = {}
    for name, j in moderate.items():
        cmod = values[j]
        moderateness[name] = {
            "constant": cmod,
            "max": float(five[name].max()),
            "flagged": bool(cmod > MODERATE_FLAG),
        }
    decay_profiles = {name: values[j] for name, j in profiles.items()}

    # Step (i): the splitting matrix and its invertibility on l^2_sqrt(mu).
    M_mu = multiplier(muv, psi)
    M_rec = multiplier(1.0 / muv, psi)
    O = M_rec @ M_mu
    sqmu = np.sqrt(muv)
    core = _SplitCore(O, psi, w=sqmu)
    sv_min, sv_max = core.sigma
    invertible = core.invertible()
    verdicts["B_invertible_l2_sqrt_mu"] = invertible
    residuals["B_sigma_min_over_max"] = sv_min / sv_max
    residuals["B_certificate_margin"] = core.certificate_margin

    # Steps (iii) and (v) on seeded probes, through the factors.
    step3, step5 = _probe_residuals(psi, core, muv, M_mu, M_rec, seed)
    residuals["step_iii_identity"] = step3
    verdicts["step_iii_ok"] = bool(step3 < IDENTITY_RTOL)

    # Step (iv): condition of B on each requested l^p_{m sqrt(mu)}.
    w_msqmu = mv * sqmu
    if not np.array_equal(w_msqmu, sqmu):
        # This weight's own core; step (i)'s is done with and freed first.
        del core
        core = _SplitCore(O, psi, w=w_msqmu)
    n2, n2_inv = core.sigma[1], core.inverse_norm
    # B_w = I + X_w Y_w and its Woodbury inverse I + X_w (-(W Y_w)), read
    # from the factors the core holds; its W goes now.
    X, Y, V_inv = core.X, core.Y, core.inverse_factor
    del core, O, M_rec
    fwd = matalg.operator_norm(X, Y, ps, n2)
    rev = matalg.operator_norm(X, V_inv, ps, n2_inv) if invertible else None
    del X, Y, V_inv
    for p in ps:
        entry = {"B_norm": fwd[p]}
        if invertible:
            entry["B_inv_norm"] = rev[p]
            (lo, hi), (rlo, rhi) = (v if isinstance(v, tuple) else (v, v) for v in (fwd[p], rev[p]))
            entry["condition_bracket"] = (lo * rlo, hi * rhi)
        residuals.setdefault("step_iv", {})[_p_key(p)] = entry

    # Step (v): the reversed composition is B^H, so it is invertible exactly
    # when B is.
    adjoint_ok = bool(step5 < IDENTITY_RTOL)
    residuals["step_v_adjoint_identity"] = step5
    verdicts["B_reverse_invertible"] = invertible and adjoint_ok
    verdicts["verdicts_agree"] = adjoint_ok

    # Lifting constants per p, from one multiplier, one pair of coefficient
    # maps and their factorizations.
    A, B = (_Factored(x) for x in _lifting_maps(psi, M_mu, muv, mv))
    per_p = {}
    for p in ps:
        c = map_constants(A, B, p, seed=seed)
        lo, hi = c["lower"][0], c["upper"][1]
        per_p[_p_key(p)] = {
            "lower": lo,
            "upper": hi,
            "condition": hi / lo if lo > 0 else np.inf,
            "brackets": {"lower": list(c["lower"]), "upper": list(c["upper"])},
            "weight": "m*sqrt(mu)",
        }
    head = per_p.get("2") or next(iter(per_p.values()))
    verdicts["all_steps"] = bool(
        verdicts["step_iii_ok"] and invertible and adjoint_ok and head["lower"] > 0
    )
    return {
        "lower": head["lower"],
        "upper": head["upper"],
        "condition": head["condition"],
        "per_p_results": per_p,
        "verdicts": verdicts,
        "residuals": residuals,
        "decay_profiles": decay_profiles,
        "moderateness": moderateness,
        "metadata": metadata,
    }


def sweep(family, mu, m, ps=(2,), s: float = 4.0, seed: int = 0) -> dict:
    """Run :func:`lifting_theorem_pipeline` on every size of ``family``.

    ``mu`` and ``m`` are weight specs (:meth:`Weight.from_spec`), read on
    each size's index set. A family has:

    - ``key``, the entry field that names a size, and ``sizes``;
    - ``mu_default``, the symbol spec the CLI lifts with when a config has
      no ``mu``;
    - ``case(size)``, which builds the entry header and the frame. A header
      that already has a ``status`` was ruled out by the family, and no
      pipeline runs on it;
    - ``extras(entry, frame, mu, s, scan)``, given the read symbol: it adds
      the size's own pair constants to ``scan``, the
      :class:`~framelift.matalg.PairScan` that the pipeline's step (ii)
      runs, so every pair constant of a size is read in one pass, and may
      declare the frame's index order a lattice on that scan
      (:meth:`~framelift.matalg.PairScan.on_lattice`). It returns
      ``finish()``, run after a successful pipeline: it may add to
      ``entry["report"]`` and returns this size's value of each per-size
      table, by table name;
    - ``fields(s, ps, tables)``, its top-level report fields.

    Every table is keyed by ``str(entry[key])``, so a size listed twice
    raises ValueError before anything runs. A frame the pipeline rejects
    becomes a ``"not_a_frame"`` entry quoting its frame bounds, and a size
    on which LAPACK fails (``np.linalg.LinAlgError``) a
    ``"numerical_error"`` entry with the message as its ``note``; the other
    sizes still run.
    ``condition_ratios`` are the ratios of successive headline conditions
    over the entries that ran.
    """
    if len(set(family.sizes)) < len(family.sizes):
        raise ValueError(f"'{family.key}' lists a size twice: {list(family.sizes)!r}")
    entries, tables = [], defaultdict(dict)
    for size in family.sizes:
        entry, frame = family.case(size)
        entries.append(entry)
        # Read on every size, so a bad spec fails even where no pipeline runs.
        mu_w, m_w = (keyed_weight(key, spec, frame.index_set) for key, spec in (("mu", mu), ("m", m)))
        if "status" not in entry:
            scan = matalg.PairScan(frame.n)
            try:
                finish = family.extras(entry, frame, mu_w, s, scan)
                rep = lifting_theorem_pipeline(frame, mu_w, m=m_w, ps=ps, s=s, seed=seed, scan=scan)
            except NotAFrameError as exc:
                entry.update(status="not_a_frame", lower=exc.lower, upper=exc.upper, condition=float("inf"))
            except np.linalg.LinAlgError as exc:
                entry.update(status="numerical_error", note=str(exc), condition=float("inf"))
            else:
                entry.update(status="ok", report=rep, condition=rep["condition"])
                for name, value in finish().items():
                    tables[name][str(entry[family.key])] = value
            del scan
        # Release this size's frame, its dual and the weights' index set
        # before the next size is built.
        del frame, mu_w, m_w
    conds = [e["condition"] for e in entries if e["status"] == "ok"]
    return {
        **family.fields(s=s, ps=["inf" if p == np.inf else p for p in ps], tables=tables),
        "entries": entries,
        "condition_ratios": [b / a for a, b in zip(conds, conds[1:])],
    }


class FrameFamily:
    """One given frame as a one-size family; its entry is keyed by n."""

    key = "size"
    mu_default = UNIT_SPEC

    def __init__(self, frame: Frame):
        self.frame = frame
        self.sizes = (frame.n,)

    def case(self, n: int):
        return {"size": n}, self.frame

    def extras(self, entry: dict, frame: Frame, mu: Weight, s: float, scan: matalg.PairScan):
        return lambda: {}

    def fields(self, s: float, ps: list, tables: dict) -> dict:
        return {}
