"""In-memory span tracing of framelift's layers, from outside the package.

A :class:`Tracer` replaces public entry points of framelift's modules (and
the numpy/scipy LAPACK entry points framelift calls) with wrappers that
record one span per call: name, start, end, the enclosing span, and a few
dimensions. A name is replaced in every framelift module that imported it,
so ``from .multipliers import multiplier`` in coorbit is traced as well.
Spans stay in memory until the run ends; :func:`layer_metrics` turns them
into the per-layer metrics.
"""

import math
import sys
import time
import weakref
from statistics import median

# (module, attribute, span name). Attributes may be "Class.method"; a missing
# target is skipped and reported, so its metrics read 0.
TARGETS = (
    ("framelift.coorbit", "lifting_theorem_pipeline", "coorbit.pipeline"),
    ("framelift.coorbit", "map_constants", "coorbit.map_constants"),
    ("framelift.coorbit", "lifting_constants", "coorbit.lifting_constants"),
    ("framelift.coorbit", "coercivity_check", "coorbit.coercivity"),
    ("framelift.multipliers", "multiplier", "multipliers.multiplier"),
    ("framelift.multipliers", "galerkin", "multipliers.galerkin"),
    ("framelift.multipliers", "invertibility_verdicts", "multipliers.verdicts"),
    ("framelift.multipliers", "spectral_invariance_suite", "multipliers.spectral_suite"),
    ("framelift.matalg", "pseudo_inverse", "matalg.pseudo_inverse"),
    ("framelift.matalg", "operator_norm", "matalg.operator_norm"),
    ("framelift.matalg", "conjugate", "matalg.conjugate"),
    ("framelift.matalg", "decay_constant", "matalg.decay_constant"),
    ("framelift.frames", "gram_identities_check", "frames.gram_identities"),
    ("framelift.frames", "Frame.bounds", "frames.bounds"),
    ("framelift.frames", "Frame.canonical_dual", "frames.dual"),
    ("framelift.kernels", "pairwise_dist", "kernels.pairwise_dist"),
    ("framelift.kernels", "decay_max", "kernels.decay_max"),
    ("framelift.kernels", "moderateness_max", "kernels.moderateness_max"),
    ("framelift.weights", "moderateness_constant", "weights.moderateness"),
    ("framelift.weights", "IndexSet.distance_matrix", "weights.distance_matrix"),
    ("framelift.gabor", "gabor_system", "gabor.system"),
    ("framelift.gabor", "stft_decay_constant", "gabor.window_decay"),
    ("framelift.gabor", "moderate_interplay_check", "gabor.interplay"),
    ("framelift.fock", "bulk_frame", "fock.frame"),
    ("framelift.fock", "embed_truncated", "fock.frame"),
    ("framelift.fock", "beurling_density_table", "fock.density"),
    ("framelift.fock", "fock_gram_exact", "fock.gram_exact"),
    ("framelift.cli", "write_atomic", "cli.write"),
)

# LAPACK-backed entry points: (module, attribute, kind). Kinds feed the flop
# model below; "apply" kinds reuse an existing factorization. The list goes
# beyond what framelift calls today (QR, LU, triangular solves), so a change
# that switches factorization keeps being counted by an unchanged benchmark.
LINALG = (
    ("numpy.linalg", "svd", "svd"),
    ("numpy.linalg", "eigh", "eigh"),
    ("numpy.linalg", "eigvalsh", "eigh"),
    ("numpy.linalg", "inv", "inv"),
    ("numpy.linalg", "pinv", "pinv"),
    ("numpy.linalg", "solve", "solve"),
    ("numpy.linalg", "lstsq", "lstsq"),
    ("numpy.linalg", "qr", "qr"),
    ("numpy.linalg", "cholesky", "cholesky"),
    ("scipy.linalg", "svd", "svd"),
    ("scipy.linalg", "svdvals", "svd"),
    ("scipy.linalg", "eigh", "eigh"),
    ("scipy.linalg", "eigvalsh", "eigh"),
    ("scipy.linalg", "inv", "inv"),
    ("scipy.linalg", "pinv", "pinv"),
    ("scipy.linalg", "solve", "solve"),
    ("scipy.linalg", "lstsq", "lstsq"),
    ("scipy.linalg", "qr", "qr"),
    ("scipy.linalg", "cholesky", "cholesky"),
    ("scipy.linalg", "cho_factor", "cholesky"),
    ("scipy.linalg", "lu", "lu"),
    ("scipy.linalg", "lu_factor", "lu"),
    ("scipy.linalg", "lu_solve", "apply"),
    ("scipy.linalg", "cho_solve", "apply"),
    ("scipy.linalg", "solve_triangular", "apply"),
)

PER_P = {1: "p1", 2: "p2", 3: "p3", math.inf: "pinf"}


def _matrix_dims(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        if isinstance(x, tuple) and x:  # (lu, piv) or (c, lower) factor tuples
            return _matrix_dims(x[0])
        return None
    if len(shape) < 2:
        return None
    return int(shape[-2]), int(shape[-1]), getattr(x, "dtype", None)


def linalg_flops(kind: str, args: tuple, kwargs: dict) -> float:
    """Real flop count of one LAPACK call, computed from operand shapes.

    Leading-order counts from Golub & Van Loan, Matrix Computations, 4th ed.;
    complex operands count 4x. This is arithmetic implied by the shapes, not
    a hardware counter.
    """
    dims = _matrix_dims(args[0]) if args else None
    if dims is None:
        return 0.0
    m, n, dtype = dims
    cplx = 4.0 if dtype is not None and dtype.kind == "c" else 1.0
    big, small = max(m, n), min(m, n)
    want_uv = kwargs.get("compute_uv", True)
    if kind == "svd":
        if want_uv:
            f = 4 * big**2 * small + 8 * big * small**2 + 9 * small**3
        else:
            f = 4 * big * small**2 - 4 * small**3 / 3
    elif kind == "eigh":
        f = 4 * n**3 / 3
        if len(args) > 1 and getattr(args[1], "shape", None) is not None:
            f += n**3 / 3 + 2 * n**3  # Cholesky of b plus the two-sided reduction
        if kwargs.get("eigvals_only") is False:
            f += 8 * n**3
    elif kind == "inv":
        f = 2 * n**3
    elif kind == "pinv":
        f = 4 * big**2 * small + 8 * big * small**2 + 9 * small**3 + 2 * m * n * small
    elif kind in ("solve", "lu"):
        nrhs = 0
        if kind == "solve" and len(args) > 1:
            b = getattr(args[1], "shape", ())
            nrhs = b[-1] if len(b) > 1 else 1
        f = 2 * n**3 / 3 + 2 * n * n * nrhs
    elif kind == "lstsq":
        f = 2 * big * small**2
    elif kind == "qr":
        f = 4 * big * small**2 - 4 * small**3 / 3
    elif kind == "cholesky":
        f = n**3 / 3
    else:  # apply: triangular solves against an existing factorization
        b = getattr(args[1], "shape", ()) if len(args) > 1 else ()
        f = 2 * n * n * (b[-1] if len(b) > 1 else 1)
    return cplx * float(f)


class _Seen:
    """Counts distinct live objects, so a cached return value is not a build."""

    def __init__(self):
        self._refs = {}

    def is_new(self, obj) -> bool:
        key = id(obj)
        ref = self._refs.get(key)
        if ref is not None and ref() is obj:
            return False
        try:
            self._refs[key] = weakref.ref(obj)
        except TypeError:
            return True
        return True


class Tracer:
    """Records spans for wrapped calls while installed."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._linalg_depth = 0
        self._patches = []
        self._seen = _Seen()
        self._clock = time.perf_counter

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs, dims):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = {"id": sid, "parent": parent, "name": name, "start": 0.0, "end": 0.0}
        if dims:
            span.update(dims)
        self.spans.append(span)
        self._stack.append(sid)
        span["start"] = self._clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = self._clock()
            self._stack.pop()
        return result, span

    def root(self, name, fn):
        """Wrap a top-level entry point such as ``framelift.cli.main``."""

        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, None)[0]

        return wrapper

    def _enclosing(self, name):
        for sid in reversed(self._stack):
            if self.spans[sid]["name"] == name:
                return self.spans[sid]
        return None

    def _layer_wrapper(self, name, fn):
        if name == "coorbit.map_constants":

            def wrapper(*args, **kwargs):
                p = kwargs.get("p", args[2] if len(args) > 2 else None)
                label = PER_P.get(p, f"p{p}")
                return self._call(f"{name}.{label}", fn, args, kwargs, None)[0]

        elif name == "coorbit.pipeline":

            def wrapper(*args, **kwargs):
                psi = kwargs.get("psi", args[0] if args else None)
                return self._call(name, fn, args, kwargs, {"n": getattr(psi, "n", None)})[0]

        elif name in ("frames.dual", "weights.distance_matrix"):

            def wrapper(*args, **kwargs):
                result, span = self._call(name, fn, args, kwargs, None)
                span["build"] = self._seen.is_new(result)
                return result

        elif name == "cli.write":

            def wrapper(*args, **kwargs):
                text = kwargs.get("text", args[1] if len(args) > 1 else "")
                return self._call(name, fn, args, kwargs, {"bytes": len(text.encode())})[0]

        else:

            def wrapper(*args, **kwargs):
                return self._call(name, fn, args, kwargs, None)[0]

        return wrapper

    def _linalg_wrapper(self, name, kind, fn):
        def wrapper(*args, **kwargs):
            if self._linalg_depth:
                return fn(*args, **kwargs)
            dims = {"kind": kind, "flops": linalg_flops(kind, args, kwargs), "nxn": False}
            shape = _matrix_dims(args[0]) if args else None
            pipe = self._enclosing("coorbit.pipeline")
            if shape is not None and pipe is not None:
                dims["nxn"] = shape[0] == shape[1] == pipe.get("n")
            self._linalg_depth += 1
            try:
                return self._call(name, fn, args, kwargs, dims)[0]
            finally:
                self._linalg_depth -= 1

        return wrapper

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, module, attr, original, wrapper):
        """Set ``wrapper`` on ``module`` and on every framelift module holding ``original``."""
        owners = [module] + [
            mod
            for modname, mod in list(sys.modules.items())
            if modname.startswith("framelift") and mod is not None and mod is not module
        ]
        for mod in owners:
            for key, value in list(vars(mod).items()):
                if value is original and (mod is not module or key == attr):
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self):
        for modname, attr, name in TARGETS:
            module = sys.modules.get(modname)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(member) if owner is not None else None
            if raw is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            if owner_name:  # a method or property on a class
                if isinstance(raw, property):
                    wrapped = property(self._layer_wrapper(name, raw.fget))
                else:
                    wrapped = self._layer_wrapper(name, raw)
                self._patches.append((owner, member, raw))
                setattr(owner, member, wrapped)
            else:
                self._replace_everywhere(module, attr, raw, self._layer_wrapper(name, raw))
        for modname, attr, kind in LINALG:
            module = sys.modules.get(modname)
            raw = getattr(module, attr, None) if module is not None else None
            if raw is None:
                continue
            label = "linalg." + (kind if kind in ("svd", "eigh") else attr)
            self._replace_everywhere(module, attr, raw, self._linalg_wrapper(label, kind, raw))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans.

    Children are clipped to their parent's interval and merged, so
    overlapping or out-of-range children are not subtracted twice.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = max(0.0, (hi - lo) - covered)
    return out


# metric -> (span name or prefix, what): "self" sums self time, "calls"
# counts spans, "builds" counts spans that returned a new object.
LAYER_METRICS = {
    "linalg.svd_s": ("linalg.svd", "self"),
    "linalg.eigh_s": ("linalg.eigh", "self"),
    "linalg.inv_s": ("linalg.inv", "self"),
    "coorbit.pipeline_self_s": ("coorbit.pipeline", "self"),
    "coorbit.pipeline_calls": ("coorbit.pipeline", "calls"),
    "multipliers.multiplier_calls": ("multipliers.multiplier", "calls"),
    "multipliers.galerkin_calls": ("multipliers.galerkin", "calls"),
    "multipliers.multiplier_s": ("multipliers.multiplier", "self"),
    "multipliers.galerkin_s": ("multipliers.galerkin", "self"),
    "coorbit.map_constants_s.p1": ("coorbit.map_constants.p1", "self"),
    "coorbit.map_constants_s.p2": ("coorbit.map_constants.p2", "self"),
    "coorbit.map_constants_s.p3": ("coorbit.map_constants.p3", "self"),
    "coorbit.map_constants_s.pinf": ("coorbit.map_constants.pinf", "self"),
    "coorbit.lifting_constants_s": ("coorbit.lifting_constants", "self"),
    "matalg.pseudo_inverse_s": ("matalg.pseudo_inverse", "self"),
    "matalg.pseudo_inverse_calls": ("matalg.pseudo_inverse", "calls"),
    "matalg.operator_norm_s": ("matalg.operator_norm", "self"),
    "frames.gram_identities_s": ("frames.gram_identities", "self"),
    "multipliers.verdicts_s": ("multipliers.verdicts", "self"),
    "multipliers.spectral_suite_s": ("multipliers.spectral_suite", "self"),
    "coorbit.coercivity_s": ("coorbit.coercivity", "self"),
    "frames.bounds_s": ("frames.bounds", "self"),
    "frames.dual_s": ("frames.dual", "self"),
    "frames.dual_calls": ("frames.dual", "calls"),
    "frames.dual_builds": ("frames.dual", "builds"),
    "matalg.conjugate_s": ("matalg.conjugate", "self"),
    "matalg.decay_constant_s": ("matalg.decay_constant", "self"),
    "kernels.pairwise_dist_s": ("kernels.pairwise_dist", "self"),
    "kernels.decay_max_s": ("kernels.decay_max", "self"),
    "kernels.moderateness_max_s": ("kernels.moderateness_max", "self"),
    "weights.moderateness_s": ("weights.moderateness", "self"),
    "weights.distance_matrix_builds": ("weights.distance_matrix", "builds"),
    "gabor.system_s": ("gabor.system", "self"),
    "gabor.window_decay_s": ("gabor.window_decay", "self"),
    "gabor.interplay_s": ("gabor.interplay", "self"),
    "fock.frame_s": ("fock.frame", "self"),
    "fock.density_s": ("fock.density", "self"),
    "fock.gram_exact_s": ("fock.gram_exact", "self"),
    "cli.write_s": ("cli.write", "self"),
}


def layer_metrics(spans, root: str = "cli.main") -> dict:
    """Per-layer metrics of one traced pass over a workload."""
    selfs = self_times(spans)
    out = {}
    for metric, (name, what) in LAYER_METRICS.items():
        hit = [s for s in spans if s["name"] == name]
        if what == "self":
            out[metric] = sum(selfs[s["id"]] for s in hit)
        elif what == "calls":
            out[metric] = len(hit)
        else:
            out[metric] = sum(1 for s in hit if s.get("build"))
    lin = [s for s in spans if s["name"].startswith("linalg.")]
    pipelines = out["coorbit.pipeline_calls"]
    out["linalg.svd_calls"] = sum(1 for s in lin if s["name"] == "linalg.svd")
    out["linalg.factorizations"] = sum(1 for s in lin if s["kind"] != "apply")
    nxn = sum(1 for s in lin if s["kind"] != "apply" and s["nxn"])
    out["linalg.nxn_factorizations_per_pipeline"] = nxn / pipelines if pipelines else 0.0
    out["linalg.gflop_computed"] = sum(s["flops"] for s in lin) / 1e9
    out["coorbit.map_constants_calls"] = sum(1 for s in spans if s["name"].startswith("coorbit.map_constants."))
    out["cli.write_bytes"] = sum(s["bytes"] for s in spans if s["name"] == "cli.write")
    roots = [s for s in spans if s["name"] == root]
    wall = sum(s["end"] - s["start"] for s in roots)
    out["trace.unattributed_share"] = sum(selfs[s["id"]] for s in roots) / wall if wall > 0 else 0.0
    return out


def unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    return {"linalg.gflop_computed": "GFLOP", "cli.write_bytes": "bytes", "trace.unattributed_share": "ratio"}.get(name, "count")


def median_metrics(passes: list) -> dict:
    """Median of each metric over traced passes."""
    return {k: median(p[k] for p in passes) for k in passes[0]}
