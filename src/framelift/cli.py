"""Command-line driver: verify identities, run lifting experiments, export data.

Design constraints the code must honor:
- determinism: a fixed config and seed produce byte-identical reports at
  a fixed BLAS thread count (threaded products may round in another
  order), so JSON is dumped with sorted keys and no timestamps;
- atomicity: every file is written through :func:`write_atomic`, to a
  temporary file in the target directory that is renamed into place;
- exit codes: 0 success, 1 numerical failure (identity above tolerance, or
  every experiment size failed), 2 config or I/O problem.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import fock as fock_mod
from . import frames, gabor, multipliers
from .coorbit import FrameFamily, _p_key, coercivity_check, sweep
from .weights import CHECK_SPEC, UNIT_SPEC, SpecError, keyed_weight

SCHEMA_VERSION = 3
DEFAULT_TOL = 1e-10
CSV_COLUMNS = ("size", "p", "weight", "lower", "upper", "condition", "verdict")


class ConfigError(ValueError):
    pass


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, line ends as
    given, and rename it into place; a failed write or rename removes the
    temporary file and re-raises."""
    tmp = path.parent / (path.name + ".tmp")
    fh = open(tmp, "w", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _dump_json(path: Path, payload: dict) -> None:
    write_atomic(path, json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_table(out_dir: Path, rows: list) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row.get(c)) for c in CSV_COLUMNS))
    write_atomic(out_dir / "lifting_table.csv", "\n".join(lines) + "\n")
    dat = ["# " + " ".join(CSV_COLUMNS)]
    for row in rows:
        dat.append(" ".join(_fmt_cell(row.get(c)) or "nan" for c in CSV_COLUMNS))
    write_atomic(out_dir / "lifting_table.dat", "\n".join(dat) + "\n")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if "kind" not in cfg:
        raise ConfigError("config needs a 'kind' field")
    return cfg


def _require(cfg: dict, key: str, types, what: str):
    if key not in cfg:
        raise ConfigError(f"{what} config needs '{key}'")
    val = cfg[key]
    if not isinstance(val, types):
        raise ConfigError(f"'{key}' has the wrong type")
    return val


# The integer fields of each frame type; _parse_positive_int reads them.
_FRAME_INTEGERS = {"onb": ("d",), "random": ("n", "d"), "gabor": ("N", "a", "b")}


def build_frame(spec, seed: int) -> frames.Frame:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("frame spec must be an object with a 'type'")
    kind = spec["type"]
    try:
        ints = {key: _parse_positive_int(spec[key], key) for key in _FRAME_INTEGERS.get(kind, ())}
        if kind == "onb":
            return frames.onb(ints["d"])
        if kind == "random":
            rng = np.random.default_rng(_parse_seed(spec.get("seed", seed)))
            return frames.random_frame(rng, ints["n"], ints["d"], kind=spec.get("variant", "generic"))
        if kind == "gabor":
            return gabor.gabor_system(ints["N"], ints["a"], ints["b"])
        if kind == "fock":
            lattice = fock_mod.FockLattice(
                delta=_parse_nonnegative(spec["delta"], "delta"),
                R=_parse_nonnegative(spec["R"], "R"),
                jitter=_parse_nonnegative(spec.get("jitter", 0.0), "jitter"),
                seed=_parse_seed(spec.get("seed", 1)),
            )
            return fock_mod.embed_truncated(lattice)
        if kind == "json":
            return frames.Frame.load_json(spec["path"])
    except (KeyError, ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"bad frame spec: {exc}") from exc
    raise ConfigError(f"unknown frame type '{kind}'")


def _parse_ps(cfg) -> list:
    ps = cfg.get("ps", [2])
    if not isinstance(ps, list) or not ps:
        raise ConfigError("'ps' must be a nonempty list")
    out = []
    for p in ps:
        if p in ("inf", "Infinity") or (isinstance(p, float) and p == np.inf):
            out.append(np.inf)
        elif isinstance(p, (int, float)) and not isinstance(p, bool) and p >= 1:
            out.append(float(p) if p != int(p) else int(p))
        else:
            raise ConfigError(f"unsupported p value: {p!r}")
    if len(set(out)) < len(out):
        raise ConfigError(f"'ps' lists a p value twice: {ps!r}")
    return out


def _parse_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    return seed


def _parse_positive_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"'{key}' must be a positive integer, got {value!r}")
    return value


def _parse_nonnegative(value, key: str) -> float:
    """A finite nonnegative number from the config or the command line."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < np.inf:
        raise ConfigError(f"'{key}' must be a finite nonnegative number, got {value!r}")
    return float(value)


def _parse_file_name(name) -> str:
    """A bare file name for export: a nonempty string that names no
    directory, so every file export writes stays inside ``--out``."""
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"'name' must be a bare file name, got {name!r}")
    return name


def cmd_verify(cfg: dict, out_dir: Path, seed: int, tol: float) -> int:
    frame = build_frame(_require(cfg, "frame", dict, "verify"), seed)
    if not frame.is_frame:
        raise ConfigError(f"bad frame spec: {frames.NotAFrameError(*frame.bounds)}")
    mu = keyed_weight("mu", cfg.get("mu", UNIT_SPEC), frame.index_set)
    wspecs = cfg.get("weights", [CHECK_SPEC])
    if not isinstance(wspecs, list):
        raise ConfigError("'weights' must be a list")
    weights = [keyed_weight(f"weights[{i}]", wspec, frame.index_set) for i, wspec in enumerate(wspecs)]
    ps = _parse_ps(cfg)
    s = _parse_nonnegative(cfg.get("s", 4.0), "s")

    identities = frames.gram_identities_check(frame, rtol=tol)
    M = multipliers.multiplier(mu, frame)
    coercivity = coercivity_check(frame, mu, seed=seed, tol=max(tol, 1e-12), M=M)
    suite = multipliers.spectral_invariance_suite(M, frame, weights, ps, s, seed)

    residuals = {k: v for k, v in identities.items() if isinstance(v, float)}
    residuals["coercivity_identity"] = coercivity["identity_residual"]
    # A residual, not a coercivity constant: filed here, not in that block.
    residuals["coercivity_extremes_agreement"] = coercivity.pop("extremes_agreement")
    b_verdicts = multipliers.invertibility_verdicts(M, frame)
    residuals["invertibility_verdict_mismatch"] = float(
        any(v != b_verdicts["operator"] for k, v in b_verdicts.items() if k != "operator")
    )
    ok = bool(all(v <= tol for v in residuals.values()))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "seed": seed,
        "tolerance": tol,
        "config": cfg,
        "frame": {"n": frame.n, "d": frame.d, "bounds": list(map(float, frame.bounds))},
        "residuals": residuals,
        "coercivity": coercivity,
        "gram_identities": identities,
        "spectral_suite": suite,
        "ok": ok,
    }
    _dump_json(out_dir / "identities.json", payload)
    return 0 if ok else 1


def _entry_rows(entry: dict, ps: list, size_key: str) -> list:
    """The lifting-table rows of one size, one per p. A size that did not
    run has no constants, condition inf and verdict fail."""
    ran = entry.get("status") == "ok"
    blank = {"lower": None, "upper": None, "condition": float("inf")}
    per_p = entry["report"]["per_p_results"] if ran else {_p_key(p): blank for p in ps}
    verdict = "ok" if ran and entry["report"]["verdicts"].get("all_steps") else "fail"
    return [
        {
            "size": entry[size_key],
            "p": key,
            "weight": res.get("weight", "m*sqrt(mu)"),
            **{c: None if res[c] is None else float(res[c]) for c in ("lower", "upper", "condition")},
            "verdict": verdict,
        }
        for key, res in per_p.items()
    ]


def _sizes(cfg: dict, key: str, kind: str) -> list:
    sizes = _require(cfg, key, list, kind)
    if not sizes:
        raise ConfigError("experiment needs at least one size")
    return sizes


_LATTICE_KEYS = ("redundancy", "a_ratio", "b_ratio")


def _family(cfg: dict, seed: int):
    """The lift family a config names; a custom frame is a one-size family."""
    kind = cfg["kind"]
    if kind == "gabor":
        lattice = {key: _parse_positive_int(cfg[key], key) for key in _LATTICE_KEYS if key in cfg}
        t_check = _parse_nonnegative(cfg.get("t_check", 2.0), "t_check")
        return gabor.GaborFamily(_sizes(cfg, "Ns", kind), t_check=t_check, **lattice)
    if kind == "fock":
        delta = _parse_nonnegative(_require(cfg, "delta", (int, float), kind), "delta")
        return fock_mod.FockFamily(
            delta,
            _sizes(cfg, "R_list", kind),
            margin=_parse_nonnegative(cfg.get("margin", 0.5), "margin"),
            jitter=_parse_nonnegative(cfg.get("jitter", 0.0), "jitter"),
            seed=seed,
        )
    if kind == "custom-frame":
        return FrameFamily(build_frame(_require(cfg, "frame", dict, kind), seed))
    raise ConfigError(f"unknown lift kind '{kind}'")


def cmd_lift(cfg: dict, out_dir: Path, seed: int) -> int:
    ps = _parse_ps(cfg)
    s = _parse_nonnegative(cfg.get("s", 4.0), "s")
    try:
        family = _family(cfg, seed)
        mu, m = cfg.get("mu", family.mu_default), cfg.get("m", UNIT_SPEC)
        report = sweep(family, mu, m, ps=ps, s=s, seed=seed)
    except (ConfigError, SpecError):
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"experiment parameters invalid: {exc}") from exc

    report["schema_version"] = SCHEMA_VERSION
    report["seed"] = seed
    report["config"] = cfg
    rows = []
    for entry in report["entries"]:
        rows.extend(_entry_rows(entry, ps, family.key))
        _dump_json(
            out_dir / f"lift_{family.key}{entry[family.key]}.json",
            {"schema_version": SCHEMA_VERSION, "seed": seed, "entry": entry},
        )
    _dump_json(out_dir / "lift_report.json", report)
    _write_table(out_dir, rows)
    return 0 if any(e["status"] == "ok" for e in report["entries"]) else 1


def cmd_export(cfg: dict, out_dir: Path, seed: int) -> int:
    what = _require(cfg, "what", str, "export")
    frame = build_frame(_require(cfg, "frame", dict, "export"), seed)
    fmt = cfg.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError("format must be 'json' or 'csv'")
    name = _parse_file_name(cfg.get("name", what))
    if what == "frame":
        if fmt != "json":
            raise ConfigError("frames export as JSON only")
        _dump_json(out_dir / f"{name}.json", {"schema_version": SCHEMA_VERSION, **frame.to_dict()})
        return 0
    if what == "gram":
        target = frame.gram_matrix
    elif what == "multiplier":
        mu = keyed_weight("mu", cfg.get("mu", UNIT_SPEC), frame.index_set)
        target = multipliers.multiplier(mu, frame)
    else:
        raise ConfigError(f"unknown export target '{what}'")
    target = np.asarray(target, dtype=complex)
    if fmt == "json":
        payload = {"shape": target.shape, "real": target.real.ravel(), "imag": target.imag.ravel()}
        _dump_json(out_dir / f"{name}.json", {"schema_version": SCHEMA_VERSION, **payload})
        return 0
    for suffix, part in (("real", target.real), ("imag", target.imag)):
        # csv.writer's excel dialect: no field here needs quoting, rows end in \r\n
        text = "".join(",".join(repr(float(x)) for x in row) + "\r\n" for row in part)
        write_atomic(out_dir / f"{name}_{suffix}.csv", text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="framelift",
        description="verify frame-calculus identities and run lifting experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("verify", "check algebraic identities on a configured frame"),
        ("lift", "run a lifting experiment and emit reports plus a CSV table"),
        ("export", "serialize a frame, Gram matrix, or multiplier"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True, help="path to a JSON config")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "verify":
            sp.add_argument("--tol", type=float, default=None, help="tolerance override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command != "lift" and cfg["kind"] != args.command:
            raise ConfigError(f"config kind {cfg['kind']!r} does not run under the '{args.command}' subcommand")
        seed = _parse_seed(args.seed if args.seed is not None else cfg.get("seed", 0))
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "verify":
            tol = args.tol if args.tol is not None else cfg.get("tol", DEFAULT_TOL)
            return cmd_verify(cfg, out_dir, seed, _parse_nonnegative(tol, "tol"))
        if args.command == "lift":
            return cmd_lift(cfg, out_dir, seed)
        return cmd_export(cfg, out_dir, seed)
    except (ConfigError, SpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
