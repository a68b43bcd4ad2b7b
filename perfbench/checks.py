"""Output checker and failure accounting for the framelift benchmark.

An operation is one (size, p) row of a `lift` report, or one `verify`
invocation. An operation fails when its invocation exits with an unexpected
code, its row is missing, a value is NaN or absent, a bracket's certified
side lies inside its sampled side, `verify` reports ``ok: false``, or a
``fail`` verdict stands next to positive, finite constants.

Failures in the first group mean the program did not deliver ("hard");
the last three are known numerical defects that the benchmark counts
without rejecting the run.
"""

import csv
import json
import math
from pathlib import Path
from statistics import median

DIGIT_CAP = 10
REL_ERR_FLOOR = 10.0 ** -DIGIT_CAP
# log10 width reported for a bracket side whose ends are zero or not finite.
WIDTH_CAP = 30.0

HARD = ("exit code", "missing row", "missing value", "nan")


def p_key(p) -> str:
    """The CLI's label for p: "inf", or the number without a trailing ".0"."""
    if p in ("inf", "Infinity", math.inf):
        return "inf"
    return str(int(p)) if float(p).is_integer() else str(p)


def side_width(certified: float, sampled: float, side: str) -> float:
    """log10 of a bracket side's outer end over its inner end.

    For the lower constant the certified bound is the outer (smaller) end;
    for the upper constant it is the larger one. A negative width means the
    certified side lies inside the sampled side.
    """
    if not all(math.isfinite(v) and v > 0 for v in (certified, sampled)):
        return WIDTH_CAP
    ratio = sampled / certified if side == "lower" else certified / sampled
    return math.log10(ratio)


def bracket_width_log10(widths) -> float:
    """Median log10 width over every p != 2 bracket side."""
    return float(median(widths))


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def capped_rel_err(value, reference: float) -> float:
    """Relative error, floored at the digit cap so rounding noise cannot move it.

    A missing or non-finite value has no correct digits and counts as 1.
    """
    if value is None or not math.isfinite(value):
        return 1.0
    return max(REL_ERR_FLOOR, rel_err(value, reference))


def digits(err: float) -> int:
    """Correct significant digits implied by a relative error, in [0, DIGIT_CAP]."""
    if err <= REL_ERR_FLOOR:
        return DIGIT_CAP
    if not math.isfinite(err) or err >= 1.0:
        return 0
    return min(DIGIT_CAP, math.floor(-math.log10(err)))


def _number(cell):
    if cell in (None, ""):
        return None
    return float(cell)


def row_defects(row: dict, brackets: dict | None) -> list:
    """Failure reasons for one lift row (CSV cells as strings, brackets from the report)."""
    vals = {k: _number(row.get(k)) for k in ("lower", "upper", "condition")}
    if any(v is None for v in vals.values()):
        return ["missing value"]
    if any(math.isnan(v) for v in vals.values()):
        return ["nan"]
    reasons = []
    lo, hi = vals["lower"], vals["upper"]
    if row.get("verdict") == "fail" and lo > 0 and math.isfinite(lo) and math.isfinite(hi):
        reasons.append("fail verdict with positive, finite constants")
    if brackets:
        for side in ("lower", "upper"):
            pair = brackets.get(side)
            if not pair or any(v is None or math.isnan(v) for v in pair):
                reasons.append("nan")
                continue
            cert, samp = (pair[0], pair[1]) if side == "lower" else (pair[1], pair[0])
            if (side == "lower" and cert > samp) or (side == "upper" and cert < samp):
                reasons.append(f"certified {side} inside sampled {side}")
    return reasons


def check_lift(out_dir: Path, cfg: dict, label: str, exit_code: int) -> dict:
    """Operations, bracket widths and p = 2 constants of one `lift` invocation."""
    sizes = cfg["Ns"] if cfg["kind"] == "gabor" else cfg["R_list"]
    ps = [p_key(p) for p in cfg["ps"]]
    size_key = "N" if cfg["kind"] == "gabor" else "R"
    rows, entries = {}, {}
    if exit_code == 0 and (out_dir / "lifting_table.csv").exists() and (out_dir / "lift_report.json").exists():
        with open(out_dir / "lifting_table.csv", newline="") as fh:
            rows = {(float(r["size"]), r["p"]): r for r in csv.DictReader(fh)}
        report = json.loads((out_dir / "lift_report.json").read_text())
        entries = {float(e[size_key]): e for e in report["entries"]}
    ops, widths, p2 = [], [], []
    for size in sizes:
        entry = entries.get(float(size), {})
        per_p = entry.get("report", {}).get("per_p_results", {})
        for p in ps:
            name = f"{label} {size_key}={size} p={p}"
            row = rows.get((float(size), p))
            if exit_code != 0:
                reasons = ["exit code"]
            elif row is None:
                reasons = ["missing row"]
            else:
                brackets = per_p.get(p, {}).get("brackets") if p != "2" else None
                reasons = row_defects(row, brackets)
                if brackets and p != "2":
                    widths.append(side_width(brackets["lower"][0], brackets["lower"][1], "lower"))
                    widths.append(side_width(brackets["upper"][1], brackets["upper"][0], "upper"))
            ops.append({"op": name, "reasons": reasons})
            if p == "2" and cfg["kind"] == "gabor":
                lo = _number(row.get("lower")) if row else None
                hi = _number(row.get("upper")) if row else None
                p2.append(
                    {
                        "op": name,
                        "N": int(size),
                        "a": entry.get("a"),
                        "b": entry.get("b"),
                        "t_mu": float(cfg.get("mu", {}).get("t", 2.0)),
                        "values": {"lower": lo, "upper": hi},
                    }
                )
    return {"ops": ops, "widths": widths, "p2": p2}


def _has_nan(obj) -> bool:
    if isinstance(obj, float):
        return math.isnan(obj)
    if isinstance(obj, dict):
        return any(_has_nan(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_nan(v) for v in obj)
    return False


def check_verify(out_dir: Path, cfg: dict, label: str, exit_code: int) -> dict:
    """The single operation, bracket widths and p = 2 constants of one `verify`."""
    path = out_dir / "identities.json"
    if exit_code != 0:
        return {"ops": [{"op": label, "reasons": ["exit code"]}], "widths": [], "p2": []}
    if not path.exists():
        return {"ops": [{"op": label, "reasons": ["missing row"]}], "widths": [], "p2": []}
    rep = json.loads(path.read_text())
    reasons, widths = [], []
    if _has_nan(rep["residuals"]) or _has_nan(rep["coercivity"]) or _has_nan(rep["spectral_suite"]):
        reasons.append("nan")
    if not rep.get("ok"):
        reasons.append("verify ok: false")
    for key, entry in sorted(rep["spectral_suite"]["constants"].items()):
        if key.endswith("_p2"):
            continue
        for which in ("norm", "inverse_norm"):
            if which not in entry:
                continue
            samp, cert = entry[which]
            widths.append(side_width(cert, samp, "upper"))
            if cert < samp:
                reasons.append(f"{key} {which}: certified upper inside sampled upper")
    coer = rep["coercivity"]
    frame = cfg["frame"]
    p2 = [
        {
            "op": label + " coercivity",
            "N": int(frame["N"]),
            "a": int(frame["a"]),
            "b": int(frame["b"]),
            "t_mu": float(cfg.get("mu", {}).get("t", 2.0)),
            "values": {
                "lower": coer["sigma_min_weighted"],
                "relative_lower": coer["relative_constants"][0],
                "relative_upper": coer["relative_constants"][1],
            },
        }
    ]
    return {"ops": [{"op": label, "reasons": reasons}], "widths": widths, "p2": p2}


def p2_errors(p2_records: list, oracle: dict, key_fn) -> list:
    """(constant label, capped relative error) for each constant the oracle covers."""
    out = []
    for rec in p2_records:
        ref = oracle.get(key_fn(rec["N"], rec["a"], rec["b"], rec["t_mu"]))
        if ref is None:
            continue
        for name, value in rec["values"].items():
            if name in ref:
                out.append((f"{rec['op']} {name}", capped_rel_err(value, ref[name])))
    return out


def is_hard(reasons: list) -> bool:
    return any(r in HARD for r in reasons)
