"""Golden outputs of the framelift CLI: record them, and list what moved.

Each config runs as a child ``python -m framelift.cli`` process with one
BLAS thread (``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1``), since
threaded products may round in another order. A config's golden is the
directory ``<goldens>/<config stem>/``: ``run.json`` holds the subcommand,
the exit code, stdout and stderr, and ``out/`` every file the run wrote.

    python tests/goldens.py record [--out DIR] [CONFIG ...]
    python tests/goldens.py diff [--old DIR] [--new DIR] [CONFIG ...]

``record`` runs the configs (default: every ``configs/*.json``) and writes
their goldens under DIR (default: ``tests/goldens``); goldens are written
by ``record`` alone. ``diff`` compares the goldens under --old (default:
``tests/goldens``) with those under --new, or with a fresh run of the
configs (default: every ``configs/*.json``) when --new is not given. With
no configs named it compares every config's golden directory found under
either side, and a directory found on one side only is one moved field.
It prints one line per moved numeric field (path, old, new, relative
move), one per other moved field, then the count and largest relative
move per field name, and exits 1 when any byte moved.
``tests/test_goldens.py`` compares the shipped configs byte for byte.

Comparing two checkouts, run each one's ``record --out`` into its own
directory, then ``diff --old A --new B``.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = ROOT / "tests" / "goldens"
CONFIGS = ROOT / "configs"
RUN_FILE = "run.json"


def shipped_configs() -> list:
    return sorted(CONFIGS.glob("*.json"))


def subcommand(config: Path) -> str:
    """The subcommand a config runs under: its ``kind`` when that names
    one, else ``lift`` (the lift kinds: gabor, fock, custom-frame)."""
    kind = json.loads(config.read_text()).get("kind")
    return kind if kind in ("verify", "export") else "lift"


def run_config(config: Path, out_dir: Path) -> dict:
    """Run ``config`` in a child process at one BLAS thread, writing its
    files to ``out_dir``; returns the run record that ``run.json`` holds."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONWARNINGS", None)
    command = subcommand(config)
    argv = [sys.executable, "-m", "framelift.cli", command, "--config", str(config), "--out", str(out_dir)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, cwd=ROOT)
    return {"command": command, "exit_code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def record(configs: list, goldens: Path) -> None:
    """Write each config's golden under ``goldens``, replacing the old one."""
    stems = [c.stem for c in configs]
    if len(set(stems)) < len(stems):
        raise SystemExit(f"two configs share a name: {stems}")
    for config in configs:
        target = goldens / config.stem
        if target.exists():
            shutil.rmtree(target)
        (target / "out").mkdir(parents=True)
        run = run_config(config, target / "out")
        (target / RUN_FILE).write_text(json.dumps(run, sort_keys=True, indent=2) + "\n")
        print(f"{config.stem}: exit {run['exit_code']}, {len(list((target / 'out').iterdir()))} files")


def golden_names(goldens: Path) -> set:
    """The config stems with a golden under ``goldens``: each directory
    that holds a run file."""
    return {p.parent.name for p in goldens.glob(f"*/{RUN_FILE}")}


def golden_files(golden: Path) -> dict:
    """Relative path -> bytes, for every file under one config's golden."""
    return {p.relative_to(golden).as_posix(): p.read_bytes() for p in sorted(golden.rglob("*")) if p.is_file()}


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _leaves(obj, path: str):
    """(path, value) for every leaf of a parsed JSON value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _table_leaves(text: str, sep, path: str):
    """(path, cell) for every cell of a CSV or whitespace table, named by
    its row number and its column's header."""
    lines = text.splitlines()
    header = lines[0].lstrip("# ").split(sep) if lines else []
    for i, line in enumerate(lines[1:], start=1):
        for j, cell in enumerate(line.split(sep)):
            name = header[j] if j < len(header) else str(j)
            yield f"{path}[{i}].{name}", cell


def fields(name: str, data: bytes) -> dict:
    """Field path -> value for one golden file: JSON leaves, table cells,
    or the whole text as one field."""
    text = data.decode()
    if name.endswith(".json"):
        try:
            return dict(_leaves(json.loads(text), name))
        except json.JSONDecodeError:
            pass
    if name.endswith(".csv"):
        return dict(_table_leaves(text, ",", name))
    if name.endswith(".dat"):
        return dict(_table_leaves(text, None, name))
    return {name: text}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _relative_move(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)) or old == 0:
        return math.inf
    return abs(new - old) / abs(old)


def moved_fields(old: dict, new: dict) -> list:
    """(path, old, new, relative move or None) per field that differs
    between two goldens' files; None marks a field that is not a number
    on both sides (or is missing from one)."""
    moves = []
    for name in sorted(set(old) | set(new)):
        if old.get(name) == new.get(name):
            continue
        a = fields(name, old[name]) if name in old else {}
        b = fields(name, new[name]) if name in new else {}
        before = len(moves)
        for path in sorted(set(a) | set(b)):
            va, vb = a.get(path), b.get(path)
            if va == vb and type(va) is type(vb):
                continue
            na, nb = (_number(v) if isinstance(v, str) else v for v in (va, vb))
            if _is_number(na) and _is_number(nb):
                move = _relative_move(float(na), float(nb))
                if move or str(va) != str(vb):
                    moves.append((path, va, vb, move))
            else:
                moves.append((path, va, vb, None))
        if len(moves) == before:  # the bytes moved, but no field: say so
            moves.append((name, "<bytes>", "<bytes>", None))
    return moves


def _field_name(path: str) -> str:
    """The last key of a field path, without list indices."""
    return path.rsplit(".", 1)[-1].split("[", 1)[0]


def report(moves_by_config: dict) -> int:
    """Print each moved field and the per-field-name summary; return the
    number of moved fields."""
    summary = defaultdict(lambda: [0, 0.0])
    total = 0
    for config, moves in moves_by_config.items():
        for path, va, vb, move in moves:
            total += 1
            shown = "changed" if move is None else f"{move:.3e}"
            print(f"{config}/{path}: {va!r} -> {vb!r} ({shown})")
            entry = summary[_field_name(path)]
            entry[0] += 1
            if move is not None:
                entry[1] = max(entry[1], move)
    print(f"{total} fields moved")
    for name in sorted(summary):
        count, largest = summary[name]
        print(f"  {name}: {count} moved, largest relative move {largest:.3e}")
    return total


def diff(configs: list, old: Path, new) -> int:
    """Compare the goldens of ``configs`` under ``old`` with those under
    ``new``, or with a fresh record of them (default: the shipped configs)
    when ``new`` is None. With no configs, compare every golden found under
    either side; a golden on one side only is one moved field."""
    with tempfile.TemporaryDirectory() as tmp:
        if new is None:
            new = Path(tmp)
            record(configs or shipped_configs(), new)
        stems = [c.stem for c in configs] or sorted(golden_names(old) | golden_names(new))
        moves = {}
        for stem in stems:
            a, b = old / stem, new / stem
            if a.is_dir() == b.is_dir():
                moves[stem] = moved_fields(golden_files(a), golden_files(b))
            else:
                moves[stem] = [("golden", *("present" if g.is_dir() else "missing" for g in (a, b)), None)]
        return report(moves)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="goldens", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    rec = sub.add_parser("record", help="run configs and write their goldens")
    rec.add_argument("--out", type=Path, default=GOLDENS)
    rec.add_argument("configs", nargs="*", type=Path)
    dif = sub.add_parser("diff", help="list the fields that moved")
    dif.add_argument("--old", type=Path, default=GOLDENS)
    dif.add_argument("--new", type=Path, default=None)
    dif.add_argument("configs", nargs="*", type=Path)
    args = parser.parse_args(argv)
    configs = [c.resolve() for c in args.configs]
    if args.action == "record":
        record(configs or shipped_configs(), args.out)
        return 0
    return 1 if diff(configs, args.old, args.new) else 0


if __name__ == "__main__":
    sys.exit(main())
