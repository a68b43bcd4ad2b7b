"""End-to-end and per-layer benchmark of `framelift lift|verify`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gabor-ladder --seed 0 --seconds 36 --trace 0

With ``--trace 0`` the workload's CLI invocations run one after another as
fresh interpreters (closed loop, one client), repeated for ``--seconds``
seconds, and the end-to-end metrics are printed. With ``--trace 1`` the same
argv lists go to ``framelift.cli.main`` in this process, alternating
untraced and traced passes, and the per-layer metrics are printed. Every
output is checked; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Per-run samples, the
environment stamp, failed operations and spans are written under
``.perfbench_work/`` in the checkout.

Workloads (configs under perfbench/workloads/<name>/):

* gabor-ladder: one `lift` over Gabor N = 64, 128, 256. Dense n x n
  factorizations dominate at n = 1024, so factor-once and memory work shows
  here.
* verify-1024: one `verify` at n = 1024, d = 128. It spends its time in
  verify-only layers and shares only map_constants and matalg with `lift`,
  so a pipeline-only change should leave it unchanged.
* steep-mix: three short `lift` runs with steep symbols and p = 3. Set-up
  and the bracket path dominate; it holds the known rounding defects and the
  only Fock run.

``--seed n`` adds n to each config's own seed, so seed 0 runs the configs
as written.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Cap BLAS threads at nproc before numpy is imported here or in a child.
for _var in BLAS_VARS:
    _cur = os.environ.get(_var, "")
    if not (_cur.isdigit() and 0 < int(_cur) <= NPROC):
        os.environ[_var] = str(NPROC)

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

WORKLOADS = {
    "gabor-ladder": ("lift.json",),
    "verify-1024": ("verify.json",),
    "steep-mix": ("gabor-t6.json", "gabor-t14.json", "fock-t6.json"),
}
MIN_REPS = 2
SETUP_SAMPLES = 5
# Every run must end within 180 s; children still running past this are killed.
DEADLINE_S = 165.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "bracket_width_log10": "log10",
    "p2_max_rel_err": "ratio",
}


class Invocation:
    def __init__(self, workload: str, config: Path, seed: int):
        self.cfg = json.loads(config.read_text())
        self.label = f"{workload}/{config.stem}"
        self.command = "verify" if self.cfg["kind"] == "verify" else "lift"
        self.config = config
        self.seed = int(self.cfg.get("seed", 0)) + seed

    def argv(self, out_dir: Path, config: Path | None = None) -> list:
        return [
            self.command,
            "--config",
            str(config or self.config),
            "--out",
            str(out_dir),
            "--seed",
            str(self.seed),
        ]

    def check(self, out_dir: Path, exit_code: int) -> dict:
        fn = checks.check_verify if self.command == "verify" else checks.check_lift
        return fn(out_dir, self.cfg, self.label, exit_code)

    def warmup_config(self) -> dict:
        """The same code paths at the smallest size, to load lazy imports before timing."""
        cfg = json.loads(json.dumps(self.cfg))
        if cfg["kind"] == "verify":
            cfg["frame"] = {"type": "gabor", "N": 16, "a": 2, "b": 2}
        elif cfg["kind"] == "gabor":
            cfg["Ns"] = [16]
        else:
            cfg["R_list"] = [2.5]
        return cfg


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out_dir).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def spawn(argv: list, log: Path, deadline: float):
    """Run a child to completion; returns (wall s, exit code, max RSS MB, CPU s)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    # Reaped by wait4 above; tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def preflight(deadline: float) -> None:
    """Stop with an error unless framelift imports from this checkout's src/."""
    if not (SRC / "framelift" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no framelift sources under {SRC}")
    log = WORK / "preflight.log"
    argv = [sys.executable, "-c", "import framelift.cli as c; print(c.__file__)"]
    _, code, _, _ = spawn(argv, log, deadline)
    where = log.read_text().strip().splitlines()
    if code != 0 or not where or not Path(where[-1]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("perfbench: framelift.cli does not import from this checkout:\n" + log.read_text())


def measure_setup(deadline: float) -> list:
    argv = [sys.executable, "-c", "import framelift.cli"]
    return [spawn(argv, WORK / "setup.log", deadline)[0] for _ in range(SETUP_SAMPLES)]


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            out = ""
        caches[name] = int(out) if out.isdigit() else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": oracle.mp.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": NPROC,
        "machine": platform.machine(),
        "caches": caches,
        "platform": platform.platform(),
    }


def check_outputs(runs) -> dict:
    """Check every (invocation, out_dir, exit_code) of every rep or pass."""
    oracle_values = oracle.load()
    per_rep, digests = [], {}
    for rep in runs:
        ops, widths, p2 = [], [], []
        for inv, out_dir, code in rep:
            res = inv.check(out_dir, code)
            ops += res["ops"]
            widths += res["widths"]
            p2 += res["p2"]
            digests.setdefault(inv.label, set()).add(digest(out_dir) if code == 0 else f"exit {code}")
        errs = checks.p2_errors(p2, oracle_values, oracle.case_key)
        delivered = errs and not any(checks.is_hard(op["reasons"]) for op in ops)
        per_rep.append(
            {
                "ops": ops,
                "bracket_width_log10": checks.bracket_width_log10(widths) if widths else checks.WIDTH_CAP,
                "p2_errors": errs,
                "p2_max_rel_err": max(e for _, e in errs) if delivered else 1.0,
            }
        )
    attempted = sum(len(r["ops"]) for r in per_rep)
    failed = sum(1 for r in per_rep for op in r["ops"] if op["reasons"])
    hard = [op for r in per_rep for op in r["ops"] if checks.is_hard(op["reasons"])]
    nondeterministic = sorted(label for label, d in digests.items() if len(d) > 1)
    return {
        "per_rep": per_rep,
        "attempted": attempted,
        "failed": failed,
        "hard": hard,
        "nondeterministic": nondeterministic,
        "correct": not hard and not nondeterministic,
        "failed_ops": [op for op in per_rep[0]["ops"] if op["reasons"]],
    }


def run_end_to_end(invocations, work: Path, seconds: float, deadline: float):
    setup = measure_setup(deadline)
    reps, runs = [], []
    t0 = time.monotonic()
    while True:
        rep_dir = work / f"rep{len(reps)}"
        rep = {"invocations": []}
        outs = []
        for inv in invocations:
            out_dir = rep_dir / inv.config.stem
            out_dir.mkdir(parents=True)
            argv = [sys.executable, "-m", "framelift.cli"] + inv.argv(out_dir)
            wall, code, rss, cpu = spawn(argv, out_dir.with_suffix(".log"), deadline)
            rep["invocations"].append({"label": inv.label, "wall_s": wall, "exit": code, "max_rss_mb": rss, "cpu_s": cpu})
            outs.append((inv, out_dir, code))
        rep["wall_s"] = sum(i["wall_s"] for i in rep["invocations"])
        rep["peak_rss_mb"] = max(i["max_rss_mb"] for i in rep["invocations"])
        reps.append(rep)
        runs.append(outs)
        now = time.monotonic()
        if any(code != 0 for _, _, code in outs):
            break
        if len(reps) >= MIN_REPS and (now - t0 + rep["wall_s"] > seconds or now + rep["wall_s"] > deadline):
            break
    checked = check_outputs(runs)
    metrics = {
        "wall_s": median(r["wall_s"] for r in reps),
        "setup_s": median(setup),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "ok_share": 1.0 - checked["failed"] / checked["attempted"],
        "bracket_width_log10": median(r["bracket_width_log10"] for r in checked["per_rep"]),
        "p2_max_rel_err": median(r["p2_max_rel_err"] for r in checked["per_rep"]),
    }
    units = END_TO_END_UNITS
    samples = {"setup_s": setup, "reps": reps}
    return metrics, units, samples, checked


def run_traced(invocations, work: Path, seconds: float, deadline: float):
    sys.path.insert(0, str(SRC))
    import framelift.cli as cli

    # Warm up lazy imports on the smallest sizes, untimed.
    for inv in invocations:
        cfg_path = work / f"warmup-{inv.config.stem}.json"
        cfg_path.write_text(json.dumps(inv.warmup_config()))
        try:
            cli.main(inv.argv(work / "warmup" / inv.config.stem, cfg_path))
        except Exception:  # the timed passes record the failure
            pass

    def one_pass(tag: str, tracer):
        outs = []
        entry = cli.main if tracer is None else tracer.root("cli.main", cli.main)
        if tracer is not None:
            tracer.install()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            for inv in invocations:
                out_dir = work / tag / inv.config.stem
                out_dir.mkdir(parents=True)
                try:
                    code = entry(inv.argv(out_dir))
                except Exception:  # a crash is a failed invocation, not a benchmark error
                    (out_dir.with_suffix(".log")).write_text(traceback.format_exc())
                    code = -1
                outs.append((inv, out_dir, code))
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            if tracer is not None:
                tracer.uninstall()
        return wall, cpu, outs

    untraced, traced, runs, layer_passes, all_spans, missing = [], [], [], [], [], []
    t0 = time.monotonic()
    while True:
        pair_start = time.monotonic()
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            tag = f"pass{len(traced) + len(untraced)}-{'traced' if with_trace else 'untraced'}"
            tracer = spans.Tracer() if with_trace else None
            wall, cpu, outs = one_pass(tag, tracer)
            runs.append(outs)
            if tracer is None:
                untraced.append(wall)
                continue
            traced.append(wall)
            m = spans.layer_metrics(tracer.spans)
            m["proc.cpu_s"] = cpu
            layer_passes.append(m)
            missing = tracer.missing
            all_spans += [dict(s, passno=len(traced) - 1) for s in tracer.spans]
        now = time.monotonic()
        pair = now - pair_start
        if now - t0 + pair > seconds or now + pair > deadline:
            break
    with open(work / "spans.jsonl", "w") as fh:
        for s in all_spans:
            fh.write(json.dumps(s, sort_keys=True) + "\n")
    checked = check_outputs(runs)
    metrics = spans.median_metrics(layer_passes)
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    units = {k: spans.unit(k) for k in metrics}
    samples = {"traced_wall_s": traced, "untraced_wall_s": untraced, "passes": layer_passes, "missing_targets": missing}
    return metrics, units, samples, checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    preflight(deadline)
    invocations = [Invocation(args.workload, HERE / "workloads" / args.workload / name, args.seed) for name in WORKLOADS[args.workload]]
    runner = run_traced if args.trace else run_end_to_end
    metrics, units, samples, checked = runner(invocations, work, args.seconds, deadline)

    env = environment()
    errs = checked["per_rep"][0]["p2_errors"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "metrics": metrics,
        "samples": samples,
        "correct": checked["correct"],
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "fail_share": checked["failed"] / checked["attempted"],
        "p2_min_digits": checks.digits(checked["per_rep"][0]["p2_max_rel_err"]),
        "p2_errors": errs,
        "failed_ops": checked["failed_ops"],
        "hard_failures": checked["hard"],
        "nondeterministic": checked["nondeterministic"],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: details in {out.relative_to(ROOT)}")
    print("env " + json.dumps(env, sort_keys=True))
    ops_per_rep = len(checked["per_rep"][0]["ops"])
    print(
        f"operations: {checked['attempted']} attempted, {checked['failed']} failed"
        f" (fail_share {result['fail_share']:.4f}; {len(checked['failed_ops'])} of {ops_per_rep} per rep)"
    )
    for op in checked["failed_ops"]:
        print(f"  failed {op['op']}: {'; '.join(op['reasons'])}")
    if samples.get("missing_targets"):
        print("not traced (missing in framelift): " + ", ".join(samples["missing_targets"]))
    if not args.trace:
        print(f"p2_min_digits {result['p2_min_digits']} over {len(errs)} oracle constants")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": checked["correct"],
                "attempted": checked["attempted"],
                "failed": checked["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
