"""Summarize benchmark runs and record them as a baseline.

    python3 perfbench/baseline.py [--write perfbench/baseline.json]

Reads every result under .perfbench_work/results/, groups the runs by
workload and trace mode, and prints for each metric the median, the
quartiles and the spread (q3 - q1) / median over runs, flagging any
end-to-end spread above a third of its bound in BENCHMARK.json. With
--write it stores every run's metrics and samples, the environment stamp
and the failed operations, so later changes can compute quartiles and
pair wins against them.
"""

import argparse
import json
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench_work" / "results"


def summarize(values: list) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def collect() -> dict:
    groups = {}
    for path in sorted(RESULTS.glob("*.json")):
        res = json.loads(path.read_text())
        groups.setdefault((res["workload"], res["trace"]), []).append(res)
    out = {}
    for (workload, trace), runs in sorted(groups.items()):
        runs.sort(key=lambda r: r["seed"])
        out.setdefault(workload, {})[f"trace{trace}"] = {
            "seeds": [r["seed"] for r in runs],
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "fail_share": [r["fail_share"] for r in runs],
            "p2_min_digits": [r["p2_min_digits"] for r in runs],
            "metrics": {k: summarize([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]},
            "failed_ops": runs[0]["failed_ops"],
            "p2_errors": runs[0]["p2_errors"],
            "samples": [r["samples"] for r in runs],
            "env": runs[0]["env"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", type=Path, help="store the summary as a baseline JSON file")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = collect()
    for workload, modes in summary.items():
        for mode, data in modes.items():
            print(f"{workload} {mode}: {len(data['seeds'])} runs, correct {all(data['correct'])}")
            for name, s in data["metrics"].items():
                flag = ""
                if name in bounds and name != "setup_s" and s["spread"] > bounds[name] / 3:
                    flag = f"  <-- spread above bound/3 ({bounds[name] / 3:.4f})"
                print(f"  {name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{flag}")
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
