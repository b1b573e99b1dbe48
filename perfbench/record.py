"""Repeat benchmark runs and record a point of the performance trajectory.

    python3 perfbench/record.py --runs 10 [--workloads a,b] [--label NAME]

For each workload it makes `--runs` untraced runs of `run.py`, with seeds
1..runs, and one traced run with seed 1, all with the `run_seconds` of
BENCHMARK.json.  It prints, per end-to-end metric, the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median next to the metric's bound.  With `--label` it also
writes everything, with the provenance of the first run, to
`perfbench/trajectory/BENCH_<label>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROVENANCE = ("jobs", "nproc", "cpu_model", "python", "numpy", "git_revision", "src_sha256")


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    provenance = next(json.loads(line[len("provenance "):]) for line in lines
                      if line.startswith("provenance "))
    return json.loads(lines[-1]), provenance


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--label", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [_run(workload, seed, spec["run_seconds"], 0) for seed in range(1, args.runs + 1)]
        traced, _ = _run(workload, 1, spec["run_seconds"], 1)
        record.setdefault("provenance", {key: runs[0][1][key] for key in PROVENANCE})
        end_to_end = {
            name: _summary([r["metrics"][name]["value"] for r, _ in runs]) for name in bounds
        }
        record["workloads"][workload] = {
            "runs": args.runs,
            "attempted": sum(r["attempted"] for r, _ in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r, _ in runs) + traced["failed"],
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        done = record["workloads"][workload]
        print(f"{workload}: fail_ratio {done['failed'] / done['attempted']:.6g}"
              f" ({done['failed']} of {done['attempted']} instances)")
        for name, s in end_to_end.items():
            print(f"  {name:18} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
                  f"  spread {s['spread']:.4f}  bound/3 {bounds[name] / 3:.4f}"
                  f"  values {' '.join(f'{v:.4g}' for v in s['values'])}", flush=True)
    if args.label:
        out = HERE / "trajectory" / f"BENCH_{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
