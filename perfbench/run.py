"""Time-to-verdict benchmark for burnside.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; `burnside` is imported from its `src/`.
Workloads are defined, with the reason for each, in `workloads.py`.

A run repeats passes of the workload, each in a fresh process
(`child.py`), one after another (a closed loop of one client).  It starts
another pass only while that is expected to end within S seconds, and always
makes at least one.  Every pass checks every verdict; a bad instance is
counted in `failed`, never raised.

With `--trace 0` it prints the end-to-end metrics:

    wall_s            first call to last verdict of a pass, mean over passes
    worst_instance_s  slowest single degree, modulus or group of a pass,
                      mean over passes
    setup_s           process start to `import burnside` done, median over
                      extra start-only processes and every pass
    peak_rss_mb       peak resident memory of a pass process, median over
                      passes

The two times are means, so a run's figure is its whole measured work.  On
a shared 2-vCPU virtual machine the speed of the pure-Python workloads
drifted by tens of percent over minutes, and there the median of a few
short passes followed one pass's luck more than the mean did.

`fail_ratio` (failed over attempted instances) is printed with them; the
result line carries it as `failed` and `attempted`.

With `--trace 1` it runs pairs of one untraced and one traced pass, the
untraced one first in every other pair, and prints the per-layer metrics of
`tracer.py`, each the median over the traced passes, and `trace.overhead_s`,
the median over the pairs of traced minus untraced `wall_s`.  It makes at
least MIN_TRACE_PAIRS pairs where they fit in the run's time limit, even
past S seconds, so that the overhead is never one pair's host drift.

Before the result it prints the run's provenance: workload, seed, `--jobs`,
nproc, CPU model, Python and numpy versions, the git revision when the
checkout is a git repository, and a digest of `src/burnside`.  The last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "burnside"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

SETUP_SAMPLES = 11  # start-only processes per untraced run, besides the passes
RUN_LIMIT_S = 170  # a run must end within 180 s
MIN_TRACE_PAIRS = 3


class BenchError(Exception):
    pass


def _spawn(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return its result line."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--spawned-at", repr(spawned_at), *args]
    timeout = deadline - spawned_at
    if timeout <= 0:
        raise BenchError("out of time before starting a pass")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise BenchError(f"pass {args} did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"pass {args} printed no result") from None
    result["elapsed_s"] = time.monotonic() - spawned_at
    return result


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run passes for about `seconds`; return (result line, pass details)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = []
    if not trace:
        setups = [_spawn(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    pass_args = ["--workload", workload, "--seed", str(seed)]
    untraced, traced = [], []
    if trace:
        pair_s = []
        while True:
            pair_start = time.monotonic()
            for tracing in (False, True) if len(pair_s) % 2 == 0 else (True, False):
                done = _spawn(pass_args + (["--trace"] if tracing else []), deadline)
                (traced if tracing else untraced).append(done)
            pair_s.append(time.monotonic() - pair_start)
            elapsed = time.monotonic() - start
            wanted = len(pair_s) < MIN_TRACE_PAIRS and elapsed + 1.5 * max(pair_s) < RUN_LIMIT_S
            if elapsed + statistics.median(pair_s) > seconds and not wanted:
                break
    else:
        while True:
            untraced.append(_spawn(pass_args, deadline))
            typical = statistics.median(p["elapsed_s"] for p in untraced)
            if time.monotonic() - start + typical > seconds:
                break
    passes = untraced + traced

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name, _ in LAYER_METRICS if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
        units = dict(LAYER_METRICS)
    else:
        setups += [p["setup_s"] for p in passes]
        metrics = {
            "wall_s": statistics.fmean(p["wall_s"] for p in passes),
            "worst_instance_s": statistics.fmean(p["worst_instance_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = {"wall_s": "s", "worst_instance_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    details = {
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "reasons": [r for p in passes for r in p["reasons"]][:10],
    }
    return result, details


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no burnside sources at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload.startswith("diagnose"),
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 1,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": details.pop("python"),
        "numpy": details.pop("numpy"),
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        **details,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"fail_ratio {result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
