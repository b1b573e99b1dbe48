"""One pass of a workload, in a fresh process.

    python3 perfbench/child.py --workload W --seed N --spawned-at T [--trace]
    python3 perfbench/child.py --setup-only --spawned-at T

`burnside` is imported from the checkout's `src/` before anything else, so
the pass pays the cold import and the cold `cyclotomic_poly` /
`_reduction_rows` caches exactly as a `burnside` invocation does.  T is the
parent's `time.monotonic()` just before it started this process, so
`setup_s` spans process start to `import burnside` done.  The last line of
stdout is one JSON object describing the pass.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_burnside():
    sys.path.insert(0, str(SRC))
    import burnside

    if Path(burnside.__file__).resolve().parent != SRC / "burnside":
        raise ImportError(f"burnside was imported from {burnside.__file__}, not from {SRC}")
    return burnside


class _Capture:
    """Stdout stand-in that keeps the text and the time of each write that
    ends a line (the CLI writes and flushes one line per verdict)."""

    def __init__(self):
        self.parts: list[str] = []
        self.line_times: list[float] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        if text.endswith("\n"):
            self.line_times.append(time.perf_counter())
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def run_pass(burnside, instances, tracer=None) -> dict:
    """Run every instance through `burnside.cli.run`, time it, check it.

    Unit times are the gaps between successive output lines, starting at
    each call, so a conjecture sweep yields one time per degree and every
    other invocation one time per call.
    """
    import contextlib
    import resource

    import workloads

    results = []
    first = time.perf_counter()
    for inst in instances:
        capture = _Capture()
        start = time.perf_counter()
        error = None
        with contextlib.redirect_stdout(capture):
            try:
                rc = burnside.cli.run(list(inst.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an instance that crashes is counted, not fatal
                rc, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        marks = [start] + capture.line_times
        units = [b - a for a, b in zip(marks, marks[1:])] or [end - start]
        results.append((inst, rc, error, capture.text(), units))
    wall = time.perf_counter() - first
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = output_bytes = 0
    reasons = []
    for inst, rc, error, text, _ in results:
        a, f, why = workloads.check(inst, rc, text)
        if error is not None:
            why = [f"{inst.label}: {error}"]
        attempted += a
        failed += f
        reasons += why
        output_bytes += len(workloads.mask_timing(text).encode())
    out = {
        "wall_s": wall,
        "worst_instance_s": max(u for *_, units in results for u in units),
        "peak_rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:10],
    }
    if tracer is not None:
        misses = burnside.cyclotomic.cyclotomic_poly.cache_info().misses
        out["layers"] = tracer.metrics(output_bytes, misses)
    return out


def main(argv: list[str]) -> int:
    spawned_at = float(argv[argv.index("--spawned-at") + 1])
    burnside = _import_burnside()
    setup_s = time.monotonic() - spawned_at

    import argparse
    import json
    import platform

    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    result = {"setup_s": setup_s}
    if not args.setup_only:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import numpy

        import workloads
        from tracer import Tracer

        instances = workloads.instances(args.workload, args.seed)
        if args.trace:
            with Tracer() as tracer:
                result.update(run_pass(burnside, instances, tracer))
        else:
            result.update(run_pass(burnside, instances))
        result["python"] = platform.python_version()
        result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
