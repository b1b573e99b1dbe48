"""Per-layer tracing for the benchmark's traced passes.

The tracer wraps every public module-level function of the `burnside`
package from outside the program, and rebinds the wrapper under every name
a caller resolves: `coprime` imports `matrix_formula` by name and `method`
imports `divisor_data` by name, so patching only the defining module would
miss those calls.  Classes are shared objects and are left alone; no
metric below needs their methods.  Generator functions are not wrapped,
because a span around one would also cover its consumer's work between
yields.

Each wrapped call is a span; spans are aggregated per function as call
count, total time and self time (total minus the time of the wrapped calls
made inside it).  Two functions also feed work counters from the reports
they return.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "burnside"

# (name, unit) of every per-layer metric, in the order they are printed.
LAYER_METRICS = (
    ("cli.run.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("ramanujan.matrix_formula.calls", "count"),
    ("ramanujan.matrix_formula.s", "s"),
    ("coprime.verify_degree.calls", "count"),
    ("coprime.verify_degree.self_s", "s"),
    ("coprime.tail_s", "s"),
    ("coprime.subsets", "count"),
    ("coprime.subsets_per_s", "1/s"),
    ("coprime.hit_ratio", "ratio"),
    ("nullsets.enumerate_solutions.s", "s"),
    ("nullsets.subsets", "count"),
    ("nullsets.subsets_per_s", "1/s"),
    ("nullsets.solutions", "count"),
    ("nullsets.hit_ratio", "ratio"),
    ("nullsets.classify.calls", "count"),
    ("nullsets.classify.s", "s"),
    ("nullsets.enumerate_certificates.s", "s"),
    ("nullsets.verify_classification.self_s", "s"),
    ("cyclotomic.reduced_coeffs.calls", "count"),
    ("cyclotomic.reduced_coeffs.s", "s"),
    ("cyclotomic.from_indices.calls", "count"),
    ("cyclotomic.from_indices.s", "s"),
    ("cyclotomic.cyclotomic_poly.misses", "count"),
    ("permgroup.suborbits.calls", "count"),
    ("permgroup.suborbits.s", "s"),
    ("permgroup.minimal_blocks.calls", "count"),
    ("permgroup.minimal_blocks.s", "s"),
    ("method.suborbit_sums.calls", "count"),
    ("method.suborbit_sums.self_s", "s"),
    ("method.diagnose.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Degrees with at least this many divisors form the conjecture sweep's tail.
TAIL_DIVISORS = 24


class Tracer:
    """Aggregated spans of the package's public functions.

    Use as a context manager: entering wraps and rebinds, leaving restores
    every original binding.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}  # "module.function" -> [calls, total_s, self_s]
        self.counters = {"coprime.subsets": 0, "coprime.hits": 0, "coprime.tail_s": 0.0,
                         "nullsets.subsets": 0, "nullsets.solutions": 0}
        self._stack: list[float] = []  # time of finished child spans, per open span
        self._restore: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def __enter__(self) -> "Tracer":
        originals = {}  # id(function) -> (span name, function)
        for module in self._modules():
            short = module.__name__.rpartition(".")[2]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and not inspect.isgeneratorfunction(fn)):
                    originals[id(fn)] = (f"{short}.{name}", fn)
        wrappers = {key: self._wrap(span, fn) for key, (span, fn) in originals.items()}
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and originals[id(value)][1] is value:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()

    def _wrap(self, span: str, fn):
        stats = self.stats.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        observe = _OBSERVERS.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observe:
                observe(self.counters, result, elapsed)
            return result

        return wrapper

    def metrics(self, output_bytes: int, cache_misses: int) -> dict[str, float]:
        """Every per-layer metric except `trace.overhead_s`, which needs an
        untraced pass to compare with."""

        def calls(span):
            return self.stats.get(span, [0, 0.0, 0.0])[0]

        def total(span):
            return self.stats.get(span, [0, 0.0, 0.0])[1]

        def self_s(span):
            return self.stats.get(span, [0, 0.0, 0.0])[2]

        c = self.counters
        coprime_s = total("coprime.verify_degree")
        null_s = total("nullsets.enumerate_solutions")
        return {
            "cli.run.self_s": self_s("cli.run"),
            "cli.output_bytes": output_bytes,
            "ramanujan.matrix_formula.calls": calls("ramanujan.matrix_formula"),
            "ramanujan.matrix_formula.s": total("ramanujan.matrix_formula"),
            "coprime.verify_degree.calls": calls("coprime.verify_degree"),
            "coprime.verify_degree.self_s": self_s("coprime.verify_degree"),
            "coprime.tail_s": c["coprime.tail_s"],
            "coprime.subsets": c["coprime.subsets"],
            "coprime.subsets_per_s": c["coprime.subsets"] / coprime_s if coprime_s else 0.0,
            "coprime.hit_ratio": _ratio(c["coprime.hits"], c["coprime.subsets"]),
            "nullsets.enumerate_solutions.s": null_s,
            "nullsets.subsets": c["nullsets.subsets"],
            "nullsets.subsets_per_s": c["nullsets.subsets"] / null_s if null_s else 0.0,
            "nullsets.solutions": c["nullsets.solutions"],
            "nullsets.hit_ratio": _ratio(c["nullsets.solutions"], c["nullsets.subsets"]),
            "nullsets.classify.calls": calls("nullsets.classify"),
            "nullsets.classify.s": total("nullsets.classify"),
            "nullsets.enumerate_certificates.s": total("nullsets.enumerate_certificates"),
            "nullsets.verify_classification.self_s": self_s("nullsets.verify_classification"),
            "cyclotomic.reduced_coeffs.calls": calls("cyclotomic.reduced_coeffs"),
            "cyclotomic.reduced_coeffs.s": total("cyclotomic.reduced_coeffs"),
            "cyclotomic.from_indices.calls": calls("cyclotomic.from_indices"),
            "cyclotomic.from_indices.s": total("cyclotomic.from_indices"),
            "cyclotomic.cyclotomic_poly.misses": cache_misses,
            "permgroup.suborbits.calls": calls("permgroup.suborbits"),
            "permgroup.suborbits.s": total("permgroup.suborbits"),
            "permgroup.minimal_blocks.calls": calls("permgroup.minimal_blocks"),
            "permgroup.minimal_blocks.s": total("permgroup.minimal_blocks"),
            "method.suborbit_sums.calls": calls("method.suborbit_sums"),
            "method.suborbit_sums.self_s": self_s("method.suborbit_sums"),
            "method.diagnose.self_s": self_s("method.diagnose"),
        }


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _observe_verify_degree(counters, report, elapsed) -> None:
    counters["coprime.subsets"] += report.subsets_scanned
    counters["coprime.hits"] += len(report.coprime_masks)
    if report.divisor_count >= TAIL_DIVISORS:
        counters["coprime.tail_s"] += elapsed


def _observe_verify_classification(counters, report, elapsed) -> None:
    counters["nullsets.subsets"] += report.subsets_scanned
    counters["nullsets.solutions"] += report.solution_count


_OBSERVERS = {
    "coprime.verify_degree": _observe_verify_degree,
    "nullsets.verify_classification": _observe_verify_classification,
}
