"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a corrupted expectation or a crashing invocation is counted as
a failed instance rather than aborting the pass, that the tracer sees the
calls the spot checks predict, that it restores every binding it replaced,
and that the metric names agree with BENCHMARK.json.  Takes about 10 s.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


def _corrupt(inst: workloads.Instance, expect_value) -> workloads.Instance:
    return dataclasses.replace(inst, expect=expect_value)


def check_counting(burnside) -> None:
    small = [i for i in workloads.instances("nullsets", 1) if i.label in ("2^2", "2^3")]
    good = child.run_pass(burnside, small)
    expect((good["attempted"], good["failed"]) == (2, 0), "true expectations pass")

    wrong_count = _corrupt(small[1], (2, 3, 7))
    rejected = workloads.Instance("bad", ("diagnose", "--group", "nonsense"), "diagnose",
                                  workloads.DIAGNOSE_EXPECT["cyclic:128"])
    crashing = dataclasses.replace(rejected, argv=("suborbits", "--group", "cyclic:6", "--base", "10"))
    bad = child.run_pass(burnside, [small[0], wrong_count, rejected, crashing])
    expect((bad["attempted"], bad["failed"]) == (4, 3),
           "a corrupted solution count, a rejected input and a crash are counted, not raised")

    inst = workloads.instances("diagnose-sparse", 5)[2]  # affine:120:7, relabelled
    verdict, shape, digest = inst.expect
    corrupted = [inst, _corrupt(inst, ("two_transitive", shape, digest)),
                 _corrupt(inst, (verdict, (3, 40), digest)),
                 _corrupt(inst, (verdict, shape, "0" * 64))]
    got = child.run_pass(burnside, corrupted)
    expect((got["attempted"], got["failed"]) == (4, 3),
           "corrupted verdict, block shape and digest each count as one failure")

    sweep = workloads.Instance("d<=24", ("conjecture", "--max-d", "24", "--jobs", "1"),
                               "conjecture", 24)
    got = child.run_pass(burnside, [sweep, _corrupt(sweep, 26)])
    expect((got["attempted"], got["failed"]) == (25, 13),
           "a conjecture sweep counts one instance per degree")


def check_tracer(burnside) -> None:
    original = burnside.coprime.matrix_formula
    by_label = {i.label: i for w in ("diagnose-sparse", "diagnose-dense")
                for i in workloads.instances(w, 3)}
    with Tracer() as tracer:
        rebound = burnside.coprime.matrix_formula is not original
        child.run_pass(burnside, [by_label["dihedral:256"]], tracer)
        layers = tracer.metrics(0, 0)
    expect(rebound, "names imported by name (coprime.matrix_formula) are rebound")
    expect(burnside.coprime.matrix_formula is original, "leaving the tracer restores them")
    expect(layers["cyclotomic.reduced_coeffs.calls"] == 99072,
           f"dihedral:256 reduced_coeffs calls {layers['cyclotomic.reduced_coeffs.calls']} == 99072")
    expect(layers["permgroup.minimal_blocks.calls"] == 2,
           f"dihedral:256 minimal_blocks calls {layers['permgroup.minimal_blocks.calls']} == 2")
    expect(layers["method.suborbit_sums.calls"] == 3,
           f"dihedral:256 suborbit_sums calls {layers['method.suborbit_sums.calls']} == 3")
    with Tracer() as tracer:
        child.run_pass(burnside, [by_label["sym:256"]], tracer)
        layers = tracer.metrics(0, 0)
    expect(layers["permgroup.minimal_blocks.calls"] == 255,
           f"sym:256 minimal_blocks calls {layers['permgroup.minimal_blocks.calls']} == 255")


def check_names() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["per_layer"]] == [name for name, _ in LAYER_METRICS],
           "per_layer metrics match tracer.LAYER_METRICS")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "workloads match workloads.WORKLOADS")


def main() -> int:
    burnside = child._import_burnside()
    check_names()
    check_counting(burnside)
    check_tracer(burnside)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
