"""Workloads of the time-to-verdict benchmark, their inputs and their checks.

burnside is a batch verifier: a user waits for the exact verdict of one
command, so every workload here is a list of `burnside` invocations, each
replayed through the public entry `burnside.cli.run(argv)` with `--jobs 1`.
All instances come from the paper itself: the coprime-partition conjecture,
the solution-set classification and the imprimitive / 2-transitive
dichotomy.  Parallel scaling is left out on purpose: on a shared 2-core
machine `conjecture --jobs 2` ranged from 9.8 to 14.1 s over three runs.

Each workload states below why it exists and which layers it does and does
not exercise, so that a change to one layer has a workload that runs its
mechanism and one that bypasses it.

Correctness is checked per instance, and a bad instance is counted, never
raised: `check` returns (attempted, failed, reasons).  An instance is a
degree for `conjecture` and one invocation otherwise.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """One `burnside` invocation and what its output must show."""

    label: str
    argv: tuple[str, ...]
    kind: str  # "conjecture" | "nullsets" | "diagnose"
    expect: object


# -- conjecture ---------------------------------------------------------------
# `conjecture --max-d 600`.  The six 24-divisor degrees (360, 420, 480, 504,
# 540, 600) take about 16.6 of 18.7 s, so this workload is almost all of the
# `coprime` Gray walk plus the coprime test; it also builds one Ramanujan
# matrix per degree (`ramanujan.matrix_formula`).  It never touches
# `permgroup`, `method`, `nullsets` or the cyclotomic reduction.  Each
# 24-divisor degree walks a 65 536 x 23 int64 block (12 MB), above the 2 MB
# of L2 per core.  A shortened variant must keep at least three of the
# 24-divisor degrees.  The sweep covers the whole instance space up to 600,
# so the seed is recorded but not used.
CONJECTURE_MAX_D = 600

# -- nullsets -----------------------------------------------------------------
# `nullsets p n --verify` for the moduli below, with their solution counts.
# The 2^26 walk at 3^3 (about 9 s) and the 2^24 walk at 5^2 (about 2.3 s) are
# over 90% of the time: this is the second Gray-walk copy, with int16 rows and
# a zero test.  Classification and certificates are negligible today, and the
# cyclotomic layer only builds the rows of `_flip_rows`.  It is the bypass
# case for any `coprime` change and the target case for a meet-in-the-middle
# oracle.  Moduli above `MAX_MODULUS = 27` (2^5, 7^2) wait until the program
# admits them.  Each modulus is a whole instance space, so the seed is
# recorded but not used.
NULLSETS = ((2, 2, 2), (2, 3, 6), (3, 2, 2), (2, 4, 70), (5, 2, 2), (3, 3, 56))

# -- diagnose-sparse / diagnose-dense ----------------------------------------
# `diagnose` on named groups.  The seed relabels every group's points by a
# seeded permutation and passes the group as JSON image arrays; verdict,
# suborbits, basis classes, orbit rows and block shape do not depend on the
# labelling, so they are checked against the canonical labelling below.
#
# Sparse: many small suborbits, so `cyclotomic.reduced_coeffs` gets many
# calls on sparse sums (99 072 on dihedral:256, 1.56 of 2.6 s), and
# `method.suborbit_sums` is most of the run.
#
# Dense: few large suborbits, so the same reduction layer gets few calls on
# dense sums (1 536 on sym:256, 0.39 s).  The 2-transitive groups also run
# the full block search (255 `permgroup.minimal_blocks` calls on sym:256).
# A reduction change that helps sparse sums but hurts dense ones shows here
# and not in diagnose-sparse.
#
# Neither runs the `coprime` or `nullsets` walks; `ramanujan.matrix_formula`
# is called only to index the orbit-row subset (twice per even-degree group).
#
# Canonical results: verdict, (block size, block count) or None, and the
# sha256 of the JSON list [suborbits, basis_classes, orbit_rows] as
# `burnside diagnose --group <spec>` prints them.
DIAGNOSE_EXPECT = {
    "dihedral:256": (
        "imprimitive", (128, 2),
        "1bc59c095ab54c8dfcb92a626b7c32810b03ae9a41899da5e018ba13cb4a0446",
    ),
    "cyclic:128": (
        "imprimitive", (64, 2),
        "14ca276e37f68373fafaebfa37f6578ec1f80072760a22e9692d04e4be12f7e2",
    ),
    "affine:120:7": (
        "imprimitive", (60, 2),
        "d30fee248078d2754b0fddc2b9b9d6c60576eb6321b8d5264008a75b6e638f78",
    ),
    "sym:256": (
        "two_transitive", None,
        "caacc65a5cfb3f12a1548be700e5ecfdf59a67dd6d24f932f6283e6569ffeb9f",
    ),
    "sym:384": (
        "two_transitive", None,
        "22dfd420969144772e9143e5794e3a066758f197d161355f2891ca2b482bd0b5",
    ),
    "affine:243:2": (
        "imprimitive", (81, 3),
        "0ec970188ab80a920fa270431d9d7b541678c30b67bc7a84abfc143c084c3287",
    ),
    "affine:256:3": (
        "imprimitive", (128, 2),
        "414de07e3853652c7d485575df8cdc5a397bd5ecb8fa963a3ca1a1d97799d37f",
    ),
}
DIAGNOSE_SPARSE = ("dihedral:256", "cyclic:128", "affine:120:7")
DIAGNOSE_DENSE = ("sym:256", "sym:384", "affine:243:2", "affine:256:3")

WORKLOADS = ("conjecture", "nullsets", "diagnose-sparse", "diagnose-dense")


def instances(workload: str, seed: int) -> list[Instance]:
    """The invocations of one pass of `workload`, generated from `seed`."""
    if workload == "conjecture":
        argv = ("conjecture", "--max-d", str(CONJECTURE_MAX_D), "--jobs", "1")
        return [Instance(f"d<={CONJECTURE_MAX_D}", argv, "conjecture", CONJECTURE_MAX_D)]
    if workload == "nullsets":
        return [
            Instance(f"{p}^{n}", ("nullsets", str(p), str(n), "--verify", "--jobs", "1"),
                     "nullsets", (p, n, count))
            for p, n, count in NULLSETS
        ]
    if workload in ("diagnose-sparse", "diagnose-dense"):
        specs = DIAGNOSE_SPARSE if workload == "diagnose-sparse" else DIAGNOSE_DENSE
        return [
            Instance(spec, ("diagnose", "--group", relabelled_group(spec, seed), "--jobs", "1"),
                     "diagnose", DIAGNOSE_EXPECT[spec])
            for spec in specs
        ]
    raise ValueError(f"unknown workload {workload!r}")


def family_generators(spec: str) -> list[list[int]]:
    """Image arrays of a named family, in the canonical labelling.

    Built here rather than by the program, so the program receives only the
    generated input.  The full cycle i -> i+1 comes first, which is what lets
    `diagnose` pick it up without `--cycle`.
    """
    head, *params = spec.split(":")
    d = int(params[0])
    cycle = [(i + 1) % d for i in range(d)]
    if head == "cyclic":
        return [cycle]
    if head == "dihedral":
        return [cycle, [(-i) % d for i in range(d)]]
    if head == "sym":
        swap = list(range(d))
        swap[0], swap[1] = 1, 0
        return [cycle, swap]
    if head == "affine":
        m = int(params[1])
        return [cycle, [(m * i) % d for i in range(d)]]
    raise ValueError(f"unknown family {spec!r}")


def relabelled_group(spec: str, seed: int) -> str:
    """The named group with its points relabelled by a seeded permutation
    sigma (each generator g becomes sigma g sigma^-1), as JSON image arrays."""
    gens = family_generators(spec)
    d = len(gens[0])
    sigma = list(range(d))
    random.Random(f"{seed}/{spec}").shuffle(sigma)
    out = []
    for g in gens:
        h = [0] * d
        for i in range(d):
            h[sigma[i]] = sigma[g[i]]
        out.append(h)
    return json.dumps(out, separators=(",", ":"))


# -- checks -------------------------------------------------------------------


def divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def diagnose_digest(payload: dict) -> str:
    """sha256 of the labelling-invariant part of a diagnose report."""
    key = [payload["suborbits"], payload["basis_classes"], payload["orbit_rows"]]
    return hashlib.sha256(json.dumps(key, separators=(",", ":")).encode()).hexdigest()


def _json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check(inst: Instance, rc, text: str) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one invocation's exit code and stdout."""
    if inst.kind == "conjecture":
        return _check_conjecture(inst.expect, rc, text)
    try:
        payloads = _json_lines(text)
    except ValueError as exc:
        return 1, 1, [f"{inst.label}: unparseable output ({exc})"]
    if rc != 0 or len(payloads) != 1:
        return 1, 1, [f"{inst.label}: exit {rc}, {len(payloads)} lines"]
    payload = payloads[0]
    reason = (_nullsets_reason if inst.kind == "nullsets" else _diagnose_reason)(inst.expect, payload)
    return 1, int(reason is not None), [f"{inst.label}: {reason}"] if reason else []


def _check_conjecture(max_d: int, rc, text: str):
    degrees = list(range(2, max_d + 1, 2))
    try:
        payloads = _json_lines(text)
    except ValueError as exc:
        return len(degrees), len(degrees), [f"conjecture: unparseable output ({exc})"]
    if rc != 0 or len(payloads) != len(degrees):
        return len(degrees), len(degrees), [
            f"conjecture: exit {rc}, {len(payloads)} lines, expected {len(degrees)}"
        ]
    reasons = []
    for d, payload in zip(degrees, payloads):
        if payload.get("d") != d:
            reasons.append(f"d={d}: line reports d={payload.get('d')}")
        elif payload.get("verdict") != "holds":
            reasons.append(f"d={d}: verdict {payload.get('verdict')}")
        elif payload.get("coprime") != [divisors(d)]:
            reasons.append(f"d={d}: coprime {payload.get('coprime')}")
    return len(degrees), len(reasons), reasons


def _nullsets_reason(expect, payload: dict) -> str | None:
    p, n, count = expect
    if (payload.get("p"), payload.get("n")) != (p, n):
        return f"report is for {payload.get('p')}^{payload.get('n')}"
    if payload.get("verdict") != "holds":
        return f"verdict {payload.get('verdict')}"
    if payload.get("solution_count") != count:
        return f"{payload.get('solution_count')} solutions, expected {count}"
    return None


def _diagnose_reason(expect, payload: dict) -> str | None:
    verdict, shape, digest = expect
    if payload.get("verdict") != verdict:
        return f"verdict {payload.get('verdict')}, expected {verdict}"
    blocks = payload.get("blocks")
    got_shape = None if blocks is None else (blocks["size"], blocks["count"])
    if got_shape != shape:
        return f"block shape {got_shape}, expected {shape}"
    if diagnose_digest(payload) != digest:
        return "suborbits, basis classes or orbit rows differ from the canonical labelling"
    return None


def mask_timing(text: str) -> str:
    """The output with the program's own timing field zeroed, so that its
    length repeats exactly from run to run."""
    return re.sub(r'"millis":\d+', '"millis":0', text)
