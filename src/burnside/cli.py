"""Command-line entry point.

Subcommands expose each pipeline with machine-readable output:

    ramanujan <d>                 matrix plus structural identity report
    conjecture --max-d N          coprime-partition sweep over even degrees
    suborbits --group SPEC        stabiliser orbits of a permutation group
    diagnose --group SPEC         imprimitive / 2-transitive dichotomy
    nullsets <p> <n>              solution-set enumeration or verification
    examples wreath|manning|ex42  the product-action constructions

Group specs are either a named family (cyclic:6, dihedral:8, wreath:5,
sym:7, affine:9:2) or explicit cycle-notation generators separated by
semicolons, e.g. "(0,1,2,3)(4,5);(0,4)".

A process runs one subcommand, and builds the argument parser of that one
alone (`build_parser`); help and errors before a subcommand name get the
whole tree.  Usage lines and error messages read the same either way.

Exit codes: 0 success (all verdicts hold), 1 a mathematical verdict
failed, 2 usage or input error (including an input past a stated budget
or too large to hold in memory), 3 internal error (a checked invariant
broke, or any other unexpected exception; never a verdict), 141 the
reader closed stdout early, as `| head` does (128 + SIGPIPE, what a shell
reports for a filter that SIGPIPE ended; nothing is printed).
Sweep output is one JSON object per line so long runs can be monitored;
results are canonically ordered and independent of the worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import traceback

from . import coprime, method, nullsets, permgroup, ramanujan

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141


def _family_points(head: str, d: int) -> int:
    """Points of the named family at d: d^2 for wreath and manning (when
    d > 0, so a bad d reaches the constructor's own error), d otherwise."""
    return d * d if head in ("wreath", "manning") and d > 0 else d


def parse_group(spec: str) -> permgroup.PermGroup:
    """A named family, cycle-notation generators, or JSON image arrays."""
    if spec.lstrip().startswith("["):
        try:
            images = [tuple(a) for a in json.loads(spec)]
            # `type(i) is int` also refuses true/false, which are ints to Python
            if any(type(i) is not int for a in images for i in a):
                raise ValueError("images must be integers")
            gens = [permgroup.Permutation(a) for a in images]
            if not gens:
                raise ValueError("no generators given")
            return permgroup.PermGroup(gens[0].degree, tuple(gens), name="custom")
        # json raises RecursionError, an internal error by type, on deep nesting
        except (TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"bad image-array group spec: {exc}") from None
    head, _, rest = spec.partition(":")
    families = {
        "cyclic": permgroup.cyclic,
        "dihedral": permgroup.dihedral,
        "sym": permgroup.symmetric,
        "wreath": lambda d: permgroup.wreath_product_action(d).group,
    }
    # the degree a spec asks for is checked before any point is built
    if head in families:
        try:
            d = int(rest)
        except ValueError:
            raise ValueError(f"expected {head}:<degree>, got {spec!r}") from None
        permgroup.check_point_budget(_family_points(head, d))
        return families[head](d)
    if head == "affine":
        try:
            d_text, s_text = rest.split(":")
            d, s = int(d_text), int(s_text)
        except ValueError:
            raise ValueError(f"expected affine:<degree>:<multiplier>, got {spec!r}") from None
        permgroup.check_point_budget(d)
        return permgroup.affine(d, s)
    if spec.lstrip().startswith("("):
        gens = permgroup.parse_generators(spec)
        return permgroup.PermGroup(gens[0].degree, tuple(gens), name="custom")
    raise ValueError(f"unrecognised group spec {spec!r}")


class _Output:
    def __init__(self, path: str | None):
        self.path = path
        self.handle = open(path, "w") if path else sys.stdout

    def line(self, text: str) -> None:
        self.handle.write(text + "\n")
        self.handle.flush()  # sweeps stream one line per result

    def close(self) -> None:
        if self.path:
            self.handle.close()


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _blocks_dict(system: permgroup.BlockSystem | None):
    if system is None:
        return None
    return {
        "size": system.block_size,
        "count": system.block_count,
        "blocks": system.blocks(),
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_ramanujan(args, out: _Output) -> int:
    R = ramanujan.matrix_formula(args.d)
    report = ramanujan.structure_identities(R)
    if args.format == "csv":
        out.line(ramanujan.to_csv(R).rstrip("\n"))
    elif args.format == "json":
        payload = ramanujan.to_json_dict(R)
        payload["identities"] = dataclasses.asdict(report)
        out.line(_json(payload))
    else:
        width = max(len(str(v)) for row in R.entries for v in row)
        header = " ".join(f"{c:>{width}}" for c in R.divisors)
        out.line(f"R({args.d})   columns: {header}")
        for r, row in zip(R.divisors, R.entries):
            cells = " ".join(f"{v:>{width}}" for v in row)
            out.line(f"row {r:>4}: {cells}")
        out.line(f"identities ok: {report.ok}")
        for f in report.failures:
            out.line(f"  failure: {f}")
    return EXIT_OK if report.ok else EXIT_VERDICT


def _cmd_conjecture(args, out: _Output) -> int:
    failed = False
    for r in coprime.iter_verify_range(args.max_d, jobs=args.jobs):
        failed = failed or not r.holds
        if args.format == "pretty":
            masks = ", ".join("{" + ",".join(map(str, m)) + "}" for m in r.coprime_masks)
            out.line(
                f"d={r.d}: {'holds' if r.holds else 'FAILS'} "
                f"({r.subsets_scanned} subsets, coprime: {masks}, {r.millis} ms)"
            )
        else:
            out.line(_json(r.to_json_dict()))
    return EXIT_VERDICT if failed else EXIT_OK


def _cmd_suborbits(args, out: _Output) -> int:
    G = parse_group(args.group)
    subs = permgroup.suborbits(G, base=args.base)
    payload = {
        "group": G.name or args.group,
        "degree": G.degree,
        "base": args.base,
        "suborbits": subs,
        "sizes": sorted(len(s) for s in subs),
    }
    if args.format == "pretty":
        out.line(f"{payload['group']} (degree {G.degree}), base {args.base}:")
        for s in subs:
            out.line(f"  size {len(s)}: {s}")
    else:
        out.line(_json(payload))
    return EXIT_OK


def _cmd_diagnose(args, out: _Output) -> int:
    G = parse_group(args.group)
    # without --cycle, the first generator is the canonical full cycle
    g = permgroup.parse_permutation(args.cycle, G.degree) if args.cycle else None
    report = method.diagnose(G, g)
    payload = {
        "group": report.group,
        "degree": report.degree,
        "cycle": "(" + ",".join(map(str, report.relabelling)) + ")",  # str(g): one cycle from 0
        "verdict": report.verdict,
        "blocks": _blocks_dict(report.blocks),
        "suborbits": [list(o) for o in report.suborbits],
        "basis_classes": [list(c) for c in report.basis_classes],
        "orbit_rows": list(report.orbit_rows.rows) if report.orbit_rows else None,
        "relabelling": list(report.relabelling),
    }
    if args.format == "pretty":
        out.line(f"{payload['group']} (degree {report.degree}): {report.verdict}")
        if report.blocks:
            out.line(f"  blocks: {report.blocks.blocks()}")
        out.line(f"  suborbit sizes: {sorted(len(o) for o in report.suborbits)}")
        out.line(f"  basis classes: {payload['basis_classes']}")
    else:
        out.line(_json(payload))
    return EXIT_VERDICT if report.verdict == "counterexample" else EXIT_OK


def _cmd_nullsets(args, out: _Output) -> int:
    if args.verify:
        rep = nullsets.verify_classification(args.p, args.n)
        payload = dataclasses.asdict(rep)
        payload["verdict"] = "holds" if rep.ok else "fails"
        if args.format == "pretty":
            out.line(
                f"p={rep.p} n={rep.n}: {payload['verdict']} "
                f"({rep.solution_count} solutions, smallest nonempty "
                f"{rep.smallest_nonempty}, {rep.millis} ms)"
            )
        else:
            out.line(_json(payload))
        return EXIT_OK if rep.ok else EXIT_VERDICT
    sols = nullsets.enumerate_solutions(args.p, args.n)
    for O in sols:
        cls = nullsets.classify(O)
        payload = {
            "p": args.p,
            "n": args.n,
            "set": list(O.members),
            "class": cls.kind,
        }
        if cls.remainder is not None:
            payload["certificate"] = {
                "s": cls.remainder.s,
                "grid": [list(row) for row in cls.remainder.grid],
            }
        if cls.residue_reps is not None:
            payload["residue_reps"] = list(cls.residue_reps)
        if args.format == "pretty":
            out.line(f"{sorted(O.members)}: {cls.kind}")
        else:
            out.line(_json(payload))
    return EXIT_OK


def _cmd_examples(args, out: _Output) -> int:
    name = args.name
    d = 3 if args.d is None else args.d
    permgroup.check_point_budget(_family_points(name, d))
    if name == "wreath":
        W = permgroup.wreath_product_action(d)
        subs = permgroup.suborbits(W.group)
        payload = {
            "construction": "wreath",
            "d": d,
            "degree": d * d,
            "encoding": "pair (i, j) is the point i*d + j",
            "primitive": permgroup.first_nontrivial_blocks(W.group, subs) is None,
            "two_transitive": len(subs) == 2,
            "suborbit_sizes": sorted(len(s) for s in subs),
            "embedded_regular": permgroup.regular_check(
                d * d, list(W.embedded_abelian)
            ),
        }
        ok = (
            payload["primitive"]
            and not payload["two_transitive"]
            and payload["embedded_regular"]
        ) or d == 2
    elif name == "manning":
        rep = method.manning_invariance_check(d)
        payload = {
            "construction": "manning",
            "d": d,
            "middle_class": [list(x) for x in rep.middle_class],
            "galois_invariant": rep.galois_invariant,
            "violation": [list(x) for x in rep.violation] if rep.violation else None,
        }
        ok = rep.galois_invariant and (rep.violation is not None or d <= 2)
    else:  # ex42
        if args.d not in (None, 4):
            raise ValueError("the three-generator counterexample is specific to d=4")
        W = permgroup.wreath_product_action(4)
        subs = permgroup.suborbits(W.group)
        a = W.embedded_abelian[0]
        k1 = permgroup.second_coordinate_perm(
            permgroup.parse_permutation("(0,1)(2,3)", 4), 4
        )
        k2 = permgroup.second_coordinate_perm(
            permgroup.parse_permutation("(0,2)(1,3)", 4), 4
        )
        payload = {
            "construction": "ex42",
            "d": 4,
            "degree": 16,
            "generators": [str(a), str(k1), str(k2)],
            # (a, k2, k1) are the unit translations of Z_4 x Z_2 x Z_2 on the
            # pair labels, so the check takes the translation path, no search
            "regular_c4xc2xc2": permgroup.regular_check(16, [a, k2, k1]),
            "primitive": permgroup.first_nontrivial_blocks(W.group, subs) is None,
            "two_transitive": len(subs) == 2,
        }
        ok = (
            payload["regular_c4xc2xc2"]
            and payload["primitive"]
            and not payload["two_transitive"]
        )
    payload["verdict"] = "holds" if ok else "fails"
    if args.format == "pretty":
        for key, value in payload.items():
            out.line(f"{key}: {value}")
    else:
        out.line(_json(payload))
    return EXIT_OK if ok else EXIT_VERDICT


# ---------------------------------------------------------------------------


# the subcommands, in the order the root help lists them
SUBCOMMANDS = ("ramanujan", "conjecture", "suborbits", "diagnose", "nullsets", "examples")


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The root parser with the subparser of `command` only, or with all of
    them when `command` is None, built once per process and command.

    A process runs one subcommand, so `run` builds that one's parser; help
    and errors before a subcommand name get the whole tree.  Every usage
    line and error message is the same either way: a subparser's prog
    ("burnside diagnose") comes from the root usage, which has no
    positionals, and a partial tree's usage still names every subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="burnside",
        description="Exact computations with Ramanujan matrices, divisor "
        "partitions, suborbit dualities and cyclotomic solution sets.",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        # None lets argparse list the choices and name the argument "command"
        metavar=None if command is None else "{" + ",".join(SUBCOMMANDS) + "}",
    )

    def add_common(p, default_format, formats=("json", "pretty")):
        p.add_argument(
            "--format",
            choices=formats,
            default=default_format,
            help=f"output format (default {default_format})",
        )
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker count for conjecture; accepted and unused elsewhere "
            "(default 1)",
        )

    if command in (None, "ramanujan"):
        p = sub.add_parser("ramanujan", help="print R(d) and its identity report")
        p.add_argument("d", type=int)
        add_common(p, "pretty", ("json", "csv", "pretty"))

    if command in (None, "conjecture"):
        p = sub.add_parser("conjecture", help="coprime-partition sweep over even degrees")
        p.add_argument("--max-d", type=int, required=True, dest="max_d")
        add_common(p, "json")

    if command in (None, "suborbits"):
        p = sub.add_parser("suborbits", help="stabiliser orbits of a group")
        p.add_argument("--group", required=True)
        p.add_argument("--base", type=int, default=0)
        add_common(p, "json")

    if command in (None, "diagnose"):
        p = sub.add_parser("diagnose", help="imprimitive / 2-transitive dichotomy")
        p.add_argument("--group", required=True)
        p.add_argument("--cycle", default=None, help="a full cycle in cycle notation")
        add_common(p, "json")

    if command in (None, "nullsets"):
        p = sub.add_parser("nullsets", help="enumerate or verify solution sets")
        p.add_argument("p", type=int)
        p.add_argument("n", type=int)
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--enumerate", action="store_true")
        mode.add_argument("--verify", action="store_true")
        add_common(p, "json")

    if command in (None, "examples"):
        p = sub.add_parser("examples", help="the product-action constructions")
        p.add_argument("name", choices=["wreath", "manning", "ex42"])
        p.add_argument("--d", type=int, default=None)
        add_common(p, "json")

    return parser


def run(argv: list[str]) -> int:
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or help
        return exc.code
    out = None
    try:
        out = _Output(args.out)
        # subcommand X is handled by _cmd_X, looked up at each call
        return globals()[f"_cmd_{args.command}"](args, out)
    except BrokenPipeError:
        # stdout points at devnull from here on, so that the interpreter's
        # last flush of what is still buffered has somewhere to go
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a checked invariant broke, or a bug: never a verdict
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    finally:
        if out is not None:
            out.close()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
