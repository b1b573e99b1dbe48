import argparse
import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import burnside
from burnside import cli, coprime, method, nullsets, permgroup, ramanujan
from helpers import masked_report_lines, run_cli, scalar_column_classes


class TestRamanujanCommand:
    def test_csv_golden(self):
        code, out = run_cli(["ramanujan", "4", "--format", "csv"])
        assert code == 0
        assert out == "divisor,1,2,4\n1,1,1,1\n2,-1,1,1\n4,0,-2,2\n"

    def test_json(self):
        code, out = run_cli(["ramanujan", "12", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["divisors"] == [1, 2, 3, 4, 6, 12]
        assert obj["identities"]["column_sums_ok"] is True

    def test_pretty(self):
        code, out = run_cli(["ramanujan", "9"])
        assert code == 0
        assert "identities ok: True" in out

    def test_degree_past_budget_refused_before_factorising(self, capsys):
        # 10^18 + 3 is prime: trial division would run for hours
        start = time.perf_counter()
        code, out = run_cli(["ramanujan", str(10**18 + 3)])
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_USAGE and out == ""
        assert "exceeds the factorisation budget of 2^40" in capsys.readouterr().err

    def test_divisor_count_past_budget_refused(self, capsys):
        # 6 720 divisors: R(d) would hold 45 M Python ints
        start = time.perf_counter()
        code, out = run_cli(["ramanujan", "963761198400"])
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_USAGE and out == ""
        err = capsys.readouterr().err
        assert f"6720 divisors, beyond the budget of {ramanujan.MAX_DIVISORS}" in err

    @pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
    @pytest.mark.parametrize("d", ["12", "16"])
    def test_matrix_built_once(self, d, fmt, monkeypatch):
        expected = run_cli(["ramanujan", d, "--format", fmt])
        real = ramanujan.matrix_formula
        calls = []

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(ramanujan, "matrix_formula", counting)
        assert run_cli(["ramanujan", d, "--format", fmt]) == expected
        assert calls == [int(d)]


class TestConjectureCommand:
    def test_small_sweep(self):
        code, out = run_cli(["conjecture", "--max-d", "20"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10
        for line in lines:
            obj = json.loads(line)
            assert obj["verdict"] == "holds"
            assert obj["coprime"] == [list(range_divisors(obj["d"]))]

    def test_pretty_format(self):
        code, out = run_cli(["conjecture", "--max-d", "6", "--format", "pretty"])
        assert code == 0
        assert "d=6: holds" in out

    def test_worker_counts_agree(self):
        outputs = []
        for jobs in ("1", "4"):
            code, out = run_cli(["conjecture", "--max-d", "40", "--jobs", jobs])
            assert code == 0
            outputs.append(masked_report_lines(out))
        assert outputs[0] == outputs[1]

    def test_bad_bound(self):
        code, _ = run_cli(["conjecture", "--max-d", "1"])
        assert code == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scan_bound_is_usage_error(self, jobs, monkeypatch, capsys):
        # d = 24 has 8 divisors, 6 free rows; every smaller even degree has
        # at most 4.
        monkeypatch.setattr(coprime, "MAX_FREE_ROWS", 4)
        code, out = run_cli(["conjecture", "--max-d", "24", "--jobs", jobs])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: 24 has 6 free divisor rows")
        assert out == ""  # refused before the sweep reaches degree 2


def range_divisors(d):
    return [e for e in range(1, d + 1) if d % e == 0]


class TestSuborbitsCommand:
    def test_named_group(self):
        code, out = run_cli(["suborbits", "--group", "dihedral:4"])
        assert code == 0
        obj = json.loads(out)
        assert obj["suborbits"] == [[0], [1, 3], [2]]

    @pytest.mark.parametrize(
        "base, want",
        [("0", [[0], [1, 11], [2, 10], [3, 9], [4, 8], [5, 7], [6]]),
         ("3", [[0, 6], [1, 5], [2, 4], [3], [7, 11], [8, 10], [9]])],
    )
    def test_translation_is_not_walked(self, base, want, monkeypatch):
        # the rotation of a named family is x -> x + 1: positions from `base`
        # are x - base mod m
        real, walks = permgroup.cycle_points, []
        monkeypatch.setattr(permgroup, "cycle_points", lambda g, start: walks.append(start) or real(g, start))
        code, out = run_cli(["suborbits", "--group", "dihedral:12", "--base", base])
        assert (code, json.loads(out)["suborbits"], walks) == (0, want, [])

    def test_explicit_generators(self):
        code, out = run_cli(["suborbits", "--group", "(0,1,2,3,4);(1,4)(2,3)"])
        assert code == 0
        obj = json.loads(out)
        assert obj["degree"] == 5 and obj["sizes"] == [1, 2, 2]

    def test_wreath(self):
        code, out = run_cli(["suborbits", "--group", "wreath:4"])
        assert code == 0
        assert json.loads(out)["sizes"] == [1, 6, 9]

    def test_image_array_spec(self):
        code, out = run_cli(["suborbits", "--group", "[[1,2,3,0],[0,3,2,1]]"])
        assert code == 0
        assert json.loads(out)["suborbits"] == [[0], [1, 3], [2]]
        code, _ = run_cli(["suborbits", "--group", "[[1,1,0]]"])
        assert code == 2

    def test_bad_spec(self):
        code, _ = run_cli(["suborbits", "--group", "frobnicate:9"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["suborbits", "--group", "[[1.0,0.0]]"],
            ["diagnose", "--group", "[[1.0,2.0,3.0,0.0]]"],
            ["suborbits", "--group", "[[true,false]]"],
        ],
    )
    def test_non_integer_images_rejected(self, argv, capsys):
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: bad image-array group spec: images must be integers")

    @pytest.mark.parametrize(
        "group, message",
        [
            ("[[]]", "bad image-array group spec: a group needs at least one point"),
            ("affine:0:1", "degree must be at least 2"),
            ("affine:1:1", "degree must be at least 2"),
            ("affine:-3:1", "degree must be at least 2"),
        ],
    )
    def test_group_without_points_rejected(self, group, message, capsys):
        code, out = run_cli(["suborbits", "--group", group])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_deeply_nested_json_is_usage_error(self, capsys):
        code, out = run_cli(["suborbits", "--group", "[" * 3000 + "]" * 3000])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: bad image-array group spec")

    @pytest.mark.parametrize("group, base", [("cyclic:6", "10"), ("dihedral:5", "-1")])
    def test_base_out_of_range(self, group, base, capsys):
        code, out = run_cli(["suborbits", "--group", group, "--base", base])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: base point") and "Traceback" not in err

    # built before the check, these would be 10^9 points (10^12 for wreath)
    @pytest.mark.parametrize(
        "spec, points",
        [("cyclic:1000000000", 10**9), ("wreath:1000000", 10**12),
         ("affine:1000000000:3", 10**9), ("(0,1000000000)", 10**9 + 1)],
    )
    @pytest.mark.parametrize("command", ["suborbits", "diagnose"])
    def test_spec_degree_refused_before_building(self, command, spec, points, capsys):
        start = time.perf_counter()
        code, out = run_cli([command, "--group", spec])
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_USAGE and out == ""
        err = capsys.readouterr().err
        assert f"degree {points} exceeds the point budget of {permgroup.MAX_DEGREE}" in err

    def test_wreath_example_refused_before_building(self, capsys):
        start = time.perf_counter()
        code, out = run_cli(["examples", "wreath", "--d", "1000000"])
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_USAGE and out == ""
        assert "point budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["examples", "wreath", "--d", "-200"], ["suborbits", "--group", "wreath:-200"]]
    )
    def test_negative_wreath_degree_reaches_constructor(self, argv, capsys):
        # (-200)^2 is past the budget, but the error names the bad d itself
        code, out = run_cli(argv)
        assert code == cli.EXIT_USAGE and out == ""
        err = capsys.readouterr().err
        assert "degree must be at least 2" in err and "point budget" not in err


# suborbits {0}, {1, 4}, {2, 5}, {3}: 4 is no unit mod 6, so no group of
# units has them as orbits, and the column classes come from the evaluation
NON_ORBIT = "(0,1,2,3,4,5);(0,3)"


class TestDiagnoseCommand:
    def test_named_default_cycle(self):
        code, out = run_cli(["diagnose", "--group", "dihedral:6"])
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "imprimitive"
        assert obj["orbit_rows"] == [2]

    def test_explicit_cycle(self):
        code, out = run_cli(
            ["diagnose", "--group", "sym:4", "--cycle", "(0,1,2,3)"]
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "two_transitive"

    def test_affine(self):
        code, out = run_cli(["diagnose", "--group", "affine:15:2"])
        assert code == 0
        assert json.loads(out)["verdict"] in ("imprimitive", "two_transitive")

    def test_blocks_numbered_by_least_point(self):
        code, out = run_cli(["diagnose", "--group", "affine:8:5"])
        assert code == 0
        assert json.loads(out)["blocks"]["blocks"] == [[0, 2, 4, 6], [1, 3, 5, 7]]

    def test_prime_degree_rejected(self):
        code, _ = run_cli(["diagnose", "--group", "dihedral:7"])
        assert code == 2

    def test_wreath_needs_cycle(self):
        code, _ = run_cli(["diagnose", "--group", "wreath:3"])
        assert code == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("(0,1)(2,3)", "no canonical full cycle"),
            ("[[1,0,3,2],[1,2,3,0]]", "no canonical full cycle"),  # only the second is one
            ("[[0]]", "composite degrees, got 1"),  # one point: its identity is a full cycle
        ],
    )
    def test_no_default_cycle_is_usage_error(self, spec, message, capsys):
        assert run_cli(["diagnose", "--group", spec]) == (cli.EXIT_USAGE, "")
        assert message in capsys.readouterr().err

    def test_affine_reason_reported(self, capsys):
        code, _ = run_cli(["diagnose", "--group", "affine:9:3"])
        assert code == 2
        assert "not coprime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, evaluated",
        [("dihedral:16", 0), ("cyclic:16", 0), ("affine:24:7", 0), ("sym:16", 0),
         ("sym:24", 0), ("affine:27:2", 0), ("affine:32:3", 0), (NON_ORBIT, 1)],
    )
    def test_orbit_groups_skip_the_evaluation(self, spec, evaluated, monkeypatch):
        # the benchmark's families at small degree take `_orbit_classes`
        real, calls = method._evaluation_prime, []
        monkeypatch.setattr(method, "_evaluation_prime", lambda *a: calls.append(a) or real(*a))
        assert run_cli(["diagnose", "--group", spec])[0] == 0
        assert len(calls) == evaluated

    def test_benchmark_digests_unchanged(self, monkeypatch):
        # the canonical results the benchmark checks, named and relabelled
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclass
        spec.loader.exec_module(workloads)
        for name, (verdict, _, digest) in workloads.DIAGNOSE_EXPECT.items():
            code, out = run_cli(["diagnose", "--group", name])
            payload = json.loads(out)
            assert code == 0 and payload["verdict"] == verdict, name
            assert workloads.diagnose_digest(payload) == digest, name
        for workload in ("diagnose-sparse", "diagnose-dense"):
            for inst in workloads.instances(workload, seed=1):
                code, out = run_cli(list(inst.argv))
                assert workloads.check(inst, code, out) == (1, 0, []), inst.label

    @pytest.mark.parametrize("spec", ["dihedral:12", "sym:12", "affine:27:2", "[[1,2,3,0],[3,2,1,0]]"])
    def test_cycle_walked_once(self, spec, monkeypatch):
        # the relabelling walks the first generator; the suborbits and the
        # blocks read the positions off the translation it becomes
        real, walks = permgroup.cycle_points, []
        monkeypatch.setattr(permgroup, "cycle_points", lambda g, start: walks.append(start) or real(g, start))
        assert run_cli(["diagnose", "--group", spec])[0] == 0
        assert len(walks) == 1

    def test_evaluation_reads_no_reduction_table(self, monkeypatch):
        # p comes from the norm bound alone: the largest suborbit of
        # NON_ORBIT has 2 points, so p > 4, and no sum is reduced mod Phi_d
        G = cli.parse_group(NON_ORBIT)
        M = method.suborbit_sums(G, G.generators[0])
        true = [list(c) for c in scalar_column_classes(M.suborbits, (M.d,))]

        def no_reduction(x):
            raise AssertionError("reduced_coeffs called")

        monkeypatch.setattr(method.cyclotomic, "reduced_coeffs", no_reduction)
        real, calls = method._evaluation_prime, []

        def spy(*args):
            calls.append(args + real(*args))
            return calls[-1][2:]

        monkeypatch.setattr(method, "_evaluation_prime", spy)
        code, out = run_cli(["diagnose", "--group", NON_ORBIT])
        assert code == 0
        (L, largest, p, omega), = calls
        assert (L, largest) == (6, 2)
        assert p > 2 * largest and p % L == 1
        assert pow(omega, 2, p) != 1 and pow(omega, 3, p) != 1 and pow(omega, 6, p) == 1
        assert json.loads(out)["basis_classes"] == true == [[0], [1, 3, 5], [2], [4]]

    def test_too_small_prime_merges_classes(self, monkeypatch, capsys):
        # z -> 2 mod 3 is a ring map from Z[z_6] (Phi_6(2) = 3), but 3 is
        # not above 2 * 2 = 4: the sums 2z^4 and 2z^2 of the suborbit {2, 5}
        # at columns 2 and 4 both map to 2, and the other evaluated rows
        # ({0}, {3}; the largest, {1, 4}, is not evaluated) agree there too,
        # so one class stands for two suborbits.  sym:6 and dihedral:6 no
        # longer reach the evaluation: their suborbits are orbits of unit
        # groups.
        monkeypatch.setattr(method, "_evaluation_prime", lambda L, largest: (3, 2))
        code, out = run_cli(["diagnose", "--group", NON_ORBIT])
        assert code == cli.EXIT_INTERNAL and out == ""
        assert "3 column classes for 4 suborbits" in capsys.readouterr().err

    def test_prime_past_int64_products_is_internal_error(self, monkeypatch, capsys):
        # a suborbit of 2^30 points would need p > 2^31
        real = method._evaluation_prime
        monkeypatch.setattr(method, "_evaluation_prime", lambda L, largest: real(L, 2**30))
        code, out = run_cli(["diagnose", "--group", NON_ORBIT])
        assert code == cli.EXIT_INTERNAL and out == ""
        assert "is not below 2^31" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "L, largest, outcome",
        [(2, 2**30 - 1, 2**31 - 1), (2, 2**30, "not below 2\\^31"),
         (6, 2**30 - 1, 2**31 - 1), (2, 2**62, "not below 2\\^31")],
        ids=["prime-below-2^31", "prime-past-2^31", "sum-below-2^63", "sum-at-2^63"],
    )
    def test_evaluation_prime_int64_bounds(self, L, largest, outcome):
        # p < 2^31 keeps a product of two residues in int64; with p > 2 *
        # largest it also keeps a suborbit's sum of residues below 2^61, so
        # a largest whose sum could reach 2^63 is refused by the p check
        if isinstance(outcome, str):
            with pytest.raises(RuntimeError, match=outcome):
                method._evaluation_prime(L, largest)
        else:
            p, _ = method._evaluation_prime(L, largest)
            assert p == outcome and largest * (p - 1) < 2**61

    def test_cycle_outside_the_group_is_usage_error(self, capsys):
        code, out = run_cli(["diagnose", "--group", "dihedral:6", "--cycle", "(0,2,4,1,3,5)"])
        assert code == cli.EXIT_USAGE and out == ""
        assert "does not preserve the orbitals" in capsys.readouterr().err

    def test_full_cycle_that_is_no_generator(self):
        # r^5 lies in dihedral:12 but is not a generator; relabelled along it,
        # the group leads with x -> x + 1, and the orbital check runs on the
        # group's own generators, whose rotation r is now x -> x + 5
        r5 = permgroup.Permutation(tuple((i + 5) % 12 for i in range(12)))
        code, out = run_cli(["diagnose", "--group", "dihedral:12", "--cycle", str(r5)])
        assert code == 0
        _, default = run_cli(["diagnose", "--group", "dihedral:12"])
        got, want = json.loads(out), json.loads(default)
        assert got["cycle"] != want["cycle"]
        assert (got["verdict"], got["basis_classes"]) == (want["verdict"], want["basis_classes"])

    @pytest.mark.parametrize(
        "spec, cycle",
        [
            ("(0,1,2)(3,4,5);(0,3)(1,4)(2,5)", "(0,4,2,3,1,5)"),  # the README example
            ("(0,1);(1,2,3)", "(0,2,3,1)"),
            ("(0,1)(2,3);(0,2)(1,3);(1,2)", "(0,1,3,2)"),
            ("dihedral:12", "(0,5,10,3,8,1,6,11,4,9,2,7)"),  # r^5
        ],
    )
    def test_cycle_outside_the_generators_takes_the_one_path(self, spec, cycle, monkeypatch):
        # the relabelled group leads with the cycle's translation, so the
        # blocks come from the gcds; besides the relabelling, only the
        # orbital check walks, at most once per generator of the group
        walks, glued = [], []
        real_walk, real_glue = permgroup.cycle_points, permgroup.minimal_blocks
        monkeypatch.setattr(permgroup, "cycle_points", lambda g, start: walks.append(start) or real_walk(g, start))
        monkeypatch.setattr(permgroup, "minimal_blocks", lambda *a: glued.append(a) or real_glue(*a))
        assert run_cli(["diagnose", "--group", spec, "--cycle", cycle])[0] == 0
        assert glued == []
        assert len(walks) <= 1 + len(cli.parse_group(spec).generators)

    @pytest.mark.parametrize("field", ["decomposition_ok", "equivalence_ok"])
    def test_broken_orbit_row_invariant_is_internal_error(self, field, monkeypatch, capsys):
        real = method.orbit_row_subset
        monkeypatch.setattr(method, "orbit_row_subset", lambda M: dataclasses.replace(real(M), **{field: False}))
        assert run_cli(["diagnose", "--group", "dihedral:6"]) == (cli.EXIT_INTERNAL, "")
        assert "orbit-row invariant" in capsys.readouterr().err


class TestNullsetsCommand:
    def test_enumerate(self):
        code, out = run_cli(["nullsets", "2", "2", "--enumerate"])
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert [l["set"] for l in lines] == [[], [1, 2, 3]]
        assert lines[1]["class"] == "layered"

    def test_verify(self):
        code, out = run_cli(["nullsets", "3", "2", "--verify"])
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "holds" and obj["smallest_nonempty"] == 8

    def test_verify_at_the_bound(self):
        # 2^5: 12 870 solutions, and a 3-element one refutes uniqueness
        code, out = run_cli(["nullsets", "2", "5", "--verify"])
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "holds" and obj["solution_count"] == 12870
        assert obj["smallest_nonempty"] == 3 and obj["refutes_unique_solution"]

    def test_default_is_enumerate(self):
        code, out = run_cli(["nullsets", "2", "3"])
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_enumerate_deterministic_across_jobs(self):
        base = run_cli(["nullsets", "2", "4", "--enumerate", "--jobs", "1"])
        for jobs in ("4", "8"):
            assert run_cli(["nullsets", "2", "4", "--enumerate", "--jobs", jobs]) == base

    def test_bad_modulus(self):
        code, _ = run_cli(["nullsets", "4", "2"])
        assert code == 2
        code, _ = run_cli(["nullsets", "2", "9"])
        assert code == 2

    # 10**18 + 3 is past every modulus bound, and 2**(10**12) is a ~125 GB
    # integer: both must be refused from p and n alone, as must 2^6, the
    # first modulus past the bound (C(32, 16) ~ 6e8 solutions)
    @pytest.mark.parametrize("p, n", [(10**18 + 3, 2), (2, 10**12), (2, 6)])
    def test_over_bound_modulus_refused_at_once(self, p, n, monkeypatch, capsys):
        def primality(d):
            raise AssertionError(f"tested {d} for primality before checking the bound")

        monkeypatch.setattr(nullsets.cyclotomic, "is_prime", primality)
        code, out = run_cli(["nullsets", str(p), str(n), "--verify"])
        assert code == cli.EXIT_USAGE and out == ""
        assert "exceeds the enumeration bound 49" in capsys.readouterr().err


class TestExamplesCommand:
    def test_wreath(self):
        code, out = run_cli(["examples", "wreath", "--d", "5"])
        assert code == 0
        obj = json.loads(out)
        assert obj["suborbit_sizes"] == [1, 8, 16]
        assert obj["primitive"] and not obj["two_transitive"]
        assert obj["embedded_regular"] and obj["verdict"] == "holds"

    def test_manning(self):
        code, out = run_cli(["examples", "manning", "--d", "3"])
        assert code == 0
        obj = json.loads(out)
        assert obj["violation"] == [[1, 1], [1, 2]]

    def test_ex42(self):
        code, out = run_cli(["examples", "ex42"])
        assert code == 0
        obj = json.loads(out)
        assert obj["regular_c4xc2xc2"] and obj["verdict"] == "holds"

    def test_ex42_checks_the_translations(self, monkeypatch):
        # the triple passed to regular_check leads with the unit translations
        # of Z_4 x Z_2 x Z_2, so its suborbits take no search
        passed = []
        real = permgroup.regular_check

        def spy(degree, gens):
            passed.append(permgroup.PermGroup(degree, tuple(gens)))
            return real(degree, gens)

        monkeypatch.setattr(permgroup, "regular_check", spy)
        code, out = run_cli(["examples", "ex42"])
        assert code == 0 and json.loads(out)["regular_c4xc2xc2"]
        assert [permgroup.translation_moduli(G) for G in passed] == [(4, 2, 2)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["examples", "wreath", "--d", "4"],
            ["examples", "wreath", "--format", "pretty"],
            ["examples", "ex42"],
        ],
    )
    def test_suborbits_computed_once(self, argv, monkeypatch):
        # regular_check's own call on the embedded subgroup is not counted
        expected = run_cli(argv)
        real = permgroup.suborbits
        calls = []

        def counting(G, base=0):
            if G.name.startswith("wreath"):
                calls.append(G.name)
            return real(G, base)

        monkeypatch.setattr(permgroup, "suborbits", counting)
        assert run_cli(argv) == expected
        assert len(calls) == 1

    def test_manning_budget_before_the_action(self, monkeypatch):
        # --d 1000 asks for 10^6 points: refused before any is built
        def build(d):
            raise AssertionError(f"built the wreath action at d={d}")

        monkeypatch.setattr(permgroup, "wreath_product_action", build)
        start = time.perf_counter()
        code, out = run_cli(["examples", "manning", "--d", "1000"])
        assert code == 2 and out == ""
        assert time.perf_counter() - start < 1.0

    def test_ex42_wrong_degree(self):
        code, _ = run_cli(["examples", "ex42", "--d", "5"])
        assert code == 2

    @pytest.mark.parametrize("name", ["wreath", "manning"])
    @pytest.mark.parametrize("d", ["0", "1"])
    def test_degenerate_degree_rejected(self, name, d):
        code, out = run_cli(["examples", name, "--d", d])
        assert code == 2 and out == ""


class TestPlumbing:
    def test_out_file(self, tmp_path):
        target = tmp_path / "matrix.csv"
        code, out = run_cli(["ramanujan", "4", "--format", "csv", "--out", str(target)])
        assert code == 0 and out == ""
        assert target.read_text().startswith("divisor,1,2,4")

    def test_csv_rejected_elsewhere(self):
        code, _ = run_cli(["conjecture", "--max-d", "4", "--format", "csv"])
        assert code == 2

    def test_parser_built_once(self, monkeypatch, capsys, request):
        built = []

        class CountingParser(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        # argparse's own code names ArgumentParser, so only cli's view of it
        # is replaced; the cache is emptied before and after, so that no
        # parser built elsewhere is counted or one built here kept
        monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=CountingParser))
        cli.build_parser.cache_clear()
        request.addfinalizer(cli.build_parser.cache_clear)
        # a subcommand builds the root parser and its own subparser, once
        for _ in range(2):
            assert run_cli(["diagnose", "--group", "cyclic:4"])[0] == cli.EXIT_OK
        assert built == ["burnside", "burnside diagnose"]
        # the root help builds the whole tree: the root and six subparsers
        built.clear()
        assert run_cli(["--help"])[0] == cli.EXIT_OK
        assert built == ["burnside"] + [f"burnside {name}" for name in cli.SUBCOMMANDS]

        # the handler is looked up per call, so one patched after the
        # parser exists still runs: diagnose's parser is the cached one
        def broken(args, out):
            raise KeyError("k")

        monkeypatch.setattr(cli, "_cmd_diagnose", broken)
        built.clear()
        assert run_cli(["diagnose", "--group", "cyclic:4"]) == (cli.EXIT_INTERNAL, "")
        assert built == []
        assert capsys.readouterr().err.startswith("internal error: ")

        # no environment variable sets a default
        monkeypatch.setenv("BURNSIDE_JOBS", "3")
        assert cli.build_parser().parse_args(["conjecture", "--max-d", "4"]).jobs == 1

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 2

    def test_negative_jobs_clamped(self):
        code, out = run_cli(["conjecture", "--max-d", "8", "--jobs", "-2"])
        assert code == 0 and len(out.strip().splitlines()) == 4

    def test_internal_error_is_not_a_verdict(self, monkeypatch, capsys):
        formula = coprime.matrix_formula

        def broken(d):
            R = formula(d)
            row1 = (1,) * (len(R.divisors) - 1) + (2,)
            return dataclasses.replace(R, entries=(row1,) + R.entries[1:])

        monkeypatch.setattr(coprime, "matrix_formula", broken)
        code, out = run_cli(["conjecture", "--max-d", "4", "--jobs", "1"])
        assert code == cli.EXIT_INTERNAL == 3
        assert "fails" not in out
        assert capsys.readouterr().err.startswith("internal error: row 1 of R(2)")

    @pytest.mark.parametrize(
        "exc, code", [(KeyError("k"), cli.EXIT_INTERNAL), (MemoryError(), cli.EXIT_USAGE)]
    )
    def test_unexpected_exception_is_not_a_verdict(self, exc, code, monkeypatch, capsys):
        def broken(args, out):
            raise exc

        monkeypatch.setattr(cli, "_cmd_conjecture", broken)
        assert run_cli(["conjecture", "--max-d", "4"]) == (code, "")
        prefix = "internal error: " if code == cli.EXIT_INTERNAL else "error: "
        assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("exc", [ZeroDivisionError("zero"), OverflowError("big")])
    def test_arithmetic_error_is_internal(self, exc, monkeypatch, capsys):
        # no input check raises an ArithmeticError, so one is a fault of the
        # program, never a usage error
        def broken(p, n):
            raise exc

        monkeypatch.setattr(nullsets, "enumerate_solutions", broken)
        assert run_cli(["nullsets", "2", "3"]) == (cli.EXIT_INTERNAL, "")
        assert capsys.readouterr().err.startswith(f"internal error: {exc}")

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(burnside.__file__))
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-m", "burnside", "ramanujan", "2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert "identities ok: True" in proc.stdout

    def test_reader_closing_early_ends_quietly(self):
        # `conjecture ... | head -1`: the next line meets a closed pipe while
        # the sweep to 1200 has seconds of degrees left
        src = os.path.dirname(os.path.dirname(burnside.__file__))
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "burnside", "conjecture", "--max-d", "1200"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert json.loads(proc.stdout.readline())["d"] == 2
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
            assert err == b""
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

    def test_commands_leave_numpy_ma_unimported(self):
        # the first np.unique call imports numpy.ma, ~15 ms of every run
        src = os.path.dirname(os.path.dirname(burnside.__file__))
        script = (
            "import contextlib, io, sys\n"
            "from burnside import cli\n"
            "for argv in (['conjecture', '--max-d', '200'], ['nullsets', '3', '3', '--verify'],\n"
            "             ['diagnose', '--group', 'sym:12'], ['diagnose', '--group', 'dihedral:12'],\n"
            "             ['examples', 'wreath']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.run(argv) == 0, argv\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_unwritable_out_path(self):
        code, _ = run_cli(
            ["ramanujan", "4", "--out", "/nonexistent-dir/matrix.csv"]
        )
        assert code == 2


# --- argv fuzzing over a bounded grammar -----------------------------------

SMALL = st.integers(min_value=-3, max_value=12).map(str)
FAMILY_SPEC = st.one_of(
    st.builds(
        "{}:{}".format,
        st.sampled_from(["cyclic", "dihedral", "sym", "wreath", "frob", ""]),
        st.one_of(SMALL, st.sampled_from(["", "x", "2.5"])),
    ),
    st.builds("affine:{}:{}".format, SMALL, SMALL),
    st.sampled_from(["affine:9", "affine:9:2:1", "dihedral", ":", ""]),
)
JSON_SPEC = st.one_of(
    st.lists(st.permutations(range(4)), max_size=3).map(json.dumps),
    st.lists(st.permutations(range(6)), min_size=1, max_size=2).map(json.dumps),
    st.recursive(
        st.one_of(
            st.integers(min_value=-2, max_value=6), st.booleans(), st.none(),
            st.floats(allow_nan=False, width=16), st.text(max_size=2),
        ),
        lambda inner: st.lists(inner, max_size=4),
        max_leaves=12,
    ).map(json.dumps),
    st.sampled_from(["[", "[[1,0]", "[[1,0]]]", "{}", "[{}]"]),
    st.integers(min_value=1, max_value=3000).map(lambda k: "[" * k + "]" * k),
)
CYCLES = st.lists(st.integers(min_value=-1, max_value=7).map(str), max_size=5).map(
    lambda pts: "(" + ",".join(pts) + ")"
)
CYCLE_SPEC = st.one_of(
    st.lists(CYCLES, min_size=1, max_size=3).map(";".join),
    st.sampled_from(["(0,1", "(a,b)", "(0,0)", "()", "(0,1))", ";", "(0,,1)"]),
)
GROUP_SPEC = st.one_of(FAMILY_SPEC, JSON_SPEC, CYCLE_SPEC)
FORMAT = st.sampled_from([[], ["--format", "json"], ["--format", "pretty"],
                          ["--format", "csv"], ["--format", "xml"]])
JOBS = st.sampled_from(["-2", "0", "1", "x"]).map(lambda j: ["--jobs", j])


def _one(values):
    return values.map(lambda v: [v])


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _argv(*parts):
    """Concatenate strategies of argv fragments."""
    return st.tuples(*parts).map(lambda t: [token for part in t for token in part])


WELL_FORMED = st.one_of(
    _argv(st.just(["ramanujan"]), _one(SMALL)),
    _argv(st.just(["conjecture", "--max-d"]), _one(SMALL)),
    _argv(st.just(["suborbits", "--group"]), _one(GROUP_SPEC), _optional("--base", SMALL)),
    _argv(
        st.just(["diagnose", "--group"]), _one(GROUP_SPEC), _optional("--cycle", CYCLE_SPEC)
    ),
    _argv(
        st.just(["nullsets"]), _one(SMALL), _one(SMALL),
        st.sampled_from([[], ["--enumerate"], ["--verify"]]),
    ),
    _argv(
        st.just(["examples"]), _one(st.sampled_from(["wreath", "manning", "ex42", "frob"])),
        _optional("--d", SMALL),
    ),
)
TOKENS = st.lists(
    st.one_of(
        st.sampled_from(["ramanujan", "conjecture", "suborbits", "diagnose", "nullsets",
                         "examples", "wreath", "--group", "--base", "--max-d", "--d",
                         "--cycle", "--enumerate", "--verify", "--format", "--help", "-h"]),
        SMALL,
        GROUP_SPEC,
    ),
    max_size=6,
)
ARGV = _argv(st.one_of(WELL_FORMED, TOKENS), FORMAT, JOBS)


def _parse(parser, argv):
    """parse_args's namespace, or its exit code with what it printed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, stdout.getvalue(), stderr.getvalue()


@given(ARGV, st.lists(SMALL, max_size=1))
@example(["ramanujan", "4"], ["5"])
@settings(max_examples=300)
def test_one_subparser_parses_as_the_whole_tree(argv, stray):
    # run builds only the subparser that argv[0] names; it must give the
    # namespace, or the exit code, help and error text, of the whole tree.
    # A stray positional after a complete command is refused by the root
    # parser, in its own usage, which must still name every subcommand.
    argv = argv + stray
    command = argv[0] if argv and argv[0] in cli.SUBCOMMANDS else None
    assert _parse(cli.build_parser(command), argv) == _parse(cli.build_parser(), argv)


@given(_argv(ARGV, st.lists(SMALL, max_size=1)))
@example(["ramanujan", "4", "5"])
@settings(max_examples=300, deadline=1000)
def test_argv_fuzz_keeps_exit_code_contract(argv):
    # deadline: every argv of this grammar is decided within milliseconds.
    # Exit 3 would mean a checked invariant broke, which no input may cause.
    # The optional stray positional reaches the root parser's refusal of
    # unrecognized arguments, a usage error.
    code, _ = run_cli(argv)
    assert code in (0, 1, 2)
    if argv == ["ramanujan", "4", "5"]:
        assert code == 2
