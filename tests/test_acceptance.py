"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every check is exact; the only tolerances are the
stated runtime budgets.
"""

import json
import random
import time

import pytest

from burnside import coprime, cyclotomic as cy, method, nullsets, permgroup as pg, ramanujan as ra
from helpers import class_of, cyclic_regular_corpus, full_cycle, masked_report_lines, run_cli

WORST_DEGREES = [360, 420, 480, 504, 540, 600]


def report(criterion: int, text: str) -> None:
    print(f"[PASS] criterion {criterion}: {text}")


def test_criterion_01_conjecture_sweep_to_600():
    start = time.perf_counter()
    code, out = run_cli(["conjecture", "--max-d", "600", "--jobs", "8"])
    wall = time.perf_counter() - start
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 300
    for obj in lines:
        assert obj["verdict"] == "holds", obj
        d = obj["d"]
        divisors = [e for e in range(1, d + 1) if d % e == 0]
        assert obj["coprime"] == [divisors], obj  # exactly the full mask
    assert wall < 120, f"8-worker sweep took {wall:.0f}s"
    serial_ms = sum(obj["millis"] for obj in lines)
    assert serial_ms < 600_000, f"single-threaded equivalent {serial_ms}ms"
    for obj in lines:
        if obj["d"] in WORST_DEGREES:
            assert obj["millis"] < 60_000, (obj["d"], obj["millis"])
    report(1, f"conjecture holds for all even d <= 600 "
              f"({wall:.0f}s wall, {serial_ms / 1000:.0f}s summed)")


def test_criterion_02_formula_matches_direct_summation():
    start = time.perf_counter()
    for d in range(1, 201):
        assert ra.matrix_formula(d).entries == ra.matrix_direct(d).entries, d
    wall = time.perf_counter() - start
    assert wall < 30
    report(2, f"matrix oracle equivalence for d <= 200 ({wall:.1f}s)")


def test_criterion_03_prime_power_identities():
    start = time.perf_counter()
    checked = 0
    for d in range(2, 129):
        split = cy.prime_power_split(d)
        if split is None:
            continue
        R = ra.matrix_formula(d)
        rep = ra.structure_identities(R)
        assert rep.ok, (d, rep.failures)
        assert rep.determinant_ok and rep.rotation_inverse_ok and rep.triangular_ok
        p, n = split
        for e in range(n + 1):
            for f in range(n + 1):
                assert R.entry(p**e, p**f) == ra.prime_power_entry(p, n, e, f), (d, e, f)
        checked += 1
    wall = time.perf_counter() - start
    assert wall < 10 and checked >= 40
    report(3, f"column sums, determinant, rotation inverse, triangular "
              f"factorisation and the piecewise entries of R(p^n) (0 below the "
              f"subdiagonal, -p^(e-1) on it, (p-1)p^(e-1) on and above the "
              f"diagonal) for {checked} prime powers <= 128 ({wall:.1f}s)")


def test_criterion_04_tensor_factorisation():
    for d in range(2, 201):
        assert ra.tensor_check(d), d
    report(4, "Kronecker factorisation of R(d) for all d <= 200")


def test_criterion_05_solution_set_classification():
    budgets = {(3, 3): 300.0}
    summaries = []
    for p, n in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]:
        start = time.perf_counter()
        rep = nullsets.verify_classification(p, n)
        wall = time.perf_counter() - start
        assert rep.ok, (p, n, rep)
        assert wall < budgets.get((p, n), 120.0), (p, n, wall)
        summaries.append(f"{p}^{n}:{rep.solution_count}")
        if (p, n) == (2, 2):
            sols = nullsets.enumerate_solutions(2, 2)
            assert [s.mask for s in sols] == [0, 0b1110]
        if (p, n) == (3, 2):
            assert rep.smallest_nonempty == 8  # p^2 - 1
    report(5, "solution sets classify as balanced/layered at " + ", ".join(summaries))


def test_criterion_06_wreath_counterexamples():
    start = time.perf_counter()
    for d in range(3, 9):
        W = pg.wreath_product_action(d)
        assert pg.is_primitive(W.group), d
        subs = pg.suborbits(W.group)
        assert sorted(len(s) for s in subs) == [1, 2 * (d - 1), (d - 1) ** 2], d
        assert len(subs) == 3, d  # not 2-transitive
        assert pg.regular_check(d * d, list(W.embedded_abelian)), d
    code, out = run_cli(["examples", "ex42"])
    assert code == 0 and json.loads(out)["regular_c4xc2xc2"]
    wall = time.perf_counter() - start
    assert wall < 10
    report(6, f"product actions 3 <= d <= 8 primitive, not 2-transitive, "
              f"with regular embeddings ({wall:.1f}s)")


def test_criterion_07_basis_set_duality():
    for d in range(3, 7):
        W = pg.wreath_product_action(d)
        a, b = W.embedded_abelian
        std = method.pair_basis_partition(W.group, a, b)
        expected_b = tuple(
            sorted([(j, 0) for j in range(1, d)] + [(0, j) for j in range(1, d)])
        )
        assert class_of(std, (1, 0)) == expected_b, d
        man = method.pair_basis_partition(W.group, a, pg.compose(a, b))
        expected_c = tuple(
            sorted([(j, j) for j in range(1, d)] + [(0, j) for j in range(1, d)])
        )
        assert class_of(man, (0, 1)) == expected_c, d
        rep = method.manning_invariance_check(d)
        assert rep.galois_invariant and rep.violation is not None, d
    rep2 = method.manning_invariance_check(2)
    assert rep2.violation is None
    report(7, "pair basis sets match the known mixed classes for 3 <= d <= 6; "
              "independent-scaling violations found exactly for d > 2")


def test_criterion_08_dichotomy_on_corpus():
    start = time.perf_counter()
    corpus = cyclic_regular_corpus(100)
    assert len(corpus) >= 30
    corpus += [(G, full_cycle(1024)) for G in (pg.dihedral(1024), pg.symmetric(1024), pg.affine(1024, 3))]
    verdicts = {"imprimitive": 0, "two_transitive": 0}
    for G, g in corpus:
        rep = method.diagnose(G, g)
        assert rep.verdict != "counterexample", G.name
        verdicts[rep.verdict] += 1
        # Burnside's block argument: a basis class other than {0} made only
        # of p-divisible indices, for a prime p | d, predicts blocks, and
        # the gluing of 0 and d/p confirms them
        M = method.suborbit_sums(G, g)
        primes = [q for q in ra.divisor_data(G.degree).divisors if cy.is_prime(q)]
        predictions = [method.predict_blocks_from_basis(M, q) for q in primes]
        assert all(pred.confirmed for pred in predictions if pred.predicted), G.name
        assert any(pred.predicted for pred in predictions) == (rep.verdict == "imprimitive"), G.name
    wall = time.perf_counter() - start
    assert wall < 60
    report(8, f"{len(corpus)} groups diagnosed ({verdicts['imprimitive']} "
              f"imprimitive, {verdicts['two_transitive']} 2-transitive, "
              f"0 counterexamples, {wall:.1f}s); a basis class of p-divisible "
              f"indices predicts blocks, confirmed, exactly for the imprimitive "
              f"ones (Burnside's imprimitivity argument)")


def test_criterion_09_cyclotomic_property_suite():
    start = time.perf_counter()

    # progression-sum identities for every prime power <= 81
    for q in [4, 8, 16, 32, 64, 9, 27, 81, 25, 49]:
        p, n = cy.prime_power_split(q)
        for r in range(1, p ** (n - 1)):
            base = cy.from_indices(q, cy.ProgressionSet(p, n, r).elements)
            assert cy.is_zero(base), (q, r)
            for m in range(1, n):
                for c in range(1, q):
                    if c % p == 0:
                        continue
                    j = (p**m * c) % q
                    expected = [0] * q
                    expected[(r * j) % q] = p
                    assert cy.power_map(base, j).coeffs == tuple(expected), (q, r, m, c)

    # constancy law on 10^4 randomised inputs per prime power, plus
    # projections into the fixed subfield to exercise the non-vacuous branch
    rng = random.Random(99)
    for q in [4, 8, 9, 16, 25, 27]:
        p, _ = cy.prime_power_split(q)
        for _ in range(10_000):
            x = cy.CycSum(q, tuple(rng.randrange(-20, 21) for _ in range(q)))
            assert cy.progression_constancy_check(x)
        for _ in range(1_000):
            x = cy.CycSum(q, tuple(rng.randrange(-20, 21) for _ in range(q)))
            acc = [0] * q
            for s in range(1, q, p):
                for i, a in enumerate(cy.power_map(x, s).coeffs):
                    acc[i] += a
            assert cy.progression_constancy_check(cy.CycSum(q, tuple(acc)))

    # unit scalings permute the suborbits on the whole corpus
    for G, g in cyclic_regular_corpus(100):
        assert method.galois_orbit_action_check(method.suborbit_sums(G, g)), G.name

    wall = time.perf_counter() - start
    assert wall < 60, f"{wall:.0f}s"
    report(9, f"progression identities to 81, 6x10^4 constancy checks, "
              f"Galois orbit action on the corpus ({wall:.1f}s)")


def test_criterion_10_determinism_across_worker_counts():
    sweep_outputs = []
    for jobs in ("1", "4", "8"):
        code, out = run_cli(["conjecture", "--max-d", "240", "--jobs", jobs])
        assert code == 0
        sweep_outputs.append(masked_report_lines(out))
    assert sweep_outputs[0] == sweep_outputs[1] == sweep_outputs[2]
    report(10, "sweep byte-identical (timing masked) across 1, 4 and 8 workers")
