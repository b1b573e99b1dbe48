import hashlib
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside import cyclotomic as cy
from burnside import method as me
from burnside import permgroup as pg
from helpers import (
    class_of,
    cyclic_regular_corpus,
    exhaustive_first_blocks,
    full_cycle,
    orbit_sum,
    random_relabelling,
    scalar_column_classes,
)


def reduced_constant(d, value):
    return cy.reduced_coeffs(cy.from_indices(d, [0] * abs(value))) if value >= 0 else tuple(
        -v for v in cy.reduced_coeffs(cy.from_indices(d, [0] * -value))
    )


class TestSuborbitSums:
    def test_column_zero_is_sizes(self):
        M = me.suborbit_sums(pg.dihedral(8), full_cycle(8))
        for oi, orbit in enumerate(M.suborbits):
            entry = cy.reduced_coeffs(orbit_sum(M, oi, 0))
            assert entry[0] == len(orbit) and not any(entry[1:])

    def test_two_transitive_row_reduces_to_minus_one(self):
        M = me.suborbit_sums(pg.symmetric(6), full_cycle(6))
        big = M.suborbits.index(tuple(range(1, 6)))
        for j in (1, 5):
            assert cy.reduced_coeffs(orbit_sum(M, big, j)) == reduced_constant(6, -1)

    def test_dihedral4_vanishing_entry(self):
        M = me.suborbit_sums(pg.dihedral(4), full_cycle(4))
        row = M.suborbits.index((1, 3))
        assert not any(cy.reduced_coeffs(orbit_sum(M, row, 1)))

    def test_rejects_non_cycle(self):
        with pytest.raises(ValueError):
            me.suborbit_sums(pg.dihedral(4), pg.parse_permutation("(0,1)(2,3)", 4))

    def test_relabelling_recorded(self):
        # conjugating the group must not change the suborbit size profile
        d = 10
        G = pg.dihedral(d)
        rng = random.Random(7)
        relab = list(range(d))
        rng.shuffle(relab)
        conj = pg.Permutation(tuple(relab))
        gens = tuple(
            pg.compose(pg.compose(pg.inverse(conj), g), conj) for g in G.generators
        )
        H = pg.PermGroup(d, gens, name="conjugated")
        g_image = pg.compose(pg.compose(pg.inverse(conj), full_cycle(d)), conj)
        M = me.suborbit_sums(H, g_image)
        sizes = sorted(len(o) for o in M.suborbits)
        base = sorted(len(o) for o in me.suborbit_sums(G, full_cycle(d)).suborbits)
        assert sizes == base
        assert sorted(M.relabelling) == list(range(d))


class TestBasisPartition:
    def test_symmetric(self):
        M = me.suborbit_sums(pg.symmetric(7), full_cycle(7))
        assert M.column_classes == ((0,), (1, 2, 3, 4, 5, 6))

    def test_dihedral6(self):
        M = me.suborbit_sums(pg.dihedral(6), full_cycle(6))
        assert M.column_classes == ((0,), (1, 5), (2, 4), (3,))

    def test_zero_class_always_singleton(self):
        for G, g in cyclic_regular_corpus(30):
            M = me.suborbit_sums(G, g)
            assert class_of(M.column_classes, 0) == (0,), G.name

    def test_class_count_equals_suborbit_count(self):
        for G, g in cyclic_regular_corpus(40):
            M = me.suborbit_sums(G, g)
            assert len(M.column_classes) == len(M.suborbits), G.name

    def test_sums_constant_on_classes_as_values(self):
        # exact value equality of the sums across each class, for every suborbit
        for G, g in cyclic_regular_corpus(24):
            M = me.suborbit_sums(G, g)
            for cl in M.column_classes:
                for oi in range(len(M.suborbits)):
                    first = orbit_sum(M, oi, cl[0])
                    for j in cl[1:]:
                        assert cy.value_equal(first, orbit_sum(M, oi, j)), (G.name, oi, cl)

    def test_classes_match_scalar_reduction_on_corpus(self):
        for G, g in cyclic_regular_corpus(40):
            M = me.suborbit_sums(G, g)
            assert M.column_classes == scalar_column_classes(M.suborbits, (M.d,)), G.name

    def test_classes_match_scalar_reduction_on_conjugates(self):
        rng = random.Random(20170523)
        for G, g in cyclic_regular_corpus(40):
            M = me.suborbit_sums(*random_relabelling(rng, G, g))
            assert M.column_classes == scalar_column_classes(M.suborbits, (M.d,)), G.name

    @pytest.mark.parametrize(
        "family, digest",
        [
            (pg.dihedral, "d250d3137ad5f8b40ed6cd0b4c594dd754ec391612781d9d653486aa221a31da"),
            (pg.symmetric, "36b64237e7b091706bbc58bd1a0a9fce612b4bc1f4f6067c85a499ae4fcf60ff"),
        ],
        ids=["dihedral", "sym"],
    )
    def test_classes_at_degree_1024_pinned(self, family, digest):
        # sha256 of the classes as the per-column table reduction found them
        # before the evaluation mod p replaced it (513 and 2 classes)
        M = me.suborbit_sums(family(1024), full_cycle(1024))
        assert hashlib.sha256(json.dumps(M.column_classes).encode()).hexdigest() == digest

    def test_cycle_outside_the_group_refused(self):
        # (0,2,4,1,3,5) is a 6-cycle outside D_6 that moves the orbital of
        # (0, 1); the per-column table path returned 6 classes for 4 suborbits
        g = pg.parse_permutation("(0,2,4,1,3,5)", 6)
        with pytest.raises(ValueError, match="does not preserve the orbitals"):
            me.suborbit_sums(pg.dihedral(6), g)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_orbital_check_matches_brute_force(self, data):
        # G = <the full cycle, 0-2 random permutations> is transitive; its
        # orbitals are its orbits on ordered pairs, found by closure here
        d = data.draw(st.integers(4, 10))
        extra = data.draw(st.lists(st.permutations(range(d)), max_size=2))
        G = pg.PermGroup(d, (full_cycle(d),) + tuple(pg.Permutation(tuple(p)) for p in extra))
        g = pg.cycle(data.draw(st.permutations(range(d))), d)
        orbital: dict[tuple[int, int], tuple[int, int]] = {}
        for start in ((x, y) for x in range(d) for y in range(d)):
            if start in orbital:
                continue
            orbital[start], stack = start, [start]
            while stack:
                x, y = stack.pop()
                for h in G.generators:
                    if (h[x], h[y]) not in orbital:
                        orbital[h[x], h[y]] = start
                        stack.append((h[x], h[y]))
        moved = any(orbital[g[x], g[y]] != k for (x, y), k in orbital.items())
        if moved:
            with pytest.raises(ValueError, match="does not preserve the orbitals"):
                me.suborbit_sums(G, g)
        else:
            M = me.suborbit_sums(G, g)
            assert len(M.column_classes) == len(M.suborbits) == len(set(orbital.values()))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_unit_refinement_matches_full_key(self, data):
        # refining by the generators of (Z/L)^* gives the partition keyed by
        # the ids of s*c over every unit s, including the splits it must make
        moduli = data.draw(st.one_of(
            st.tuples(st.integers(2, 200)), st.tuples(st.integers(2, 14), st.integers(2, 14))
        ))
        size = math.prod(moduli)
        ids = np.array(data.draw(st.lists(st.integers(0, data.draw(st.integers(0, 4))),
                                          min_size=size, max_size=size)))
        L = math.lcm(*moduli)
        grid = [divmod(c, moduli[-1]) if len(moduli) == 2 else (c,) for c in range(size)]

        def index(js):
            return js[0] * moduli[1] + js[1] if len(moduli) == 2 else js[0]

        units = [s for s in range(L) if math.gcd(s, L) == 1]
        keys = [tuple(ids[index([s * j % n for j, n in zip(js, moduli)])] for s in units)
                for js in grid]
        refined, count = me._refine_by_units(ids, moduli)
        first: dict = {}
        expected = [first.setdefault(k, len(first)) for k in keys]
        seen: dict = {}
        assert [seen.setdefault(k, len(seen)) for k in refined.tolist()] == expected
        assert count == len(first) and sorted(set(refined.tolist())) == list(range(count))

    def test_greedy_generators_of_the_units(self):
        # for every L <= 200: the generators of the unit mask generate
        # exactly (Z/L)^*, by brute-force closure, and each is the least
        # unit outside the subgroup the earlier ones generate
        for L in range(1, 201):
            units = {s for s in range(L) if math.gcd(s, L) == 1}
            subgroup = {1 % L}
            for s in me._greedy_generators(np.gcd(np.arange(L), L) == 1, L):
                assert s == min(units - subgroup), (L, s)
                while not (grown := {x * s % L for x in subgroup}) <= subgroup:
                    subgroup |= grown
            assert subgroup == units, L

    @pytest.mark.parametrize("d", [4, 12, 64])
    def test_largest_suborbit_never_evaluated(self, d):
        # its row is minus the sum of the others away from column 0
        touched = []

        class Watched(np.ndarray):
            def __getitem__(self, key):
                touched.extend(np.arange(len(self))[key].ravel().tolist())
                return np.asarray(super().__getitem__(key))

        # sym:d takes `_orbit_classes`, so the evaluation is called directly
        M = me.suborbit_sums(pg.symmetric(d), full_cycle(d))
        assert M.suborbits == ((0,), tuple(range(1, d)))
        classes = me._column_classes(M.suborbits, np.arange(d)[:, None].view(Watched), (d,))
        assert touched == [0]
        assert classes == M.column_classes == ((0,), tuple(range(1, d)))

    def test_memory_at_degree_4096(self):
        # leaves no room for a d x phi(d) int64 reduction table (64 MiB here)
        G, g = pg.dihedral(4096), full_cycle(4096)
        tracemalloc.start()
        try:
            M = me.suborbit_sums(G, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(M.column_classes) == 2049
        assert peak < 48 * 2**20, peak


def evaluated_classes(M):
    """M's column classes as the evaluation mod p finds them."""
    return me._column_classes(M.suborbits, np.arange(M.d)[:, None], (M.d,))


class TestOrbitClasses:
    def test_equal_to_evaluation_on_corpus(self):
        # the criterion-08 corpus, each group also under a random labelling;
        # every group in it takes the orbit path
        rng = random.Random(21)
        corpus = cyclic_regular_corpus(100) + [
            (family(1024), full_cycle(1024))
            for family in (pg.dihedral, pg.symmetric, lambda d: pg.affine(d, 3))
        ]
        for G, g in corpus:
            for K, k in ((G, g), random_relabelling(rng, G, g)):
                M = me.suborbit_sums(K, k)
                assert me._orbit_classes(M.suborbits, M.d) is not None, G.name
                assert M.column_classes == evaluated_classes(M), G.name

    @pytest.mark.parametrize("G", [pg.dihedral(4096), pg.affine(4096, 3)], ids=lambda G: G.name)
    def test_equal_to_evaluation_at_4096(self, G):
        # the evaluation also keeps the 48 MiB of test_memory_at_degree_4096
        M = me.suborbit_sums(G)
        assert me._orbit_classes(M.suborbits, M.d) is not None
        tracemalloc.start()
        try:
            evaluated = evaluated_classes(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.column_classes == evaluated
        assert peak < 48 * 2**20, peak

    @pytest.mark.parametrize(
        "d, subs",
        [
            # {1, 11} mod 12 keeps every set, but 7 orbits make 5 sets
            (12, ((0,), (1, 11), (2, 4, 8, 10), (3, 6, 9), (5, 7))),
            # 5 * 7 = 11 leaves the suborbit of 1
            (12, ((0,), (1, 5, 7), (2, 3, 4, 6, 8, 9, 10, 11))),
            # 4 is no unit mod 6, though {1, 4} is closed
            (6, ((0,), (1, 4), (2, 5), (3,))),
            # {1, 7} mod 8 is a group, but 7 * 2 = 6 leaves {2, 3}
            (8, ((0,), (1, 7), (2, 3), (4,), (5, 6))),
        ],
        ids=["unions-of-orbits", "not-closed", "non-unit", "not-kept"],
    )
    def test_fallback(self, d, subs):
        assert me._orbit_classes(subs, d) is None

    def test_non_orbit_group_evaluates(self, monkeypatch):
        real, calls = me._evaluation_prime, []
        monkeypatch.setattr(me, "_evaluation_prime", lambda *a: calls.append(a) or real(*a))
        G = pg.PermGroup(6, (full_cycle(6), pg.parse_permutation("(0,3)", 6)))
        M = me.suborbit_sums(G)
        assert calls == [(6, 2)]
        want = ((0,), (1, 3, 5), (2,), (4,))
        assert M.column_classes == scalar_column_classes(M.suborbits, (6,)) == want


class TestPairPartitions:
    @pytest.mark.parametrize("d", [3, 4])
    def test_standard(self, d):
        W = pg.wreath_product_action(d)
        a, b = W.embedded_abelian
        B = me.pair_basis_partition(W.group, a, b)
        middle = tuple(
            sorted([(j, 0) for j in range(1, d)] + [(0, j) for j in range(1, d)])
        )
        assert len(B) == 3
        assert class_of(B, (1, 0)) == middle
        assert len(class_of(B, (1, 1))) == (d - 1) ** 2

    @pytest.mark.parametrize("d", [3, 4])
    def test_manning(self, d):
        W = pg.wreath_product_action(d)
        a, b = W.embedded_abelian
        B = me.pair_basis_partition(W.group, a, pg.compose(a, b))
        mixed = tuple(
            sorted([(j, j) for j in range(1, d)] + [(0, j) for j in range(1, d)])
        )
        assert class_of(B, (0, 1)) == mixed

    def test_middle_class_size(self):
        W = pg.wreath_product_action(3)
        a, b = W.embedded_abelian
        B = me.pair_basis_partition(W.group, a, b)
        assert len(class_of(B, (1, 0))) == 4  # 2(d-1) at d=3

    def test_coprime_pair_inside_dihedral6(self):
        # C_2 x C_3 generated by g^3 and g^2 inside the regular C_6
        g = full_cycle(6)
        g3 = pg.parse_permutation("(0,3)(1,4)(2,5)", 6)
        g2 = pg.parse_permutation("(0,2,4)(1,3,5)", 6)
        B = me.pair_basis_partition(pg.dihedral(6), g3, g2)
        assert len(B) == len(pg.suborbits(pg.dihedral(6)))
        assert len(B) == len(me.suborbit_sums(pg.dihedral(6), g).column_classes)

    def test_orbital_check_counts_the_suborbits_of_the_group(self):
        # G = <g^3, g^4> is the regular C_6; outside the pair (g^3, g^2), G
        # has only g^4, whose <g^4> is intransitive, so the check must count
        # the suborbits of G itself
        g2, g3, g4 = (pg.Permutation(tuple((x + s) % 6 for x in range(6))) for s in (2, 3, 4))
        assert len(me.pair_basis_partition(pg.PermGroup(6, (g3, g4)), g3, g2)) == 6

    def test_pair_outside_the_group_refused(self):
        # <(0,1)(2,3)(4,5), (0,2,4)(1,3,5)> is a regular C_2 x C_3, but it
        # swaps the orbitals of (0, 1) and (1, 0) of the regular C_6
        a = pg.parse_permutation("(0,1)(2,3)(4,5)", 6)
        b = pg.parse_permutation("(0,2,4)(1,3,5)", 6)
        with pytest.raises(ValueError, match="does not preserve the orbitals"):
            me.pair_basis_partition(pg.cyclic(6), a, b)
        assert len(me.pair_basis_partition(pg.symmetric(6), a, b)) == 2

    def test_pair_that_is_no_product_generator_pair_refused(self):
        # a and ab generate the regular C_2 x C_3 of C_6, but ab has order 6,
        # so (a, ab) coordinatises no product action; the orbital check of
        # the 2-transitive S_6 would not see it
        a = pg.parse_permutation("(0,1)(2,3)(4,5)", 6)
        b = pg.parse_permutation("(0,2,4)(1,3,5)", 6)
        with pytest.raises(ValueError, match="does not act regularly"):
            me.pair_basis_partition(pg.symmetric(6), a, pg.compose(a, b))

    def test_non_regular_pair_rejected(self):
        g = full_cycle(6)
        with pytest.raises(ValueError):
            me.pair_basis_partition(pg.dihedral(6), g, g)

    def test_classes_match_scalar_reduction_on_random_groups(self):
        # the unit translations t1, t2 of Z_a x Z_b (label x * b + y) and 0-2
        # extra generators, each a random permutation (mostly giving a
        # 2-transitive group) or a scaling (x, y) -> (ux, vy) by units (which
        # keeps several suborbits), under a random labelling; the reference
        # reduces each (j, j') column one sum at a time in Z[z_L], L = lcm(a, b)
        rng = random.Random(1921)

        def extra(a, b):
            d = a * b
            if rng.random() < 0.5:
                return pg.Permutation(tuple(rng.sample(range(d), d)))
            u, v = (rng.choice([s for s in range(1, n) if math.gcd(s, n) == 1]) for n in (a, b))
            return pg.Permutation(tuple(u * (x // b) % a * b + v * x % b for x in range(d)))

        for _ in range(200):
            a, b = rng.randint(2, 6), rng.randint(2, 6)
            d = a * b
            t1 = pg.Permutation(tuple((x + b) % d for x in range(d)))
            t2 = pg.Permutation(tuple(x - x % b + (x + 1) % b for x in range(d)))
            gens = (t1, t2) + tuple(extra(a, b) for _ in range(rng.randint(0, 2)))
            G, t1, t2 = random_relabelling(rng, pg.PermGroup(d, gens), t1, t2)
            subs = pg.suborbits(pg.relabel(G, (t1, t2))[0])
            reference = scalar_column_classes(subs, (a, b))
            want = tuple(tuple(divmod(c, b) for c in cl) for cl in reference)
            assert me.pair_basis_partition(G, t1, t2) == want, (a, b, gens)

    def test_cyclic_and_pair_coordinates_agree(self):
        # for d = da * db coprime, the translations by db and by da are the
        # unit translations of C_da x C_db, and the point i = x db + y da
        # adds z_d^(iJ) = z_d^(x db J + y da J) to column J in the cyclic
        # labels and to column (J mod da, J mod db) in the pair labels
        cases = 0
        for G, g in cyclic_regular_corpus(60):
            M = me.suborbit_sums(G, g)
            d = M.d
            for da in range(2, d):
                db = d // da
                if d % da or db < 2 or math.gcd(da, db) != 1:
                    continue
                a, b = (pg.Permutation(tuple((x + s) % d for x in range(d))) for s in (db, da))
                want = tuple(sorted(
                    tuple(sorted((J % da, J % db) for J in cl)) for cl in M.column_classes
                ))
                assert me.pair_basis_partition(M.group, a, b) == want, (G.name, da)
                cases += 1
        assert cases == 66  # 33 factorisations, each in both orders


class TestManningInvariance:
    def test_d3_witness(self):
        rep = me.manning_invariance_check(3)
        assert rep.galois_invariant
        assert rep.violation == ((1, 1), (1, 2))

    def test_d4_violation_exists(self):
        assert me.manning_invariance_check(4).violation is not None

    def test_d2_no_violation(self):
        rep = me.manning_invariance_check(2)
        assert rep.galois_invariant and rep.violation is None

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_galois_part_holds(self, d):
        assert me.manning_invariance_check(d).galois_invariant


class TestGaloisOrbitAction:
    def test_dihedral8(self):
        assert me.galois_orbit_action_check(me.suborbit_sums(pg.dihedral(8), full_cycle(8)))

    def test_symmetric(self):
        assert me.galois_orbit_action_check(me.suborbit_sums(pg.symmetric(5), full_cycle(5)))

    def test_corpus(self):
        for G, g in cyclic_regular_corpus(40):
            assert me.galois_orbit_action_check(me.suborbit_sums(G, g)), G.name


class TestOrbitRowSubset:
    def test_symmetric6(self):
        rep = me.orbit_row_subset(me.suborbit_sums(pg.symmetric(6), full_cycle(6)))
        assert rep.rows == (2, 3, 6)
        assert rep.is_full_complement and rep.two_transitive
        assert rep.decomposition_ok and rep.equivalence_ok

    def test_dihedral4(self):
        rep = me.orbit_row_subset(me.suborbit_sums(pg.dihedral(4), full_cycle(4)))
        assert rep.rows == (2,)
        assert not rep.two_transitive and rep.equivalence_ok

    def test_dihedral6(self):
        rep = me.orbit_row_subset(me.suborbit_sums(pg.dihedral(6), full_cycle(6)))
        assert rep.orbit == (3,) and rep.rows == (2,)

    def test_rows_always_contain_two(self):
        for G, g in cyclic_regular_corpus(40):
            if G.degree % 2 == 0:
                rep = me.orbit_row_subset(me.suborbit_sums(G, g))
                assert 2 in rep.rows, G.name
                assert rep.decomposition_ok and rep.equivalence_ok, G.name

    def test_rejects_odd_degree(self):
        M = me.suborbit_sums(pg.dihedral(9), full_cycle(9))
        with pytest.raises(ValueError):
            me.orbit_row_subset(M)


    def test_rows_match_primitive_classes_on_corpus(self):
        # the report as the primitive classes of every order r | d give it
        for G, g in cyclic_regular_corpus(100):
            if G.degree % 2:
                continue
            M = me.suborbit_sums(G, g)
            d, rep = M.d, me.orbit_row_subset(M)
            members = set(next(o for o in M.suborbits if d // 2 in o))
            divisors = [r for r in range(1, d + 1) if d % r == 0]
            classes = {r: set(cy.PrimitiveClass(d, r).elements) for r in divisors}
            rows = tuple(r for r in divisors if classes[r] <= members)
            assert rep.orbit == tuple(sorted(members)) and rep.rows == rows, G.name
            assert rep.decomposition_ok == (set().union(*(classes[r] for r in rows)) == members)
            assert rep.is_full_complement == (rows == tuple(divisors[1:])), G.name


class TestBlockPrediction:
    def test_dihedral6(self):
        pred = me.predict_blocks_from_basis(me.suborbit_sums(pg.dihedral(6), full_cycle(6)), 2)
        assert pred.predicted and pred.confirmed
        assert pred.witness_class == (2, 4)
        assert sorted(map(tuple, pred.blocks.blocks())) == [(0, 3), (1, 4), (2, 5)]

    def test_symmetric_no_prediction(self):
        M = me.suborbit_sums(pg.symmetric(6), full_cycle(6))
        for p in (2, 3):
            pred = me.predict_blocks_from_basis(M, p)
            assert not pred.predicted

    def test_dihedral4(self):
        pred = me.predict_blocks_from_basis(me.suborbit_sums(pg.dihedral(4), full_cycle(4)), 2)
        assert pred.predicted and pred.confirmed and pred.witness_class == (2,)
        assert sorted(map(tuple, pred.blocks.blocks())) == [(0, 2), (1, 3)]

    def test_prediction_confirmed_on_corpus(self):
        # whenever a p-divisible class exists, the block cross-check succeeds
        for G, g in cyclic_regular_corpus(40):
            d = G.degree
            M = me.suborbit_sums(G, g)
            for p in {q for q in range(2, d + 1) if d % q == 0 and all(q % t for t in range(2, q))}:
                pred = me.predict_blocks_from_basis(M, p)
                if pred.predicted:
                    assert pred.confirmed, (G.name, p)

    @pytest.mark.parametrize("p", [1, 0, -2, 3])
    def test_p_must_be_a_divisor_above_one(self, p):
        # without the check, 1 and 0 fail inside the arithmetic, and -2
        # glues 0 to point 4 through a negative index and reports "confirmed"
        M = me.suborbit_sums(pg.dihedral(8), full_cycle(8))
        with pytest.raises(ValueError, match="is not a divisor of the degree 8"):
            me.predict_blocks_from_basis(M, p)


class TestDiagnose:
    def test_dihedral6_imprimitive(self):
        rep = me.diagnose(pg.dihedral(6), full_cycle(6))
        assert rep.verdict == "imprimitive"
        blocks = sorted(map(tuple, rep.blocks.blocks()))
        assert blocks in ([(0, 3), (1, 4), (2, 5)], [(0, 2, 4), (1, 3, 5)])

    def test_symmetric9_two_transitive(self):
        assert me.diagnose(pg.symmetric(9), full_cycle(9)).verdict == "two_transitive"

    def test_affine9(self):
        rep = me.diagnose(pg.affine(9, 2), full_cycle(9))
        assert rep.verdict in ("imprimitive", "two_transitive")

    def test_rejects_prime_degree(self):
        with pytest.raises(ValueError):
            me.diagnose(pg.dihedral(7), full_cycle(7))

    def test_blocks_match_exhaustive_search_on_corpus(self):
        for G, g in cyclic_regular_corpus(100):
            H, _ = pg.relabel(G, (g,))
            assert me.diagnose(G, g).blocks == exhaustive_first_blocks(H), G.name

    def test_blocks_match_exhaustive_search_on_conjugates(self):
        rng = random.Random(20170522)
        for G, g in cyclic_regular_corpus(100):
            K, k = random_relabelling(rng, G, g)
            H, _ = pg.relabel(K, (k,))
            assert me.diagnose(K, k).blocks == exhaustive_first_blocks(H), G.name

    def test_unit_powers_of_the_cycle_match_references(self):
        # along c^s, c: x -> x + 1, the point k s mod d takes the label k;
        # the references relabel G's own generators so, with no translation
        # added, and search its blocks and reduce its columns one by one
        for G, c in cyclic_regular_corpus(100):
            d = G.degree
            assert c == full_cycle(d)
            for s in (s for s in range(2, d) if math.gcd(s, d) == 1):
                cs = pg.Permutation(tuple((x + s) % d for x in range(d)))
                inv = pow(s, -1, d)
                K = pg.PermGroup(d, tuple(
                    pg.Permutation(tuple(h[k * s % d] * inv % d for k in range(d)))
                    for h in G.generators
                ))
                rep = me.diagnose(G, cs)
                assert rep.blocks == exhaustive_first_blocks(K), (G.name, s)
                reference = scalar_column_classes(pg.suborbits(K), (d,))
                assert rep.basis_classes == reference, (G.name, s)

    def test_matrix_built_once(self, monkeypatch):
        counts = {"suborbit_sums": 0, "relabel": 0, "minimal_blocks": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(me, "suborbit_sums")
        counted(pg, "relabel")
        counted(pg, "minimal_blocks")
        for G, g in cyclic_regular_corpus(30):
            counts.update(dict.fromkeys(counts, 0))
            rep = me.diagnose(G, g)
            assert counts["suborbit_sums"] == counts["relabel"] == 1, G.name
            # every corpus group has a full-cycle generator: blocks by gcd
            assert counts["minimal_blocks"] == 0, G.name

    def test_never_counterexample_on_corpus_sample(self):
        for G, g in cyclic_regular_corpus(30):
            assert me.diagnose(G, g).verdict != "counterexample", G.name


class TestPowerScalingOnFullOrbit:
    def test_two_transitive_prime_power_degrees(self):
        # for the full suborbit the sums at exponent 1 and p^m c agree
        for q in [4, 8, 9, 16, 25, 27]:
            p, n = cy.prime_power_split(q)
            M = me.suborbit_sums(pg.symmetric(q), full_cycle(q))
            big = M.suborbits.index(tuple(range(1, q)))
            for m in range(1, n):
                for c in range(1, q):
                    if c % p == 0:
                        continue
                    j = (p**m * c) % q
                    assert cy.reduced_coeffs(orbit_sum(M, big, j)) == cy.reduced_coeffs(
                        orbit_sum(M, big, 1)
                    ), (q, m, c)
