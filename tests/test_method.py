import random

import pytest

from burnside import cyclotomic as cy
from burnside import method as me
from burnside import permgroup as pg
from helpers import (
    cyclic_regular_corpus,
    exhaustive_first_blocks,
    full_cycle,
    random_relabelling,
)


def reduced_constant(d, value):
    return cy.reduced_coeffs(cy.from_indices(d, [0] * abs(value))) if value >= 0 else tuple(
        -v for v in cy.reduced_coeffs(cy.from_indices(d, [0] * -value))
    )


class TestSuborbitSums:
    def test_column_zero_is_sizes(self):
        M = me.suborbit_sums(pg.dihedral(8), full_cycle(8))
        for row, orbit in zip(M.reduced, M.suborbits):
            assert row[0][0] == len(orbit) and not any(row[0][1:])

    def test_two_transitive_row_reduces_to_minus_one(self):
        M = me.suborbit_sums(pg.symmetric(6), full_cycle(6))
        big = M.suborbits.index(tuple(range(1, 6)))
        for j in (1, 5):
            assert M.reduced[big][j] == reduced_constant(6, -1)

    def test_dihedral4_vanishing_entry(self):
        M = me.suborbit_sums(pg.dihedral(4), full_cycle(4))
        row = M.suborbits.index((1, 3))
        assert not any(M.reduced[row][1])

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
        B = me.basis_partition(me.suborbit_sums(pg.symmetric(7), full_cycle(7)))
        assert B.classes == ((0,), (1, 2, 3, 4, 5, 6))

    def test_dihedral6(self):
        B = me.basis_partition(me.suborbit_sums(pg.dihedral(6), full_cycle(6)))
        assert B.classes == ((0,), (1, 5), (2, 4), (3,))

    def test_zero_class_always_singleton(self):
        for G, g in cyclic_regular_corpus(30):
            B = me.basis_partition(me.suborbit_sums(G, g))
            assert B.class_of(0) == (0,), G.name

    def test_class_count_equals_suborbit_count(self):
        for G, g in cyclic_regular_corpus(40):
            M = me.suborbit_sums(G, g)
            B = me.basis_partition(M)
            assert B.count == len(M.suborbits), G.name

    def test_sums_constant_on_classes_as_values(self):
        # exact value equality of the sums across each class, for every suborbit
        for G, g in cyclic_regular_corpus(24):
            M = me.suborbit_sums(G, g)
            B = me.basis_partition(M)
            for cl in B.classes:
                for oi in range(len(M.suborbits)):
                    first = M.sum(oi, cl[0])
                    for j in cl[1:]:
                        assert cy.value_equal(first, M.sum(oi, j)), (G.name, oi, cl)


class TestPairPartitions:
    @pytest.mark.parametrize("d", [3, 4])
    def test_standard(self, d):
        W = pg.wreath_product_action(d)
        B = me.basis_partition_pair(W, "standard")
        middle = tuple(
            sorted([(j, 0) for j in range(1, d)] + [(0, j) for j in range(1, d)])
        )
        assert B.count == 3
        assert B.class_of((1, 0)) == middle
        assert len(B.class_of((1, 1))) == (d - 1) ** 2

    @pytest.mark.parametrize("d", [3, 4])
    def test_manning(self, d):
        W = pg.wreath_product_action(d)
        B = me.basis_partition_pair(W, "manning")
        mixed = tuple(
            sorted([(j, j) for j in range(1, d)] + [(0, j) for j in range(1, d)])
        )
        assert B.class_of((0, 1)) == mixed

    def test_middle_class_size(self):
        B = me.basis_partition_pair(pg.wreath_product_action(3), "standard")
        assert len(B.class_of((1, 0))) == 4  # 2(d-1) at d=3

    def test_unknown_choice(self):
        with pytest.raises(ValueError):
            me.basis_partition_pair(pg.wreath_product_action(3), "other")

    def test_coprime_pair_inside_dihedral6(self):
        # C_2 x C_3 generated by g^3 and g^2 inside the regular C_6
        g = full_cycle(6)
        g3 = pg.parse_permutation("(0,3)(1,4)(2,5)", 6)
        g2 = pg.parse_permutation("(0,2,4)(1,3,5)", 6)
        B = me.pair_basis_partition(pg.dihedral(6), g3, 2, g2, 3)
        assert B.count == len(pg.suborbits(pg.dihedral(6)))
        B1 = me.basis_partition(me.suborbit_sums(pg.dihedral(6), g))
        assert B.count == B1.count

    def test_non_regular_pair_rejected(self):
        g = full_cycle(6)
        with pytest.raises(ValueError):
            me.pair_basis_partition(pg.dihedral(6), g, 2, g, 3)


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
        assert rep.rows.divisors() == (2, 3, 6)
        assert rep.is_full_complement and rep.two_transitive
        assert rep.decomposition_ok and rep.equivalence_ok

    def test_dihedral4(self):
        rep = me.orbit_row_subset(me.suborbit_sums(pg.dihedral(4), full_cycle(4)))
        assert rep.rows.divisors() == (2,)
        assert not rep.two_transitive and rep.equivalence_ok

    def test_dihedral6(self):
        rep = me.orbit_row_subset(me.suborbit_sums(pg.dihedral(6), full_cycle(6)))
        assert rep.orbit == (3,) and rep.rows.divisors() == (2,)

    def test_rows_always_contain_two(self):
        for G, g in cyclic_regular_corpus(40):
            if G.degree % 2 == 0:
                rep = me.orbit_row_subset(me.suborbit_sums(G, g))
                assert 2 in rep.rows.divisors(), G.name
                assert rep.decomposition_ok and rep.equivalence_ok, G.name

    def test_rejects_odd_degree(self):
        M = me.suborbit_sums(pg.dihedral(9), full_cycle(9))
        with pytest.raises(ValueError):
            me.orbit_row_subset(M)


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


class TestCosetStructure:
    def test_two_transitive_clean(self):
        B = me.basis_partition(me.suborbit_sums(pg.symmetric(6), full_cycle(6)))
        for p in (2, 3):
            rep = me.coset_structure_report(B, 6, p)
            assert all(ok for _, ok, _ in rep.per_class)

    def test_imprimitive_flagged(self):
        B = me.basis_partition(me.suborbit_sums(pg.dihedral(6), full_cycle(6)))
        rep = me.coset_structure_report(B, 6, 2)
        flagged = {cl for cl, ok, _ in rep.per_class if not ok}
        assert (2, 4) in flagged

    def test_dihedral10_runs(self):
        B = me.basis_partition(me.suborbit_sums(pg.dihedral(10), full_cycle(10)))
        rep = me.coset_structure_report(B, 10, 5)
        assert len(rep.per_class) == len(B.classes)

    def test_rejects_prime_power_degree(self):
        B = me.basis_partition(me.suborbit_sums(pg.dihedral(8), full_cycle(8)))
        with pytest.raises(ValueError):
            me.coset_structure_report(B, 8, 2)


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
            H, _ = me.relabel_by_cycle(G, g)
            assert me.diagnose(G, g).blocks == exhaustive_first_blocks(H), G.name

    def test_blocks_match_exhaustive_search_on_conjugates(self):
        rng = random.Random(20170522)
        for G, g in cyclic_regular_corpus(100):
            K, k = random_relabelling(rng, G, g)
            H, _ = me.relabel_by_cycle(K, k)
            assert me.diagnose(K, k).blocks == exhaustive_first_blocks(H), G.name

    def test_matrix_built_once(self, monkeypatch):
        counts = {"suborbit_sums": 0, "relabel_by_cycle": 0, "minimal_blocks": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(me, "suborbit_sums")
        counted(me, "relabel_by_cycle")
        counted(pg, "minimal_blocks")
        for G, g in cyclic_regular_corpus(30):
            counts.update(dict.fromkeys(counts, 0))
            rep = me.diagnose(G, g)
            assert counts["suborbit_sums"] == counts["relabel_by_cycle"] == 1, G.name
            assert counts["minimal_blocks"] <= len(rep.suborbits) - 1, G.name

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
                    assert M.reduced[big][j] == M.reduced[big][1], (q, m, c)
