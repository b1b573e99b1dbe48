import dataclasses
import functools
import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import join_oracle as jo
from burnside import coprime as cp
from burnside.ramanujan import divisor_data, matrix_formula


def all_row_subsets(d):
    divs = matrix_formula(d).divisors
    for mask in range(1, 1 << len(divs)):
        yield cp.RowSubset(d, mask)


def _flat(d):
    """R(d) with rows 2.. zeroed: every profile is constant."""
    R = matrix_formula(d)
    zero = tuple((0,) * len(row) for row in R.entries[1:])
    return dataclasses.replace(R, entries=R.entries[:1] + zero)


def _scrambled(seed):
    """A seeded sparse 0/1 stand-in for matrix_formula, row 1 kept constant."""

    def scrambled(d):
        R = matrix_formula(d)
        k = len(R.divisors)
        rng = random.Random(seed)
        rows = tuple(tuple(rng.choice((0, 0, 1)) for _ in range(k)) for _ in range(k - 1))
        return dataclasses.replace(R, entries=((1,) * k,) + rows)

    return scrambled


def brute_force_hits(R):
    """Divisor tuples of every coprime E containing {1, 2}, ascending mask."""
    hits = []
    for t in range(1 << (len(R.divisors) - 2)):
        E = cp.RowSubset(R.d, 0b11 | t << 2)
        if cp.is_coprime(cp.partition_for(R, E)):
            hits.append(E.divisors())
    return hits


@functools.lru_cache(maxsize=None)
def real_hits(d):
    """brute_force_hits on the true R(d), computed once per degree."""
    return brute_force_hits(matrix_formula(d))


def take_source(monkeypatch, source, d):
    """Patch _CHUNK below 2^free, and never above the default, to force
    the search, or up to 2^free, and never below the default, to force the
    direct path; checks that d then takes `source`."""
    free = len(divisor_data(d).divisors) - 2
    if source == "search":
        monkeypatch.setattr(cp, "_CHUNK", min(cp._CHUNK, max(1, 1 << free >> 1)))
    else:
        monkeypatch.setattr(cp, "_CHUNK", max(cp._CHUNK, 1 << free))
    assert (1 << free <= cp._CHUNK) == (source == "direct")


def take_join(monkeypatch, d):
    """take_source(..., "search", d) with the join oracle in place of the
    search, so that d goes through `join_oracle.join_hits`."""
    take_source(monkeypatch, "search", d)
    monkeypatch.setattr(cp, "_search_hits", jo.join_hits)


def spy(monkeypatch, name, module=cp):
    """Wrap module.<name> and return the list its calls are appended to."""
    calls, inner = [], getattr(module, name)

    def wrapped(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, wrapped)
    return calls


SOURCES = ("direct", "search")


def over_sources(name, values, skip=()):
    """Parametrize `name` over values and `source` over SOURCES; the direct
    path keeps the plain id of the value and the search adds "-join", the
    suffix of the join that the search replaced, so that ids stay
    comparable across versions."""
    return pytest.mark.parametrize(
        f"{name}, source",
        [
            pytest.param(v, s, id=str(v) if s == "direct" else f"{v}-join")
            for v in values
            for s in SOURCES
            if (v, s) not in skip
        ],
    )


class TestPartition:
    def test_d4_single_row(self):
        P = cp.partition_for(matrix_formula(4), cp.RowSubset.from_divisors(4, [2]))
        assert P.classes == ((1,), (2,))
        assert P.profile == {1: -1, 2: 1}

    def test_d4_two_rows(self):
        P = cp.partition_for(matrix_formula(4), cp.RowSubset.from_divisors(4, [2, 4]))
        assert P.classes == ((1, 2),)
        assert P.profile == {1: -1, 2: -1}

    def test_row_one_alone_is_single_class(self):
        for d in [4, 12, 30, 45]:
            P = cp.partition_for(matrix_formula(d), cp.RowSubset.from_divisors(d, [1]))
            assert len(P.classes) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cp.partition_for(matrix_formula(4), cp.RowSubset(4, 0))

    def test_adding_row_one_never_changes_partition(self):
        # row 1 is constant so it shifts every profile equally
        for d in range(2, 101):
            R = matrix_formula(d)
            for E in all_row_subsets(d):
                with_one = cp.RowSubset(d, E.mask | 1)
                if with_one.mask == E.mask:
                    continue
                assert (
                    cp.partition_for(R, E).classes
                    == cp.partition_for(R, with_one).classes
                ), (d, E.mask)


class TestIsCoprime:
    def test_examples(self):
        d = 4
        R = matrix_formula(d)
        assert cp.is_coprime(cp.partition_for(R, cp.RowSubset.from_divisors(4, [2, 4])))
        assert not cp.is_coprime(cp.partition_for(R, cp.RowSubset.from_divisors(4, [2])))
        assert cp.is_coprime(cp.partition_for(R, cp.RowSubset.from_divisors(4, [1, 2, 4])))

    def test_class_containing_one_is_always_fine(self):
        P = cp.DivisorPartition(6, ((1, 2), (3,)), {1: 0, 2: 0, 3: 5})
        assert not cp.is_coprime(P)  # the {3} class has gcd 3


class TestConjectureScan:
    def test_d4(self):
        rep = cp.verify_degree(4)
        assert rep.holds
        assert rep.subsets_scanned == 2
        assert rep.coprime_masks == ((1, 2, 4),)

    def test_d2(self):
        rep = cp.verify_degree(2)
        assert rep.holds and rep.subsets_scanned == 1
        assert rep.coprime_masks == ((1, 2),)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            cp.verify_degree(9)

    def test_small_range(self):
        reports = list(cp.iter_verify_range(10))
        assert [r.d for r in reports] == [2, 4, 6, 8, 10]
        assert all(r.holds for r in reports)

    def test_full_and_almost_full_always_coprime(self):
        # the one-class partitions guaranteed by the column-sum identity
        for d in range(2, 601, 2):
            R = matrix_formula(d)
            divs = R.divisors
            for E in (divs, divs[1:]):
                P = cp.partition_for(R, cp.RowSubset.from_divisors(d, E))
                assert len(P.classes) == 1 and cp.is_coprime(P), (d, E)

    def test_table_checkpoints_match_scratch_profiles(self):
        # subset sums over split rows: a low half of (k-2)//2 free rows, and
        # the rest plus rows 1 and 2 in the high half
        for d in [12, 60, 96, 240, 360]:
            R = matrix_formula(d)
            k = len(R.divisors)
            columns = np.array(R.entries, dtype=np.int64)[:, : k - 1]
            h = (k - 2) // 2
            low = cp.subset_sums(columns[2:][:h])
            high = cp.subset_sums(columns[2:][h:]) + columns[0] + columns[1]
            assert len(low) == 1 << h and len(high) == 1 << (k - 2 - h)
            rng = random.Random(d)
            for _ in range(1000):
                t = rng.randrange(1 << (k - 2))
                lo, hi = t & ((1 << h) - 1), t >> h
                profile = [int(v) for v in low[lo] + high[hi]]
                P = cp.partition_for(R, cp.RowSubset(d, 0b11 | t << 2))
                assert profile == [P.profile[c] for c in R.divisors[:-1]], (d, t)

    def test_every_hit_reported_in_ascending_order(self, monkeypatch):
        # rows 2.. zeroed: every profile is constant, so every E containing
        # {1, 2} is coprime; a chunk of two masks sends 12 to the search,
        # which keeps every prefix
        monkeypatch.setattr(cp, "matrix_formula", _flat)
        monkeypatch.setattr(cp, "_CHUNK", 2)
        expected = brute_force_hits(_flat(12))
        rep = cp.verify_degree(12)
        assert len(expected) == 16
        assert list(rep.coprime_masks) == expected
        assert not rep.holds

    def test_flat_matrix_candidates_span_chunks(self, monkeypatch):
        # every one of the 2^10 masks at 60 hits, so the search keeps every
        # prefix, and its frontier grows to all 2^10 leaves
        monkeypatch.setattr(cp, "matrix_formula", _flat)
        monkeypatch.setattr(cp, "_CHUNK", 64)
        expected = brute_force_hits(_flat(60))
        assert len(expected) == 1 << 10
        assert list(cp.verify_degree(60).coprime_masks) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partial_survivors_match_brute_force(self, monkeypatch, seed):
        # a seeded sparse 0/1 matrix with row 1 constant: in 8-mask groups
        # some masks die and others survive, so the search must carry the
        # surviving masks, and their sums, through every level's pruning
        scrambled = _scrambled(seed)
        monkeypatch.setattr(cp, "matrix_formula", scrambled)
        monkeypatch.setattr(cp, "_CHUNK", 8)
        R = scrambled(60)
        free = len(R.divisors) - 2
        assert free == 10
        expected = brute_force_hits(R)
        assert 0 < len(expected) < 1 << free
        per_block = {}
        for E in expected:
            t = cp.RowSubset.from_divisors(60, E).mask >> 2
            per_block[t >> 3] = per_block.get(t >> 3, 0) + 1
        assert any(n < 8 for n in per_block.values())
        assert list(cp.verify_degree(60).coprime_masks) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_join_on_least_selective_checks(self, monkeypatch, seed):
        # the join oracle's checks only narrow its candidates: ranking them
        # on their negated estimates joins the least selective pair, the
        # most likely to pass together, with the same hits as the search
        rank = jo._rank_checks
        picked = []

        def worst(checks, single, joint):
            joined, lead = rank(checks, -single, lambda i: -joint(i))
            picked.append((joined, rank(checks, single, joint)[0]))
            return joined, lead

        expected = {d: cp.verify_degree(d).coprime_masks for d in (60, 240, 360)}
        scrambled = _scrambled(seed)
        monkeypatch.setattr(jo, "_rank_checks", worst)
        for d, masks in expected.items():
            with monkeypatch.context() as m:
                take_join(m, d)
                assert cp.verify_degree(d).coprime_masks == masks
        monkeypatch.setattr(cp, "matrix_formula", scrambled)
        take_join(monkeypatch, 60)
        assert list(cp.verify_degree(60).coprime_masks) == brute_force_hits(scrambled(60))
        assert len(picked) == 4
        for joined, best in picked[:3]:
            assert [a for a, _ in joined] != [a for a, _ in best]

    @over_sources("d", [2, 4, 8, 16], skip={(2, "search")})
    def test_few_check_columns_match_brute_force(self, monkeypatch, d, source):
        # 2 has no check column and 4 one; at 8 and 16 every check has B = {1}.
        # 2 has no free row, so its one mask always fits a chunk
        R = matrix_formula(d)
        columns = [c for c in R.divisors[:-1] if c % 2 == 0]
        assert len(columns) == {2: 0, 4: 1, 8: 2, 16: 3}[d]
        assert [c for c in R.divisors[:-1] if c % 2] == [1]
        take_source(monkeypatch, source, d)
        assert list(cp.verify_degree(d).coprime_masks) == real_hits(d)

    @over_sources("d", [32766, 32768])
    def test_dtype_boundary_matches_brute_force(self, monkeypatch, d, source):
        # the largest column abs-sum of R(d) is d: 32766 scans in int16,
        # 32768 is the first even degree past it; both have 14 free rows.
        # The true profiles at 32768 stay within +-2^14, so an int16 wrap
        # is pinned by test_profile_past_int16_matches_brute_force instead.
        assert len(matrix_formula(d).divisors) - 2 == 14
        take_source(monkeypatch, source, d)
        assert list(cp.verify_degree(d).coprime_masks) == real_hits(d)

    @over_sources("entry", [16383, 16384])
    def test_profile_past_int16_matches_brute_force(self, monkeypatch, entry, source):
        # rows 6 and 12 are (-entry, ..., -entry, entry): with both in E the
        # profile is 1 - 2 entry on columns 1..4 and 1 + 2 entry on column 6.
        # At 16384 those are -32767 and 32769, equal modulo 2^16, so a scan
        # kept in int16 would report four spurious coprime subsets.
        formula = cp.matrix_formula

        def widened(d):
            R = formula(d)
            wide = (-entry,) * 4 + (entry, 0)
            zero = (0,) * 6
            return dataclasses.replace(R, entries=((1,) * 6,) + (zero,) * 3 + (wide,) * 2)

        monkeypatch.setattr(cp, "matrix_formula", widened)
        expected = brute_force_hits(widened(12))
        assert len(expected) == 4
        take_source(monkeypatch, source, 12)
        assert list(cp.verify_degree(12).coprime_masks) == expected

    @over_sources("entry", [1 << 20, 1 << 40])
    def test_entries_past_32_bit_keys_match_brute_force(self, monkeypatch, entry, source):
        # rows 6 and 12 as in the int16 test: with entries of 2^20 the
        # differences span 2^23, past 32 bits; at 2^40 they span 2^43, and
        # every profile and difference must still be exact in int64
        formula = cp.matrix_formula

        def widened(d):
            R = formula(d)
            wide = (-entry,) * 4 + (entry, 0)
            return dataclasses.replace(R, entries=((1,) * 6,) + ((0,) * 6,) * 3 + (wide,) * 2)

        monkeypatch.setattr(cp, "matrix_formula", widened)
        expected = brute_force_hits(widened(12))
        assert len(expected) == 4
        take_source(monkeypatch, source, 12)
        assert list(cp.verify_degree(12).coprime_masks) == expected

    def test_search_agrees_with_join_past_brute_force(self, monkeypatch):
        # the 38 degrees past one chunk up to 840, 16 to 30 free rows, where
        # brute force would decide 2^16 masks and more one at a time: the
        # search and the join oracle, two exact methods, report the same masks
        degrees = [d for d in range(2, 841, 2) if len(divisor_data(d).divisors) - 2 > 14]
        assert (len(degrees), degrees[0], degrees[-1]) == (38, 180, 840)
        search = {d: cp.verify_degree(d).coprime_masks for d in degrees}
        monkeypatch.setattr(cp, "_search_hits", jo.join_hits)
        assert {d: cp.verify_degree(d).coprime_masks for d in degrees} == search

    @pytest.mark.parametrize("seed", range(40))
    def test_rank_checks_as_by_pass_rate(self, seed):
        # the join oracle's rule on hand-built estimated pass rates, against
        # a plain restatement: the least single estimate leads the join; its
        # partner on another column has the least joint estimate, ties going
        # to the better single rank; the test leads with the best check not
        # joined.  Estimates drawn from few values force ties, and few check
        # columns leave some best checks with no partner.
        def by_rate(checks, single, table):
            order = sorted(range(len(checks)), key=lambda i: (single[i], i))
            joined = order[:1]
            others = [i for i in order if checks[i][0] != checks[order[0]][0]]
            if others:
                joined.append(min(others, key=lambda i: (table[order[0]][i], order.index(i))))
            lead = next((i for i in order if i not in joined), joined[0])
            return [checks[i] for i in joined], checks[lead]

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        values = rng.random(int(rng.integers(1, 4)))
        single = rng.choice(values, size=n)
        table = rng.choice(values, size=(n, n))
        columns = rng.integers(0, rng.integers(1, 4), size=n)
        checks = [(int(a), (i,)) for i, a in enumerate(columns)]
        asked = []

        def joint(i):
            asked.append(i)
            return table[i]

        assert jo._rank_checks(checks, single, joint) == by_rate(checks, single, table)
        assert asked in ([], [int(np.argmin(single))])

    def test_rank_checks_ties_by_check_order(self):
        # checks 0 and 2 tie for the lead and 0 wins; 1 shares its column;
        # 2 and 3 tie on the joint estimate and 2, the better single rank,
        # is the partner; the test leads with 1, the best check not joined
        checks = [(5, (0,)), (5, (1,)), (6, (2,)), (7, (3,))]
        single = np.array([0.1, 0.2, 0.1, 0.3])
        table = np.zeros((4, 4))
        table[0] = [9.0, 9.0, 0.5, 0.5]
        assert jo._rank_checks(checks, single, lambda i: table[i]) == (
            [checks[0], checks[2]], checks[1])
        # the lead falls back to a joined check when every check is joined
        assert jo._rank_checks(checks[2:], single[2:], lambda i: table[2:, 2:][i]) == (
            [checks[2], checks[3]], checks[2])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_lattice_matches_minors(self, data):
        # the lattice L of the pairs (d1[r, j], d2[r, i]): det(L) is the gcd
        # of the 2x2 minors of its generators, and z lies in L iff adding z
        # keeps that gcd (rank 2), or keeps every minor 0 and the gcd of the
        # entries (rank < 2).  Entries in [-12, 12] with zero rows and
        # parallel pairs, scaled by powers of 3 up to 2^50 so that the int64
        # and Python-int widths are reached, where a float product would
        # round
        n, k, m = (data.draw(st.integers(1, top)) for top in (8, 3, 3))
        d1 = data.draw(arrays(np.int64, (n, k), elements=st.integers(-12, 12)))
        d2 = data.draw(arrays(np.int64, (n, m), elements=st.integers(-12, 12)))
        for r in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
            d1[r] = d2[r] = 0
        for i in range(m):
            if data.draw(st.booleans()):
                d2[:, i] = data.draw(st.integers(-3, 3)) * d1[:, data.draw(st.integers(0, k - 1))]
        # each z is small, or a combination of its column, so often in L
        combos = arrays(np.int64, n, elements=st.integers(-2, 2))
        z1, z2 = (np.array([data.draw(st.one_of(st.integers(-30, 30), combos.map(col.dot)))
                            for col in d.T]) for d in (d1, d2))
        scale = data.draw(st.sampled_from([1, 3**13, 3**18, 3**25, 3**32]))
        g1, h, member = jo._lattice(d1 * scale, z1 * scale, d2 * scale, z2 * scale)

        def minors(vs):
            return math.gcd(*(x * w - y * v for (x, y), (v, w) in itertools.combinations(vs, 2)))

        def entries(vs):
            return math.gcd(*itertools.chain(*vs))

        for j in range(k):
            assert g1[j] == math.gcd(*d1[:, j].tolist()) * scale
            for i in range(m):
                vs = list(zip(d1[:, j].tolist(), d2[:, i].tolist()))
                more = vs + [(int(z1[j]), int(z2[i]))]
                assert g1[j] * h[i, j] == minors(vs) * scale * scale
                if minors(vs):
                    inside = minors(more) == minors(vs)
                else:
                    inside = minors(more) == 0 and entries(more) == entries(vs)
                assert member[i, j] == inside, more

    @pytest.mark.parametrize("d", [60, 120])
    @pytest.mark.parametrize("doubled", [False, True], ids=["real", "doubled"])
    def test_zero_estimates_are_exact(self, monkeypatch, d, doubled):
        # every pair (a, b), and every (b1, a2, b2) with the lead column,
        # rated 0 by the join oracle matches no mask at all.  R(d) itself
        # has no such zero; with the free rows doubled every difference
        # over them is even, so an odd difference of rows 1 and 2 is 0
        formula = cp.matrix_formula

        def double(d):
            R = formula(d)
            rows = tuple(tuple(2 * v for v in row) for row in R.entries[2:])
            return dataclasses.replace(R, entries=R.entries[:2] + rows)

        if doubled:
            monkeypatch.setattr(cp, "matrix_formula", double)
        pairs = spy(monkeypatch, "_pair_estimates", jo)
        joints = spy(monkeypatch, "_joint_estimates", jo)
        take_join(monkeypatch, d)
        cp.verify_degree(d)
        free = len(divisor_data(d).divisors) - 2
        bits = (np.arange(1 << free)[:, None] >> np.arange(free) & 1).astype(np.int64)

        def zero(delta, z0):
            return bits @ delta + z0 == 0  # (mask, column)

        (delta, z0), = pairs
        rated = jo._pair_estimates(delta, z0) == 0
        assert rated.any() == doubled
        assert not zero(delta, z0)[:, rated].any()
        (d1, z1, p1, d2, z2, p2), = joints
        rated = jo._joint_estimates(d1, z1, p1, d2, z2, p2) == 0
        assert rated.any() == doubled
        both = zero(d2, z2).T.astype(np.int64) @ zero(d1, z1).astype(np.int64)
        assert not both[rated].any()

    @pytest.mark.parametrize("d", [360, 540])
    def test_best_estimate_in_exact_top_three(self, monkeypatch, d):
        # the one-check join candidates of (a, B), counted exactly from the
        # half tables: the sum over b in B of the (lo, hi) pairs with
        # low[lo, a] - low[lo, b] == high[hi, b] - high[hi, a]
        calls = spy(monkeypatch, "_estimates", jo)
        take_join(monkeypatch, d)
        cp.verify_degree(d)
        (columns, groups), = calls
        h = (len(columns) - 2) // 2
        low = cp.subset_sums(columns[2:][:h].astype(np.int64))
        high = cp.subset_sums(columns[2:][h:].astype(np.int64)) + columns[0] + columns[1]

        def matches(a, b):
            x, y = np.sort(low[:, a] - low[:, b]), high[:, b] - high[:, a]
            return int((np.searchsorted(x, y, "right") - np.searchsorted(x, y, "left")).sum())

        counts = [sum(matches(a, b) for b in B) for A, B in groups for a in A]
        single, _ = jo._estimates(columns, groups)
        best = int(np.argmin(single))
        assert sorted(counts).index(counts[best]) < 3, (counts[best], sorted(counts)[:3])

    @pytest.mark.parametrize("d", [4, 12, 16, 60])
    def test_zero_keys_leave_the_exact_test(self, monkeypatch, d):
        # every row keyed 0 makes every pair a candidate, so only the exact
        # test of every check stands between the join oracle and a wrong hit
        monkeypatch.setattr(jo, "_multipliers", lambda n: np.zeros(n, dtype=np.uint64))
        lo, _ = jo.join(np.zeros((2, 3, 2)), np.ones((2, 5, 2)))
        assert len(lo) == 6 * 10
        take_join(monkeypatch, d)
        assert list(cp.verify_degree(d).coprime_masks) == real_hits(d)

    def test_real_degree_past_packed_keys(self, monkeypatch):
        # 2 (2^31 - 1): the bound is d, so the tables are int64 and the
        # differences pass 32 bits; on the direct path and on the search
        d = 2 * (2**31 - 1)
        assert cp.int_dtype(d) == np.int64 and 2 * d >= 2**32
        for source in SOURCES:
            with monkeypatch.context() as m:
                take_source(m, source, d)
                assert list(cp.verify_degree(d).coprime_masks) == real_hits(d), source

    def test_candidate_sources_agree_to_240(self, monkeypatch):
        # every mask at once where _CHUNK is patched up to 2^free, the search
        # where it is patched below: the same reports at every degree
        def report(d, source):
            with monkeypatch.context() as m:
                take_source(m, source, d)
                rep = cp.verify_degree(d)
            return rep.subsets_scanned, rep.coprime_masks, rep.holds

        for d in range(4, 241, 2):
            assert report(d, "search") == report(d, "direct"), d

    def test_direct_path_every_mask_hits(self, monkeypatch):
        # rows 2.. zeroed: all 16 masks at 12 hit, in one chunk
        monkeypatch.setattr(cp, "matrix_formula", _flat)
        take_source(monkeypatch, "direct", 12)
        expected = brute_force_hits(_flat(12))
        assert len(expected) == 16
        assert list(cp.verify_degree(12).coprime_masks) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_direct_path_survivors_match_brute_force(self, monkeypatch, seed):
        # the seeded 0/1 matrix at 60: some masks pass the check of q = 2
        # and die at q = 3, so the survivors of the first check must keep
        # their indices through the second
        scrambled = _scrambled(seed)
        monkeypatch.setattr(cp, "matrix_formula", scrambled)
        take_source(monkeypatch, "direct", 60)
        R = scrambled(60)
        expected = brute_force_hits(R)
        assert 0 < len(expected) < 1 << 10

        def killed_by(q, E):
            classes = cp.partition_for(R, E).classes
            return any(all(c % q == 0 for c in cl) for cl in classes)

        masks = [cp.RowSubset(60, 0b11 | t << 2) for t in range(1 << 10)]
        assert any(not killed_by(2, E) and killed_by(3, E) for E in masks)
        assert list(cp.verify_degree(60).coprime_masks) == expected

    def test_search_runs_only_past_one_chunk(self, monkeypatch):
        calls = spy(monkeypatch, "_search_hits")
        for d in (2, 4, 12, 60, 144):  # 0 to 13 free rows
            cp.verify_degree(d)
        assert not calls
        for d in (120, 210, 360):  # 14, 14 and 22 free rows
            cp.verify_degree(d)
        assert len(calls) == 3

    def test_scan_bound_refused_before_tables(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="beyond the scan bound"):
            cp.verify_degree(2520)
        assert time.perf_counter() - start < 1.0
        free = max(len(divisor_data(d).divisors) for d in range(2, 2520, 2)) - 2
        assert free == cp.MAX_FREE_ROWS

    def test_range_refuses_over_bound_degree_before_the_sweep(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^2520 has 46 free divisor rows"):
            next(cp.iter_verify_range(10**6, jobs=2))
        assert time.perf_counter() - start < 1.0

    def test_range_deterministic_across_worker_counts(self):
        serial = list(cp.iter_verify_range(60, jobs=1))
        for jobs in (4, 8):
            parallel = list(cp.iter_verify_range(60, jobs=jobs))
            assert [
                (r.d, r.subsets_scanned, r.coprime_masks, r.holds) for r in serial
            ] == [
                (r.d, r.subsets_scanned, r.coprime_masks, r.holds) for r in parallel
            ]

    def test_range_pool_capped_at_degrees_and_cpus(self, monkeypatch):
        # a fake Pool records its size and maps in this process, so no
        # worker starts however large the requested count
        import multiprocessing

        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize=1):
                return map(fn, items)

        def outcome(reports):
            return [(r.d, r.subsets_scanned, r.coprime_masks, r.holds) for r in reports]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(cp.os, "cpu_count", lambda: 3)
        serial = outcome(cp.iter_verify_range(20, jobs=1))
        assert outcome(cp.iter_verify_range(20, jobs=10**6)) == serial
        assert outcome(cp.iter_verify_range(4, jobs=10**6)) == serial[:2]
        monkeypatch.setattr(cp.os, "cpu_count", lambda: None)
        assert outcome(cp.iter_verify_range(20, jobs=10**6)) == serial
        assert sizes == [3, 2]

    def test_range_rejects_tiny_bound(self):
        with pytest.raises(ValueError):
            list(cp.iter_verify_range(1))

    def test_iter_range_streams_in_degree_order(self):
        it = cp.iter_verify_range(20, jobs=2)
        assert iter(it) is it  # a generator, not a materialised list
        assert [r.d for r in it] == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]


@st.composite
def search_inputs(draw):
    """A small integer matrix with row 1 constant, up to 12 free rows and
    entries in [-3, 3], at the width verify_degree would give it, and 1-3
    random checks (A, B) on its columns."""
    free, m = draw(st.integers(0, 12)), draw(st.integers(2, 6))
    rows = draw(arrays(np.int64, (free + 1, m), elements=st.integers(-3, 3)))
    columns = np.concatenate([np.full((1, m), draw(st.integers(-3, 3))), rows])
    columns = columns.astype(cp.int_dtype(int(np.abs(columns).sum(axis=0).max())))
    cols = st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)
    groups = draw(st.lists(st.tuples(cols, cols), min_size=1, max_size=3))
    return columns, [(np.array(sorted(A)), np.array(sorted(B))) for A, B in groups]


@st.composite
def kernel_inputs(draw):
    """Up to 10 integer rows over 1-6 columns with entries in [-3, 3], a
    target per column in [-6, 6], the columns cut into checks at random
    starts (every column its own check in half the draws), and as the
    rows' mask bits a permutation of 0..n-1 shifted by up to 2."""
    n, m = draw(st.integers(0, 10)), draw(st.integers(1, 6))
    steps = draw(arrays(np.int64, (n, m), elements=st.integers(-3, 3)))
    rest = draw(arrays(np.int64, m, elements=st.integers(-6, 6)))
    singletons = draw(st.booleans())
    cuts = [singletons or draw(st.booleans()) for _ in range(m - 1)]
    starts = np.array([0] + [j for j in range(1, m) if cuts[j - 1]])
    shift = draw(st.integers(0, 2))
    return steps, rest, starts, [b + shift for b in draw(st.permutations(range(n)))]


def all_true(rest, *bound):
    return np.ones(rest.shape, dtype=bool)


class TestSearch:
    @given(kernel_inputs())
    @settings(max_examples=200, deadline=None)
    def test_branch_and_bound_matches_brute_force(self, inputs):
        # every subset of the rows summed and compared with the target on
        # each column: a subset passes when each check has a column it hits
        steps, rest, starts, bits = inputs
        n = len(steps)
        hit = (np.arange(1 << n)[:, None] >> np.arange(n) & 1) @ steps == rest
        ends = starts.tolist()[1:] + [len(rest)]
        passing = np.all([hit[:, s:t].any(axis=1) for s, t in zip(starts, ends)], axis=0)
        expected = sorted(sum(1 << bits[r] for r in range(n) if t >> r & 1)
                          for t in np.flatnonzero(passing).tolist())
        assert sorted(cp._branch_and_bound(steps, rest, starts, bits).tolist()) == expected

    @pytest.mark.parametrize("top", [16383, 16384], ids=["int16", "int64"])
    def test_branch_and_bound_width_from_its_bound(self, monkeypatch, top):
        # steps top and 16384 on one column, target 0: |rest| + sum |step|
        # is 32767, the last int16 value, or 32768, past it, where an int16
        # search would wrap the upper bound to -32768 and lose the empty set
        bounds, inner = [], cp.int_dtype

        def spy(bound):
            bounds.append(bound)
            return inner(bound)

        monkeypatch.setattr(cp, "int_dtype", spy)
        hits = cp._branch_and_bound(np.array([[top], [16384]]), np.zeros(1, dtype=np.int64),
                                    np.array([0]), [0, 1])
        assert hits.tolist() == [0] and bounds == [top + 16384]

    @pytest.mark.parametrize("off", [(), ("_in_interval",)], ids=["interval-alone", "none"])
    @given(search_inputs())
    @settings(max_examples=150, deadline=None)
    def test_search_matches_passing_on_every_mask(self, off, inputs):
        # the search against the direct test of all 2^free masks, with the
        # interval bound and with no bound: the bound changes only the speed
        columns, groups = inputs
        table = cp.subset_sums(columns[2:]) + columns[0] + columns[1]
        with pytest.MonkeyPatch.context() as m:
            for name in off:
                m.setattr(cp, name, all_true)
            hits = cp._search_hits(columns, groups)
        assert hits.tolist() == cp._passing(table, groups).tolist()

    @given(search_inputs())
    @settings(max_examples=150, deadline=None)
    def test_last_level_is_exact_alone(self, inputs):
        # at full depth the interval is [0, 0], so a leaf lives iff each
        # check has some b with Z = 0: with the leaves' re-test keeping
        # every row, the search still returns exactly the passing masks
        columns, groups = inputs
        table = cp.subset_sums(columns[2:]) + columns[0] + columns[1]
        expected = cp._passing(table, groups).tolist()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cp, "_passing", lambda profiles, checks: np.arange(len(profiles)))
            assert cp._search_hits(columns, groups).tolist() == expected

    @pytest.mark.parametrize("bound", ["_in_interval"], ids=["interval"])
    @given(steps=st.lists(st.integers(-6, 6), min_size=1, max_size=8), z0=st.integers(-12, 12))
    @settings(max_examples=150, deadline=None)
    def test_each_bound_keeps_exactly_the_prefixes_it_can(self, bound, steps, z0):
        # one check with one pair (a, b) = (1, 0), whose Z is z0 plus the
        # free rows' steps: each level keeps exactly the children of the
        # last level's nodes, the rows taken in descending |step| order,
        # that the bound admits: rest = -z0 - (prefix sum) within the sums
        # of the negative and of the positive undecided steps
        columns = np.array([[1, 1], [0, z0]] + [[0, x] for x in steps])
        groups = [(np.array([1]), np.array([0]))]
        kept, inner = [], getattr(cp, bound)

        def counting(rest, *args):
            ok = inner(rest, *args)
            kept.append(int(ok.sum()))
            return ok

        with pytest.MonkeyPatch.context() as m:
            m.setattr(cp, bound, counting)
            cp._search_hits(columns, groups)
        steps = sorted(steps, key=abs, reverse=True)
        rests, expected = [-z0], []
        for i in range(len(steps) + 1):
            if i:
                rests = [r - e * steps[i - 1] for r in rests for e in (0, 1)]
            left = steps[i:]
            low, high = sum(x for x in left if x < 0), sum(x for x in left if x > 0)
            rests = [r for r in rests if low <= r <= high]
            expected.append(len(rests))
            if not rests:
                break
        assert kept == expected


class TestRowSubset:
    def test_round_trip(self):
        E = cp.RowSubset.from_divisors(12, [2, 6, 12])
        assert E.divisors() == (2, 6, 12)
        assert cp.RowSubset(12, E.mask).divisors() == (2, 6, 12)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            cp.RowSubset.from_divisors(12, [5])
