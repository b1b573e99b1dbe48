import itertools
import math
import random
import time
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside import cli, permgroup as pg
from helpers import (
    cyclic_regular_corpus,
    exhaustive_first_blocks,
    full_cycle,
    random_relabelling,
    run_cli,
)


def closure(gens, degree, cap=100_000):
    one = pg.Permutation(tuple(range(degree)))
    elems = {one.images}
    queue = deque([one])
    while queue:
        h = queue.popleft()
        for g in gens:
            nxt = pg.compose(h, g)
            if nxt.images not in elems:
                elems.add(nxt.images)
                assert len(elems) <= cap
                queue.append(nxt)
    return elems


def stabiliser_orbits(G, base=0):
    """Brute-force oracle: enumerate the group, keep the elements fixing
    `base`, and take the orbits of that stabiliser directly."""
    stab = [e for e in closure(G.generators, G.degree) if e[base] == base]
    seen = set()
    orbits = []
    for x in range(G.degree):
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for e in stab:
                z = e[y]
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


def bfs_orbits(G):
    """Reference orbits: a breadth-first search from each unseen point."""
    seen = [False] * G.degree
    out = []
    for start in range(G.degree):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for g in G.generators:
                y = g[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
                    queue.append(y)
        out.append(sorted(orbit))
    return out


@st.composite
def small_groups(draw):
    """Random generator sets on 2-7 points; unlike the cyclic-regular
    corpus they normalise nothing, so few Schreier generators coincide."""
    m = draw(st.integers(2, 7))
    gens = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3))
    return pg.PermGroup(m, tuple(pg.Permutation(tuple(g)) for g in gens))


def orbital_suborbits(G, base=0):
    """Brute-force oracle for groups too large to enumerate: the G-orbit of
    (base, x) on ordered pairs meets {base} x points in x's suborbit."""
    m = G.degree
    first: dict[tuple[int, int], tuple[int, int]] = {}
    for start in ((base, x) for x in range(m)):
        if start in first:
            continue
        first[start], stack = start, [start]
        while stack:
            x, y = stack.pop()
            for g in G.generators:
                if (g[x], g[y]) not in first:
                    first[g[x], g[y]] = start
                    stack.append((g[x], g[y]))
    classes: dict[tuple[int, int], list[int]] = {}
    for x in range(m):
        classes.setdefault(first[base, x], []).append(x)
    return sorted(classes.values())


def merged_edges(G, base=0):
    """`suborbits(G, base)` and the number of edges it passed to `_merge`."""
    sizes = []

    def spy(label, a, b):
        sizes.append(np.size(a))
        merge(label, a, b)

    merge = pg._merge
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pg, "_merge", spy)
        return pg.suborbits(G, base), sum(sizes)


def unit_translations(moduli):
    """The unit translations of Z_n1 x .. x Z_nk on the mixed-radix labels
    sum x_i s_i, s_i = n_(i+1) .. n_k, and the labels' digits."""
    m = math.prod(moduli)
    strides = [math.prod(moduli[i + 1 :]) for i in range(len(moduli))]
    digits = [[x // s % n for n, s in zip(moduli, strides)] for x in range(m)]

    def label(ds):
        return sum(d % n * s for d, n, s in zip(ds, moduli, strides))

    gens = [
        pg.Permutation(tuple(label([d + (j == i) for j, d in enumerate(digits[x])]) for x in range(m)))
        for i in range(len(moduli))
    ]
    return gens, digits, label


@st.composite
def groups_led_by_translations(draw):
    """K = Z_n1 x .. x Z_nk (k <= 3, m <= 24) by its unit translations, then
    0-2 random permutations, a map x -> sum x_i P_i + c for random P_i
    (additive or not) when it is a bijection, and the swap of two
    coordinates of equal moduli."""
    moduli = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3).filter(
        lambda ns: math.prod(ns) <= 24))
    m = math.prod(moduli)
    gens, digits, label = unit_translations(moduli)
    extra = [pg.Permutation(tuple(p)) for p in draw(st.lists(st.permutations(range(m)), max_size=2))]
    P = draw(st.lists(st.integers(0, m - 1), min_size=len(moduli), max_size=len(moduli)))
    c = draw(st.integers(0, m - 1))
    images = tuple(label([sum(x * digits[p][j] for x, p in zip(digits[y], P)) + digits[c][j]
                          for j in range(len(moduli))]) for y in range(m))
    if draw(st.booleans()) and len(set(images)) == m:
        extra.append(pg.Permutation(images))
    equal = [(i, j) for i in range(len(moduli)) for j in range(i) if moduli[i] == moduli[j]]
    if equal and draw(st.booleans()):
        i, j = draw(st.sampled_from(equal))
        swapped = [list(ds) for ds in digits]
        for ds in swapped:
            ds[i], ds[j] = ds[j], ds[i]
        extra.append(pg.Permutation(tuple(map(label, swapped))))
    return pg.PermGroup(m, tuple(gens + draw(st.permutations(extra)))), moduli


@st.composite
def groups_with_rotation(draw):
    """The full cycle (0,1,...,m-1) and 1-2 random permutations, 2-8 points."""
    m = draw(st.integers(2, 8))
    gens = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=2))
    return pg.PermGroup(m, (full_cycle(m), *(pg.Permutation(tuple(g)) for g in gens)))


class TestBasics:
    def test_compose_inverse(self):
        g = full_cycle(4)
        assert pg.compose(g, pg.inverse(g)).images == (0, 1, 2, 3)

    def test_cycle_wraps(self):
        assert pg.cycle([0, 1, 2, 3], 4)[3] == 0

    def test_cycle_power_order(self):
        g = full_cycle(7)
        h = g
        for _ in range(6):
            h = pg.compose(h, g)
        assert h.images == tuple(range(7))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            pg.compose(full_cycle(4), full_cycle(5))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            pg.Permutation((0, 0, 1))

    def test_group_needs_a_point(self):
        with pytest.raises(ValueError, match="at least one point"):
            pg.PermGroup(0, (pg.Permutation(()),))

    def test_parse_and_str(self):
        perm = pg.parse_permutation("(0,1,2,3)(4,5)", 6)
        assert perm.images == (1, 2, 3, 0, 5, 4)
        assert str(perm) == "(0,1,2,3)(4,5)"
        assert pg.parse_permutation("()", 3).images == (0, 1, 2)
        with pytest.raises(ValueError):
            pg.parse_permutation("(0,1", 3)
        with pytest.raises(ValueError):
            pg.parse_permutation("(0,5)", 3)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_parse_matches_composed_cycles(self, data):
        # cycles may share points, as in (0,1)(1,2): they apply left to right
        n = data.draw(st.integers(1, 9))
        cycles = data.draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), max_size=5
        ))
        want = pg.Permutation(tuple(range(n)))
        for pts in cycles:
            want = pg.compose(want, pg.cycle(pts, n))
        text = "".join("(" + ",".join(map(str, pts)) + ")" for pts in cycles)
        assert pg.parse_permutation(text, n) == want

    def test_parse_in_linear_time(self):
        # composing one full-degree permutation per cycle took ~6 s (2-vCPU Xeon)
        n = 8192
        text = "".join(f"({i},{i + 1})" for i in range(0, n, 2))
        start = time.perf_counter()
        perm = pg.parse_permutation(text, n)
        assert time.perf_counter() - start < 1
        assert perm.images[:4] == (1, 0, 3, 2) and len(perm.cycles()) == n // 2

    def test_parse_generators_infers_degree(self):
        gens = pg.parse_generators("(0,1,2,3)(4,5);(0,4)")
        assert gens[0].degree == 6 and len(gens) == 2


class TestOrbits:
    def test_two_orbits(self):
        G = pg.PermGroup(4, (pg.parse_permutation("(0,1)(2,3)", 4),))
        assert pg.orbits(G) == [[0, 1], [2, 3]]

    def test_cycle_transitive(self):
        assert pg.is_transitive(pg.cyclic(9))

    def test_trivial_group_singletons(self):
        G = pg.PermGroup(3, (pg.Permutation(tuple(range(3))),))
        assert pg.orbits(G) == [[0], [1], [2]]

    @settings(max_examples=150, deadline=None)
    @given(G=small_groups())
    def test_agrees_with_breadth_first_search(self, G):
        want = bfs_orbits(G)
        assert pg.orbits(G) == want
        assert pg.is_transitive(G) == (len(want) == 1)


class TestSuborbits:
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_symmetric(self, d):
        assert pg.suborbits(pg.symmetric(d)) == [[0], list(range(1, d))]

    def test_dihedral4(self):
        assert pg.suborbits(pg.dihedral(4)) == [[0], [1, 3], [2]]

    def test_wreath_25(self):
        subs = pg.suborbits(pg.wreath_product_action(5).group)
        assert sorted(len(s) for s in subs) == [1, 8, 16]

    def test_requires_transitive(self):
        G = pg.PermGroup(4, (pg.parse_permutation("(0,1)(2,3)", 4),))
        with pytest.raises(ValueError):
            pg.suborbits(G)

    @pytest.mark.parametrize("base", [-1, 4, 10])
    def test_base_out_of_range(self, base):
        with pytest.raises(ValueError):
            pg.suborbits(pg.cyclic(4), base)

    def test_base_shift_on_corpus(self):
        # the canonical cycle raised to the power b sends 0 to b, so the
        # stabiliser of b has the base-0 suborbits moved by x -> x + b
        for G, _ in cyclic_regular_corpus():
            d = G.degree
            base0 = pg.suborbits(G)
            for b in range(d):
                shifted = sorted(sorted((x + b) % d for x in o) for o in base0)
                assert pg.suborbits(G, b) == shifted, (G.name, b)

    def test_sizes_sum_to_degree_on_corpus(self):
        for G, _ in cyclic_regular_corpus(40):
            subs = pg.suborbits(G)
            assert sum(len(s) for s in subs) == G.degree, G.name

    def test_agrees_with_stabiliser_orbits(self):
        small = [
            (G, g)
            for G, g in cyclic_regular_corpus(30)
            if G.name.startswith(("dihedral", "cyclic", "affine"))
        ] + [(pg.symmetric(d), full_cycle(d)) for d in (4, 5, 6)]
        for G, _ in small:
            assert stabiliser_orbits(G) == pg.suborbits(G), G.name

    @settings(max_examples=150, deadline=None)
    @given(G=small_groups(), data=st.data())
    def test_random_generators_agree_with_brute_force(self, G, data):
        if not pg.is_transitive(G):
            with pytest.raises(ValueError, match="transitive"):
                pg.suborbits(G)
            assert not pg.regular_check(G.degree, list(G.generators))
            return
        base = data.draw(st.integers(0, G.degree - 1))
        assert pg.suborbits(G, base) == stabiliser_orbits(G, base)
        order = len(closure(G.generators, G.degree))
        assert pg.regular_check(G.degree, list(G.generators)) == (order == G.degree)

    @settings(max_examples=60, deadline=None)
    @given(G=groups_with_rotation(), data=st.data())
    def test_rotation_and_search_agree_with_brute_force(self, G, data):
        m = G.degree
        base = data.draw(st.integers(0, m - 1))
        subs = pg.suborbits(G, base)
        assert subs == stabiliser_orbits(G, base)
        # relabelled by sigma the group keeps a full cycle among its
        # generators, the rotation only when sigma commutes with it, so
        # `suborbits` relabels along it; hiding every translation source
        # from `suborbits` sends it down the search path
        sigma = data.draw(st.permutations(range(m)))
        inv = pg.inverse(pg.Permutation(tuple(sigma)))
        K = pg.PermGroup(m, tuple(
            pg.Permutation(tuple(sigma[g[inv[x]]] for x in range(m))) for g in G.generators
        ))
        want = sorted(sorted(sigma[x] for x in o) for o in subs)
        assert pg.suborbits(K, sigma[base]) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pg, "_regular_abelian", lambda G, base: None)
            assert pg.suborbits(K, sigma[base]) == want

    @settings(max_examples=200, deadline=None)
    @given(case=groups_led_by_translations(), data=st.data())
    def test_translations_agree_with_orbitals_and_search(self, case, data):
        G, moduli = case
        base = data.draw(st.integers(0, G.degree - 1))
        assert pg.translation_moduli(G) == tuple(moduli)
        subs = pg.suborbits(G, base)
        assert subs == orbital_suborbits(G, base)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pg, "_regular_abelian", lambda G, base: None)
            assert pg.suborbits(G, base) == subs

    def test_non_additive_map_is_not_one_row(self):
        # h(x) = phi(x) + h(0) with phi(0, 1) = (2, 1), but 2 (2, 1) = (1, 0)
        # is not 0 in Z_3 x Z_2: phi is no homomorphism, and merging x -
        # phi(x) as one row gave wrong suborbits at base 4
        (a, b), _, _ = unit_translations((3, 2))
        G = pg.PermGroup(6, (a, b, pg.Permutation((5, 2, 3, 0, 1, 4))))
        assert pg.suborbits(G, 4) == orbital_suborbits(G, 4) == stabiliser_orbits(G, 4)

    @settings(max_examples=150, deadline=None)
    @given(case=groups_led_by_translations(), data=st.data())
    def test_near_affine_generator_merges_the_rows_and_columns_of_its_defects(self, case, data):
        # h = A pi: an affine A(x) = s x + c of K after a permutation pi of
        # support below m/4, so the majority fit finds A and D = supp(pi)
        G, moduli = case
        m, k = G.degree, len(moduli)
        gens, digits, label = unit_translations(moduli)
        s = data.draw(st.sampled_from([s for s in range(1, max(moduli) + 1)
                                       if all(math.gcd(s, n) == 1 for n in moduli)]))
        c = data.draw(st.integers(0, m - 1))
        A = [label([s * x + y for x, y in zip(digits[z], digits[c])]) for z in range(m)]
        moved = data.draw(st.lists(st.integers(0, m - 1), unique=True, max_size=-(-m // 4) - 1))
        pi = list(range(m))
        for x, y in zip(moved, data.draw(st.permutations(moved))):
            pi[x] = y
        h = pg.Permutation(tuple(A[pi[x]] for x in range(m)))
        support = sum(x != y for x, y in enumerate(pi))
        where = data.draw(st.integers(k, len(G.generators)))
        G = pg.PermGroup(m, G.generators[:where] + (h,) + G.generators[where:])
        base = data.draw(st.integers(0, m - 1))
        subs = pg.suborbits(G, base)
        assert subs == orbital_suborbits(G, base)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pg, "_regular_abelian", lambda G, base: None)
            assert pg.suborbits(G, base) == subs
        # h alone: the row x - phi(x), then a row and a column per point of D,
        # at any base as at 0, since the classes at base are those at 0 moved
        H = pg.PermGroup(m, (*gens, h))
        assert merged_edges(H, base)[1] == merged_edges(H)[1] == (2 * support + 1) * m

    @pytest.mark.parametrize("make", [
        lambda: pg.dihedral(12),  # the reflection x -> -x
        lambda: pg.PermGroup(12, (full_cycle(12), pg.Permutation(
            tuple((5 - x) % 12 for x in range(12))))),  # x -> 5 - x, c = 5
        lambda: pg.affine(35, 4),  # the multiplier x -> 4x
        lambda: pg.PermGroup(25, (*pg.wreath_product_action(5).embedded_abelian,
                                  pg.coordinate_swap(5))),  # the swap of C_5 x C_5
    ], ids=["dihedral", "reflection-c5", "affine", "wreath-swap"])
    @pytest.mark.parametrize("base", [0, 1, 7])
    def test_affine_generator_merges_one_row(self, make, base):
        # an affine h fits with D empty: the one row x - phi(x), m edges
        G = make()
        subs, edges = merged_edges(G, base)
        assert subs == orbital_suborbits(G, base)
        assert edges == G.degree

    def test_defects_on_half_the_points_take_every_row(self):
        # h = (1,2) on Z_4: the most common step is 2 and c = 0, so the fit
        # x -> 2x misses h at D = {2, 3}, 2|D| = m; 2x is no bijection, and
        # its row x - 2x would join 2 to the base point
        h = pg.parse_permutation("(1,2)", 4)
        G = pg.PermGroup(4, (full_cycle(4), h))
        subs, edges = merged_edges(G)
        assert subs == orbital_suborbits(G) == [[0], [1, 2, 3]]
        assert edges == 4 * 4

    def test_non_additive_majority_fit_takes_every_row(self):
        # on Z_3 x Z_2 the most common steps give phi(e_0) = (1, 1) and
        # phi(e_1) = (1, 0), and phi + 0 misses h only at 5; but 2 (1, 1) =
        # (2, 0) is not 0, so phi is no homomorphism and its rows differ
        (a, b), _, _ = unit_translations((3, 2))
        G = pg.PermGroup(6, (a, b, pg.Permutation((0, 2, 3, 5, 4, 1))))
        assert pg.suborbits(G) == orbital_suborbits(G) == stabiliser_orbits(G) == [[0], [1, 2, 3, 4, 5]]

    def test_rotation_path_builds_no_table(self):
        G = pg.dihedral(4096)
        tracemalloc.start()
        try:
            subs = pg.suborbits(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert subs[:3] == [[0], [1, 4095], [2, 4094]] and len(subs) == 2049
        # the search path's inverse transversal alone would be 4096^2 int16, 32 MiB
        assert peak < 8 * 2**20, peak

    def test_translation_path_builds_no_table(self):
        # wreath:64 leads with the unit translations of C_64 x C_64
        G = pg.wreath_product_action(64).group
        tracemalloc.start()
        try:
            subs = pg.suborbits(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(len(s) for s in subs) == [1, 126, 3969]
        # the search path's inverse transversal alone would be 4096^2 int16, 32 MiB
        assert peak < 8 * 2**20, peak

    def test_sparse_rows_build_no_table(self):
        # each lifted transposition of wreath:128 misses the identity on
        # |D| = 2 x 128 of its m = 16 384 points and merges (2|D| + 1) m
        # edges, and the coordinate swap is affine: one row
        G = pg.wreath_product_action(128).group
        tracemalloc.start()
        try:
            subs, edges = merged_edges(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(len(s) for s in subs) == [1, 254, 16129]
        assert edges == (1 + 2 * 513) * G.degree
        # the search path's inverse transversal alone would be 16384^2 int16, 512 MiB
        assert peak < 8 * 2**20, peak

    def test_search_path_holds_one_table(self):
        # reversed, no translation leads and no generator is a full cycle
        G = pg.wreath_product_action(64).group
        G = pg.PermGroup(G.degree, G.generators[::-1])
        tracemalloc.start()
        try:
            subs = pg.suborbits(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(len(s) for s in subs) == [1, 126, 3969]
        # one int16 table of 4096^2 entries is 32 MiB; a second would pass 64
        assert peak < 48 * 2**20, peak

    def test_point_budget_refused_before_tables(self, monkeypatch):
        m = pg.MAX_DEGREE + 1
        rotation = pg.cyclic(m)
        # transitive, and no generator is a full cycle: the search path
        search = pg.PermGroup(m, (pg.cycle(range(m - 1), m), pg.cycle([m - 2, m - 1], m)))

        def forbidden(*args, **kwargs):
            raise AssertionError("allocated a table past the point budget")

        for name in ("empty", "zeros", "arange", "array"):
            monkeypatch.setattr(pg.np, name, forbidden)
        for G in (rotation, search):
            with pytest.raises(ValueError, match="point budget of 16384"):
                pg.suborbits(G)
            with pytest.raises(ValueError, match="point budget"):
                pg.regular_check(G.degree, list(G.generators))

    def test_point_budget_cli(self, capsys):
        code, out = run_cli(["suborbits", "--group", "cyclic:16385"])
        assert code == cli.EXIT_USAGE and out == ""
        assert "point budget of 16384 points" in capsys.readouterr().err

    def test_degree_1024_admitted(self):
        assert pg.suborbits(pg.cyclic(1024)) == [[x] for x in range(1024)]


class TestRelabel:
    def test_embedded_product_labels_the_pair_grid(self):
        # the embedded C_d x C_d leads wreath:d, and (i, j) is already i*d + j
        W = pg.wreath_product_action(5)
        H, order = pg.relabel(W.group, W.embedded_abelian)
        assert order == tuple(range(25)) and H.generators == W.group.generators
        assert pg.translation_moduli(H) == (5, 5)

    @settings(max_examples=100, deadline=None)
    @given(case=groups_led_by_translations(), data=st.data())
    def test_conjugated_translations_relabelled_back(self, case, data):
        # sigma^-1 K sigma relabelled by its own generators from sigma(b) is
        # K shifted by b: the point sigma(x) takes the label x - b
        G, moduli = case
        m, k = G.degree, len(moduli)
        sigma = data.draw(st.permutations(range(m)))
        b = data.draw(st.integers(0, m - 1))
        inv = pg.inverse(pg.Permutation(tuple(sigma)))
        K = pg.PermGroup(m, tuple(
            pg.Permutation(tuple(sigma[g[inv[x]]] for x in range(m))) for g in G.generators
        ))
        H, order = pg.relabel(K, K.generators[:k], sigma[b])
        assert H.generators[:k] == G.generators[:k] and pg.translation_moduli(H) == tuple(moduli)
        _, digits, label = unit_translations(moduli)
        shifted = [label([x - y for x, y in zip(digits[c], digits[b])]) for c in range(m)]
        assert [shifted[inv[p]] for p in order] == list(range(m))
        assert pg.suborbits(H) == orbital_suborbits(H)

    @pytest.mark.parametrize(
        "gens",
        [
            ("(0,1)(2,3)", "(0,1)(2,3)"),  # (a, a): 0, 1, 1, 0 labels no bijection
            ("(0,1,2,3)", "(0,1,2,3)"),  # (a, a): 16 labels for 4 points
        ],
    )
    def test_repeated_generator_refused(self, gens):
        G = pg.PermGroup(4, (pg.parse_permutation("(0,1,2,3)", 4),))
        with pytest.raises(ValueError, match="does not act regularly"):
            pg.relabel(G, [pg.parse_permutation(g, 4) for g in gens])

    def test_no_generator_pair_of_the_product_refused(self):
        # a and ab generate C_6, but ab has order 6: 12 labels for 6 points
        a = pg.parse_permutation("(0,1)(2,3)(4,5)", 6)
        ab = pg.compose(a, pg.parse_permutation("(0,2,4)(1,3,5)", 6))
        with pytest.raises(ValueError, match="does not act regularly"):
            pg.relabel(pg.cyclic(6), (a, ab))

    def test_non_commuting_pair_refused(self):
        # S_3 acting on itself by right multiplication: a^x b^y labels the 6
        # elements bijectively, but ab = b^-1 a, so a is no unit translation
        elems = sorted(itertools.permutations(range(3)))

        def right(s):
            return pg.Permutation(tuple(elems.index(tuple(s[i] for i in e)) for e in elems))

        a, b = right((1, 0, 2)), right((1, 2, 0))
        G = pg.PermGroup(6, (a, b))
        assert len(pg.cycle_points(a, 0)) * len(pg.cycle_points(b, 0)) == 6
        with pytest.raises(ValueError, match="does not act regularly"):
            pg.relabel(G, (a, b))

    def test_full_cycle_refusal_keeps_its_message(self):
        with pytest.raises(ValueError, match="not a d-cycle"):
            pg.relabel(pg.dihedral(6), (pg.parse_permutation("(0,1,2)(3,4,5)", 6),))


class TestTwoTransitivity:
    def test_examples(self):
        assert len(pg.suborbits(pg.symmetric(4))) == 2
        assert len(pg.suborbits(pg.dihedral(5))) != 2
        assert len(pg.suborbits(pg.wreath_product_action(5).group)) != 2


class TestBlocks:
    def test_dihedral6_antipodal(self):
        system = pg.minimal_blocks(pg.dihedral(6), 0, 3)
        assert sorted(map(tuple, system.blocks())) == [(0, 3), (1, 4), (2, 5)]
        assert system.block_size == 2 and system.block_count == 3

    def test_cyclic4(self):
        system = pg.minimal_blocks(pg.cyclic(4), 0, 2)
        assert sorted(map(tuple, system.blocks())) == [(0, 2), (1, 3)]

    def test_wreath_primitive(self):
        assert pg.is_primitive(pg.wreath_product_action(5).group)

    def test_dihedral_primitive_iff_prime_degree(self):
        for d in range(3, 31):
            is_prime = all(d % q for q in range(2, d))
            assert pg.is_primitive(pg.dihedral(d)) == is_prime, d

    SEARCH_GROUPS = (
        [pg.dihedral(d) for d in range(3, 41)]
        + [pg.cyclic(d) for d in range(2, 31)]
        + [pg.symmetric(d) for d in range(3, 12)]
        + [pg.wreath_product_action(d).group for d in range(2, 7)]
        + [pg.affine(d, s) for d, s in [(8, 5), (9, 7), (12, 7), (16, 5), (25, 7), (35, 4)]]
    )

    def test_primitivity_matches_exhaustive_search(self):
        for G in self.SEARCH_GROUPS:
            assert pg.is_primitive(G) == (exhaustive_first_blocks(G) is None), G.name

    def test_first_blocks_match_exhaustive_search_on_conjugates(self):
        # random labels move the point 1 off the first non-base suborbit
        rng = random.Random(1975)
        for G in self.SEARCH_GROUPS:
            (K,) = random_relabelling(rng, G)
            found = pg.first_nontrivial_blocks(K, pg.suborbits(K))
            assert found == exhaustive_first_blocks(K), G.name

    def test_blocks_numbered_by_least_point(self):
        # the union-find root of the block of 0 is not 0 here, and blocks
        # numbered by sorted roots came out as [[1, 3, 5, 7], [0, 2, 4, 6]]
        system = pg.minimal_blocks(pg.affine(8, 5), 0, 2)
        assert system.blocks() == [[0, 2, 4, 6], [1, 3, 5, 7]]

    def test_wrong_suborbits_refused(self):
        # dihedral suborbits give k = gcd(12, 2, 10) = 2, whose residues the
        # transposition (0,1) of sym:12 does not keep
        with pytest.raises(RuntimeError, match="residues mod 2"):
            pg.first_nontrivial_blocks(pg.symmetric(12), pg.suborbits(pg.dihedral(12)))

    def test_blocks_respected_by_generators(self):
        G = pg.dihedral(12)
        system = pg.minimal_blocks(G, 0, 4)
        for g in G.generators:
            for block in system.blocks():
                image = {g[x] for x in block}
                assert image in map(set, system.blocks())

    def test_rejects_equal_points(self):
        with pytest.raises(ValueError):
            pg.minimal_blocks(pg.cyclic(4), 1, 1)


class TestRegularCheck:
    def test_cycle_regular(self):
        for d in (3, 6, 10):
            assert pg.regular_check(d, [full_cycle(d)])

    def test_intransitive(self):
        assert not pg.regular_check(4, [pg.cycle([0, 1], 4)])

    def test_too_big(self):
        assert not pg.regular_check(4, list(pg.symmetric(4).generators))

    def test_embedded_product_in_wreath(self):
        W = pg.wreath_product_action(5)
        assert pg.regular_check(25, list(W.embedded_abelian))

    def test_c4_c2_c2(self):
        W = pg.wreath_product_action(4)
        gens = [
            W.embedded_abelian[0],
            pg.second_coordinate_perm(pg.parse_permutation("(0,1)(2,3)", 4), 4),
            pg.second_coordinate_perm(pg.parse_permutation("(0,2)(1,3)", 4), 4),
        ]
        assert pg.regular_check(16, gens)


class TestWreath:
    def test_degree_and_transitivity(self):
        W = pg.wreath_product_action(3)
        assert W.group.degree == 9
        assert pg.is_transitive(W.group)

    def test_order_72_at_d3(self):
        assert len(closure(pg.wreath_product_action(3).group.generators, 9)) == 72

    def test_swap_involution(self):
        tau = pg.coordinate_swap(4)
        assert pg.compose(tau, tau).images == tuple(range(16))

    def test_pair_encoding(self):
        assert pg.pair_code(2, 3, 5) == 13


class TestAffine:
    def test_multiplier_must_be_unit(self):
        with pytest.raises(ValueError):
            pg.affine(9, 3)

    @pytest.mark.parametrize("d", [-3, 0, 1])
    def test_degree_below_two_rejected(self, d):
        with pytest.raises(ValueError, match="degree must be at least 2"):
            pg.affine(d, 1)

    def test_order(self):
        G = pg.affine(9, 2)
        assert len(closure(G.generators, 9)) == 54  # 9 * ord(2 mod 9)
