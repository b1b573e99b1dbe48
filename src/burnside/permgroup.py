"""Generator-driven permutation group computations.

Permutations act on the right and compose left to right: the image of a
point i under first a then b is b[a[i]].  Everything here is polynomial
in the degree and works straight from generator lists.  Orbits are one
union of the edges x - g(x), and suborbits one union of the Schreier-map
edges, in chunks of coset rows.  The one walk, `relabel`, labels points
by their coordinates in a regular K = Z_n1 x .. x Z_nk, which then acts by
unit translations; these give the inverse transversal with no m x m
table, and every named family leads with them.  Otherwise a search holds
one int16 m x m table.  A transitive group is regular when every
suborbit is a single point.  The first non-trivial block system of a
group led by one full translation is read off one gcd per suborbit;
otherwise a union-find glues points.

Groups are immutable and all functions are pure.
"""

from __future__ import annotations

import math
import re
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .cyclotomic import int_dtype


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0..m-1} stored as its image array."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("image array is not a bijection")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __getitem__(self, i: int) -> int:
        return self.images[i]

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, each starting from its least point."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """First apply a, then b (right action convention)."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} != {b.degree}")
    return Permutation(tuple(b.images[x] for x in a.images))


def inverse(a: Permutation) -> Permutation:
    inv = [0] * a.degree
    for i, x in enumerate(a.images):
        inv[x] = i
    return Permutation(tuple(inv))


def cycle(points, degree: int) -> Permutation:
    """The cycle sending points[k] to points[k+1] (and the last to the first)."""
    images = list(range(degree))
    pts = list(points)
    for k, x in enumerate(pts):
        images[x] = pts[(k + 1) % len(pts)]
    return Permutation(tuple(images))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation like "(0,1,2,3)(4,5)" into a permutation."""
    stripped = text.replace(" ", "")
    if not re.fullmatch(r"(\([\d,]*\))*", stripped):
        raise ValueError(f"malformed cycle notation: {text!r}")
    images, inv = list(range(degree)), list(range(degree))
    for body in _CYCLE_RE.findall(stripped):
        if not body:
            continue
        pts = [int(t) for t in body.split(",")]
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle: {text!r}")
        if max(pts) >= degree:
            raise ValueError(f"point {max(pts)} exceeds degree {degree}")
        # cycles apply left to right: what reached pts[k] goes on to pts[k + 1]
        for i, y in zip([inv[x] for x in pts], pts[1:] + pts[:1]):
            images[i], inv[y] = y, i
    return Permutation(tuple(images))


def parse_generators(text: str, degree: int | None = None) -> list[Permutation]:
    """Parse ';'-separated cycle-notation generators.

    If degree is None it is inferred as 1 + the largest point mentioned,
    and checked against the point budget before any permutation is built.
    """
    parts = [p for p in (s.strip() for s in text.split(";")) if p]
    if not parts:
        raise ValueError("no generators given")
    if degree is None:
        points = [int(t) for t in re.findall(r"\d+", text)]
        if not points:
            raise ValueError(f"no points found in generator string: {text!r}")
        degree = max(points) + 1
        check_point_budget(degree)
    return [parse_permutation(p, degree) for p in parts]


@dataclass(frozen=True)
class PermGroup:
    degree: int
    generators: tuple[Permutation, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("a group needs at least one point")
        if not self.generators:
            raise ValueError("a group needs at least one generator")
        for g in self.generators:
            if g.degree != self.degree:
                raise ValueError("generator degree mismatch")


def orbits(G: PermGroup) -> list[list[int]]:
    """Orbit partition of the point set, each orbit sorted and listed by
    least point: the classes of the edges x - g(x) over the generators g."""
    images = np.array([g.images for g in G.generators])
    label = np.arange(G.degree)
    _merge(label, np.broadcast_to(np.arange(G.degree), images.shape), images)
    return _classes(label)


def is_transitive(G: PermGroup) -> bool:
    return len(orbits(G)) == 1


MAX_DEGREE = 2**14  # the search's inverse transversal: one int16 m x m table, 512 MiB here
_CHUNK = 1 << 14  # Schreier-map entries per chunk of coset rows: 32 KiB of int16


def check_point_budget(points: int) -> None:
    """Refuse a degree past MAX_DEGREE; callers check before building."""
    if points > MAX_DEGREE:
        raise ValueError(f"degree {points} exceeds the point budget of {MAX_DEGREE} points")


def cycle_points(g: Permutation, start: int) -> list[int]:
    """The cycle of g through `start`: start, g(start), g(g(start)), ..."""
    pts = [start]
    x = g[start]
    while x != start:
        pts.append(x)
        x = g[x]
    return pts


def _translation(m: int, n: int, s: int) -> tuple[int, ...]:
    """Images of the unit translation of the digit of stride s, mod n, on
    the mixed-radix labels 0..m-1: x -> x + s within each block of n * s."""
    row = (*range(s, n * s), *range(s))
    return row if n * s == m else tuple(b + x for b in range(0, m, n * s) for x in row)


def relabel(
    G: PermGroup, gens: Sequence[Permutation], base: int = 0
) -> tuple[PermGroup, tuple[int, ...]]:
    """Label the point a_1^x_1 .. a_k^x_k(base) by the mixed-radix index of
    (x_1, .., x_k), x_i mod n_i, where a_1..a_k are `gens` and n_i is the
    length of a_i's cycle through base: the index is sum x_i s_i, with
    stride s_i = n_(i+1) .. n_k.  Each cycle is walked once.

    Raises ValueError unless this labelling is a bijection on which each a_i
    is the unit translation of coordinate i, that is, unless the a_i
    generate a regular Z_n1 x .. x Z_nk, and unless each a_i moves base (on
    more than one point), so that `translation_moduli` reads the n_i back.
    Returns the relabelled group, led by those translations and followed by
    G's other generators, and the map new label -> old point.
    """
    m = G.degree
    if any(a.degree != m for a in gens):
        raise ValueError("generator degree differs from group degree")
    cycles = [cycle_points(a, base) for a in gens]
    moduli = [len(c) for c in cycles]
    regular = math.prod(moduli) == m and (m == 1 or 1 not in moduli)
    if regular:
        order = np.array(cycles[-1])  # coordinates (0, .., 0, x_k)
        for a, n in zip(gens[-2::-1], moduli[-2::-1]):  # prepend x_i: order, a(order), ..
            images = [np.array(a.images)] * (n - 1)
            order = np.concatenate([*accumulate(images, lambda o, g: g[o], initial=order)])
        pos = np.full(m, m)
        pos[order] = np.arange(m)
        strides = [math.prod(moduli[i + 1 :]) for i in range(len(gens))]
        translations = [_translation(m, n, s) for n, s in zip(moduli, strides)]
        # one full cycle labels the points bijectively, and it is their shift
        regular = len(gens) == 1 or ((pos < m).all() and all(
            tuple(pos[np.array(a.images)[order]].tolist()) == t for a, t in zip(gens, translations)
        ))
    if not regular:
        raise ValueError("the supplied permutation is not a d-cycle" if len(gens) == 1
                         else "the generator tuple does not act regularly by translations")
    rest = (h for h in G.generators if h not in gens)
    relabelled = tuple(Permutation(tuple(pos[np.array(h.images)[order]].tolist())) for h in rest)
    lead = tuple(map(Permutation, translations))
    return PermGroup(m, lead + relabelled, name=G.name), tuple(order.tolist())


def translation_moduli(G: PermGroup) -> tuple[int, ...] | None:
    """(n_1, .., n_k) when G's first k generators are the unit translations
    of Z_n1 x .. x Z_nk on the mixed-radix labels, as `relabel` leaves
    them, else None.  Each stride is the translation's image of 0, checked
    against its images with no walk; for k = 1 the one translation is the
    shift x -> x + 1."""
    m = period = G.degree
    moduli: list[int] = []
    for g in G.generators:
        s = g[0]
        if s == 0 or period % s or g.images != _translation(m, period // s, s):
            return None
        moduli.append(period // s)
        if s == 1:
            return tuple(moduli)
        period = s
    return None


def _regular_abelian(G: PermGroup, base: int):
    """The translation source of `suborbits`: (moduli, G, base, None) for G
    led by unit translations (`translation_moduli`), else (moduli, H, 0,
    back) for H = G relabelled along its first full cycle (`relabel`, one
    walk) and back the map old point -> new label; or None."""
    moduli = translation_moduli(G)
    if moduli is not None:
        return moduli, G, base, None
    for g in G.generators:
        try:
            H, order = relabel(G, (g,), base)
        except ValueError:
            continue
        return (G.degree,), H, 0, np.argsort(order)
    return None


def _merge(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the class of a[i] with the class of b[i] for every i.

    `label` maps each point to the least point of its class.  The roots of
    every edge hook the larger onto the smaller (`np.minimum.at`), pointer
    jumping flattens the forest again, and edges whose ends share a root
    drop out, until none is left.
    """
    a, b = label.take(a), label.take(b)
    while True:
        keep = a != b
        if not keep.any():
            return
        a, b = a[keep], b[keep]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        np.minimum.at(label, hi, lo)
        while not np.array_equal(up := label.take(label), label):
            label[:] = up
        a, b = label.take(lo), label.take(hi)


def _classes(label: np.ndarray) -> list[list[int]]:
    """The points grouped by equal label, each group sorted and listed by
    least point: in ascending x, a group first shows up at its least point."""
    classes: dict[int, list[int]] = {}
    for x, k in enumerate(label.tolist()):
        classes.setdefault(k, []).append(x)
    return list(classes.values())


def suborbits(G: PermGroup, base: int = 0) -> list[list[int]]:
    """Orbits of the stabiliser of `base` in a transitive group, including
    {base}, each sorted and listed by least element.

    The stabiliser is generated by the Schreier maps t[a] h t[h(a)]^-1 for
    a transversal t (t[a] takes `base` to a) and the generators h (Seress
    2003, Lemma 4.2.1).  With y = t[a](x) and the inverse transversal u[a]
    = t[a]^-1, the edge from x to its image is u[a, y] - u[h(a), h(y)]; the
    suborbits are the classes of these edges, joined by `_merge` in chunks
    of coset rows of at most `_CHUNK` entries.  u has two sources:

    * a regular K = Z_n1 x .. x Z_nk whose unit translations lead G, or
      the full cycle that `relabel` makes the translation of Z_m
      (`_regular_abelian`).  With the labels moved so that `base` is 0,
      t[a] is x -> x + a and u[a, y] = y - a, digit by digit.  A generator
      h(x) = phi(x) + h(0) with phi additive, n_i phi(e_i) = 0 (a
      translation, the reflection of `dihedral`, the multiplier of
      `affine`, the swap of `wreath`), gives the edges x - phi(x) in every
      coset row: one row.  A phi that fails n_i phi(e_i) = 0 is no
      homomorphism, and its rows differ.  No m x m table: a few length-m
      arrays and chunks of 32 KiB per digit.
    * otherwise, a search over points, which is also the transitivity
      check, fills u[h(a)] = u[a] h^-1 by a gather: one int16 m x m table,
      512 MiB at MAX_DEGREE.
    """
    m = G.degree
    if not 0 <= base < m:
        raise ValueError(f"base point {base} outside 0..{m - 1}")
    check_point_budget(m)
    dtype = int_dtype(m - 1)  # u[a, y] and y - a lie in [1 - m, m - 1]
    points = np.arange(m, dtype=dtype)
    label = points.copy()
    source = _regular_abelian(G, base)
    if source is not None:
        moduli, G, base, back = source
        strides = np.array([math.prod(moduli[i + 1 :]) for i in range(len(moduli))])
        mods = np.array(moduli)[:, None]
        digits = points // strides[:, None] % mods  # row i: digit i of each label, in int64
        # row 0 the labels, row i > 0 digit i, whose borrows `u` adds in turn
        columns = np.vstack([points, digits[1:]]).astype(dtype)
        spans = [(i, moduli[i] * strides[i]) for i in range(1, len(moduli))]

        def u(a, y):  # y - a digit by digit: y - a plus n_i s_i where digit i borrows
            v = y[0] - a[0][:, None]
            for i, span in spans:
                np.add(v, span, out=v, where=y[i] < a[i][:, None])
            # below the lower digits' span now, v < 0 exactly where the top one borrows
            return np.add(v, m, out=v, where=v < 0)  # a masked add: `% m` is slower

        pos = u(columns[:, [base]], columns)[0]  # labels shifted so that base is 0
        order = np.argsort(pos)  # the point at each label
        gens = []
        for g in G.generators[len(moduli) :]:  # the leading translations add no edge
            x = pos[np.array(g.images, dtype)[order]]  # g on the labels
            hd = digits[:, x]  # the digits of g(x)
            P = (hd[:, strides % m] - hd[:, :1]) % mods  # column i: the digits of phi(e_i)
            phi = P @ digits % mods  # the digits of phi(x) = sum x_i phi(e_i)
            if not (P * mods.T % mods).any() and np.array_equal((phi + hd[:, :1]) % mods, hd):
                _merge(label, points, strides @ phi)  # x - phi(x) in every coset row
            else:
                gens.append(columns[:, x])
        pos = pos if back is None else pos[back]
    else:
        columns, pos = points, None
        gens = [np.array(g.images) for g in G.generators]
        inverses = [np.argsort(g) for g in gens]
        table = np.empty((m, m), dtype)
        table[base] = points
        queue, found = [base], {base}
        for a in queue:
            for g_inv, perm in zip(inverses, G.generators):
                b = perm.images[a]
                if b not in found:
                    found.add(b)
                    # u[b, g(y)] = u[a, y]; g_inv is a permutation, so "clip" clips
                    # nothing and skips the buffer that "raise" fills before `out`
                    table[a].take(g_inv, out=table[b], mode="clip")
                    queue.append(b)
        if len(queue) < m:
            raise ValueError("suborbits require a transitive group")

        def u(a, y):
            rows = table[a]  # every y in order is the row itself, with no gather
            return rows if y is points else rows.take(y, axis=1)
    step = max(1, _CHUNK // m)
    for h in gens:  # the images, or their digits, of each generator
        for a in range(0, m, step):
            _merge(label, u(columns[..., a : a + step], columns), u(h[..., a : a + step], h))
    return _classes(label if pos is None else label.take(pos))


@dataclass(frozen=True)
class BlockSystem:
    """A partition of the point set permuted by the group."""

    block_of: tuple[int, ...]  # point -> block id (ids are 0..count-1)
    block_size: int
    block_count: int

    @property
    def is_trivial(self) -> bool:
        return self.block_count == 1 or self.block_size == 1

    def blocks(self) -> list[list[int]]:
        # in block id order: `_system` numbers the blocks by least point
        return _classes(np.array(self.block_of))


def _system(keys: Sequence[int]) -> BlockSystem:
    """The partition of the points into equal keys, keys[x] for point x,
    with the blocks numbered in the order of their least points."""
    ids: dict[int, int] = {}
    block_of = tuple(ids.setdefault(k, len(ids)) for k in keys)
    if len(keys) % len(ids):
        raise RuntimeError(f"{len(ids)} blocks do not divide the degree {len(keys)}")
    return BlockSystem(block_of, len(keys) // len(ids), len(ids))


def minimal_blocks(G: PermGroup, alpha: int, beta: int) -> BlockSystem:
    """Finest block system in which alpha and beta share a block, its
    blocks numbered by least point.

    Classical union-find merge: whenever two points are glued, their images
    under every generator are glued as well, until stable.
    """
    if not is_transitive(G):
        raise ValueError("block systems require a transitive group")
    if alpha == beta:
        raise ValueError("need two distinct points")
    parent = list(range(G.degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = deque([(alpha, beta)])
    parent[find(beta)] = find(alpha)
    while queue:
        x, y = queue.popleft()
        for g in G.generators:
            a, b = find(g[x]), find(g[y])
            if a != b:
                parent[b] = a
                queue.append((a, b))
    return _system([find(x) for x in range(G.degree)])


def first_nontrivial_blocks(G: PermGroup, subs: Sequence) -> BlockSystem | None:
    """The finest non-trivial block system through 0 and some beta, for the
    least point beta of the first suborbit that gives one, or None when G is
    primitive; `subs` are the base-0 suborbits of G.

    The finest system through 0 and beta has as its blocks the components
    of the orbital graph of (0, beta) (D. G. Higman, J. Algebra 6, 1967).
    A stabiliser element h maps the system through (0, beta) to the one
    through (0, h(beta)), so one point per suborbit O is enough.  When G is
    led by the one translation x -> x + 1 (`translation_moduli`), as
    `relabel` leaves a group along a full cycle, that graph is the
    circulant on O: its components are the residues mod k = gcd(m, O), and
    the system is non-trivial iff k > 1 (k < m since O is not {0}).  Every
    generator is then checked to keep those residues, and RuntimeError
    raised if one does not (`subs` were not the suborbits of G).
    Otherwise each suborbit's least point is glued to 0 by `minimal_blocks`.
    """
    m = G.degree
    if translation_moduli(G) != (m,):
        for orbit in subs[1:]:
            system = minimal_blocks(G, 0, orbit[0])
            if not system.is_trivial:
                return system
        return None
    k = next((k for k in (math.gcd(m, *orbit) for orbit in subs[1:]) if k > 1), 1)
    if k == 1:
        return None
    residue = np.arange(m) % k
    for g in G.generators:
        image = residue[np.array(g.images)]  # the residue of g(x)
        table = np.empty(k, np.int64)
        table[residue] = image
        if not np.array_equal(table[residue], image):
            raise RuntimeError(f"a generator does not keep the residues mod {k} along the cycle")
    return _system(residue.tolist())


def is_primitive(G: PermGroup) -> bool:
    """Transitive with no non-trivial block system."""
    return first_nontrivial_blocks(G, suborbits(G)) is None


def regular_check(degree: int, gens: list[Permutation]) -> bool:
    """True iff the generated subgroup is transitive of order exactly `degree`:
    transitive with every suborbit a single point, since a stabiliser that
    fixes every point is trivial."""
    check_point_budget(degree)
    group = PermGroup(degree, tuple(gens))
    return is_transitive(group) and len(suborbits(group)) == degree


# ---------------------------------------------------------------------------
# standard families


def cyclic(d: int) -> PermGroup:
    """The regular cyclic group generated by the d-cycle (0,1,...,d-1)."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    return PermGroup(d, (cycle(range(d), d),), name=f"cyclic:{d}")


def dihedral(d: int) -> PermGroup:
    """D_d of order 2d: the d-cycle together with the reflection i -> -i."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    reflect = Permutation(tuple((-i) % d for i in range(d)))
    return PermGroup(d, (cycle(range(d), d), reflect), name=f"dihedral:{d}")


def symmetric(d: int) -> PermGroup:
    if d < 2:
        raise ValueError("degree must be at least 2")
    gens = [cycle(range(d), d)]
    if d > 2:
        gens.append(cycle([0, 1], d))
    return PermGroup(d, tuple(gens), name=f"sym:{d}")


def affine(d: int, multiplier: int) -> PermGroup:
    """⟨ the d-cycle, x -> multiplier*x mod d ⟩; multiplier must be a unit."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    if math.gcd(multiplier, d) != 1:
        raise ValueError(f"multiplier {multiplier} is not coprime to {d}")
    mult = Permutation(tuple((multiplier * i) % d for i in range(d)))
    return PermGroup(d, (cycle(range(d), d), mult), name=f"affine:{d}:{multiplier}")


def pair_code(i: int, j: int, d: int) -> int:
    """Fixed encoding of the pair (i, j) in {0..d-1}^2 as i*d + j."""
    return i * d + j


def first_coordinate_perm(g: Permutation, d: int) -> Permutation:
    """Lift g acting on the first coordinate of the pair grid."""
    return Permutation(tuple(pair_code(g[i], j, d) for i in range(d) for j in range(d)))


def second_coordinate_perm(g: Permutation, d: int) -> Permutation:
    return Permutation(tuple(pair_code(i, g[j], d) for i in range(d) for j in range(d)))


def coordinate_swap(d: int) -> Permutation:
    return Permutation(tuple(pair_code(j, i, d) for i in range(d) for j in range(d)))


@dataclass(frozen=True)
class WreathAction:
    """The product action of S_d wr C_2 on the d x d pair grid."""

    d: int
    group: PermGroup
    embedded_abelian: tuple[Permutation, Permutation]  # regular C_d x C_d


def wreath_product_action(d: int) -> WreathAction:
    """S_d wr C_2 on {0..d-1}^2, pairs encoded as i*d + j.

    Generators are the S_d generators lifted to each coordinate plus the
    coordinate swap, led by the embedded regular C_d x C_d: the d-cycle
    acting on each coordinate separately, the unit translations of the
    pair labels (`translation_moduli`), which is also returned.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    dcycle, *rest = symmetric(d).generators
    embedded = (first_coordinate_perm(dcycle, d), second_coordinate_perm(dcycle, d))
    gens = [first_coordinate_perm(g, d) for g in rest] + [second_coordinate_perm(g, d) for g in rest]
    group = PermGroup(d * d, (*embedded, *gens, coordinate_swap(d)), name=f"wreath:{d}")
    return WreathAction(d, group, embedded)
