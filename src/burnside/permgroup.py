"""Generator-driven permutation group computations.

Permutations act on the right and compose left to right: the image of a
point i under first a then b is b[a[i]].  Everything here is polynomial
in the degree and works straight from generator lists.  Orbits are one
union of the edges x - g(x), and suborbits one union of the Schreier-map
edges, in chunks of coset rows.  The inverse transversal is free when a
generator is a full cycle (its translations; no m x m table), and
otherwise comes from a search that holds one int16 m x m table.  A
transitive group is regular when every suborbit is a single point.  The
first non-trivial block system of a group with a full-cycle generator is
read off one gcd per suborbit; otherwise a union-find glues points.

Groups are immutable and all functions are pure.
"""

from __future__ import annotations

import math
import re
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

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


def cycle_positions(G: PermGroup, base: int = 0) -> np.ndarray | None:
    """Each point's position along the first generator of G that is a full
    cycle, counted from `base`, or None when no generator is one.  Along
    the translation x -> x + 1 (the first generator of every named family
    but `wreath`, and of a group relabelled by `method.relabel_by_cycle`)
    the position is (x - base) mod m, with no walk."""
    m = G.degree
    shift = tuple(range(1, m)) + (0,)
    for g in G.generators:
        if g.images == shift:
            return (np.arange(m) - base) % m
        pts = cycle_points(g, base)
        if len(pts) == m:
            pos = np.empty(m, np.intp)
            pos[pts] = np.arange(m)
            return pos
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

    * a generator c of G that is a full m-cycle: with the points relabelled
      by their position along c from `base`, t[a] is x -> x + a and u[a, y]
      = y - a mod m.  A generator that is affine on positions, h(x) = s x +
      h(0) (a translation, the reflection of `dihedral`, the multiplier of
      `affine`), gives the edges x - s x in every coset row: one row.  No
      search and no m x m table: a few length-m arrays and int16 chunks of
      32 KiB (under 1 MiB in all at m = 4096).
    * otherwise, a search over points, which is also the transitivity
      check, fills u[h(a), h] = u[a]: one int16 m x m table, 512 MiB at
      MAX_DEGREE.
    """
    m = G.degree
    if not 0 <= base < m:
        raise ValueError(f"base point {base} outside 0..{m - 1}")
    check_point_budget(m)
    dtype = int_dtype(m - 1)  # u[a, y] and y - a lie in [1 - m, m - 1]
    pos = cycle_positions(G, base)
    points = np.arange(m, dtype=dtype)
    label = points.copy()
    if pos is not None:
        pos = pos.astype(dtype, copy=False)
        order = np.argsort(pos)  # the point at each position
        gens = []
        for g in G.generators:
            h = pos[np.array(g.images, dtype)[order]]  # g on positions along the cycle
            row = np.arange(m) * (int(h[1 % m]) - int(h[0])) % m  # x -> s x, in int64
            if np.array_equal(h, (row + h[0]) % m):  # affine: x - s x in every coset row
                _merge(label, points, row)
            else:
                gens.append(h)

        def u(a, y):
            v = y - a[:, None]
            return np.add(v, m, out=v, where=v < 0)  # a masked add: `% m` is slower
    else:
        gens = [np.array(g.images) for g in G.generators]
        table = np.empty((m, m), dtype)
        table[base] = points
        queue, found = [base], {base}
        for a in queue:
            for g, perm in zip(gens, G.generators):
                b = perm.images[a]
                if b not in found:
                    found.add(b)
                    table[b, g] = table[a]
                    queue.append(b)
        if len(queue) < m:
            raise ValueError("suborbits require a transitive group")

        def u(a, y):
            rows = table[a]  # every y in order is the row itself, with no gather
            return rows if y is points else rows.take(y, axis=1)
    step = max(1, _CHUNK // m)
    for h in gens:
        for a in range(0, m, step):
            rows = points[a : a + step]
            _merge(label, u(rows, points), u(h[rows], h))
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
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for x, b in enumerate(self.block_of):
            out[b].append(x)
        return out


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
    through (0, h(beta)), so one point per suborbit O is enough.  When a
    generator is a full cycle, its translations lie in G, so with points
    numbered by their position along it from 0 that graph is the circulant
    on O: its components are the residues mod k = gcd(m, O), and the
    system is non-trivial iff k > 1 (k < m since O is not {0}).  Every
    generator is then checked to keep those residues, and RuntimeError
    raised if one does not (`subs` were not the suborbits of G).  Without
    a full-cycle generator, each suborbit's least point is glued to 0 by
    `minimal_blocks`.
    """
    m = G.degree
    pos = cycle_positions(G)
    if pos is None:
        for orbit in subs[1:]:
            system = minimal_blocks(G, 0, orbit[0])
            if not system.is_trivial:
                return system
        return None
    for orbit in subs[1:]:
        k = math.gcd(m, *pos[list(orbit)].tolist())
        if k > 1:
            break
    else:
        return None
    residue = pos % k
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
    images = [0] * (d * d)
    for i in range(d):
        gi = g[i]
        for j in range(d):
            images[pair_code(i, j, d)] = pair_code(gi, j, d)
    return Permutation(tuple(images))


def second_coordinate_perm(g: Permutation, d: int) -> Permutation:
    images = [0] * (d * d)
    for i in range(d):
        for j in range(d):
            images[pair_code(i, j, d)] = pair_code(i, g[j], d)
    return Permutation(tuple(images))


def coordinate_swap(d: int) -> Permutation:
    return Permutation(
        tuple(pair_code(j, i, d) for i in range(d) for j in range(d))
    )


@dataclass(frozen=True)
class WreathAction:
    """The product action of S_d wr C_2 on the d x d pair grid."""

    d: int
    group: PermGroup
    embedded_abelian: tuple[Permutation, Permutation]  # regular C_d x C_d


def wreath_product_action(d: int) -> WreathAction:
    """S_d wr C_2 on {0..d-1}^2, pairs encoded as i*d + j.

    Generators are the S_d generators lifted to each coordinate plus the
    coordinate swap.  Also returns the embedded regular C_d x C_d given by
    the d-cycle acting on each coordinate separately.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    base = symmetric(d)
    gens = [first_coordinate_perm(g, d) for g in base.generators]
    gens += [second_coordinate_perm(g, d) for g in base.generators]
    gens.append(coordinate_swap(d))
    group = PermGroup(d * d, tuple(gens), name=f"wreath:{d}")
    dcycle = cycle(range(d), d)
    embedded = (
        first_coordinate_perm(dcycle, d),
        second_coordinate_perm(dcycle, d),
    )
    return WreathAction(d, group, embedded)
