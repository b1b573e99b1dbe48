"""Generator-driven permutation group computations.

Permutations act on the right and compose left to right: the image of a
point i under first a then b is b[a[i]].  Everything here is polynomial
in the degree and works straight from generator lists.  Suborbits come
from one transversal of the base point and its Schreier generators; a
transitive group is regular when every suborbit is a single point.

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


def identity(degree: int) -> Permutation:
    return Permutation(tuple(range(degree)))


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
    perm = identity(degree)
    for body in _CYCLE_RE.findall(stripped):
        if not body:
            continue
        pts = [int(t) for t in body.split(",")]
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle: {text!r}")
        if max(pts) >= degree:
            raise ValueError(f"point {max(pts)} exceeds degree {degree}")
        perm = compose(perm, cycle(pts, degree))
    return perm


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
    """Orbit partition of the point set, each orbit sorted."""
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


def is_transitive(G: PermGroup) -> bool:
    return len(orbits(G)) == 1


MAX_DEGREE = 2**14  # the transversal and its inverses: two int16 m x m tables, 1 GiB here


def check_point_budget(points: int) -> None:
    """Refuse a degree past MAX_DEGREE; callers check before building."""
    if points > MAX_DEGREE:
        raise ValueError(f"degree {points} exceeds the point budget of {MAX_DEGREE} points")


def suborbits(G: PermGroup, base: int = 0) -> list[list[int]]:
    """Orbits of the stabiliser of `base` in a transitive group, including
    {base}, each sorted and listed by least element.

    A search over points, which is also the transitivity check, fills a
    transversal: t[a] takes `base` to a, inv[a] is its inverse.  Each point
    of an orbit goes through all Schreier generators t[a] h t[h(a)]^-1
    (Seress 2003, Lemma 4.2.1) at once, one length-m gather per h.
    """
    m = G.degree
    if not 0 <= base < m:
        raise ValueError(f"base point {base} outside 0..{m - 1}")
    check_point_budget(m)
    dtype = int_dtype(m - 1)
    points = np.arange(m, dtype=dtype)
    gens = [np.array(g.images, dtype=dtype) for g in G.generators]
    t, inv = np.empty((2, m, m), dtype)
    t[base] = inv[base] = points
    queue, found = [base], {base}
    for a in queue:
        for g, perm in zip(gens, G.generators):
            b = perm.images[a]
            if b not in found:
                found.add(b)
                t[b] = g[t[a]]
                inv[b, t[b]] = points
                queue.append(b)
    if len(queue) < m:
        raise ValueError("suborbits require a transitive group")
    assigned, hit = np.zeros((2, m), dtype=bool)
    out = []
    for x in range(m):  # x is the least point of its suborbit
        if assigned[x]:
            continue
        assigned[x] = True
        orbit = [x]
        for y in orbit:
            column = t[:, y]
            for g in gens:
                hit[inv[g, g[column]]] = True
            fresh = np.flatnonzero(hit & ~assigned)
            hit[:] = False
            assigned[fresh] = True
            orbit.extend(fresh.tolist())
        out.append(sorted(orbit))
    return out


def is_2transitive(G: PermGroup) -> bool:
    return len(suborbits(G)) == 2


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


def minimal_blocks(G: PermGroup, alpha: int, beta: int) -> BlockSystem:
    """Finest block system in which alpha and beta share a block.

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

    reps = sorted({find(x) for x in range(G.degree)})
    ids = {r: i for i, r in enumerate(reps)}
    block_of = tuple(ids[find(x)] for x in range(G.degree))
    count = len(reps)
    if G.degree % count:
        raise RuntimeError(f"{count} blocks do not divide the degree {G.degree}")
    return BlockSystem(block_of, G.degree // count, count)


def first_nontrivial_blocks(G: PermGroup, subs: Sequence) -> BlockSystem | None:
    """minimal_blocks(G, 0, beta) for the least beta making it non-trivial,
    or None when G is primitive; `subs` are the base-0 suborbits of G.
    A stabiliser element h maps the system through (0, beta) to the one
    through (0, h(beta)) and fixes every G-invariant partition, so only the
    least point of each suborbit is tried."""
    for orbit in subs[1:]:
        system = minimal_blocks(G, 0, orbit[0])
        if not system.is_trivial:
            return system
    return None


def is_primitive(G: PermGroup) -> bool:
    """Transitive with no non-trivial block system."""
    return first_nontrivial_blocks(G, suborbits(G)) is None


def regular_check(degree: int, gens: list[Permutation]) -> bool:
    """True iff the generated subgroup is transitive of order exactly `degree`:
    transitive with every suborbit a single point, since a stabiliser that
    fixes every point is trivial."""
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


def standard_groups(d: int) -> dict[str, PermGroup]:
    """Canonical constructions used throughout the test corpus."""
    return {
        "cyclic": cyclic(d),
        "dihedral": dihedral(d),
        "symmetric": symmetric(d),
        "wreath": wreath_product_action(d).group,
    }
