"""The character-free suborbit-sum pipeline for groups with a regular
cyclic (or small abelian) subgroup.

Setting: G is transitive on {0..d-1} and g in G is a d-cycle.  After
relabelling points by powers of g, the vectors v_j = sum_i z^{-ij} e_i
(z a primitive d-th root of unity) are a simultaneous eigenbasis for g,
and the natural permutation module splits uniquely into irreducible
summands each spanned by some of the v_j.  Writing O for an orbit of the
stabiliser of 0, the indicator sums

    sums[O][j] = sum_{i in O} z^{ij}

are constant for j inside each summand's index set.  The index partition
is recovered here as the equality classes of the columns of that sum
matrix: the number of distinct columns can never exceed the suborbit
count, while the number of summands equals the suborbit count (the
permutation character is multiplicity free), so the column classes and
the summand index sets coincide.  This rank argument is the one piece of
justification that is ours rather than classical; the wreath-action
examples below validate it against independently known basis sets.

(The orthogonality expansion e_i = (1/d) sum_j z^{ij} v_j is used
implicitly; the 1/d normalisation is the only sensible one even though
sources sometimes misprint the factor.)

The matrix is never reduced in Z[z].  Each column j is evaluated at an
omega of order d modulo a prime p = 1 mod d, one residue per suborbit,
and keyed by the evaluations of the columns s*j over the units s, which
are column j under z -> z^s.  Since p splits completely and exceeds twice
the largest suborbit, a norm bound makes equal keys exactly equal columns
(`_evaluation_prime`, `_column_classes`).
The cost is one pass over the d x d exponents plus a d x phi(d) key, not
a reduction per sum.  A cycle that moves an orbital of G, so one outside
G, is refused with ValueError (one more `permgroup.suborbits` count); a
class count other than the suborbit count is then an internal error.
`suborbit_sums` keeps only the classes, and every consumer takes that
result, as `diagnose` does:

    M = suborbit_sums(G, g)
    B, rows = basis_partition(M), orbit_row_subset(M)

The pair variants handle a regular product C_da x C_db inside a group on
da*db points, with sums valued in Z[z_L], L = lcm(da, db).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import cyclotomic, permgroup
from .cyclotomic import PrimitiveClass
from .permgroup import BlockSystem, PermGroup, Permutation, WreathAction
from .ramanujan import divisor_data
from .coprime import RowSubset


def relabel_by_cycle(G: PermGroup, g: Permutation) -> tuple[PermGroup, tuple[int, ...]]:
    """Relabel points so the given d-cycle becomes (0,1,...,d-1).

    Returns the relabelled group and the map new_label -> old_point.
    """
    d = G.degree
    if g.degree != d:
        raise ValueError("cycle degree differs from group degree")
    order_pts = permgroup.cycle_points(g, 0)
    if len(order_pts) != d:
        raise ValueError("the supplied permutation is not a d-cycle")
    new_of_old = {old: new for new, old in enumerate(order_pts)}
    gens = tuple(
        Permutation(tuple(new_of_old[gen[order_pts[i]]] for i in range(d)))
        for gen in G.generators
    )
    return PermGroup(d, gens, name=G.name), tuple(order_pts)


@dataclass(frozen=True)
class SuborbitSumMatrix:
    """The suborbit-sum matrix of a relabelled group, kept as the classes
    of exponent columns j on which the reduced sums agree."""

    d: int
    group: PermGroup  # relabelled so that the cycle is (0,1,...,d-1)
    suborbits: tuple[tuple[int, ...], ...]
    column_classes: tuple[tuple[int, ...], ...]  # ascending, by least member
    relabelling: tuple[int, ...]  # new label -> original point


_CHUNK = 1 << 14  # array entries per chunk of rows or columns: 128 KiB of int64


def _evaluation_prime(L: int, largest: int) -> tuple[int, int]:
    """(p, omega): the least prime p = 1 mod L with p > 2 * largest, and
    omega = g^((p-1)/L) of order L for the least primitive root g mod p.

    The difference x of two sums of at most `largest` L-th roots of unity
    has every conjugate within 2 * largest.  If x is 0 mod every prime
    above p, then x lies in pZ[z_L] (p = 1 mod L is unramified), so a
    nonzero x would give p^phi(L) <= |N(x)| <= (2 * largest)^phi(L): x is
    0 exactly when it is 0 mod p.  Raises RuntimeError for p >= 2^31, where
    a product of two residues could wrap int64 in `_column_classes`.
    """
    p = L * max(1, -(-2 * largest // L)) + 1
    while not cyclotomic.is_prime(p):
        p += L
    # p < 2^31 with p > 2 * largest gives largest * (p - 1) < 2^30 * 2^31:
    # a suborbit's sum of residues stays below 2^61
    if p >= 2**31:
        raise RuntimeError(f"evaluation prime {p} is not below 2^31")
    return p, pow(cyclotomic.primitive_root(p), (p - 1) // L, p)


def _check_orbitals_kept(G: PermGroup, subs, regular: tuple[Permutation, ...]) -> None:
    """Raise ValueError unless the generators `regular` of the regular
    subgroup preserve every orbital of G, whose suborbits are `subs`, as the
    rank argument needs (generators inside G do).

    The orbitals of <G, regular> are unions of those of G (Wielandt, Finite
    Permutation Groups, ch. IV), equal to them exactly when every added
    permutation keeps each one; in a transitive group the orbitals and the
    suborbits are equal in number.
    """
    extra = tuple(h for h in regular if h not in G.generators)
    if extra and len(permgroup.suborbits(PermGroup(G.degree, G.generators + extra))) != len(subs):
        raise ValueError("the regular subgroup does not preserve the orbitals of the group")


def _column_classes(
    subs, coords: np.ndarray, moduli: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Classes of equal suborbit-sum columns, each an ascending tuple of
    column indices, the classes in ascending order of least member.

    Column c is the mixed-radix index of (j_1, .., j_r), j_k mod moduli[k].
    The point with coordinates x = coords[point] adds z^(sum_k x_k j_k
    L / moduli[k]) to its suborbit's sum, z of order L = lcm(moduli).

    V[O][c] is that sum evaluated at omega of order L mod a prime p = 1 mod
    L (`_evaluation_prime`), and each distinct column of V gets a class id.
    Column s*c is column c under z -> z^s, so keying c by the ids of s*c
    over the units s mod L maps each sum into Z[z]/(p), which is F_p^phi(L)
    because p splits completely (Washington, Introduction to Cyclotomic
    Fields, Thm 2.13).  Since p exceeds twice the largest suborbit, equal
    keys are equal sums in Z[z] (the norm bound of `_evaluation_prime`).
    There is one class per suborbit (the rank argument above); any other
    count raises RuntimeError.
    """
    shape = np.array(moduli, dtype=np.int64)
    radix = np.array([math.prod(moduli[k + 1 :]) for k in range(len(moduli))], dtype=np.int64)
    L = math.lcm(*moduli)
    p, omega = _evaluation_prime(L, max(map(len, subs)))
    powers = np.ones(L, dtype=np.int64)  # omega^k mod p, by doubling
    k = 1
    while k < L:
        powers[k : 2 * k] = powers[: min(k, L - k)] * pow(omega, k, p) % p
        k *= 2

    # suborbits of one size are one contiguous run, summed as a reshape
    ordered = sorted(subs, key=len)
    runs = [(size, len(list(run))) for size, run in itertools.groupby(map(len, ordered))]
    exps = coords[[i for o in ordered for i in o]].T * (L // shape)[:, None]  # (r, n)
    grid = np.indices(moduli).reshape(len(moduli), -1).T  # row c: (j_1, .., j_r)
    ids = np.empty(len(grid), dtype=np.min_scalar_type(len(grid)))
    distinct: dict[bytes, int] = {}
    step = max(1, _CHUNK // exps.shape[1])
    for c in range(0, len(grid), step):
        values = powers[grid[c : c + step] @ exps % L]
        sums, start = [], 0
        for size, count in runs:
            end = start + size * count
            sums.append(values[:, start:end].reshape(-1, count, size).sum(axis=2))
            start = end
        V = (np.concatenate(sums, axis=1) % p).astype(np.int32)
        ids[c : c + len(V)] = [distinct.setdefault(row.tobytes(), len(distinct)) for row in V]

    units = np.array([s for s in range(L) if math.gcd(s, L) == 1], dtype=np.int64)
    classes: dict[bytes, list[int]] = {}
    step = max(1, _CHUNK // (len(units) * len(moduli)))
    for c in range(0, len(grid), step):
        images = units[:, None] * grid[c : c + step, None, :] % shape @ radix  # (cols, units)
        for t, key in enumerate(ids[images]):
            classes.setdefault(key.tobytes(), []).append(c + t)
    if len(classes) != len(subs):
        raise RuntimeError(f"{len(classes)} column classes for {len(subs)} suborbits (p = {p})")
    return tuple(map(tuple, classes.values()))


def suborbit_sums(G: PermGroup, g: Permutation) -> SuborbitSumMatrix:
    """Classes of equal columns of the stabiliser-orbit sums
    sum_{i in O} z^{ij}, over every exponent j.

    Points are relabelled so that g = (0,1,...,d-1); the relabelled group
    and the relabelling are recorded in the result.
    """
    H, relab = relabel_by_cycle(G, g)
    d = H.degree
    subs = tuple(tuple(o) for o in permgroup.suborbits(H))
    _check_orbitals_kept(H, subs, (permgroup.cycle(range(d), d),))
    classes = _column_classes(subs, np.arange(d)[:, None], (d,))
    return SuborbitSumMatrix(d, H, subs, classes, relab)


@dataclass(frozen=True)
class BasisPartition:
    """Partition of the exponent indices dual to the suborbits.

    `classes` partitions {0..d-1} (or the pair grid, for the two-generator
    variants); the class of the zero index is always the singleton {0}.
    """

    classes: tuple[tuple, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    def class_of(self, j):
        for cl in self.classes:
            if j in cl:
                return cl
        raise KeyError(j)


def basis_partition(M: SuborbitSumMatrix) -> BasisPartition:
    """Equality classes of the suborbit-sum columns."""
    return BasisPartition(M.column_classes)


# ---------------------------------------------------------------------------
# two-generator (pair) variants


def _coordinates(degree: int, a: Permutation, b: Permutation, da: int, db: int):
    """Exponent coordinates (x, y) of every point, the image of 0 under a^x
    then b^y.  a and b must act on them as the unit translations of C_da x
    C_db, so that checking a and b (`_check_orbitals_kept`) checks every
    translation."""
    coords: dict[int, tuple[int, int]] = {}
    pt_x = 0
    for x in range(da):
        pt = pt_x
        for y in range(db):
            coords[pt] = (x, y)
            pt = b[pt]
        pt_x = a[pt_x]
    if len(coords) != degree or any(
        coords.get(a[pt]) != ((x + 1) % da, y) or coords.get(b[pt]) != (x, (y + 1) % db)
        for pt, (x, y) in coords.items()
    ):
        raise ValueError("generator pair does not act regularly")
    return coords


def pair_basis_partition(
    G: PermGroup, a: Permutation, da: int, b: Permutation, db: int
) -> BasisPartition:
    """Equality classes of the columns of the sums
    sum_{(x,y) in O} z_L^{x j L/da + y j' L/db} on the (j, j') grid,
    L = lcm(da, db), over every stabiliser orbit O."""
    coords = _coordinates(G.degree, a, b, da, db)
    subs = tuple(tuple(o) for o in permgroup.suborbits(G))
    _check_orbitals_kept(G, subs, (a, b))
    xy = np.array([coords[p] for p in range(G.degree)], dtype=np.int64)
    classes = _column_classes(subs, xy, (da, db))
    return BasisPartition(tuple(tuple(divmod(c, db) for c in cl) for cl in classes))


def basis_partition_pair(
    W: WreathAction, generator_choice: str = "standard"
) -> BasisPartition:
    """Basis partition of the wreath product action over the (j, j') grid.

    generator_choice selects the generating pair of the embedded regular
    C_d x C_d: 'standard' uses the cycle on each coordinate separately;
    'manning' replaces the second generator by the simultaneous cycle on
    both coordinates, which relabels the grid and moves the middle class.
    """
    a, b = W.embedded_abelian
    if generator_choice == "standard":
        pair = (a, b)
    elif generator_choice == "manning":
        pair = (a, permgroup.compose(a, b))
    else:
        raise ValueError(f"unknown generator choice {generator_choice!r}")
    return pair_basis_partition(W.group, pair[0], W.d, pair[1], W.d)


@dataclass(frozen=True)
class ManningReport:
    """Invariance of the mixed basis class under index scalings."""

    d: int
    middle_class: tuple[tuple[int, int], ...]
    galois_invariant: bool  # under (j, j') -> (s j, s j'), gcd(s, d) = 1
    violation: tuple[tuple[int, int], tuple[int, int]] | None  # under (j, j') -> (j, -j')


def manning_invariance_check(d: int) -> ManningReport:
    """Check the two invariance claims for the mixed basis class.

    With the 'manning' generators the class containing (0, 1) is
    C = {(j, j)} u {(0, j')}.  C is invariant under the simultaneous
    scalings (j, j') -> (s j, s j'), but not under independent scalings:
    (j, j') -> (j, -j') moves (1, 1) out of C whenever d > 2.  The first
    returned witness pair demonstrates the failure; None when d = 2.
    """
    W = permgroup.wreath_product_action(d)
    B = basis_partition_pair(W, "manning")
    C = B.class_of((0, 1))
    members = set(C)

    galois_ok = True
    for s in range(1, d):
        if math.gcd(s, d) != 1:
            continue
        mapped = {((s * j) % d, (s * jp) % d) for j, jp in members}
        if mapped != members:
            galois_ok = False
            break

    violation = None
    for j, jp in sorted(members):
        image = (j, (-jp) % d)
        if image not in members:
            violation = ((j, jp), image)
            break
    return ManningReport(d, tuple(sorted(members)), galois_ok, violation)


# ---------------------------------------------------------------------------
# Galois action, divisor sets, imprimitivity prediction


def galois_orbit_action_check(M: SuborbitSumMatrix) -> bool:
    """True iff every unit scaling i -> s*i permutes the suborbits setwise."""
    d = M.d
    original = {frozenset(o) for o in M.suborbits}
    return all(
        {frozenset((s * i) % d for i in o) for o in original} == original
        for s in range(1, d)
        if math.gcd(s, d) == 1
    )


@dataclass(frozen=True)
class OrbitRowReport:
    d: int
    orbit: tuple[int, ...]  # the stabiliser orbit containing d/2
    rows: RowSubset  # orders r with the primitive class of r inside the orbit
    decomposition_ok: bool  # orbit is exactly the union of those classes
    is_full_complement: bool  # rows = all divisors except 1
    two_transitive: bool
    equivalence_ok: bool  # (rows = D \ {1}) iff 2-transitive


def orbit_row_subset(M: SuborbitSumMatrix) -> OrbitRowReport:
    """Decompose the stabiliser orbit containing d/2 into primitive classes.

    For even d the orbit through d/2 is a union of the Galois-orbit index
    sets of primitive r-th roots; the returned row subset collects those r.
    The group is 2-transitive exactly when every order except 1 occurs.
    A decomposition failure is reported rather than raised, since it would
    falsify the Galois-invariance of that orbit.
    """
    d = M.d
    if d % 2:
        raise ValueError("the half-degree orbit needs even degree")
    orbit = next(o for o in M.suborbits if d // 2 in o)
    members = set(orbit)
    divisors = divisor_data(d).divisors
    rows = []
    covered: set[int] = set()
    for r in divisors:
        elems = set(PrimitiveClass(d, r).elements)
        if elems <= members:
            rows.append(r)
            covered |= elems
    ok = covered == members
    full_complement = tuple(rows) == tuple(r for r in divisors if r != 1)
    two_t = len(M.suborbits) == 2
    return OrbitRowReport(
        d=d,
        orbit=orbit,
        rows=RowSubset.from_divisors(d, rows),
        decomposition_ok=ok,
        is_full_complement=full_complement,
        two_transitive=two_t,
        equivalence_ok=full_complement == two_t,
    )


@dataclass(frozen=True)
class BlockPrediction:
    d: int
    p: int
    predicted: bool
    witness_class: tuple[int, ...] | None  # a basis class with all indices divisible by p
    blocks: BlockSystem | None
    confirmed: bool | None  # a non-trivial system exists through (0, d/p)


def predict_blocks_from_basis(M: SuborbitSumMatrix, p: int) -> BlockPrediction:
    """Imprimitivity prediction from a p-divisible basis class.

    If some basis class other than {0} consists entirely of indices
    divisible by p, the group must preserve a non-trivial block system
    whose blocks are unions of orbits of g^{d/p}; the prediction is
    cross-checked by gluing the points 0 and d/p.
    """
    d = M.d
    if d % p:
        raise ValueError(f"{p} does not divide the degree {d}")
    B = basis_partition(M)
    witness = next(
        (cl for cl in B.classes if cl != (0,) and all(j % p == 0 for j in cl)), None
    )
    if witness is None:
        return BlockPrediction(d, p, False, None, None, None)
    system = permgroup.minimal_blocks(M.group, 0, d // p)
    return BlockPrediction(d, p, True, witness, system, not system.is_trivial)


@dataclass(frozen=True)
class CosetStructureReport:
    """How each basis class meets the cosets of <d/p> in Z/dZ."""

    d: int
    p: int
    per_class: tuple[tuple[tuple[int, ...], bool, tuple[int, ...]], ...]
    # (class, structure_ok, offsets of proper cosets met only partially)


def coset_structure_report(
    B: BasisPartition, d: int, p: int
) -> CosetStructureReport:
    """Report, per basis class, which cosets of <d/p> are empty, full or
    partial; the structural expectation is that proper cosets are never
    partial while the subgroup itself may contribute any subset.

    Analysis only: the expectation is a consequence of primitivity
    hypotheses, so on imprimitive inputs partial cosets are simply flagged.
    Requires composite, non-prime-power d.
    """
    if cyclotomic.prime_power_split(d) is not None or d < 2:
        raise ValueError("coset structure analysis needs composite non-prime-power degree")
    if d % p:
        raise ValueError(f"{p} does not divide {d}")
    step = d // p
    subgroup = set(range(0, d, step))
    results = []
    for cl in B.classes:
        members = set(cl)
        partial = []
        for offset in range(step):
            coset = {(offset + k * step) % d for k in range(p)}
            inter = members & coset
            if inter and inter != coset and offset != 0:
                partial.append(offset)
        results.append((cl, not partial, tuple(partial)))
    return CosetStructureReport(d, p, tuple(results))


# ---------------------------------------------------------------------------
# the dichotomy diagnosis


@dataclass(frozen=True)
class DiagnosisReport:
    degree: int
    group: str
    cycle: str
    verdict: str  # "imprimitive" | "two_transitive" | "counterexample"
    blocks: BlockSystem | None
    suborbits: tuple[tuple[int, ...], ...]
    basis_classes: tuple[tuple, ...]
    orbit_rows: OrbitRowReport | None
    relabelling: tuple[int, ...]


def diagnose(G: PermGroup, g: Permutation) -> DiagnosisReport:
    """Classify a transitive group of composite degree with a regular
    cyclic subgroup as imprimitive or 2-transitive.

    Any group for which neither holds is reported as a counterexample with
    full supporting data; no such group can contain a regular cyclic
    subgroup of composite order, so a counterexample verdict indicates a
    bug somewhere in this package.
    """
    d = G.degree
    if d < 4 or cyclotomic.is_prime(d):
        raise ValueError(f"the dichotomy concerns composite degrees, got {d}")
    M = suborbit_sums(G, g)
    orbit_rows = orbit_row_subset(M) if d % 2 == 0 else None
    blocks = permgroup.first_nontrivial_blocks(M.group, M.suborbits)
    if blocks is not None:
        verdict = "imprimitive"
    elif len(M.suborbits) == 2:
        verdict = "two_transitive"
    else:
        verdict = "counterexample"
    return DiagnosisReport(
        degree=d,
        group=G.name or "<unnamed>",
        cycle=str(g),
        verdict=verdict,
        blocks=blocks,
        suborbits=M.suborbits,
        basis_classes=basis_partition(M).classes,
        orbit_rows=orbit_rows,
        relabelling=M.relabelling,
    )
