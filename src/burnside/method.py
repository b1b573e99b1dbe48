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

The matrix is never reduced in Z[z].  Most inputs need no sum at all:
relabelled along the cycle, the suborbits are the basic sets of a Schur
ring over Z_d (Schur 1933; Wielandt, Finite Permutation Groups, 1964,
ch. IV), and when that ring is an *orbit* ring, the suborbits being the
orbits of a group H of units mod d, the classes are the suborbits
(`_orbit_classes`).  Column h*j equals column j for h in H, so there are
at most as many classes as H-orbits, and the r independent suborbit rows
under the invertible DFT give at least r; the test that H (the suborbit
of 1) is such a group and has r orbits, counted by the orbit-counting
lemma, is O(d) numpy per generator of H, at most log2|H| of them
(`_greedy_generators`, which also gives the units of the refinement
below).  Every named family with a full cycle gives an orbit ring (sym:
r = 2, where no test is needed), so there the classes cost O(d log d)
instead of the d x (d - largest suborbit) evaluation below.

Other inputs (a non-orbit ring, the pair variants) are evaluated.  Each
column j is evaluated at an omega of order d modulo a prime p = 1 mod d,
one residue per suborbit but the largest (whose entry follows from the
others away from column 0), and the classes are refined until the units s
permute them, column s*j being column j under z -> z^s.  Since p splits
completely and exceeds twice the largest suborbit, a norm bound makes
equal classes exactly equal columns (`_evaluation_prime`,
`_column_classes`).  The cost is one pass over d x (d - largest suborbit)
exponents plus O(d) ids per refinement step, not a reduction per sum.

The cycle is walked once, by `permgroup.relabel`, whose group leads with
the translation x -> x + 1 it becomes; `permgroup` reads positions off
it.  A cycle outside G's generators must keep every orbital of G (then
its translations change no suborbit and no block system: Wielandt, ch.
IV; D. G. Higman, 1967), or it is refused with ValueError, by one more
`permgroup.suborbits` count, on G itself.  A class count
other than the suborbit count is an internal error.
`suborbit_sums` keeps only the classes, and every consumer takes that
result, as `diagnose` does:

    M = suborbit_sums(G, g)
    classes, rows = M.column_classes, orbit_row_subset(M)

One pipeline, `_sums`, serves every regular abelian K given by its unit
translations: K = <g> for `suborbit_sums`, and a regular C_da x C_db on
da*db points for the pair variant `pair_basis_partition`, whose sums are
valued in Z[z_L], L = lcm(da, db), with a column per (j, j').  The same
relabelling, orbital check and class step serve both; only a cyclic K
tries `_orbit_classes` before the evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cyclotomic, permgroup
from .permgroup import BlockSystem, PermGroup, Permutation
from .ramanujan import divisor_data


@dataclass(frozen=True)
class SuborbitSumMatrix:
    """The suborbit-sum matrix of a relabelled group, kept as the classes
    of exponent columns j on which the reduced sums agree."""

    d: int
    group: PermGroup  # relabelled: K's unit translations, then G's other generators
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


def _rank(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ids 0..k-1 with equal ids exactly for equal keys, and k, by a
    stable argsort (np.unique would first import numpy.ma, ~15 ms)."""
    order = np.argsort(keys, kind="stable")
    ranked = np.empty(len(keys), dtype=np.int64)
    ranked[order] = np.cumsum(np.concatenate([[0], keys[order[1:]] != keys[order[:-1]]]))
    return ranked, int(ranked[order[-1]]) + 1


def _greedy_generators(members: np.ndarray, n: int) -> list[int]:
    """Greedy generators of the subgroup of units mod n that the boolean
    mask `members` holds: each the least member outside the subgroup K the
    earlier ones generate, until K covers `members`.

    K grows by doubling: K{1, s, .., s^(2^k - 1)} by its product with
    t = s^(2^k), until that adds nothing.  Each generator at least doubles
    K, so there are at most log2 |K| of them.  On a mask that holds no
    group of units the list still ends, since each s adds a point to K.
    """
    seen = np.zeros(n, dtype=bool)  # the subgroup K generated so far
    seen[1 % n] = True
    gens = []
    while len(rest := np.flatnonzero(members & ~seen)):
        s = t = int(rest[0])
        gens.append(s)
        while not seen[grown := np.flatnonzero(seen) * t % n].all():
            seen[grown] = True
            t = t * t % n
    return gens


def _refine_by_units(ids: np.ndarray, moduli: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """The coarsest refinement of the partition `ids` of the columns that
    every unit s mod L = lcm(moduli) permutes, as dense ids and their count.

    Column c is the mixed-radix index of (j_1, .., j_r), and s*c that of
    (s j_k mod moduli[k]).  The ids are refined by (id[c], id[s*c]) for
    each generator s of (Z/L)^* (`_greedy_generators`) until a pass over them
    leaves the count unchanged.  A partition kept by the generators is kept
    by every unit, a product of them, so this is the partition by the key
    (id[s*c] over every unit s), without a table of d x phi(L) entries.
    """
    shape = np.array(moduli, dtype=np.int64)
    radix = np.array([math.prod(moduli[k + 1 :]) for k in range(len(moduli))], dtype=np.int64)
    grid = np.indices(moduli).reshape(len(moduli), -1).T  # row c: (j_1, .., j_r)
    L = math.lcm(*moduli)
    units = np.gcd(np.arange(L), L) == 1
    images = [s * grid % shape @ radix for s in _greedy_generators(units, L)]
    ids, count = _rank(ids)
    while True:
        before = count
        for image in images:
            ids, count = _rank(ids * count + ids[image])
        if count == before:
            return ids, count


def _orbit_classes(subs, d: int) -> tuple[tuple[int, ...], ...] | None:
    """The column classes with no sum evaluated, when the suborbits `subs`
    of Z/d are the orbits of a group H of units mod d (an orbit Schur ring);
    otherwise None.

    H is then the suborbit of 1.  For h in H, hO = O makes column h*j equal
    to column j (sum_{i in O} z^(ihj) = sum_{i in O} z^(ij)), so there are
    at most as many classes as H-orbits.  The r suborbit indicators are
    independent and the DFT is invertible, so the r x d matrix has rank r
    and at least r distinct columns.  With r H-orbits the classes are the
    H-orbits, which are the suborbits, already ascending by least member.

    The test, O(d) numpy per generator: every suborbit is kept by x -> s*x
    (one gather) for the greedy generators s of H (`_greedy_generators`),
    each outside the subgroup K the earlier ones generate, so at most
    log2|H| of them; and the H-orbits number r, counted as
    (1/|H|) sum_{h in H} gcd(h - 1, d) by the orbit-counting lemma
    (x -> hx fixes gcd(h - 1, d) points).  Each s is a unit, since a
    non-unit sends x = d / gcd(s, d) != 0 into {0}.  The last generator
    leaves no point of H outside K, and each keeps H, the suborbit of 1, so
    K = H: H is a group of units.  With r <= 2 no test is needed: column 0
    is alone, and there are r classes.
    """
    r = len(subs)
    if r <= 2:
        return subs
    label = np.empty(d, np.intp)
    label[[x for o in subs for x in o]] = np.repeat(np.arange(r), [len(o) for o in subs])
    in_h = label == label[1]
    points = np.arange(d)
    for s in _greedy_generators(in_h, d):
        if not np.array_equal(label[s * points % d], label):
            return None
    H = np.flatnonzero(in_h)
    if int(np.gcd(H - 1, d).sum()) != r * len(H):
        return None
    return subs


def _column_classes(
    subs, coords: np.ndarray, moduli: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Classes of equal suborbit-sum columns, each an ascending tuple of
    column indices, the classes in ascending order of least member, by
    evaluation: the path of the pair variants and of the suborbits that
    are no orbits of a group of units (`_orbit_classes`).

    Column c is the mixed-radix index of (j_1, .., j_r), j_k mod moduli[k].
    The point with coordinates x = coords[point] adds z^(sum_k x_k j_k
    L / moduli[k]) to its suborbit's sum, z of order L = lcm(moduli).

    V[O][c] is that sum evaluated at omega of order L mod a prime p = 1 mod
    L (`_evaluation_prime`), for every suborbit O but the largest.  Summed
    over all points, a column is n at c = 0 and 0 elsewhere, so the largest
    suborbit's entry is fixed by the others and sets apart column 0 only:
    column 0 gets its own id, and each other distinct column of V one id.
    Column s*c is column c under z -> z^s, so refining the ids until every
    unit s mod L permutes them (`_refine_by_units`) maps each sum into
    Z[z]/(p), which is F_p^phi(L) because p splits completely (Washington,
    Introduction to Cyclotomic Fields, Thm 2.13).  Since p exceeds twice the
    largest suborbit, equal classes are equal sums in Z[z] (the norm bound
    of `_evaluation_prime`).  There is one class per suborbit (the rank
    argument above); any other count raises RuntimeError.
    """
    shape = np.array(moduli, dtype=np.int64)
    L = math.lcm(*moduli)
    p, omega = _evaluation_prime(L, max(map(len, subs)))
    powers = np.ones(L, dtype=np.int64)  # omega^k mod p, by doubling
    k = 1
    while k < L:
        powers[k : 2 * k] = powers[: min(k, L - k)] * pow(omega, k, p) % p
        k *= 2

    # points of the evaluated suborbits in order, each one contiguous slice
    largest = max(range(len(subs)), key=lambda i: len(subs[i]))
    rows = subs[:largest] + subs[largest + 1 :]
    starts = np.cumsum([0] + [len(o) for o in rows[:-1]])
    exps = coords[[i for o in rows for i in o]].T * (L // shape)[:, None]  # (r, n)
    grid = np.indices(moduli).reshape(len(moduli), -1).T  # row c: (j_1, .., j_r)
    ids = np.empty(len(grid), dtype=np.int64)
    distinct: dict[bytes, int] = {}
    step = max(1, _CHUNK // exps.shape[1])
    for c in range(0, len(grid), step):
        values = powers[grid[c : c + step] @ exps % L]
        V = (np.add.reduceat(values, starts, axis=1) % p).astype(np.int32)
        ids[c : c + len(V)] = [distinct.setdefault(row.tobytes(), len(distinct)) for row in V]
    ids[0] = len(distinct)  # the largest suborbit's entry sets column 0 apart

    ids, count = _refine_by_units(ids, moduli)
    if count != len(subs):
        raise RuntimeError(f"{count} column classes for {len(subs)} suborbits (p = {p})")
    return tuple(map(tuple, permgroup._classes(ids)))


def _sums(G: PermGroup, gens: tuple[Permutation, ...]) -> SuborbitSumMatrix:
    """The suborbit-sum classes for the regular abelian K = Z_n1 x .. x Z_nk
    whose unit translations are `gens`, points and columns labelled by the
    mixed-radix index of their coordinates (`permgroup.relabel`).

    A generator of K outside G's generators must keep every orbital of G,
    as the rank argument needs: the orbitals of the larger group are unions
    of G's (Wielandt, Finite Permutation Groups, ch. IV), in a transitive
    group as many as its suborbits, so one count of G's refuses the rest
    with ValueError.  Only a cyclic K tries `_orbit_classes`; otherwise the
    classes come from the evaluation mod p (`_column_classes`).
    """
    H, relab = permgroup.relabel(G, gens)
    subs = tuple(tuple(o) for o in permgroup.suborbits(H))
    if any(a not in G.generators for a in gens) and len(permgroup.suborbits(G)) != len(subs):
        raise ValueError("the regular subgroup does not preserve the orbitals of the group")
    classes = _orbit_classes(subs, H.degree) if len(gens) == 1 else None
    if classes is None:
        moduli = permgroup.translation_moduli(H)
        grid = np.indices(moduli).reshape(len(moduli), -1).T  # label c: (x_1, .., x_k)
        classes = _column_classes(subs, grid, moduli)
    return SuborbitSumMatrix(H.degree, H, subs, classes, relab)


def suborbit_sums(G: PermGroup, g: Permutation | None = None) -> SuborbitSumMatrix:
    """Classes of equal columns of the stabiliser-orbit sums
    sum_{i in O} z^{ij}, over every exponent j (`_sums`, for K = <g>).

    Points are relabelled so that g, by default G's first generator, is the
    translation x -> x + 1, which leads the relabelled group; that group
    and the relabelling are recorded in the result.
    """
    try:
        return _sums(G, (G.generators[0] if g is None else g,))
    except ValueError:
        # relabel refused the default generator, which is no full cycle; a
        # refusal by the point budget passes through
        if g is None and len(permgroup.cycle_points(G.generators[0], 0)) < G.degree:
            raise ValueError("this group has no canonical full cycle; pass --cycle") from None
        raise


# ---------------------------------------------------------------------------
# two-generator (pair) variants


def pair_basis_partition(G: PermGroup, a: Permutation, b: Permutation) -> tuple[tuple, ...]:
    """Equality classes of the columns of the sums
    sum_{(x,y) in O} z_L^{x j L/da + y j' L/db} on the (j, j') grid,
    L = lcm(da, db), over every stabiliser orbit O, as ascending tuples of
    (j, j') by least member.  The point a^x b^y(0) has the coordinates
    (x, y), on which a and b must act as the unit translations of C_da x
    C_db (`_sums`, which checks a and b on G itself, and so every
    translation).
    """
    M = _sums(G, (a, b))
    _, db = permgroup.translation_moduli(M.group)
    return tuple(tuple(divmod(c, db) for c in cl) for cl in M.column_classes)


@dataclass(frozen=True)
class ManningReport:
    """Invariance of the mixed basis class under index scalings."""

    d: int
    middle_class: tuple[tuple[int, int], ...]
    galois_invariant: bool  # under (j, j') -> (s j, s j'), gcd(s, d) = 1
    violation: tuple[tuple[int, int], tuple[int, int]] | None  # under (j, j') -> (j, -j')


def manning_invariance_check(d: int) -> ManningReport:
    """Check the two invariance claims for the mixed basis class.

    With the generators a and ab of the embedded C_d x C_d (a and b the
    d-cycle on each coordinate) the class containing (0, 1) is
    C = {(j, j)} u {(0, j')}.  C is invariant under the simultaneous
    scalings (j, j') -> (s j, s j'), but not under independent scalings:
    (j, j') -> (j, -j') moves (1, 1) out of C whenever d > 2.  The first
    returned witness pair demonstrates the failure; None when d = 2.
    """
    W = permgroup.wreath_product_action(d)
    a, b = W.embedded_abelian
    classes = pair_basis_partition(W.group, a, permgroup.compose(a, b))
    members = set(next(cl for cl in classes if (0, 1) in cl))

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
    rows: tuple[int, ...]  # orders r with the primitive class of r inside the orbit
    decomposition_ok: bool  # orbit is exactly the union of those classes
    is_full_complement: bool  # rows = all divisors except 1
    two_transitive: bool
    equivalence_ok: bool  # (rows = D \ {1}) iff 2-transitive


def orbit_row_subset(M: SuborbitSumMatrix) -> OrbitRowReport:
    """Decompose the stabiliser orbit containing d/2 into primitive classes.

    For even d the orbit through d/2 is a union of the Galois-orbit index
    sets of primitive r-th roots; the returned row subset collects those r.
    The group is 2-transitive exactly when every order except 1 occurs.
    `diagnose` raises RuntimeError when either check fails: a failed
    decomposition would falsify the Galois-invariance of that orbit.
    """
    d = M.d
    if d % 2:
        raise ValueError("the half-degree orbit needs even degree")
    orbit = next(o for o in M.suborbits if d // 2 in o)
    # i lies in the primitive class of its order d / gcd(i, d); a class is
    # inside the orbit when the orbit holds all of its members
    order = d // np.gcd(np.arange(d), d)
    inside = np.bincount(order[list(orbit)], minlength=d + 1)
    total = np.bincount(order, minlength=d + 1)
    divisors = divisor_data(d).divisors
    rows = tuple(r for r in divisors if inside[r] == total[r])
    ok = int(total[list(rows)].sum()) == len(orbit)  # the classes cover the orbit
    full_complement = rows == tuple(r for r in divisors if r != 1)
    two_t = len(M.suborbits) == 2
    return OrbitRowReport(
        d=d,
        orbit=orbit,
        rows=rows,
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
    cross-checked by gluing the points 0 and d/p.  Raises ValueError
    unless p > 1 divides d.
    """
    d = M.d
    if p < 2 or d % p:
        raise ValueError(f"p = {p} is not a divisor of the degree {d} greater than 1")
    witness = next(
        (cl for cl in M.column_classes if cl != (0,) and all(j % p == 0 for j in cl)), None
    )
    if witness is None:
        return BlockPrediction(d, p, False, None, None, None)
    system = permgroup.minimal_blocks(M.group, 0, d // p)
    return BlockPrediction(d, p, True, witness, system, not system.is_trivial)


# ---------------------------------------------------------------------------
# the dichotomy diagnosis


@dataclass(frozen=True)
class DiagnosisReport:
    degree: int
    group: str
    verdict: str  # "imprimitive" | "two_transitive" | "counterexample"
    blocks: BlockSystem | None
    suborbits: tuple[tuple[int, ...], ...]
    basis_classes: tuple[tuple, ...]
    orbit_rows: OrbitRowReport | None
    relabelling: tuple[int, ...]


def diagnose(G: PermGroup, g: Permutation | None = None) -> DiagnosisReport:
    """Classify a transitive group of composite degree with a regular
    cyclic subgroup, generated by the d-cycle g (by default G's first
    generator), as imprimitive or 2-transitive.

    Any group for which neither holds is reported as a counterexample with
    full supporting data; no such group can contain a regular cyclic
    subgroup of composite order, so a counterexample verdict indicates a
    bug somewhere in this package, as is a failed invariant of
    `orbit_row_subset`, raised as RuntimeError.
    """
    d = G.degree
    if d < 4 or cyclotomic.is_prime(d):
        raise ValueError(f"the dichotomy concerns composite degrees, got {d}")
    M = suborbit_sums(G, g)
    orbit_rows = orbit_row_subset(M) if d % 2 == 0 else None
    if orbit_rows and not (orbit_rows.decomposition_ok and orbit_rows.equivalence_ok):
        raise RuntimeError(f"the suborbit through {d // 2} breaks an orbit-row invariant")
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
        verdict=verdict,
        blocks=blocks,
        suborbits=M.suborbits,
        basis_classes=M.column_classes,
        orbit_rows=orbit_rows,
        relabelling=M.relabelling,
    )
