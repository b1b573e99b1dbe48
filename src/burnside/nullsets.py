"""Exhaustive enumeration and classification of cyclotomic-sum solution sets.

Fix a prime power p^n with n >= 2, let z be a primitive p^n-th root of
unity and w = z^{p^{n-1}} (a primitive p-th root).  A set O inside
{1..p^n-1} is a *solution* when

    sum_{i in O} z^i  =  sum_{i in O} w^i ,

tested exactly in the group ring.  Solutions are classified into two
families built from the progression sets R(r) = {r, r+p^{n-1}, ...}:

  * balanced ("null") sets: disjoint unions of full progressions using
    equally many residues r = 0, 1, ..., p-1 mod p;
  * layered sets: the whole top layer {p^{n-1}, ..., (p-1)p^{n-1}}, one
    extra progression per nonzero residue, and a balanced remainder.

The smallest nonempty solution always has size p^2 - 1 (a layered set
with empty remainder); for n >= 3 this is strictly smaller than the full
set, so a solver that assumes |O| = p^n - 1 is the only solution is wrong
for every such modulus.

Enumeration decides all 2^(p^n - 1) subsets by an exact branch and
bound.  Since Phi_{p^n}(X) = Phi_p(X^{p^{n-1}}), a sum vanishes exactly
when its coefficients are constant on each progression R(r),
0 <= r < p^{n-1}: the differences D(a) = (a[r + k p^{n-1}] - a[r]) along
them are a linear map whose kernel is exactly the multiples of
Phi_{p^n}.  D of the difference of the two sums is linear in the chosen
elements, so a subset is a solution exactly when its flip rows
D(z^i - w^i) add to 0.  The sweep divides by no polynomial, while
`is_solution`, its exact oracle, divides by Phi_{p^n}.  The elements are
decided one at a time (`coprime._branch_and_bound`, the kernel the
conjecture search runs too), and a prefix is dropped when some coordinate
of D can no longer reach 0 between the sums of its negative and of its
positive undecided entries; each leaf is tested for an exact zero.  The
choice w = z^{p^{n-1}} (rather than another primitive p-th root) is
harmless: other choices are reached by the exponent scalings i -> s*i
with s = 1 mod p, and the solution family is closed under those maps,
which the test suite checks.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass

import numpy as np

from . import cyclotomic
from .coprime import _branch_and_bound
from .cyclotomic import CycSum

# 7^2: `nullsets 7 2 --verify` takes ~0.2 s at ~31 MB peak RSS as a process,
# ~2 ms over 895 nodes in process (one core of a 2-vCPU Xeon VM).  The
# next modulus, 2^6, has C(32, 16) ~ 6e8 solutions, and the 80
# elements of 3^4 overflow an int64 mask.
MAX_MODULUS = 49


@functools.lru_cache(maxsize=None)
def _check_modulus(p: int, n: int, enforce_bound: bool = False) -> int:
    """p**n for a prime p and n >= 2, validated once per argument triple (a
    refusal raises, so it is never cached).  The bound is decided from p
    and n before p is tested for primality, and p**n >= 2**n > MAX_MODULUS
    once n exceeds the bound's bit length, so no over-bound modulus is
    tested or formed."""
    if n < 2:
        raise ValueError("need exponent n >= 2")
    if enforce_bound and p >= 2 and (n > MAX_MODULUS.bit_length() or p**n > MAX_MODULUS):
        raise ValueError(f"modulus {p}^{n} exceeds the enumeration bound {MAX_MODULUS}")
    if p < 2 or not cyclotomic.is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p**n


@dataclass(frozen=True)
class IndexSet:
    """A subset of {1..p^n-1}, stored as a bitmask (bit i <=> element i)."""

    p: int
    n: int
    mask: int

    def __post_init__(self) -> None:
        N = _check_modulus(self.p, self.n)
        if self.mask & 1 or self.mask >> N:
            raise ValueError("members must lie in {1..p^n-1}")

    @classmethod
    def from_members(cls, p: int, n: int, members) -> "IndexSet":
        mask = 0
        for i in members:
            mask |= 1 << i
        return cls(p, n, mask)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.p**self.n) if self.mask >> i & 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()


def paired_sums(O: IndexSet) -> tuple[CycSum, CycSum]:
    """The z-side and w-side sums of O as formal vectors of order p^n."""
    N = O.p**O.n
    step = O.p ** (O.n - 1)
    members = O.members
    zside = cyclotomic.from_indices(N, members)
    wside = cyclotomic.from_indices(N, [(i * step) % N for i in members])
    return zside, wside


def is_solution(O: IndexSet) -> bool:
    """Exact test: the two sums are equal in value (`cyclotomic.value_equal`)."""
    return cyclotomic.value_equal(*paired_sums(O))


# ---------------------------------------------------------------------------
# classification


@functools.lru_cache(maxsize=None)
def _progressions(p: int, n: int) -> tuple[int, ...]:
    """Bitmasks (bit i <=> element i, as in `IndexSet`) of the progressions
    R(r) = {r, r + p^(n-1), ..., r + (p-1)p^(n-1)} at index 1 <= r < p^(n-1);
    index 0 holds the top layer {p^(n-1), ..., (p-1)p^(n-1)}, which is R(0)
    without 0."""
    _check_modulus(p, n)
    step = p ** (n - 1)
    base = sum(1 << (k * step) for k in range(p))  # R(0)
    return (base ^ 1,) + tuple(base << r for r in range(1, step))


@dataclass(frozen=True)
class NullCertificate:
    """Witness that a set is a balanced union of progressions.

    grid[i] lists the s progression residues congruent to i mod p; all
    p*s residues are distinct and each contributes its full progression.
    `mask` is the set they cover, as an `IndexSet` bitmask.
    """

    p: int
    n: int
    s: int
    grid: tuple[tuple[int, ...], ...]

    @property
    def mask(self) -> int:
        prog = _progressions(self.p, self.n)
        return functools.reduce(operator.or_, (prog[r] for row in self.grid for r in row), 0)


NULL = "null"
LAYERED = "layered"
NOT_SOLUTION = "not_solution"


@dataclass(frozen=True)
class SolutionClass:
    """Classification outcome: a balanced set, a layered set, or neither.

    For `layered`, residue_reps holds the designated progression residues
    r_1 < ... indexed by their residue class 1..p-1, and remainder is the
    certificate of the balanced rest.  For `null`, remainder certifies the
    set itself.
    """

    kind: str
    residue_reps: tuple[int, ...] | None = None
    remainder: NullCertificate | None = None


def _progression_rows(p: int, n: int, mask: int) -> list[list[int]] | None:
    """The residues r whose full progressions tile `mask`, as p ascending
    rows grouped by r mod p, or None.  The lowest bit left must be the
    residue r < p^(n-1) of a progression lying wholly in `mask`; a top-layer
    or partly covered progression fails that test."""
    prog = _progressions(p, n)
    rows: list[list[int]] = [[] for _ in range(p)]
    while mask:
        r = (mask & -mask).bit_length() - 1
        if r >= len(prog) or mask & prog[r] != prog[r]:
            return None
        rows[r % p].append(r)
        mask ^= prog[r]
    return rows


def is_null(Z: IndexSet) -> NullCertificate | None:
    """Certificate that Z is balanced, or None.

    The bitmask of Z must split into full progressions whose residues hit
    every class mod p equally often.
    """
    rows = _progression_rows(Z.p, Z.n, Z.mask)
    if rows is None or any(len(row) != len(rows[0]) for row in rows):
        return None
    return NullCertificate(Z.p, Z.n, len(rows[0]), tuple(map(tuple, rows)))


def classify(O: IndexSet) -> SolutionClass:
    """Match O against the two solution families.  A balanced set has no
    top-layer element and a layered set has them all; the layered rows
    give the smallest residue of each nonzero class as its representative
    and leave the rest of the rows as the balanced remainder."""
    p, n = O.p, O.n
    top = _progressions(p, n)[0]
    if O.mask & top != top:
        cert = is_null(O)
        return SolutionClass(NOT_SOLUTION) if cert is None else SolutionClass(NULL, remainder=cert)
    rows = _progression_rows(p, n, O.mask ^ top)
    if rows is None or any(len(row) != len(rows[0]) + 1 for row in rows[1:]):
        return SolutionClass(NOT_SOLUTION)
    reps = tuple(row[0] for row in rows[1:])
    grid = (tuple(rows[0]),) + tuple(tuple(row[1:]) for row in rows[1:])
    remainder = NullCertificate(p, n, len(rows[0]), grid)
    return SolutionClass(LAYERED, residue_reps=reps, remainder=remainder)


def layered_set(p: int, n: int, reps: tuple[int, ...], remainder: NullCertificate) -> IndexSet:
    """The top layer, the progressions R(r) of `reps`, and the set that
    `remainder` certifies, as one bitmask."""
    prog = _progressions(p, n)
    mask = functools.reduce(operator.or_, (prog[r] for r in reps), prog[0])
    return IndexSet(p, n, mask | remainder.mask)


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _progression_differences(p: int, n: int, a: np.ndarray) -> np.ndarray:
    """D(a) for each row a of coefficients of z^0..z^(p^n - 1): the phi(p^n)
    entries a[r + k*p^(n-1)] - a[r] for 1 <= k < p and r < p^(n-1).  D(a) is
    zero exactly when the sum is, and D is linear, so equal outputs are
    equal values."""
    a = a.reshape(len(a), p, p ** (n - 1))  # a[:, k, r] is the coefficient of z^(r + k*p^(n-1))
    return (a[:, 1:] - a[:, :1]).reshape(len(a), -1)


def _flip_rows(p: int, n: int) -> np.ndarray:
    """D(z^i - w^i) for each element i, with entries in [-2, 2]."""
    N = p**n
    eye = np.eye(N, dtype=np.int64)
    arr = _progression_differences(p, n, eye[1:] - eye[np.arange(1, N) * p ** (n - 1) % N])
    # every subset sum of a column lies within its abs-sum
    return arr.astype(cyclotomic.int_dtype(int(np.abs(arr).sum(axis=0).max())))


def enumerate_solutions(p: int, n: int) -> list[IndexSet]:
    """All solution sets for the modulus p^n, sorted by bitmask.

    The subsets of the flip rows that add to 0, by the branch and bound
    `coprime._branch_and_bound` with every coordinate its own check.  The
    elements are decided by descending residue mod p^(n-1), each residue's
    progression in ascending order, so each progression is decided whole
    and the coordinates along it close; every leaf is re-tested exactly.
    """
    N = _check_modulus(p, n, enforce_bound=True)
    rows = _flip_rows(p, n)
    step = p ** (n - 1)
    order = (np.arange(step)[::-1, None] + step * np.arange(p)).ravel()
    order = order[order > 0]  # 0 is no element
    cols = rows.shape[1]
    masks = _branch_and_bound(rows[order - 1], np.zeros(cols, dtype=np.int64), np.arange(cols), order)
    bits = (masks[:, None] >> np.arange(1, N) & 1).astype(rows.dtype)
    masks = np.sort(masks[~(bits @ rows).any(axis=1)])
    return [IndexSet(p, n, m) for m in masks.tolist()]


def enumerate_certificates(p: int, n: int):
    """All balanced certificates and all layered configurations for p^n.

    Independent of the enumeration: generated combinatorially from the
    progression residues.  Returns (null_certs, layered_configs) with
    layered_configs a list of (residue_reps, remainder_certificate).
    """
    _check_modulus(p, n)
    step = p ** (n - 1)
    classes: list[list[int]] = [[] for _ in range(p)]
    for r in range(1, step):
        classes[r % p].append(r)

    def certs_from(avail: list[list[int]]):
        out = []
        for s in range(min(len(c) for c in avail) + 1):
            for combo in itertools.product(
                *(itertools.combinations(c, s) for c in avail)
            ):
                out.append(NullCertificate(p, n, s, tuple(combo)))
        return out

    null_certs = certs_from(classes)
    layered = []
    for reps in itertools.product(*(classes[i] for i in range(1, p))):
        remaining = [classes[0]] + [
            [r for r in classes[i] if r != reps[i - 1]] for i in range(1, p)
        ]
        for cert in certs_from(remaining):
            layered.append((reps, cert))
    return null_certs, layered


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of `verify_classification`; subsets_scanned is the number
    of subsets decided, 2^(p^n - 1)."""

    p: int
    n: int
    subsets_scanned: int
    solution_count: int
    all_classified: bool
    constructed_match: bool
    smallest_nonempty: int | None
    smallest_expected: int
    small_witness_ok: bool
    refutes_unique_solution: bool | None  # n >= 3: a solution smaller than p^n - 1
    millis: int

    @property
    def ok(self) -> bool:
        return (
            self.all_classified
            and self.constructed_match
            and self.small_witness_ok
            and self.refutes_unique_solution is not False
        )


def verify_classification(p: int, n: int) -> ClassificationReport:
    """Enumerate the solutions and check them against the structural
    classification.

    (a) every enumerated solution classifies as balanced or layered;
    (b) the sets built from all certificates are exactly the enumerated
        solutions (so every certificate also *is* a solution);
    (c) the smallest nonempty solution has size p^2 - 1, and for n >= 3
        that is strictly below p^n - 1.
    """
    start = time.perf_counter()
    N = _check_modulus(p, n, enforce_bound=True)
    sols = enumerate_solutions(p, n)
    all_classified = all(classify(O).kind != NOT_SOLUTION for O in sols)

    null_certs, layered = enumerate_certificates(p, n)
    constructed = {c.mask for c in null_certs}
    constructed.update(layered_set(p, n, reps, cert).mask for reps, cert in layered)
    constructed_match = constructed == {O.mask for O in sols}

    sizes = sorted(O.size for O in sols if O.mask)
    smallest = sizes[0] if sizes else None
    expected = p * p - 1
    small_ok = smallest == expected
    refutes = (smallest is not None and smallest < N - 1) if n >= 3 else None
    millis = int((time.perf_counter() - start) * 1000)
    return ClassificationReport(
        p=p,
        n=n,
        subsets_scanned=1 << (N - 1),
        solution_count=len(sols),
        all_classified=all_classified,
        constructed_match=constructed_match,
        smallest_nonempty=smallest,
        smallest_expected=expected,
        small_witness_ok=small_ok,
        refutes_unique_solution=refutes,
        millis=millis,
    )
