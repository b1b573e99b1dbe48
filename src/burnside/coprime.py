"""Divisor partitions from Ramanujan row sums, and the exhaustive verifier.

For a row subset E of the Ramanujan matrix R(d), the profile of a column
c in D \\ {d} is sum_{r in E} R[r][c].  Columns with equal profiles are
equivalent; the resulting partition is *coprime* when every class has
gcd 1.  The conjecture under test: for even d and E containing 2, the
partition is coprime exactly when E is D or D \\ {1}.

The verifier enumerates every E containing {1, 2}.  Dropping the
complementary half of the space is sound because row 1 of R(d) is
constant, so adding divisor 1 to E shifts every profile equally and
leaves the partition unchanged; under this convention the two conjectured
solutions collapse to the single full mask.  The scan splits the free
rows in two and builds each part's table of all subset sums by doubling
(`subset_sums`, the enumerator `nullsets` shares): every row of the high
table, shifted by rows 1 and 2, is added to the whole low table, and the
resulting block of profiles is tested one column at a time, keeping only
the low rows that pass each column.  Every table entry and
profile is bounded by the largest column abs-sum of R(d), which is d: the
tables are int16 while that bound fits and int64 beyond it.

A coprime partition is detected per prime q dividing d: some class lies
entirely inside the q-divisible columns iff some q-divisible column's
profile matches no q-free column.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .ramanujan import RamanujanMatrix, divisor_data, matrix_formula
from .cyclotomic import _factorize, int_dtype, prime_power_split

_BLOCK_BITS = 16
# Each high-table row costs one test of a 2^_BLOCK_BITS-row block, measured
# on one core of a 2-vCPU VM at 1.25 ms for 30 divisors (720: 4 096 blocks in
# 5.1 s) and 1.5 ms for 32 (840: 16 384 blocks in 24 s).  32 free rows is 2^16
# such blocks, a few minutes; the next degree over the bound (1260, 34 free
# rows, 2^18 blocks) is unmeasured, so it is refused before any table is built.
MAX_FREE_ROWS = 32


@dataclass(frozen=True)
class RowSubset:
    """A subset of the divisor rows of R(d), stored as a bitmask over the
    ascending divisor list."""

    d: int
    mask: int

    def divisors(self) -> tuple[int, ...]:
        divs = divisor_data(self.d).divisors
        return tuple(r for i, r in enumerate(divs) if self.mask >> i & 1)

    @classmethod
    def from_divisors(cls, d: int, rows) -> "RowSubset":
        divs = divisor_data(d).divisors
        mask = 0
        for r in rows:
            try:
                mask |= 1 << divs.index(r)
            except ValueError:
                raise ValueError(f"{r} is not a divisor of {d}") from None
        return cls(d, mask)


@dataclass(frozen=True)
class DivisorPartition:
    """Partition of D \\ {d} by equal profiles, with the profile map."""

    d: int
    classes: tuple[tuple[int, ...], ...]
    profile: dict[int, int]


def _group_by_profile(columns: tuple[int, ...], profile: dict[int, int]):
    groups: dict[int, list[int]] = {}
    for c in columns:
        groups.setdefault(profile[c], []).append(c)
    classes = tuple(tuple(sorted(g)) for g in groups.values())
    return tuple(sorted(classes, key=lambda cl: cl[0]))


def partition_for(R: RamanujanMatrix, E: RowSubset) -> DivisorPartition:
    """Partition of the proper divisors by the row sums over E."""
    if E.mask == 0:
        raise ValueError("row subset must be nonempty")
    if E.d != R.d:
        raise ValueError("row subset and matrix degree differ")
    rows = [i for i in range(len(R.divisors)) if E.mask >> i & 1]
    columns = R.divisors[:-1]
    profile = {
        c: sum(R.entries[i][j] for i in rows) for j, c in enumerate(columns)
    }
    return DivisorPartition(R.d, _group_by_profile(columns, profile), profile)


def partition_mod(R: RamanujanMatrix, E: RowSubset, modulus: int) -> DivisorPartition:
    """Same relation, but profiles compared modulo `modulus`.

    Restricted to degrees d = 2 p^n with p an odd prime, the setting in
    which the modular refinement is meaningful, and modulus p^n or p^{n-1}.
    """
    half = prime_power_split(R.d // 2) if R.d % 2 == 0 else None
    if half is None or half[0] == 2:
        raise ValueError(f"degree {R.d} is not of the form 2*p^n with p odd")
    p, n = half
    if modulus not in (p**n, p ** (n - 1)):
        raise ValueError(f"modulus must be {p**n} or {p**(n-1)}")
    plain = partition_for(R, E)
    profile = {c: v % modulus for c, v in plain.profile.items()}
    columns = R.divisors[:-1]
    return DivisorPartition(R.d, _group_by_profile(columns, profile), profile)


def is_coprime(P: DivisorPartition) -> bool:
    """True iff every class of the partition has gcd 1."""
    return all(math.gcd(*cl) == 1 if len(cl) > 1 else cl[0] == 1 for cl in P.classes)


@dataclass(frozen=True)
class ConjectureReport:
    d: int
    divisor_count: int
    subsets_scanned: int
    coprime_masks: tuple[tuple[int, ...], ...]  # each as a divisor tuple
    holds: bool
    millis: int

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "divisors": self.divisor_count,
            "subsets_scanned": self.subsets_scanned,
            "coprime": [list(m) for m in self.coprime_masks],
            "verdict": "holds" if self.holds else "fails",
            "millis": self.millis,
        }


def subset_sums(rows: np.ndarray) -> np.ndarray:
    """Row t is the sum of rows[j] over the set bits j of t (built by doubling)."""
    table = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    for row in rows:
        table = np.concatenate([table, table + row])
    return table


def verify_degree(d: int) -> ConjectureReport:
    """Exhaustively test the conjecture at one even degree.

    Scans all 2^(|D|-2) row subsets containing {1, 2} and records every
    coprime partition found, in ascending mask order; the verdict holds
    iff the only coprime subset is the full divisor set.  The first
    min(|D|-2, _BLOCK_BITS) free rows make the low table, the rest (with
    rows 1 and 2 added) the high one, and each high row plus the whole
    low table is one block for the coprime test.  The test keeps the
    indices of the surviving low rows and, after each q-divisible column,
    drops the dead rows from them and from its copy of the low table, so
    later columns compare only survivors (about 30% survive the first
    column and almost none survive ten).  Raises ValueError when |D|-2
    exceeds MAX_FREE_ROWS.
    """
    if d < 2 or d % 2:
        raise ValueError(f"degree must be even and >= 2, got {d}")
    start = time.perf_counter()
    R = matrix_formula(d)
    divs = R.divisors
    k = len(divs)
    if k - 2 > MAX_FREE_ROWS:
        raise ValueError(
            f"{d} has {k - 2} free divisor rows, beyond the scan bound {MAX_FREE_ROWS}"
        )
    # Row for divisor 1 must be constant: this is what lets the scan fix
    # 1 in E without losing any partitions.
    if any(v != 1 for v in R.entries[0]):
        raise RuntimeError(f"row 1 of R({d}) is not constant")

    columns = np.array(R.entries, dtype=np.int64)[:, : k - 1]  # D \ {d}
    # Every partial subset sum of a column lies within its abs-sum, so no
    # table entry or profile can wrap in a dtype that holds the largest.
    bound = int(np.abs(columns).sum(axis=0).max())
    columns = columns.astype(int_dtype(bound))
    base = columns[0] + columns[1]  # rows for divisors 1 and 2
    C_free = columns[2:]
    col_divs = np.array(divs[: k - 1], dtype=np.int64)

    # one (q-divisible column, q-free columns) check per column, q ascending
    checks = []
    for q, _ in _factorize(d):
        B = np.nonzero(col_divs % q != 0)[0]
        checks.extend((a, B) for a in np.nonzero(col_divs % q == 0)[0])

    low_bits = min(k - 2, _BLOCK_BITS)
    # transposed, so each profile column is one contiguous row of low_t
    low_t = np.ascontiguousarray(subset_sums(C_free[:low_bits]).T)
    high = subset_sums(C_free[low_bits:]) + base

    def coprime_test(row: np.ndarray) -> np.ndarray:
        """Ascending indices of the low rows whose profile plus `row` is coprime."""
        idx = np.arange(low_t.shape[1])
        block = low_t
        for a, B in checks:
            col = block[a] + row[a]
            keep = block[B[0]] + row[B[0]] == col
            for b in B[1:]:
                keep |= block[b] + row[b] == col
            survivors = np.flatnonzero(keep)
            idx = idx[survivors]
            if not idx.size:
                break
            block = block.take(survivors, axis=1)
        return idx

    masks = []
    for hi, row in enumerate(high):
        for lo in coprime_test(row):
            masks.append(RowSubset(d, 0b11 | (int(lo) | hi << low_bits) << 2).divisors())
    holds = masks == [tuple(divs)]
    millis = int((time.perf_counter() - start) * 1000)
    return ConjectureReport(d, k, 1 << (k - 2), tuple(masks), holds, millis)


def iter_verify_range(d_max: int, jobs: int = 1):
    """Yield verify_degree reports for every even d <= d_max, in degree order.

    Reports stream as degrees complete (worker pool when jobs > 1), so a
    long sweep can be monitored line by line; the sequence is independent
    of the worker count.
    """
    if d_max < 2:
        raise ValueError(f"d_max must be at least 2, got {d_max}")
    degrees = list(range(2, d_max + 1, 2))
    if jobs <= 1:
        for d in degrees:
            yield verify_degree(d)
        return
    import multiprocessing

    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(verify_degree, degrees, chunksize=1)


def verify_range(d_max: int, jobs: int = 1) -> list[ConjectureReport]:
    """verify_degree for every even d <= d_max, as a degree-ordered list."""
    return list(iter_verify_range(d_max, jobs=jobs))
