"""Divisor partitions from Ramanujan row sums, and the exhaustive verifier.

For a row subset E of the Ramanujan matrix R(d), the profile of a column
c in D \\ {d} is sum_{r in E} R[r][c].  Columns with equal profiles are
equivalent; the resulting partition is *coprime* when every class has
gcd 1.  The conjecture under test: for even d and E containing 2, the
partition is coprime exactly when E is D or D \\ {1}.

The verifier decides every E containing {1, 2}.  Dropping the
complementary half of the space is sound because row 1 of R(d) is
constant, so adding divisor 1 to E shifts every profile equally and
leaves the partition unchanged; under this convention the two conjectured
solutions collapse to the single full mask.  When the 2^free masks fit
one test chunk (`_CHUNK`: 258 of the 300 even degrees up to 600, those
with at most 13 free rows), one table of all subset sums of the free rows
(`subset_sums`, built by doubling) holds every profile, and every mask is
tested at once.  Past one chunk the scan is an exact branch and bound
over prefixes of the free rows (`_search_hits`, on the kernel
`_branch_and_bound` that `nullsets` runs too).  For a check pair of
columns (a, b), profile[a] - profile[b] is a fixed shift plus the free
rows' steps R[r][a] - R[r][b] over the rows in E; a prefix of decisions
confines the rest of that sum to an interval, and is dropped when some
check has no b left whose difference can still be 0.  No passing mask is
dropped, and the leaves go through the same test of every check
(`_passing`) as the direct path, so the bound changes only the speed.
Every table entry and profile is bounded by the largest column abs-sum of
R(d), which is d, and every value of the search by |shift| plus the abs-sum
of the pair's steps, at most twice that: each is int16 while its bound
fits and int64 beyond.

A coprime partition is detected per prime q dividing d: some class lies
entirely inside the q-divisible columns iff some q-divisible column's
profile matches no q-free column.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .ramanujan import RamanujanMatrix, divisor_data, matrix_formula
from .cyclotomic import _factorize, int_dtype

# masks tested at once on the direct path; past it the search.  This is the
# measured crossover (`verify_degree`, best of 30, one core of a 2-vCPU Xeon
# VM): table against search ~1.5 against ~0.8 ms at 120 (14 free rows),
# ~0.46 against ~0.56 ms at 144 (13), ~0.30 against ~0.49 ms at 192 (12)
_CHUNK = 1 << 13
# 38 free rows is every even degree below 2520 (1680 and 2160 have 40
# divisors, 2520 has 48).  On one core of a 2-vCPU Xeon VM the search takes
# ~0.02 s at 1680 (5 423 nodes) and ~0.005 s at 2160 (665 nodes), each under
# 40 MB peak RSS.  2520 (174 263 nodes), with its whole frontier held at
# once, took 0.9 s at 246 MB, so raising the bound waits for a frontier
# tested in chunks.
MAX_FREE_ROWS = 38


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


def partition_for(R: RamanujanMatrix, E: RowSubset) -> DivisorPartition:
    """Partition of the proper divisors by the row sums over E.  The
    columns are met in ascending order, so each class is ascending and the
    classes come out by least member."""
    if E.mask == 0:
        raise ValueError("row subset must be nonempty")
    if E.d != R.d:
        raise ValueError("row subset and matrix degree differ")
    rows = [i for i in range(len(R.divisors)) if E.mask >> i & 1]
    profile: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    for j, c in enumerate(R.divisors[:-1]):
        profile[c] = sum(R.entries[i][j] for i in rows)
        groups.setdefault(profile[c], []).append(c)
    return DivisorPartition(R.d, tuple(map(tuple, groups.values())), profile)


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


def _passing(profiles: np.ndarray, checks) -> np.ndarray:
    """Ascending indices of the profile rows that pass every check (A, B):
    each column of A matches some column of B.  The dead rows are dropped
    after each check, so later checks compare only survivors."""
    idx = np.arange(len(profiles))
    for A, B in checks:
        keep = (profiles[:, A, None] == profiles[:, None, B]).any(axis=2).all(axis=1)
        idx, profiles = idx[keep], profiles[keep]
        if not idx.size:
            break
    return idx


def _in_interval(rest: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The interval bound, per (pair, node): rest, the sum the undecided
    rows must make for Z = 0, lies between low and high, the sums of the
    pair's negative and of its positive undecided steps."""
    return (low[:, None] <= rest) & (rest <= high[:, None])


def _branch_and_bound(steps: np.ndarray, rest: np.ndarray, starts, bits) -> np.ndarray:
    """Masks of the subsets e of the rows of `steps` (decided in row order,
    row i setting mask bit bits[i]) whose sum hits `rest` on some column of
    every check, the checks being the runs of columns that begin at
    `starts`.  Breadth-first over prefixes: per column and node, rest is
    what the undecided rows must still add, and a node lives while each
    check has a column whose `_in_interval` holds, rest between the sums of
    the column's negative and of its positive undecided steps.  No
    completing subset is dropped, and at full depth the interval is [0, 0],
    so the leaves are exactly the subsets that pass.  Every rest and suffix
    sum is within max over columns of |rest| + sum |step|, which picks the
    width."""
    n = len(steps)
    wide = steps.astype(np.int64)
    dt = int_dtype(int((np.abs(rest) + np.abs(wide).sum(axis=0)).max(initial=0)))
    # row i bounds the rows i:; row n, with none left, is 0
    low, high = (np.zeros((n + 1, wide.shape[1]), dtype=dt) for _ in range(2))
    low[:n] = np.cumsum(np.minimum(wide, 0)[::-1], axis=0)[::-1]
    high[:n] = np.cumsum(np.maximum(wide, 0)[::-1], axis=0)[::-1]
    steps = wide.astype(dt)
    masks = np.zeros(1, dtype=np.int64)
    rest = rest.astype(dt)[:, None]
    for i in range(n + 1):
        if i:
            masks = np.concatenate([masks, masks | 1 << bits[i - 1]])
            rest = np.concatenate([rest, rest - steps[i - 1, :, None]], axis=1)
        ok = _in_interval(rest, low[i], high[i])
        # (bits packed along the nodes: reduceat over bool rows is ~10x slower)
        alive = np.bitwise_and.reduce(np.bitwise_or.reduceat(np.packbits(ok, axis=1), starts))
        keep = np.flatnonzero(np.unpackbits(alive, count=len(masks)))
        # (take: rest[:, keep] is ~2x slower at 2520)
        masks, rest = masks[keep], rest.take(keep, axis=1)
        if not masks.size:
            break
    return masks


def _search_hits(columns: np.ndarray, groups) -> np.ndarray:
    """Ascending masks over the free rows that pass every check, by the
    branch and bound over prefixes of the free rows that `verify_degree`
    describes."""
    free = len(columns) - 2
    # one (q-divisible column a, q-free columns B) check per a, q ascending,
    # as pairs (a, b), contiguous per check
    checks = [(a, B) for A, B in groups for a in A]
    sizes = [len(B) for _, B in checks]
    a = np.repeat([a for a, _ in checks], sizes)
    b = np.concatenate([B for _, B in checks])
    # Z = profile[a] - profile[b] = z0 + sum_r e_r delta[r], e the free-row
    # bits, so Z = 0 iff the free rows add -z0
    wide = columns.astype(np.int64)
    delta = wide[2:, a] - wide[2:, b]
    shift = wide[0] + wide[1]
    order = np.argsort(-np.abs(delta).sum(axis=1), kind="stable")
    masks = _branch_and_bound(delta[order], shift[b] - shift[a], np.cumsum([0] + sizes[:-1]), order)
    # the leaves, where the interval bound says Z = 0, take the exact test too
    bits = (masks[:, None] >> np.arange(free) & 1).astype(columns.dtype)
    return np.sort(masks[_passing(bits @ columns[2:] + columns[0] + columns[1], groups)])


def _check_scan_bound(d: int, free: int) -> None:
    if free > MAX_FREE_ROWS:
        raise ValueError(f"{d} has {free} free divisor rows, beyond the scan bound {MAX_FREE_ROWS}")


def verify_degree(d: int) -> ConjectureReport:
    """Exhaustively test the conjecture at one even degree.

    Decides all 2^(|D|-2) row subsets containing {1, 2} and records every
    coprime partition found, in ascending mask order; the verdict holds
    iff the only coprime subset is the full divisor set.  A subset passes
    when, for every prime q dividing d, every q-divisible column's profile
    matches some q-free column's (`_passing`).

    The hits come from one of two sources, and the choice changes only
    the speed.  When the 2^(|D|-2) masks fit one chunk (_CHUNK), one
    `subset_sums` table over the free rows, plus rows 1 and 2, holds every
    profile, and every mask is tested at once, one check per prime.

    Past one chunk, `_search_hits` decides the free rows one at a time,
    breadth-first (`_branch_and_bound`), keeping every prefix that may
    still complete to a passing mask.  Each one-column check (a, B) becomes the pairs (a, b),
    b in B, and each pair's difference Z = profile[a] - profile[b] is z0
    (rows 1 and 2) plus sum_r e_r delta_r, e_r the bit of free row r and
    delta_r = R[r][a] - R[r][b].  The rows are decided in descending order
    of sum |delta_r| over all pairs, so the large steps are fixed first.
    After a prefix, every completion puts Z in [cur + sum of the negative
    undecided delta_r, cur + sum of the positive ones] (`_in_interval`);
    the two sums are suffix arrays over the row order, built once per
    degree.  A prefix is dropped when some check has no b whose Z can
    reach 0 within its interval, which no passing mask fails.  At full
    depth the interval is [0, 0], so the survivors are already exactly
    the passing masks; they still go through the per-prime test, so the
    bound changes only the speed.  With _CHUNK patched below 2^(|D|-2)
    small degrees search too: 4, with one check column; 2 has one mask,
    which always fits a chunk.  Raises ValueError when |D|-2 exceeds
    MAX_FREE_ROWS.
    """
    if d < 2 or d % 2:
        raise ValueError(f"degree must be even and >= 2, got {d}")
    start = time.perf_counter()
    R = matrix_formula(d)
    divs = R.divisors
    k = len(divs)
    free = k - 2
    _check_scan_bound(d, free)
    # Row for divisor 1 must be constant: this is what lets the scan fix
    # 1 in E without losing any partitions.
    if any(v != 1 for v in R.entries[0]):
        raise RuntimeError(f"row 1 of R({d}) is not constant")

    columns = np.array(R.entries, dtype=np.int64)[:, : k - 1]  # D \ {d}
    # Every partial subset sum of a column lies within its abs-sum, so no
    # table entry or profile can wrap in a dtype that holds the largest.
    columns = columns.astype(int_dtype(int(np.abs(columns).sum(axis=0).max())))
    col_divs = np.array(divs[: k - 1], dtype=np.int64)
    # per prime q, q ascending: the q-divisible columns and the q-free ones
    groups = [
        (np.nonzero(col_divs % q == 0)[0], np.nonzero(col_divs % q != 0)[0])
        for q, _ in _factorize(d)
    ]

    if 1 << free <= _CHUNK:
        table = subset_sums(columns[2:])
        table += columns[0] + columns[1]
        hits = _passing(table, groups)
    else:
        hits = _search_hits(columns, groups)
    masks = [
        divs[:2] + tuple(r for i, r in enumerate(divs[2:]) if t >> i & 1) for t in hits.tolist()
    ]
    holds = masks == [divs]
    millis = int((time.perf_counter() - start) * 1000)
    return ConjectureReport(d, k, 1 << free, tuple(masks), holds, millis)


def iter_verify_range(d_max: int, jobs: int = 1):
    """Yield verify_degree reports for every even d <= d_max, in degree order.

    Reports stream as degrees complete (a pool of min(jobs, degrees, CPUs)
    workers when that exceeds 1), so a long sweep can be monitored line by
    line; the sequence is independent of the worker count.  A degree past
    MAX_FREE_ROWS raises ValueError before the first report.
    """
    if d_max < 2:
        raise ValueError(f"d_max must be at least 2, got {d_max}")
    degrees = range(2, d_max + 1, 2)
    for d in degrees:  # stops at the first refused degree, 2520 today
        _check_scan_bound(d, math.prod(e + 1 for _, e in _factorize(d)) - 2)
    jobs = min(jobs, len(degrees), os.cpu_count() or 1)
    if jobs <= 1:
        for d in degrees:
            yield verify_degree(d)
        return
    import multiprocessing

    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(verify_degree, degrees, chunksize=1)
