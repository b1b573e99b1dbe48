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
solutions collapse to the single full mask.  Profiles are built from
tables of all subset sums of the free rows, made by doubling
(`subset_sums`, the enumerator `nullsets` shares).  When the 2^free masks
fit one test chunk (`_CHUNK`: 280 of the 300 even degrees up to 600,
those with at most 14 free rows), one table holds every profile and every
mask is tested at once.  Past one chunk the scan splits the free rows in
two, so every profile is a low-table row plus a high-table row, and it
never forms most profiles: the two most selective checks (below) become
rows of differences on each table, `join` (shared with `nullsets`)
matches equal rows, and only the matched subsets are tested.  The checks
are ranked without drawing a mask: over uniform masks a difference of
two profiles is z0 plus a sum of fair coins times fixed integer steps, so
the chance that one, or two, of them vanish is read off those steps by
the local limit theorem on the lattice they span (`_estimates`), and an
estimate of 0 is exact.  Both sources go through the same test of every
check (`_passing`), so these choices change only the speed.  Every table
entry and profile is bounded by the largest column abs-sum of R(d), which
is d: the tables are int16 while that bound fits and int64 beyond.

A coprime partition is detected per prime q dividing d: some class lies
entirely inside the q-divisible columns iff some q-divisible column's
profile matches no q-free column.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .ramanujan import RamanujanMatrix, divisor_data, matrix_formula
from .cyclotomic import _factorize, int_dtype

# masks tested at once without a join; join keys per batch of (b1, b2)
# pairs; candidates per test
_CHUNK = 1 << 14
# 38 free rows is every even degree below 2520 (1680 and 2160 have 40
# divisors, 2520 has 48).  There the two half tables are 2^19 x 39 int16,
# 39 MiB each, and each (b1, b2) join sorts the 2^20 uint64 keys of both
# halves as one array: 1680 took 6.5-9 s at 198 MB peak RSS on one core of a
# 2-vCPU Xeon VM.
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


def _bezout(v: list[int]) -> tuple[int, list[int]]:
    """g = gcd(v) >= 0 and integers lam with sum(lam[r] * v[r]) = g.  An
    entry that g already divides leaves lam as it is, so lam is rescaled
    only when g drops, at most log2 of the first nonzero |entry| times."""
    g, lam = 0, [0] * len(v)
    for r, x in enumerate(v):
        if x % g if g else x:
            # extended Euclid: s g + t x = a
            a, b, s, s1, t, t1 = g, x, 1, 0, 0, 1
            while b:
                q = a // b
                a, b, s, s1, t, t1 = b, a - q * b, s1, s - q * s1, t1, t - q * t1
            if a < 0:
                a, s, t = -a, -s, -t
            lam = [s * y for y in lam]
            lam[r], g = t, a
    return g, lam


def _divides(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g | x elementwise, where 0 divides only 0."""
    return np.where(g != 0, x % np.where(g != 0, g, 1) == 0, x == 0)


def _gcd_rows(x: np.ndarray) -> np.ndarray:
    """gcd over the first axis; a loop of in-place gcds is faster here than
    np.gcd.reduce."""
    g = np.zeros(x.shape[1:], dtype=x.dtype)
    for row in x:
        np.gcd(g, row, out=g)
    return g


def _lattice(d1: np.ndarray, z1: np.ndarray, d2: np.ndarray, z2: np.ndarray):
    """The lattice L of Z^2 spanned by the pairs (d1[r, j], d2[r, i]) over
    r, for every column j of d1 and column i of d2: (g1, h, member), with
    g1[j] = gcd(d1[:, j]), det(L) = g1[j] h[i, j] (0 when L has rank < 2),
    and member[i, j] true iff (z1[j], z2[i]) lies in L.

    A Bezout vector lam of d1[:, j] (lam . d1[:, j] = g1) gives w = (g1, c)
    in L, c = lam . d2[:, i]; each generator less d1[r, j] / g1 times w lies
    on the second axis, so L meets that axis in h Z, h = gcd_r(d2[r, i] -
    (d1[r, j] / g1) c), and L = Z w + Z (0, h).  When g1 = 0, lam and c are
    0 and L = Z (0, gcd(d2[:, i])).  The Bezout coefficients can grow, so
    the width is derived from them: c, every term of the gcd and the
    remainder of the membership test are at most top (1 + |lam|_1 top),
    top the largest |input|; past int64 they are Python ints."""
    bez = [_bezout(col) for col in d1.T.tolist()]
    top = max(int(np.abs(x).max(initial=0)) for x in (d1, z1, d2, z2))
    wide = top * (1 + top * max((sum(map(abs, lam)) for _, lam in bez), default=0))
    dt = next((t for t in (np.int32, np.int64) if wide <= np.iinfo(t).max), object)
    g1 = np.array([g for g, _ in bez], dtype=dt)
    one = np.where(g1 != 0, g1, 1)
    lam = np.array([lam for _, lam in bez], dtype=float if wide < 1 << 53 else dt)
    # exact in float64 below 2^53, where the product runs on BLAS
    c = (d2.T.astype(lam.dtype) @ lam.reshape(d1.shape[::-1]).T).astype(dt)  # (i, j)
    # u[r, i, j], so each gcd step takes one contiguous (i, j) plane
    u = np.multiply((d1.astype(dt) // one)[:, None, :], c, dtype=dt)
    np.subtract(d2.astype(dt)[:, :, None], u, out=u)
    h = _gcd_rows(u)
    rest = z2.astype(dt)[:, None] - c * (z1.astype(dt) // one)
    member = _divides(g1, z1) & _divides(h, rest)
    return g1, h, member


def _pair_estimates(delta: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """P(Z = 0) per column, over uniform masks: exactly 0 when g =
    gcd(delta) does not divide z0, [z0 = 0] when g = 0, and otherwise g
    times the normal density at 0 of mean mu = z0 + sum(delta) / 2 and
    variance sum(delta^2) / 4 (the local limit theorem on the lattice g Z).

    Only those exact zeros are 0: a reachable 0 has -mu = sum t_r delta_r
    with |t_r| <= 1/2, so by Cauchy-Schwarz its exponent is at most n / 2
    over n free rows, and the exponent is capped there so that no density
    underflows; unreachable zeros keep a small positive estimate."""
    g = _gcd_rows(delta)
    s = np.maximum((delta.astype(float) ** 2).sum(axis=0), 1)  # 0 only where g is
    mu = z0 + delta.sum(axis=0) / 2
    dens = g * np.sqrt(2 / (np.pi * s)) * np.exp(-np.minimum(2 * mu * mu / s, len(delta) / 2))
    return np.where(g == 0, z0 == 0, np.where(_divides(g, z0), dens, 0.0))


def _joint_estimates(d1, z1, p1, d2, z2, p2) -> np.ndarray:
    """P(Z1 = 0 and Z2 = 0) for every column j of (d1, z1) and i of (d2,
    z2), as an (i, j) array, given their one-pair estimates p1 and p2: 0
    when z0 = (z1, z2) is not in the lattice L of the pairs (`_lattice`);
    else det(L) times the normal density at 0 of mean z0 + sum / 2 and
    covariance sum of v v^T / 4 over the pairs v; p1 when L has rank 1
    (Z2 = 0 follows from Z1 = 0); p2 when d1 is 0.  As in
    `_pair_estimates`, only those exact zeros are 0: the exponent of a
    reachable 0 is at most n / 2, and it is kept in [0, n / 2] against
    the rounding of a nearly singular covariance."""
    g1, h, member = _lattice(d1, z1, d2, z2)
    f1, f2 = d1.astype(float), d2.astype(float)
    s11, s22, s12 = (f1 * f1).sum(axis=0), (f2 * f2).sum(axis=0)[:, None], f2.T @ f1
    # 16 det(covariance) is a sum of squared 2x2 minors: at least 1 at rank
    # 2, and only the rank-2 entries are kept
    det = np.maximum(s11 * s22 - s12 * s12, 1)
    mu1 = z1 + f1.sum(axis=0) / 2
    mu2 = z2[:, None] + f2.sum(axis=0)[:, None] / 2
    q = 2 * (s22 * mu1 * mu1 - 2 * s12 * mu1 * mu2 + s11 * mu2 * mu2) / det
    # det(L) = g1 h can pass the width of h, so it is formed in float
    dens = g1.astype(float) * h.astype(float) * (2 / np.pi) / np.sqrt(det)
    dens *= np.exp(-np.clip(q, 0, len(d1) / 2))
    est = np.where(g1 != 0, np.where(h != 0, dens, p1), p2[:, None])
    return np.where(member, est, 0.0)


def _estimates(columns: np.ndarray, groups):
    """Estimated passes per mask of the one-column checks (a, B), one per
    a in A of each group (A, B) in order: `single[i]`, the sum over b in B
    of the pair estimate of (a, b), and `joint(i)[k]`, the sum over b1 in
    B_i and b2 in B_k of the joint estimate of (a_i, b1) and (a_k, b2).
    An estimate of 0 is exact: no mask passes.  Each column pair is
    estimated once, however many checks share it."""
    cols = columns.shape[1]
    keys = np.concatenate([(A[:, None] * cols + B).ravel() for A, B in groups])
    seen = np.zeros(cols * cols, dtype=bool)
    seen[keys] = True
    a, b = np.divmod(np.flatnonzero(seen), cols)
    # profile[a] - profile[b] = z0 + sum_r e_r delta[r], e the free-row bits
    delta = columns[2:, a].astype(np.int64) - columns[2:, b]
    shift = columns[0].astype(np.int64) + columns[1]
    z0 = shift[a] - shift[b]
    p = _pair_estimates(delta, z0)
    row = (np.cumsum(seen) - 1)[keys]  # the checks' pairs, in order, as columns of delta
    ends = np.cumsum(np.concatenate([np.full(len(A), len(B)) for A, B in groups]))
    starts = np.concatenate([[0], ends[:-1]])

    def per_check(est: np.ndarray) -> np.ndarray:
        return np.add.reduceat(est[row], starts)

    def joint(i: int) -> np.ndarray:
        own = row[starts[i] : ends[i]]
        est = _joint_estimates(delta[:, own], z0[own], p[own], delta, z0, p)
        return per_check(est.sum(axis=1))

    return per_check(p), joint


def _rank_checks(checks, single: np.ndarray, joint):
    """The one-column checks (a, B) to join, and the one to test first,
    from their estimated passes: `single[i]` for check i alone and
    `joint(i)[k]` for checks i and k together.  The join takes the check
    of least estimate and its partner on another column of least joint
    estimate, ties going to the better single rank.  The test leads with
    the best single check that is not joined (a joined one if all are).
    Other ties go by check order."""
    rank = np.argsort(single, kind="stable").tolist()
    picked = rank[:1]
    others = [i for i in rank if checks[i][0] != checks[rank[0]][0]]
    if others:
        picked.append(others[int(np.argmin(joint(rank[0])[others]))])
    lead = next((i for i in rank if i not in picked), picked[0])
    return [checks[i] for i in picked], checks[lead]


def _multipliers(n: int) -> np.ndarray:
    """splitmix64 of 1..n, the key multipliers: j*C + D would collide on
    every row difference with sum(delta_j) = sum(j * delta_j) = 0."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9
    z = (z ^ z >> 27) * 0x94D049BB133111EB
    return z ^ z >> 31


def join(low: np.ndarray, high: np.ndarray):
    """Index pairs (i, j), flat over the (batch, row) axes, of every low
    row equal to a high row of its batch, and of any others whose keys
    collide, so callers re-test each pair (Horowitz-Sahni, JACM 1974).

    One sort makes the pairs.  A row's key holds, from the top, its dot
    product with `_multipliers` modulo 2^64 (the batch index one more
    column), a side bit (0 low, 1 high) at bit b, and its flat index in the
    low b bits, b the bit length of the larger side's last index.  Both
    sides are sorted as one array, so each run of equal dot products lists
    its low rows, then its high rows, and only the runs that hold both
    sides make pairs.  Dropping the low b + 1 bits of the dot product only
    adds collisions: 44 bits remain while a side has at most 2^19 rows."""
    sizes = [math.prod(rows.shape[:-1]) for rows in (low, high)]
    b = max(max(sizes) - 1, 0).bit_length()
    c = _multipliers(low.shape[-1] + 1)
    keys = np.empty(sum(sizes), dtype=np.uint64)
    for side, (rows, key) in enumerate(zip((low, high), (keys[: sizes[0]], keys[sizes[0] :]))):
        grid = key.reshape(rows.shape[:-1])
        grid[:] = np.arange(len(rows), dtype=np.uint64)[:, None] * c[0]
        for j in range(rows.shape[-1]):
            grid += rows[..., j].astype(np.uint64) * c[j + 1]
        key &= ~np.uint64((2 << b) - 1)
        key |= np.arange(sizes[side], dtype=np.uint64) | np.uint64(side << b)
    del low, high, rows  # frees the callers' temporary tables
    keys.sort()
    # a run's dot product and side bit: a low run is even, and the high
    # run of the same dot product follows it as the next odd number
    run = keys >> np.uint64(b)
    mid = np.flatnonzero((run[:-1] ^ run[1:]) == np.uint64(1))  # a run's last low
    start = np.searchsorted(run, run[mid])
    highs = np.searchsorted(run, run[mid] + np.uint64(1), "right") - mid - 1
    del run
    keys &= np.uint64((1 << b) - 1)  # now the flat indices
    keys = keys.view(np.int64)
    # each high of those runs, with the lows of its run before it
    where = np.repeat(mid + 1 - np.cumsum(highs) + highs, highs) + np.arange(highs.sum())
    first, count = np.repeat(start, highs), np.repeat(mid + 1 - start, highs)
    lo = np.repeat(first - np.cumsum(count) + count, count)
    lo += np.arange(lo.size)
    lo = keys[lo]
    return lo, np.repeat(keys[where], count)


def _check_scan_bound(d: int, free: int) -> None:
    if free > MAX_FREE_ROWS:
        raise ValueError(f"{d} has {free} free divisor rows, beyond the scan bound {MAX_FREE_ROWS}")


def _join_hits(columns: np.ndarray, groups) -> np.ndarray:
    """Ascending masks over the free rows that pass every check, by the
    Horowitz-Sahni join that `verify_degree` describes."""
    free = len(columns) - 2
    h = free // 2
    low = subset_sums(columns[2:][:h])
    high = subset_sums(columns[2:][h:])
    high += columns[0] + columns[1]  # in place: at 38 free rows a copy is 39 MiB

    def profiles(masks: np.ndarray) -> np.ndarray:
        return low[masks & ((1 << h) - 1)] + high[masks >> h]

    # one (q-divisible column a, q-free columns B) check per a, q ascending
    checks = [(a, B) for A, B in groups for a in A]
    joined, lead = _rank_checks(checks, *_estimates(columns, groups))
    # one column first prunes a full chunk at |B| compares a row; then every
    # check, the joined ones too, since the join keys may collide
    tests = [([lead[0]], lead[1])] + groups

    a_cols = np.array([a for a, _ in joined], dtype=np.intp)
    low_a, high_a = low[:, a_cols], high[:, a_cols]
    combos = np.array(list(itertools.product(*(B for _, B in joined))), dtype=np.intp)
    per_batch = max(1, _CHUNK // max(len(low), len(high)))
    hits = [np.zeros(0, dtype=np.int64)]
    for i in range(0, len(combos), per_batch):
        bs = combos[i : i + per_batch]
        lo, hi = join(np.subtract(low_a, low[:, bs].transpose(1, 0, 2), dtype=np.int64),
                      np.subtract(high[:, bs].transpose(1, 0, 2), high_a, dtype=np.int64))
        # in place: at 1680 a (b1, b2) batch joins ~2 million pairs.  Each
        # table has a power of two rows, so the mask takes a flat index's row
        lo &= len(low) - 1
        hi &= len(high) - 1
        hi <<= h
        candidates = np.bitwise_or(lo, hi, out=hi)
        for j in range(0, len(candidates), _CHUNK):
            chunk = candidates[j : j + _CHUNK]
            hits.append(chunk[_passing(profiles(chunk), tests)])
    # sorted and de-duplicated; np.unique would first import numpy.ma (~17 ms)
    hits = np.sort(np.concatenate(hits))
    return hits[np.diff(hits, prepend=-1) != 0]


def verify_degree(d: int) -> ConjectureReport:
    """Exhaustively test the conjecture at one even degree.

    Decides all 2^(|D|-2) row subsets containing {1, 2} and records every
    coprime partition found, in ascending mask order; the verdict holds
    iff the only coprime subset is the full divisor set.  A subset passes
    when, for every prime q dividing d, every q-divisible column's profile
    matches some q-free column's (`_passing`).

    The candidates come from one of two sources, and the choice changes
    only the speed.  When the 2^(|D|-2) masks fit one chunk (_CHUNK), one
    `subset_sums` table over the free rows, plus rows 1 and 2, holds every
    profile, and every mask is tested at once, one check per prime.

    Past one chunk the free rows split into a low half of h = (|D|-2)//2
    rows and a high half (plus rows 1 and 2), each tabulated by
    `subset_sums`, so a subset t is the pair (t mod 2^h, t >> h) and its
    profile is low[lo] + high[hi].  The scan is then a Horowitz-Sahni join
    on the two most selective one-column checks (a, B), ranked by their
    estimated passes, read off the integer rows of R(d) (`_estimates`):
    the best check (a1, B1) and its partner (a2, B2) on another column of
    least estimated joint passes.  For each (b1, b2) in B1 x B2
    the two equalities profile[a] == profile[b] become one row equality,
    (low[a1]-low[b1], low[a2]-low[b2]) against (high[b1]-high[a1],
    high[b2]-high[a2]), and `join` matches every equal pair, and any whose
    keys collide.  Passing both checks is necessary for a hit, and every
    matched (lo, hi) goes through the per-prime test, the joined checks
    included, _CHUNK at a time, after the best unjoined check, so the
    estimates change only the speed; the hits are sorted and a
    subset that matched several (b1, b2) is reported once.  With _CHUNK
    patched below 2^(|D|-2) small degrees join too: 4, with one check
    column, on rows of one difference; 2 has one mask, which always fits a
    chunk.  Raises ValueError when |D|-2 exceeds MAX_FREE_ROWS.
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
        hits = _join_hits(columns, groups)
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
