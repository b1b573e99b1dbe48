"""The Horowitz-Sahni join (JACM 1974), kept as an exact oracle for both
branch and bound searches: `coprime._search_hits` and
`nullsets.enumerate_solutions`.

`join(low, high)` matches the equal rows of two tables.  A row's key
holds, from the top, its dot product with `_multipliers` modulo 2^64 (the
batch index one more column), a side bit (0 low, 1 high) at bit b, and its
flat index in the low b bits, b the bit length of the larger side's last
index.  Both sides are sorted as one array, so each run of equal dot
products lists its low rows, then its high rows, and only the runs that
hold both sides make pairs.  Colliding keys only add pairs, which every
caller re-tests exactly.

`join_solutions(p, n)` returns the masks of `nullsets.enumerate_solutions`
by joining the subset sums of the lower half of the flip rows with the
negated subset sums of the upper half, each pair tested for exact equality.
At 2^5 the halves have 2^15 and 2^16 rows; 7^2 would need two 2^24-row
tables (1.57 GB), so the oracle stops at 32.

`join_hits(columns, groups)` takes the arguments of `_search_hits` and
returns the same ascending masks by an independent method, so the search
can be compared with it at degrees past brute force (22 free rows at
360).  `verify_degree` runs it in place of the search when a test patches
`coprime._search_hits` with it.

The free rows split into a low half of h = free // 2 rows and a high half
(plus rows 1 and 2), each tabulated by `coprime.subset_sums`, so a mask t
is the pair (t mod 2^h, t >> h) and its profile is low[lo] + high[hi].
The join runs on the two most selective one-column checks (a, B), ranked
by their estimated passes, read off the integer rows (`_estimates`): the
best check (a1, B1) and its partner (a2, B2) on another column of least
estimated joint passes.  For each (b1, b2) in B1 x B2 the two equalities
profile[a] == profile[b] become one row equality, (low[a1]-low[b1],
low[a2]-low[b2]) against (high[b1]-high[a1], high[b2]-high[a2]), and
`join` matches every equal pair, and any whose keys collide.
Every matched (lo, hi) goes through `coprime._passing`, the joined checks
included, `coprime._CHUNK` at a time, after the best unjoined check, so
the estimates change only the speed; the hits are sorted and a mask that
matched several (b1, b2) is reported once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from burnside import coprime as cp
from burnside import nullsets as ns


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
    collide, keyed as the module docstring describes.  Dropping the low
    b + 1 bits of the dot product only adds collisions: 44 bits remain
    while a side has at most 2^19 rows."""
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


def join_solutions(p: int, n: int) -> np.ndarray:
    """Ascending masks of the solution sets for p^n, by the join of the
    subset sums of the first h flip rows with the negated subset sums of
    the rest; a candidate pair is a solution exactly when its two rows are
    equal, tested on every pair."""
    N = p**n
    rows = ns._flip_rows(p, n)
    h = (N - 1) // 2
    low, high = cp.subset_sums(rows[:h]), cp.subset_sums(-rows[h:])
    a, b = join(low[None], high[None])  # one batch
    equal = (low[a] == high[b]).all(axis=1)
    return np.sort((a[equal] | b[equal] << h) << 1)


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


def join_hits(columns: np.ndarray, groups) -> np.ndarray:
    """Ascending masks over the free rows that pass every check, by the
    Horowitz-Sahni join that the module docstring describes."""
    free = len(columns) - 2
    h = free // 2
    low = cp.subset_sums(columns[2:][:h])
    high = cp.subset_sums(columns[2:][h:])
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
    per_batch = max(1, cp._CHUNK // max(len(low), len(high)))
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
        for j in range(0, len(candidates), cp._CHUNK):
            chunk = candidates[j : j + cp._CHUNK]
            hits.append(chunk[cp._passing(profiles(chunk), tests)])
    # sorted and de-duplicated; np.unique would first import numpy.ma (~17 ms)
    hits = np.sort(np.concatenate(hits))
    return hits[np.diff(hits, prepend=-1) != 0]
