"""Ramanujan matrices: divisor-indexed tables of cyclotomic sums.

For d >= 1 let D be the sorted divisors of d.  The Ramanujan matrix R(d)
has rows and columns indexed by D, with

    R[r][c] = mu(r / g) * phi(r) / phi(r / g),   g = gcd(r, c),

which equals the sum of c-th powers of the primitive r-th roots of unity.
Two independent constructions are provided: `matrix_formula` evaluates the
closed form above, while `matrix_direct` sums roots of unity in exact
cyclotomic arithmetic and reduces; the two must agree entrywise.

Structural facts validated by `structure_identities`:
  * row 1 is constant equal to 1;
  * every column c < d sums to 0, and column d sums to d;
  * for d = p^n: det R = p^{n(n+1)/2}, the inverse is the half-turn
    rotation of R divided by p^n, and L @ R is upper triangular with
    L the all-ones lower triangular matrix.

All entries are exact integers (Python ints; entries are bounded by
phi(r) <= d, and the fraction-free determinant never leaves Z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import cyclotomic
from .cyclotomic import PrimitiveClass, _factorize


MAX_DEGREE = 2**40  # trial division runs to 2^20, about 0.1 s
# R(d) has |D|^2 Python-int entries: at most 2.4 M here.  `ramanujan
# 1715313600` (1 512 divisors) took 3.9 s at 112 MB peak RSS on a 2-vCPU
# Xeon VM; d = 963761198400 (6 720 divisors, 45 M entries) is refused.
MAX_DIVISORS = 1536


@dataclass(frozen=True)
class DivisorData:
    """Divisors of n with their Moebius and totient values."""

    n: int
    divisors: tuple[int, ...]
    mobius: dict[int, int]
    totient: dict[int, int]


def divisor_data(n: int) -> DivisorData:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > MAX_DEGREE:
        raise ValueError(f"{n} exceeds the factorisation budget of 2^40")
    # (divisor, mu, phi), extended by each prime power p^k of n in turn:
    # both are multiplicative, mu(p^k) = 1, -1, 0, ... and
    # phi(p^k) = (p - 1) p^(k-1) for k >= 1
    triples = [(1, 1, 1)]
    for p, e in _factorize(n):
        powers = [(1, 1, 1)] + [
            (p**k, -1 if k == 1 else 0, (p - 1) * p ** (k - 1)) for k in range(1, e + 1)
        ]
        triples = [(d * q, mu * m, phi * f) for d, mu, phi in triples for q, m, f in powers]
    triples.sort()
    return DivisorData(
        n,
        tuple(d for d, _, _ in triples),
        {d: mu for d, mu, _ in triples},
        {d: phi for d, _, phi in triples},
    )


@dataclass(frozen=True)
class RamanujanMatrix:
    d: int
    divisors: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]  # entries[i][j] for (divisors[i], divisors[j])

    def index(self, divisor: int) -> int:
        try:
            return self.divisors.index(divisor)
        except ValueError:
            raise ValueError(f"{divisor} is not a divisor of {self.d}") from None

    def entry(self, r: int, c: int) -> int:
        return self.entries[self.index(r)][self.index(c)]


def matrix_formula(d: int) -> RamanujanMatrix:
    """R(d) from the closed form; the division phi(r)/phi(r/g) is exact.
    Raises ValueError past MAX_DIVISORS divisors, before any entry."""
    data = divisor_data(d)
    if len(data.divisors) > MAX_DIVISORS:
        raise ValueError(
            f"{d} has {len(data.divisors)} divisors, beyond the budget of {MAX_DIVISORS}"
        )
    rows = []
    for r in data.divisors:
        row = []
        for c in data.divisors:
            g = math.gcd(r, c)
            q = r // g
            num = data.mobius[q] * data.totient[r]
            if num % data.totient[q]:
                raise RuntimeError(f"phi({r}) / phi({q}) is not exact")
            row.append(num // data.totient[q])
        rows.append(tuple(row))
    return RamanujanMatrix(d, data.divisors, tuple(rows))


def matrix_direct(d: int) -> RamanujanMatrix:
    """R(d) as literal root-of-unity sums, reduced in exact arithmetic.

    Entry (r, c) is sum of z_d^{i c} over the primitive-class indices i of
    order r.  Serves as the independent oracle for `matrix_formula`; raises
    if any sum fails to reduce to a rational integer.
    """
    data = divisor_data(d)
    rows = []
    for r in data.divisors:
        base = cyclotomic.from_indices(d, PrimitiveClass(d, r).elements)
        row = []
        for c in data.divisors:
            value = cyclotomic.as_integer(cyclotomic.power_map(base, c))
            if value is None:
                raise ArithmeticError(
                    f"sum over primitive class ({d}, {r}) at column {c} "
                    "did not reduce to an integer"
                )
            row.append(value)
        rows.append(tuple(row))
    return RamanujanMatrix(d, data.divisors, tuple(rows))


def prime_power_entry(p: int, n: int, e: int, f: int) -> int:
    """Entry of R(p^n) in row p^e, column p^f.

    Piecewise: 0 below the first subdiagonal, -p^{e-1} on it, and
    (p-1)p^{e-1} on or above the diagonal; row e = 0 is constant 1.
    """
    if not (0 <= e <= n and 0 <= f <= n):
        raise ValueError(f"exponents ({e}, {f}) outside [0, {n}]")
    if e == 0:
        return 1
    if f < e - 1:
        return 0
    if f == e - 1:
        return -(p ** (e - 1))
    return (p - 1) * p ** (e - 1)


def tensor_check(d: int) -> bool:
    """True iff R(d) factors as the Kronecker product of its prime-power parts.

    Indexing uses the bijection rr' <-> (r, r') between divisors of d and
    pairs of divisors of the coprime prime-power factors, rather than any
    particular display ordering.
    """
    if d < 2:
        raise ValueError("tensor factorisation needs d >= 2")
    R = matrix_formula(d)
    parts = [(p, p**e) for p, e in _factorize(d)]
    factor_matrices = {q: matrix_formula(q) for _, q in parts}

    def split(m: int) -> tuple[int, ...]:
        return tuple(math.gcd(m, q) for _, q in parts)

    for r in R.divisors:
        rs = split(r)
        for c in R.divisors:
            cs = split(c)
            prod = 1
            for (_, q), rq, cq in zip(parts, rs, cs):
                prod *= factor_matrices[q].entry(rq, cq)
            if prod != R.entry(r, c):
                return False
    return True


def bareiss_determinant(mat: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in mat]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                if num % prev:
                    raise RuntimeError("non-exact Bareiss division")
                m[i][j] = num // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the structural identity checks for one degree."""

    d: int
    column_sums_ok: bool
    is_prime_power: bool
    determinant: int | None
    determinant_expected: int | None
    determinant_ok: bool | None
    rotation_inverse_ok: bool | None
    triangular_ok: bool | None
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def structure_identities(R: RamanujanMatrix) -> StructureReport:
    """Check the column-sum identity of R = R(d), and for prime powers d the
    determinant, rotation-inverse and triangular-factorisation identities."""
    d = R.d
    k = len(R.divisors)
    failures: list[str] = []

    column_sums_ok = True
    for j, c in enumerate(R.divisors):
        s = sum(R.entries[i][j] for i in range(k))
        want = d if c == d else 0
        if s != want:
            column_sums_ok = False
            failures.append(f"column sum at divisor {c}: got {s}, want {want}")

    split = cyclotomic.prime_power_split(d)
    det = det_expected = None
    det_ok = rot_ok = tri_ok = None
    if split is not None:
        p, n = split
        det = bareiss_determinant([list(row) for row in R.entries])
        det_expected = p ** (n * (n + 1) // 2)
        det_ok = det == det_expected
        if not det_ok:
            failures.append(f"determinant: got {det}, want {det_expected}")

        # R times its half-turn rotation must be p^n * identity
        rot = [
            [R.entries[k - 1 - i][k - 1 - j] for j in range(k)] for i in range(k)
        ]
        rot_ok = True
        for i in range(k):
            for j in range(k):
                s = sum(R.entries[i][t] * rot[t][j] for t in range(k))
                want = d if i == j else 0
                if s != want:
                    rot_ok = False
                    failures.append(f"rotation inverse at ({i}, {j}): {s} != {want}")

        # all-ones lower triangular L: L @ R is upper triangular with
        # row e equal to p^e on and above the diagonal
        tri_ok = True
        for e in range(k):
            for f in range(k):
                s = sum(R.entries[t][f] for t in range(e + 1))
                want = p**e if f >= e else 0
                if s != want:
                    tri_ok = False
                    failures.append(f"triangular factor at ({e}, {f}): {s} != {want}")

    return StructureReport(
        d=d,
        column_sums_ok=column_sums_ok,
        is_prime_power=split is not None,
        determinant=det,
        determinant_expected=det_expected,
        determinant_ok=det_ok,
        rotation_inverse_ok=rot_ok,
        triangular_ok=tri_ok,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# export formats


def to_csv(R: RamanujanMatrix) -> str:
    lines = ["divisor," + ",".join(str(c) for c in R.divisors)]
    for r, row in zip(R.divisors, R.entries):
        lines.append(str(r) + "," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def to_json_dict(R: RamanujanMatrix) -> dict:
    return {
        "d": R.d,
        "divisors": list(R.divisors),
        "entries": [list(row) for row in R.entries],
    }
