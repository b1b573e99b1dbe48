"""Exact arithmetic on formal integer sums of d-th roots of unity.

A value is a length-d integer vector (a_0, ..., a_{d-1}) standing for
sum_i a_i z^i, where z is a primitive d-th root of unity.  Vectors live in
the group ring Z[Z/dZ] and are *not* reduced on construction: the index map
i -> i*j stays well defined even when gcd(j, d) > 1, which matters because
all the index-set manipulations in this package act on formal sums.
Two formal sums are value-equal exactly when their difference is
divisible by the d-th cyclotomic polynomial Phi_d, which is monic, so the
divisibility test is plain integer arithmetic with no tolerances.

Canonical form of a value is the remainder mod Phi_d, a vector of length
phi(d), computed by one mechanism: exact long division by the monic Phi_d
(`_poly_divmod_monic`), in Python integers, so no coefficient size can
wrap.  `method` reduces nothing: it evaluates its suborbit sums at a root
of unity mod a prime (`is_prime`, `primitive_root`) chosen by a norm
bound.  For d = p^n, Phi_{p^n}(X) = Phi_p(X^{p^{n-1}}), so the coefficient
polynomial is divisible by Phi_{p^n} iff the coefficients are constant on
each arithmetic progression {r, r + p^{n-1}, ..., r + (p-1)p^{n-1}};
`nullsets` decides its sweep by that test and never divides.

All values are immutable after construction and safe to share between
threads; the Phi_d cache is a memoised pure function (idempotent fill).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

INT16_MAX = int(np.iinfo(np.int16).max)


def _proper_divisors(d: int) -> list[int]:
    return [e for e in range(1, d) if d % e == 0]


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation by trial division, smallest prime first."""
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < 2^64.

    The first twelve primes as bases leave no strong pseudoprime below
    3.18 x 10^23 (Sorenson and Webster, Math. Comp. 86, 2017), so every
    64-bit answer is exact.
    """
    if not 0 <= n < 2**64:
        raise ValueError(f"{n} is outside the 64-bit range of the primality test")
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _WITNESSES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primitive_root(p: int) -> int:
    """The least generator g of (Z/pZ)^* for a prime p: g^((p-1)/q) != 1
    for every prime q dividing p - 1 (factored by `_factorize`)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    qs = [q for q, _ in _factorize(p - 1)]
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def prime_power_split(d: int) -> tuple[int, int] | None:
    """Return (p, n) if d = p^n with p prime and n >= 1, else None."""
    if d < 2:
        return None
    factors = _factorize(d)
    if len(factors) != 1:
        return None
    return factors[0]


# ---------------------------------------------------------------------------
# polynomials over Z (dense ascending coefficient lists)


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division by a monic integer polynomial.

    Returns (quotient, remainder) with deg(remainder) < deg(den).  All
    arithmetic is over Z; monicity of `den` guarantees integrality.
    """
    if den[-1] != 1:
        raise RuntimeError("divisor must be monic")
    rem = list(num)
    dd = len(den) - 1
    if dd == 0:
        return rem, []
    if len(rem) <= dd:
        return [], rem
    terms = [(j, a) for j, a in enumerate(den[:dd]) if a]  # Phi_d is often sparse
    quot = [0] * (len(rem) - dd)
    for k in range(len(rem) - dd - 1, -1, -1):
        c = rem[k + dd]
        if c:
            quot[k] = c
            for j, a in terms:
                rem[k + j] -= c * a
    return quot, rem[:dd]


@dataclass(frozen=True)
class CycPoly:
    """A cyclotomic polynomial Phi_d, monic with integer coefficients."""

    d: int
    coeffs: tuple[int, ...]  # ascending; coeffs[-1] == 1

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> CycPoly:
    """Phi_d, computed by iterated exact division of X^d - 1.

    X^d - 1 = prod_{e | d} Phi_e, so dividing out Phi_e for every proper
    divisor e leaves Phi_d.  Pure integer arithmetic throughout.
    """
    if d < 1:
        raise ValueError(f"order must be positive, got {d}")
    if d == 1:
        return CycPoly(1, (-1, 1))
    num = [-1] + [0] * (d - 1) + [1]  # X^d - 1
    for e in _proper_divisors(d):
        num, rem = _poly_divmod_monic(num, list(cyclotomic_poly(e).coeffs))
        if any(rem):
            raise RuntimeError(f"non-exact division while building Phi_{d}")
    return CycPoly(d, tuple(num))


def int_dtype(bound: int) -> type:
    """The integer width for arrays whose every value is known to lie in
    [-bound, bound]: int16 when the bound fits it, int64 otherwise."""
    return np.int16 if bound <= INT16_MAX else np.int64


# ---------------------------------------------------------------------------
# formal sums


@dataclass(frozen=True)
class CycSum:
    """Formal integer combination of the d-th roots of unity.

    ``coeffs[i]`` is the coefficient of z^i; the vector always has length
    ``order``.  Value-equality (`is_zero` of the difference) is decided by
    divisibility by Phi_d and is coarser than tuple equality.
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        if len(self.coeffs) != self.order:
            raise ValueError(
                f"coefficient vector has length {len(self.coeffs)}, expected {self.order}"
            )

    @classmethod
    def zero(cls, d: int) -> "CycSum":
        return cls(d, (0,) * d)


def from_indices(d: int, indices) -> CycSum:
    """Sum of z^i over a multiset of residues: coefficients count multiplicity."""
    coeffs = [0] * d
    for i in indices:
        if not 0 <= i < d:
            raise ValueError(f"index {i} out of range for order {d}")
        coeffs[i] += 1
    return CycSum(d, tuple(coeffs))


def combine(a: CycSum, b: CycSum, sa: int, sb: int) -> CycSum:
    """Coefficientwise sa*a + sb*b.  No reduction is performed."""
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    return CycSum(a.order, tuple(sa * x + sb * y for x, y in zip(a.coeffs, b.coeffs)))


def reduced_coeffs(x: CycSum) -> tuple[int, ...]:
    """Canonical form: remainder mod Phi_d, a vector of length phi(d).

    The long division runs in Python integers, so it is exact for
    coefficients of any size.
    """
    _, rem = _poly_divmod_monic(list(x.coeffs), list(cyclotomic_poly(x.order).coeffs))
    return tuple(rem)


def is_zero(x: CycSum) -> bool:
    """True iff the value of x is zero, i.e. Phi_d divides the coefficient polynomial."""
    if not any(x.coeffs):
        return True
    return not any(reduced_coeffs(x))


def value_equal(a: CycSum, b: CycSum) -> bool:
    return is_zero(combine(a, b, 1, -1))


def as_integer(x: CycSum) -> int | None:
    """The rational-integer value of x, or None if x is irrational."""
    r = reduced_coeffs(x)
    if any(r[1:]):
        return None
    return r[0]


def power_map(x: CycSum, j: int) -> CycSum:
    """Send sum a_i z^i to sum a_i z^{ij} by index remapping.

    Defined on the unreduced vector, so j need not be coprime to the order;
    classes of indices may collapse, accumulating coefficients.
    """
    d = x.order
    j %= d
    coeffs = [0] * d
    for i, a in enumerate(x.coeffs):
        if a:
            coeffs[(i * j) % d] += a
    return CycSum(d, tuple(coeffs))


def galois_fixed(x: CycSum, s: int) -> bool:
    """True iff the automorphism z -> z^s fixes the value of x.

    Requires gcd(s, order) = 1 so that the map is a ring automorphism.
    """
    if math.gcd(s, x.order) != 1:
        raise ValueError(f"{s} is not coprime to {x.order}")
    return is_zero(combine(power_map(x, s), x, 1, -1))


# ---------------------------------------------------------------------------
# structured index sets


@dataclass(frozen=True)
class ProgressionSet:
    """The p elements {r, r + p^{n-1}, ..., r + (p-1)p^{n-1}} inside Z/p^nZ.

    For 0 < r < p^{n-1} the sum of z^i over such a set vanishes, because the
    exponents differ by multiples of p^{n-1} and Phi_{p^n}(X) =
    1 + X^{p^{n-1}} + ... + X^{(p-1)p^{n-1}}.
    """

    p: int
    n: int
    r: int
    elements: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.p < 2 or not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.n < 2:
            raise ValueError("progression sets need exponent n >= 2")
        step = self.p ** (self.n - 1)
        if not 1 <= self.r < step:
            raise ValueError(f"residue {self.r} outside [1, {step})")
        object.__setattr__(
            self, "elements", tuple(self.r + k * step for k in range(self.p))
        )


@dataclass(frozen=True)
class PrimitiveClass:
    """Indices i in Z/dZ with z_d^i a primitive r-th root of unity, r | d.

    For r = 1 this is {0}; otherwise {m*d/r : 0 < m < r, gcd(m, r) = 1},
    a set of size phi(r).  These index sets are exactly the orbits of the
    Galois group on the powers of z_d.
    """

    d: int
    r: int
    elements: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.d % self.r != 0 or self.r < 1:
            raise ValueError(f"{self.r} does not divide {self.d}")
        if self.r == 1:
            elems: tuple[int, ...] = (0,)
        else:
            step = self.d // self.r
            elems = tuple(
                m * step for m in range(1, self.r) if math.gcd(m, self.r) == 1
            )
        object.__setattr__(self, "elements", elems)


def progression_constancy_check(x: CycSum) -> bool:
    """Constancy law for prime-power orders: membership in the fixed subfield
    forces constant coefficients along each progression set.

    Let the order be p^n and w = z^{p^{n-1}}.  If the value of x is fixed by
    every automorphism z -> z^s with s = 1 mod p (equivalently, lies in
    Q(w)), then the *given* coefficients a_i must be constant on each
    progression {r, r + p^{n-1}, ...} for 0 < r < p^{n-1}.  Returns True iff
    the implication holds for x, so it must return True on every input; a
    False would witness a bug in the reduction machinery.
    """
    split = prime_power_split(x.order)
    if split is None:
        raise ValueError(f"order {x.order} is not a prime power")
    p, n = split
    d = x.order

    hypothesis = True
    for s in range(1 + p, d, p):
        mapped = power_map(x, s)
        if mapped.coeffs == x.coeffs:
            continue  # fixed as a formal vector, no reduction needed
        if not is_zero(combine(mapped, x, 1, -1)):
            hypothesis = False
            break
    if not hypothesis:
        return True

    step = p ** (n - 1)
    for r in range(1, step):
        first = x.coeffs[r]
        if any(x.coeffs[r + k * step] != first for k in range(1, p)):
            return False
    return True
