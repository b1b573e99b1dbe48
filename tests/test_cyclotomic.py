import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside import cyclotomic as cy
from burnside.ramanujan import divisor_data

PRIME_POWERS_81 = [4, 8, 16, 32, 64, 9, 27, 81, 25, 49]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPoly:
    def test_d1(self):
        assert cy.cyclotomic_poly(1).coeffs == (-1, 1)

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
    def test_prime_power_shape(self, q):
        p, n = cy.prime_power_split(q)
        step = p ** (n - 1)
        expected = [0] * ((p - 1) * step + 1)
        for k in range(p):
            expected[k * step] = 1
        assert list(cy.cyclotomic_poly(q).coeffs) == expected

    def test_d12(self):
        assert cy.cyclotomic_poly(12).coeffs == (1, 0, -1, 0, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cy.cyclotomic_poly(0)

    def test_degree_is_totient(self):
        for d in range(1, 80):
            assert cy.cyclotomic_poly(d).degree == divisor_data(d).totient[d]

    def test_product_identity_up_to_200(self):
        for d in range(1, 201):
            prod = [1]
            for e in divisor_data(d).divisors:
                prod = poly_mul(prod, list(cy.cyclotomic_poly(e).coeffs))
            assert prod == [-1] + [0] * (d - 1) + [1], d


class TestFromIndicesAndCombine:
    def test_examples(self):
        assert cy.from_indices(4, [1, 3]).coeffs == (0, 1, 0, 1)
        assert cy.from_indices(4, []).coeffs == (0, 0, 0, 0)
        assert cy.from_indices(9, cy.ProgressionSet(3, 2, 1).elements).coeffs == (
            0, 1, 0, 0, 1, 0, 0, 1, 0,
        )

    def test_multiplicity(self):
        assert cy.from_indices(3, [1, 1, 2]).coeffs == (0, 2, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cy.from_indices(4, [4])

    def test_combine(self):
        x = cy.from_indices(6, [1, 2])
        assert not any(cy.combine(x, x, 1, -1).coeffs)
        one = cy.from_indices(4, [1])
        three = cy.from_indices(4, [3])
        assert cy.combine(one, three, 1, 1) == cy.from_indices(4, [1, 3])
        assert cy.combine(x, cy.CycSum.zero(6), 2, 0).coeffs == tuple(
            2 * c for c in x.coeffs
        )

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            cy.combine(cy.CycSum.zero(4), cy.CycSum.zero(6), 1, 1)


class TestIsZero:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_full_prime_sum(self, p):
        assert cy.is_zero(cy.from_indices(p, range(p)))

    def test_progression_sums_vanish(self):
        # sum over {r, r+p^{n-1}, ...} is zero for every 0 < r < p^{n-1}
        for q in PRIME_POWERS_81:
            p, n = cy.prime_power_split(q)
            for r in range(1, p ** (n - 1)):
                s = cy.from_indices(q, cy.ProgressionSet(p, n, r).elements)
                assert cy.is_zero(s), (q, r)

    def test_nonzero(self):
        assert not cy.is_zero(cy.from_indices(4, [1, 2]))
        assert cy.reduced_coeffs(cy.from_indices(4, [1, 2])) == (-1, 1)

    def test_primitive_class_sums_are_mobius(self):
        # the primitive r-th roots of unity sum to mu(r)
        for d in range(1, 201):
            data = divisor_data(d)
            for r in data.divisors:
                s = cy.from_indices(d, cy.PrimitiveClass(d, r).elements)
                mu = cy.from_indices(d, [0] * abs(data.mobius[r]))
                sign = 1 if data.mobius[r] >= 0 else -1
                assert cy.is_zero(cy.combine(s, mu, 1, -sign)), (d, r)

    @given(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=11, max_size=11),
        st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=120, deadline=None)
    def test_shift_by_full_sum_is_invisible_for_prime_order(self, p, coeffs, k):
        # adding any multiple of 1 + z + ... + z^{p-1} never changes the value
        x = cy.CycSum(p, tuple(coeffs[:p]))
        shifted = cy.combine(x, cy.from_indices(p, range(p)), 1, k)
        assert cy.is_zero(x) == cy.is_zero(shifted)


class TestReduction:
    @pytest.mark.parametrize("d", [100, 385, 935, 1024, 1155])
    def test_remainder_by_construction(self, d):
        # r0 + q*Phi_d has remainder r0 by construction, with no reference
        # reduction to agree with; one coefficient of q is past int64
        den = list(cy.cyclotomic_poly(d).coeffs)
        phi = len(den) - 1
        rng = random.Random(d)
        for _ in range(3):
            r0 = [rng.randint(-9, 9) for _ in range(phi)]
            q = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(d - phi)]
            q[rng.randrange(d - phi)] = rng.choice((-1, 1)) * 10**20
            coeffs = poly_mul(q, den)
            for i, c in enumerate(r0):
                coeffs[i] += c
            assert cy.reduced_coeffs(cy.CycSum(d, tuple(coeffs))) == tuple(r0), d

    @pytest.mark.parametrize("bound, dtype", [(32767, np.int16), (32768, np.int64)])
    def test_int_dtype_boundary(self, bound, dtype):
        assert cy.int_dtype(bound) is dtype


class TestPrimes:
    def test_agrees_with_sieve_below_1e5(self):
        n = 10**5
        sieve = np.ones(n, dtype=bool)
        sieve[:2] = False
        for q in range(2, int(n**0.5) + 1):
            if sieve[q]:
                sieve[q * q :: q] = False
        assert [m for m in range(n) if cy.is_prime(m)] == np.flatnonzero(sieve).tolist()

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_rejects_strong_pseudoprimes(self, n):
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2, ..., 23
        assert not cy.is_prime(n)

    @pytest.mark.parametrize("n", [2**31 - 1, 2**61 - 1, 2**64 - 59])
    def test_accepts_64_bit_primes(self, n):
        assert cy.is_prime(n)

    def test_refuses_past_64_bits(self):
        with pytest.raises(ValueError, match="64-bit"):
            cy.is_prime(2**64)

    def test_primitive_root_has_order_p_minus_1(self):
        for p in [m for m in range(2, 2000) if cy.is_prime(m)]:
            g = cy.primitive_root(p)
            x, order = g % p, 1
            while x != 1:
                x, order = x * g % p, order + 1
            assert order == p - 1, p

    def test_primitive_root_of_a_large_prime(self):
        p = 2**31 - 1  # p - 1 = 2 * 3^2 * 7 * 11 * 31 * 151 * 331
        g = cy.primitive_root(p)
        assert g == 7
        assert all(pow(g, (p - 1) // q, p) != 1 for q in (2, 3, 7, 11, 31, 151, 331))

    def test_primitive_root_needs_a_prime(self):
        with pytest.raises(ValueError, match="not prime"):
            cy.primitive_root(12289 * 3)


class TestPowerMap:
    def test_identity(self):
        x = cy.from_indices(10, [1, 3, 7])
        assert cy.power_map(x, 1) == x

    def test_collapse(self):
        got = cy.power_map(cy.from_indices(9, [1, 4, 7]), 3)
        assert got.coeffs == (0, 0, 0, 3, 0, 0, 0, 0, 0)

    def test_progression_scaling_identity(self):
        # sending i -> i * p^m * c maps a progression set to p copies of one point
        for q in PRIME_POWERS_81:
            p, n = cy.prime_power_split(q)
            for r in range(1, p ** (n - 1)):
                base = cy.from_indices(q, cy.ProgressionSet(p, n, r).elements)
                for m in range(1, n):
                    for c in range(1, q):
                        if c % p == 0:
                            continue
                        j = (p**m * c) % q
                        expected = [0] * q
                        expected[(r * j) % q] = p
                        assert cy.power_map(base, j).coeffs == tuple(expected), (q, r, m, c)

    def test_value_equality_of_scaled_progressions(self):
        base = cy.from_indices(27, cy.ProgressionSet(3, 3, 2).elements)
        target = cy.CycSum(27, tuple(3 if i == (2 * 3) % 27 else 0 for i in range(27)))
        assert cy.value_equal(cy.power_map(base, 3), target)


class TestGaloisFixed:
    def test_rational_support(self):
        x = cy.from_indices(4, [0, 0])
        for s in (1, 3):
            assert cy.galois_fixed(x, s)

    def test_single_root_not_fixed(self):
        assert not cy.galois_fixed(cy.from_indices(4, [1]), 3)

    def test_symmetric_pair_fixed(self):
        assert cy.galois_fixed(cy.from_indices(4, [1, 3]), 3)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            cy.galois_fixed(cy.from_indices(4, [1]), 2)


class TestProgressionConstancy:
    def test_constant_blocks(self):
        x = cy.from_indices(9, [1, 4, 7, 2, 5, 8, 2, 5, 8])
        assert cy.progression_constancy_check(x)

    def test_vacuous_on_unfixed(self):
        assert cy.progression_constancy_check(cy.from_indices(9, [1]))

    def test_projected_random_inputs(self):
        rng = random.Random(2024)
        for q in [4, 8, 9, 16, 25, 27]:
            p, _ = cy.prime_power_split(q)
            for _ in range(200):
                raw = cy.CycSum(q, tuple(rng.randrange(-9, 10) for _ in range(q)))
                assert cy.progression_constancy_check(raw)
                acc = [0] * q
                for s in range(1, q, p):
                    if math.gcd(s, q) != 1:
                        continue
                    for i, a in enumerate(cy.power_map(raw, s).coeffs):
                        acc[i] += a
                assert cy.progression_constancy_check(cy.CycSum(q, tuple(acc)))

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            cy.progression_constancy_check(cy.CycSum.zero(12))


@given(
    st.integers(min_value=2, max_value=30),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_value_equality_is_congruence(d, data):
    # if a = b then a + c = b + c: equality survives the ring operations
    coeffs = st.lists(
        st.integers(min_value=-5, max_value=5), min_size=d, max_size=d
    )
    a = cy.CycSum(d, tuple(data.draw(coeffs)))
    c = cy.CycSum(d, tuple(data.draw(coeffs)))
    phi_shift = cy.combine(a, cy.from_indices(d, range(d)), 1, 1) if d > 1 else a
    if cy.prime_power_split(d) == (d, 1):
        # for prime order the all-ones vector is the minimal polynomial itself
        assert cy.value_equal(a, phi_shift)
    assert cy.value_equal(cy.combine(a, c, 1, 1), cy.combine(a, c, 1, 1))
    assert cy.value_equal(a, a)
    neg = cy.combine(cy.CycSum.zero(d), a, 1, -1)
    assert cy.is_zero(cy.combine(a, neg, 1, 1))
