import json
import math

import pytest

from burnside import ramanujan as ra
from burnside.cyclotomic import prime_power_split


class TestDivisorData:
    def test_n12(self):
        data = ra.divisor_data(12)
        assert data.divisors == (1, 2, 3, 4, 6, 12)
        assert data.totient[12] == 4
        assert data.mobius[6] == 1

    def test_n1(self):
        data = ra.divisor_data(1)
        assert data.divisors == (1,) and data.mobius[1] == 1 and data.totient[1] == 1

    def test_n600(self):
        assert len(ra.divisor_data(600).divisors) == 24

    def test_totient_sum(self):
        for n in range(1, 200):
            data = ra.divisor_data(n)
            assert sum(data.totient[d] for d in data.divisors) == n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ra.divisor_data(0)

    def test_matches_per_divisor_definitions_below_2000(self):
        # divisors by trial, phi(m) by counting units mod m, and mu by
        # its defining recursion sum_{e | m} mu(e) = [m == 1]
        N = 2000
        phi = [0] + [sum(math.gcd(j, m) == 1 for j in range(1, m + 1)) for m in range(1, N)]
        mu = [0, 1] + [0] * (N - 2)
        for m in range(1, N):
            for multiple in range(2 * m, N, m):
                mu[multiple] -= mu[m]
        for n in range(1, N):
            divisors = tuple(m for m in range(1, n + 1) if n % m == 0)
            data = ra.divisor_data(n)
            assert data.divisors == divisors, n
            assert data.mobius == {m: mu[m] for m in divisors}, n
            assert data.totient == {m: phi[m] for m in divisors}, n


class TestMatrixConstruction:
    def test_d4(self):
        R = ra.matrix_formula(4)
        assert R.divisors == (1, 2, 4)
        assert R.entries == ((1, 1, 1), (-1, 1, 1), (0, -2, 2))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_prime(self, p):
        assert ra.matrix_formula(p).entries == ((1, 1), (-1, p - 1))

    def test_d1(self):
        assert ra.matrix_formula(1).entries == ((1,),)

    def test_direct_small(self):
        assert ra.matrix_direct(4).entries == ra.matrix_formula(4).entries
        assert ra.matrix_direct(2).entries == ((1, 1), (-1, 1))

    def test_last_column_is_totient(self):
        R = ra.matrix_direct(36)
        data = ra.divisor_data(36)
        for r in R.divisors:
            assert R.entry(r, 36) == data.totient[r]

    def test_oracle_equivalence_to_60(self):
        # the d <= 200 sweep runs in the acceptance suite
        for d in range(1, 61):
            assert ra.matrix_formula(d).entries == ra.matrix_direct(d).entries, d

    def test_row_one_constant_to_600(self):
        for d in range(1, 601):
            assert all(v == 1 for v in ra.matrix_formula(d).entries[0]), d

    def test_entries_bounded_by_totient(self):
        for d in [60, 96, 180]:
            R = ra.matrix_formula(d)
            data = ra.divisor_data(d)
            for r in R.divisors:
                for c in R.divisors:
                    assert abs(R.entry(r, c)) <= data.totient[r]


class TestPrimePowerEntry:
    def test_examples(self):
        assert ra.prime_power_entry(2, 2, 2, 0) == 0
        assert ra.prime_power_entry(2, 2, 2, 1) == -2
        assert ra.prime_power_entry(2, 2, 2, 2) == 2

    def test_row_zero_constant(self):
        for f in range(4):
            assert ra.prime_power_entry(3, 3, 0, f) == 1

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
    def test_matches_formula(self, q):
        p, n = prime_power_split(q)
        R = ra.matrix_formula(q)
        for e in range(n + 1):
            for f in range(n + 1):
                assert R.entry(p**e, p**f) == ra.prime_power_entry(p, n, e, f)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            ra.prime_power_entry(2, 2, 3, 0)


class TestTensor:
    def test_d6(self):
        assert ra.tensor_check(6)

    def test_single_prime_trivial(self):
        assert ra.tensor_check(4)

    def test_d54_block_structure(self):
        # ordering divisors as 1,3,9,27,2,6,18,54 puts R(27) in the top-left block
        assert ra.tensor_check(54)
        R54 = ra.matrix_formula(54)
        R27 = ra.matrix_formula(27)
        R2 = ra.matrix_formula(2)
        order = [1, 3, 9, 27, 2, 6, 18, 54]
        for i, r in enumerate(order):
            for j, c in enumerate(order):
                odd_r, odd_c = r if r % 2 else r // 2, c if c % 2 else c // 2
                two_r, two_c = 1 if r % 2 else 2, 1 if c % 2 else 2
                assert R54.entry(r, c) == R27.entry(odd_r, odd_c) * R2.entry(two_r, two_c)
        for i in range(4):
            for j in range(4):
                assert R54.entry(order[i], order[j]) == R27.entries[i][j]

    def test_range_to_60(self):
        for d in range(2, 61):
            assert ra.tensor_check(d), d


class TestStructureIdentities:
    def test_d4_determinant(self):
        rep = ra.structure_identities(ra.matrix_formula(4))
        assert rep.determinant == 8 and rep.ok

    def test_d9_determinant(self):
        assert ra.structure_identities(ra.matrix_formula(9)).determinant == 27

    def test_d6_column_sums(self):
        R = ra.matrix_formula(6)
        sums = [sum(R.entries[i][j] for i in range(4)) for j in range(4)]
        assert sums == [0, 0, 0, 6]
        assert ra.structure_identities(R).column_sums_ok

    def test_column_sums_to_600(self):
        for d in range(1, 601):
            R = ra.matrix_formula(d)
            k = len(R.divisors)
            for j, c in enumerate(R.divisors):
                s = sum(R.entries[i][j] for i in range(k))
                assert s == (d if c == d else 0), (d, c)

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64])
    def test_prime_power_reports_clean(self, q):
        rep = ra.structure_identities(ra.matrix_formula(q))
        assert rep.ok and rep.determinant_ok and rep.rotation_inverse_ok and rep.triangular_ok

    def test_bareiss_matches_known_values(self):
        assert ra.bareiss_determinant([[2, 0], [0, 3]]) == 6
        assert ra.bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert ra.bareiss_determinant([[1, 2], [2, 4]]) == 0
        assert ra.bareiss_determinant([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3


class TestExport:
    def test_csv(self):
        assert ra.to_csv(ra.matrix_formula(4)) == (
            "divisor,1,2,4\n1,1,1,1\n2,-1,1,1\n4,0,-2,2\n"
        )

    def test_json_round_trip(self):
        R = ra.matrix_formula(12)
        obj = json.loads(json.dumps(ra.to_json_dict(R)))
        assert obj["divisors"] == [1, 2, 3, 4, 6, 12]
        assert obj["entries"][0] == [1] * 6
        assert obj["d"] == 12

    def test_entry_lookup_error(self):
        with pytest.raises(ValueError):
            ra.matrix_formula(4).entry(3, 1)
