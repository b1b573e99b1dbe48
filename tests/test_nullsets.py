import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import join_oracle as jo
from burnside import coprime as cp
from burnside import cyclotomic as cy
from burnside import nullsets as ns

SMALL_MODULI = [(2, 2), (2, 3), (3, 2), (2, 4)]
JOIN_MODULI = SMALL_MODULI + [(5, 2), (3, 3), (2, 5)]  # every p^n <= 32
ALL_MODULI = JOIN_MODULI + [(7, 2)]  # every admitted p^n, up to MAX_MODULUS = 49


def members(p, n, *items):
    return ns.IndexSet.from_members(p, n, items)


@functools.lru_cache(maxsize=None)
def exact_solutions(p, n):
    """Masks of the solutions to p^n by the subset-by-subset exact test."""
    return [m for m in range(0, 1 << p**n, 2) if ns.is_solution(ns.IndexSet(p, n, m))]


class TestIsSolution:
    def test_empty(self):
        assert ns.is_solution(members(2, 2))

    def test_full_22(self):
        assert ns.is_solution(members(2, 2, 1, 2, 3))

    def test_non_solutions_22(self):
        assert not ns.is_solution(members(2, 2, 1, 3))
        assert not ns.is_solution(members(2, 2, 2))

    def test_single_progression_not_solution(self):
        assert not ns.is_solution(members(3, 2, 1, 4, 7))

    def test_agrees_with_classification_exhaustively(self):
        # Direct subset-by-subset double-check up to 2^15.  For the larger
        # moduli (25, 27 and 32) the same equivalence is established by the
        # verification report: the sweep enumerates every subset, (a) says
        # solutions classify positively, and (b) says every positively
        # classifiable set is among the enumerated solutions.
        for p, n in [(2, 2), (2, 3), (3, 2), (2, 4)]:
            N = p**n
            for mask in range(0, 1 << (N - 1), 2):
                O = ns.IndexSet(p, n, mask)
                assert ns.is_solution(O) == (
                    ns.classify(O).kind != ns.NOT_SOLUTION
                ), (p, n, mask)


class TestProgressionTable:
    @pytest.mark.parametrize("p, n", ALL_MODULI)
    def test_entries_match_progression_sets(self, p, n):
        # classify and the certificate builders read the same table, so a
        # wrong entry would move both together; check it against R(r)
        step = p ** (n - 1)
        table = ns._progressions(p, n)
        assert len(table) == step
        bits = [[i for i in range(p**n) if mask >> i & 1] for mask in table]
        assert bits[0] == list(range(step, p**n, step))  # the top layer
        for r in range(1, step):
            assert tuple(bits[r]) == cy.ProgressionSet(p, n, r).elements, (p, n, r)

    def test_classification_never_enumerates(self, monkeypatch):
        # the structural side stays independent of the sweep it checks
        def refuse(*args):
            raise AssertionError("classification touched the enumeration")

        for name in ("_branch_and_bound", "_flip_rows"):
            monkeypatch.setattr(ns, name, refuse)
        monkeypatch.setattr(ns.cyclotomic, "reduced_coeffs", refuse)
        kinds = {ns.classify(ns.IndexSet(2, 3, m)).kind for m in range(0, 256, 2)}
        assert kinds == {ns.NULL, ns.LAYERED, ns.NOT_SOLUTION}
        certs, layered = ns.enumerate_certificates(3, 3)
        assert ns.IndexSet(3, 3, certs[-1].mask).mask and ns.layered_set(3, 3, *layered[-1]).mask


@given(st.sampled_from(ALL_MODULI), st.data())
@settings(max_examples=150, deadline=None)
def test_progression_test_agrees_with_long_division(modulus, data):
    # the sweep's zero test D against the oracle's division by Phi_N, on
    # sums constant along the progressions (multiples of Phi_N) with up to
    # three coefficients perturbed; one progression carries 10^20
    p, n = modulus
    N, step = p**n, p ** (n - 1)
    c = data.draw(st.lists(st.integers(-3, 3), min_size=step, max_size=step))
    c[data.draw(st.integers(0, step - 1))] = 10**20
    a = c * p  # a[r + k*step] = c[r]
    for i in data.draw(st.lists(st.integers(0, N - 1), max_size=3)):
        a[i] += data.draw(st.integers(-3, 3))
    D = ns._progression_differences(p, n, np.array([a], dtype=object))
    assert (not any(D[0])) == cy.is_zero(cy.CycSum(N, tuple(a)))


class TestIsNull:
    def test_empty_certificate(self):
        cert = ns.is_null(members(2, 2))
        assert cert is not None and cert.s == 0

    def test_balanced_triple(self):
        Z = members(3, 3, *(r + k * 9 for r in (1, 2, 3) for k in range(3)))
        cert = ns.is_null(Z)
        assert cert is not None and cert.s == 1
        assert cert.grid == ((3,), (1,), (2,))

    def test_no_residue_zero_at_n2(self):
        # {1..p-1} has no residue-0 progression, so nothing nonempty is balanced
        for p in (2, 3, 5):
            N = p * p
            for mask in range(2, 1 << (N - 1), 2):
                assert ns.is_null(ns.IndexSet(p, 2, mask)) is None, (p, mask)
            if p == 3:
                break  # 5^2 is 16M masks; the smaller cases cover the point

    def test_partial_progression_rejected(self):
        assert ns.is_null(members(2, 3, 1)) is None

    def test_certificate_round_trip(self):
        for p, n in [(2, 3), (2, 4), (3, 3)]:
            certs, _ = ns.enumerate_certificates(p, n)
            for cert in certs:
                Z = ns.IndexSet(p, n, cert.mask)
                back = ns.is_null(Z)
                assert back is not None and back.s == cert.s


class TestClassify:
    def test_full_set_layered(self):
        for p, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            full = ns.IndexSet(p, n, (1 << p**n) - 2)
            got = ns.classify(full)
            assert got.kind == ns.LAYERED, (p, n)

    def test_22_layered_with_empty_remainder(self):
        got = ns.classify(members(2, 2, 1, 2, 3))
        assert got.kind == ns.LAYERED
        assert got.residue_reps == (1,)
        assert got.remainder.s == 0

    def test_not_solution(self):
        assert ns.classify(members(2, 2, 2)).kind == ns.NOT_SOLUTION

    def test_layered_reconstruction(self):
        for p, n in [(2, 3), (3, 2), (2, 4)]:
            _, layered = ns.enumerate_certificates(p, n)
            for reps, cert in layered:
                O = ns.layered_set(p, n, reps, cert)
                assert ns.is_solution(O), (p, n, reps)
                assert ns.classify(O).kind == ns.LAYERED

    @pytest.mark.parametrize("p, n", [(2, 3), (2, 4), (3, 3), (2, 5)])
    def test_solution_rebuilt_from_its_classification(self, p, n):
        # set -> certificate -> the same set checks residue_reps and the
        # grids of every solution, not only of hand-picked ones
        for O in ns.enumerate_solutions(p, n):
            got = ns.classify(O)
            if got.kind == ns.NULL:
                back = ns.IndexSet(p, n, got.remainder.mask)
            else:
                assert got.kind == ns.LAYERED, O.members
                back = ns.layered_set(p, n, got.residue_reps, got.remainder)
            assert back.mask == O.mask, (p, n, O.members)


class TestEnumerate:
    def test_22_exact(self):
        sols = ns.enumerate_solutions(2, 2)
        assert [s.mask for s in sols] == [0, 0b1110]

    def test_32_smallest_nonempty(self):
        sols = ns.enumerate_solutions(3, 2)
        sizes = sorted(s.size for s in sols if s.mask)
        assert sizes[0] == 8  # p^2 - 1

    def test_23_contains_small_null_set(self):
        sols = ns.enumerate_solutions(2, 3)
        null_sizes = [
            s.size for s in sols if s.mask and ns.classify(s).kind == ns.NULL
        ]
        assert null_sizes and min(null_sizes) < 7
        assert all(ns.classify(s).kind != ns.NOT_SOLUTION for s in sols)

    def test_matches_is_solution_on_every_subset(self):
        # the search against the subset-by-subset exact test
        for p, n in SMALL_MODULI:
            assert [s.mask for s in ns.enumerate_solutions(p, n)] == exact_solutions(p, n)

    def test_unpruned_leaves_take_the_exact_test(self, monkeypatch):
        # with the interval bound keeping every node, every subset reaches a
        # leaf, so only the leaves' exact test stands between the search
        # and a wrong set
        monkeypatch.setattr(cp, "_in_interval", lambda rest, low, high: np.ones(rest.shape, bool))
        for p, n in SMALL_MODULI:
            assert [s.mask for s in ns.enumerate_solutions(p, n)] == exact_solutions(p, n)

    @pytest.mark.parametrize("p, n", JOIN_MODULI)
    def test_search_matches_join_oracle(self, p, n):
        # two exact methods past brute force: the branch and bound and the
        # Horowitz-Sahni join of the half sums
        assert [s.mask for s in ns.enumerate_solutions(p, n)] == jo.join_solutions(p, n).tolist()

    def test_join_keys_equal_on_equal_differences(self):
        # entries up to +-2^40 wrap the keys modulo 2^64, but a row met on
        # both sides must still be joined, and only within its batch: both
        # batches hold the same 49 rows, in reverse order on the high side
        edge = np.array([-(1 << 40), -1024, -1, 0, 1, 1024, 1 << 40])
        pairs = np.array(np.meshgrid(edge, edge)).reshape(2, -1).T  # (rows, m)
        low = np.stack([pairs, pairs[:, ::-1]])  # (batch, rows, m)
        high = low[:, ::-1].copy()
        n = len(pairs)
        lo, hi = jo.join(low, high)
        assert sorted(zip(lo.tolist(), hi.tolist())) == [
            (b * n + i, b * n + n - 1 - i) for b in range(2) for i in range(n)
        ]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_join_returns_every_equal_pair_once(self, data):
        # entries from 3-5 values, so a run of equal keys holds several lows
        # and several highs; the sides differ in rows, and either may have none
        batches, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        values = data.draw(st.lists(st.integers(-(1 << 40), 1 << 40), min_size=3, max_size=5,
                                    unique=True))
        n_low = data.draw(st.integers(0, 8))
        n_high = data.draw(st.integers(0, 8).filter(lambda n: n != n_low))
        low, high = (data.draw(arrays(np.int64, (batches, n, m), elements=st.sampled_from(values)))
                     for n in (n_low, n_high))
        lo, hi = jo.join(low, high)
        assert lo.dtype == hi.dtype == np.int64
        pairs = list(zip(lo.tolist(), hi.tolist()))
        assert len(set(pairs)) == len(pairs)
        equal = {
            (b * n_low + i, b * n_high + j)
            for b in range(batches) for i in range(n_low) for j in range(n_high)
            if (low[b, i] == high[b, j]).all()
        }
        assert equal <= set(pairs)
        assert all(0 <= i < batches * n_low and 0 <= j < batches * n_high for i, j in pairs)

    @pytest.mark.parametrize("p, n", ALL_MODULI)
    def test_flip_rows_width_from_column_abs_sum(self, monkeypatch, p, n):
        # the int16 rows need the int_dtype rule on the largest column
        # abs-sum, which bounds every subset sum; a hard-coded width fails
        rows = ns._flip_rows(p, n)
        assert rows.shape == (p**n - 1, p**n - p ** (n - 1)) and rows.dtype == np.int16
        assert np.abs(rows).max() <= 2
        bounds = []

        def spy(bound):
            bounds.append(bound)
            return np.int64

        monkeypatch.setattr(ns.cyclotomic, "int_dtype", spy)
        assert ns._flip_rows(p, n).dtype == np.int64
        assert bounds == [int(np.abs(rows).sum(axis=0).max())]

    def test_sweep_is_independent_of_its_oracle(self, monkeypatch):
        # the sweep tests progressions and divides by no Phi_N, so a fault
        # in the long division behind is_solution cannot move both sides
        def refuse(*args):
            raise AssertionError("the sweep reduced a sum")

        monkeypatch.setattr(cy, "reduced_coeffs", refuse)
        monkeypatch.setattr(cy, "cyclotomic_poly", refuse)
        for p, n in ALL_MODULI:
            null_certs, layered = ns.enumerate_certificates(p, n)
            built = {c.mask for c in null_certs}
            built.update(ns.layered_set(p, n, *config).mask for config in layered)
            assert [s.mask for s in ns.enumerate_solutions(p, n)] == sorted(built), (p, n)

    def test_bound_enforced(self, monkeypatch):
        # 2^6 is the first modulus past 7^2 = 49: refused before the search
        calls = []
        monkeypatch.setattr(ns, "_branch_and_bound", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="exceeds the enumeration bound 49"):
            ns.enumerate_solutions(2, 6)
        assert not calls

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            ns.enumerate_solutions(4, 2)
        with pytest.raises(ValueError):
            ns.enumerate_solutions(2, 1)

    def test_refusal_is_not_cached(self):
        # the modulus check is memoised, but a refusal raises every time
        for _ in range(2):
            with pytest.raises(ValueError, match="4 is not prime"):
                ns.IndexSet(4, 2, 0)

    def test_large_prime_modulus_builds_at_once(self, monkeypatch):
        # 2^61 - 1 is prime: trial division to its square root takes minutes
        def refuse(n):
            raise AssertionError(f"factorised {n}")

        monkeypatch.setattr(cy, "_factorize", refuse)
        O = ns.IndexSet(2**61 - 1, 2, 0b110)
        assert O.size == 2
        with pytest.raises(ValueError, match="is not prime"):
            ns.IndexSet(2**61 + 1, 2, 0)


class TestInvariants:
    def test_null_sets_have_both_sums_zero(self):
        for p, n in [(2, 3), (2, 4), (3, 3)]:
            certs, _ = ns.enumerate_certificates(p, n)
            for cert in certs:
                zside, wside = ns.paired_sums(ns.IndexSet(p, n, cert.mask))
                assert cy.is_zero(zside) and cy.is_zero(wside), (p, n, cert)

    def test_solution_family_closed_under_unit_scalings(self):
        # maps i -> s*i with s = 1 mod p fix the w-side root, so they
        # permute the solutions
        for p, n in [(2, 2), (3, 2), (2, 3), (2, 4)]:
            N = p**n
            masks = {s.mask for s in ns.enumerate_solutions(p, n)}
            for s in range(1, N, p):
                if math.gcd(s, N) != 1:
                    continue
                for mask in masks:
                    O = ns.IndexSet(p, n, mask)
                    mapped = ns.IndexSet.from_members(
                        p, n, [(i * s) % N for i in O.members]
                    )
                    assert mapped.mask in masks, (p, n, s, O.members)

    def test_unit_scaling_closure_on_samples(self):
        # larger moduli: certificate-built solutions stay solutions under
        # every unit scaling congruent to 1 mod p
        for p, n in [(5, 2), (3, 3)]:
            N = p**n
            _, layered = ns.enumerate_certificates(p, n)
            sample = [ns.layered_set(p, n, reps, cert) for reps, cert in layered[:10]]
            certs, _ = ns.enumerate_certificates(p, n)
            sample += [ns.IndexSet(p, n, c.mask) for c in certs[:10]]
            for O in sample:
                assert ns.is_solution(O)
                for s in range(1, N, p):
                    if math.gcd(s, N) != 1:
                        continue
                    mapped = ns.IndexSet.from_members(
                        p, n, [(i * s) % N for i in O.members]
                    )
                    assert ns.is_solution(mapped), (p, n, s)


class TestVerification:
    def test_22(self):
        rep = ns.verify_classification(2, 2)
        assert rep.ok
        assert rep.solution_count == 2
        assert rep.smallest_nonempty == 3
        assert rep.refutes_unique_solution is None  # n = 2: nothing to refute

    def test_23(self):
        rep = ns.verify_classification(2, 3)
        assert rep.ok and rep.refutes_unique_solution
        assert rep.smallest_nonempty == 3

    def test_32(self):
        rep = ns.verify_classification(3, 2)
        assert rep.ok
        assert rep.smallest_nonempty == 8 == rep.subsets_scanned.bit_length() - 1
        # at n = 2 the smallest nonempty solution is the full set itself

    def test_72(self):
        # the largest admitted modulus: two solutions, the empty set and the
        # full set of p^2 - 1 = 48 elements
        rep = ns.verify_classification(7, 2)
        assert rep.ok and rep.solution_count == 2
        assert rep.smallest_nonempty == 48

    def test_members_round_trip(self):
        O = members(3, 2, 1, 4, 7)
        assert O.members == (1, 4, 7) and O.size == 3

    def test_rejects_zero_member(self):
        with pytest.raises(ValueError):
            ns.IndexSet(2, 2, 0b1)
