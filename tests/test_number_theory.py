from math import isqrt

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness.errors import DomainError
from qwitness.number_theory import (
    _eratosthenes,
    _prime_pool,
    factor_elements,
    is_prime,
    recurrence_orbit,
    squarefree_support,
)
from reference_numbers import mobius, mobius_upto, primes_upto


def trial_division_prime(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    @pytest.mark.parametrize("k,expected", [(7, True), (1, False), (4294967311, True)])
    def test_examples(self, k, expected):
        assert is_prime(k) is expected

    def test_agrees_with_trial_division_small(self):
        for k in range(0, 2000):
            assert is_prime(k) == trial_division_prime(k)

    def test_random_64bit_against_sympy(self):
        import random

        rng = random.Random(20240901)
        for _ in range(10**4):
            k = rng.randrange(2, 2**64)
            assert is_prime(k) == sympy.isprime(k)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            is_prime(2**64)
        with pytest.raises(DomainError):
            is_prime(-1)


def row_mobius(factored, i: int) -> int:
    """mu of element i, read off a factorization as the package reads it."""
    return 0 if factored.square[i] else (-1) ** int(factored.omega[i])


class TestMobius:
    """The Möbius values the factorization reads, against fixed values and sympy."""

    @pytest.mark.parametrize("k,expected", [(1, 1), (12, 0), (30, -1)])
    def test_examples(self, k, expected):
        assert row_mobius(factor_elements([k]), 0) == expected

    def test_sieve_matches_point_queries(self):
        factored = factor_elements(range(1, 3001))
        for k in range(1, 3001):
            assert row_mobius(factored, k - 1) == mobius(k)

    def test_prime_square_cofactor_is_zero(self):
        assert row_mobius(factor_elements([1_000_003**2]), 0) == 0


class TestFactorize:
    """Each row's primes and cofactor, against sympy.factorint."""

    def test_reconstructs_value(self):
        for k in (1, 2, 12, 360, 97, 2**32 + 15):
            factored = factor_elements([k])
            primes = factored.hit_value.tolist()
            assert all(sympy.isprime(p) for p in primes)
            assert primes == [p for p in sympy.factorint(k) if p * p <= k]
            prod = 1
            for p in primes:
                prod *= p
            assert prod * int(factored.cofactor[0]) == k

    @given(st.integers(min_value=1, max_value=10**6))
    def test_matches_mobius(self, k):
        factored = factor_elements([k])
        f = sympy.factorint(k)
        assert bool(factored.square[0]) == any(e > 1 for e in f.values())
        if not factored.square[0]:
            assert int(factored.omega[0]) == len(f)

    def test_prime_square_cofactor(self):
        factored = factor_elements([6 * 1_000_003**2])
        assert factored.hit_value.tolist() == [2, 3, 1_000_003]
        assert factored.square.tolist() == [True]


class TestPrimesUpto:
    """The prime pool the factorization tests against."""

    @pytest.mark.parametrize(
        "x,expected",
        [
            (10, [2, 3, 5, 7]),
            (1, []),
            (30, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]),
        ],
    )
    def test_examples(self, x, expected):
        assert _prime_pool(x).tolist() == expected

    @pytest.mark.parametrize("x,expected", [(10, 4), (0, 0), (100, 25)])
    def test_prime_pi_examples(self, x, expected):
        assert len(_prime_pool(x)) == expected

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=60)
    def test_pi_counts_primes_upto(self, x):
        assert _prime_pool(x).tolist() == [k for k in range(x + 1) if trial_division_prime(k)]

    @pytest.mark.parametrize("x", [0, 1, 2, 3, 100, 10**5])
    def test_listing_matches_the_sieve_flags(self, x):
        flags = _eratosthenes(x)
        primes = _prime_pool(x)
        assert primes.dtype == np.uint64
        assert primes.tolist() == [i for i in range(2, x + 1) if flags[i]] == primes_upto(x)


class TestFactorElements:
    def test_rows_factor_over_the_root_pool(self):
        factored = factor_elements([1, 6, 9, 35, 97, 1000036000099])
        assert factored.primes.tolist() == primes_upto(1000017)
        hits = list(zip(factored.hit_element.tolist(),
                        factored.primes[factored.hit_prime].tolist()))
        assert hits == [(1, 2), (1, 3), (2, 3), (3, 5), (3, 7), (4, 97), (5, 1000003)]
        assert factored.proper.tolist() == [True, True, True, True, True, False, True]
        assert factored.square.tolist() == [False, False, True, False, False, False]
        squarefree = ~factored.square
        assert factored.cofactor[squarefree].tolist() == [1, 1, 1, 1, 1000033]
        assert factored.omega[squarefree].tolist() == [0, 2, 2, 1, 2]

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=100)
    def test_mobius_of_a_row_is_mobius(self, k):
        factored = factor_elements([k])
        assert row_mobius(factored, 0) == mobius(k)
        assert factored.proper.any() == (k > 1 and not sympy.isprime(k))

    def test_blocks_split_a_pool_wider_than_a_block(self):
        # sqrt(max) of about 1.6e7 gives a pool of over 10^6 primes: each
        # element is tested in more than one block, and the hits stay in order
        elements = [6, 35, 3 * 16777213, 16777213 * 16777259]
        factored = factor_elements(elements)
        assert len(factored.primes) > 1 << 20
        hits = list(zip(factored.hit_element.tolist(),
                        factored.primes[factored.hit_prime].tolist()))
        assert hits == [(0, 2), (0, 3), (1, 5), (1, 7), (2, 3), (2, 16777213), (3, 16777213)]


class TestRecurrenceOrbit:
    @pytest.mark.parametrize(
        "p,q,bound,expected",
        [
            (2, 1, 40, [1, 3, 7, 15, 31]),
            (1, 0, 5, [1]),
            (3, 2, 60, [1, 5, 17, 53]),
        ],
    )
    def test_examples(self, p, q, bound, expected):
        assert recurrence_orbit(p, q, bound) == expected

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=10**5),
    )
    @settings(max_examples=100, deadline=None)
    def test_orbit_matches_direct_iteration(self, p, q, bound):
        got = recurrence_orbit(p, q, bound)
        assert got[0] == 1
        assert got == sorted(set(got))
        for a, b in zip(got, got[1:]):
            assert b == p * a + q
        # the next value (if the orbit moves) must exceed the bound
        nxt = p * got[-1] + q
        if nxt > got[-1]:
            assert nxt > bound

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            recurrence_orbit(0, 1, 10)
        with pytest.raises(DomainError):
            recurrence_orbit(2, 1, 0)


class TestSquarefreeSupport:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (10, [1, 2, 3, 5, 6, 7, 10, 11, 13, 14]),
            (1, [1]),
            (5, [1, 2, 3, 5, 6]),
        ],
    )
    def test_examples(self, n, expected):
        assert squarefree_support(n) == expected

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=40)
    def test_support_is_exactly_squarefree_prefix(self, n):
        out = squarefree_support(n)
        assert len(out) == n
        assert out == sorted(out)
        assert all(mobius(k) != 0 for k in out)
        # nothing squarefree was skipped
        skipped = set(range(1, out[-1] + 1)) - set(out)
        assert all(mobius(k) == 0 for k in skipped)

    def test_matches_the_mobius_sieve_route(self):
        mu = mobius_upto(4000)
        route = [k for k in range(1, 4001) if mu[k]]
        assert len(route) > 2000
        for n in range(1, 2001):
            assert squarefree_support(n) == route[:n]

    @pytest.mark.parametrize(
        "n, message",
        [
            (10**8 + 1, "sieve bound 200000002 exceeds the 200000000 guard"),
            (2**63 + 5, "limit must be in [0, 2^64), got 18446744073709551626"),
            (2**64, "n must be in [0, 2^64), got 18446744073709551616"),
            (0, "support size must be >= 1"),
        ],
    )
    def test_guard_texts(self, n, message):
        with pytest.raises(DomainError) as info:
            squarefree_support(n)
        assert str(info.value) == message


def test_smallest_prime_factor_bounded_by_sqrt():
    # guarantees every composite in a divisor relation has a small witness
    from math import isqrt

    from qwitness.number_theory import _eratosthenes

    flags = _eratosthenes(10**5)
    for s in range(4, 10**5 + 1):
        if flags[s]:
            continue
        spf = next(p for p in range(2, s + 1) if s % p == 0)
        assert spf <= isqrt(s)
