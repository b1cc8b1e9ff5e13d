from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness.errors import DomainError
from qwitness.number_theory import (
    _eratosthenes,
    factor_elements,
    factorize,
    is_prime,
    mobius,
    mobius_sieve,
    primes_upto,
    recurrence_orbit,
    squarefree_support,
)


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
        sympy = pytest.importorskip("sympy")
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


class TestMobius:
    @pytest.mark.parametrize("k,expected", [(1, 1), (12, 0), (30, -1)])
    def test_examples(self, k, expected):
        assert mobius(k) == expected

    def test_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            mobius(0)

    def test_sieve_matches_point_queries(self):
        mu = mobius_sieve(3000)
        for k in range(1, 3001):
            assert mu[k] == mobius(k)

    def test_large_semiprime_rejected(self):
        # two primes beyond the trial pool; factorization is infeasible here
        p, q = 1_000_003, 1_000_033
        with pytest.raises(DomainError):
            mobius(p * q)
        with pytest.raises(DomainError):
            factorize(p * q)

    def test_prime_square_cofactor_is_zero(self):
        assert mobius(1_000_003**2) == 0


class TestFactorize:
    def test_reconstructs_value(self):
        for k in (1, 2, 12, 360, 97, 2**32 + 15):
            prod = 1
            for p, e in factorize(k).items():
                assert is_prime(p)
                prod *= p**e
            assert prod == k

    @given(st.integers(min_value=1, max_value=10**6))
    def test_matches_mobius(self, k):
        f = factorize(k)
        if any(e > 1 for e in f.values()):
            assert mobius(k) == 0
        else:
            assert mobius(k) == (-1) ** len(f)

    def test_prime_square_cofactor(self):
        assert factorize(6 * 1_000_003**2) == {2: 1, 3: 1, 1_000_003: 2}


class TestPrimesUpto:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (10, [2, 3, 5, 7]),
            (1, []),
            (30, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]),
        ],
    )
    def test_examples(self, x, expected):
        assert primes_upto(x) == expected

    @pytest.mark.parametrize("x,expected", [(10, 4), (0, 0), (100, 25)])
    def test_prime_pi_examples(self, x, expected):
        assert len(primes_upto(x)) == expected

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=60)
    def test_pi_counts_primes_upto(self, x):
        assert primes_upto(x) == [k for k in range(x + 1) if trial_division_prime(k)]

    @pytest.mark.parametrize("x", [0, 1, 2, 3, 100, 10**5])
    def test_listing_matches_the_sieve_flags(self, x):
        flags = _eratosthenes(x)
        primes = primes_upto(x)
        assert primes == [i for i in range(2, x + 1) if flags[i]]
        assert all(type(p) is int for p in primes)


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
        mu = 0 if factored.square[0] else (-1) ** int(factored.omega[0])
        assert mu == mobius(k)
        assert factored.proper.any() == (k > 1 and not is_prime(k))

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
        mu = mobius_sieve(4000)
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

    mu = mobius_sieve(0)  # touch the sieve path for limit 0
    assert mu == [0]
    flags = _eratosthenes(10**5)
    for s in range(4, 10**5 + 1):
        if flags[s]:
            continue
        spf = next(p for p in range(2, s + 1) if s % p == 0)
        assert spf <= isqrt(s)
