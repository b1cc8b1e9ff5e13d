"""Integer predicates backing the witness oracles.

Everything here is exact over the unsigned 64-bit range; no probabilistic
shortcuts. Factor-hungry operations (``mobius``, ``factorize``) run trial
division against a fixed prime pool and reject inputs whose cofactor is
neither prime nor a prime square, rather than guessing; they are the point
route and the test oracle. ``factor_elements`` tests a whole sequence once
against every prime up to sqrt(max) in one array pass, which the bitstring and
the witness relation both read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from math import isqrt

import numpy as np

from .errors import DomainError

U64_MAX = 2**64 - 1

# Witness bases that make Miller-Rabin deterministic for all n < 3.3e24,
# which covers the 64-bit range with room to spare.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Trial-division pool bound. Cofactors surviving the pool must be prime or a
# prime square; anything else is rejected with a clear error.
_TRIAL_LIMIT = 100_000

# Memory guard for sieving; desk-scale tool, not a prime-counting service.
_SIEVE_LIMIT = 200_000_000


def _check_u64(value: int, name: str = "value") -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 0 or value > U64_MAX:
        raise DomainError(f"{name} must be in [0, 2^64), got {value}")
    return value


def _sieve_bound(x: int, name: str) -> int:
    _check_u64(x, name)
    if x > _SIEVE_LIMIT:
        raise DomainError(f"sieve bound {x} exceeds the {_SIEVE_LIMIT} guard")
    return x


def is_prime(k: int) -> bool:
    """Deterministic primality test over the full 64-bit range."""
    _check_u64(k, "k")
    if k < 2:
        return False
    for p in _MR_BASES:
        if k % p == 0:
            return k == p
    d = k - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, k)
        if x == 1 or x == k - 1:
            continue
        for _ in range(r - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(primes_upto(_TRIAL_LIMIT))


# Cells per block of the divisibility pass: its temporaries stay near 9 MiB.
_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True, eq=False)
class Factorization:
    """Which primes up to sqrt(max) divide which element, from one pass.

    ``primes`` holds every prime up to sqrt(max(elements)) as uint64, and the
    hit pairs (``hit_element[k]``, ``hit_prime[k]``), an element index and a
    pool index, are every pool prime dividing an element, ordered by element
    and then by prime. The pool reaches the square root of every element, so
    an element is composite iff some hit prime is not the element itself, and
    a squared prime factor of it is always a pool prime.
    """

    elements: tuple[int, ...]  # ascending
    values: np.ndarray  # the elements as uint64
    primes: np.ndarray
    hit_element: np.ndarray
    hit_prime: np.ndarray
    hit_value: np.ndarray  # the prime of each hit pair

    @cached_property
    def proper(self) -> np.ndarray:
        """Per hit pair: the prime is not the element itself."""
        return self.hit_value != self.values[self.hit_element]

    @cached_property
    def square(self) -> np.ndarray:
        """Per element: some p^2 divides it (mu = 0)."""
        p = self.hit_value
        square = np.zeros(len(self.elements), dtype=bool)
        # p <= sqrt(max) < 2^32, so p * p fits in uint64
        square[self.hit_element[self.values[self.hit_element] % (p * p) == 0]] = True
        return square

    def first_square(self) -> int | None:
        """The first element with mu = 0, if any."""
        i = int(self.square.argmax())
        return self.elements[i] if self.square[i] else None

    @cached_property
    def cofactor(self) -> np.ndarray:
        """Per element: the element over the product of its pool primes; 1 or a
        prime wherever the element is squarefree."""
        product = np.ones(len(self.elements), dtype=np.uint64)
        np.multiply.at(product, self.hit_element, self.hit_value)
        return self.values // product

    @cached_property
    def omega(self) -> np.ndarray:
        """Per squarefree element: its number of prime factors."""
        hits = np.bincount(self.hit_element, minlength=len(self.elements))
        return hits + (self.cofactor > 1)


def factor_elements(elements) -> Factorization:
    """Sieve the primes up to sqrt(max(elements)) once and test every element
    against every one of them, in blocks of at most about 2^20 cells.

    The elements are ascending positive integers below 2^64 (a sequence's).
    """
    elements = tuple(elements)
    values = np.array(elements, dtype=np.uint64)
    primes = _prime_pool(isqrt(max(elements)))
    # a block spans whole pool rows when they fit, else one element's slice
    rows = max(1, _BLOCK_CELLS // max(len(primes), 1))
    cols = max(1, _BLOCK_CELLS // rows)
    hit_element, hit_prime = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for i in range(0, len(values), rows):
        for j in range(0, len(primes), cols):
            r, c = np.nonzero(values[i : i + rows, None] % primes[None, j : j + cols] == 0)
            hit_element.append(r + i)
            hit_prime.append(c + j)
    hit_prime = np.concatenate(hit_prime)
    return Factorization(
        elements, values, primes, np.concatenate(hit_element), hit_prime, primes[hit_prime]
    )


def factorize(k: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division.

    Raises DomainError when the cofactor left after the trial pool is a
    composite that is not a prime square (two large prime factors, say).
    """
    _check_u64(k, "k")
    if k < 1:
        raise DomainError(f"cannot factor {k}; argument must be >= 1")
    factors: dict[int, int] = {}
    rest = k
    for p in _trial_primes():
        if p * p > rest:
            break
        while rest % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rest //= p
    if rest > 1:
        if is_prime(rest):
            factors[rest] = 1
        else:
            root = isqrt(rest)
            if root * root == rest and is_prime(root):
                factors[root] = 2
            else:
                raise DomainError(
                    f"{k} has a composite cofactor {rest} beyond trial-division reach"
                )
    return factors


def mobius(k: int) -> int:
    """Point Möbius value: 0 on a squared prime factor, else (-1)^(#primes)."""
    _check_u64(k, "k")
    if k < 1:
        raise DomainError("mobius is defined for k >= 1")
    if k == 1:
        return 1
    sign = 1
    rest = k
    for p in _trial_primes():
        if p * p > rest:
            break
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                return 0
            sign = -sign
    if rest > 1:
        if is_prime(rest):
            sign = -sign
        else:
            root = isqrt(rest)
            if root * root == rest and is_prime(root):
                return 0
            raise DomainError(
                f"{k} has a composite cofactor {rest} beyond trial-division reach"
            )
    return sign


def mobius_sieve(limit: int) -> list[int]:
    """Möbius values for 0..limit via a linear sieve (index 0 is a placeholder).

    The sieve route exists to cross-validate the factorization route and to
    make range scans cheap.
    """
    _sieve_bound(limit, "limit")
    mu = [0] * (limit + 1)
    if limit >= 1:
        mu[1] = 1
    primes: list[int] = []
    is_comp = bytearray(limit + 1)
    for i in range(2, limit + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            is_comp[ip] = 1
            if i % p == 0:
                mu[ip] = 0
                break
            mu[ip] = -mu[i]
    return mu


def _eratosthenes(x: int) -> bytearray:
    _sieve_bound(x, "x")
    flags = bytearray([1]) * (x + 1)
    for i in range(min(x, 1) + 1):
        flags[i] = 0
    for p in range(2, isqrt(x) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, x + 1, p)))
    return flags


def _prime_pool(x: int) -> np.ndarray:
    """All primes p with 2 <= p <= x, ascending, as uint64."""
    return np.flatnonzero(np.frombuffer(_eratosthenes(x), np.uint8)).view(np.uint64)


def primes_upto(x: int) -> list[int]:
    """All primes p with 2 <= p <= x, ascending."""
    return _prime_pool(x).tolist()


def recurrence_orbit(p: int, q: int, bound: int) -> list[int]:
    """Members of the affine orbit x_0 = 1, x_{k+1} = p*x_k + q that are <= bound.

    Ascending, starting at x_0 = 1. The p = 1, q = 0 fixed point yields [1].
    An orbit value escaping 64 bits while still below the bound is a domain
    error (unreachable for 64-bit bounds, kept as a guard).
    """
    _check_u64(p, "p")
    _check_u64(q, "q")
    _check_u64(bound, "bound")
    if p < 1:
        raise DomainError("orbit multiplier p must be >= 1")
    if bound < 1:
        raise DomainError("orbit bound must be >= 1")
    orbit = [1]
    x = 1
    while True:
        nxt = p * x + q
        if nxt <= x:  # stationary orbit (p = 1, q = 0)
            break
        if nxt > U64_MAX and nxt <= bound:
            raise DomainError("orbit overflows 64 bits before reaching the bound")
        if nxt > bound:
            break
        orbit.append(nxt)
        x = nxt
    return orbit


def squarefree_support(n: int) -> list[int]:
    """The first n integers k >= 1 with mobius(k) != 0, ascending.

    Clears the multiples of every prime square from a flag array;
    ``mobius_sieve`` is the route that cross-checks it.
    """
    _check_u64(n, "n")
    if n < 1:
        raise DomainError("support size must be >= 1")
    # Squarefree density is ~0.61, so 2n overshoots; grow if it ever does not.
    limit = max(16, 2 * n)
    while True:
        flags = bytearray([1]) * (_sieve_bound(limit, "limit") + 1)
        flags[0] = 0
        for p in range(2, isqrt(limit) + 1):
            square = p * p
            # still flagged iff p is prime: a smaller prime square divides
            # the square of any other p
            if flags[square]:
                flags[square::square] = bytearray(len(range(square, limit + 1, square)))
        out = list(compress(range(limit + 1), flags))
        if len(out) >= n:
            return out[:n]
        limit *= 2
