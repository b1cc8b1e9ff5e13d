"""Integer predicates backing the witness oracles.

Everything here is exact over the unsigned 64-bit range; no probabilistic
shortcuts. ``is_prime`` is deterministic Miller-Rabin. ``factor_elements``
tests a whole sequence once against every prime up to sqrt(max) in one array
pass, which the bitstring and the witness relation both read; there is no
per-value factorization route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import isqrt

import numpy as np

from .errors import DomainError

U64_MAX = 2**64 - 1

# Witness bases that make Miller-Rabin deterministic for all n < 3.3e24,
# which covers the 64-bit range with room to spare.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

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
    """The first n squarefree integers k >= 1 (mu(k) != 0), ascending.

    Clears the multiples of every prime square from a flag array.
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
