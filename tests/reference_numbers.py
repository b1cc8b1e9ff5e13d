"""Number-theory answers from sympy, the independent oracle for the tests.

The package has no per-value factorization route: it answers the factored
questions from one divisibility pass over a whole sequence. Tests compare that
pass, the sieves and the relations built from them against these answers.
"""

from __future__ import annotations

from functools import cache

import sympy


@cache
def mobius(k: int) -> int:
    """mu(k) for k >= 1, from sympy's factorization (faster than sympy.mobius
    on semiprimes with a large factor)."""
    exponents = sympy.factorint(k).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def mobius_upto(limit: int) -> list[int]:
    """mu(0..limit), index 0 a placeholder 0, from sympy's Möbius sieve."""
    return [0, *map(int, sympy.sieve.mobiusrange(1, limit + 1))]


def primes_upto(x: int) -> list[int]:
    """All primes p with 2 <= p <= x, ascending, from sympy's sieve."""
    sympy.sieve.extend(x)
    return list(sympy.sieve.primerange(2, x + 1))


def is_composite(k: int) -> bool:
    return k > 1 and not sympy.isprime(k)
