"""Scan-based reference builders for the composite and Möbius relations.

These are the original builders, kept as an independent oracle: the composite
relation re-tests every element for primality and scans every prime up to
sqrt(max) against it; the Möbius relation sieves mu up to max(S) and scans
every target against the whole mu = -1 pool. Tests compare the factoring
builders in ``qwitness.witnesses`` against them on small inputs.
"""

from __future__ import annotations

from math import isqrt

from qwitness.errors import DomainError
from qwitness.number_theory import is_prime, mobius_sieve, primes_upto
from qwitness.sequences import Sequence
from qwitness.witnesses import WitnessRelation


def relation_composite(seq: Sequence) -> WitnessRelation:
    """Divisor relation: primes up to sqrt(n) witness the composite elements.

    A prime never witnesses itself (s == w is excluded); the target set is
    exactly the composite elements, each guaranteed a witness because its
    smallest prime factor is at most sqrt(s) <= sqrt(n).
    """
    n = seq.max
    candidates = tuple(primes_upto(isqrt(n)))
    targets = []
    incidence = []
    for s in seq.elements:
        if s <= 1 or is_prime(s):
            continue
        targets.append(s)
        incidence.append(
            tuple(j for j, w in enumerate(candidates) if s % w == 0 and s != w)
        )
    return WitnessRelation(
        targets=tuple(targets),
        candidates=candidates,
        incidence=tuple(incidence),
        oracle_descriptor="w divides s and s != w",
    )


def relation_mobius(seq: Sequence) -> WitnessRelation:
    """Prime-quotient relation for the Möbius question.

    Candidates are the mu = -1 elements of S; t witnesses s iff t divides s
    and s/t is prime. The pool is pruned to candidates that witness at least
    one target; the full mu = -1 pool is retained in ``full_pool``. Elements
    like 1 end up with no witness and are reported, not rejected.
    """
    mu = mobius_sieve(seq.max)
    for s in seq.elements:
        if mu[s] == 0:
            raise DomainError(f"element {s} is not squarefree")
    full_pool = tuple(t for t in seq.elements if mu[t] == -1)
    targets = tuple(s for s in seq.elements if mu[s] == 1)
    rows_by_value = {
        s: tuple(t for t in full_pool if s % t == 0 and is_prime(s // t))
        for s in targets
    }
    used = sorted({t for row in rows_by_value.values() for t in row})
    index = {t: j for j, t in enumerate(used)}
    return WitnessRelation(
        targets=targets,
        candidates=tuple(used),
        incidence=tuple(tuple(index[t] for t in rows_by_value[s]) for s in targets),
        oracle_descriptor="w divides s and s/w is prime",
        full_pool=full_pool,
    )
