"""Scan-based reference builders for the composite and Möbius relations.

These are the original builders, kept as an independent oracle: the composite
relation re-tests every element for primality and scans every prime up to
sqrt(max) against it; the Möbius relation takes mu of every element and scans
every target against the whole mu = -1 pool. Primes and mu come from sympy
(``reference_numbers``). Tests compare the factoring builders in
``qwitness.witnesses`` against them on small inputs.

``relation_of_rows`` builds a relation from per-target rows of candidate
indices, the shape tests write relations in; ``relation_pairs`` and
``witnesses_of`` read a relation's marked pairs back as values, and
``restrict_targets`` cuts a relation to a set of target values.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain, compress
from math import isqrt

import numpy as np

import sympy

from qwitness.errors import DomainError
from qwitness.sequences import Sequence
from qwitness.witnesses import WitnessRelation
from reference_numbers import mobius, primes_upto


def relation_of_rows(targets, candidates, rows, descriptor, full_pool=None) -> WitnessRelation:
    """The relation whose i-th target is witnessed by the candidates at the
    indices ``rows[i]``; each row must ascend."""
    rows = tuple(map(tuple, rows))
    target = np.repeat(np.arange(len(rows)), list(map(len, rows)))
    candidate = np.fromiter(chain.from_iterable(rows), np.intp)
    return WitnessRelation(
        tuple(targets), tuple(candidates), (target, candidate), descriptor, full_pool
    )


def relation_pairs(rel: WitnessRelation) -> tuple[tuple[int, int], ...]:
    """All marked (target, witness value) pairs."""
    return tuple(
        (t, rel.candidates[j]) for t, row in zip(rel.targets, rel.incidence) for j in row
    )


def witnesses_of(rel: WitnessRelation, s: int) -> tuple[int, ...]:
    """Witness values of target s."""
    try:
        i = rel.targets.index(s)
    except ValueError:
        raise DomainError(f"{s} is not a target of this relation") from None
    return tuple(rel.candidates[j] for j in rel.incidence[i])


def restrict_targets(rel: WitnessRelation, keep) -> WitnessRelation:
    """The relation cut to the targets whose values are in ``keep``."""
    kept = np.fromiter(map(set(keep).__contains__, rel.targets), bool, len(rel.targets))
    target, candidate = rel.marked_pairs
    held = kept[target]
    return replace(
        rel,
        targets=tuple(compress(rel.targets, kept.tolist())),
        marked_pairs=((np.cumsum(kept) - 1)[target[held]], candidate[held]),
    )


def relation_composite(seq: Sequence) -> WitnessRelation:
    """Divisor relation: primes up to sqrt(n) witness the composite elements.

    A prime never witnesses itself (s == w is excluded); the target set is
    exactly the composite elements, each guaranteed a witness because its
    smallest prime factor is at most sqrt(s) <= sqrt(n).
    """
    n = seq.elements[-1]
    candidates = tuple(primes_upto(isqrt(n)))
    targets = []
    incidence = []
    for s in seq.elements:
        if s <= 1 or sympy.isprime(s):
            continue
        targets.append(s)
        incidence.append(
            tuple(j for j, w in enumerate(candidates) if s % w == 0 and s != w)
        )
    return relation_of_rows(targets, candidates, incidence, "w divides s and s != w")


def relation_mobius(seq: Sequence) -> WitnessRelation:
    """Prime-quotient relation for the Möbius question.

    Candidates are the mu = -1 elements of S; t witnesses s iff t divides s
    and s/t is prime. The pool is pruned to candidates that witness at least
    one target; the full mu = -1 pool is retained in ``full_pool``. Elements
    like 1 end up with no witness and are reported, not rejected.
    """
    mu = {s: mobius(s) for s in seq.elements}
    for s in seq.elements:
        if mu[s] == 0:
            raise DomainError(f"element {s} is not squarefree")
    full_pool = tuple(t for t in seq.elements if mu[t] == -1)
    targets = tuple(s for s in seq.elements if mu[s] == 1)
    rows_by_value = {
        s: tuple(t for t in full_pool if s % t == 0 and sympy.isprime(s // t))
        for s in targets
    }
    used = sorted({t for row in rows_by_value.values() for t in row})
    index = {t: j for j, t in enumerate(used)}
    return relation_of_rows(
        targets,
        used,
        (tuple(index[t] for t in rows_by_value[s]) for s in targets),
        "w divides s and s/w is prime",
        full_pool,
    )
