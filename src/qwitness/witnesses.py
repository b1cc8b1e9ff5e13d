"""Bipartite witness relations between satisfying elements and candidate witnesses.

Each builder encodes one marking oracle verbatim: the congruence oracle for
affine-recurrence questions, the divisor oracle for compositeness, the
prime-quotient oracle for the Möbius question, and the self-pairing oracle.
Targets with no witness are kept and surfaced, never silently dropped.

The composite and Möbius builders take their rows from the hit pairs of one
divisibility pass over the primes up to sqrt(max(S)) (``factor_elements``),
the same one the bitstring was answered from, a few array operations per
builder rather than a Python step per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, chain, compress, islice, repeat
from operator import lt, not_

import numpy as np

from .errors import DomainError
from .number_theory import Factorization
from .sequences import SatisfyingSet, Sequence


@dataclass(frozen=True)
class WitnessRelation:
    """Incidence between target elements and a candidate witness pool.

    ``incidence[i]`` lists, ascending, the indices into ``candidates`` of the
    witnesses of ``targets[i]``. ``full_pool`` keeps the unpruned candidate
    pool when construction narrowed it (audit trail for the Möbius builder).
    Checking the rows leaves ``marked_pairs``: the (target index, candidate
    index) arrays of every marked pair, row by row.
    """

    targets: tuple[int, ...]
    candidates: tuple[int, ...]
    incidence: tuple[tuple[int, ...], ...]
    oracle_descriptor: str
    full_pool: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.incidence) != len(self.targets):
            raise DomainError("one incidence row per target required")
        candidates = self.candidates
        # an ascending pool (every builder's) is duplicate-free without a set
        if not all(map(lt, candidates, islice(candidates, 1, None))) and (
            len(set(candidates)) != len(candidates)
        ):
            raise DomainError("candidate pool must be duplicate-free")
        m = len(candidates)
        try:
            candidate = np.fromiter(chain.from_iterable(self.incidence), np.intp)
        except (TypeError, ValueError, OverflowError):
            candidate = None  # an index that is no machine integer
        if candidate is not None:
            lengths = np.fromiter(map(len, self.incidence), np.intp, len(self.incidence))
            target = np.repeat(np.arange(len(lengths)), lengths)
            # with every index in range, target * m + candidate ascends over
            # the pairs of all rows iff each row ascends
            keys = target * m + candidate
            if not candidate.size or (
                candidate.min() >= 0 and candidate.max() < m and (keys[1:] > keys[:-1]).all()
            ):
                # (target index, candidate index) of every marked pair, row by row
                object.__setattr__(self, "marked_pairs", (target, candidate))
                return
        # name the first offending row
        for row in self.incidence:
            if list(row) != sorted(set(row)):
                raise DomainError("incidence rows must be ascending and duplicate-free")
            for j in row:
                if not 0 <= j < m:
                    raise DomainError(f"incidence index {j} out of range")
        raise DomainError("incidence indices must be integers")

    def witnesses_of(self, s: int) -> tuple[int, ...]:
        """Witness values of target s."""
        try:
            i = self.targets.index(s)
        except ValueError:
            raise DomainError(f"{s} is not a target of this relation") from None
        return tuple(self.candidates[j] for j in self.incidence[i])

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All marked (target, witness value) pairs."""
        return tuple(
            (t, self.candidates[j])
            for t, row in zip(self.targets, self.incidence)
            for j in row
        )

    def restrict_targets(self, keep) -> "WitnessRelation":
        kept = list(map(set(keep).__contains__, self.targets))
        return replace(
            self,
            targets=tuple(compress(self.targets, kept)),
            incidence=tuple(compress(self.incidence, kept)),
        )

    def to_json_dict(self) -> dict:
        return {
            "oracle": self.oracle_descriptor,
            "targets": list(self.targets),
            "candidates": list(self.candidates),
            "incidence": [list(row) for row in self.incidence],
            "full_pool": None if self.full_pool is None else list(self.full_pool),
        }


@dataclass(frozen=True)
class CoverageReport:
    uncovered: tuple[int, ...]
    multiply_witnessed: tuple[tuple[int, int], ...]  # (target, witness count > 1)
    shared_witnesses: tuple[tuple[int, int], ...]  # (witness value, target count > 1)


def relation_recurrence(seq: Sequence, p: int, q: int) -> WitnessRelation:
    """Congruence relation: the single candidate q witnesses s iff s mod p == q.

    This is deliberately the oracle's semantics, not orbit membership, so the
    mismatch between the two stays measurable.
    """
    if p < 2:
        raise DomainError("modulus p must be >= 2")
    if not 0 <= q < p:
        raise DomainError("residue q must satisfy 0 <= q < p")
    targets = tuple(s for s in seq.elements if s % p == q)
    return WitnessRelation(
        targets=targets,
        candidates=(q,),
        incidence=((0,),) * len(targets),
        oracle_descriptor=f"s mod {p} == w",
    )


def _rows(flat: tuple[int, ...], counts) -> tuple[tuple[int, ...], ...]:
    """``flat`` cut into consecutive rows of the given lengths."""
    ends = list(accumulate(counts))
    return tuple(map(flat.__getitem__, map(slice, chain((0,), ends), ends)))


def relation_composite(factored: Factorization) -> WitnessRelation:
    """Divisor relation: primes up to sqrt(max) witness the composite elements.

    A row lists the element's prime factors in the pool other than the element
    itself, so primes and 1 get empty rows and are not targets, while every
    composite has its smallest prime factor, at most sqrt(max), as a witness.
    """
    proper = factored.proper
    counts = np.bincount(factored.hit_element[proper], minlength=len(factored.elements))
    return WitnessRelation(
        targets=tuple(compress(factored.elements, counts.tolist())),
        candidates=tuple(factored.primes.tolist()),
        incidence=_rows(tuple(factored.hit_prime[proper].tolist()), counts[counts > 0].tolist()),
        oracle_descriptor="w divides s and s != w",
    )


def relation_mobius(factored: Factorization) -> WitnessRelation:
    """Prime-quotient relation for the Möbius question.

    Candidates are the mu = -1 elements of S; t witnesses s iff t divides s
    and s/t is prime, so the witnesses of s are its quotients s/p by its prime
    factors p that land in the mu = -1 pool. The pool is pruned to candidates
    that witness at least one target; the full mu = -1 pool is retained in
    ``full_pool``. Elements like 1 end up with no witness and are reported,
    not rejected.
    """
    elements, values = factored.elements, factored.values
    s = factored.first_square()
    if s is not None:
        raise DomainError(f"element {s} is not squarefree")
    # mu(s) = (-1)^(number of prime factors), so odd counts form the mu = -1 pool
    odd = (factored.omega & 1).astype(bool)
    target = ~odd
    # the prime factors of each target: its hit primes, then a cofactor above 1
    hits = target[factored.hit_element]
    big = target & (factored.cofactor > 1)
    owner = np.concatenate((factored.hit_element[hits], np.flatnonzero(big)))
    prime = np.concatenate((factored.hit_value[hits], factored.cofactor[big]))
    # s/p has one prime factor fewer than s, so it is in the pool iff it is in S
    quotient = values[owner] // prime
    at = np.searchsorted(values, quotient).clip(max=len(values) - 1)
    found = values[at] == quotient
    owner, witness = owner[found], at[found]
    order = np.lexsort((witness, owner))
    used = np.zeros(len(elements), dtype=bool)
    used[witness] = True
    column = np.cumsum(used) - 1
    counts = np.bincount(owner, minlength=len(elements))[target]
    return WitnessRelation(
        targets=tuple(compress(elements, target.tolist())),
        candidates=tuple(compress(elements, used.tolist())),
        incidence=_rows(tuple(column[witness[order]].tolist()), counts.tolist()),
        oracle_descriptor="w divides s and s/w is prime",
        full_pool=tuple(compress(elements, odd.tolist())),
    )


def relation_identity(satisfying: SatisfyingSet) -> WitnessRelation:
    """Self-pairing relation: every satisfying element witnesses itself."""
    elems = tuple(satisfying.elements)
    return WitnessRelation(
        targets=elems,
        candidates=elems,
        incidence=tuple(zip(range(len(elems)))),
        oracle_descriptor="s == w",
    )


def coverage_check(rel: WitnessRelation) -> CoverageReport:
    """Enumerate uncovered targets, multiply witnessed targets, shared witnesses."""
    lengths = list(map(len, rel.incidence))
    uncovered = tuple(compress(rel.targets, map(not_, lengths)))
    multiply = tuple(compress(zip(rel.targets, lengths), map(lt, repeat(1), lengths)))
    counts = np.bincount(rel.marked_pairs[1], minlength=len(rel.candidates)).tolist()
    shared = tuple(compress(zip(rel.candidates, counts), map(lt, repeat(1), counts)))
    return CoverageReport(uncovered, multiply, shared)
