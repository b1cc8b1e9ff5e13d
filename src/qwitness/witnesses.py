"""Bipartite witness relations between satisfying elements and candidate witnesses.

Each builder encodes one marking oracle verbatim: the congruence oracle for
affine-recurrence questions, the divisor oracle for compositeness, the
prime-quotient oracle for the Möbius question, and the self-pairing oracle.
Targets with no witness are kept and surfaced, never silently dropped.

A relation stores its marking once, as the sorted (target index, candidate
index) arrays of its marked pairs; the per-target rows and witness counts are
derived from them when read. The composite and Möbius builders take those
arrays from the hit pairs of one divisibility pass over the primes up to
sqrt(max(S)) (``factor_elements``), the same one the bitstring was answered
from, a few array operations per builder rather than a Python step per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from operator import lt

import numpy as np

from .errors import DomainError
from .number_theory import Factorization
from .sequences import SatisfyingSet, Sequence


@dataclass(frozen=True, eq=False)
class WitnessRelation:
    """Incidence between target elements and a candidate witness pool.

    ``marked_pairs`` holds the (target index, candidate index) integer arrays
    of every marked pair, sorted by target and then by candidate, so
    ``target * len(candidates) + candidate`` strictly ascends. ``full_pool``
    keeps the unpruned candidate pool when construction narrowed it (audit
    trail for the Möbius builder).
    """

    targets: tuple[int, ...]
    candidates: tuple[int, ...]
    marked_pairs: tuple[np.ndarray, np.ndarray]
    oracle_descriptor: str
    full_pool: tuple[int, ...] | None = None

    def __post_init__(self):
        candidates = self.candidates
        # an ascending pool (every builder's) is duplicate-free without a set
        if not all(map(lt, candidates, islice(candidates, 1, None))) and (
            len(set(candidates)) != len(candidates)
        ):
            raise DomainError("candidate pool must be duplicate-free")
        target, candidate = self.marked_pairs
        q, m = len(self.targets), len(candidates)
        integral = target.dtype.kind in "iu" and candidate.dtype.kind in "iu"
        if integral and len(target) == len(candidate):
            if not target.size:
                return
            # with every candidate index in range, ascending keys make the
            # target indices ascend too, so their ends bound them
            keys = target * m + candidate
            if (
                candidate.min() >= 0
                and candidate.max() < m
                and (keys[1:] > keys[:-1]).all()
                and target[0] >= 0
                and target[-1] < q
            ):
                return
        raise DomainError(_fault(target, candidate, q, m))

    @cached_property
    def witness_counts(self) -> np.ndarray:
        """The number of witnesses of each target."""
        return np.bincount(self.marked_pairs[0], minlength=len(self.targets))

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """``incidence[i]`` lists, ascending, the indices into ``candidates``
        of the witnesses of ``targets[i]``."""
        flat = tuple(self.marked_pairs[1].tolist())
        ends = list(accumulate(self.witness_counts.tolist()))
        return tuple(map(flat.__getitem__, map(slice, chain((0,), ends), ends)))

    def covered(self) -> "WitnessRelation":
        """The relation without its targets that have no witness; every marked
        pair stays, with its target renumbered."""
        kept = self.witness_counts > 0
        target, candidate = self.marked_pairs
        return replace(
            self,
            targets=tuple(compress(self.targets, kept.tolist())),
            marked_pairs=((np.cumsum(kept) - 1)[target], candidate),
        )

    def to_json_dict(self) -> dict:
        return {
            "oracle": self.oracle_descriptor,
            "targets": list(self.targets),
            "candidates": list(self.candidates),
            "incidence": [list(row) for row in self.incidence],
            "full_pool": None if self.full_pool is None else list(self.full_pool),
        }


def _fault(target: np.ndarray, candidate: np.ndarray, q: int, m: int) -> str:
    """What is wrong with the first faulty marked pair: a missing index, an
    index that is no integer or out of range, or a pair not past the one
    before it."""
    k = min(len(target), len(candidate))
    if len(target) != len(candidate):
        return (
            f"marked pair {k} has only one index: {len(target)} target indices "
            f"against {len(candidate)} candidate indices"
        )
    if not (target.dtype.kind in "iu" and candidate.dtype.kind in "iu"):
        first = f", first pair ({target[0]}, {candidate[0]})" if k else ""
        return (
            f"marked pair indices must be integers, got {target.dtype} and "
            f"{candidate.dtype}{first}"
        )
    keys = target * m + candidate
    outside = (target < 0) | (target >= q) | (candidate < 0) | (candidate >= m)
    early = np.zeros(k, dtype=bool)
    early[1:] = keys[1:] <= keys[:-1]
    k = int(np.argmax(outside | early))
    pair = f"marked pair ({target[k]}, {candidate[k]})"
    if outside[k]:
        return f"{pair} out of range for {q} targets and {m} candidates"
    if keys[k] == keys[k - 1]:
        return f"{pair} repeated"
    return f"{pair} out of order after ({target[k - 1]}, {candidate[k - 1]})"


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """What ``coverage_check`` finds; the tuples are built when first read."""

    relation: WitnessRelation
    held: np.ndarray  # per candidate: the targets it witnesses
    uncovered: tuple[int, ...]
    multiply_witnessed_count: int
    shared_witness_count: int

    @cached_property
    def multiply_witnessed(self) -> tuple[tuple[int, int], ...]:
        """(target, witness count > 1), ascending by target index."""
        return _above_one(self.relation.targets, self.relation.witness_counts)

    @cached_property
    def shared_witnesses(self) -> tuple[tuple[int, int], ...]:
        """(witness value, target count > 1), in pool order."""
        return _above_one(self.relation.candidates, self.held)


def _above_one(values: tuple[int, ...], counts: np.ndarray) -> tuple[tuple[int, int], ...]:
    counts = counts.tolist()
    return tuple(compress(zip(values, counts), map(lt, repeat(1), counts)))


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
        marked_pairs=(np.arange(len(targets)), np.zeros(len(targets), dtype=np.intp)),
        oracle_descriptor=f"s mod {p} == w",
    )


def relation_composite(factored: Factorization) -> WitnessRelation:
    """Divisor relation: primes up to sqrt(max) witness the composite elements.

    An element's witnesses are its prime factors in the pool other than the
    element itself, so primes and 1 have none and are not targets, while every
    composite has its smallest prime factor, at most sqrt(max), as a witness.
    """
    proper = factored.proper
    element = factored.hit_element[proper]
    counts = np.bincount(element, minlength=len(factored.elements))
    target = counts > 0
    return WitnessRelation(
        targets=tuple(compress(factored.elements, counts.tolist())),
        candidates=tuple(factored.primes.tolist()),
        marked_pairs=((np.cumsum(target) - 1)[element], factored.hit_prime[proper]),
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
    # the keys are unique, so one sort orders the pairs by owner, then witness;
    # a stable sort is the quicker one on the ascending runs of the owners
    order = np.argsort(owner * len(elements) + witness, kind="stable")
    used = np.zeros(len(elements), dtype=bool)
    used[witness] = True
    return WitnessRelation(
        targets=tuple(compress(elements, target.tolist())),
        candidates=tuple(compress(elements, used.tolist())),
        marked_pairs=(
            (np.cumsum(target) - 1)[owner[order]],
            (np.cumsum(used) - 1)[witness[order]],
        ),
        oracle_descriptor="w divides s and s/w is prime",
        full_pool=tuple(compress(elements, odd.tolist())),
    )


def relation_identity(satisfying: SatisfyingSet) -> WitnessRelation:
    """Self-pairing relation: every satisfying element witnesses itself."""
    elems = tuple(satisfying.elements)
    index = np.arange(len(elems))
    return WitnessRelation(
        targets=elems,
        candidates=elems,
        marked_pairs=(index, index),
        oracle_descriptor="s == w",
    )


def coverage_check(rel: WitnessRelation) -> CoverageReport:
    """Uncovered targets, and how many targets are multiply witnessed and how
    many witnesses are shared.

    The counts come from the witness counts and one bincount of the witness
    indices; the (value, count) tuples they count wait until read, which only
    the ``witness`` view does.
    """
    counts = rel.witness_counts
    held = np.bincount(rel.marked_pairs[1], minlength=len(rel.candidates))
    return CoverageReport(
        relation=rel,
        held=held,
        uncovered=() if counts.all() else tuple(compress(rel.targets, (counts == 0).tolist())),
        multiply_witnessed_count=int(np.count_nonzero(counts > 1)),
        shared_witness_count=int(np.count_nonzero(held > 1)),
    )
