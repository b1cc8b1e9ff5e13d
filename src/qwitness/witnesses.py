"""Bipartite witness relations between satisfying elements and candidate witnesses.

Each builder encodes one marking oracle verbatim: the congruence oracle for
affine-recurrence questions, the divisor oracle for compositeness, the
prime-quotient oracle for the Möbius question, and the self-pairing oracle.
Targets with no witness are kept and surfaced, never silently dropped.

The composite and Möbius builders read their rows off the factorization of
the elements over the primes up to sqrt(max(S)) (``factor_elements``), the
same one the bitstring was answered from; what is left over is 1 or a prime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DomainError
from .number_theory import Factorization
from .sequences import SatisfyingSet, Sequence


@dataclass(frozen=True)
class WitnessRelation:
    """Incidence between target elements and a candidate witness pool.

    ``incidence[i]`` lists, ascending, the indices into ``candidates`` of the
    witnesses of ``targets[i]``. ``full_pool`` keeps the unpruned candidate
    pool when construction narrowed it (audit trail for the Möbius builder).
    """

    targets: tuple[int, ...]
    candidates: tuple[int, ...]
    incidence: tuple[tuple[int, ...], ...]
    oracle_descriptor: str
    full_pool: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.incidence) != len(self.targets):
            raise DomainError("one incidence row per target required")
        if len(set(self.candidates)) != len(self.candidates):
            raise DomainError("candidate pool must be duplicate-free")
        for row in self.incidence:
            if list(row) != sorted(set(row)):
                raise DomainError("incidence rows must be ascending and duplicate-free")
            for j in row:
                if not 0 <= j < len(self.candidates):
                    raise DomainError(f"incidence index {j} out of range")

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
        keep = set(keep)
        rows = [(t, row) for t, row in zip(self.targets, self.incidence) if t in keep]
        return replace(
            self,
            targets=tuple(t for t, _ in rows),
            incidence=tuple(row for _, row in rows),
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
        incidence=tuple((0,) for _ in targets),
        oracle_descriptor=f"s mod {p} == w",
    )


def relation_composite(factored: Factorization) -> WitnessRelation:
    """Divisor relation: primes up to sqrt(max) witness the composite elements.

    A row lists the element's prime factors in the pool other than the element
    itself, so primes and 1 get empty rows and are not targets, while every
    composite has its smallest prime factor, at most sqrt(max), as a witness.
    """
    candidates = tuple(factored.primes)
    index = {w: j for j, w in enumerate(candidates)}
    targets = []
    incidence = []
    for s, (factors, rest) in zip(factored.elements, factored.rows):
        # the cofactor is 1 or a prime above the factors; it witnesses only from the pool
        row = [index[p] for p in (*factors, rest) if p != s and p in index]
        if row:
            targets.append(s)
            incidence.append(tuple(row))
    return WitnessRelation(
        targets=tuple(targets),
        candidates=candidates,
        incidence=tuple(incidence),
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
    elements = factored.elements
    primes_of: dict[int, tuple[int, ...]] = {}
    for s, (factors, rest) in zip(elements, factored.rows):
        if any(e > 1 for e in factors.values()):
            raise DomainError(f"element {s} is not squarefree")
        primes_of[s] = (*factors, rest) if rest > 1 else tuple(factors)
    # mu(s) = (-1)^(number of prime factors), so odd counts form the mu = -1 pool
    full_pool = tuple(t for t in elements if len(primes_of[t]) % 2)
    targets = tuple(s for s in elements if not len(primes_of[s]) % 2)
    in_pool = set(full_pool)
    rows_by_value = {
        s: sorted(s // p for p in primes_of[s] if s // p in in_pool) for s in targets
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


def relation_identity(satisfying: SatisfyingSet) -> WitnessRelation:
    """Self-pairing relation: every satisfying element witnesses itself."""
    elems = tuple(satisfying.elements)
    return WitnessRelation(
        targets=elems,
        candidates=elems,
        incidence=tuple((i,) for i in range(len(elems))),
        oracle_descriptor="s == w",
    )


def coverage_check(rel: WitnessRelation) -> CoverageReport:
    """Enumerate uncovered targets, multiply witnessed targets, shared witnesses."""
    uncovered = tuple(t for t, row in zip(rel.targets, rel.incidence) if not row)
    multiply = tuple(
        (t, len(row)) for t, row in zip(rel.targets, rel.incidence) if len(row) > 1
    )
    counts: dict[int, int] = {}
    for row in rel.incidence:
        for j in row:
            counts[j] = counts.get(j, 0) + 1
    shared = tuple(
        (rel.candidates[j], c) for j, c in sorted(counts.items()) if c > 1
    )
    return CoverageReport(uncovered, multiply, shared)
