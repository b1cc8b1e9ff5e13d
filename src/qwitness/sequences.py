"""Sequences, yes/no questions, and the answer bitstring they induce.

A question applied elementwise to a sequence yields a bitstring; the elements
answering 1 form the satisfying set whose size q is what the witness
machinery downstream compresses against. The composite and Möbius questions
are answered from one factorization of the whole sequence, which the bitstring
keeps for the witness relation built from the same facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, islice
from operator import lt

import numpy as np

from .errors import DomainError
from .number_theory import (
    _SIEVE_LIMIT,
    U64_MAX,
    Factorization,
    _check_u64,
    factor_elements,
    is_prime,
    recurrence_orbit,
)


@dataclass(frozen=True)
class Sequence:
    """A finite, strictly ascending sequence of positive 64-bit integers."""

    elements: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        if not self.elements:
            raise DomainError("sequence must be non-empty")
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        # one C-level pass per check; the loops below only name the first offender
        if (
            set(map(type, elements)) == {int}
            and all(map(lt, elements, islice(elements, 1, None)))
            and 1 <= elements[0]
            and elements[-1] <= U64_MAX
        ):
            return
        for e in elements:
            _check_u64(e, "sequence element")
            if e < 1:
                raise DomainError(f"sequence element {e} must be >= 1")
        for a, b in zip(elements, elements[1:]):
            if b <= a:
                raise DomainError(f"sequence must be strictly ascending ({a} !< {b})")

    @classmethod
    def from_range(cls, lo: int, hi: int) -> "Sequence":
        if hi < lo:
            raise DomainError(f"empty range [{lo}, {hi}]")
        if hi - lo + 1 > _SIEVE_LIMIT:
            raise DomainError(
                f"range [{lo}, {hi}] spans {hi - lo + 1} integers, past the {_SIEVE_LIMIT} guard"
            )
        return cls(tuple(range(lo, hi + 1)), label=f"range[{lo},{hi}]")

    @classmethod
    def from_values(cls, values, label: str = "list") -> "Sequence":
        return cls(tuple(values), label=label)

    def __len__(self) -> int:
        return len(self.elements)


class Question:
    """Base for the supported yes/no questions. The ``factored`` ones implement
    read(), every element's answer from the sequence's factorization; the
    others implement evaluate(), one element's answer."""

    factored = False

    def evaluate(self, s: int) -> int:
        raise NotImplementedError

    def read(self, factored: Factorization) -> list[int]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class RecurrenceMembership(Question):
    """Does s belong to the orbit x_0 = 1, x_{k+1} = p*x_k + q?

    Ground truth is genuine orbit membership; the congruence oracle used by
    the witness relation answers a different question on purpose.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 2:
            raise DomainError("recurrence multiplier p must be >= 2")
        if not 0 <= self.q < self.p:
            raise DomainError("recurrence offset q must satisfy 0 <= q < p")

    def evaluate(self, s: int) -> int:
        # orbit values ascend, so s is a member iff the last value <= s hits it
        return 1 if recurrence_orbit(self.p, self.q, s)[-1] == s else 0

    def describe(self) -> str:
        return f"recurrence(p={self.p},q={self.q})"


@dataclass(frozen=True)
class IsComposite(Question):
    factored = True

    def read(self, factored: Factorization) -> list[int]:
        # composite iff divisible by a pool prime other than itself
        bits = np.zeros(len(factored.elements), dtype=np.uint8)
        bits[factored.hit_element[factored.proper]] = 1
        return bits.tolist()

    def describe(self) -> str:
        return "composite"


@dataclass(frozen=True)
class MobiusPlusOne(Question):
    """Is mu(s) = +1? Only defined on squarefree arguments."""

    factored = True

    def read(self, factored: Factorization) -> list[int]:
        s = factored.first_square()
        if s is not None:
            raise DomainError(
                f"element {s}: mobius({s}) = 0; element outside the question's domain"
            )
        # mu = +1 iff the number of prime factors is even
        return (1 - factored.omega % 2).tolist()

    def describe(self) -> str:
        return "mobius-plus-one"


@dataclass(frozen=True)
class IsEven(Question):
    def evaluate(self, s: int) -> int:
        return 1 if s % 2 == 0 else 0

    def describe(self) -> str:
        return "even"


@dataclass(frozen=True)
class IsPrime(Question):
    def evaluate(self, s: int) -> int:
        return 1 if is_prime(s) else 0

    def describe(self) -> str:
        return "prime"


@dataclass(frozen=True)
class IdentityIn(Question):
    """Is s a member of a fixed target set?"""

    targets: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "targets", frozenset(self.targets))

    def evaluate(self, s: int) -> int:
        return 1 if s in self.targets else 0

    def describe(self) -> str:
        return f"identity({len(self.targets)} targets)"


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class BitString:
    """The answer bits of a question across a sequence, in element order."""

    bits: tuple[int, ...]
    elements: tuple[int, ...]
    # the factorization a factored question's bits were read from
    factored: Factorization | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.bits) != len(self.elements):
            raise DomainError("one bit per element required")
        if not {0, 1}.issuperset(self.bits):
            raise DomainError("bits must be 0 or 1")

    def text(self) -> str:
        # the bits are checked to be 0 or 1, so each is one byte to translate
        return bytes(self.bits).translate(_DIGITS).decode("ascii")

    def popcount(self) -> int:
        return sum(self.bits)

    def to_csv(self) -> str:
        lines = ["element,bit"]
        lines += [f"{e},{b}" for e, b in zip(self.elements, self.bits)]
        return "\n".join(lines) + "\n"

    def satisfying(self) -> "SatisfyingSet":
        return SatisfyingSet(tuple(compress(self.elements, self.bits)))


@dataclass(frozen=True)
class SatisfyingSet:
    """Elements answering 1, in sequence order."""

    elements: tuple[int, ...]

    @property
    def q(self) -> int:
        return len(self.elements)


def build_bitstring(seq: Sequence, question: Question) -> BitString:
    """Answer the question for every element; domain errors name the element.

    A factored question reads every answer off one factorization of the
    sequence, kept on the bitstring; the others answer element by element.
    """
    if question.factored:
        factored = factor_elements(seq.elements)
        bits = question.read(factored)
    else:
        # the sequence has checked every element, so each is answered directly
        factored = None
        bits = []
        for s in seq.elements:
            try:
                bits.append(question.evaluate(s))
            except DomainError as exc:
                raise DomainError(f"element {s}: {exc}") from exc
    return BitString(tuple(bits), seq.elements, factored)
