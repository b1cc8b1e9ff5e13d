from bisect import bisect_right
from math import isqrt

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwitness.errors import DomainError
from qwitness.number_theory import recurrence_orbit, squarefree_support
from qwitness.sequences import (
    BitString,
    IdentityIn,
    IsComposite,
    IsEven,
    IsPrime,
    MobiusPlusOne,
    RecurrenceMembership,
    Sequence,
    build_bitstring,
)
from reference_numbers import is_composite, mobius, primes_upto


class TestSequence:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Sequence(())

    def test_rejects_non_ascending(self):
        with pytest.raises(DomainError):
            Sequence((1, 3, 3))
        with pytest.raises(DomainError):
            Sequence((5, 2))

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            Sequence((0, 1))

    def test_from_range(self):
        s = Sequence.from_range(2, 5)
        assert s.elements == (2, 3, 4, 5)

    def test_from_range_refuses_a_span_past_the_sieve_guard(self):
        with pytest.raises(DomainError, match=r"spans 1000000000000 integers, past the 200000000"):
            Sequence.from_range(1, 10**12)

    @pytest.mark.parametrize("elements, message", [
        ((5, 3, -1), "sequence element must be in [0, 2^64), got -1"),
        ((5, 3, 0), "sequence element 0 must be >= 1"),
        ((4, 2**64), "sequence element must be in [0, 2^64), got 18446744073709551616"),
        ((1, True), "sequence element must be an integer, got True"),
        ((1, "2"), "sequence element must be an integer, got '2'"),
        ((1, 3, 2, 2), "sequence must be strictly ascending (3 !< 2)"),
    ])
    def test_checks_name_the_first_offender(self, elements, message):
        # element checks run over all elements before the ascent check
        with pytest.raises(DomainError) as exc:
            Sequence(elements)
        assert str(exc.value) == message

    def test_int_subclasses_are_elements(self):
        class Tagged(int):
            pass

        assert Sequence((Tagged(1), 2, 2**64 - 1)).elements == (1, 2, 2**64 - 1)


class TestQuestionInvariants:
    def test_recurrence_parameter_bounds(self):
        with pytest.raises(DomainError):
            RecurrenceMembership(1, 0)
        with pytest.raises(DomainError):
            RecurrenceMembership(3, 3)
        RecurrenceMembership(2, 1)

    def test_mobius_domain_error_names_element(self):
        with pytest.raises(DomainError, match="element 12"):
            build_bitstring(Sequence.from_range(11, 13), MobiusPlusOne())


def answer(question, s):
    """The question's bit for s, as build_bitstring answers it."""
    return build_bitstring(Sequence((s,)), question).bits[0]


class TestAnswer:
    @pytest.mark.parametrize(
        "question,s,expected",
        [
            (MobiusPlusOne(), 6, 1),
            (IsEven(), 3, 0),
            (IsComposite(), 35, 1),
            (IsComposite(), 1, 0),
            (IsPrime(), 13, 1),
            (IdentityIn(frozenset({4})), 4, 1),
        ],
    )
    def test_examples(self, question, s, expected):
        assert answer(question, s) == expected

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=80)
    def test_recurrence_matches_orbit_membership(self, s):
        q = RecurrenceMembership(2, 1)
        assert answer(q, s) == (1 if s in recurrence_orbit(2, 1, s) else 0)


class TestBuildBitstring:
    def test_composite_range(self):
        bs = build_bitstring(Sequence.from_range(2, 12), IsComposite())
        assert bs.text() == "00101011101"

    def test_even_range(self):
        bs = build_bitstring(Sequence.from_range(1, 10), IsEven())
        assert bs.text() == "0101010101"

    def test_mobius_support(self):
        seq = Sequence.from_values(squarefree_support(10), label="sf10")
        bs = build_bitstring(seq, MobiusPlusOne())
        assert bs.text() == "1000101001"

    def test_deterministic(self):
        seq = Sequence.from_range(2, 40)
        a = build_bitstring(seq, IsComposite())
        b = build_bitstring(seq, IsComposite())
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_csv_shape(self):
        bs = build_bitstring(Sequence.from_range(2, 4), IsComposite())
        assert bs.to_csv() == "element,bit\n2,0\n3,0\n4,1\n"

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=2000))
    @example([])
    def test_text_joins_the_bits(self, bits):
        bits = tuple(bits)
        bs = BitString(bits, tuple(range(2, len(bits) + 2)))
        assert bs.text() == "".join(map(str, bits))

    def test_bitstring_validation(self):
        with pytest.raises(DomainError):
            BitString((0, 1), (2,))
        with pytest.raises(DomainError):
            BitString((2,), (2,))


# semiprimes whose smaller factor is at most 10^5, so the oracle factors them fast
ORACLE_POOL = primes_upto(10**5)
ROOT_PRIMES = primes_upto(10**6)


def next_prime(n):
    return sympy.nextprime(n - 1)


@st.composite
def factor_rich_lists(draw, squarefree=False):
    """Ascending lists below 10^12 holding 1, semiprimes p*q with p <= 1e5,
    primes at or below sqrt(max), an element b*Q whose prime cofactor Q lies
    above sqrt(max), and prime squares: at least one, or none when squarefree."""
    values = {1, *draw(st.sets(st.integers(1, 10**5), max_size=20))}
    for p, q in draw(st.lists(st.tuples(st.sampled_from(ORACLE_POOL),
                                        st.integers(2, 10**7)), min_size=1, max_size=4)):
        values.add(p * next_prime(q))
    squares = st.lists(st.sampled_from(ORACLE_POOL[:200]), min_size=int(not squarefree),
                       max_size=3)
    values |= {p * p for p in draw(squares)}
    top = max(values)
    root = isqrt(top)
    big = next_prime(root + 1 + draw(st.integers(0, root)))
    if big <= top:
        values.add(big * draw(st.integers(1, min(top // big, 10**5))))
    values |= set(draw(st.lists(st.sampled_from(ROOT_PRIMES[:200]), max_size=4)))
    values.add(ROOT_PRIMES[draw(st.integers(0, bisect_right(ROOT_PRIMES, root) - 1))])
    if squarefree:
        values = {v for v in values if mobius(v) != 0}
    return Sequence.from_values(sorted(values))


class TestFactoredAnswers:
    """Bits read off the factorization equal sympy's answers."""

    @given(factor_rich_lists())
    @settings(max_examples=60, deadline=None)
    def test_composite_matches_is_prime(self, seq):
        expected = tuple(int(is_composite(s)) for s in seq.elements)
        assert build_bitstring(seq, IsComposite()).bits == expected

    @given(factor_rich_lists(squarefree=True))
    @settings(max_examples=60, deadline=None)
    def test_mobius_plus_one_matches_mobius(self, seq):
        expected = tuple(int(mobius(s) == 1) for s in seq.elements)
        assert build_bitstring(seq, MobiusPlusOne()).bits == expected

    @given(factor_rich_lists())
    @settings(max_examples=60, deadline=None)
    def test_first_squared_factor_is_refused_with_the_point_text(self, seq):
        bad = [s for s in seq.elements if mobius(s) == 0]
        with pytest.raises(DomainError) as exc:
            build_bitstring(seq, MobiusPlusOne())
        assert str(exc.value) == (
            f"element {bad[0]}: mobius({bad[0]}) = 0; element outside the question's domain"
        )


class TestSatisfyingSet:
    def test_composite_range(self):
        sq = build_bitstring(Sequence.from_range(2, 12), IsComposite()).satisfying()
        assert sq.elements == (4, 6, 8, 9, 10, 12)
        assert sq.q == 6

    def test_empty_targets(self):
        sq = build_bitstring(Sequence.from_range(1, 10), IdentityIn(frozenset())).satisfying()
        assert sq.elements == ()
        assert sq.q == 0

    def test_mobius_support(self):
        seq = Sequence.from_values(squarefree_support(10), label="sf10")
        sq = build_bitstring(seq, MobiusPlusOne()).satisfying()
        assert sq.elements == (1, 6, 10, 14)
        assert sq.q == 4

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=150),
        st.sampled_from([IsComposite(), IsEven(), IsPrime()]),
    )
    @settings(max_examples=60)
    def test_popcount_equals_cardinality(self, lo, span, question):
        seq = Sequence.from_range(lo, lo + span)
        bits = build_bitstring(seq, question)
        assert bits.popcount() == bits.satisfying().q
