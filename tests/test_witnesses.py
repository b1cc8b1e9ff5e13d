import json
from math import isqrt

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_relations as reference
from qwitness.errors import DomainError
from qwitness.number_theory import factor_elements, recurrence_orbit, squarefree_support
from qwitness.sequences import (
    IsComposite,
    MobiusPlusOne,
    SatisfyingSet,
    Sequence,
    build_bitstring,
)
from qwitness.witnesses import (
    WitnessRelation,
    coverage_check,
    relation_composite,
    relation_identity,
    relation_mobius,
    relation_recurrence,
)
from reference_numbers import is_composite, mobius, primes_upto
from reference_relations import relation_pairs, witnesses_of


def sf_seq(n):
    return Sequence.from_values(squarefree_support(n), label=f"sf{n}")


LIST_MAX = 20_000
SMALL_PRIMES = primes_upto(97)
# every prime here exceeds sqrt(LIST_MAX), so it is a cofactor the pool cannot reach
LARGE_PRIMES = [p for p in primes_upto(LIST_MAX // 2) if p * p > LIST_MAX]


@st.composite
def factor_rich_lists(draw, squarefree=False):
    """Ascending lists below LIST_MAX holding 1, a prime at or below sqrt(max),
    a prime square (unless squarefree), an element with a prime cofactor above
    sqrt(max), and pairs b, b*p so that prime quotients occur."""
    values = {1, *draw(st.sets(st.integers(1, LIST_MAX), max_size=40))}
    q = draw(st.sampled_from(LARGE_PRIMES))
    values.add(q * draw(st.integers(1, LIST_MAX // q).filter(lambda a: mobius(a) != 0)))
    values.add(draw(st.sampled_from(SMALL_PRIMES)) ** 2)
    for b, p in draw(st.lists(st.tuples(st.integers(1, 200), st.sampled_from(SMALL_PRIMES)),
                              max_size=8)):
        values |= {b, b * p}
    if squarefree:
        values = {v for v in values if mobius(v) != 0}
    values.add(draw(st.sampled_from(primes_upto(isqrt(max(values))) or [2])))
    return Sequence.from_values(sorted(values))


# primes just past 10^5; a semiprime 2q, 3q or 5q keeps such a q as its
# cofactor, far above the pool of its own small list
PAST_POOL_PRIMES = [p for p in primes_upto(101_000) if p > 100_000]


@st.composite
def wide_lists(draw):
    """Ascending lists holding 1, primes at or below sqrt(max), semiprimes whose
    larger factor is past 10^5, prime squares in about half of them (the rest
    are squarefree), and in about one in eight a value above 2^63."""
    squarefree = draw(st.booleans())
    values = {1, *draw(st.sets(st.integers(2, 3000), max_size=20))}
    values |= {p * q for p, q in draw(st.lists(
        st.tuples(st.sampled_from([2, 3, 5]), st.sampled_from(PAST_POOL_PRIMES)),
        min_size=1, max_size=4,
    ))}
    if squarefree:
        values = {v for v in values if mobius(v) != 0}
    else:
        values |= {p * p for p in draw(st.lists(st.sampled_from(SMALL_PRIMES), min_size=1,
                                                max_size=3))}
    values |= set(draw(st.lists(st.sampled_from(primes_upto(isqrt(max(values)))), min_size=1,
                                max_size=4)))
    if draw(st.integers(1, 8)) == 5:
        values.add(draw(st.integers(2**63, 2**64 - 1)))
    return Sequence.from_values(sorted(values))


class TestOnePassFactorization:
    """The divisibility pass against the scan builders and sympy."""

    @given(wide_lists())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_scan_builders_and_the_point_routes(self, seq):
        if seq.elements[-1] >= 2**63:
            # sqrt(max) lies past the sieve guard, so both factored questions
            # refuse the list before the sieve is allocated
            for question in (IsComposite(), MobiusPlusOne()):
                with pytest.raises(DomainError, match="exceeds the 200000000 guard"):
                    build_bitstring(seq, question)
            return
        factored = factor_elements(seq.elements)
        composite = build_bitstring(seq, IsComposite())
        assert composite.bits == tuple(int(is_composite(s)) for s in seq.elements)
        assert (
            relation_composite(factored).to_json_dict()
            == reference.relation_composite(seq).to_json_dict()
        )
        bad = [s for s in seq.elements if mobius(s) == 0]
        if bad:
            with pytest.raises(DomainError) as bits_error:
                build_bitstring(seq, MobiusPlusOne())
            assert str(bits_error.value) == (
                f"element {bad[0]}: mobius({bad[0]}) = 0; "
                "element outside the question's domain"
            )
            with pytest.raises(DomainError) as new:
                relation_mobius(factored)
            with pytest.raises(DomainError) as old:
                reference.relation_mobius(seq)
            assert str(new.value) == str(old.value) == f"element {bad[0]} is not squarefree"
        else:
            plus_one = build_bitstring(seq, MobiusPlusOne())
            assert plus_one.bits == tuple(int(mobius(s) == 1) for s in seq.elements)
            assert (
                relation_mobius(factored).to_json_dict()
                == reference.relation_mobius(seq).to_json_dict()
            )


class TestRecurrenceRelation:
    def test_odd_residues(self):
        rel = relation_recurrence(Sequence.from_range(1, 10), 2, 1)
        assert rel.candidates == (1,)
        assert rel.targets == (1, 3, 5, 7, 9)
        assert all(row == (0,) for row in rel.incidence)

    def test_empty_relation(self):
        rel = relation_recurrence(Sequence.from_values([2, 4, 6]), 2, 1)
        assert rel.targets == ()

    def test_congruence_diverges_from_orbit(self):
        rel = relation_recurrence(Sequence.from_range(1, 60), 3, 2)
        assert rel.targets == tuple(range(2, 60, 3))
        assert len(rel.targets) == 20
        orbit = recurrence_orbit(3, 2, 60)
        assert orbit == [1, 5, 17, 53]
        # the oracle misses the seed and marks non-orbit members
        assert 1 not in rel.targets
        assert 2 in rel.targets and 2 not in orbit

    @given(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=50)
    def test_targets_are_exactly_the_congruence_class(self, p, lo, span):
        q = lo % p
        seq = Sequence.from_range(lo, lo + span)
        rel = relation_recurrence(seq, p, q)
        assert rel.targets == tuple(s for s in seq.elements if s % p == q)
        assert len(rel.candidates) == 1


class TestCompositeRelation:
    def test_range_100(self):
        rel = relation_composite(factor_elements(range(2, 101)))
        assert rel.candidates == (2, 3, 5, 7)
        assert witnesses_of(rel, 49) == (7,)
        assert witnesses_of(rel, 30) == (2, 3, 5)

    def test_all_prime_sequence(self):
        rel = relation_composite(factor_elements([2, 3, 5, 7]))
        assert rel.targets == ()

    @given(factor_rich_lists())
    @settings(max_examples=150)
    def test_matches_the_scan_builder(self, seq):
        assert (
            relation_composite(factor_elements(seq.elements)).to_json_dict()
            == reference.relation_composite(seq).to_json_dict()
        )

    @pytest.mark.parametrize("hi", [2, 3, 4, 1500])
    def test_matches_the_scan_builder_on_ranges(self, hi):
        seq = Sequence.from_range(2, hi)
        assert (
            relation_composite(factor_elements(seq.elements)).to_json_dict()
            == reference.relation_composite(seq).to_json_dict()
        )

    @given(st.integers(min_value=4, max_value=400))
    @settings(max_examples=40)
    def test_every_composite_target_covered_and_no_prime_targets(self, hi):
        rel = relation_composite(factor_elements(range(2, hi + 1)))
        for t, row in zip(rel.targets, rel.incidence):
            assert is_composite(t)
            assert row, f"composite {t} has no witness"
        assert all(is_composite(t) or t in rel.candidates for t in rel.targets)
        assert set(rel.targets) == {s for s in range(2, hi + 1) if is_composite(s)}


class TestMobiusRelation:
    def test_paired_witnesses(self):
        rel = relation_mobius(factor_elements(squarefree_support(25)))
        assert witnesses_of(rel, 35) == (5, 7)
        assert witnesses_of(rel, 21) == (3, 7)

    def test_one_is_uncovered(self):
        rel = relation_mobius(factor_elements(squarefree_support(10)))
        assert witnesses_of(rel, 1) == ()
        assert 1 in coverage_check(rel).uncovered

    def test_non_squarefree_rejected(self):
        with pytest.raises(DomainError):
            relation_mobius(factor_elements([1, 2, 4]))

    def test_full_pool_retained(self):
        rel = relation_mobius(factor_elements(squarefree_support(10)))
        assert rel.full_pool == tuple(
            t for t in squarefree_support(10) if mobius(t) == -1
        )
        assert set(rel.candidates) <= set(rel.full_pool)

    @given(factor_rich_lists(squarefree=True))
    @settings(max_examples=150)
    def test_matches_the_scan_builder(self, seq):
        assert (
            relation_mobius(factor_elements(seq.elements)).to_json_dict()
            == reference.relation_mobius(seq).to_json_dict()
        )

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_matches_the_scan_builder_on_squarefree_prefixes(self, n):
        assert (
            relation_mobius(factor_elements(squarefree_support(n))).to_json_dict()
            == reference.relation_mobius(sf_seq(n)).to_json_dict()
        )

    @given(factor_rich_lists())
    @settings(max_examples=60)
    def test_rejects_the_same_first_element(self, seq):
        # every such list holds a prime square, so both builders must refuse it
        with pytest.raises(DomainError) as new:
            relation_mobius(factor_elements(seq.elements))
        with pytest.raises(DomainError) as old:
            reference.relation_mobius(seq)
        assert str(new.value) == str(old.value)

    @given(st.integers(min_value=4, max_value=60))
    @settings(max_examples=30)
    def test_witness_count_is_prime_omega(self, n):
        # targets above 1 have exactly one witness per prime factor, evenly many
        rel = relation_mobius(factor_elements(squarefree_support(n)))
        for t, row in zip(rel.targets, rel.incidence):
            if t == 1:
                continue
            omega = len(sympy.factorint(t))
            assert len(row) == omega
            assert omega % 2 == 0


class TestIdentityRelation:
    def test_bijective_pairing(self):
        rel = relation_identity(SatisfyingSet((1, 6, 10, 14)))
        assert rel.targets == rel.candidates == (1, 6, 10, 14)
        assert rel.incidence == ((0,), (1,), (2,), (3,))

    def test_empty(self):
        rel = relation_identity(SatisfyingSet(()))
        assert rel.targets == ()

    def test_singleton(self):
        rel = relation_identity(SatisfyingSet((42,)))
        assert relation_pairs(rel) == ((42, 42),)


class TestCoverageCheck:
    def test_mobius_triple_anomalies(self):
        rel = relation_mobius(factor_elements(squarefree_support(25)))
        report = coverage_check(rel)
        multi = {t for t, _ in report.multiply_witnessed}
        assert {15, 21, 35} <= multi
        shared = {w for w, _ in report.shared_witnesses}
        assert {3, 5, 7} <= shared

    def test_identity_has_no_anomalies(self):
        report = coverage_check(relation_identity(SatisfyingSet((1, 6))))
        assert report.uncovered == ()
        assert report.multiply_witnessed == ()
        assert report.shared_witnesses == ()

    def test_composite_shared_witness_two(self):
        report = coverage_check(relation_composite(factor_elements(range(2, 101))))
        assert (2, 49) in report.shared_witnesses


class TestRelationMechanics:
    def test_restrict_targets(self):
        rel = relation_mobius(factor_elements(squarefree_support(25)))
        rel = rel.restrict_targets({15, 21, 35})
        assert rel.targets == (15, 21, 35)
        assert witnesses_of(rel, 15) == (3, 5)

    def test_unknown_target_rejected(self):
        rel = relation_identity(SatisfyingSet((1, 2)))
        with pytest.raises(DomainError):
            witnesses_of(rel, 99)

    def test_json_round_trip(self):
        rel = relation_mobius(factor_elements(squarefree_support(13)))
        d = json.loads(json.dumps(rel.to_json_dict()))
        back = reference.relation_of_rows(
            d["targets"], d["candidates"], d["incidence"], d["oracle"], tuple(d["full_pool"])
        )
        assert back.to_json_dict() == rel.to_json_dict()
        assert [a.tolist() for a in back.marked_pairs] == [a.tolist() for a in rel.marked_pairs]

    def test_invalid_incidence_rejected(self):
        outside = "out of range for 2 targets and 1 candidates"
        cases = [
            # (candidates, target indices, candidate indices, message)
            ((2,), [0], [1], f"marked pair (0, 1) {outside}"),
            ((2,), [2], [0], f"marked pair (2, 0) {outside}"),
            ((2,), [0, -1], [0, 0], f"marked pair (-1, 0) {outside}"),
            ((2, 3), [0, 0], [1, 0], "marked pair (0, 0) out of order after (0, 1)"),
            ((2, 3), [1, 0], [0, 1], "marked pair (0, 1) out of order after (1, 0)"),
            ((2, 3), [0, 1, 1], [1, 0, 0], "marked pair (1, 0) repeated"),
            ((2, 3), [0, 0], [0], "marked pair 1 has only one index: "
             "2 target indices against 1 candidate indices"),
            ((2, 3), [0], [0, 1], "marked pair 1 has only one index: "
             "1 target indices against 2 candidate indices"),
        ]
        for candidates, target, candidate, message in cases:
            pairs = (np.array(target, dtype=np.intp), np.array(candidate, dtype=np.intp))
            with pytest.raises(DomainError) as exc:
                WitnessRelation((4, 6), candidates, pairs, "bad pairs")
            assert str(exc.value) == message
        with pytest.raises(DomainError) as exc:
            WitnessRelation((4,), (2,), (np.array([0.0]), np.array([0.5])), "float")
        assert str(exc.value) == (
            "marked pair indices must be integers, got float64 and float64, "
            "first pair (0.0, 0.5)"
        )

    def test_unordered_pools_are_checked_for_duplicates(self):
        pairs = (np.array([0]), np.array([1]))
        assert WitnessRelation((4,), (3, 2), pairs, "unordered").candidates == (3, 2)
        with pytest.raises(DomainError, match="duplicate-free"):
            WitnessRelation((4,), (3, 2, 3), pairs, "repeated")

    @given(st.integers(0, 4).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.lists(st.integers(-1, m), max_size=4).map(tuple), max_size=5)
    )))
    @settings(max_examples=300)
    def test_rows_are_checked_row_by_row(self, case):
        # the pairs run row by row; the first one out of range, or not past
        # the pair before it, is named
        m, rows = case
        pairs = [(i, j) for i, row in enumerate(rows) for j in row]
        expected = None
        for k, (i, j) in enumerate(pairs):
            if not 0 <= j < m:
                expected = (
                    f"marked pair ({i}, {j}) out of range for {len(rows)} targets "
                    f"and {m} candidates"
                )
            elif k and (i, j) == pairs[k - 1]:
                expected = f"marked pair ({i}, {j}) repeated"
            elif k and (i, j) < pairs[k - 1]:
                expected = f"marked pair ({i}, {j}) out of order after {pairs[k - 1]}"
            if expected is not None:
                break
        targets = tuple(range(100, 100 + len(rows)))
        arrays = (
            np.array([i for i, _ in pairs], dtype=np.intp),
            np.array([j for _, j in pairs], dtype=np.intp),
        )
        if expected is None:
            rel = WitnessRelation(targets, tuple(range(m)), arrays, "random")
            assert rel.incidence == tuple(rows)
        else:
            with pytest.raises(DomainError) as exc:
                WitnessRelation(targets, tuple(range(m)), arrays, "random")
            assert str(exc.value) == expected

    @given(st.integers(0, 5).flatmap(lambda m: st.tuples(
        st.just(m),
        st.lists(st.sets(st.integers(0, max(m - 1, 0)), max_size=m).map(sorted).map(tuple),
                 max_size=6),
        st.sets(st.integers(0, 5)),
    )))
    @settings(max_examples=200)
    def test_pairs_are_the_rows(self, case):
        m, rows, keep = case
        targets = tuple(range(100, 100 + len(rows)))
        pairs = (
            np.array([i for i, row in enumerate(rows) for _ in row], dtype=np.intp),
            np.array([j for row in rows for j in row], dtype=np.intp),
        )
        rel = WitnessRelation(targets, tuple(range(m)), pairs, "random")
        assert rel.incidence == tuple(rows)
        assert rel.witness_counts.tolist() == list(map(len, rows))
        kept = rel.restrict_targets(targets[i] for i in keep if i < len(rows))
        assert kept.targets == tuple(t for i, t in enumerate(targets) if i in keep)
        assert kept.incidence == tuple(row for i, row in enumerate(rows) if i in keep)
        d = json.loads(json.dumps(rel.to_json_dict()))
        back = reference.relation_of_rows(
            d["targets"], d["candidates"], d["incidence"], d["oracle"]
        )
        assert back.to_json_dict() == rel.to_json_dict()
        assert [a.tolist() for a in back.marked_pairs] == [a.tolist() for a in pairs]
