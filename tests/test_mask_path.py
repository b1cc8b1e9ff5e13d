"""The report path reads marked states from the oracle's marked cells and one amplitude.

``indexed_post_select(indexed_marking(indexed_prepare(...), oracle))`` in
``dense_reference`` is the support-indexed chain that builds those states.
These tests hold the cell path to it bit for bit: the amplitude
``marked_amplitude`` computes, the classification, and the support. The
chain's own checks (unit norm of each state, value registers equal to the
oracle's, weight only on flag 1 after post-selection) run here on every case,
since ``analyze`` builds no state that would carry them.
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    indexed_classify,
    indexed_marking,
    indexed_post_select,
    indexed_prepare,
    indexed_support,
    oracle_mask,
    oracle_of_pairs,
    pairs_of_oracle,
)
from qwitness.classify import classify_marked
from qwitness.cli import build_config, make_parser
from qwitness.cover import CoverKind, CoverSolution
from qwitness.errors import QubitCapError
from qwitness.pipeline import (
    _one_witness_each,
    analyze,
    coverage_check,
    cross_check,
    minimize_covered,
    quantum_stage,
    witness_stage,
)
from qwitness.quantum import (
    MarkedOracle,
    StateVector,
    grover_run,
    marked_amplitude,
)
from qwitness.sequences import IsComposite, MobiusPlusOne, RecurrenceMembership, Sequence
from reference_relations import relation_of_rows, relation_pairs

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
from workloads import DEFAULT_SEED, generate  # noqa: E402


def assert_mask_path_matches_dense(s_values, relation):
    """The cell path and the dense chain agree on one relation's marked state."""
    oracle = MarkedOracle.from_relation(s_values, relation)
    assert oracle.marked_count == len(relation.marked_pairs[0])
    assert_oracle_matches_dense(oracle)


def assert_oracle_matches_dense(oracle):
    prepared = indexed_prepare(oracle.s_values, oracle.w_values, cap=64)
    # Grover starts from the prepared state's flag-0 slice
    assert grover_run(oracle, 0)[1].tobytes() == prepared.amplitudes[:, :, 0].flatten().tobytes()
    if not oracle.marked_count:
        return
    post = indexed_post_select(indexed_marking(prepared, oracle))
    c = marked_amplitude(oracle)
    mask = oracle_mask(oracle)
    expected = np.where(mask, complex(c), 0j)
    assert post.amplitudes[:, :, 1].tobytes() == expected.tobytes()
    assert not post.amplitudes[:, :, 0].any()
    assert (indexed_support(post) == mask).all()
    assert classify_marked(oracle, c) == indexed_classify(post, oracle)


@st.composite
def relations(draw):
    """(s register, relation): up to 12 targets and 8 candidates, the s
    register holding the targets and a few more values in any order."""
    values = st.integers(min_value=0, max_value=300)
    targets = draw(st.lists(values, min_size=1, max_size=12, unique=True))
    extra = draw(st.lists(values.filter(lambda v: v not in targets), max_size=4, unique=True))
    s_values = draw(st.permutations(targets + extra))
    candidates = draw(st.lists(values, min_size=1, max_size=8, unique=True))
    rows = tuple(
        tuple(sorted(draw(st.sets(st.integers(0, len(candidates) - 1), max_size=len(candidates)))))
        for _ in targets
    )
    return s_values, relation_of_rows(targets, candidates, rows, "random")


@st.composite
def cut_readings(draw):
    """(s register, relation, assignment, cover) in the shape ``analyze`` cuts
    readings from: the s register holds the targets in target order, among
    extra values; the assignment gives every covered target one of its
    witnesses, and the chosen cover witnesses cover every covered target."""
    s_values, relation = draw(relations())
    at = {s: i for i, s in enumerate(s_values)}
    order = sorted(range(len(relation.targets)), key=lambda i: at[relation.targets[i]])
    rows = [relation.incidence[i] for i in order]
    targets = [relation.targets[i] for i in order]
    relation = relation_of_rows(targets, relation.candidates, rows, "random")
    covered = [(t, row) for t, row in zip(targets, rows) if row]
    assignment = {t: relation.candidates[draw(st.sampled_from(row))] for t, row in covered}
    chosen = draw(st.sets(st.integers(0, len(relation.candidates) - 1)))
    for _t, row in covered:
        if not chosen.intersection(row):
            chosen.add(draw(st.sampled_from(row)))
    cover = CoverSolution(
        tuple(relation.candidates[j] for j in sorted(chosen)), CoverKind.EXACT_MINIMUM
    )
    return s_values, relation, assignment, cover


def one_witness_each_by_rows(relation, assignment, cover):
    """The (s, w) pairs of a cut reading, row by row: the assigned witness of
    each covered target, else its first witness, in candidate order, that
    the cover chose."""
    pairs = set()
    for t, row in zip(relation.targets, relation.incidence):
        if not row:
            continue
        if assignment is not None:
            pairs.add((t, assignment[t]))
        else:
            witnesses = map(relation.candidates.__getitem__, row)
            pairs.add((t, next(w for w in witnesses if w in cover.chosen)))
    return pairs


class TestOracleCells:
    @given(relations())
    @settings(max_examples=200, deadline=None)
    def test_scattered_cells_are_the_pair_table(self, case):
        """The registers come in any order and with extra values, so the
        cells are sorted after the scatter."""
        s_values, relation = case
        oracle = MarkedOracle.from_relation(s_values, relation)
        table = oracle_of_pairs(s_values, relation.candidates, relation_pairs(relation))
        assert oracle.marked.tolist() == table.marked.tolist()
        assert oracle.marked_count == len(relation_pairs(relation))

    @given(cut_readings(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_cut_readings_match_a_per_row_reference(self, case, injective):
        s_values, relation, assignment, cover = case
        assignment = assignment if injective else None
        raw = MarkedOracle.from_relation(s_values, relation)
        cut = _one_witness_each(raw, assignment, cover)
        assert (cut.s_values, cut.w_values) == (raw.s_values, raw.w_values)
        expected = one_witness_each_by_rows(relation, assignment, cover)
        table = oracle_of_pairs(s_values, relation.candidates, expected)
        assert cut.marked.tolist() == table.marked.tolist()


class TestMatchesDenseChain:
    @given(relations())
    @settings(max_examples=300, deadline=None)
    def test_random_relations(self, case):
        assert_mask_path_matches_dense(*case)

    @pytest.mark.parametrize("workload", ["composite-range", "sparse-lists"])
    def test_every_default_seed_input(self, workload):
        """Each reading analyze takes: the relation, and the cover-based and
        the injective one-witness-per-target markings cut from its oracle."""
        _warmup, inputs = generate(workload, DEFAULT_SEED)
        distinct = list({tuple(argv): argv for argv in inputs}.values())
        compared = 0
        for argv in distinct:
            config = build_config(make_parser().parse_args(argv))
            seq = config.sequence
            _bits, relation, _faithful = witness_stage(seq, config.question)
            try:
                _layout, raw = quantum_stage(seq.elements, relation, config.options.qubit_cap)
            except QubitCapError:
                continue
            assert_mask_path_matches_dense(seq.elements, relation)
            mini = minimize_covered(
                relation, coverage_check(relation), config.options.exact_threshold
            )
            for assignment in (None, mini.assignment):
                picked = _one_witness_each(raw, assignment, mini.min_cover)
                assert (picked.s_values, picked.w_values) == (raw.s_values, raw.w_values)
                # one marked pair of the relation per covered target, nothing
                # else: the assigned witness, else the least chosen cover witness
                chosen = set(mini.min_cover.chosen)
                expected = set()
                for t, row in zip(relation.targets, relation.incidence):
                    if row:
                        ws = chosen.intersection(relation.candidates[j] for j in row)
                        expected.add((t, assignment[t] if assignment else min(ws)))
                assert pairs_of_oracle(picked) == expected
                assert_oracle_matches_dense(picked)
            compared += 1
        assert compared == len(distinct)


@pytest.mark.parametrize(
    "seq, question",
    [
        (Sequence.from_values((1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15), "sf"), MobiusPlusOne()),
        (Sequence.from_range(2, 100), IsComposite()),
        (Sequence.from_range(1, 20), RecurrenceMembership(3, 1)),
    ],
    ids=["mobius", "composite-2-100", "recurrence"],
)
def test_analyze_builds_no_state(monkeypatch, seq, question):
    def refuse(*_args, **_kwargs):
        raise AssertionError("analyze built a StateVector")

    monkeypatch.setattr(StateVector, "__post_init__", refuse)
    report = analyze(seq, question)
    assert report.randomness is not None
    assert cross_check(report) == []
