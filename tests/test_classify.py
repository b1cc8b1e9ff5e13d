from math import log2, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from dense_reference import (
    indexed_classify,
    indexed_marking,
    indexed_post_select,
    indexed_prepare,
    indexed_schmidt,
    pairs_of_oracle,
)
from qwitness.classify import RandomnessRegime, SchmidtSpectrum, entanglement_entropy
from qwitness.errors import DomainError
from qwitness.number_theory import factor_elements, squarefree_support
from qwitness.quantum import MarkedOracle, RegisterLayout, StateVector
from qwitness.sequences import SatisfyingSet, Sequence
from qwitness.witnesses import (
    relation_composite,
    relation_identity,
    relation_mobius,
    relation_recurrence,
)
from reference_relations import relation_of_rows, restrict_targets


def block_relation(blocks):
    """blocks maps witness value -> element values; one witness per element."""
    targets = sorted(s for elems in blocks.values() for s in elems)
    candidates = tuple(sorted(blocks))
    index = {w: j for j, w in enumerate(candidates)}
    row_of = {s: (index[w],) for w, elems in blocks.items() for s in elems}
    return relation_of_rows(targets, candidates, (row_of[t] for t in targets), "block fixture")


def marked_state(relation, s_values=None):
    """prepare -> mark -> post-select: the uniform state over the marked pairs."""
    if s_values is None:
        s_values = relation.targets
    oracle = MarkedOracle.from_relation(s_values, relation)
    state = indexed_prepare(s_values, relation.candidates)
    return indexed_post_select(indexed_marking(state, oracle)), oracle


class TestSchmidt:
    def test_single_witness_form_is_rank_one(self):
        rel = block_relation({7: [1, 2, 3, 4, 5]})
        state, _ = marked_state(rel)
        spec = indexed_schmidt(state)
        assert spec.rank == 1
        assert spec.coefficients[0] == pytest.approx(1.0)

    def test_paired_form_rank_four(self):
        rel = relation_identity(SatisfyingSet((1, 2, 3, 4)))
        state, _ = marked_state(rel)
        spec = indexed_schmidt(state)
        assert spec.rank == 4
        assert spec.coefficients == pytest.approx((0.5, 0.5, 0.5, 0.5))

    def test_two_blocks_of_two(self):
        rel = block_relation({1: [3, 4], 2: [5, 6]})
        state, _ = marked_state(rel)
        spec = indexed_schmidt(state)
        assert spec.rank == 2
        assert spec.coefficients == pytest.approx((1 / sqrt(2), 1 / sqrt(2)))

    def test_mixed_flag_rejected(self):
        state = indexed_prepare([1, 2], [1])
        oracle = dense.oracle_of_pairs((1, 2), (1,), {(1, 1)})
        with pytest.raises(DomainError):
            indexed_schmidt(indexed_marking(state, oracle))

    def test_prepared_state_is_product(self):
        # flag uniformly 0 is fine; uniform product state has rank 1
        spec = indexed_schmidt(indexed_prepare([1, 2, 3], [1, 2]))
        assert spec.rank == 1


class TestEntropy:
    def test_rank_one(self):
        assert entanglement_entropy(SchmidtSpectrum((1.0,), 1)) == 0.0

    def test_uniform_rank_four(self):
        spec = SchmidtSpectrum((0.5, 0.5, 0.5, 0.5), 4)
        assert entanglement_entropy(spec) == pytest.approx(2.0)

    def test_uniform_rank_two(self):
        spec = SchmidtSpectrum((1 / sqrt(2), 1 / sqrt(2)), 2)
        assert entanglement_entropy(spec) == pytest.approx(1.0)


class TestClassify:
    def test_single_witness_relation(self):
        rel = relation_recurrence(Sequence.from_range(1, 20), 2, 1)
        state, oracle = marked_state(rel, s_values=Sequence.from_range(1, 20).elements)
        cls = indexed_classify(state, oracle)
        assert cls.regime is RandomnessRegime.NO_RANDOMNESS
        assert cls.entropy_bits < 1e-9
        assert cls.blocks is not None and len(cls.blocks) == 1

    def test_identity_relation(self):
        rel = relation_identity(SatisfyingSet((1, 6, 10, 14)))
        state, oracle = marked_state(rel)
        cls = indexed_classify(state, oracle)
        assert cls.regime is RandomnessRegime.MAXIMAL
        assert cls.entropy_bits == pytest.approx(2.0, abs=1e-9)

    def test_multi_witness_support_is_non_canonical(self):
        seq = Sequence.from_values(squarefree_support(25), "sf")
        rel = relation_mobius(factor_elements(seq.elements))
        covered = restrict_targets(
            rel, (t for t, row in zip(rel.targets, rel.incidence) if row)
        )
        state, oracle = marked_state(covered, s_values=seq.elements)
        cls = indexed_classify(state, oracle)
        assert cls.regime is RandomnessRegime.NON_CANONICAL

    def test_blocks_recovered(self):
        rel = block_relation({2: [4, 6, 8], 3: [9, 15]})
        state, oracle = marked_state(rel)
        cls = indexed_classify(state, oracle)
        assert cls.regime is RandomnessRegime.PARTIAL
        assert cls.blocks == ((2, (4, 6, 8)), (3, (9, 15)))
        assert cls.entropy_bits == pytest.approx(
            -(3 / 5) * log2(3 / 5) - (2 / 5) * log2(2 / 5), abs=1e-9
        )

    @pytest.mark.parametrize("l", range(1, 17))
    def test_identity_all_sizes_maximal(self, l):
        rel = relation_identity(SatisfyingSet(tuple(range(1, l + 1))))
        state, oracle = marked_state(rel)
        cls = indexed_classify(state, oracle)
        assert cls.regime is RandomnessRegime.MAXIMAL
        assert cls.entropy_bits == pytest.approx(log2(l) if l > 1 else 0.0, abs=1e-9)
        assert indexed_schmidt(state).rank == l

    @pytest.mark.parametrize("l", range(2, 17))
    def test_single_witness_all_sizes(self, l):
        rel = block_relation({3: list(range(4, 4 + l))})
        state, oracle = marked_state(rel)
        cls = indexed_classify(state, oracle)
        assert cls.regime is RandomnessRegime.NO_RANDOMNESS
        assert cls.entropy_bits < 1e-9

    def test_relabeling_witnesses_changes_nothing(self):
        base = {1: [10, 11], 2: [12, 13], 3: [14]}
        relabeled = {7: [10, 11], 4: [12, 13], 2: [14]}
        out = []
        for block_map in (base, relabeled):
            rel = block_relation(block_map)
            state, oracle = marked_state(rel)
            cls = indexed_classify(state, oracle)
            out.append((cls.regime, indexed_schmidt(state).rank, round(cls.entropy_bits, 12)))
        assert out[0] == out[1]

    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=9),
            st.integers(min_value=1, max_value=4),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_counts_witnesses_and_entropy_bounded(self, sizes):
        # build disjoint blocks: witness w gets sizes[w] fresh elements
        nxt = 20
        blocks = {}
        for w, size in sorted(sizes.items()):
            blocks[w] = list(range(nxt, nxt + size))
            nxt += size
        rel = block_relation(blocks)
        state, oracle = marked_state(rel)
        spec = indexed_schmidt(state)
        assert spec.rank == len(blocks)
        n_s = sum(len(v) for v in blocks.values())
        cls = indexed_classify(state, oracle)
        assert cls.entropy_bits <= log2(min(n_s, len(blocks))) + 1e-9


@st.composite
def states_and_relations(draw):
    """A relation over random value registers, and a state on those registers.

    The state is either the relation's own post-selected marked state, or hand
    built: the marked pairs or any others, on either flag or both, with
    uniform magnitudes under random phases or with magnitudes 1..3.
    """
    values = st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6, unique=True)
    s_values, w_values = tuple(draw(values)), tuple(draw(values))
    cells = [(i, j) for i in range(len(s_values)) for j in range(len(w_values))]
    if draw(st.booleans()):  # one witness per element, the canonical family
        columns = st.sampled_from(range(len(w_values)))
        marked = {(i, draw(columns)) for i in draw(st.sets(st.sampled_from(range(len(s_values)))))}
    else:
        marked = draw(st.sets(st.sampled_from(cells)))
    rows = sorted({i for i, _ in marked} | draw(st.sets(st.sampled_from(range(len(s_values))))))
    relation = relation_of_rows(
        (s_values[i] for i in rows),
        w_values,
        (sorted(j for k, j in marked if k == i) for i in rows),
        "random",
    )
    oracle = MarkedOracle.from_relation(s_values, relation)
    kind = draw(st.sampled_from(["post-selected", "uniform", "free"]))
    if kind == "post-selected" and marked:
        state = indexed_post_select(indexed_marking(indexed_prepare(s_values, w_values), oracle))
        return state, relation, oracle
    if marked and draw(st.booleans()):
        occupied = marked
    else:
        occupied = draw(st.sets(st.sampled_from(cells), min_size=1))
    flags = draw(st.sampled_from([(1,), (1,), (0,), (0, 1)]))
    amps = np.zeros((len(s_values), len(w_values), 2), dtype=np.complex128)
    for i, j in sorted(occupied):
        for f in flags:
            if kind == "free":
                amps[i, j, f] = draw(st.integers(min_value=1, max_value=3))
            else:
                amps[i, j, f] = draw(st.sampled_from([1, -1, 1j, -1j]))
    amps /= sqrt(float(np.sum(np.abs(amps) ** 2)))
    layout = RegisterLayout.for_values(s_values, w_values, cap=64)
    return StateVector(amps, s_values, w_values, layout), relation, oracle


def outcome(fn, state, marking):
    """Everything a classifier reports, or the message of the error it raises."""
    try:
        cls = fn(state, marking)
    except DomainError as exc:
        return f"DomainError: {exc}"
    return cls.regime, cls.blocks, cls.entropy_bits, cls.spectrum


class TestMatchesPerPairReference:
    @given(states_and_relations())
    @settings(max_examples=300, deadline=None)
    def test_random_states(self, case):
        state, relation, oracle = case
        assert outcome(indexed_classify, state, oracle) == outcome(
            dense.classify_per_pair, state, relation
        )

    @pytest.mark.parametrize(
        "seq, relation_of",
        [
            (Sequence.from_values(squarefree_support(25), "sf"),
             lambda seq: relation_mobius(factor_elements(seq.elements))),
            (Sequence.from_range(2, 60),
             lambda seq: relation_composite(factor_elements(seq.elements))),
            (Sequence.from_range(1, 30), lambda seq: relation_recurrence(seq, 3, 1)),
        ],
        ids=["mobius-sf25", "composite-2-60", "recurrence-1-30"],
    )
    def test_relation_supports(self, seq, relation_of):
        rel = relation_of(seq)
        state, oracle = marked_state(rel, s_values=seq.elements)
        assert outcome(indexed_classify, state, oracle) == outcome(
            dense.classify_per_pair, state, rel
        )

    def test_registers_must_match_the_oracle(self):
        state, oracle = marked_state(block_relation({2: [4], 3: [6]}))
        reordered = dense.oracle_of_pairs(
            state.s_values[::-1], state.w_values, pairs_of_oracle(oracle)
        )
        with pytest.raises(DomainError, match="state value registers differ"):
            indexed_classify(state, reordered)
