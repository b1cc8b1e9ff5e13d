from fractions import Fraction
from math import asin, pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from dense_reference import (
    basis_index,
    decode,
    indexed_amplitude,
    indexed_marking,
    indexed_norm,
    indexed_post_select,
    indexed_prepare,
    indexed_schmidt,
    pairs_of_oracle,
)
from qwitness.errors import DomainError, QubitCapError
from qwitness.number_theory import factor_elements
from qwitness.quantum import (
    MAX_PHASE_BITS,
    MarkedOracle,
    RegisterLayout,
    StateVector,
    counting_error_bound,
    grover_iterations_optimal,
    grover_run,
    quantum_count,
)
from qwitness.sequences import SatisfyingSet
from qwitness.witnesses import relation_composite, relation_identity, relation_mobius
from reference_relations import relation_pairs, witnesses_of


def synthetic_oracle(n, m_marked, w=1):
    """Oracle over s = 1..n, single witness column, first m_marked values marked."""
    s_values = tuple(range(1, n + 1))
    marked = frozenset((s, w) for s in s_values[:m_marked])
    return dense.oracle_of_pairs(s_values, (w,), marked)


def marked_mass(final, oracle):
    """Total probability on the oracle's marked (s, w) pairs of a flag-0 slice."""
    return float(np.sum(np.abs(final[oracle.marked]) ** 2))


def grover_state(oracle, k, layout):
    """The support-indexed state after k rounds: the final slice on flag 0."""
    shape = (len(oracle.s_values), len(oracle.w_values))
    amps = np.zeros((*shape, 2), dtype=np.complex128)
    amps[:, :, 0] = grover_run(oracle, k)[1].reshape(shape)
    return StateVector(amps, oracle.s_values, oracle.w_values, layout)


class TestLayout:
    def test_index_decode_round_trip(self):
        layout = RegisterLayout(4, 3)
        for s in (0, 5, 15):
            for w in (0, 3, 7):
                for f in (0, 1):
                    assert decode(layout, basis_index(layout, s, w, f)) == (s, w, f)

    def test_cap_enforced(self):
        with pytest.raises(QubitCapError):
            RegisterLayout.for_values([2**20], [3], cap=10)

    def test_zero_width_w_register(self):
        layout = RegisterLayout.for_values([1, 2, 3], [0])
        assert layout.w_qubits == 0
        assert decode(layout, basis_index(layout, 3, 0, 1)) == (3, 0, 1)


class TestPrepare:
    def test_two_by_one(self):
        state = indexed_prepare([1, 3], [1])
        assert indexed_amplitude(state, 1, 1, 0) == pytest.approx(1 / sqrt(2))
        assert indexed_amplitude(state, 3, 1, 0) == pytest.approx(1 / sqrt(2))

    def test_single_configuration(self):
        state = indexed_prepare([5], [2])
        assert indexed_amplitude(state, 5, 2, 0) == pytest.approx(1.0)

    def test_uniform_eight(self):
        state = indexed_prepare(range(2, 6), [2, 3])
        entries = state.to_json_entries()
        assert len(entries) == 8
        assert all(abs(complex(re, im)) == pytest.approx(1 / sqrt(8)) for _, re, im in entries)

    @pytest.mark.parametrize("s_values, w_values", [
        ((9, 2, 5), (7, 3)),  # 9 qubits: int64 indices
        ((1 << 60, 3, 7), (5, 1 << 40)),  # 103 qubits: Python int indices
    ], ids=["small", "past-64-bits"])
    def test_json_entries_in_basis_order(self, s_values, w_values):
        state = indexed_prepare(s_values, w_values, cap=128)
        oracle = dense.oracle_of_pairs(s_values, w_values, {(s_values[0], w_values[1])})
        state = indexed_marking(state, oracle)
        layout = state.layout
        expected = sorted(
            [basis_index(layout, s, w, f), indexed_amplitude(state, s, w, f).real, 0.0]
            for s in s_values for w in w_values for f in (0, 1)
            if indexed_amplitude(state, s, w, f)
        )
        entries = state.to_json_entries()
        assert entries == expected
        assert all(type(index) is int for index, _, _ in entries)

    def test_large_support_has_unit_norm(self):
        # 600k amplitudes: past the size where a BLAS-accumulated norm drifts by > 1e-12
        state = indexed_prepare(range(1, 2001), range(1, 301))
        assert abs(indexed_norm(state) - 1.0) < 1e-13

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            indexed_prepare([1, 1], [2])
        with pytest.raises(DomainError):
            indexed_prepare([1], [2, 2])


class TestMarking:
    def test_divisor_case(self):
        rel = relation_composite(factor_elements([4, 5]))
        oracle = MarkedOracle.from_relation([4, 5], rel)
        state = indexed_prepare([4, 5], [2])
        marked = indexed_marking(state, oracle)
        assert indexed_amplitude(marked, 4, 2, 1) == pytest.approx(1 / sqrt(2))
        assert indexed_amplitude(marked, 4, 2, 0) == 0
        assert indexed_amplitude(marked, 5, 2, 0) == pytest.approx(1 / sqrt(2))

    def test_all_false_is_identity(self):
        oracle = dense.oracle_of_pairs((1, 2), (3,), ())
        state = indexed_prepare([1, 2], [3])
        assert np.allclose(indexed_marking(state, oracle).amplitudes, state.amplitudes)

    def test_self_pair(self):
        rel = relation_identity(SatisfyingSet((6,)))
        oracle = MarkedOracle.from_relation([6], rel)
        state = indexed_prepare([6], [6])
        marked = indexed_marking(state, oracle)
        assert indexed_amplitude(marked, 6, 6, 1) == pytest.approx(1.0)

    def test_involution(self):
        oracle = synthetic_oracle(6, 3)
        state = indexed_prepare(range(1, 7), [1])
        twice = indexed_marking(indexed_marking(state, oracle), oracle)
        assert np.allclose(twice.amplitudes, state.amplitudes)

    def test_support_mismatch(self):
        oracle = synthetic_oracle(2, 1)
        state = indexed_prepare([1, 2, 3], [1])
        with pytest.raises(DomainError):
            indexed_marking(state, oracle)


class TestIterationCount:
    @pytest.mark.parametrize("n,m,expected", [(4, 1, 1), (8, 2, 1), (16, 16, 0)])
    def test_examples(self, n, m, expected):
        assert grover_iterations_optimal(n, m) == expected

    def test_zero_marked_rejected(self):
        with pytest.raises(DomainError):
            grover_iterations_optimal(4, 0)


class TestAmplify:
    def test_four_one_hits_certainty(self):
        oracle = synthetic_oracle(4, 1)
        out = grover_run(oracle, 1)[1]
        assert marked_mass(out, oracle) == pytest.approx(1.0, abs=1e-9)

    def test_zero_iterations_is_uniform(self):
        oracle = synthetic_oracle(8, 3)
        out = grover_run(oracle, 0)[1]
        assert marked_mass(out, oracle) == pytest.approx(3 / 8)

    def test_eight_two_hits_certainty(self):
        oracle = synthetic_oracle(8, 2)
        out = grover_run(oracle, 1)[1]
        assert marked_mass(out, oracle) == pytest.approx(1.0, abs=1e-9)

    @given(
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=60)
    def test_closed_form(self, n, m, k):
        m = min(m, n)
        oracle = synthetic_oracle(n, m)
        out = grover_run(oracle, k)[1]
        theta = asin(sqrt(m / n))
        assert marked_mass(out, oracle) == pytest.approx(
            sin((2 * k + 1) * theta) ** 2, abs=1e-9
        )
        assert float(np.sum(np.abs(out) ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_trace_matches_pointwise(self):
        oracle = synthetic_oracle(4, 1)
        trace = grover_run(oracle, 2)[0]
        assert trace[0] == pytest.approx(0.25)
        assert trace[1] == pytest.approx(1.0, abs=1e-9)
        for k, p in enumerate(trace):
            out = grover_run(oracle, k)[1]
            assert marked_mass(out, oracle) == pytest.approx(p, abs=1e-12)


class TestCounting:
    def test_half_marked_is_exact(self):
        oracle = synthetic_oracle(4, 2)
        est = quantum_count(oracle, phase_bits=2)
        assert est.exact
        assert est.phase == Fraction(1, 4)
        assert est.probability == pytest.approx(1.0, abs=1e-9)
        assert est.estimated_m == 2.0

    def test_nothing_marked(self):
        oracle = synthetic_oracle(4, 0)
        est = quantum_count(oracle, phase_bits=3)
        assert est.exact
        assert est.phase == Fraction(0, 1)
        assert est.estimated_m == 0.0

    def test_all_marked(self):
        oracle = synthetic_oracle(8, 8)
        est = quantum_count(oracle, phase_bits=3)
        assert est.exact
        assert est.phase == Fraction(1, 2)
        assert est.estimated_m == 8.0

    def test_four_one_t8(self):
        oracle = synthetic_oracle(4, 1)
        est = quantum_count(oracle, phase_bits=8)
        assert abs(est.estimated_m - 1) < 0.2
        assert not est.exact

    def test_within_error_bound_over_small_supports(self):
        for n in (2, 3, 5, 8, 13, 21, 32):
            for m in range(0, n + 1, max(1, n // 4)):
                oracle = synthetic_oracle(n, m)
                est = quantum_count(oracle, phase_bits=10)
                bound = counting_error_bound(n, m, 10)
                assert abs(est.estimated_m - m) <= bound, (n, m, est)

    @pytest.mark.parametrize("t", [0, MAX_PHASE_BITS + 1, 40])
    def test_phase_register_bounded_before_allocation(self, t):
        with pytest.raises(DomainError):
            quantum_count(synthetic_oracle(4, 2), phase_bits=t)

    @pytest.mark.parametrize(
        "n,m,t", [(8, 2, 4), (16, 3, 6), (32, 5, 8), (20, 7, 5), (24, 11, 7)]
    )
    def test_matches_analytic_eigenphase_kernel(self, n, m, t):
        # independent route: the uniform state splits evenly between the two
        # rotation eigenvectors, so the register distribution is a pair of
        # Fejer-style kernels centred on the eigenphase and its mirror
        phi = asin(sqrt(m / n)) / pi

        def kern(delta):
            d = delta - round(delta)
            if abs(d) < 1e-15:
                return 1.0
            return (sin(2**t * pi * d) ** 2) / ((4**t) * sin(pi * d) ** 2)

        probs = [
            0.5 * kern(phi - k / 2**t) + 0.5 * kern((1 - phi) - k / 2**t)
            for k in range(2**t)
        ]
        folded = {}
        for k, p in enumerate(probs):
            kc = min(k, 2**t - k)
            folded[kc] = folded.get(kc, 0.0) + p
        k_best = max(folded, key=folded.get)

        est = quantum_count(synthetic_oracle(n, m), phase_bits=t)
        assert est.phase == Fraction(k_best, 2**t)
        assert est.probability == pytest.approx(folded[k_best], abs=1e-9)
        assert est.estimated_m == pytest.approx(n * sin(pi * k_best / 2**t) ** 2, abs=1e-9)

    def test_shortcut_counts_pairs(self):
        rel = relation_composite(factor_elements(range(2, 31)))
        oracle = MarkedOracle.from_relation(range(2, 31), rel)
        assert len(pairs_of_oracle(oracle)) == len(relation_pairs(rel))

    def test_scattered_mask_is_the_pair_table(self):
        rel = relation_composite(factor_elements(range(2, 31)))
        s_values = tuple(range(30, 1, -1))  # any order of the s register
        oracle = MarkedOracle.from_relation(s_values, rel)
        by_pairs = dense.oracle_of_pairs(s_values, rel.candidates, relation_pairs(rel))
        assert oracle.marked.tobytes() == by_pairs.marked.tobytes()
        pairs = frozenset(relation_pairs(rel))
        assert pairs_of_oracle(oracle) == pairs_of_oracle(by_pairs) == pairs
        assert oracle.marked_count == len(relation_pairs(rel))

    def test_targets_outside_the_register_are_refused(self):
        rel = relation_composite(factor_elements([5, 6, 9]))
        with pytest.raises(DomainError, match=r"marked pair \(9, 3\) outside the S x W support"):
            MarkedOracle.from_relation([5, 6], rel)
        with pytest.raises(DomainError, match=r"marked pair \(9, 3\) outside the S x W support"):
            dense.oracle_of_pairs([5, 6], rel.candidates, relation_pairs(rel))
        # a target without witnesses marks nothing, so it may be absent
        rel = relation_mobius(factor_elements([1, 2, 3, 6]))
        assert witnesses_of(rel, 1) == ()
        assert pairs_of_oracle(MarkedOracle.from_relation([2, 3, 6], rel)) == {(6, 2), (6, 3)}


class TestOracleCells:
    def test_no_cells_mark_nothing(self):
        oracle = MarkedOracle((1, 2), (3, 4, 5), np.array([], dtype=np.intp))
        assert oracle.marked_count == 0
        assert pairs_of_oracle(oracle) == frozenset()

    @pytest.mark.parametrize(
        "cells, text",
        [
            ([0, 2, 2, 4], r"marked cell 2 repeats"),
            ([0, 3, 1], r"marked cells out of order: 3 before 1"),
            ([1, 6], r"marked cell 6 outside the 2 x 3 support"),
            ([-1, 2], r"marked cell -1 outside the 2 x 3 support"),
        ],
        ids=["repeat", "order", "past-the-end", "negative"],
    )
    def test_malformed_cells_are_refused(self, cells, text):
        with pytest.raises(DomainError, match=text):
            MarkedOracle((1, 2), (3, 4, 5), np.array(cells, dtype=np.intp))


class TestPostSelect:
    def test_uniform_marked_pairs(self):
        oracle = synthetic_oracle(4, 4)
        state = indexed_marking(indexed_prepare(range(1, 5), [1]), oracle)
        kept = indexed_post_select(state)
        for s in range(1, 5):
            assert abs(indexed_amplitude(kept, s, 1, 1)) == pytest.approx(0.5)

    def test_single_marked_pair(self):
        oracle = synthetic_oracle(3, 1)
        state = indexed_marking(indexed_prepare(range(1, 4), [1]), oracle)
        kept = indexed_post_select(state)
        assert abs(indexed_amplitude(kept, 1, 1, 1)) == pytest.approx(1.0)

    def test_identity_relation_gives_paired_form(self):
        rel = relation_identity(SatisfyingSet((1, 6, 10, 14)))
        oracle = MarkedOracle.from_relation([1, 6, 10, 14], rel)
        state = indexed_marking(
            indexed_prepare([1, 6, 10, 14], [1, 6, 10, 14]), oracle
        )
        kept = indexed_post_select(state)
        for s in (1, 6, 10, 14):
            assert abs(indexed_amplitude(kept, s, s, 1)) == pytest.approx(1 / 2)

    def test_zero_marked_probability_rejected(self):
        state = indexed_prepare([1, 2], [1])
        with pytest.raises(DomainError):
            indexed_post_select(state)


@st.composite
def small_oracles(draw):
    """Random oracle over up to 6 x 6 distinct values in any order."""
    values = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6, unique=True)
    s_values = tuple(draw(values))
    w_values = tuple(draw(values))
    pairs = [(s, w) for s in s_values for w in w_values]
    marked = draw(st.sets(st.sampled_from(pairs)))
    return dense.oracle_of_pairs(s_values, w_values, frozenset(marked))


def assert_same_state(new, old):
    """Support-indexed amplitudes equal the dense ones at their basis indices."""
    index = np.array([
        [[basis_index(new.layout, s, w, f) for f in (0, 1)] for w in new.w_values]
        for s in new.s_values
    ])
    assert new.amplitudes.shape == (len(new.s_values), len(new.w_values), 2)
    assert np.allclose(new.amplitudes, old.amplitudes[index], rtol=0, atol=1e-12)
    rest = old.amplitudes.copy()
    rest[index.ravel()] = 0
    assert not rest.any()


class TestMatchesDenseReference:
    @given(
        small_oracles(),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_oracles(self, oracle, k, t):
        s_values, w_values = oracle.s_values, oracle.w_values
        new = indexed_prepare(s_values, w_values, cap=64)
        old = dense.prepare_superposition(s_values, w_values, cap=64)
        assert_same_state(new, old)
        assert_same_state(indexed_marking(new, oracle), dense.apply_marking(old, oracle))
        assert_same_state(grover_state(oracle, k, new.layout), dense.grover_amplify(old, oracle, k))
        assert np.allclose(
            grover_run(oracle, k)[0], dense.grover_trace(old, oracle, k), rtol=0, atol=1e-12
        )
        assert new.to_json_entries() == [
            [i, pytest.approx(re, abs=1e-12), pytest.approx(im, abs=1e-12)]
            for i, re, im in old.to_json_entries()
        ]

        count = quantum_count(oracle, t)
        reference = dense.quantum_count(oracle, t)
        assert count.phase == reference.phase
        assert count.estimated_m == reference.estimated_m
        assert count.exact == reference.exact
        assert count.probability == pytest.approx(reference.probability, abs=1e-12)

        if oracle.marked_count:
            post = indexed_post_select(indexed_marking(new, oracle))
            post_old = dense.post_select_flag(dense.apply_marking(old, oracle))
            assert_same_state(post, post_old)
            spectrum, spectrum_old = indexed_schmidt(post), dense.schmidt(post_old)
            assert spectrum.rank == spectrum_old.rank
            assert np.allclose(
                spectrum.coefficients, spectrum_old.coefficients, rtol=0, atol=1e-12
            )
