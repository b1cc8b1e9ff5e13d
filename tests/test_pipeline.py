import dataclasses
import json
import sys
from fractions import Fraction
from math import isqrt, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwitness.cover
import qwitness.number_theory
import qwitness.sequences
import qwitness.witnesses
from qwitness.cli import main
from qwitness.cover import Regime
from qwitness.errors import QubitCapError
from qwitness.number_theory import squarefree_support
from qwitness.pipeline import AnalyzeOptions, analyze, cross_check, quantum_stage, witness_stage
from qwitness.quantum import MarkedOracle, RegisterLayout, StateVector
from qwitness.sequences import (
    IdentityIn,
    IsComposite,
    IsEven,
    IsPrime,
    MobiusPlusOne,
    RecurrenceMembership,
    Sequence,
)
from reference_numbers import primes_upto


def sf_seq(n):
    return Sequence.from_values(squarefree_support(n), label=f"squarefree[{n}]")


class TestWorkedExamples:
    def test_recurrence(self):
        report = analyze(Sequence.from_range(1, 20), RecurrenceMembership(2, 1))
        assert report.verdict.m == 1
        assert report.verdict.q == 10 == report.q
        assert report.verdict.regime is Regime.COMPRESSIBLE
        assert report.randomness.regime == "NoRandomness"
        assert report.randomness.entropy_bits < 1e-9
        assert report.compression_ratio == Fraction(1, 10)
        # ground truth counts orbit members; the oracle counts residues
        assert report.bit_popcount == 4
        assert not report.relation.oracle_matches_question
        assert cross_check(report) == []

    def test_composite(self):
        report = analyze(Sequence.from_range(2, 100), IsComposite())
        assert report.verdict.m == 4
        assert report.verdict.q == 74 == report.q == report.bit_popcount
        assert report.verdict.regime is Regime.COMPRESSIBLE
        assert report.minimization.min_cover.chosen == (2, 3, 5, 7)
        assert report.randomness.basis == "assigned"
        assert report.randomness.regime == "Partial"
        assert len(report.randomness.blocks) == 4
        assert report.randomness_raw.regime == "NonCanonical"
        assert cross_check(report) == []

    def test_mobius(self):
        report = analyze(sf_seq(25), MobiusPlusOne())
        assert report.minimization.paradox
        assert report.to_dict()["paradox"]["resolution_applied"]  # written from paradox
        assert report.verdict.m == report.verdict.q == 12
        assert report.verdict.regime is Regime.INCOMPRESSIBLE
        assert report.randomness.basis == "resolved"
        assert report.randomness.regime == "Maximal"
        assert report.randomness.entropy_bits == pytest.approx(log2(12), abs=1e-9)
        assert report.randomness_raw.regime == "NonCanonical"
        # the one-witness-per-element reading is reported alongside
        assert report.randomness_assigned.regime == "Partial"
        assert report.compression_ratio == Fraction(1, 1)
        assert report.relation.uncovered == (1,)
        assert cross_check(report) == []

    def test_mobius_paradox_holds_for_smaller_supports(self):
        for n in (13, 20):
            assert analyze(sf_seq(n), MobiusPlusOne()).minimization.paradox, n

    def test_mobius_support_ten_compresses_without_deadlock(self):
        # {2} covers 6, 10, 14 exactly once, so the discard rule succeeds here
        report = analyze(sf_seq(10), MobiusPlusOne())
        assert not report.minimization.paradox
        assert report.verdict.m == 1
        assert report.verdict.q == 3  # covered targets; 1 stays uncovered
        assert report.verdict.regime is Regime.COMPRESSIBLE
        # primary follows the cover reading (one shared witness, no randomness);
        # the injective reading is reported alongside
        assert report.randomness.regime == "NoRandomness"
        assert report.randomness_assigned.regime == "Maximal"
        assert report.randomness_raw.regime == "NonCanonical"
        assert cross_check(report) == []


class TestInvariants:
    @pytest.mark.parametrize("hi", [50, 100, 400])
    def test_composite_cover_size_is_prime_pi_of_sqrt(self, hi):
        report = analyze(Sequence.from_range(2, hi), IsComposite())
        assert report.verdict.m == len(primes_upto(isqrt(hi)))

    def test_even_question_is_single_witness(self):
        report = analyze(Sequence.from_range(1, 16), IsEven())
        assert report.verdict.m == 1
        assert report.q == report.bit_popcount == 8
        assert report.randomness.regime == "NoRandomness"
        assert report.compression_ratio == Fraction(1, 8)
        assert cross_check(report) == []

    def test_prime_question_self_witnesses(self):
        report = analyze(Sequence.from_range(2, 30), IsPrime())
        assert report.verdict.m == report.verdict.q == 10
        assert report.randomness.regime == "Maximal"
        assert cross_check(report) == []

    def test_empty_satisfying_set_is_trivial(self):
        report = analyze(Sequence.from_range(1, 10), IdentityIn(frozenset()))
        assert report.verdict.m == report.verdict.q == 0
        assert report.compression_ratio is None
        assert report.randomness.basis == "trivial-empty"
        assert report.randomness.regime == "NoRandomness"
        # nothing to simulate: the witness register is empty, which is a note
        assert cross_check(report) == ["quantum stage skipped: no candidate witnesses"]

    def test_determinism(self):
        seq = Sequence.from_range(2, 60)
        a = analyze(seq, IsComposite())
        b = analyze(seq, IsComposite())
        assert a == b
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_errors_name_their_stage(self):
        from qwitness.errors import DomainError

        with pytest.raises(DomainError, match="bitstring stage: element 12"):
            analyze(Sequence.from_range(11, 13), MobiusPlusOne())


class TestCrossCheck:
    def test_tampered_m_is_flagged(self):
        report = analyze(Sequence.from_range(2, 100), IsComposite())
        # m = q = 74 contradicts the recorded Compressible regime
        tampered = dataclasses.replace(
            report, verdict=dataclasses.replace(report.verdict, m=report.verdict.q)
        )
        findings = cross_check(tampered)
        assert any("regime inconsistent" in f for f in findings)

    def test_skipped_quantum_is_a_note(self):
        report = analyze(
            Sequence.from_range(2, 100),
            IsComposite(),
            AnalyzeOptions(run_quantum=False),
        )
        findings = cross_check(report)
        assert findings == ["quantum stage skipped: disabled by options"]
        assert report.randomness is None

    def test_cap_exceeded_skips_gracefully(self):
        report = analyze(
            Sequence.from_range(2, 100), IsComposite(), AnalyzeOptions(qubit_cap=5)
        )
        assert report.quantum.skipped
        findings = cross_check(report)
        assert any(f.startswith("quantum stage skipped") for f in findings)

    def test_cap_is_checked_before_the_oracle_is_built(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the oracle was built past the qubit cap")

        monkeypatch.setattr(MarkedOracle, "from_relation", refuse)
        seq = Sequence.from_range(2, 100)
        _bits, relation, _faithful = witness_stage(seq, IsComposite())
        reason = "11 qubits needed (s:7 w:3 flag:1) exceeds cap 5"
        with pytest.raises(QubitCapError) as exc:
            quantum_stage(seq.elements, relation, 5)
        assert str(exc.value) == reason
        report = analyze(seq, IsComposite(), AnalyzeOptions(qubit_cap=5))
        assert report.quantum.skipped and report.quantum.reason == reason

    def test_counting_agrees_with_classical_tally(self):
        report = analyze(Sequence.from_range(2, 100), IsComposite())
        qb = report.quantum
        assert qb.marked_pairs == 113  # sum of small-prime divisors over composites
        assert report.to_dict()["quantum"]["classical_shortcut_count"] == 113
        assert abs(qb.counting.estimated_m - 113) < 25  # loose t=6 bound

    def test_recurrence_counting_is_exact(self):
        # half the support is marked, so the phase is exactly representable
        report = analyze(Sequence.from_range(1, 20), RecurrenceMembership(2, 1))
        assert report.quantum.counting.exact
        assert report.quantum.counting.estimated_m == 10.0


class TestEndToEndProperties:
    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=3, max_value=60),
        st.sampled_from(["composite", "even", "prime"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_faithful_questions_cross_check_clean(self, lo, span, kind):
        question = {"composite": IsComposite(), "even": IsEven(), "prime": IsPrime()}[kind]
        report = analyze(Sequence.from_range(lo, lo + span), question)
        findings = cross_check(report)
        # the only admissible finding is the informational skip note for
        # degenerate relations with nothing to mark
        assert all(f.startswith("quantum stage skipped") for f in findings)
        assert report.bit_popcount == report.q
        assert report.verdict.m <= report.verdict.q

    @given(st.integers(min_value=4, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_mobius_supports_cross_check_clean(self, n):
        report = analyze(sf_seq(n), MobiusPlusOne())
        findings = cross_check(report)
        # tiny supports have no witnesses at all, which is a skip note
        assert all(f.startswith("quantum stage skipped") for f in findings)
        if report.minimization.paradox:
            assert report.verdict.m == report.verdict.q == report.bit_popcount


class TestReportSerialization:
    def test_dict_has_stable_top_level_order(self):
        report = analyze(Sequence.from_range(2, 40), IsComposite())
        keys = list(report.to_dict())
        assert keys == [
            "sequence",
            "question",
            "bitstring",
            "bit_popcount",
            "q",
            "witness_relation",
            "covers",
            "paradox",
            "compressibility",
            "quantum",
            "randomness",
            "notes",
        ]

    def test_dict_is_json_ready(self):
        report = analyze(sf_seq(20), MobiusPlusOne())
        blob = json.dumps(report.to_dict())
        assert json.loads(blob) == report.to_dict()


class TestComputeOnce:
    COUNTED = (
        (qwitness.cover, "min_set_cover"),
        (qwitness.cover, "exact_cover"),
        (qwitness.cover, "unique_witness_assignment"),
        (qwitness.cover, "_simulate_discard"),
        (qwitness.sequences, "build_bitstring"),
        (qwitness.witnesses, "coverage_check"),
    )

    def counted(self, monkeypatch, counted=COUNTED):
        """Count calls at every qwitness module binding of each counted function."""
        calls = {}
        for module, name in counted:
            original = getattr(module, name)
            calls[name] = 0

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "qwitness" and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, wrapper)
        return calls

    @staticmethod
    def number_theory(*names):
        return [(qwitness.number_theory, name) for name in names]

    @pytest.mark.parametrize(
        "seq, question",
        [(sf_seq(25), MobiusPlusOne()), (Sequence.from_range(2, 100), IsComposite())],
        ids=["sf25-mobius", "composite-2-100"],
    )
    def test_each_solver_runs_at_most_once(self, monkeypatch, seq, question):
        calls = self.counted(monkeypatch)
        analyze(seq, question)
        assert all(n <= 1 for n in calls.values()), calls
        assert calls["min_set_cover"] == calls["build_bitstring"] == 1
        assert calls["coverage_check"] == 1

    def test_a_deadlock_is_replayed_from_the_pairs(self, monkeypatch):
        """The discard replay reads the pair arrays, and with more targets
        than witnesses the matching stops before it reads a row, so a
        deadlocked report never builds the per-target rows."""
        calls = self.counted(monkeypatch, [(qwitness.cover, "_simulate_discard")])
        rows = qwitness.witnesses.WitnessRelation.incidence
        reads = []

        def counted_rows(rel):
            reads.append(rel)
            return rows.__get__(rel, type(rel))

        monkeypatch.setattr(
            qwitness.witnesses.WitnessRelation, "incidence", property(counted_rows)
        )
        report = analyze(sf_seq(120), MobiusPlusOne(), AnalyzeOptions(run_quantum=False))
        # the minimized relation: 56 covered targets, 25 witnesses
        assert report.minimization.paradox
        assert report.minimization.verdict.q == 56
        assert report.relation.candidate_count == 25
        assert calls == {"_simulate_discard": 1}
        assert reads == []

    @pytest.mark.parametrize(
        "seq, question",
        [(sf_seq(25), MobiusPlusOne()), (Sequence.from_range(2, 100), IsComposite())],
        ids=["sf25-mobius", "composite-2-100"],
    )
    def test_elements_are_tested_once_and_nothing_is_sieved_to_max(
        self, monkeypatch, seq, question
    ):
        calls = self.counted(monkeypatch, self.number_theory(
            "is_prime", "_eratosthenes", "factor_elements"
        ))
        analyze(seq, question)
        assert calls == {
            "is_prime": 0, "_eratosthenes": 1, "factor_elements": 1,
        }

    @pytest.mark.parametrize("command", ["analyze", "witness", "simulate"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--squarefree", "25", "--question", "mobius-plus-one"],
            ["--range", "2", "100", "--question", "composite"],
        ],
        ids=["sf25-mobius", "composite-2-100"],
    )
    def test_every_view_factors_each_element_once(self, monkeypatch, tmp_path, command, argv):
        calls = self.counted(monkeypatch, self.number_theory(
            "is_prime", "_eratosthenes", "factor_elements"
        ))
        assert main([command, *argv, "--out", str(tmp_path / "out.json")]) == 0
        assert calls == {
            "is_prime": 0, "_eratosthenes": 1, "factor_elements": 1,
        }

    @pytest.mark.parametrize(
        "seq, question",
        [(sf_seq(25), MobiusPlusOne()), (Sequence.from_range(2, 100), IsComposite())],
        ids=["sf25-mobius", "composite-2-100"],
    )
    def test_one_schmidt_split_per_classification(self, monkeypatch, seq, question):
        module = sys.modules["qwitness.classify"]  # the package binds the name to the function
        names = ("classify_marked", "_schmidt_split")
        calls = self.counted(monkeypatch, [(module, name) for name in names])
        analyze(seq, question)
        assert calls["classify_marked"] >= 2
        assert calls["_schmidt_split"] == calls["classify_marked"], calls

    @pytest.mark.parametrize(
        "seq, question",
        [(sf_seq(25), MobiusPlusOne()), (Sequence.from_range(2, 100), IsComposite())],
        ids=["sf25-mobius", "composite-2-100"],
    )
    def test_states_are_read_as_grids(self, monkeypatch, seq, question):
        def per_pair(*_args, **_kwargs):
            raise AssertionError("analyze walked a state pair by pair")

        monkeypatch.setattr(StateVector, "to_json_entries", per_pair)
        assert cross_check(analyze(seq, question)) == []

    @pytest.mark.parametrize(
        "seq, question, built",
        [
            (
                Sequence.from_values((1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15), "sf"),
                MobiusPlusOne(),
                2,
            ),
            (Sequence.from_range(2, 100), IsComposite(), 1),
        ],
        ids=["mobius-list", "composite-2-100"],
    )
    def test_registers_and_oracles_are_built_for_the_raw_and_resolved_relations(
        self, monkeypatch, seq, question, built
    ):
        """The one-witness readings are cut from the raw oracle, so only the
        raw relation and, after a deadlock, the resolved one are scattered."""
        calls = {"from_relation": 0, "for_values": 0}
        for cls, name in ((MarkedOracle, "from_relation"), (RegisterLayout, "for_values")):

            def wrapper(_cls, *args, _fn=getattr(cls, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cls, name, classmethod(wrapper))
        report = analyze(seq, question)
        assert report.randomness_raw.regime == "NonCanonical"
        assert report.randomness_assigned is not None
        assert calls == {"from_relation": built, "for_values": built}

    def test_no_self_pairing_relation_without_the_quantum_stage(self, monkeypatch):
        calls = self.counted(monkeypatch, [(qwitness.witnesses, "relation_identity")])
        report = analyze(sf_seq(120), MobiusPlusOne(), AnalyzeOptions(run_quantum=False))
        assert report.minimization.paradox
        assert calls == {"relation_identity": 0}

    def test_simulate_runs_only_the_steps_it_prints(self, monkeypatch, tmp_path):
        module = sys.modules["qwitness.quantum"]
        names = ("grover_run", "quantum_count", "amplified_state")
        calls = self.counted(monkeypatch, [(module, name) for name in names])
        argv = ["simulate", "--range", "2", "100", "--question", "composite"]
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
        assert calls == {"grover_run": 1, "quantum_count": 1, "amplified_state": 1}
