"""End-to-end analysis: from (sequence, question) to a randomness report.

The classical path (bitstring, witness relation, covers, verdict) is
authoritative; the quantum stage re-derives the marked-pair count by phase
estimation and the satisfying set by amplification, as cross-checks. The
witness deadlock, when detected, is resolved by self-pairing witnesses and
both the raw and the resolved classifications are reported.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import asin, sin, sqrt

import numpy as np

from .classify import RandomnessRegime, classify_marked
from .cover import (
    DEFAULT_EXACT_THRESHOLD,
    CompressibilityVerdict,
    CoverSolution,
    Minimization,
    Regime,
    minimize,
)
from .errors import DomainError, QubitCapError
from .quantum import (
    DEFAULT_PHASE_BITS,
    DEFAULT_QUBIT_CAP,
    CountEstimate,
    MarkedOracle,
    RegisterLayout,
    counting_error_bound,
    grover_iterations_optimal,
    grover_run,
    marked_amplitude,
    quantum_count,
    run_starts,
)
from .sequences import (
    BitString,
    IdentityIn,
    IsComposite,
    IsEven,
    IsPrime,
    MobiusPlusOne,
    Question,
    RecurrenceMembership,
    Sequence,
    build_bitstring,
)
from .witnesses import (
    CoverageReport,
    WitnessRelation,
    coverage_check,
    relation_composite,
    relation_identity,
    relation_mobius,
    relation_recurrence,
)

APPLIED_PREFACTOR = "1/sqrt(n*m)"
NOMINAL_PREFACTOR = "1/sqrt(2^(n+m))"


@dataclass(frozen=True)
class AnalyzeOptions:
    qubit_cap: int = DEFAULT_QUBIT_CAP
    phase_bits: int = DEFAULT_PHASE_BITS
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD
    run_quantum: bool = True


@dataclass(frozen=True)
class RelationSummary:
    oracle: str
    target_count: int
    candidate_count: int
    uncovered: tuple[int, ...]
    multiply_witnessed_targets: int
    shared_witnesses: int
    oracle_matches_question: bool


@dataclass(frozen=True)
class ClassifiedState:
    basis: str  # oracle | assigned | resolved | trivial-empty
    regime: str
    entropy_bits: float
    schmidt_rank: int
    schmidt_coefficients: tuple[float, ...]
    blocks: tuple[tuple[int, tuple[int, ...]], ...] | None


@dataclass(frozen=True)
class QuantumBlock:
    skipped: bool
    reason: str | None = None
    s_qubits: int | None = None
    w_qubits: int | None = None
    total_qubits: int | None = None
    support: int | None = None
    marked_pairs: int | None = None
    counting: CountEstimate | None = None
    grover_iterations: int | None = None
    grover_success: float | None = None
    grover_closed_form: float | None = None
    post_support_matches_pairs: bool | None = None


def covers_dict(mini: Minimization, *, certificate: bool) -> dict:
    """The canonical ``covers`` block of one minimization."""

    def cover_dict(sol: CoverSolution) -> dict:
        out = {"kind": sol.kind.value, "m": sol.m, "chosen": list(sol.chosen)}
        if certificate:
            out["certificate"] = sol.certificate
        return out

    assignment = mini.assignment
    return {
        "min_cover": cover_dict(mini.min_cover),
        "exact_cover": cover_dict(mini.exact_cover),
        "unique_witness_assignment": {
            "exists": assignment is not None,
            "assignment": None if assignment is None else [[t, w] for t, w in assignment.items()],
        },
    }


@dataclass(frozen=True)
class RandomnessReport:
    sequence: Sequence
    question: str
    bits: BitString
    relation: RelationSummary
    minimization: Minimization
    verdict: CompressibilityVerdict  # the resolved one after a deadlock
    quantum: QuantumBlock
    randomness: ClassifiedState | None
    randomness_raw: ClassifiedState | None
    randomness_assigned: ClassifiedState | None
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def q(self) -> int:
        """Target count of the witness relation (what the oracle marks)."""
        return self.relation.target_count

    @property
    def compression_ratio(self) -> Fraction | None:
        return Fraction(self.verdict.m, self.verdict.q) if self.verdict.q else None

    @property
    def bitstring(self) -> str:
        return self.bits.text()

    @property
    def bit_popcount(self) -> int:
        return self.bits.popcount()

    def to_dict(self) -> dict:
        """Canonical, JSON-ready view with a stable field order."""

        def class_dict(cls: ClassifiedState | None) -> dict | None:
            if cls is None:
                return None
            return {
                "basis": cls.basis,
                "regime": cls.regime,
                "entropy_bits": cls.entropy_bits,
                "schmidt_rank": cls.schmidt_rank,
                "schmidt_coefficients": list(cls.schmidt_coefficients),
                "blocks": None
                if cls.blocks is None
                else [[w, list(elems)] for w, elems in cls.blocks],
            }

        counting = self.quantum.counting
        mini = self.minimization
        primary = class_dict(self.randomness)
        ratio = self.compression_ratio
        return {
            "sequence": {
                "label": self.sequence.label,
                "length": len(self.sequence),
                "elements": list(self.sequence.elements),
            },
            "question": self.question,
            "bitstring": self.bitstring,
            "bit_popcount": self.bit_popcount,
            "q": self.q,
            "witness_relation": {
                "oracle": self.relation.oracle,
                "target_count": self.relation.target_count,
                "candidate_count": self.relation.candidate_count,
                "uncovered": list(self.relation.uncovered),
                "multiply_witnessed_targets": self.relation.multiply_witnessed_targets,
                "shared_witnesses": self.relation.shared_witnesses,
                "oracle_matches_question": self.relation.oracle_matches_question,
            },
            "covers": covers_dict(mini, certificate=True),
            "paradox": {
                "detected": mini.paradox,
                "narrative": mini.narrative,
                "resolution_applied": mini.paradox,
            },
            "compressibility": {
                "m": self.verdict.m,
                "q": self.verdict.q,
                "regime": self.verdict.regime.value,
                "paradox": self.verdict.paradox,
                "notes": self.verdict.notes,
                "compression_ratio": None
                if ratio is None
                else {"num": ratio.numerator, "den": ratio.denominator},
            },
            "quantum": {
                "skipped": self.quantum.skipped,
                "reason": self.quantum.reason,
                "s_qubits": self.quantum.s_qubits,
                "w_qubits": self.quantum.w_qubits,
                "total_qubits": self.quantum.total_qubits,
                "support": self.quantum.support,
                "marked_pairs": self.quantum.marked_pairs,
                "classical_shortcut_count": self.quantum.marked_pairs,  # a tally, not a quantum result
                "counting": None if counting is None else counting.to_json_dict(),
                "grover": {
                    "iterations": self.quantum.grover_iterations,
                    "success_probability": self.quantum.grover_success,
                    "closed_form": self.quantum.grover_closed_form,
                },
                "post_support_matches_pairs": self.quantum.post_support_matches_pairs,
                "prefactor": {"applied": APPLIED_PREFACTOR, "nominal": NOMINAL_PREFACTOR},
            },
            "randomness": {
                "primary": primary,
                "raw": class_dict(self.randomness_raw),
                # the cover reading is often both; the emitter writes it once
                "assigned": primary
                if self.randomness_assigned is self.randomness
                else class_dict(self.randomness_assigned),
            },
            "notes": list(self.notes),
        }


def _relation_for(
    seq: Sequence, question: Question, bits: BitString
) -> tuple[WitnessRelation, bool]:
    """The witness relation a question induces, plus whether its target set
    coincides with the question's ground truth. The composite and Möbius
    relations read the factorization the bits were answered from."""
    if isinstance(question, RecurrenceMembership):
        # congruence oracle: marks residues, not orbit members
        return relation_recurrence(seq, question.p, question.q), False
    if isinstance(question, IsComposite):
        return relation_composite(bits.factored), True
    if isinstance(question, MobiusPlusOne):
        return relation_mobius(bits.factored), True
    if isinstance(question, IsEven):
        return relation_recurrence(seq, 2, 0), True
    if isinstance(question, (IsPrime, IdentityIn)):
        return relation_identity(bits.satisfying()), True
    raise DomainError(f"no witness relation defined for {question!r}")


@contextmanager
def _stage(name: str):
    """Attribute domain errors to the pipeline stage raising them."""
    try:
        yield
    except DomainError as exc:
        raise DomainError(f"{name} stage: {exc}") from exc


def witness_stage(
    seq: Sequence, question: Question
) -> tuple[BitString, WitnessRelation, bool]:
    """Steps 1-2, shared by every view: the answer bits, the witness relation
    and whether the relation's targets are the question's ground truth."""
    with _stage("bitstring"):
        bits = build_bitstring(seq, question)
    with _stage("witness relation"):
        relation, faithful = _relation_for(seq, question, bits)
    # the relation has read the factorization; later stages must not hold it
    return replace(bits, factored=None), relation, faithful


def quantum_stage(s_values, relation, qubit_cap: int) -> tuple[RegisterLayout, MarkedOracle]:
    """Steps 4-5 over one relation: the register layout and the oracle, the
    one pair every later step reads. The relation needs candidate witnesses;
    registers past the cap raise QubitCapError before the oracle is built."""
    layout = RegisterLayout.for_values(s_values, relation.candidates, qubit_cap)
    return layout, MarkedOracle.from_relation(s_values, relation)


def _classified(oracle: MarkedOracle, basis: str) -> ClassifiedState:
    """Classification of the oracle's marked, post-selected state."""
    cls = classify_marked(oracle, marked_amplitude(oracle))
    return ClassifiedState(
        basis=basis,
        regime=cls.regime.value,
        entropy_bits=cls.entropy_bits,
        schmidt_rank=cls.spectrum.rank,
        schmidt_coefficients=cls.spectrum.coefficients,
        blocks=cls.blocks,
    )


_TRIVIAL_EMPTY = ClassifiedState(
    basis="trivial-empty",
    regime=RandomnessRegime.NO_RANDOMNESS.value,
    entropy_bits=0.0,
    schmidt_rank=0,
    schmidt_coefficients=(),
    blocks=(),
)


def _run_quantum(seq: Sequence, relation: WitnessRelation, options: AnalyzeOptions):
    """Counting + amplification cross-checks; returns (block, the oracle when
    it marks anything, else None)."""
    if not options.run_quantum:
        return QuantumBlock(skipped=True, reason="disabled by options"), None
    if not relation.candidates:
        return QuantumBlock(skipped=True, reason="no candidate witnesses"), None
    try:
        layout, oracle = quantum_stage(seq.elements, relation, options.qubit_cap)
    except QubitCapError as exc:
        return QuantumBlock(skipped=True, reason=str(exc)), None
    m_marked = oracle.marked_count
    block = QuantumBlock(
        skipped=False,
        s_qubits=layout.s_qubits,
        w_qubits=layout.w_qubits,
        total_qubits=layout.total_qubits,
        support=oracle.support,
        marked_pairs=m_marked,
        counting=quantum_count(oracle, options.phase_bits),
    )
    if not m_marked:
        return block, None
    iterations = grover_iterations_optimal(oracle.support, m_marked)
    trace, _final = grover_run(oracle, iterations)
    block = replace(
        block,
        grover_iterations=iterations,
        grover_success=trace[-1],
        grover_closed_form=sin((2 * iterations + 1) * asin(sqrt(m_marked / oracle.support))) ** 2,
        # the marked cells are the post-selected support by construction; this
        # checks that the scatter kept every marked pair
        post_support_matches_pairs=oracle.marked_count == len(relation.marked_pairs[0]),
    )
    return block, oracle


def _one_witness_each(
    raw: MarkedOracle, assignment: dict[int, int] | None, cover: CoverSolution
) -> MarkedOracle:
    """The raw oracle cut to one witness per marked row, over the same
    registers: each covered target keeps its witness under the injective
    assignment when it exists, else its smallest chosen cover witness (the
    cover holds one for every covered target)."""
    m = len(raw.w_values)
    row, col = np.divmod(raw.marked, m)
    column = dict(zip(raw.w_values, range(m)))
    if assignment is not None:
        rows = row[run_starts(row)]  # the covered targets, in order
        # keyed by target, ascending like the rows
        picks = np.fromiter(map(column.__getitem__, assignment.values()), np.intp, len(rows))
        return MarkedOracle(raw.s_values, raw.w_values, rows * m + picks)
    chosen = np.zeros(m, dtype=bool)
    chosen[list(map(column.__getitem__, cover.chosen))] = True
    # a row's cells ascend by column, so its first chosen one is its least
    hit = np.flatnonzero(chosen[col])
    return MarkedOracle(raw.s_values, raw.w_values, raw.marked[hit[run_starts(row[hit])]])


def minimize_covered(
    relation: WitnessRelation, coverage: CoverageReport, exact_threshold: int
) -> Minimization:
    """Drop the targets without a witness, then minimize the rest."""
    if coverage.uncovered:
        relation = relation.restrict_targets(set(relation.targets) - set(coverage.uncovered))
    return minimize(relation, exact_threshold)


def analyze(
    seq: Sequence, question: Question, options: AnalyzeOptions = AnalyzeOptions()
) -> RandomnessReport:
    """Run the whole pipeline and assemble the report."""
    bits, relation, faithful = witness_stage(seq, question)
    satisfying = bits.satisfying()
    coverage = coverage_check(relation)
    notes: list[str] = []
    if coverage.uncovered:
        notes.append(
            f"uncovered targets {list(coverage.uncovered)} excluded from minimization"
        )
    with _stage("minimization"):
        mini = minimize_covered(relation, coverage, options.exact_threshold)

    verdict = mini.verdict
    if mini.paradox:
        verdict = replace(mini.verdict, m=satisfying.q, q=satisfying.q)
        notes.append("self-pairing resolution applied over the full satisfying set")

    with _stage("quantum"):
        quantum_block, raw_oracle = _run_quantum(seq, relation, options)

    raw_class = assigned_class = cover_class = primary = None
    with _stage("classification"):
        if raw_oracle is not None:
            raw_class = _classified(raw_oracle, basis="oracle")
        non_canonical = (
            raw_class is not None and raw_class.regime == RandomnessRegime.NON_CANONICAL.value
        )
        if non_canonical:
            # two one-witness-per-element readings of a multi-witness support:
            # the injective assignment when it saturates, and the cover-based
            # choice, whose block structure always agrees with the verdict
            cover = _one_witness_each(raw_oracle, None, mini.min_cover)
            cover_class = assigned_class = _classified(cover, "assigned")
            if mini.assignment is not None:
                injective = _one_witness_each(raw_oracle, mini.assignment, mini.min_cover)
                assigned_class = _classified(injective, "assigned")
        if not relation.marked_pairs[0].size and satisfying.q == 0:
            primary = _TRIVIAL_EMPTY
        elif options.run_quantum:
            if mini.paradox:
                # a deadlock needs targets, so the self-pairing relation marks
                # q >= 1 pairs and only the cap can stop its reading
                try:
                    _layout, resolved = quantum_stage(
                        seq.elements, relation_identity(satisfying), options.qubit_cap
                    )
                    primary = _classified(resolved, "resolved")
                except QubitCapError as exc:
                    notes.append(f"resolved classification skipped: {exc}")
            else:
                primary = cover_class if non_canonical else raw_class
            if primary is None and raw_class is None and not quantum_block.skipped:
                notes.append("classification skipped: no marked support")
        else:
            notes.append("classification skipped: quantum stage disabled")

    summary = RelationSummary(
        oracle=relation.oracle_descriptor,
        target_count=len(relation.targets),
        candidate_count=len(relation.candidates),
        uncovered=coverage.uncovered,
        multiply_witnessed_targets=len(coverage.multiply_witnessed),
        shared_witnesses=len(coverage.shared_witnesses),
        oracle_matches_question=faithful,
    )
    return RandomnessReport(
        sequence=seq,
        question=question.describe(),
        bits=bits,
        relation=summary,
        minimization=mini,
        verdict=verdict,
        quantum=quantum_block,
        randomness=primary,
        randomness_raw=raw_class,
        randomness_assigned=assigned_class,
        notes=tuple(notes),
    )


def cross_check(report: RandomnessReport) -> list[str]:
    """Consistency findings; an empty list means every check passed.

    A skipped quantum stage contributes an informational note, not an error.
    """
    findings: list[str] = []
    v = report.verdict
    if v.regime is not Regime.of(v.m, v.q):
        findings.append(f"regime inconsistent with m,q: {v.regime.value} for m={v.m}, q={v.q}")

    if (
        report.relation.oracle_matches_question
        and not report.relation.uncovered
        and report.bit_popcount != report.q
    ):
        findings.append(
            f"bitstring popcount {report.bit_popcount} differs from target count {report.q}"
        )

    qb = report.quantum
    if qb.skipped:
        findings.append(f"quantum stage skipped: {qb.reason}")
        return findings

    if qb.counting is not None:
        est = qb.counting.estimated_m
        if qb.counting.exact:
            if est != qb.marked_pairs:
                findings.append(
                    f"exact counting estimate {est} differs from marked pairs {qb.marked_pairs}"
                )
        else:
            bound = counting_error_bound(qb.support, qb.marked_pairs, qb.counting.phase_bits)
            if abs(est - qb.marked_pairs) > bound:
                findings.append(
                    f"counting estimate {est} outside the error bound {bound} "
                    f"around {qb.marked_pairs}"
                )
    if qb.grover_success is not None and abs(qb.grover_success - qb.grover_closed_form) > 1e-9:
        findings.append("amplified probability deviates from the closed form")
    if qb.post_support_matches_pairs is False:
        findings.append("post-selected support differs from the relation's marked pairs")

    primary = report.randomness
    if primary is not None and primary.basis != "trivial-empty":
        if primary.regime == RandomnessRegime.NO_RANDOMNESS.value and v.m != 1:
            findings.append(f"NoRandomness requires m = 1, got m = {v.m}")
        if primary.regime == RandomnessRegime.MAXIMAL.value and v.m != v.q:
            findings.append(f"Maximal requires m = q, got m = {v.m}, q = {v.q}")
    return findings
