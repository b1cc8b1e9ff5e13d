"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion. Every tolerance and runtime budget is asserted, not just printed.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import asin, log2, sin, sqrt

import pytest

from dense_reference import (
    indexed_classify,
    indexed_marking,
    indexed_post_select,
    indexed_prepare,
    indexed_schmidt,
    oracle_of_pairs,
    pairs_of_oracle,
)
from qwitness.cover import (
    DEFAULT_EXACT_THRESHOLD,
    CoverKind,
    Regime,
    min_set_cover,
    minimize,
    unique_witness_assignment,
)
from qwitness.cli import main
from qwitness.number_theory import factor_elements, squarefree_support
from qwitness.pipeline import analyze
from qwitness.quantum import (
    MarkedOracle,
    counting_error_bound,
    grover_run,
    quantum_count,
)
from qwitness.sequences import (
    IsComposite,
    MobiusPlusOne,
    RecurrenceMembership,
    SatisfyingSet,
    Sequence,
)
from qwitness.witnesses import (
    relation_composite,
    relation_identity,
    relation_mobius,
    relation_recurrence,
)
from reference_numbers import mobius_upto
from reference_relations import relation_of_rows, restrict_targets, witnesses_of


def _passed(n, text):
    print(f"criterion {n}: PASS — {text}")


def synthetic_oracle(n, m):
    s_values = tuple(range(1, n + 1))
    return oracle_of_pairs(s_values, (1,), ((s, 1) for s in s_values[:m]))


def fixture_relation(targets, candidates, rows):
    index = {w: j for j, w in enumerate(candidates)}
    return relation_of_rows(
        targets,
        candidates,
        (sorted(index[w] for w in rows[t]) for t in targets),
        "fixture",
    )


def test_criterion_1_composite_end_to_end():
    start = time.perf_counter()
    report = analyze(Sequence.from_range(2, 100), IsComposite())
    elapsed = time.perf_counter() - start
    assert report.verdict.q == 74
    assert report.verdict.m == 4
    assert report.minimization.min_cover.chosen == (2, 3, 5, 7)
    assert report.verdict.regime is Regime.COMPRESSIBLE
    assert elapsed < 1.0
    _passed(1, f"[2..100] composite: q=74, m=4, W=(2,3,5,7), Compressible in {elapsed:.3f}s")


def test_criterion_2_recurrence_no_randomness():
    start = time.perf_counter()
    report = analyze(Sequence.from_range(1, 20), RecurrenceMembership(2, 1))
    elapsed = time.perf_counter() - start
    assert report.verdict.m == 1
    assert report.randomness.regime == "NoRandomness"
    assert report.randomness.entropy_bits < 1e-9
    assert elapsed < 1.0
    _passed(2, f"[1..20] recurrence(2,1): m=1, NoRandomness, entropy<1e-9 in {elapsed:.3f}s")


def test_criterion_3_mobius_paradox():
    start = time.perf_counter()
    # the pure triple and a prefix support both containing {3,5,7,15,21,35}
    for seq in (
        Sequence.from_values([3, 5, 7, 15, 21, 35], label="triple"),
        Sequence.from_values(squarefree_support(25), label="sf25"),
    ):
        rel = relation_mobius(factor_elements(seq.elements))
        covered = restrict_targets(
            rel, (t for t, row in zip(rel.targets, rel.incidence) if row)
        )
        assert minimize(covered, DEFAULT_EXACT_THRESHOLD).paradox, seq.label

    # exhaustive verification on the {15,21,35} sub-instance
    tri = fixture_relation((15, 21, 35), (3, 5, 7), {15: (3, 5), 21: (3, 7), 35: (5, 7)})
    covers = [
        sub
        for r in range(4)
        for sub in itertools.combinations((3, 5, 7), r)
        if all(set(sub) & set(witnesses_of(tri, t)) for t in tri.targets)
    ]
    assert min(len(c) for c in covers) == 2
    assert min_set_cover(tri).m == 2
    exact_subsets = [
        sub
        for r in range(4)
        for sub in itertools.combinations((3, 5, 7), r)
        if all(len(set(sub) & set(witnesses_of(tri, t))) == 1 for t in tri.targets)
    ]
    assert exact_subsets == []

    report = analyze(Sequence.from_values(squarefree_support(25), "sf25"), MobiusPlusOne())
    assert report.minimization.paradox
    sq = report.bit_popcount
    assert report.verdict.m == report.verdict.q == sq
    assert report.verdict.regime is Regime.INCOMPRESSIBLE
    assert report.randomness.regime == "Maximal"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(3, f"deadlock detected, triple has min cover 2 and no exact cover, "
               f"resolution gives m=q={sq}, Maximal in {elapsed:.3f}s")


def test_criterion_4_grover_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16, 32):
        for m in range(1, n + 1):
            oracle = synthetic_oracle(n, m)
            trace = grover_run(oracle, 10)[0]
            theta = asin(sqrt(m / n))
            for k, prob in enumerate(trace):
                worst = max(worst, abs(prob - sin((2 * k + 1) * theta) ** 2))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    _passed(4, f"all N in (4,8,16,32), 1<=M<=N, k<=10: max deviation {worst:.2e} "
               f"in {elapsed:.2f}s")


def test_criterion_5_quantum_counting():
    start = time.perf_counter()
    # synthetic sweep over supports up to 32 at t = 10
    checked = 0
    for n in (2, 3, 4, 5, 8, 13, 16, 21, 32):
        for m in range(0, n + 1):
            est = quantum_count(synthetic_oracle(n, m), phase_bits=10)
            assert abs(est.estimated_m - m) <= counting_error_bound(n, m, 10), (n, m)
            checked += 1
    # question-derived relations with support <= 32
    cases = []
    seq8 = Sequence.from_range(1, 8)
    cases.append((seq8.elements, relation_recurrence(seq8, 2, 1)))
    seq9 = Sequence.from_range(2, 9)
    cases.append((seq9.elements, relation_composite(factor_elements(seq9.elements))))
    sf8 = Sequence.from_values(squarefree_support(8), "sf8")
    cases.append((sf8.elements, relation_mobius(factor_elements(sf8.elements))))
    cases.append(((1, 6, 10, 14), relation_identity(SatisfyingSet((1, 6, 10, 14)))))
    for s_values, rel in cases:
        oracle = MarkedOracle.from_relation(s_values, rel)
        n, m = oracle.support, len(pairs_of_oracle(oracle))
        assert n <= 32
        est = quantum_count(oracle, phase_bits=10)
        assert abs(est.estimated_m - m) <= counting_error_bound(n, m, 10)
        checked += 1
    # the exactly representable case
    exact = quantum_count(synthetic_oracle(4, 2), phase_bits=2)
    assert exact.exact
    assert exact.estimated_m == 2.0
    assert exact.probability == pytest.approx(1.0, abs=1e-12)
    assert exact.phase == Fraction(1, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(5, f"{checked} countings within the phase-estimation bound at t=10; "
               f"(N=4,M=2,t=2) exact with probability 1 in {elapsed:.2f}s")


def test_criterion_6_classifier_ranks():
    from qwitness.classify import RandomnessRegime

    def marked_state(rel, s_values):
        oracle = MarkedOracle.from_relation(s_values, rel)
        state = indexed_prepare(s_values, rel.candidates)
        return indexed_post_select(indexed_marking(state, oracle)), oracle

    start = time.perf_counter()
    # single shared witness: rank 1, entropy 0 (one element degenerates to the
    # self-paired form, so the sweep starts at 2)
    for l in range(2, 17):
        elems = tuple(range(2, 2 + l))
        rel = fixture_relation(elems, (1,), {s: (1,) for s in elems})
        state, oracle = marked_state(rel, elems)
        cls = indexed_classify(state, oracle)
        assert cls.regime is RandomnessRegime.NO_RANDOMNESS
        assert indexed_schmidt(state).rank == 1
        assert cls.entropy_bits <= 1e-9

    # one witness per element: rank l, entropy log2(l)
    for l in range(1, 17):
        elems = tuple(range(1, l + 1))
        rel = relation_identity(SatisfyingSet(elems))
        state, oracle = marked_state(rel, elems)
        cls = indexed_classify(state, oracle)
        assert cls.regime is RandomnessRegime.MAXIMAL
        assert indexed_schmidt(state).rank == l
        assert abs(cls.entropy_bits - (log2(l) if l > 1 else 0.0)) <= 1e-9

    # block partitions: rank = block count, entropy = block entropy
    rng = random.Random(2024)
    for l in range(3, 17):
        for blocks in range(2, min(l, 5)):
            cuts = sorted(rng.sample(range(1, l), blocks - 1))
            sizes = [b - a for a, b in zip([0] + cuts, cuts + [l])]
            elems = iter(range(10, 10 + l))
            block_map = {
                100 + w: [next(elems) for _ in range(size)] for w, size in enumerate(sizes)
            }
            targets = sorted(s for v in block_map.values() for s in v)
            rel = fixture_relation(
                targets,
                tuple(sorted(block_map)),
                {s: (w,) for w, v in block_map.items() for s in v},
            )
            state, oracle = marked_state(rel, tuple(targets))
            cls = indexed_classify(state, oracle)
            assert cls.regime is RandomnessRegime.PARTIAL
            assert indexed_schmidt(state).rank == blocks
            expected = -sum((b / l) * log2(b / l) for b in sizes)
            assert abs(cls.entropy_bits - expected) <= 1e-9
    elapsed = time.perf_counter() - start
    _passed(6, f"canonical forms up to l=16 classified with exact ranks and entropies "
               f"in {elapsed:.2f}s")


def test_criterion_7_oracle_equivalence():
    nx = pytest.importorskip("networkx")
    start = time.perf_counter()
    rng = random.Random(424242)
    for trial in range(200):
        nt = rng.randint(1, 12)
        nc = rng.randint(1, 12)
        targets = tuple(range(1, nt + 1))
        candidates = tuple(range(101, 101 + nc))
        rows = {t: rng.sample(candidates, rng.randint(1, nc)) for t in targets}
        rel = fixture_relation(targets, candidates, rows)

        sol = min_set_cover(rel)
        assert sol.kind is CoverKind.EXACT_MINIMUM
        brute = None
        for size in range(nc + 1):
            hit = next(
                (
                    sub
                    for sub in itertools.combinations(candidates, size)
                    if all(set(sub) & set(rows[t]) for t in targets)
                ),
                None,
            )
            if hit is not None:
                brute = size
                break
        assert sol.m == brute, f"trial {trial}"

        graph = nx.Graph()
        graph.add_nodes_from(("t", t) for t in targets)
        graph.add_nodes_from(("c", c) for c in candidates)
        for t in targets:
            for c in rows[t]:
                graph.add_edge(("t", t), ("c", c))
        matching = nx.algorithms.bipartite.maximum_matching(
            graph, top_nodes=[("t", t) for t in targets]
        )
        saturated = sum(1 for node in matching if node[0] == "t") == nt
        ok, assignment = unique_witness_assignment(rel)
        assert ok == saturated, f"trial {trial}"
        if ok:
            assert len(set(assignment.values())) == nt
            for t, w in assignment.items():
                assert w in rows[t]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(7, f"200 random relations: covers match brute force, matchings match "
               f"an independent implementation in {elapsed:.2f}s")


def test_criterion_8_number_theory_cross_validation():
    start = time.perf_counter()
    limit = 10**5
    mu = mobius_upto(limit)
    factored = factor_elements(range(1, limit + 1))
    square, omega = factored.square.tolist(), factored.omega.tolist()
    for k in range(1, limit + 1):
        assert mu[k] == (0 if square[k - 1] else (-1) ** omega[k - 1])

    from qwitness.number_theory import _eratosthenes, is_prime

    sieve = _eratosthenes(10**6)
    mismatches = sum(1 for k in range(1, 10**6 + 1) if bool(sieve[k]) != is_prime(k))
    assert mismatches == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(8, f"sympy mobius sieve == factorization on [1,1e5]; is_prime == sieve on "
               f"[1,1e6] in {elapsed:.2f}s")


def test_criterion_9_determinism(tmp_path):
    args = [
        "analyze", "--squarefree", "25", "--question", "mobius-plus-one",
        "--phase-bits", "6",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    body = json.loads(a.read_text())["report"]
    assert body["findings"] == []
    _passed(9, "identical configs give byte-identical canonical report files")
