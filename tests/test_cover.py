import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwitness.cover
import reference_cover as reference
from qwitness.cover import (
    DEFAULT_EXACT_THRESHOLD,
    CoverKind,
    Regime,
    _greedy_cover,
    _least_cover,
    _masks,
    _simulate_discard,
    exact_cover,
    min_set_cover,
    minimize,
    unique_witness_assignment,
)
from qwitness.errors import DomainError
from qwitness.number_theory import factor_elements, squarefree_support
from qwitness.sequences import SatisfyingSet, Sequence
from qwitness.witnesses import (
    relation_composite,
    relation_identity,
    relation_mobius,
    relation_recurrence,
)
from reference_relations import relation_of_rows, restrict_targets, witnesses_of


def make_relation(targets, candidates, rows):
    """rows maps target -> iterable of witness values."""
    index = {w: j for j, w in enumerate(candidates)}
    return relation_of_rows(
        targets,
        candidates,
        (sorted(index[w] for w in rows[t]) for t in targets),
        "test fixture",
    )


MOBIUS_TRIPLE = make_relation(
    (15, 21, 35), (3, 5, 7), {15: (3, 5), 21: (3, 7), 35: (5, 7)}
)


def brute_force_min_cover(rel):
    """The first smallest cover in combinations order: the lexicographically least."""
    values = rel.candidates
    rows = [set(rel.candidates[j] for j in row) for row in rel.incidence]
    for size in range(len(values) + 1):
        for sub in itertools.combinations(values, size):
            picked = set(sub)
            if all(row & picked for row in rows):
                return sub
    return None


def brute_force_exact_covers(rel):
    values = rel.candidates
    rows = [set(rel.candidates[j] for j in row) for row in rel.incidence]
    out = []
    for size in range(len(values) + 1):
        for sub in itertools.combinations(values, size):
            picked = set(sub)
            if all(len(row & picked) == 1 for row in rows):
                out.append(sub)
    return out


def reference_discard(rel):
    """The discard replay as first written, rescanning every target per check."""
    active = {
        t: set(rel.candidates[j] for j in row)
        for t, row in zip(rel.targets, rel.incidence)
    }
    discarded = []
    while True:
        multi = [t for t in rel.targets if len(active[t]) > 1]
        if not multi:
            kept = sorted({w for ws in active.values() for w in ws})
            chain = f"discarded {discarded}" if discarded else "nothing to discard"
            return True, f"{chain}; single coverage reached with witnesses {kept}"
        progressed = False
        for t in multi:
            for w in sorted(active[t]):
                stranded = [u for u, ws in active.items() if ws == {w}]
                if stranded:
                    continue
                for ws in active.values():
                    ws.discard(w)
                discarded.append(w)
                progressed = True
                break
            if progressed:
                break
        if not progressed:
            t = multi[0]
            blockers = "; ".join(
                f"discarding {w} strands {sorted(u for u, ws in active.items() if ws == {w})}"
                for w in sorted(active[t])
            )
            prefix = f"after discarding {discarded}, " if discarded else ""
            return False, (
                f"{prefix}target {t} still holds witnesses "
                f"{sorted(active[t])}: {blockers}"
            )


def mini(rel):
    return minimize(rel, DEFAULT_EXACT_THRESHOLD)


def random_relation(rng, max_targets=12, max_candidates=12):
    nt = rng.randint(1, max_targets)
    nc = rng.randint(1, max_candidates)
    targets = tuple(range(1, nt + 1))
    candidates = tuple(range(101, 101 + nc))
    rows = {}
    for t in targets:
        k = rng.randint(1, nc)
        rows[t] = rng.sample(candidates, k)
    return make_relation(targets, candidates, rows)


class TestMinSetCover:
    def test_mobius_triple(self):
        sol = min_set_cover(MOBIUS_TRIPLE)
        assert sol.m == 2
        assert sol.chosen == (3, 5)  # lexicographically smallest of the size-2 covers
        assert sol.kind is CoverKind.EXACT_MINIMUM

    def test_identity_forces_full_set(self):
        sol = min_set_cover(relation_identity(SatisfyingSet((1, 6, 10, 14))))
        assert sol.m == 4
        assert sol.chosen == (1, 6, 10, 14)

    def test_composite_100(self):
        sol = min_set_cover(relation_composite(factor_elements(range(2, 101))))
        assert sol.m == 4
        assert sol.chosen == (2, 3, 5, 7)

    def test_uncovered_target_rejected_by_name(self):
        rel = relation_mobius(factor_elements(squarefree_support(10)))
        with pytest.raises(DomainError, match="target 1"):
            min_set_cover(rel)

    def test_greedy_above_threshold(self):
        rel = relation_composite(factor_elements(range(2, 101)))
        sol = min_set_cover(rel, exact_threshold=10)
        assert sol.kind is CoverKind.GREEDY
        assert sol.m >= 4  # never better than the optimum

    def test_empty_targets(self):
        sol = min_set_cover(relation_identity(SatisfyingSet(())))
        assert sol.m == 0 and sol.kind is CoverKind.EXACT_MINIMUM

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60)
    def test_matches_brute_force_on_random_corpus(self, seed):
        rel = random_relation(random.Random(seed), max_targets=8, max_candidates=8)
        sol = min_set_cover(rel)
        assert sol.chosen == brute_force_min_cover(rel)  # the size and the tie-break


class TestExactCover:
    def test_mobius_triple_has_none(self):
        sol = exact_cover(MOBIUS_TRIPLE)
        assert sol.kind is CoverKind.NO_COVER
        assert brute_force_exact_covers(MOBIUS_TRIPLE) == []

    def test_identity_pairing(self):
        sol = exact_cover(relation_identity(SatisfyingSet((1, 6))))
        assert sol.kind is CoverKind.EXACT_COVER
        assert sol.m == 2

    def test_shared_single_witness_wins(self):
        rel = make_relation((6, 10), (2, 3, 5), {6: (2, 3), 10: (2, 5)})
        sol = exact_cover(rel)
        assert sol.kind is CoverKind.EXACT_COVER
        assert sol.chosen == (2,)
        assert sol.m == 1

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60)
    def test_matches_brute_force_on_random_corpus(self, seed):
        rel = random_relation(random.Random(seed), max_targets=7, max_candidates=7)
        sol = exact_cover(rel)
        brute = brute_force_exact_covers(rel)
        if sol.kind is CoverKind.NO_COVER:
            assert brute == []
        else:
            # the first hit in combinations order is the least of the smallest
            assert brute and sol.chosen == brute[0]


def covered_only(rel):
    return restrict_targets(rel, (t for t, row in zip(rel.targets, rel.incidence) if row))


class TestMatchesReference:
    """Both covers equal the two-pass branch and bound and the lowest-target
    exact-cover search they replaced, chosen witnesses included."""

    @staticmethod
    def assert_same_covers(rel):
        cover = min_set_cover(rel, exact_threshold=len(rel.targets))
        assert cover.kind is CoverKind.EXACT_MINIMUM
        assert cover.chosen == reference.min_cover(rel)
        single = exact_cover(rel)
        expected = reference.exact_cover(rel)
        if expected is None:
            assert single.kind is CoverKind.NO_COVER
        else:
            assert (single.kind, single.chosen) == (CoverKind.EXACT_COVER, expected)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_random_relations(self, seed):
        self.assert_same_covers(random_relation(random.Random(seed), 24, 24))

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_mobius_supports(self, n):
        rel = relation_mobius(factor_elements(squarefree_support(n)))
        self.assert_same_covers(covered_only(rel))

    @given(st.integers(min_value=2, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_composite_ranges(self, n):
        self.assert_same_covers(relation_composite(factor_elements(range(2, n + 1))))


    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_relations_with_forced_witnesses(self, seed):
        # sparse rows, so many targets have a single witness and forced
        # witnesses often share targets
        rng = random.Random(seed)
        targets = tuple(range(1, rng.randint(1, 24) + 1))
        candidates = tuple(range(101, 101 + rng.randint(1, 16)))
        rows = {t: rng.sample(candidates, min(len(candidates), rng.choice((1, 1, 2, 3))))
                for t in targets}
        self.assert_same_covers(make_relation(targets, candidates, rows))

    def test_forced_witnesses_leave_the_greedy_alone(self):
        # A = 1 and E = 5 are forced (targets 1 and 6); taking them first would
        # make the greedy pick {A, E}, but it picks B first by gain
        rel = make_relation(
            range(1, 7),
            (1, 2, 3, 4, 5),
            {1: (1,), 2: (1, 2), 3: (1, 2), 4: (2, 3, 5), 5: (2, 4, 5), 6: (5,)},
        )
        greedy = min_set_cover(rel, exact_threshold=0)
        assert (greedy.kind, greedy.chosen) == (CoverKind.GREEDY, (1, 2, 5))
        exact = min_set_cover(rel, exact_threshold=6)
        assert (exact.kind, exact.chosen) == (CoverKind.EXACT_MINIMUM, (1, 5))
        self.assert_same_covers(rel)

    def test_overlapping_forced_witnesses_have_no_exact_cover(self):
        rel = make_relation((1, 2, 3), (7, 8, 9), {1: (7,), 2: (7, 8), 3: (8,)})
        assert exact_cover(rel).kind is CoverKind.NO_COVER
        assert min_set_cover(rel).chosen == (7, 8)
        self.assert_same_covers(rel)


class TestLeastCoverAtBindingLimits:
    """The search, asked for at most the least cover's size, still finds that
    cover, and one witness fewer finds none. Such limits bind from the root,
    so nodes that the candidate's own gain would prune fall back to the
    max-gain scan; the picks must match the reference's all the same."""

    @staticmethod
    def assert_matches_reference(rel, least):
        """``least`` is the reference's least smallest cover of ``rel``."""
        full, masks = _masks(rel)

        def search(limit, disjoint):
            chosen = _least_cover(full, masks, limit, disjoint)
            return None if chosen is None else tuple(rel.candidates[j] for j in chosen)

        greedy = reference.greedy_cover(full, masks, rel.candidates)
        assert search(len(greedy), False) == search(len(least), False) == least
        if least:
            assert search(len(least) - 1, False) is None
        exact = reference.exact_cover(rel)
        assert search(len(masks), True) == exact
        if exact:
            assert search(len(exact), True) == exact
            assert search(len(exact) - 1, True) is None

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_random_relations(self, seed):
        rel = random_relation(random.Random(seed), 16, 16)
        self.assert_matches_reference(rel, reference.min_cover(rel))

    @given(st.integers(min_value=1, max_value=800))
    @settings(max_examples=30, deadline=None)
    def test_mobius_supports(self, n):
        rel = covered_only(relation_mobius(factor_elements(squarefree_support(n))))
        full, masks = _masks(rel)
        # the reference's size proof is slow past a few hundred; its second
        # pass finding no cover one witness below the size proves it instead
        size = len(reference.greedy_cover(full, masks, rel.candidates))
        while size and reference._lexmin_cover(full, masks, size - 1) is not None:
            size -= 1
        least = reference._lexmin_cover(full, masks, size)
        self.assert_matches_reference(rel, tuple(rel.candidates[j] for j in least))

    def test_binding_limits_reach_the_scan(self):
        scan = mock.patch.object(
            qwitness.cover, "_max_gain", wraps=qwitness.cover._max_gain
        )
        for seed in range(20):
            rel = random_relation(random.Random(seed), 16, 16)
            with scan as counted:
                self.assert_matches_reference(rel, reference.min_cover(rel))
            if counted.call_count:
                return
        pytest.fail("no draw reached the max-gain scan")


class TestMatchesFirstWritten:
    """The lazy greedy picks the witnesses the full rescan picked, in the same
    order, and the explicit-stack matching returns the recursive one's assignment."""

    @staticmethod
    def assert_same_picks(rel):
        full, masks = _masks(rel)
        assert _greedy_cover(full, masks, rel.candidates) == reference.greedy_cover(
            full, masks, rel.candidates
        )
        ok, assignment = unique_witness_assignment(rel)
        assert assignment == reference.assignment(rel)
        assert ok == (assignment is not None)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=300, deadline=None)
    def test_random_relations(self, seed):
        self.assert_same_picks(random_relation(random.Random(seed), 40, 40))

    @given(st.integers(min_value=1, max_value=700))
    @settings(max_examples=30, deadline=None)
    def test_mobius_supports(self, n):
        rel = relation_mobius(factor_elements(squarefree_support(n)))
        self.assert_same_picks(covered_only(rel))

    @given(st.integers(min_value=2, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_composite_ranges(self, n):
        self.assert_same_picks(relation_composite(factor_elements(range(2, n + 1))))

    def test_identity_range(self):
        self.assert_same_picks(relation_identity(SatisfyingSet(tuple(range(1, 300)))))

    def test_long_augmenting_path_needs_no_recursion(self):
        # target i < n - 1 takes candidate i, then the last target, witnessed
        # by candidate 0 alone, shifts every earlier match one candidate up
        n = 3 * sys.getrecursionlimit()
        rows = {t: [t, t + 1] for t in range(n - 1)}
        rows[n - 1] = [0]
        rel = make_relation(tuple(range(n)), tuple(range(n)), rows)
        ok, assignment = unique_witness_assignment(rel)
        assert ok and len(set(assignment.values())) == n


class TestUniqueWitnessAssignment:
    def test_mobius_triple_saturates(self):
        ok, assignment = unique_witness_assignment(MOBIUS_TRIPLE)
        assert ok
        assert sorted(assignment) == [15, 21, 35]
        assert len(set(assignment.values())) == 3
        for t, w in assignment.items():
            assert w in witnesses_of(MOBIUS_TRIPLE, t)

    def test_pigeonhole_failure(self):
        rel = relation_recurrence(Sequence.from_range(1, 10), 2, 1)
        ok, assignment = unique_witness_assignment(rel)
        assert not ok and assignment is None

    def test_more_targets_than_witnesses_builds_no_rows(self):
        rel = relation_composite(factor_elements(range(2, 101)))
        assert len(rel.targets) > len(rel.candidates)
        assert unique_witness_assignment(rel) == (False, None)
        # the pigeonhole count answers before the per-target rows are read
        assert "incidence" not in rel.__dict__

    def test_identity(self):
        rel = relation_identity(SatisfyingSet((3, 9)))
        ok, assignment = unique_witness_assignment(rel)
        assert ok and assignment == {3: 3, 9: 9}

    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(13)
        for _ in range(60):
            rel = random_relation(rng)
            graph = nx.Graph()
            graph.add_nodes_from((0, t) for t in rel.targets)
            graph.add_nodes_from((1, c) for c in rel.candidates)
            for i, row in enumerate(rel.incidence):
                for j in row:
                    graph.add_edge((0, rel.targets[i]), (1, rel.candidates[j]))
            matching = nx.algorithms.bipartite.maximum_matching(
                graph, top_nodes=[(0, t) for t in rel.targets]
            )
            size = sum(1 for node in matching if node[0] == 0)
            ok, assignment = unique_witness_assignment(rel)
            assert ok == (size == len(rel.targets))
            if ok:
                assert len(assignment) == len(rel.targets)
                assert len(set(assignment.values())) == len(rel.targets)


class TestParadoxDetect:
    def test_mobius_triple(self):
        result = mini(MOBIUS_TRIPLE)
        assert result.paradox
        assert "strands" in result.narrative

    def test_composite_has_single_witness_targets(self):
        result = mini(relation_composite(factor_elements(range(2, 101))))
        assert not result.paradox
        assert "single witness" in result.narrative

    def test_identity_never(self):
        assert not mini(relation_identity(SatisfyingSet((1, 6, 10)))).paradox

    def test_small_exact_cover_defuses(self):
        # every target doubly witnessed, but one witness covers all exactly once
        rel = make_relation((6, 10), (2, 3, 5), {6: (2, 3), 10: (2, 5)})
        result = mini(rel)
        assert not result.paradox
        assert "exact cover" in result.narrative

    def test_mobius_supports_beyond_thirteen(self):
        for n in (13, 20, 25):
            rel = relation_mobius(factor_elements(squarefree_support(n)))
            covered = restrict_targets(
                rel, (t for t, row in zip(rel.targets, rel.incidence) if row)
            )
            assert mini(covered).paradox, f"support({n}) should deadlock"

    def test_mobius_support_ten_does_not(self):
        rel = relation_mobius(factor_elements(squarefree_support(10)))
        covered = restrict_targets(rel, (6, 10, 14))
        assert not mini(covered).paradox  # {2} covers each of 6, 10, 14 exactly once


class TestCompressibilityVerdict:
    def test_recurrence(self):
        rel = relation_recurrence(Sequence.from_range(1, 20), 2, 1)
        v = mini(rel).verdict
        assert (v.m, v.q, v.regime, v.paradox) == (1, 10, Regime.COMPRESSIBLE, False)

    def test_composite(self):
        rel = relation_composite(factor_elements(range(2, 101)))
        v = mini(rel).verdict
        assert (v.m, v.q, v.regime) == (4, 74, Regime.COMPRESSIBLE)

    def test_mobius_deadlock_resolves_incompressible(self):
        rel = relation_mobius(factor_elements(squarefree_support(25)))
        covered = restrict_targets(
            rel, (t for t, row in zip(rel.targets, rel.incidence) if row)
        )
        v = mini(covered).verdict
        assert v.paradox
        assert v.m == v.q == len(covered.targets)
        assert v.regime is Regime.INCOMPRESSIBLE

    def test_empty_relation(self):
        v = mini(relation_identity(SatisfyingSet(()))).verdict
        assert v.m == v.q == 0
        assert v.regime is Regime.INCOMPRESSIBLE


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150)
def test_paradox_matches_brute_force_definition(seed):
    rel = random_relation(random.Random(seed), max_targets=7, max_candidates=7)
    q = len(rel.targets)
    exact_sizes = [len(sub) for sub in brute_force_exact_covers(rel)]
    expected = (
        all(len(row) >= 2 for row in rel.incidence)
        and len(brute_force_min_cover(rel)) < q
        and not any(size < q for size in exact_sizes)
    )
    assert mini(rel).paradox == expected


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100)
def test_discard_replay_matches_reference(seed):
    rel = random_relation(random.Random(seed))
    assert _simulate_discard(rel) == reference_discard(rel)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_discard_replay_matches_reference_on_dense_relations(seed):
    # up to 40 x 40 at a random density, over a shuffled pool: targets fall to
    # one witness all through the pass, and witness ranks differ from positions
    rng = random.Random(seed)
    targets = tuple(range(1, rng.randint(1, 40) + 1))
    candidates = tuple(rng.sample(range(101, 201), rng.randint(1, 40)))
    density = rng.random()
    rows = {
        t: [w for w in candidates if rng.random() < density] or [rng.choice(candidates)]
        for t in targets
    }
    rel = make_relation(targets, candidates, rows)
    assert _simulate_discard(rel) == reference_discard(rel)


def test_discard_replay_matches_reference_on_mobius_supports():
    for n in (13, 25, 60, 300, 700):
        rel = relation_mobius(factor_elements(squarefree_support(n)))
        covered = restrict_targets(
            rel, (t for t, row in zip(rel.targets, rel.incidence) if row)
        )
        assert _simulate_discard(covered) == reference_discard(covered)


@given(st.integers(min_value=1, max_value=800))
@settings(max_examples=30, deadline=None)
def test_discard_replay_matches_reference_on_drawn_mobius_supports(n):
    rel = relation_mobius(factor_elements(squarefree_support(n)))
    covered = restrict_targets(
        rel, (t for t, row in zip(rel.targets, rel.incidence) if row)
    )
    assert _simulate_discard(covered) == reference_discard(covered)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30)
def test_random_seeds_greedy_never_beats_exact(seed):
    rng = random.Random(seed)
    rel = random_relation(rng, max_targets=7, max_candidates=7)
    exact = min_set_cover(rel)
    greedy = min_set_cover(rel, exact_threshold=0)
    assert greedy.kind is CoverKind.GREEDY
    assert greedy.m >= exact.m
    single = exact_cover(rel)
    if single.kind is CoverKind.EXACT_COVER:
        assert single.m >= exact.m
