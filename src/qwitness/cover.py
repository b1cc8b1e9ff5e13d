"""Minimum set cover, exact cover, matchings, and the compressibility verdict.

The minimum-witness problem splits into two formal problems: the smallest set
of witnesses covering every target (set cover), and the smallest covering
every target exactly once (exact cover). Both come from one include-first
search for the lexicographically least smallest cover. ``minimize`` solves
both once per relation; their divergence is the witness deadlock it reports,
and its verdict resolves the deadlock by falling back to self-pairing
witnesses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import ceil

import numpy as np

from .errors import DomainError
from .witnesses import WitnessRelation

DEFAULT_EXACT_THRESHOLD = 24


class CoverKind(enum.Enum):
    EXACT_MINIMUM = "ExactMinimumCover"
    GREEDY = "GreedyCover"
    EXACT_COVER = "ExactCover"
    NO_COVER = "NoCoverExists"


class Regime(enum.Enum):
    COMPRESSIBLE = "Compressible"
    INCOMPRESSIBLE = "Incompressible"
    OVERCOMPLETE = "Overcomplete"

    @classmethod
    def of(cls, m: int, q: int) -> "Regime":
        """The regime a witness count m names against q targets."""
        return cls.COMPRESSIBLE if m < q else cls.INCOMPRESSIBLE if m == q else cls.OVERCOMPLETE


@dataclass(frozen=True)
class CoverSolution:
    chosen: tuple[int, ...]  # witness values, ascending
    kind: CoverKind
    certificate: str = ""

    @property
    def m(self) -> int:
        return len(self.chosen)


@dataclass(frozen=True)
class CompressibilityVerdict:
    m: int
    q: int
    regime: Regime
    paradox: bool
    notes: str = ""


@dataclass(frozen=True)
class Minimization:
    """Step 3 over one relation: both covers, the injective assignment (None
    when none saturates the targets), the deadlock test and the verdict."""

    min_cover: CoverSolution
    exact_cover: CoverSolution
    assignment: dict[int, int] | None
    paradox: bool
    narrative: str
    verdict: CompressibilityVerdict


def _masks(rel: WitnessRelation) -> tuple[int, list[int]]:
    """Per-candidate bitmask of covered target indices, plus the full mask.

    The marked pairs scatter into a (candidate, target) grid whose rows pack,
    least significant bit first, into the bytes of each candidate's mask. Only
    the rows of candidates in some pair are decoded; the rest stay 0.
    """
    target, candidate = rel.marked_pairs
    grid = np.zeros((len(rel.candidates), len(rel.targets)), dtype=bool)
    grid[candidate, target] = True
    rows = np.packbits(grid, axis=1, bitorder="little")
    data, width = rows.tobytes(), rows.shape[1]
    masks = [0] * len(rel.candidates)
    for j in np.flatnonzero(np.bincount(candidate, minlength=len(masks))).tolist():
        masks[j] = int.from_bytes(data[j * width : j * width + width], "little")
    return (1 << len(rel.targets)) - 1, masks


def _require_covered(rel: WitnessRelation) -> None:
    counts = rel.witness_counts
    if 0 in counts:
        t = rel.targets[int(counts.argmin())]
        raise DomainError(f"target {t} has no witness; remove uncovered targets first")


def _greedy_cover(full: int, masks: list[int], values) -> list[int]:
    """Each round picks the candidate of largest gain, ties to the smallest value.

    Lazy: gains only fall as targets get covered, so a popped candidate whose
    recomputed key still precedes the heap top is the round's pick.
    """
    heap = [(-mask.bit_count(), values[j], j) for j, mask in enumerate(masks) if mask]
    heapify(heap)
    covered = 0
    chosen: list[int] = []
    while covered != full:
        if not heap:
            raise DomainError("greedy cover stuck on an uncoverable target")
        _, value, j = heappop(heap)
        gain = (masks[j] & ~covered).bit_count()
        if not gain:
            continue
        if heap and (-gain, value, j) > heap[0]:
            heappush(heap, (-gain, value, j))
            continue
        chosen.append(j)
        covered |= masks[j]
    return chosen


def _least_cover(full: int, masks: list[int], limit: int, disjoint: bool) -> list[int] | None:
    """Lexicographically least of the smallest covers of at most ``limit`` candidates.

    Candidates are ascending by witness value, so an include-first depth-first
    search meets covers in lexicographic order: each cover it finds is the
    least one of its size still allowed, and the limit then drops below it.
    With ``disjoint`` a candidate joins only if it misses every target already
    covered, so only exact covers are found. None when no cover fits.

    A target's only witness is in every cover, so those forced witnesses are
    taken before the search, which then covers the rest with the others. The
    order is kept: between two covers of one size, both holding the forced
    set, the least element of their symmetric difference decides.
    """
    # a candidate covering no target is never included: search without them
    live = [j for j, mask in enumerate(masks) if mask]
    masks = [masks[j] for j in live]
    once = twice = 0
    for mask in masks:
        twice |= once & mask
        once |= mask
    once &= ~twice  # the targets with a single witness
    forced: list[int] = []
    rest = range(len(masks))
    start = 0
    if once:
        forced = [k for k, mask in enumerate(masks) if mask & once]
        limit -= len(forced)
        for k in forced:
            if disjoint and masks[k] & start or limit < 0:
                return None  # two forced witnesses share a target, or too many
            start |= masks[k]
        rest = [k for k, mask in enumerate(masks) if not mask & once]
        masks = [masks[k] for k in rest]
    n = len(masks)
    suffix_union = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_union[j] = suffix_union[j + 1] | masks[j]
    best = None
    # explicit stack; the exclude branch is pushed first so include runs first
    stack: list[tuple[int, int, tuple[int, ...]]] = [(0, start, ())]
    while stack:
        j, covered, chosen = stack.pop()
        if covered == full:
            best, limit = list(chosen), len(chosen) - 1
            continue
        if covered | suffix_union[j] != full:
            continue
        remaining = full & ~covered
        max_gain = max((masks[k] & remaining).bit_count() for k in range(j, n))
        if len(chosen) + ceil(remaining.bit_count() / max_gain) > limit:
            continue
        stack.append((j + 1, covered, chosen))
        # a candidate adding no target is in no smallest cover, and with
        # ``disjoint`` one overlapping the covered targets is in no exact cover
        gain = masks[j] & remaining
        if gain and (gain == masks[j] or not disjoint):
            stack.append((j + 1, covered | gain, chosen + (j,)))
    if best is None:
        return None
    return [live[k] for k in sorted(forced + [rest[k] for k in best])]


def min_set_cover(
    rel: WitnessRelation,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    *,
    masks: tuple[int, list[int]] | None = None,
) -> CoverSolution:
    """Minimum-cardinality witness subset covering all targets.

    Exact (the lexicographically least smallest witness set, searched below
    the greedy size) up to ``exact_threshold`` targets; greedy above it, and
    tagged as such so a heuristic result is never presented as optimal.
    ``masks`` is ``_masks(rel)`` when the caller already holds it.
    """
    _require_covered(rel)
    if not rel.targets:
        return CoverSolution((), CoverKind.EXACT_MINIMUM, "empty target set")
    full, masks = _masks(rel) if masks is None else masks
    values = rel.candidates
    greedy = _greedy_cover(full, masks, values)
    if len(rel.targets) > exact_threshold:
        return CoverSolution(
            tuple(sorted(values[j] for j in greedy)),
            CoverKind.GREEDY,
            f"heuristic: {len(rel.targets)} targets exceed the exactness threshold "
            f"{exact_threshold}",
        )
    chosen = _least_cover(full, masks, len(greedy), disjoint=False)
    return CoverSolution(
        tuple(values[j] for j in chosen),
        CoverKind.EXACT_MINIMUM,
        "branch-and-bound proved no smaller cover exists",
    )


def exact_cover(
    rel: WitnessRelation, *, masks: tuple[int, list[int]] | None = None
) -> CoverSolution:
    """Smallest witness subset covering every target exactly once, if any.

    The cover search restricted to disjoint candidate masks; returns
    NoCoverExists when single coverage is impossible. ``masks`` is
    ``_masks(rel)`` when the caller already holds it.
    """
    _require_covered(rel)
    if not rel.targets:
        return CoverSolution((), CoverKind.EXACT_COVER, "empty target set")
    full, masks = _masks(rel) if masks is None else masks
    chosen = _least_cover(full, masks, len(masks), disjoint=True)
    if chosen is None:
        return CoverSolution(
            (), CoverKind.NO_COVER, "every covering subset covers some target twice"
        )
    return CoverSolution(tuple(rel.candidates[j] for j in chosen), CoverKind.EXACT_COVER)


def unique_witness_assignment(
    rel: WitnessRelation,
) -> tuple[bool, dict[int, int] | None]:
    """Injective target-to-witness assignment saturating all targets, if one exists.

    Augmenting-path maximum matching, target by target; returns (True,
    {target: witness}) when the matching saturates every target and stops at
    the first target it cannot match.
    """
    if len(rel.targets) > len(rel.candidates):
        return False, None  # more targets than witnesses: no injection
    incidence = rel.incidence
    match_of: dict[int, int] = {}  # candidate index -> target index
    partner: dict[int, int] = {}  # target index -> candidate index
    for root in range(len(rel.targets)):
        # depth-first search for an augmenting path on an explicit stack of
        # (target, its untried candidates); each frame past the root was
        # entered through the candidate its target holds
        seen: set[int] = set()
        frames = [(root, iter(incidence[root]))]
        while frames:
            for j in frames[-1][1]:
                if j not in seen:
                    break
            else:
                frames.pop()
                continue
            seen.add(j)
            if j in match_of:
                i = match_of[j]
                frames.append((i, iter(incidence[i])))
                continue
            # flip the path, leaf first
            for i, _untried in reversed(frames):
                match_of[j] = i
                j, partner[i] = partner.get(i), j
            break
        else:
            # no augmenting path from this target now means none later, so
            # the maximum matching leaves it out
            return False, None
    assignment = {rel.targets[i]: rel.candidates[j] for j, i in match_of.items()}
    return True, dict(sorted(assignment.items()))


def _simulate_discard(rel: WitnessRelation) -> tuple[bool, str]:
    """Replay the discard rule: drop redundant witnesses until single coverage.

    Only witnesses whose removal strands nobody are discarded (smallest first,
    scanning targets in order). Returns (reached single coverage, narrative).

    One forward pass suffices: a witness that strands a target keeps stranding
    it, and a singly covered target stays so, so no skipped (target, witness)
    pair ever becomes discardable later. The pass is one loop over the marked
    pairs, by target and then by witness value: within a target's turn only
    the witness under test can be discarded, so skipping the witnesses gone
    before it replays each target's remaining witnesses in order. A target
    keeps the count and the rank sum of the witnesses it still holds, so at a
    count of 1 the sum names the witness that alone holds it; a witness's
    holders are fixed until it is discarded.
    """
    # witnesses by rank in ascending value order, so sorting ranks sorts values;
    # in an ascending pool (every builder's) a candidate index is its rank
    values = sorted(rel.candidates)
    target, rank = rel.marked_pairs
    if values != list(rel.candidates):
        # rank the pool's witnesses, then order each target's pairs by rank
        rank = np.argsort(np.argsort(rel.candidates))[rank]
        by_target = np.argsort(target * len(values) + rank)
        target, rank = target[by_target], rank[by_target]
    turns = rank.tolist()
    holders = target[np.argsort(rank, kind="stable")].tolist()  # by rank, then target
    held = np.bincount(rank, minlength=len(values))
    bounds = [0, *np.cumsum(held).tolist()]  # rank r's: holders[bounds[r]:bounds[r + 1]]
    witnesses = rel.witness_counts
    count = witnesses.tolist()  # per target index: witnesses it still holds
    # a target's rank sum is below len(values)**2, so exact in float64 for
    # pools below 2**26 witnesses
    rank_sum = np.bincount(target, weights=rank, minlength=len(count)).astype(np.intp)
    # per rank: targets it alone still holds
    strands = np.bincount(rank_sum[witnesses == 1], minlength=len(values)).tolist()
    rank_sum = rank_sum.tolist()
    gone = [False] * len(values)
    discarded: list[int] = []
    for r in turns:
        if gone[r] or strands[r]:
            continue
        gone[r] = True
        discarded.append(values[r])
        for u in holders[bounds[r] : bounds[r + 1]]:
            left = count[u] - 1
            count[u] = left
            rank_sum[u] -= r
            if left == 1:
                strands[rank_sum[u]] += 1
    i = next((i for i, left in enumerate(count) if left > 1), None)
    if i is None:
        kept = [w for w, n, out in zip(values, held.tolist(), gone) if n and not out]
        chain = f"discarded {discarded}" if discarded else "nothing to discard"
        return True, f"{chain}; single coverage reached with witnesses {kept}"
    start = int(witnesses[:i].sum())
    mine = [r for r in turns[start : start + int(witnesses[i])] if not gone[r]]
    blockers = "; ".join(
        f"discarding {values[r]} strands "
        f"{sorted(rel.targets[u] for u in holders[bounds[r] : bounds[r + 1]] if count[u] == 1)}"
        for r in mine
    )
    prefix = f"after discarding {discarded}, " if discarded else ""
    return False, (
        f"{prefix}target {rel.targets[i]} still holds witnesses "
        f"{[values[r] for r in mine]}: {blockers}"
    )


def _deadlock(
    rel: WitnessRelation, cover: CoverSolution, exact: CoverSolution
) -> tuple[bool, str]:
    """The witness deadlock: cover says compress, discard rule cannot.

    True iff the minimum cover is smaller than the target count (a shared
    witness exists), every target is multiply witnessed (an apparent excess),
    and yet no exact cover smaller than the target count exists, so the
    discard rule strands targets instead of shrinking the pool.
    """
    if not rel.targets:
        return False, "no targets"
    counts = rel.witness_counts
    i = int(counts.argmin())  # the first target of fewest witnesses
    if counts[i] < 2:
        return False, f"target {rel.targets[i]} has a single witness; nothing to discard there"
    q = len(rel.targets)
    if cover.m >= q:
        return False, f"minimum cover {cover.m} is not below the target count {q}"
    if exact.kind is CoverKind.EXACT_COVER and exact.m < q:
        return False, (
            f"exact cover {list(exact.chosen)} reaches single coverage with "
            f"{exact.m} < {q} witnesses"
        )
    _, narrative = _simulate_discard(rel)
    return True, narrative


def minimize(rel: WitnessRelation, exact_threshold: int) -> Minimization:
    """Solve each cover once; the deadlock test and the verdict read those covers.

    Every target must have a witness; restrict the relation first otherwise.
    A detected deadlock is resolved the only way the construction allows:
    every target witnesses itself, so m becomes q and the bitstring counts as
    incompressible.
    """
    masks = _masks(rel)
    cover = min_set_cover(rel, exact_threshold, masks=masks)
    exact = exact_cover(rel, masks=masks)
    _, assignment = unique_witness_assignment(rel)
    paradox, narrative = _deadlock(rel, cover, exact)
    q = len(rel.targets)
    if not q:
        verdict = CompressibilityVerdict(
            0, 0, Regime.INCOMPRESSIBLE, False, "empty target set; trivially settled"
        )
    elif paradox:
        verdict = CompressibilityVerdict(
            q,
            q,
            Regime.INCOMPRESSIBLE,
            True,
            f"witness deadlock: {narrative}; resolved by self-pairing witnesses",
        )
    else:
        note = "" if cover.kind is CoverKind.EXACT_MINIMUM else f"cover is {cover.kind.value}"
        verdict = CompressibilityVerdict(cover.m, q, Regime.of(cover.m, q), False, note)
    return Minimization(cover, exact, assignment, paradox, narrative, verdict)
