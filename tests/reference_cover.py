"""The cover searches as first written, kept as an independent oracle.

``min_cover`` proves the smallest size with a scarcest-target branch and bound
and then looks for the lexicographically least cover of that size in a second
pass; ``exact_cover`` branches on the lowest uncovered target over disjoint
masks and keeps the best ``(size, values)`` it meets. Tests compare the one
include-first search in ``qwitness.cover`` against them. ``greedy_cover``
rescans every candidate each round, and ``assignment`` finds augmenting paths
by recursion; the lazy greedy and the explicit-stack matching must pick the
same witnesses.
"""

from __future__ import annotations

from math import ceil

from qwitness.cover import _masks
from qwitness.witnesses import WitnessRelation


def greedy_cover(full: int, masks: list[int], values) -> list[int]:
    """Candidate indices in pick order: the largest gain, ties to the smallest value."""
    covered = 0
    chosen: list[int] = []
    while covered != full:
        best, best_gain = None, 0
        for j, mask in enumerate(masks):
            gain = (mask & ~covered).bit_count()
            if gain > best_gain or (gain == best_gain and gain and values[j] < values[best]):
                best, best_gain = j, gain
        assert best_gain, "greedy cover stuck on an uncoverable target"
        chosen.append(best)
        covered |= masks[best]
    return chosen


def assignment(rel: WitnessRelation) -> dict[int, int] | None:
    """{target: witness} from recursive augmenting paths, or None when the
    matching leaves a target out."""
    match_of: dict[int, int] = {}  # candidate index -> target index

    def augment(i: int, seen: set[int]) -> bool:
        for j in rel.incidence[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_of or augment(match_of[j], seen):
                match_of[j] = i
                return True
        return False

    if sum(augment(i, set()) for i in range(len(rel.targets))) != len(rel.targets):
        return None
    return dict(sorted((rel.targets[i], rel.candidates[j]) for j, i in match_of.items()))


def _min_cover_size(full: int, masks: list[int], upper: int) -> int:
    """Exact minimum cover size by branch and bound with a coverage lower bound."""
    order = sorted(range(len(masks)), key=lambda j: -masks[j].bit_count())
    masks_o = [masks[j] for j in order]
    best = upper
    # depth-first with an explicit stack (the depth reaches the cover size);
    # children are pushed in reverse so they are visited in branching order
    stack = [(0, 0)]
    while stack:
        covered, used = stack.pop()
        if covered == full:
            best = min(best, used)
            continue
        if used + 1 >= best:
            continue
        remaining = full & ~covered
        max_gain = max((m & remaining).bit_count() for m in masks_o)
        if max_gain == 0:
            continue
        if used + ceil(remaining.bit_count() / max_gain) >= best:
            continue
        # branch on the scarcest uncovered target
        bit, scarcity = -1, None
        r = remaining
        while r:
            b = (r & -r).bit_length() - 1
            n = sum(1 for m in masks_o if m >> b & 1)
            if scarcity is None or n < scarcity:
                bit, scarcity = b, n
            r &= r - 1
        covering = [j for j, m in enumerate(masks_o) if m >> bit & 1]
        covering.sort(key=lambda j: -(masks_o[j] & remaining).bit_count())
        stack.extend((covered | masks_o[j], used + 1) for j in reversed(covering))
    return best


def _lexmin_cover(full: int, masks: list[int], size: int) -> list[int] | None:
    """Lexicographically smallest cover of exactly ``size`` candidates.

    Candidates are assumed sorted ascending by witness value, so an
    include-first depth-first search yields the smallest chosen tuple.
    """
    n = len(masks)
    suffix_union = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_union[j] = suffix_union[j + 1] | masks[j]
    # explicit stack; the exclude branch is pushed first so include runs first
    stack: list[tuple[int, int, tuple[int, ...]]] = [(0, 0, ())]
    while stack:
        j, covered, chosen = stack.pop()
        if covered == full:
            return list(chosen)
        if j == n or len(chosen) == size:
            continue
        if covered | suffix_union[j] != full:
            continue
        remaining = full & ~covered
        max_gain = max((masks[k] & remaining).bit_count() for k in range(j, n))
        if max_gain == 0 or len(chosen) + ceil(remaining.bit_count() / max_gain) > size:
            continue
        stack.append((j + 1, covered, chosen))
        stack.append((j + 1, covered | masks[j], chosen + (j,)))
    return None


def min_cover(rel: WitnessRelation) -> tuple[int, ...]:
    """Witness values of the lexicographically least smallest cover."""
    if not rel.targets:
        return ()
    full, masks = _masks(rel)
    greedy = greedy_cover(full, masks, rel.candidates)
    size = _min_cover_size(full, masks, upper=len(greedy))
    chosen = _lexmin_cover(full, masks, size)
    assert chosen is not None and len(chosen) == size
    return tuple(rel.candidates[j] for j in chosen)


def exact_cover(rel: WitnessRelation) -> tuple[int, ...] | None:
    """Witness values of the least smallest exact cover; None when none exists."""
    if not rel.targets:
        return ()
    full, masks = _masks(rel)
    values = rel.candidates
    best: list[int] | None = None
    # depth-first with an explicit stack (the depth reaches the cover size);
    # children are pushed in reverse so they are visited in candidate order
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        covered, chosen = stack.pop()
        if covered == full:
            pick = sorted(values[j] for j in chosen)
            if best is None or (len(pick), pick) < (len(best), best):
                best = pick
            continue
        if best is not None and len(chosen) + 1 > len(best):
            continue
        remaining = full & ~covered
        bit = (remaining & -remaining).bit_length() - 1
        usable = [j for j, m in enumerate(masks) if (m >> bit & 1) and not (m & covered)]
        stack.extend((covered | masks[j], chosen + (j,)) for j in reversed(usable))
    return None if best is None else tuple(best)
