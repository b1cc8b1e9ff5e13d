"""Randomness regimes of the post-selected marked state.

The regime is read off the entanglement between the s and w registers across
the post-selected state. A single shared witness leaves a product state (no
randomness); one witness per element gives a maximally entangled pairing
(maximal randomness); witnesses shared by blocks of elements sit in between.
States where some element carries several witnesses fall outside that family
and are labelled NonCanonical.

That state carries one amplitude on every marked pair and nothing elsewhere,
so ``classify_marked`` reads it from the oracle's marked cells and that
amplitude, in time linear in the marked pairs and the witness register apart
from the SVD of the trimmed flag matrix and, for a canonical state, one sort
by column to collect the blocks; no state vector is built.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import log2

import numpy as np

from .errors import DomainError
from .quantum import MarkedOracle, run_starts

RANK_TOL = 1e-10


class RandomnessRegime(enum.Enum):
    NO_RANDOMNESS = "NoRandomness"
    PARTIAL = "Partial"
    MAXIMAL = "Maximal"
    NON_CANONICAL = "NonCanonical"


@dataclass(frozen=True)
class SchmidtSpectrum:
    coefficients: tuple[float, ...]  # descending singular values
    rank: int


@dataclass(frozen=True)
class RandomnessClass:
    regime: RandomnessRegime
    entropy_bits: float
    blocks: tuple[tuple[int, tuple[int, ...]], ...] | None  # (witness, elements)
    spectrum: SchmidtSpectrum


def _schmidt_split(trimmed: np.ndarray) -> SchmidtSpectrum:
    """The spectrum of a flag matrix trimmed to its weighted rows and columns
    (zero rows and columns do not move singular values)."""
    sv = np.linalg.svd(trimmed, compute_uv=False)
    sv = np.clip(sv, 0.0, None)
    total = float(np.sum(sv**2))
    if abs(total - 1.0) > 1e-10:
        raise DomainError(f"Schmidt coefficients squared sum to {total}, not 1")
    rank = int(np.sum(sv > RANK_TOL))
    return SchmidtSpectrum(tuple(float(x) for x in sv), max(rank, 1))


def entanglement_entropy(spectrum: SchmidtSpectrum) -> float:
    """-sum(lambda * log2(lambda)) over the squared coefficients."""
    out = 0.0
    for c in spectrum.coefficients:
        lam = c * c
        if lam > 0.0:
            out -= lam * log2(lam)
    return max(out, 0.0)


def classify_marked(oracle: MarkedOracle, amplitude: float) -> RandomnessClass:
    """The regime of the post-selected marked state, which carries one
    ``amplitude`` on every marked pair and nothing elsewhere.

    Its flag matrix, trimmed to the marked rows and columns, goes to the SVD.
    Blocks are the marked rows of each marked witness column. One block is
    NoRandomness, all-singleton blocks are Maximal, anything in between is
    Partial. A state that pairs some element with several witnesses is not of
    that family and comes back NonCanonical.
    """
    if not oracle.marked.size:
        raise DomainError("empty marked support")
    row, col = np.divmod(oracle.marked, len(oracle.w_values))
    # the cells ascend, so each row's cells form one run
    new_row = run_starts(row)
    # a marked column's rank among the marked columns is its matrix column
    used = np.zeros(len(oracle.w_values), dtype=bool)
    used[col] = True
    rank = np.cumsum(used) - 1
    n_rows, n_cols = int(np.count_nonzero(new_row)), int(rank[-1]) + 1
    # complex and C-ordered, as in the state, so the SVD reads the same bytes
    matrix = np.zeros((n_rows, n_cols), dtype=np.complex128)
    matrix[np.cumsum(new_row) - 1, rank[col]] = complex(amplitude)
    spectrum = _schmidt_split(matrix)
    entropy = entanglement_entropy(spectrum)
    if n_rows < row.size:
        return RandomnessClass(RandomnessRegime.NON_CANONICAL, entropy, None, spectrum)
    # one cell per row: each column's run of the column order is its block
    by_col = np.argsort(col, kind="stable")
    col_sorted = col[by_col]
    new_col = run_starts(col_sorted)
    s_of = list(map(oracle.s_values.__getitem__, row[by_col].tolist()))
    bounds = [*np.flatnonzero(new_col).tolist(), len(s_of)]
    blocks = tuple(
        sorted(
            (oracle.w_values[c], tuple(sorted(s_of[a:b])))
            for c, a, b in zip(col_sorted[new_col].tolist(), bounds, bounds[1:])
        )
    )
    if n_cols == n_rows:
        regime = RandomnessRegime.MAXIMAL
    elif n_cols == 1:
        regime = RandomnessRegime.NO_RANDOMNESS
    else:
        regime = RandomnessRegime.PARTIAL
    return RandomnessClass(regime, entropy, blocks, spectrum)
