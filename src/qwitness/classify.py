"""Randomness regimes of the post-selected marked state.

The regime is read off the entanglement between the s and w registers across
the post-selected state. A single shared witness leaves a product state (no
randomness); one witness per element gives a maximally entangled pairing
(maximal randomness); witnesses shared by blocks of elements sit in between.
States where some element carries several witnesses fall outside that family
and are labelled NonCanonical.

That state carries one amplitude on every marked pair and nothing elsewhere,
so ``classify_marked`` reads it from the oracle's mask and that amplitude;
no state vector is built.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import log2

import numpy as np

from .errors import DomainError
from .quantum import MarkedOracle

RANK_TOL = 1e-10
_AMP_TOL = 1e-12
_UNIFORM_TOL = 1e-9


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
    ``amplitude`` on every marked pair and nothing elsewhere."""
    rows = np.flatnonzero(oracle.mask.any(axis=1))
    cols = np.flatnonzero(oracle.mask.any(axis=0))
    # complex, as in the state, so the SVD reads the same bytes
    matrix = oracle.mask[np.ix_(rows, cols)] * complex(amplitude)
    return classify_grid(matrix, oracle, rows, cols)


def classify_grid(
    matrix: np.ndarray, oracle: MarkedOracle, rows: np.ndarray, cols: np.ndarray
) -> RandomnessClass:
    """Name the regime of a flag matrix over the oracle's value registers,
    given as its weighted ``rows`` and ``cols`` (ascending indices into the
    registers) and the block ``matrix`` they cut out; it is zero elsewhere.

    Blocks are the occupied rows of each occupied witness column of the
    (s, w) grid. One block is NoRandomness, all-singleton blocks are Maximal,
    anything in between is Partial. A state whose support pairs some element
    with several witnesses, or whose amplitudes are not uniform, is not of
    that family and comes back NonCanonical.
    """
    magnitudes = np.abs(matrix)
    occupied = magnitudes > _AMP_TOL
    if not occupied.any():
        raise DomainError("empty marked support")
    stray = occupied > oracle.mask[np.ix_(rows, cols)]
    if stray.any():
        i, j = np.argwhere(stray)[0]
        s, w = oracle.s_values[rows[i]], oracle.w_values[cols[j]]
        raise DomainError(f"occupied pair ({s}, {w}) is not marked by the relation")
    spectrum = _schmidt_split(matrix)
    entropy = entanglement_entropy(spectrum)
    mags = magnitudes[occupied]
    if occupied.sum(axis=1).max() > 1 or mags.max() - mags.min() > _UNIFORM_TOL:
        return RandomnessClass(RandomnessRegime.NON_CANONICAL, entropy, None, spectrum)
    s_values = np.array(list(map(oracle.s_values.__getitem__, rows.tolist())), dtype=object)
    blocks = tuple(
        sorted(
            (oracle.w_values[cols[j]], tuple(sorted(s_values[occupied[:, j]].tolist())))
            for j in np.flatnonzero(occupied.any(axis=0))
        )
    )
    n_blocks = len(blocks)
    n_elements = int(occupied.any(axis=1).sum())
    if n_blocks == n_elements:
        regime = RandomnessRegime.MAXIMAL
    elif n_blocks == 1:
        regime = RandomnessRegime.NO_RANDOMNESS
    else:
        regime = RandomnessRegime.PARTIAL
    return RandomnessClass(regime, entropy, blocks, spectrum)
