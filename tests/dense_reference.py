"""Dense and support-indexed statevector references for the quantum stage and
the Schmidt split.

Every basis state of the value-encoded s|w|flag registers is allocated, and
counting runs the full (2^t, n*m) trajectory through the amplification
operator. This is the original implementation kept as an independent oracle:
tests compare the support-indexed code in ``qwitness.quantum`` and
``qwitness.classify`` against it on small inputs.

The support-indexed chain ``indexed_prepare -> indexed_marking ->
indexed_post_select`` builds the marked, post-selected state as an (n, m, 2)
``qwitness.quantum.StateVector``, and ``indexed_schmidt`` and
``indexed_classify`` read its flag matrix. ``classify_grid`` names the regime
of any such matrix, rejecting weight off the oracle's marked cells and
non-uniform amplitudes. The package reads that state from the oracle's marked
cells and ``marked_amplitude`` instead; tests hold those readings to this
chain bit for bit, and this chain to the dense one.

``classify_per_pair`` is the original classifier, which walks the occupied
(s, w) pairs of a support-indexed state one by one; tests compare the grid
classifier against it.

``basis_index``, ``decode``, ``indexed_amplitude``, ``indexed_norm`` and
``indexed_support`` read registers and support-indexed states point by point,
for the tests only.

``oracle_of_pairs`` fills an (n, m) mask pair by pair, checking each pair
against the two value sets, and hands the oracle its marked cells; tests
compare ``MarkedOracle.from_relation`` against it. ``oracle_mask`` is the
(n, m) bool view of an oracle's cells and ``pairs_of_oracle`` reads the marked
(s, w) value pairs back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from qwitness.classify import (
    RANK_TOL,
    RandomnessClass,
    RandomnessRegime,
    SchmidtSpectrum,
    _schmidt_split,
    entanglement_entropy,
)
from qwitness.errors import DomainError
from qwitness.quantum import (
    DEFAULT_QUBIT_CAP,
    CountEstimate,
    MarkedOracle,
    RegisterLayout,
    _AMPLITUDE_TOL,
    _NORM_TOL,
    _cospi,
    _norm,
)
from qwitness.quantum import StateVector as IndexedStateVector
from qwitness.witnesses import WitnessRelation
from reference_relations import relation_pairs

_AMP_TOL = 1e-12
_UNIFORM_TOL = 1e-9


def oracle_of_pairs(s_values, w_values, pairs) -> MarkedOracle:
    """The oracle marking exactly the given (s, w) value pairs."""
    s_values, w_values = tuple(s_values), tuple(w_values)
    s_index = {s: i for i, s in enumerate(s_values)}
    w_index = {w: j for j, w in enumerate(w_values)}
    mask = np.zeros((len(s_values), len(w_values)), dtype=bool)
    for s, w in pairs:
        if s not in s_index or w not in w_index:
            raise DomainError(f"marked pair ({s}, {w}) outside the S x W support")
        mask[s_index[s], w_index[w]] = True
    return MarkedOracle(s_values, w_values, np.flatnonzero(mask))


def oracle_mask(oracle: MarkedOracle) -> np.ndarray:
    """The (n, m) bool table of an oracle's marked cells, in register order."""
    mask = np.zeros(oracle.support, dtype=bool)
    mask[oracle.marked] = True
    return mask.reshape(len(oracle.s_values), len(oracle.w_values))


def pairs_of_oracle(oracle: MarkedOracle) -> frozenset[tuple[int, int]]:
    """The marked (s, w) value pairs of an oracle."""
    rows, cols = np.divmod(oracle.marked, len(oracle.w_values))
    return frozenset(zip(map(oracle.s_values.__getitem__, rows.tolist()),
                         map(oracle.w_values.__getitem__, cols.tolist())))


def basis_index(layout: RegisterLayout, s: int, w: int, flag: int) -> int:
    """The basis index of (s, w, flag): the bit concatenation of the registers."""
    return (s << (layout.w_qubits + 1)) | (w << 1) | flag


def decode(layout: RegisterLayout, index: int) -> tuple[int, int, int]:
    """(s, w, flag) of a basis index; ``basis_index`` inverted."""
    flag = index & 1
    w = (index >> 1) & ((1 << layout.w_qubits) - 1)
    s = index >> (layout.w_qubits + 1)
    return s, w, flag


def indexed_amplitude(state: IndexedStateVector, s: int, w: int, flag: int) -> complex:
    """One amplitude of a support-indexed state; 0 off its value registers."""
    if s not in state.s_values or w not in state.w_values:
        return 0j
    return complex(state.amplitudes[state.s_values.index(s), state.w_values.index(w), flag])


def indexed_norm(state: IndexedStateVector) -> float:
    """The norm a support-indexed state checks itself against."""
    return _norm(state.amplitudes)


def indexed_support(state: IndexedStateVector) -> np.ndarray:
    """(n, m) grid of the (s, w) pairs carrying weight on either flag value."""
    return (np.abs(state.amplitudes) > _AMPLITUDE_TOL).any(axis=2)


def indexed_prepare(s_values, w_values, cap: int = DEFAULT_QUBIT_CAP) -> IndexedStateVector:
    """Equal amplitudes 1/sqrt(n*m) on every (s, w, 0) configuration."""
    s_values, w_values = tuple(s_values), tuple(w_values)
    layout = RegisterLayout.for_values(s_values, w_values, cap)
    amps = np.zeros((len(s_values), len(w_values), 2), dtype=np.complex128)
    amps[:, :, 0] = 1.0 / sqrt(len(s_values) * len(w_values))
    return IndexedStateVector(amps, s_values, w_values, layout)


def indexed_marking(state: IndexedStateVector, oracle: MarkedOracle) -> IndexedStateVector:
    """Write the oracle bit into the flag: (s, w, b) -> (s, w, b xor Q(s, w)).

    A pure permutation of amplitudes, hence self-inverse and norm-preserving.
    The state's value registers must hold the oracle's values, in any order;
    the result is in the oracle's order.
    """
    amps = state.amplitudes
    if (state.s_values, state.w_values) != (oracle.s_values, oracle.w_values):
        rows = {s: i for i, s in enumerate(state.s_values)}
        cols = {w: j for j, w in enumerate(state.w_values)}
        if rows.keys() != set(oracle.s_values) or cols.keys() != set(oracle.w_values):
            raise DomainError("state value registers differ from the oracle support")
        amps = amps[np.ix_([rows[s] for s in oracle.s_values], [cols[w] for w in oracle.w_values])]
    amps = amps.copy()
    mask = oracle_mask(oracle)
    amps[mask] = amps[mask][:, ::-1]
    return IndexedStateVector(amps, oracle.s_values, oracle.w_values, state.layout)


def indexed_post_select(state: IndexedStateVector) -> IndexedStateVector:
    """Renormalized restriction to flag = 1."""
    amps = state.amplitudes.copy()
    amps[:, :, 0] = 0.0
    norm = _norm(amps)
    if norm < 1e-12:
        raise DomainError("no probability on flag = 1; nothing to post-select")
    amps /= norm
    return IndexedStateVector(amps, state.s_values, state.w_values, state.layout)


def indexed_flag_matrix(state: IndexedStateVector) -> np.ndarray:
    """Amplitudes as an (s, w) matrix on whichever flag slice carries the state."""
    grid = state.amplitudes
    mass = [float(np.sum(np.abs(grid[:, :, f]) ** 2)) for f in (0, 1)]
    if mass[0] > _AMP_TOL and mass[1] > _AMP_TOL:
        raise DomainError("flag register carries weight on both values; post-select first")
    if mass[0] <= _AMP_TOL and mass[1] <= _AMP_TOL:
        raise DomainError("zero state has no Schmidt decomposition")
    return grid[:, :, 1] if mass[1] > mass[0] else grid[:, :, 0]


def _weighted(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows and columns of a flag matrix that carry any weight."""
    magnitudes = np.abs(matrix)
    return np.flatnonzero(magnitudes.sum(axis=1) > 0), np.flatnonzero(magnitudes.sum(axis=0) > 0)


def indexed_schmidt(state: IndexedStateVector) -> SchmidtSpectrum:
    """Singular values across the s|w cut, descending; squared sum is 1."""
    matrix = indexed_flag_matrix(state)
    return _schmidt_split(matrix[np.ix_(*_weighted(matrix))])


def indexed_classify(state: IndexedStateVector, oracle: MarkedOracle) -> RandomnessClass:
    """Name the regime of a post-selected marked state (see ``classify_grid``)."""
    if (state.s_values, state.w_values) != (oracle.s_values, oracle.w_values):
        raise DomainError("state value registers differ from the oracle support")
    matrix = indexed_flag_matrix(state)
    rows, cols = _weighted(matrix)
    return classify_grid(matrix[np.ix_(rows, cols)], oracle, rows, cols)


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
    stray = occupied > oracle_mask(oracle)[np.ix_(rows, cols)]
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


@dataclass
class StateVector:
    amplitudes: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.layout.total_qubits,):
            raise DomainError("amplitude vector does not match the register layout")
        if abs(np.linalg.norm(self.amplitudes) - 1.0) > _NORM_TOL:
            raise DomainError("state vector must have unit norm")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, s: int, w: int, flag: int) -> complex:
        return complex(self.amplitudes[basis_index(self.layout, s, w, flag)])

    def nonzero_pairs(self, tol: float = 1e-12) -> list[tuple[int, int, int, complex]]:
        """(s, w, flag, amplitude) for every configuration carrying weight."""
        out = []
        for idx in np.flatnonzero(np.abs(self.amplitudes) > tol):
            s, w, flag = decode(self.layout, int(idx))
            out.append((s, w, flag, complex(self.amplitudes[idx])))
        return out

    def to_json_entries(self, tol: float = 1e-12) -> list[list]:
        return [
            [int(idx), float(self.amplitudes[idx].real), float(self.amplitudes[idx].imag)]
            for idx in np.flatnonzero(np.abs(self.amplitudes) > tol)
        ]


def prepare_superposition(
    s_values, w_values, cap: int = DEFAULT_QUBIT_CAP
) -> StateVector:
    """Equal amplitudes 1/sqrt(n*m) on every (s, w, 0) configuration."""
    s_values = tuple(s_values)
    w_values = tuple(w_values)
    if not s_values or not w_values:
        raise DomainError("both value registers must be non-empty")
    if len(set(s_values)) != len(s_values):
        raise DomainError("duplicate values in the s register")
    if len(set(w_values)) != len(w_values):
        raise DomainError("duplicate values in the w register")
    layout = RegisterLayout.for_values(s_values, w_values, cap)
    amps = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
    amp = 1.0 / sqrt(len(s_values) * len(w_values))
    for s in s_values:
        for w in w_values:
            amps[basis_index(layout, s, w, 0)] = amp
    return StateVector(amps, layout)


def _support_indices(oracle: MarkedOracle, layout: RegisterLayout, flag: int) -> np.ndarray:
    return np.array(
        [basis_index(layout, s, w, flag) for s in oracle.s_values for w in oracle.w_values],
        dtype=np.int64,
    )


def _check_support(state: StateVector, oracle: MarkedOracle, flag: int | None) -> None:
    allowed = set()
    flags = (0, 1) if flag is None else (flag,)
    for f in flags:
        allowed.update(int(i) for i in _support_indices(oracle, state.layout, f))
    outside = [
        int(i)
        for i in np.flatnonzero(np.abs(state.amplitudes) > _NORM_TOL)
        if int(i) not in allowed
    ]
    if outside:
        s, w, f = decode(state.layout, outside[0])
        raise DomainError(f"state has weight on ({s}, {w}, flag={f}) outside the oracle support")


def apply_marking(state: StateVector, oracle: MarkedOracle) -> StateVector:
    """Write the oracle bit into the flag: (s, w, b) -> (s, w, b xor Q(s, w)).

    A pure permutation of amplitudes, hence self-inverse and norm-preserving.
    """
    _check_support(state, oracle, flag=None)
    amps = state.amplitudes.copy()
    for s, w in pairs_of_oracle(oracle):
        i0 = basis_index(state.layout, s, w, 0)
        i1 = basis_index(state.layout, s, w, 1)
        amps[i0], amps[i1] = amps[i1], amps[i0]
    return StateVector(amps, state.layout)


def _grover_step(amps: np.ndarray, support: np.ndarray, marked_mask: np.ndarray) -> None:
    """One in-place round: phase flip on marked pairs, invert about the support mean."""
    sub = amps[support]
    sub[marked_mask] *= -1.0
    sub = 2.0 * sub.mean() - sub
    amps[support] = sub


def _support_and_mask(state: StateVector, oracle: MarkedOracle) -> tuple[np.ndarray, np.ndarray]:
    support = _support_indices(oracle, state.layout, flag=0)
    marked = pairs_of_oracle(oracle)
    marked_mask = np.array(
        [(s, w) in marked for s in oracle.s_values for w in oracle.w_values],
        dtype=bool,
    )
    return support, marked_mask


def grover_amplify(state: StateVector, oracle: MarkedOracle, iterations: int) -> StateVector:
    """Run ``iterations`` amplification rounds on a prepared state."""
    if iterations < 0:
        raise DomainError("iteration count must be >= 0")
    _check_support(state, oracle, flag=0)
    support, marked_mask = _support_and_mask(state, oracle)
    amps = state.amplitudes.copy()
    for _ in range(iterations):
        _grover_step(amps, support, marked_mask)
    return StateVector(amps, state.layout)


def grover_trace(state: StateVector, oracle: MarkedOracle, max_iterations: int) -> list[float]:
    """Marked probability after k = 0..max_iterations rounds (incremental)."""
    _check_support(state, oracle, flag=0)
    support, marked_mask = _support_and_mask(state, oracle)
    amps = state.amplitudes.copy()
    trace = []
    for _ in range(max_iterations + 1):
        sub = amps[support]
        trace.append(float(np.sum(np.abs(sub[marked_mask]) ** 2)))
        _grover_step(amps, support, marked_mask)
    return trace


def quantum_count(oracle: MarkedOracle, phase_bits: int) -> CountEstimate:
    """Phase estimation over the amplification operator, read out exactly.

    The operator rotates the support plane by 2*theta with
    sin(theta) = sqrt(M/N); a t-bit phase register therefore peaks at
    k ~ theta/pi * 2^t, and M is recovered as N*sin^2(pi*k/2^t). The full
    2^t-point register distribution is computed from the operator trajectory,
    and the modal (folded) outcome is reported. When the rotation angle is
    exactly representable in t bits the distribution collapses onto it and the
    estimate is exact.
    """
    if phase_bits < 1:
        raise DomainError("phase register needs at least one bit")
    n_points = oracle.support
    marked = pairs_of_oracle(oracle)
    marked_mask = np.array(
        [(s, w) in marked for s in oracle.s_values for w in oracle.w_values],
        dtype=bool,
    )
    t_dim = 1 << phase_bits
    psi = np.full(n_points, 1.0 / sqrt(n_points), dtype=np.complex128)
    trajectory = np.empty((t_dim, n_points), dtype=np.complex128)
    for j in range(t_dim):
        trajectory[j] = psi
        nxt = psi.copy()
        nxt[marked_mask] *= -1.0
        psi = 2.0 * nxt.mean() - nxt
    # inverse QFT on the phase register == DFT over the trajectory axis
    spectrum = np.fft.fft(trajectory, axis=0) / t_dim
    probs = np.sum(np.abs(spectrum) ** 2, axis=1)
    folded = np.zeros(t_dim // 2 + 1)
    for k in range(t_dim):
        folded[min(k, t_dim - k)] += probs[k]
    k_best = int(np.argmax(folded))
    probability = float(folded[k_best])
    phase = Fraction(k_best, t_dim)
    estimated = n_points * (1.0 - _cospi(2.0 * k_best / t_dim)) / 2.0
    exact = probability > 1.0 - 1e-9
    return CountEstimate(
        estimated_m=float(estimated),
        phase_bits=phase_bits,
        phase=phase,
        probability=probability,
        exact=exact,
    )


def post_select_flag(state: StateVector) -> StateVector:
    """Renormalized restriction to flag = 1."""
    amps = state.amplitudes.copy()
    amps[0::2] = 0.0
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise DomainError("no probability on flag = 1; nothing to post-select")
    return StateVector(amps / norm, state.layout)


def _flag_matrix(state: StateVector) -> np.ndarray:
    """Amplitudes as an (s, w) matrix on whichever flag slice carries the state."""
    layout = state.layout
    grid = state.amplitudes.reshape(1 << layout.s_qubits, 1 << layout.w_qubits, 2)
    mass = [float(np.sum(np.abs(grid[:, :, f]) ** 2)) for f in (0, 1)]
    if mass[0] > _AMP_TOL and mass[1] > _AMP_TOL:
        raise DomainError("flag register carries weight on both values; post-select first")
    if mass[0] <= _AMP_TOL and mass[1] <= _AMP_TOL:
        raise DomainError("zero state has no Schmidt decomposition")
    return grid[:, :, 1] if mass[1] > mass[0] else grid[:, :, 0]


def schmidt(state: StateVector) -> SchmidtSpectrum:
    """Singular values across the s|w cut, descending; squared sum is 1."""
    matrix = _flag_matrix(state)
    # zero rows/columns do not move singular values; trim for cheap SVDs
    rows = np.flatnonzero(np.abs(matrix).sum(axis=1) > 0)
    cols = np.flatnonzero(np.abs(matrix).sum(axis=0) > 0)
    sv = np.linalg.svd(matrix[np.ix_(rows, cols)], compute_uv=False)
    sv = np.clip(sv, 0.0, None)
    total = float(np.sum(sv**2))
    if abs(total - 1.0) > 1e-10:
        raise DomainError(f"Schmidt coefficients squared sum to {total}, not 1")
    rank = int(np.sum(sv > RANK_TOL))
    return SchmidtSpectrum(tuple(float(x) for x in sv), max(rank, 1))


def _marked_pairs(state: IndexedStateVector) -> list[tuple[int, int, complex]]:
    matrix = indexed_flag_matrix(state)
    out = []
    for i, j in zip(*np.nonzero(np.abs(matrix) > _AMP_TOL)):
        out.append((state.s_values[i], state.w_values[j], complex(matrix[i, j])))
    return out


def classify_per_pair(state: IndexedStateVector, relation: WitnessRelation) -> RandomnessClass:
    """Name the regime of a post-selected marked state.

    Blocks are recovered by grouping the occupied (s, w) pairs by witness
    value. One block is NoRandomness, all-singleton blocks are Maximal,
    anything in between is Partial. A state whose support pairs some element
    with several witnesses, or whose amplitudes are not uniform, is not of
    that family and comes back NonCanonical.
    """
    pairs = _marked_pairs(state)
    if not pairs:
        raise DomainError("empty marked support")
    allowed = set(relation_pairs(relation))
    for s, w, _ in pairs:
        if (s, w) not in allowed:
            raise DomainError(f"occupied pair ({s}, {w}) is not marked by the relation")
    spectrum = indexed_schmidt(state)
    entropy = entanglement_entropy(spectrum)
    by_s: dict[int, set[int]] = {}
    by_w: dict[int, list[int]] = {}
    for s, w, _ in pairs:
        by_s.setdefault(s, set()).add(w)
        by_w.setdefault(w, []).append(s)
    if any(len(ws) > 1 for ws in by_s.values()):
        return RandomnessClass(RandomnessRegime.NON_CANONICAL, entropy, None, spectrum)
    mags = [abs(a) for *_, a in pairs]
    if max(mags) - min(mags) > _UNIFORM_TOL:
        return RandomnessClass(RandomnessRegime.NON_CANONICAL, entropy, None, spectrum)
    blocks = tuple(
        (w, tuple(sorted(elems))) for w, elems in sorted(by_w.items())
    )
    n_blocks = len(blocks)
    n_elements = len(by_s)
    if n_blocks == n_elements:
        regime = RandomnessRegime.MAXIMAL
    elif n_blocks == 1:
        regime = RandomnessRegime.NO_RANDOMNESS
    else:
        regime = RandomnessRegime.PARTIAL
    return RandomnessClass(regime, entropy, blocks, spectrum)
