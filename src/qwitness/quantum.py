"""Desk-scale simulation of the marking, search, and counting stages.

Registers are value-encoded: a basis index is the bit concatenation of the
s value, the w value, and a one-qubit answer flag, so |s>|w>|0> literally
carries the integers. Only the n*m configurations built from the two value
sets can ever carry weight, so a state is stored support-indexed: an
(n, m, 2) array over (s values, w values, flag). The register layout decides
whether the stage fits the qubit cap and names the basis index of each
emitted amplitude; nothing is allocated per basis state. The preparation
amplitude is 1/sqrt(n*m) over the n*m populated configurations, which is the
unit-norm reading of an equally weighted superposition over the two value
sets (the nominal 1/sqrt(2^(n+m)) prefactor does not normalize such a state
and is recorded in reports as-written).

Amplification acts on the flag-0 slice: the oracle flips the phase of marked
(s, w) pairs and the diffuser inverts about the uniform state over the
support, which keeps the textbook rotation angle theta = arcsin(sqrt(M/N))
with N = n*m. Counting is textbook phase estimation of that rotation. Both
steps keep every marked amplitude equal and every unmarked amplitude equal,
so the t-bit phase register distribution is computed exactly from two scalar
trajectories, no sampling involved, in memory that depends on t only.

The oracle holds the marked pairs as their ascending flat cells i*m + j of
the (n, m) table, so every reader costs O(marked pairs) and no reader builds
the table. Marking and post-selecting the prepared state leaves one amplitude
c on each marked pair's flag 1, so no marked or post-selected state is built:
readers take the oracle's cells and ``marked_amplitude``. The prepare, mark
and post-select chain that builds those states survives only in the tests, as
the reference these readings are checked against bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import cos, floor, pi, sqrt
from typing import ClassVar

import numpy as np

from .errors import DomainError, QubitCapError

DEFAULT_QUBIT_CAP = 24
DEFAULT_PHASE_BITS = 6
MAX_PHASE_BITS = 20

_NORM_TOL = 1e-12
_AMPLITUDE_TOL = 1e-12  # below this an amplitude counts as zero


def _norm(amplitudes: np.ndarray) -> float:
    """Euclidean norm by pairwise summation (a BLAS dot, as in np.linalg.norm,
    drifts past _NORM_TOL above about 6e5 amplitudes)."""
    parts = np.ascontiguousarray(amplitudes).view(np.float64)
    return sqrt(float(np.sum(parts * parts)))


def _qubits_for(vmax: int) -> int:
    """Qubits needed to hold values 0..vmax (0 for a constant-zero register)."""
    return int(vmax).bit_length()


@dataclass(frozen=True)
class RegisterLayout:
    s_qubits: int
    w_qubits: int
    flag_qubits: ClassVar[int] = 1

    @property
    def total_qubits(self) -> int:
        return self.s_qubits + self.w_qubits + self.flag_qubits

    @classmethod
    def for_values(cls, s_values, w_values, cap: int = DEFAULT_QUBIT_CAP) -> "RegisterLayout":
        """The layout of two non-empty, duplicate-free value registers; past the
        cap it raises QubitCapError before anything is allocated."""
        s_values, w_values = tuple(s_values), tuple(w_values)
        if not s_values or not w_values:
            raise DomainError("both value registers must be non-empty")
        if len(set(s_values)) != len(s_values):
            raise DomainError("duplicate values in the s register")
        if len(set(w_values)) != len(w_values):
            raise DomainError("duplicate values in the w register")
        layout = cls(_qubits_for(max(s_values)), _qubits_for(max(w_values)))
        if layout.total_qubits > cap:
            raise QubitCapError(
                f"{layout.total_qubits} qubits needed "
                f"(s:{layout.s_qubits} w:{layout.w_qubits} flag:1) exceeds cap {cap}"
            )
        return layout


@dataclass
class StateVector:
    """Amplitudes over (s_values, w_values, flag); every other basis state is zero."""

    amplitudes: np.ndarray
    s_values: tuple[int, ...]
    w_values: tuple[int, ...]
    layout: RegisterLayout

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (len(self.s_values), len(self.w_values), 2):
            raise DomainError("amplitude array does not match the value registers")
        if abs(_norm(self.amplitudes) - 1.0) > _NORM_TOL:
            raise DomainError("state vector must have unit norm")

    def to_json_entries(self) -> list[list]:
        """[basis index, re, im] for every configuration carrying weight, in basis order."""
        rows, cols, flags = np.nonzero(np.abs(self.amplitudes) > _AMPLITUDE_TOL)
        # indices of layouts past 63 qubits stay exact Python ints
        dtype = np.int64 if self.layout.total_qubits < 64 else object
        index = (
            (np.array(self.s_values, dtype=dtype)[rows] << (self.layout.w_qubits + 1))
            | (np.array(self.w_values, dtype=dtype)[cols] << 1)
            | flags.astype(dtype)
        )
        order = np.argsort(index, kind="stable")
        values = self.amplitudes[rows[order], cols[order], flags[order]]
        return list(map(list, zip(index[order].tolist(), values.real.tolist(), values.imag.tolist())))


def amplified_state(final: np.ndarray, oracle: MarkedOracle, layout: RegisterLayout) -> StateVector:
    """Grover's final state from ``final``, the flag-0 slice ``grover_run`` returns."""
    shape = (len(oracle.s_values), len(oracle.w_values))
    amps = np.zeros((*shape, 2), dtype=np.complex128)
    amps[:, :, 0] = final.reshape(shape)
    return StateVector(amps, oracle.s_values, oracle.w_values, layout)


def run_starts(keys: np.ndarray) -> np.ndarray:
    """True where a run of equal values starts in ``keys``, False elsewhere."""
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


class MarkedOracle:
    """The marking rule over the s and w value sets, held as the cells it marks.

    ``marked`` holds the flat index ``i*m + j`` of every marked pair
    (s_values[i], w_values[j]), strictly ascending: the marked cells of the
    (n, m) table in row-major order, which no reader builds.
    """

    def __init__(self, s_values: tuple, w_values: tuple, marked: np.ndarray):
        step = marked[1:] - marked[:-1]
        if step.size and step.min() <= 0:
            k = int(np.argmax(step <= 0))
            if step[k] == 0:
                raise DomainError(f"marked cell {marked[k]} repeats")
            raise DomainError(f"marked cells out of order: {marked[k]} before {marked[k + 1]}")
        # ascending, so the ends bound every cell
        if marked.size and (marked[0] < 0 or marked[-1] >= len(s_values) * len(w_values)):
            cell = marked[0] if marked[0] < 0 else marked[-1]
            raise DomainError(
                f"marked cell {cell} outside the {len(s_values)} x {len(w_values)} support"
            )
        self.s_values, self.w_values, self.marked = s_values, w_values, marked
        self.marked_count = len(marked)

    @classmethod
    def from_relation(cls, s_values, relation) -> "MarkedOracle":
        """The cells of a relation's marked pairs over the s values. The pairs
        come sorted by target, so the cells ascend unless the s register holds
        the targets in another order."""
        s_values = tuple(s_values)
        s_index = dict(zip(s_values, range(len(s_values))))
        rows = np.fromiter(map(s_index.get, relation.targets, repeat(-1)), np.intp,
                           len(relation.targets))
        target, candidate = relation.marked_pairs
        rows = rows[target]
        if rows.size and rows.min() < 0:
            k = int(np.argmax(rows < 0))  # the first pair in row order
            t, w = relation.targets[target[k]], relation.candidates[candidate[k]]
            raise DomainError(f"marked pair ({t}, {w}) outside the S x W support")
        marked = rows * len(relation.candidates) + candidate
        if (rows[1:] < rows[:-1]).any():
            marked.sort()
        return cls(s_values, relation.candidates, marked)

    @property
    def support(self) -> int:
        return len(self.s_values) * len(self.w_values)


def grover_iterations_optimal(support: int, n_marked: int) -> int:
    """floor((pi/4) * sqrt(N/M)), the standard near-optimal iteration count."""
    if n_marked < 1:
        raise DomainError("nothing to amplify: no marked configurations")
    if n_marked > support:
        raise DomainError("marked count cannot exceed the support size")
    return floor((pi / 4.0) * sqrt(support / n_marked))


def grover_run(oracle: MarkedOracle, iterations: int) -> tuple[list[float], np.ndarray]:
    """Marked probability after k = 0..iterations rounds, and the final flag-0 slice.

    Starts from the prepared state's flag-0 slice, the uniform complex vector
    1/sqrt(n*m) flattened in (s, w) order. A round flips the phase of the
    marked pairs and inverts about the support mean; the mean's rounding
    depends on that layout, so the vector stays complex and in that order.
    """
    if iterations < 0:
        raise DomainError("iteration count must be >= 0")
    sub = np.full(oracle.support, 1.0 / sqrt(oracle.support), dtype=np.complex128)
    marked = oracle.marked
    trace = [float(np.sum(np.abs(sub[marked]) ** 2))]
    for _ in range(iterations):
        sub[marked] *= -1.0
        np.subtract(2.0 * sub.mean(), sub, out=sub)
        trace.append(float(np.sum(np.abs(sub[marked]) ** 2)))
    return trace, sub


@dataclass(frozen=True)
class CountEstimate:
    estimated_m: float
    phase_bits: int
    phase: Fraction  # folded to [0, 1/2]; k/2^t and (2^t-k)/2^t read the same M
    probability: float  # total weight of the reported (folded) outcome
    exact: bool

    def __post_init__(self):
        if not 0 <= self.phase <= Fraction(1, 2):
            raise DomainError("folded phase must lie in [0, 1/2]")

    def to_json_dict(self) -> dict:
        return {
            "estimated_m": self.estimated_m,
            "phase_bits": self.phase_bits,
            "phase": {"num": self.phase.numerator, "den": self.phase.denominator},
            "probability": self.probability,
            "exact": self.exact,
        }


def _cospi(x: float) -> float:
    """cos(pi*x), exact on half-integers so quarter-turn phases stay rational."""
    doubled = 2.0 * x
    if doubled == round(doubled):
        r = int(round(doubled)) % 4
        return (1.0, 0.0, -1.0, 0.0)[r]
    return cos(pi * x)


def counting_error_bound(support: int, n_marked: int, phase_bits: int) -> float:
    """Standard phase-estimation error bound on the counted M."""
    step = pi / (1 << phase_bits)
    return 2.0 * sqrt(n_marked * support) * step + support * step * step


def quantum_count(oracle: MarkedOracle, phase_bits: int) -> CountEstimate:
    """Phase estimation over the amplification operator, read out exactly.

    The operator rotates the support plane by 2*theta with
    sin(theta) = sqrt(M/N); a t-bit phase register therefore peaks at
    k ~ theta/pi * 2^t, and M is recovered as N*sin^2(pi*k/2^t). The operator
    keeps all M marked amplitudes equal (a_j) and all N - M unmarked ones equal
    (b_j), so the full 2^t-point register distribution is
    (M*|DFT(a)|^2 + (N-M)*|DFT(b)|^2) / 2^(2t), and the modal (folded)
    outcome is reported. When the rotation angle is exactly representable in
    t bits the distribution collapses onto it and the estimate is exact.
    """
    if not 1 <= phase_bits <= MAX_PHASE_BITS:
        raise DomainError(f"phase register needs 1..{MAX_PHASE_BITS} bits, got {phase_bits}")
    n_points = oracle.support
    n_marked = oracle.marked_count
    t_dim = 1 << phase_bits
    a = np.empty(t_dim)
    b = np.empty(t_dim)
    a_j = b_j = 1.0 / sqrt(n_points)
    for j in range(t_dim):
        a[j], b[j] = a_j, b_j
        mean = ((n_points - n_marked) * b_j - n_marked * a_j) / n_points
        a_j, b_j = 2.0 * mean + a_j, 2.0 * mean - b_j
    # inverse QFT on the phase register == DFT over the trajectory axis
    probs = (
        n_marked * np.abs(np.fft.fft(a)) ** 2 + (n_points - n_marked) * np.abs(np.fft.fft(b)) ** 2
    ) / (t_dim * t_dim)
    half = t_dim // 2
    folded = probs[: half + 1].copy()  # k and 2^t - k read the same M
    folded[1:half] += probs[:half:-1]
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


def marked_amplitude(oracle: MarkedOracle) -> float:
    """The amplitude c on every marked pair of the marked, post-selected state,
    bit for bit as renormalizing that state's flag-1 slice computes it (with
    its unit-norm check): the squares sit where the state's float64 view holds
    them, at 4k + 2 of 4*n*m for marked flat index k, so ``np.sum`` adds them
    in the same order."""
    a = 1.0 / sqrt(oracle.support)
    parts = np.zeros(4 * oracle.support)
    at = 4 * oracle.marked + 2
    parts[at] = a * a
    norm = sqrt(float(np.sum(parts)))
    if norm < 1e-12:
        raise DomainError("no probability on flag = 1; nothing to post-select")
    c = a * (1.0 / norm)  # numpy divides a complex by a real via its reciprocal
    parts[at] = c * c
    if abs(sqrt(float(np.sum(parts))) - 1.0) > _NORM_TOL:
        raise DomainError("state vector must have unit norm")
    return c
