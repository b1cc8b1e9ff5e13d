"""Desk-scale statevector simulation of the marking, search, and counting stages.

Registers are value-encoded: a basis index is the bit concatenation of the
s value, the w value, and a one-qubit answer flag, so |s>|w>|0> literally
carries the integers. The preparation amplitude is 1/sqrt(n*m) over the
n*m populated configurations, which is the unit-norm reading of an equally
weighted superposition over the two value sets (the nominal 1/sqrt(2^(n+m))
prefactor does not normalize such a state and is recorded in reports
as-written).

Amplification and counting act on the n*m-point support: the oracle flips the
phase of marked (s, w) pairs and the diffuser inverts about the uniform state
over the support, which keeps the textbook rotation angle
theta = arcsin(sqrt(M/N)) with N = n*m. Counting is textbook phase estimation
of that rotation: the t-bit phase register distribution is computed exactly
from the operator's trajectory, no sampling involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import cos, floor, pi, sqrt

import numpy as np

from .errors import DomainError, QubitCapError

DEFAULT_QUBIT_CAP = 24
DEFAULT_PHASE_BITS = 6

_NORM_TOL = 1e-12


def _qubits_for(vmax: int) -> int:
    """Qubits needed to hold values 0..vmax (0 for a constant-zero register)."""
    return int(vmax).bit_length()


@dataclass(frozen=True)
class RegisterLayout:
    s_qubits: int
    w_qubits: int
    flag_qubits: int = 1

    @property
    def total_qubits(self) -> int:
        return self.s_qubits + self.w_qubits + self.flag_qubits

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    def index(self, s: int, w: int, flag: int) -> int:
        return (s << (self.w_qubits + 1)) | (w << 1) | flag

    def decode(self, index: int) -> tuple[int, int, int]:
        flag = index & 1
        w = (index >> 1) & ((1 << self.w_qubits) - 1)
        s = index >> (self.w_qubits + 1)
        return s, w, flag

    @classmethod
    def for_values(cls, s_values, w_values, cap: int = DEFAULT_QUBIT_CAP) -> "RegisterLayout":
        layout = cls(_qubits_for(max(s_values)), _qubits_for(max(w_values)))
        if layout.total_qubits > cap:
            raise QubitCapError(
                f"{layout.total_qubits} qubits needed "
                f"(s:{layout.s_qubits} w:{layout.w_qubits} flag:1) exceeds cap {cap}"
            )
        return layout


@dataclass
class StateVector:
    amplitudes: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.layout.dim,):
            raise DomainError("amplitude vector does not match the register layout")
        if abs(np.linalg.norm(self.amplitudes) - 1.0) > _NORM_TOL:
            raise DomainError("state vector must have unit norm")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, s: int, w: int, flag: int) -> complex:
        return complex(self.amplitudes[self.layout.index(s, w, flag)])

    def nonzero_pairs(self, tol: float = 1e-12) -> list[tuple[int, int, int, complex]]:
        """(s, w, flag, amplitude) for every configuration carrying weight."""
        out = []
        for idx in np.flatnonzero(np.abs(self.amplitudes) > tol):
            s, w, flag = self.layout.decode(int(idx))
            out.append((s, w, flag, complex(self.amplitudes[idx])))
        return out

    def to_json_entries(self, tol: float = 1e-12) -> list[list]:
        return [
            [int(idx), float(self.amplitudes[idx].real), float(self.amplitudes[idx].imag)]
            for idx in np.flatnonzero(np.abs(self.amplitudes) > tol)
        ]


@dataclass(frozen=True)
class MarkedOracle:
    """Truth table of the marking rule over the s and w value sets."""

    s_values: tuple[int, ...]
    w_values: tuple[int, ...]
    marked: frozenset[tuple[int, int]]
    descriptor: str

    def __post_init__(self):
        pool = set(self.s_values)
        wpool = set(self.w_values)
        for s, w in self.marked:
            if s not in pool or w not in wpool:
                raise DomainError(f"marked pair ({s}, {w}) outside the S x W support")

    @classmethod
    def from_relation(cls, s_values, relation) -> "MarkedOracle":
        return cls(
            s_values=tuple(s_values),
            w_values=tuple(relation.candidates),
            marked=frozenset(relation.pairs()),
            descriptor=relation.oracle_descriptor,
        )

    def bit(self, s: int, w: int) -> int:
        return 1 if (s, w) in self.marked else 0

    @property
    def support(self) -> int:
        return len(self.s_values) * len(self.w_values)


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
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amp = 1.0 / sqrt(len(s_values) * len(w_values))
    for s in s_values:
        for w in w_values:
            amps[layout.index(s, w, 0)] = amp
    return StateVector(amps, layout)


def _support_indices(oracle: MarkedOracle, layout: RegisterLayout, flag: int) -> np.ndarray:
    return np.array(
        [layout.index(s, w, flag) for s in oracle.s_values for w in oracle.w_values],
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
        s, w, f = state.layout.decode(outside[0])
        raise DomainError(f"state has weight on ({s}, {w}, flag={f}) outside the oracle support")


def apply_marking(state: StateVector, oracle: MarkedOracle) -> StateVector:
    """Write the oracle bit into the flag: (s, w, b) -> (s, w, b xor Q(s, w)).

    A pure permutation of amplitudes, hence self-inverse and norm-preserving.
    """
    _check_support(state, oracle, flag=None)
    amps = state.amplitudes.copy()
    for s, w in oracle.marked:
        i0 = state.layout.index(s, w, 0)
        i1 = state.layout.index(s, w, 1)
        amps[i0], amps[i1] = amps[i1], amps[i0]
    return StateVector(amps, state.layout)


def grover_iterations_optimal(n_total: int, n_marked: int) -> int:
    """floor((pi/4) * sqrt(N/M)), the standard near-optimal iteration count."""
    if n_marked < 1:
        raise DomainError("nothing to amplify: no marked configurations")
    if n_marked > n_total:
        raise DomainError("marked count cannot exceed the support size")
    return floor((pi / 4.0) * sqrt(n_total / n_marked))


def _grover_step(amps: np.ndarray, support: np.ndarray, marked_mask: np.ndarray) -> None:
    """One in-place round: phase flip on marked pairs, invert about the support mean."""
    sub = amps[support]
    sub[marked_mask] *= -1.0
    sub = 2.0 * sub.mean() - sub
    amps[support] = sub


def _support_and_mask(state: StateVector, oracle: MarkedOracle) -> tuple[np.ndarray, np.ndarray]:
    support = _support_indices(oracle, state.layout, flag=0)
    marked_mask = np.array(
        [oracle.bit(s, w) == 1 for s in oracle.s_values for w in oracle.w_values],
        dtype=bool,
    )
    return support, marked_mask


def marked_probability(state: StateVector, oracle: MarkedOracle) -> float:
    """Total probability on marked (s, w) pairs, flag ignored."""
    total = 0.0
    for s, w in oracle.marked:
        total += abs(state.amplitude(s, w, 0)) ** 2 + abs(state.amplitude(s, w, 1)) ** 2
    return total


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


def _cospi(x: float) -> float:
    """cos(pi*x), exact on half-integers so quarter-turn phases stay rational."""
    doubled = 2.0 * x
    if doubled == round(doubled):
        r = int(round(doubled)) % 4
        return (1.0, 0.0, -1.0, 0.0)[r]
    return cos(pi * x)


def counting_error_bound(n_total: int, n_marked: int, phase_bits: int) -> float:
    """Standard phase-estimation error bound on the counted M."""
    step = pi / (1 << phase_bits)
    return 2.0 * sqrt(n_marked * n_total) * step + n_total * step * step


def quantum_count(oracle: MarkedOracle, n_total: int, phase_bits: int) -> CountEstimate:
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
    if n_total != oracle.support:
        raise DomainError(
            f"support size {n_total} does not match the oracle's {oracle.support}"
        )
    n_points = oracle.support
    marked_mask = np.array(
        [oracle.bit(s, w) == 1 for s in oracle.s_values for w in oracle.w_values],
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
