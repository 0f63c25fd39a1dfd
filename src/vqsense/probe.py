"""Sensing front end: layered probe circuit, phase channel, readout, shots.

The probe circuit is permutation-symmetric: each layer applies one shared
general single-qubit rotation Rz(a) Ry(b) Rz(c) to every qubit, followed by
a shared two-qubit ZZ rotation exp(-i g Z.Z / 2) on the ring of successive
pairs (0,1), (1,2), ..., (n-1,0). The unknown phase enters as a local
rotation diag(1, e^{ix}) on every qubit, so amplitude s picks up the phase
e^{i x popcount(s)}. A fixed single-qubit basis change (Hadamard by default)
is applied to every qubit before computational-basis readout; without it
the diagonal phase channel would be invisible to the measurement.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 12
ANGLES_PER_LAYER = 4  # (rz, ry, rz) shared 1-qubit angles + 1 shared ZZ angle
PROB_FLOOR = 1e-12  # outcomes below this are excluded from log-gradients
FD_STEP = 1e-5


class ConfigurationError(ValueError):
    """Raised for invalid register sizes, configs or model dimensions."""


@dataclass
class StateVector:
    """Pure state of an n-qubit register.

    amps[s] is the amplitude of computational-basis state |s>, with qubit 0
    stored in the least-significant bit of s.
    """

    n: int
    amps: np.ndarray


def rz_matrix(angle: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def ry_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def hadamard_matrix() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def zz_matrix(angle: float) -> np.ndarray:
    """exp(-i angle Z.Z / 2), diagonal in the computational basis."""
    p, m = np.exp(-0.5j * angle), np.exp(0.5j * angle)
    return np.diag([p, m, m, p])


@dataclass
class ProbeParams:
    """Shared-parameter angles for the layered probe circuit.

    angles has shape (layers, 4): columns are (rz, ry, rz) for the shared
    single-qubit rotation and the shared two-qubit ZZ angle.
    """

    angles: np.ndarray

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float)
        if self.angles.ndim != 2 or self.angles.shape[1] != ANGLES_PER_LAYER:
            raise ConfigurationError(
                f"angles must have shape (layers, {ANGLES_PER_LAYER}), got {self.angles.shape}"
            )
        if not np.all(np.isfinite(self.angles)):
            raise ConfigurationError("probe angles must be finite")

    @property
    def layers(self) -> int:
        return self.angles.shape[0]

    def flat(self) -> np.ndarray:
        return self.angles.reshape(-1).copy()

    @classmethod
    def from_flat(cls, values: np.ndarray) -> "ProbeParams":
        values = np.asarray(values, dtype=float)
        return cls(values.reshape(-1, ANGLES_PER_LAYER))

    @classmethod
    def random(
        cls, layers: int, rng: np.random.Generator, scale: float = np.pi
    ) -> "ProbeParams":
        return cls(rng.uniform(-scale, scale, size=(layers, ANGLES_PER_LAYER)))


@dataclass
class MeasurementBasis:
    """Fixed pre-measurement unitary applied to every qubit before readout."""

    unitary: np.ndarray = field(default_factory=hadamard_matrix)
    name: str = "hadamard"

    def __post_init__(self):
        self.unitary = np.asarray(self.unitary, dtype=complex)
        ident = np.eye(2)
        if not np.allclose(self.unitary.conj().T @ self.unitary, ident, atol=1e-10):
            raise ConfigurationError("measurement basis unitary is not unitary")

    @classmethod
    def hadamard(cls) -> "MeasurementBasis":
        return cls(hadamard_matrix(), "hadamard")

    @classmethod
    def computational(cls) -> "MeasurementBasis":
        return cls(np.eye(2, dtype=complex), "computational")


def phase_grid(m: int) -> np.ndarray:
    """M equally spaced candidate phases spanning [0, pi]."""
    if m < 2:
        raise ConfigurationError(f"grid needs at least 2 levels, got {m}")
    return np.linspace(0.0, np.pi, m)


# Per-register-size caches for the hot simulation path. popcount[n][s] is the
# number of set bits in s; ring_sign[n][s] is sum over ring pairs (q, q+1 mod n)
# of the ZZ eigenvalue (-1)^(b_q xor b_{q+1}) on basis state s.
_POPCOUNT: dict[int, np.ndarray] = {}
_RING_SIGN: dict[int, np.ndarray] = {}


def _popcount(n: int) -> np.ndarray:
    if n not in _POPCOUNT:
        _POPCOUNT[n] = np.array([bin(s).count("1") for s in range(2**n)])
    return _POPCOUNT[n]


def _ring_sign(n: int) -> np.ndarray:
    if n not in _RING_SIGN:
        s = np.arange(2**n)
        bits = (s[:, None] >> np.arange(n)) & 1
        xor = bits ^ np.roll(bits, -1, axis=1)
        _RING_SIGN[n] = np.sum(1 - 2 * xor, axis=1)
    return _RING_SIGN[n]


def _apply_1q(amps: np.ndarray, n: int, mat: np.ndarray, q: int) -> np.ndarray:
    """Apply a 2x2 gate to qubit q; callers guarantee unitarity."""
    if not 0 <= q < n:
        raise IndexError(f"qubit {q} out of range for {n} qubits")
    axis = n - 1 - q
    t = np.tensordot(mat, amps.reshape((2,) * n), axes=([1], [axis]))
    return np.moveaxis(t, 0, axis).reshape(-1)


def prepare_probe(theta: ProbeParams, n: int) -> StateVector:
    """Run the layered ansatz on |0...0>, producing the probe state."""
    if not 2 <= n <= MAX_QUBITS:
        raise ConfigurationError(f"probe circuit needs 2 <= n <= {MAX_QUBITS}, got {n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    ring = _ring_sign(n)
    for a, b, c, g in theta.angles:
        single = rz_matrix(a) @ ry_matrix(b) @ rz_matrix(c)
        for q in range(n):
            amps = _apply_1q(amps, n, single, q)
        # the ring of shared ZZ gates is one diagonal phase per basis state
        amps = amps * np.exp(-0.5j * g * ring)
    return StateVector(n, amps)


def apply_phase_channel(state: StateVector, x: float) -> StateVector:
    """Multiply amplitude s by e^{i x popcount(s)} (local diag(1, e^{ix}))."""
    phases = np.exp(1j * x * _popcount(state.n))
    return StateVector(state.n, state.amps * phases)


def apply_measurement_basis(state: StateVector, basis: MeasurementBasis) -> StateVector:
    amps = state.amps
    for q in range(state.n):
        amps = _apply_1q(amps, state.n, basis.unitary, q)
    return StateVector(state.n, amps)


def measurement_distribution(
    theta: ProbeParams, x: float, basis: MeasurementBasis, n: int
) -> np.ndarray:
    """Outcome distribution of probe -> phase channel -> basis change -> readout."""
    state = prepare_probe(theta, n)
    state = apply_phase_channel(state, x)
    state = apply_measurement_basis(state, basis)
    return np.abs(state.amps) ** 2


def sample_shots(dist: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. outcome indices by inverse-CDF on the cumulative distribution."""
    dist = np.asarray(dist, dtype=float)
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    if np.any(dist < -1e-12) or abs(dist.sum() - 1.0) > 1e-8:
        raise ValueError("invalid probability distribution")
    cdf = np.cumsum(dist)
    cdf[-1] = 1.0
    u = rng.random(shots)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def log_prob_grad_table(
    theta: ProbeParams,
    x: float,
    basis: MeasurementBasis,
    n: int,
    h: float = FD_STEP,
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients of log p(s|x) w.r.t. every probe angle.

    Returns (grads, valid) where grads has shape (2**n, n_params) and
    valid[s] is False for outcomes with probability below the floor; their
    gradient rows are zeroed and must not be used.
    """
    base = measurement_distribution(theta, x, basis, n)
    valid = base > PROB_FLOOR
    flat = theta.flat()
    grads = np.zeros((len(base), len(flat)))
    for k in range(len(flat)):
        plus = flat.copy()
        plus[k] += h
        minus = flat.copy()
        minus[k] -= h
        p_plus = measurement_distribution(ProbeParams.from_flat(plus), x, basis, n)
        p_minus = measurement_distribution(ProbeParams.from_flat(minus), x, basis, n)
        safe_p = np.maximum(p_plus, 1e-300)
        safe_m = np.maximum(p_minus, 1e-300)
        grads[valid, k] = (np.log(safe_p[valid]) - np.log(safe_m[valid])) / (2 * h)
    return grads, valid
