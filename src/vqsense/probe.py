"""Sensing front end: layered probe circuit, phase channel, readout, shots.

The probe circuit is permutation-symmetric: each layer applies one shared
general single-qubit rotation Rz(a) Ry(b) Rz(c) to every qubit, followed by
a shared two-qubit ZZ rotation exp(-i g Z.Z / 2) on the ring of successive
pairs (0,1), (1,2), ..., (n-1,0). The unknown phase enters as a local
rotation diag(1, e^{ix}) on every qubit, so amplitude s picks up the phase
e^{i x popcount(s)}. A Hadamard on every qubit is applied before
computational-basis readout, so the probe is read in the X basis; without it
the diagonal phase channel would be invisible to the measurement.
"""
from __future__ import annotations

import functools

import numpy as np

MAX_QUBITS = 12
ANGLES_PER_LAYER = 4  # (rz, ry, rz) shared 1-qubit angles + 1 shared ZZ angle
PROB_FLOOR = 1e-12  # outcomes below this are excluded from log-gradients


class ConfigurationError(ValueError):
    """Raised for invalid register sizes, configs or model dimensions."""


def rz_matrix(angle: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def ry_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


# The readout basis change, applied to every qubit before computational readout.
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
HADAMARD.setflags(write=False)


def random_angles(layers: int, rng: np.random.Generator) -> np.ndarray:
    """Probe angles (layers, 4), uniform in [-pi, pi): each row is (rz, ry, rz)
    for the shared single-qubit rotation and the shared two-qubit ZZ angle."""
    return rng.uniform(-np.pi, np.pi, size=(layers, ANGLES_PER_LAYER))


def phase_grid(m: int) -> np.ndarray:
    """M equally spaced candidate phases spanning [0, pi]."""
    if m < 2:
        raise ConfigurationError(f"grid needs at least 2 levels, got {m}")
    return np.linspace(0.0, np.pi, m)


@functools.cache
def _tables(n: int) -> tuple[np.ndarray, ...]:
    """(popcount, z, ring, flip, sign) of the basis states s < 2**n, built once
    per n and read-only, since every simulation at n shares them.

    z = n - 2 popcount is the diagonal of sum_q Z_q, and ring[s] sums the ZZ
    eigenvalue (-1)^(b_q xor b_{q+1}) over ring pairs. flip and sign are
    (n, 2**n), with (Y_q psi)[s] = i sign[q, s] psi[flip[q, s]]:
    flip[q, s] = s xor 2**q and sign[q, s] = 2 bit_q(s) - 1.
    """
    s = np.arange(2**n)
    q = np.arange(n)[:, None]
    bits = (s >> q) & 1
    popcount = np.sum(bits, axis=0)
    ring = np.sum(1 - 2 * (bits ^ np.roll(bits, -1, axis=0)), axis=0)
    tables = popcount, n - 2 * popcount, ring, s ^ (1 << q), 2 * bits - 1
    for t in tables:
        t.setflags(write=False)
    return tables


def _apply_all(amps: np.ndarray, n: int, mat: np.ndarray) -> np.ndarray:
    """Apply one 2x2 matrix to every qubit of little-endian amplitudes.

    Each round applies the gate to the lowest bit with one matrix product,
    and its transposed copy rotates the next qubit into the lowest bit, so
    after n rounds the amplitudes are back in little-endian order.
    """
    mat_t = mat.T
    for _ in range(n):
        amps = (amps.reshape(-1, 2) @ mat_t).T.reshape(-1)
    return amps


def _layer_states(theta: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Amplitudes entering each layer of the ansatz, then the probe output.

    theta is the (layers, 4) angle array; every simulation and gradient
    starts here, so any other shape raises ConfigurationError. Keyed on the
    angles' bytes, so an in-place edit of theta runs the ansatz again, while
    the gradient that follows a step's distribution at the same angles
    reuses its states.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != ANGLES_PER_LAYER:
        raise ConfigurationError(
            f"angles must have shape (layers, {ANGLES_PER_LAYER}), got {theta.shape}"
        )
    return _states_for(theta.tobytes(), n)


@functools.lru_cache(maxsize=1)
def _states_for(angle_bytes: bytes, n: int) -> tuple[np.ndarray, ...]:
    """_layer_states for one angle set, kept until the next one; read-only,
    since every caller at those angles shares them. Non-finite angles raise
    ConfigurationError, checked once per angle set."""
    if not 2 <= n <= MAX_QUBITS:
        raise ConfigurationError(f"probe circuit needs 2 <= n <= {MAX_QUBITS}, got {n}")
    angles = np.frombuffer(angle_bytes).reshape(-1, ANGLES_PER_LAYER)
    if not np.all(np.isfinite(angles)):
        raise ConfigurationError("probe angles must be finite")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    states = [amps]
    ring = _tables(n)[2]
    for a, b, c, g in angles:
        single = rz_matrix(a) @ ry_matrix(b) @ rz_matrix(c)
        amps = _apply_all(amps, n, single)
        # the ring of shared ZZ gates is one diagonal phase per basis state
        amps = amps * np.exp(-0.5j * g * ring)
        states.append(amps)
    for amps in states:
        amps.setflags(write=False)
    return tuple(states)


def prepare_probe(theta: np.ndarray, n: int) -> np.ndarray:
    """Run the layered ansatz on |0...0>; returns the 2**n probe amplitudes.

    amps[s] is the amplitude of |s>, with qubit 0 in the least-significant bit.
    The array is read-only: it is the cached last entry of _layer_states.
    """
    return _layer_states(theta, n)[-1]


def _readout_amplitudes(amps: np.ndarray, x: float, n: int) -> np.ndarray:
    """Probe amplitudes -> phase channel -> Hadamard on every qubit."""
    amps = amps * np.exp(1j * x * _tables(n)[0])
    return _apply_all(amps, n, HADAMARD)


def measurement_distribution(theta: np.ndarray, x: float, n: int) -> np.ndarray:
    """Outcome distribution of probe -> phase channel -> Hadamards -> readout."""
    return np.abs(_readout_amplitudes(prepare_probe(theta, n), x, n)) ** 2


def sample_shots(dist: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. outcome indices by inverse-CDF on the cumulative distribution."""
    dist = np.asarray(dist, dtype=float)
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    # phrased so that NaN, which compares False, fails both checks
    if not (np.all(dist >= -1e-12) and abs(dist.sum() - 1.0) <= 1e-8):
        raise ValueError("invalid probability distribution")
    cdf = np.cumsum(dist)
    cdf[-1] = 1.0
    u = rng.random(shots)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def log_prob_grad_table(theta: np.ndarray, x: float, n: int, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradients of log p(s|x) w.r.t. every probe angle.

    Returns a (2**n, 4 * layers) table, its columns the angles in row-major
    order. Row s is meaningful only where p(s|x) > PROB_FLOOR; callers hold
    that distribution and must skip the other rows. This is the reference
    that log_prob_grad, raveled, is checked against.
    """
    theta = np.asarray(theta, dtype=float)
    grads = np.zeros((2**n, theta.size))
    for k in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus.flat[k] += h
        minus.flat[k] -= h
        p_plus = measurement_distribution(plus, x, n)
        p_minus = measurement_distribution(minus, x, n)
        safe_p = np.maximum(p_plus, 1e-300)
        safe_m = np.maximum(p_minus, 1e-300)
        grads[:, k] = (np.log(safe_p) - np.log(safe_m)) / (2 * h)
    return grads


def log_prob_grad(theta: np.ndarray, x: float, n: int, counts: np.ndarray) -> np.ndarray:
    """Exact gradient of sum_s counts[s] * log p(s|x) w.r.t. the angles, in
    their (layers, 4) shape.

    Adjoint differentiation (Jones & Gacon 2020, arXiv 2009.02823): one
    forward pass keeps each layer's input amplitudes, then the adjoint
    lam = counts * omega / p of the readout amplitudes omega walks back
    through readout, phase channel and layers. A gate exp(-i angle G / 2)
    contributes Im <lam|G|psi> at the point it acts, where G sums the
    generator over the n places the shared angle is applied: sum_q Z_q
    (diagonal n - 2 popcount) for the Rz angles, sum_q Y_q for Ry, and the
    ring-sign table for ZZ. counts holds one non-negative count per outcome,
    shape (2**n,), and must be 0 wherever p(s|x) is 0.
    """
    theta = np.asarray(theta, dtype=float)
    states = _layer_states(theta, n)
    counts = np.asarray(counts)
    if counts.shape != (2**n,):
        raise ConfigurationError(f"counts must have shape ({2**n},), got {counts.shape}")
    if np.any(counts < 0):
        raise ConfigurationError("outcome counts must be non-negative")
    popcount, z, ring, flip, sign = _tables(n)
    omega = _readout_amplitudes(states[-1], x, n)
    lam = np.divide(
        counts * omega, np.abs(omega) ** 2, out=np.zeros_like(omega), where=counts != 0
    )
    lam = _apply_all(lam, n, HADAMARD.conj().T)
    lam = lam * np.exp(-1j * x * popcount)
    grads = np.zeros_like(theta)
    for k in reversed(range(len(theta))):
        a, b, c, g = theta[k]
        psi = states[k + 1]
        # Rz(a) and the ZZ ring are diagonal, so both read at the layer output
        overlap = np.conj(lam) * psi
        grads[k, 0] = np.imag(overlap @ z)
        grads[k, 3] = np.imag(overlap @ ring)
        undo = np.exp(0.5j * (a * z + g * ring))
        lam, psi = lam * undo, psi * undo
        y_psi = 1j * np.sum(sign * psi[flip], axis=0)
        grads[k, 1] = np.imag(np.vdot(lam, y_psi))
        lam = _apply_all(lam, n, ry_matrix(-b))
        lam = lam * np.exp(0.5j * c * z)
        grads[k, 2] = np.imag(np.vdot(lam, z * states[k]))
    return grads
