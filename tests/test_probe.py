import numpy as np
import pytest

from vqsense import probe
from vqsense.probe import BASES, ConfigurationError, ProbeParams, phase_grid

from conftest import dense_embed


def zz_matrix(angle: float) -> np.ndarray:
    """exp(-i angle Z.Z / 2), diagonal in the computational basis."""
    p, m = np.exp(-0.5j * angle), np.exp(0.5j * angle)
    return np.diag([p, m, m, p])


def phase_oracle(n: int, x: float) -> np.ndarray:
    """The phase channel as a dense diagonal: diag(1, e^{ix}) on every qubit."""
    mat = np.eye(2**n, dtype=complex)
    for q in range(n):
        mat = dense_embed(n, np.diag([1, np.exp(1j * x)]), (q,)) @ mat
    return mat


def distribution_oracle(theta: ProbeParams, x: float, basis: np.ndarray, n: int):
    """Dense-matrix reconstruction of measurement_distribution."""
    amps = phase_oracle(n, x) @ probe_state_oracle(theta, n)
    for q in range(n):
        amps = dense_embed(n, basis, (q,)) @ amps
    return np.abs(amps) ** 2


def probe_state_oracle(theta: ProbeParams, n: int) -> np.ndarray:
    """Dense-matrix reconstruction of the probe circuit."""
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    for a, b, c, g in theta.angles:
        single = probe.rz_matrix(a) @ probe.ry_matrix(b) @ probe.rz_matrix(c)
        for q in range(n):
            amps = dense_embed(n, single, (q,)) @ amps
        for q in range(n):
            amps = dense_embed(n, zz_matrix(g), (q, (q + 1) % n)) @ amps
    return amps


class TestPhaseGrid:
    def test_default_grid(self):
        grid = phase_grid(10)
        assert grid[0] == 0.0 and grid[-1] == np.pi
        np.testing.assert_allclose(np.diff(grid), np.pi / 9, atol=1e-15)

    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            phase_grid(1)


class TestPrepareProbe:
    def test_zero_angles_give_zero_state(self):
        theta = ProbeParams(np.zeros((3, 4)))
        amps = probe.prepare_probe(theta, 3)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(amps, expected, atol=1e-12)

    def test_single_layer_ry_half_pi(self):
        # (rz, ry, rz) = (0, pi/2, 0), no entangler: product of plus states
        theta = ProbeParams([[0.0, np.pi / 2, 0.0, 0.0]])
        amps = probe.prepare_probe(theta, 2)
        np.testing.assert_allclose(amps, np.full(4, 0.5), atol=1e-12)

    def test_matches_dense_oracle(self, rng):
        for _ in range(5):
            theta = ProbeParams.random(3, rng)
            amps = probe.prepare_probe(theta, 3)
            np.testing.assert_allclose(amps, probe_state_oracle(theta, 3), atol=1e-10)

    def test_rejects_single_qubit(self):
        with pytest.raises(ConfigurationError):
            probe.prepare_probe(ProbeParams(np.zeros((1, 4))), 1)

    def test_cyclic_shift_invariance_n4(self, rng):
        # shared parameters on a ring: outcome probabilities in the
        # computational basis are invariant under cyclic qubit relabeling
        theta = ProbeParams.random(4, rng)
        probs = np.abs(probe.prepare_probe(theta, 4)) ** 2
        n = 4
        shifted = np.empty_like(probs)
        for s in range(2**n):
            bits = [(s >> q) & 1 for q in range(n)]
            s2 = sum(bits[(q - 1) % n] << q for q in range(n))
            shifted[s2] = probs[s]
        np.testing.assert_allclose(probs, shifted, atol=1e-10)


class TestPhaseChannel:
    def test_x_zero_identity(self, rng):
        # at x = 0 the distribution is the probe read through the basis alone
        theta = ProbeParams.random(2, rng)
        amps = probe.prepare_probe(theta, 2)
        for q in range(2):
            amps = dense_embed(2, BASES["hadamard"], (q,)) @ amps
        dist = probe.measurement_distribution(theta, 0.0, BASES["hadamard"], 2)
        np.testing.assert_allclose(dist, np.abs(amps) ** 2, atol=1e-12)

    def test_basis_state_phase(self, rng):
        # amplitude s picks up e^{i x popcount(s)}, checked against the dense
        # diagonal through the Hadamard readout that makes it visible
        for n in (2, 3):
            theta = ProbeParams.random(2, rng)
            for x in (0.7, 2.9):
                dist = probe.measurement_distribution(theta, x, BASES["hadamard"], n)
                oracle = distribution_oracle(theta, x, BASES["hadamard"], n)
                np.testing.assert_allclose(dist, oracle, atol=1e-12)

    def test_probabilities_unchanged(self, rng):
        # a diagonal channel cannot move computational-basis probabilities
        theta = ProbeParams.random(2, rng)
        probs = np.abs(probe.prepare_probe(theta, 3)) ** 2
        for x in phase_grid(10):
            dist = probe.measurement_distribution(theta, x, BASES["computational"], 3)
            np.testing.assert_allclose(dist, probs, atol=1e-12)


class TestMeasurementDistribution:
    def test_one_qubit_analytic_magnetometer(self):
        # angles (0, pi/2, 0, 0) put each of two qubits in Ry(pi/2)|0>, with no
        # entangler; each is a one-qubit magnetometer read in the X basis with
        # P(0) = cos^2(x/2), so P(00) = cos^4(x/2)
        theta = ProbeParams([[0.0, np.pi / 2, 0.0, 0.0]])
        for x in phase_grid(10):
            dist = probe.measurement_distribution(theta, x, BASES["hadamard"], 2)
            assert abs(dist[0] - np.cos(x / 2) ** 4) < 1e-10

    def test_computational_basis_blind_to_phase(self, rng):
        theta = ProbeParams.random(2, rng)
        basis = BASES["computational"]
        ref = probe.measurement_distribution(theta, 0.0, basis, 2)
        for x in phase_grid(5):
            dist = probe.measurement_distribution(theta, x, basis, 2)
            np.testing.assert_allclose(dist, ref, atol=1e-12)

    def test_deterministic(self, rng):
        theta = ProbeParams.random(2, rng)
        basis = BASES["hadamard"]
        a = probe.measurement_distribution(theta, 0.3, basis, 3)
        b = probe.measurement_distribution(theta, 0.3, basis, 3)
        np.testing.assert_array_equal(a, b)

    def test_valid_distribution(self, rng):
        for _ in range(10):
            theta = ProbeParams.random(4, rng)
            x = rng.uniform(0, np.pi)
            dist = probe.measurement_distribution(theta, x, BASES["hadamard"], 4)
            assert np.all(dist >= -1e-15)
            assert abs(dist.sum() - 1.0) < 1e-10

    def test_cyclic_shift_invariant_outcomes_n4(self, rng):
        theta = ProbeParams.random(4, rng)
        dist = probe.measurement_distribution(theta, 0.9, BASES["hadamard"], 4)
        n = 4
        shifted = np.empty_like(dist)
        for s in range(2**n):
            bits = [(s >> q) & 1 for q in range(n)]
            s2 = sum(bits[(q - 1) % n] << q for q in range(n))
            shifted[s2] = dist[s]
        np.testing.assert_allclose(dist, shifted, atol=1e-10)


class TestSampleShots:
    def test_point_mass(self, rng):
        dist = np.zeros(4)
        dist[0] = 1.0
        shots = probe.sample_shots(dist, 50, rng)
        assert np.all(shots == 0)

    def test_empirical_frequency(self):
        rng = np.random.default_rng(7)
        shots = probe.sample_shots(np.array([0.5, 0.5]), 100_000, rng)
        freq = np.mean(shots == 0)
        assert 0.494 <= freq <= 0.506  # binomial 3-sigma band

    def test_reproducible(self):
        dist = np.array([0.25, 0.25, 0.5])
        a = probe.sample_shots(dist, 100, np.random.default_rng(3))
        b = probe.sample_shots(dist, 100, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_invalid_distribution(self, rng):
        with pytest.raises(ValueError):
            probe.sample_shots(np.array([0.5, 0.6]), 10, rng)
        with pytest.raises(ValueError):
            probe.sample_shots(np.array([0.5, 0.5]), 0, rng)


class TestLogProbGrad:
    def test_two_step_consistency(self, rng):
        theta = ProbeParams.random(2, rng)
        basis = BASES["hadamard"]
        x = 0.8
        valid = probe.measurement_distribution(theta, x, basis, 2) > probe.PROB_FLOOR
        g1 = probe.log_prob_grad_table(theta, x, basis, 2, h=1e-5)
        g2 = probe.log_prob_grad_table(theta, x, basis, 2, h=1e-7)
        for s in np.flatnonzero(valid):
            for k in range(g1.shape[1]):
                if abs(g2[s, k]) > 1e-6:
                    assert abs(g1[s, k] - g2[s, k]) / abs(g2[s, k]) <= 1e-3

    def test_stationary_coordinate_near_zero(self):
        # all angles zero, computational basis: p(0) = 1 is stationary
        theta = ProbeParams(np.zeros((2, 4)))
        grads = probe.log_prob_grad_table(theta, 0.5, BASES["computational"], 2)
        np.testing.assert_allclose(grads[0], 0.0, atol=1e-6)
