import numpy as np
import pytest

from vqsense import probe
from vqsense.probe import (
    ConfigurationError,
    MeasurementBasis,
    ProbeParams,
    StateVector,
    phase_grid,
    zz_matrix,
)

from conftest import dense_embed


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
        state = probe.prepare_probe(theta, 3)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amps, expected, atol=1e-12)

    def test_single_layer_ry_half_pi(self):
        # (rz, ry, rz) = (0, pi/2, 0), no entangler: product of plus states
        theta = ProbeParams([[0.0, np.pi / 2, 0.0, 0.0]])
        state = probe.prepare_probe(theta, 2)
        np.testing.assert_allclose(state.amps, np.full(4, 0.5), atol=1e-12)

    def test_matches_dense_oracle(self, rng):
        for _ in range(5):
            theta = ProbeParams.random(3, rng)
            state = probe.prepare_probe(theta, 3)
            np.testing.assert_allclose(
                state.amps, probe_state_oracle(theta, 3), atol=1e-10
            )

    def test_rejects_single_qubit(self):
        with pytest.raises(ConfigurationError):
            probe.prepare_probe(ProbeParams(np.zeros((1, 4))), 1)

    def test_cyclic_shift_invariance_n4(self, rng):
        # shared parameters on a ring: outcome probabilities in the
        # computational basis are invariant under cyclic qubit relabeling
        theta = ProbeParams.random(4, rng)
        probs = np.abs(probe.prepare_probe(theta, 4).amps) ** 2
        n = 4
        shifted = np.empty_like(probs)
        for s in range(2**n):
            bits = [(s >> q) & 1 for q in range(n)]
            s2 = sum(bits[(q - 1) % n] << q for q in range(n))
            shifted[s2] = probs[s]
        np.testing.assert_allclose(probs, shifted, atol=1e-10)


class TestPhaseChannel:
    def test_x_zero_identity(self, rng):
        theta = ProbeParams.random(2, rng)
        state = probe.prepare_probe(theta, 2)
        out = probe.apply_phase_channel(state, 0.0)
        np.testing.assert_array_equal(out.amps, state.amps)

    def test_basis_state_phase(self):
        state = StateVector(2, np.array([0, 0, 0, 1], dtype=complex))
        out = probe.apply_phase_channel(state, 0.7)
        np.testing.assert_allclose(out.amps[3], np.exp(1j * 0.7 * 2), atol=1e-12)

    def test_probabilities_unchanged(self, rng):
        theta = ProbeParams.random(2, rng)
        state = probe.prepare_probe(theta, 3)
        for x in phase_grid(10):
            out = probe.apply_phase_channel(state, x)
            np.testing.assert_allclose(
                np.abs(out.amps) ** 2, np.abs(state.amps) ** 2, atol=1e-12
            )


class TestMeasurementDistribution:
    def test_one_qubit_analytic_magnetometer(self):
        # Ry(pi/2)|0> probed by the phase channel and read in the X basis:
        # P(0) = cos^2(x/2)
        for x in phase_grid(10):
            amps = probe.ry_matrix(np.pi / 2) @ np.array([1, 0], dtype=complex)
            state = probe.apply_phase_channel(StateVector(1, amps), x)
            state = probe.apply_measurement_basis(state, MeasurementBasis.hadamard())
            p0 = abs(state.amps[0]) ** 2
            assert abs(p0 - np.cos(x / 2) ** 2) < 1e-10

    def test_computational_basis_blind_to_phase(self, rng):
        theta = ProbeParams.random(2, rng)
        basis = MeasurementBasis.computational()
        ref = probe.measurement_distribution(theta, 0.0, basis, 2)
        for x in phase_grid(5):
            dist = probe.measurement_distribution(theta, x, basis, 2)
            np.testing.assert_allclose(dist, ref, atol=1e-12)

    def test_deterministic(self, rng):
        theta = ProbeParams.random(2, rng)
        basis = MeasurementBasis.hadamard()
        a = probe.measurement_distribution(theta, 0.3, basis, 3)
        b = probe.measurement_distribution(theta, 0.3, basis, 3)
        np.testing.assert_array_equal(a, b)

    def test_valid_distribution(self, rng):
        for _ in range(10):
            theta = ProbeParams.random(4, rng)
            x = rng.uniform(0, np.pi)
            dist = probe.measurement_distribution(
                theta, x, MeasurementBasis.hadamard(), 4
            )
            assert np.all(dist >= -1e-15)
            assert abs(dist.sum() - 1.0) < 1e-10

    def test_cyclic_shift_invariant_outcomes_n4(self, rng):
        theta = ProbeParams.random(4, rng)
        dist = probe.measurement_distribution(
            theta, 0.9, MeasurementBasis.hadamard(), 4
        )
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
        basis = MeasurementBasis.hadamard()
        x = 0.8
        g1, valid = probe.log_prob_grad_table(theta, x, basis, 2, h=1e-5)
        g2, _ = probe.log_prob_grad_table(theta, x, basis, 2, h=1e-7)
        for s in np.flatnonzero(valid):
            for k in range(g1.shape[1]):
                if abs(g2[s, k]) > 1e-6:
                    assert abs(g1[s, k] - g2[s, k]) / abs(g2[s, k]) <= 1e-3

    def test_stationary_coordinate_near_zero(self):
        # all angles zero, computational basis: p(0) = 1 is stationary
        theta = ProbeParams(np.zeros((2, 4)))
        grads, valid = probe.log_prob_grad_table(
            theta, 0.5, MeasurementBasis.computational(), 2
        )
        assert valid[0]
        np.testing.assert_allclose(grads[0], 0.0, atol=1e-6)

    def test_degenerate_outcome_flagged(self):
        # outcome 3 has probability 0 under the all-zero-angle probe
        theta = ProbeParams(np.zeros((2, 4)))
        grads, valid = probe.log_prob_grad_table(
            theta, 0.5, MeasurementBasis.computational(), 2
        )
        assert not valid[3]
        np.testing.assert_array_equal(grads[3], 0.0)
