"""The statevector kernel every probe simulation runs, checked against oracles.

probe._apply_1q applies the probe's rotations and the readout basis change;
here it is driven with gates the probe circuit does not fix (X, identity,
random unitaries) and compared with explicit dense matrices.
"""
import numpy as np
import pytest

from vqsense import probe
from vqsense.engine import RunConfig
from vqsense.probe import BASES, ConfigurationError, ProbeParams

from conftest import dense_embed, random_gate, random_state, zero_state

X = np.array([[0, 1], [1, 0]], dtype=complex)
NO_LAYERS = ProbeParams(np.zeros((0, 4)))


class TestInitZeroState:
    @pytest.mark.parametrize("n", [2, 4])
    def test_basis_state(self, n):
        amps = probe.prepare_probe(NO_LAYERS, n)
        expected = np.zeros(2**n)
        expected[0] = 1.0
        np.testing.assert_array_equal(amps, expected)

    @pytest.mark.parametrize("n", [0, -1, 13])
    def test_out_of_range(self, n):
        with pytest.raises(ConfigurationError):
            probe.prepare_probe(NO_LAYERS, n)
        with pytest.raises(ConfigurationError):
            RunConfig(n=n)


class TestApplyGate:
    def test_x_flips_zero(self):
        amps = probe._apply_1q(zero_state(1), 1, X, 0)
        np.testing.assert_allclose(amps, [0, 1], atol=1e-15)

    def test_identity_exact(self, rng):
        amps = random_state(3, rng)
        out = probe._apply_1q(amps, 3, np.eye(2, dtype=complex), 1)
        np.testing.assert_array_equal(out, amps)

    @pytest.mark.parametrize("q", [2, 3, -1])
    def test_bad_target_rejected(self, q):
        # unchecked, q = n maps to tensor axis -1 and acts on qubit 0
        with pytest.raises(IndexError):
            probe._apply_1q(zero_state(2), 2, X, q)

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_readout_bases_unitary(self, name):
        # the readout bases are the only gates the probe does not build itself
        u = BASES[name]
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_norm_preserved_over_long_sequence(self, rng):
        amps = zero_state(3)
        for _ in range(200):
            mat, q = random_gate(3, rng)
            amps = probe._apply_1q(amps, 3, mat, q)
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-9


class TestOutcomeProbabilities:
    def test_zero_state(self):
        dist = probe.measurement_distribution(NO_LAYERS, 0.4, BASES["computational"], 2)
        np.testing.assert_array_equal(dist, [1, 0, 0, 0])

    def test_plus_state(self):
        # |00> read in the Hadamard basis: both qubits in |+>
        dist = probe.measurement_distribution(NO_LAYERS, 0.0, BASES["hadamard"], 2)
        np.testing.assert_allclose(dist, [0.25] * 4, atol=1e-12)

    def test_matches_amps_squared_oracle(self, rng):
        theta = ProbeParams.random(2, rng)
        basis = BASES["hadamard"]
        phases = np.exp(1j * 0.7 * np.array([bin(s).count("1") for s in range(8)]))
        amps = probe.prepare_probe(theta, 3) * phases
        for q in range(3):
            amps = dense_embed(3, basis, (q,)) @ amps
        oracle = np.array([abs(a) ** 2 for a in amps])
        probs = probe.measurement_distribution(theta, 0.7, basis, 3)
        np.testing.assert_allclose(probs, oracle, atol=1e-12)
        assert abs(probs.sum() - 1.0) < 1e-10


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_circuits_match_dense_oracle(self, n, rng):
        for _ in range(10):
            amps = dense = zero_state(n)
            for _ in range(int(rng.integers(3, 12))):
                mat, q = random_gate(n, rng)
                amps = probe._apply_1q(amps, n, mat, q)
                dense = dense_embed(n, mat, (q,)) @ dense
            np.testing.assert_allclose(amps, dense, atol=1e-10)

    def test_linearity(self, rng):
        mat, q = random_gate(3, rng)
        psi1, psi2 = random_state(3, rng), random_state(3, rng)
        a, b = 0.3 + 0.1j, -0.7 + 0.5j
        combined = probe._apply_1q(a * psi1 + b * psi2, 3, mat, q)
        separate = a * probe._apply_1q(psi1, 3, mat, q) + (
            b * probe._apply_1q(psi2, 3, mat, q)
        )
        np.testing.assert_allclose(combined, separate, atol=1e-12)
