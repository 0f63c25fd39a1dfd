import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqsense import probe
from vqsense.engine import RunConfig
from vqsense.probe import HADAMARD, ConfigurationError, phase_grid

from conftest import dense_embed, random_state, random_unitary, zero_state


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


def distribution_oracle(theta: np.ndarray, x: float, basis: np.ndarray, n: int):
    """Dense-matrix reconstruction of measurement_distribution."""
    amps = phase_oracle(n, x) @ probe_state_oracle(theta, n)
    for q in range(n):
        amps = dense_embed(n, basis, (q,)) @ amps
    return np.abs(amps) ** 2


def probe_state_oracle(theta: np.ndarray, n: int) -> np.ndarray:
    """Dense-matrix reconstruction of the probe circuit."""
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    for a, b, c, g in theta:
        single = probe.rz_matrix(a) @ probe.ry_matrix(b) @ probe.rz_matrix(c)
        for q in range(n):
            amps = dense_embed(n, single, (q,)) @ amps
        for q in range(n):
            amps = dense_embed(n, zz_matrix(g), (q, (q + 1) % n)) @ amps
    return amps


def dihedral_images(n: int):
    """Each element of D_n acting on bit positions, as the image index of
    every outcome: bit q of s moves to bit (shift + q) or (shift - q) mod n.
    That is all n cyclic shifts, each with and without reflection."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    for shift in range(n):
        for sign in (1, -1):
            yield (bits << (shift + sign * np.arange(n)) % n).sum(axis=1)


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
        theta = np.zeros((3, 4))
        amps = probe.prepare_probe(theta, 3)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(amps, expected, atol=1e-12)

    def test_single_layer_ry_half_pi(self):
        # (rz, ry, rz) = (0, pi/2, 0), no entangler: product of plus states
        theta = np.array([[0.0, np.pi / 2, 0.0, 0.0]])
        amps = probe.prepare_probe(theta, 2)
        np.testing.assert_allclose(amps, np.full(4, 0.5), atol=1e-12)

    def test_matches_dense_oracle(self, rng):
        for _ in range(5):
            theta = probe.random_angles(3, rng)
            amps = probe.prepare_probe(theta, 3)
            np.testing.assert_allclose(amps, probe_state_oracle(theta, 3), atol=1e-10)

    def test_rejects_single_qubit(self):
        with pytest.raises(ConfigurationError):
            probe.prepare_probe(np.zeros((1, 4)), 1)

    def test_cyclic_shift_invariance_n4(self, rng):
        # shared parameters on a ring: outcome probabilities in the
        # computational basis are invariant under cyclic qubit relabeling
        theta = probe.random_angles(4, rng)
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
        theta = probe.random_angles(2, rng)
        amps = probe.prepare_probe(theta, 2)
        for q in range(2):
            amps = dense_embed(2, HADAMARD, (q,)) @ amps
        dist = probe.measurement_distribution(theta, 0.0, 2)
        np.testing.assert_allclose(dist, np.abs(amps) ** 2, atol=1e-12)

    def test_basis_state_phase(self, rng):
        # amplitude s picks up e^{i x popcount(s)}, checked against the dense
        # diagonal through the Hadamard readout that makes it visible
        for n in (2, 3):
            theta = probe.random_angles(2, rng)
            for x in (0.7, 2.9):
                dist = probe.measurement_distribution(theta, x, n)
                oracle = distribution_oracle(theta, x, HADAMARD, n)
                np.testing.assert_allclose(dist, oracle, atol=1e-12)


class TestMeasurementDistribution:
    def test_one_qubit_analytic_magnetometer(self):
        # angles (0, pi/2, 0, 0) put each of two qubits in Ry(pi/2)|0>, with no
        # entangler; each is a one-qubit magnetometer read in the X basis with
        # P(0) = cos^2(x/2), so P(00) = cos^4(x/2)
        theta = np.array([[0.0, np.pi / 2, 0.0, 0.0]])
        for x in phase_grid(10):
            dist = probe.measurement_distribution(theta, x, 2)
            assert abs(dist[0] - np.cos(x / 2) ** 4) < 1e-10

    def test_deterministic(self, rng):
        theta = probe.random_angles(2, rng)
        a = probe.measurement_distribution(theta, 0.3, 3)
        b = probe.measurement_distribution(theta, 0.3, 3)
        np.testing.assert_array_equal(a, b)

    def test_valid_distribution(self, rng):
        for _ in range(10):
            theta = probe.random_angles(4, rng)
            x = rng.uniform(0, np.pi)
            dist = probe.measurement_distribution(theta, x, 4)
            assert np.all(dist >= -1e-15)
            assert abs(dist.sum() - 1.0) < 1e-10

    def test_cyclic_shift_invariant_outcomes_n4(self, rng):
        theta = probe.random_angles(4, rng)
        dist = probe.measurement_distribution(theta, 0.9, 4)
        n = 4
        shifted = np.empty_like(dist)
        for s in range(2**n):
            bits = [(s >> q) & 1 for q in range(n)]
            s2 = sum(bits[(q - 1) % n] << q for q in range(n))
            shifted[s2] = dist[s]
        np.testing.assert_allclose(dist, shifted, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([3, 4, 5, 8]),
        layers=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        x=st.floats(0.0, 2 * np.pi),
    )
    def test_dihedral_invariance(self, n, layers, seed, x):
        # every gate is shared by all qubits and the ZZ gates sit on a ring,
        # so relabeling the qubits by any element of D_n leaves p(s | x), and
        # the prepared probe's own outcome probabilities, as they are
        theta = probe.random_angles(layers, np.random.default_rng(seed))
        dists = (
            probe.measurement_distribution(theta, x, n),
            np.abs(probe.prepare_probe(theta, n)) ** 2,
        )
        images = list(dihedral_images(n))
        assert len({im.tobytes() for im in images}) == 2 * n
        for dist in dists:
            for image in images:
                np.testing.assert_allclose(dist[image], dist, rtol=0, atol=1e-14)


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
        with pytest.raises(ValueError):
            probe.sample_shots(np.array([0.5, -0.1, 0.6]), 10, rng)

    @pytest.mark.parametrize(
        "dist",
        [[0.25, np.nan, 0.25, 0.25], [np.nan] * 4, [0.5, np.inf, 0.5, 0.0]],
        ids=["one-nan", "all-nan", "inf"],
    )
    def test_non_finite_distribution_rejected(self, rng, dist):
        with pytest.raises(ValueError):
            probe.sample_shots(np.array(dist), 10, rng)


class TestLayerStateMemo:
    """_layer_states keeps one angle set's states, keyed on the angles' bytes."""

    def fresh(self, theta, x, n, counts):
        probe._states_for.cache_clear()
        theta = theta.copy()
        return (
            probe.measurement_distribution(theta, x, n),
            probe.log_prob_grad(theta, x, n, counts),
        )

    def test_in_place_edit_recomputes(self, rng):
        theta = probe.random_angles(3, rng)
        counts = np.array([2, 0, 1, 0, 0, 3, 0, 1])
        probe.measurement_distribution(theta, 0.6, 3)  # fills the memo
        theta[1, 2] += 0.3
        dist = probe.measurement_distribution(theta, 0.6, 3)
        grad = probe.log_prob_grad(theta, 0.6, 3, counts)
        want_dist, want_grad = self.fresh(theta, 0.6, 3, counts)
        assert dist.tobytes() == want_dist.tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        np.testing.assert_allclose(dist, distribution_oracle(theta, 0.6, HADAMARD, 3), atol=1e-12)

    def test_gradient_after_distribution_matches_fresh(self, rng):
        theta = probe.random_angles(2, rng)
        counts = np.array([1, 0, 2, 0, 0, 0, 4, 1, 0, 0, 0, 0, 1, 0, 0, 1])
        probe.measurement_distribution(theta, 1.3, 4)
        grad = probe.log_prob_grad(theta, 1.3, 4, counts)
        assert grad.tobytes() == self.fresh(theta, 1.3, 4, counts)[1].tobytes()

    def test_cached_states_are_read_only(self, rng):
        theta = probe.random_angles(2, rng)
        states = probe._layer_states(theta, 3)
        assert states is probe._layer_states(theta, 3)
        for amps in states:
            with pytest.raises(ValueError):
                amps[0] = 0.0

    def test_distribution_is_kept_per_phase_beside_the_states(self, rng):
        theta = probe.random_angles(2, rng)
        dist = probe.distribution(theta, 0.6, 3)
        assert dist.tobytes() == self.fresh(theta, 0.6, 3, np.ones(8, int))[0].tobytes()
        assert probe.distribution(theta, 0.6, 3) is not dist  # the fresh run cleared it
        dist = probe.distribution(theta, 0.6, 3)
        assert probe.distribution(theta.copy(), 0.6, 3) is dist
        assert probe.distribution(theta, 0.9, 3) is not dist
        with pytest.raises(ValueError):
            dist[0] = 0.5
        with pytest.raises(ConfigurationError):  # the same bytes in another shape
            probe.distribution(theta.ravel(), 0.6, 3)

    def test_prepare_probe_output_is_read_only(self, rng):
        amps = probe.prepare_probe(probe.random_angles(2, rng), 3)
        with pytest.raises(ValueError):
            amps[:] = 0.0


# Every simulation and gradient entry point, at n = 3 and x = 0.4.
ENTRY_POINTS = {
    "prepare_probe": lambda theta: probe.prepare_probe(theta, 3),
    "measurement_distribution": lambda theta: probe.measurement_distribution(theta, 0.4, 3),
    "distribution": lambda theta: probe.distribution(theta, 0.4, 3),
    "log_prob_grad": lambda theta: probe.log_prob_grad(theta, 0.4, 3, np.ones(8, int)),
    "log_prob_grad_table": lambda theta: probe.log_prob_grad_table(theta, 0.4, 3),
}


class TestAngleChecks:
    """The angles are checked where simulation starts: shape (layers, 4) in
    _layer_states, finiteness once per angle set in _states_for."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "angles",
        [np.zeros(4), np.zeros((2, 3)), np.zeros((1, 4, 1)),
         np.array([[0.1, np.nan, 0.2, 0.3], [0.0] * 4]),
         np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.0, np.inf, 0.0]])],
        ids=["shape-4", "shape-2x3", "shape-1x4x1", "nan", "inf"],
    )
    def test_rejected(self, entry, angles):
        for _ in range(2):  # a rejected angle set is not cached
            with pytest.raises(ConfigurationError):
                ENTRY_POINTS[entry](angles)

    def test_in_place_edit_to_nan_rejected(self, rng):
        theta = probe.random_angles(2, rng)
        probe.prepare_probe(theta, 3)
        theta[1, 3] = np.nan
        with pytest.raises(ConfigurationError):
            probe.prepare_probe(theta, 3)


class TestLogProbGrad:
    def test_two_step_consistency(self, rng):
        theta = probe.random_angles(2, rng)
        x = 0.8
        valid = probe.measurement_distribution(theta, x, 2) > probe.PROB_FLOOR
        g1 = probe.log_prob_grad_table(theta, x, 2, h=1e-5)
        g2 = probe.log_prob_grad_table(theta, x, 2, h=1e-7)
        for s in np.flatnonzero(valid):
            for k in range(g1.shape[1]):
                if abs(g2[s, k]) > 1e-6:
                    assert abs(g1[s, k] - g2[s, k]) / abs(g2[s, k]) <= 1e-3

    def test_stationary_coordinate_near_zero(self):
        # Ry(pi/2) puts both qubits in |+>, which the Hadamard readout at
        # x = 0 maps to |00>: p(0) = 1 is a maximum, so stationary
        theta = np.array([[0.0, np.pi / 2, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        grads = probe.log_prob_grad_table(theta, 0.0, 2)
        np.testing.assert_allclose(grads[0], 0.0, atol=1e-6)
        adjoint = probe.log_prob_grad(theta, 0.0, 2, np.array([3, 0, 0, 0]))
        np.testing.assert_allclose(adjoint, 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_adjoint_matches_fd_table(self, rng, n):
        for _ in range(3):
            theta = probe.random_angles(3, rng)
            x = float(rng.uniform(0, np.pi))
            dist = probe.measurement_distribution(theta, x, n)
            valid = np.flatnonzero(dist > probe.PROB_FLOOR)
            # more shots than outcomes, so some outcome repeats
            shots = rng.choice(valid, size=2**n + 3)
            adjoint = probe.log_prob_grad(theta, x, n, np.bincount(shots, minlength=2**n)).ravel()
            numeric = probe.log_prob_grad_table(theta, x, n)[shots].sum(axis=0)
            np.testing.assert_allclose(
                adjoint, numeric, rtol=1e-6, atol=1e-6 * np.abs(numeric).max()
            )

    @pytest.mark.parametrize(
        "counts",
        [np.array([3]), np.array([1, 0, 2, 0, 0, 0, 0]), np.array([2, -1, 0, 0, 0, 0, 0, 0])],
        ids=["length-one", "wrong-length", "negative"],
    )
    def test_malformed_counts_rejected(self, rng, counts):
        theta = probe.random_angles(2, rng)
        with pytest.raises(ConfigurationError):
            probe.log_prob_grad(theta, 0.7, 3, counts)

    def test_zero_counts_give_zero(self, rng):
        theta = probe.random_angles(2, rng)
        grad = probe.log_prob_grad(theta, 0.7, 3, np.zeros(8, int))
        np.testing.assert_array_equal(grad, np.zeros((2, 4)))

    def test_additive_in_counts(self, rng):
        theta = probe.random_angles(3, rng)
        first, second = rng.integers(0, 4, size=(2, 8))
        whole = probe.log_prob_grad(theta, 1.1, 3, first + second)
        parts = sum(probe.log_prob_grad(theta, 1.1, 3, c) for c in (first, second))
        np.testing.assert_allclose(whole, parts, rtol=1e-12, atol=1e-12 * np.abs(whole).max())


# The statevector kernels every probe simulation runs, checked against oracles.
# probe._apply_all applies the probe's rotations and the Hadamard readout
# to every qubit; here it is driven with gates the probe circuit does not fix
# (X, identity, random unitaries, a non-unitary matrix) and compared with
# explicit dense matrices and with the per-qubit tensordot kernel it replaced.
# probe._tables gives the per-register tables every simulation shares, among
# them the sum of Pauli Y over qubits in the probe gradient.

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
NO_LAYERS = np.zeros((0, 4))


def reference_apply_1q(amps: np.ndarray, n: int, mat: np.ndarray, q: int) -> np.ndarray:
    """The former per-qubit kernel: a tensordot on the qubit's tensor axis."""
    axis = n - 1 - q
    t = np.tensordot(mat, amps.reshape((2,) * n), axes=([1], [axis]))
    return np.moveaxis(t, 0, axis).reshape(-1)


def dense_all(n: int, mat: np.ndarray) -> np.ndarray:
    """Dense oracle of one 2x2 matrix applied to every qubit."""
    full = np.eye(2**n, dtype=complex)
    for q in range(n):
        full = dense_embed(n, mat, (q,)) @ full
    return full


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
        for n in (1, 3):
            amps = probe._apply_all(zero_state(n), n, X)
            np.testing.assert_allclose(amps, np.eye(2**n)[-1], atol=1e-15)

    def test_identity_exact(self, rng):
        amps = random_state(3, rng)
        out = probe._apply_all(amps, 3, np.eye(2, dtype=complex))
        np.testing.assert_array_equal(out, amps)

    @pytest.mark.parametrize(
        "u", [HADAMARD, HADAMARD.conj().T], ids=["hadamard", "hadamard-inverse"]
    )
    def test_readout_bases_unitary(self, u):
        # the readout and the inverse the adjoint gradient undoes it with are
        # the only gates the probe does not build itself
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_norm_preserved_over_long_sequence(self, rng):
        amps = zero_state(3)
        for _ in range(200):
            amps = probe._apply_all(amps, 3, random_unitary(rng))
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-9


class TestOutcomeProbabilities:
    def test_zero_state(self):
        # Ry(pi/2) puts both qubits in |+>, read in the Hadamard basis at
        # x = 0 as |00>
        theta = np.array([[0.0, np.pi / 2, 0.0, 0.0]])
        dist = probe.measurement_distribution(theta, 0.0, 2)
        np.testing.assert_allclose(dist, [1, 0, 0, 0], atol=1e-15)

    def test_plus_state(self):
        # |00> read in the Hadamard basis: both qubits in |+>
        dist = probe.measurement_distribution(NO_LAYERS, 0.0, 2)
        np.testing.assert_allclose(dist, [0.25] * 4, atol=1e-12)

    def test_matches_amps_squared_oracle(self, rng):
        theta = probe.random_angles(2, rng)
        phases = np.exp(1j * 0.7 * np.array([bin(s).count("1") for s in range(8)]))
        amps = probe.prepare_probe(theta, 3) * phases
        for q in range(3):
            amps = dense_embed(3, HADAMARD, (q,)) @ amps
        oracle = np.array([abs(a) ** 2 for a in amps])
        probs = probe.measurement_distribution(theta, 0.7, 3)
        np.testing.assert_allclose(probs, oracle, atol=1e-12)
        assert abs(probs.sum() - 1.0) < 1e-10


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_random_circuits_match_dense_oracle(self, n, rng):
        for _ in range(10):
            amps = dense = zero_state(n)
            for _ in range(int(rng.integers(3, 12))):
                mat = random_unitary(rng)
                amps = probe._apply_all(amps, n, mat)
                dense = dense_all(n, mat) @ dense
            np.testing.assert_allclose(amps, dense, atol=1e-10)
        # the kernel is linear, so a non-unitary matrix must match as well
        mat = np.array([[1.5, -0.2j], [0.7 + 0.3j, 0.0]])
        psi = random_state(n, rng)
        np.testing.assert_allclose(
            probe._apply_all(psi, n, mat), dense_all(n, mat) @ psi, atol=1e-12
        )

    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_matches_tensordot_reference(self, n, rng):
        for mat in (random_unitary(rng), HADAMARD, probe.ry_matrix(0.4)):
            psi = random_state(n, rng)
            want = psi
            for q in range(n):
                want = reference_apply_1q(want, n, mat, q)
            # rtol on each amplitude, with an absolute floor for amplitudes
            # far below the largest, where a reordered sum can cancel
            np.testing.assert_allclose(
                probe._apply_all(psi, n, mat), want,
                rtol=1e-12, atol=1e-12 * np.abs(want).max(),
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_y_sum_matches_dense(self, n, rng):
        psi = random_state(n, rng)
        flip, sign = probe._tables(n)[3:]
        y_psi = 1j * np.sum(sign * psi[flip], axis=0)
        dense = sum(dense_embed(n, Y, (q,)) for q in range(n)) @ psi
        np.testing.assert_allclose(y_psi, dense, atol=1e-12)

    def test_linearity(self, rng):
        mat = random_unitary(rng)
        psi1, psi2 = random_state(3, rng), random_state(3, rng)
        a, b = 0.3 + 0.1j, -0.7 + 0.5j
        combined = probe._apply_all(a * psi1 + b * psi2, 3, mat)
        separate = a * probe._apply_all(psi1, 3, mat) + b * probe._apply_all(psi2, 3, mat)
        np.testing.assert_allclose(combined, separate, atol=1e-12)


class TestTables:
    """Every simulation at n shares probe._tables(n), and every one shares
    HADAMARD, so a write into any of them must fail rather than change every
    later run."""

    @pytest.mark.parametrize("n", [2, 4])
    def test_read_only(self, n):
        for table in probe._tables(n):
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 7
        with pytest.raises(ValueError, match="read-only"):
            HADAMARD[0, 0] = 7

    @pytest.mark.parametrize("n", [2, 4])
    def test_z_is_sum_of_z_diagonal(self, n):
        popcount, z = probe._tables(n)[:2]
        np.testing.assert_array_equal(z, n - 2 * popcount)

    @pytest.mark.parametrize("n", [2, 4])
    def test_built_once(self, n):
        assert probe._tables(n) is probe._tables(n)
