import numpy as np
import pytest

from vqsense import conformal
from vqsense.conformal import ThresholdState, build_set, update_threshold
from vqsense.probe import ConfigurationError, phase_grid


class TestBuildSet:
    def test_empty_when_lambda_below_min(self):
        mask = build_set(np.array([1.0, 2.0, 3.0]), 0.5)
        assert conformal.set_size(mask) == 0

    def test_full_when_lambda_above_max(self):
        mask = build_set(np.array([1.0, 2.0, 3.0]), 3.0)
        assert conformal.set_size(mask) == 3

    def test_boundary_included(self):
        mask = build_set(np.array([1.0, 2.0, 3.0]), 2.0)
        np.testing.assert_array_equal(mask, [True, True, False])

    def test_monotone_in_lambda(self, rng):
        for _ in range(50):
            scores = rng.uniform(0, 5, size=10)
            lo, hi = sorted(rng.uniform(0, 5, size=2))
            small, large = build_set(scores, lo), build_set(scores, hi)
            assert np.all(large[small])  # small subset of large

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            build_set(np.array([1.0, np.nan]), 1.0)


class TestLosses:
    def test_coverage_loss(self):
        mask = np.array([True, False, True])
        assert conformal.coverage_loss(0, mask) == 0.0
        assert conformal.coverage_loss(1, mask) == 1.0
        assert conformal.coverage_loss(0, np.zeros(3, dtype=bool)) == 1.0

    def test_min_distance_member(self):
        grid = phase_grid(10)
        mask = np.zeros(10, dtype=bool)
        mask[4] = True
        assert conformal.min_distance_loss(grid[4], mask, grid) == 0.0

    def test_min_distance_single_member(self):
        grid = np.array([0.0, np.pi])
        mask = np.array([False, True])
        assert abs(conformal.min_distance_loss(0.0, mask, grid) - np.pi) < 1e-15

    def test_min_distance_two_members(self):
        grid = phase_grid(10)
        mask = np.zeros(10, dtype=bool)
        mask[0] = mask[9] = True
        loss = conformal.min_distance_loss(grid[4], mask, grid)
        assert abs(loss - 4 * np.pi / 9) < 1e-12

    def test_empty_set_capped(self):
        loss = conformal.min_distance_loss(1.0, np.zeros(5, dtype=bool), phase_grid(5))
        assert loss == np.pi

    def test_monotonicity_under_nesting(self, rng):
        # larger sets never increase either loss
        grid = phase_grid(10)
        for _ in range(50):
            scores = rng.uniform(0, 5, size=10)
            lo, hi = sorted(rng.uniform(0, 5, size=2))
            small, large = build_set(scores, lo), build_set(scores, hi)
            xi = int(rng.integers(10))
            assert conformal.coverage_loss(xi, small) >= conformal.coverage_loss(xi, large)
            assert conformal.min_distance_loss(grid[xi], small, grid) >= (
                conformal.min_distance_loss(grid[xi], large, grid)
            )


class TestThresholdUpdate:
    def test_zero_correction_at_target(self):
        state = ThresholdState(lam=1.0, eta=0.1, alpha=0.3)
        assert update_threshold(state, 0.3).lam == 1.0

    def test_miss_raises_threshold(self):
        state = ThresholdState(lam=1.0, eta=0.1, alpha=0.3)
        assert abs(update_threshold(state, 1.0).lam - 1.07) < 1e-15

    def test_hit_lowers_threshold(self):
        state = ThresholdState(lam=1.0, eta=0.1, alpha=0.3)
        assert abs(update_threshold(state, 0.0).lam - 0.97) < 1e-15

    def test_counters_advance(self):
        state = ThresholdState(lam=1.0, eta=0.1, alpha=0.3)
        state = update_threshold(state, 1.0)
        state = update_threshold(state, 0.0)
        assert state.t == 2 and state.cum_loss == 1.0

    def test_decay_schedule_step_sizes(self):
        state = ThresholdState(lam=0.0, eta=0.2, alpha=0.5, schedule="decay")
        assert state.step_size() == 0.2
        state = update_threshold(state, 1.0)
        assert abs(state.step_size() - 0.2 / np.sqrt(2)) < 1e-15

    def test_telescoping_identity_constant_eta(self, rng):
        state = ThresholdState(lam=2.0, eta=0.1, alpha=0.3)
        losses = rng.integers(0, 2, size=1000).astype(float)
        for loss in losses:
            state = update_threshold(state, loss)
        expected = 2.0 + 0.1 * np.sum(losses - 0.3)
        assert abs(state.lam - expected) <= 1e-9

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            ThresholdState(lam=0.0, eta=-0.1, alpha=0.3)
        with pytest.raises(ConfigurationError):
            ThresholdState(lam=0.0, eta=0.1, alpha=1.5)


class TestSoftSetSize:
    def test_score_at_lambda_contributes_half(self):
        assert abs(conformal.soft_set_size(np.array([2.0]), 2.0, 0.5) - 0.5) < 1e-12

    def test_saturation(self):
        scores = np.full(10, 1.0)
        g = conformal.soft_set_size(scores, 1.0 + 10 * 0.3, 0.3)
        assert g >= 10 * 0.9999546

    def test_logistic_arithmetic(self):
        g = conformal.soft_set_size(np.array([1.0, 2.0, 3.0]), 2.0, 0.5)
        expected = 0.8807970779778823 + 0.5 + 0.11920292202211755
        assert abs(g - expected) < 1e-12

    def test_bounds_and_monotone_in_lambda(self, rng):
        for _ in range(50):
            scores = rng.uniform(0, 5, size=10)
            lo, hi = sorted(rng.uniform(-1, 6, size=2))
            tau = rng.uniform(0.05, 1.0)
            g_lo = conformal.soft_set_size(scores, lo, tau)
            g_hi = conformal.soft_set_size(scores, hi, tau)
            assert 0 < g_lo < 10 and 0 < g_hi < 10
            assert g_lo <= g_hi + 1e-12

    def test_converges_to_cardinality(self, rng):
        for _ in range(20):
            scores = rng.uniform(0, 5, size=10)
            lam = rng.uniform(0, 5)
            if np.min(np.abs(scores - lam)) <= 1e-2:
                continue
            exact = conformal.set_size(build_set(scores, lam))
            g = conformal.soft_set_size(scores, lam, 1e-4)
            assert abs(g - exact) < 1e-6

    def test_bad_tau(self):
        with pytest.raises(ConfigurationError):
            conformal.soft_set_size(np.array([1.0]), 0.0, 0.0)


class TestSigmoid:
    def test_equals_clip_form_bit_for_bit(self, rng):
        def clip_form(z):
            return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))

        inputs = [
            rng.normal(scale=800.0, size=1000),
            np.array([1e3, -1e3, np.inf, -np.inf, 500.0, -500.0, 0.0, -0.0]),
        ]
        for z in inputs:
            want = clip_form(z)
            assert conformal.sigmoid(z).tobytes() == want.tobytes()
            # in place, as the estimator calls it
            assert conformal.sigmoid(z, out=z) is z
            assert z.tobytes() == want.tobytes()
        for z in (1e3, -1e3, np.inf, -np.inf, 0.3):
            assert np.float64(conformal.sigmoid(z)).tobytes() == clip_form(z).tobytes()


class TestRiskBound:
    def test_constant_eta_value(self):
        assert abs(conformal.risk_bound(100, 0.1) - 0.11) < 1e-12

    def test_one_over_t_scaling(self):
        assert abs(
            conformal.risk_bound(1000, 0.1) - conformal.risk_bound(100, 0.1) / 10
        ) < 1e-15

    def test_decay_schedule_telescoping(self):
        # oracle: sum of the step-size increment sequence is 1/eta_T
        T, eta = 100, 0.1
        eta_t = eta / np.sqrt(np.arange(1, T + 1))
        delta_sum = 1 / eta_t[0] + np.sum(1 / eta_t[1:] - 1 / eta_t[:-1])
        expected = (1.0 + eta_t.max()) / T * delta_sum
        assert abs(conformal.risk_bound(T, eta, "decay") - expected) < 1e-12

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            conformal.risk_bound(0, 0.1)
        with pytest.raises(ConfigurationError):
            conformal.risk_bound(10, 0.1, "nope")
