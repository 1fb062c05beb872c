"""Schedule curves: pinned values, phase boundaries, clamping."""

import math

import numpy as np
import pytest

from ssrs.schedules import alpha_at, lambda_at, p_u_at


class TestConfidenceThreshold:
    def test_endpoints(self):
        assert lambda_at(0.0, 100.0) == pytest.approx(0.6, abs=1e-15)
        assert lambda_at(100.0, 100.0) == pytest.approx(
            0.78963616764856730, abs=1e-15)

    def test_midpoint(self):
        assert lambda_at(50.0, 100.0) == pytest.approx(
            0.71804080208620997, abs=1e-15)

    def test_horizon_invariance(self):
        # the curve depends only on t/total
        for frac in (0.1, 0.37, 0.9):
            assert lambda_at(frac * 250, 250) == pytest.approx(
                lambda_at(frac * 4000, 4000), abs=1e-15)

    def test_monotone_and_bounded(self):
        values = [lambda_at(t, 200.0) for t in np.linspace(0, 200, 101)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[0] >= 0.6
        assert values[-1] < 0.9  # asymptote, never reached

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            lambda_at(1.0, 0.0)


class TestMixingWeight:
    def test_ramp_values(self):
        assert alpha_at(0.0, 100.0) == pytest.approx(0.2, abs=1e-15)
        assert alpha_at(40.0, 100.0) == pytest.approx(0.45, abs=1e-15)
        assert alpha_at(80.0, 100.0) == pytest.approx(0.7, abs=1e-15)
        assert alpha_at(100.0, 100.0) == 0.7

    def test_knee_is_continuous(self):
        knee = 0.8 * 300.0
        eps = 1e-9
        assert abs(alpha_at(knee - eps, 300.0) - alpha_at(knee, 300.0)) < 1e-10

    def test_flat_after_knee(self):
        for t in (240.0, 270.0, 300.0):
            assert alpha_at(t, 300.0) == 0.7

    def test_nondecreasing(self):
        values = [alpha_at(t, 50.0) for t in np.linspace(0, 50, 201)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            alpha_at(1.0, -5.0)


class TestShapingRate:
    def test_outer_phase_log_scaling(self):
        # one rewarded entry: ln(2) times the base rate
        early = p_u_at(10, 100, 1, 50, 0.01)
        assert early == pytest.approx(0.01 * math.log(2), abs=1e-15)
        assert p_u_at(90, 100, 1, 50, 0.01) == early

    def test_middle_phase_fraction_scaling(self):
        assert p_u_at(50, 100, 5, 40, 0.08) == pytest.approx(0.08 * 5 / 40,
                                                            abs=1e-15)

    def test_phase_boundaries_inclusive_left(self):
        # frac == 0.2 belongs to the middle phase, frac == 0.8 to the tail
        assert p_u_at(20, 100, 3, 30, 0.1) == pytest.approx(0.1 * 0.1,
                                                           abs=1e-15)
        assert p_u_at(80, 100, 3, 30, 0.1) == pytest.approx(0.1 * math.log(4),
                                                           abs=1e-15)

    def test_no_signal_means_no_shaping(self):
        for t in (5, 50, 95):
            assert p_u_at(t, 100, 0, 20, 0.5) == 0.0

    def test_empty_buffer_middle_phase(self):
        assert p_u_at(50, 100, 0, 0, 0.5) == 0.0

    def test_clamped_to_unit_interval(self):
        assert p_u_at(1, 100, 10_000, 10_000, 1.0) == 1.0
        assert p_u_at(1, 100, 10_000, 10_000, 0.0) == 0.0

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            p_u_at(0, 0, 1, 1, 0.1)
