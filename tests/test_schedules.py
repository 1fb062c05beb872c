"""Schedule curves: pinned values, phase boundaries, clamping."""

import math

import numpy as np
import pytest

from ssrs.schedules import ScheduleState, alpha_at, lambda_at, p_u_at


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
        state = ScheduleState(t=10, total=100, nonzero_count=1,
                              buffer_count=50)
        assert p_u_at(state, 0.01) == pytest.approx(0.01 * math.log(2),
                                                    abs=1e-15)
        late = ScheduleState(t=90, total=100, nonzero_count=1,
                             buffer_count=50)
        assert p_u_at(late, 0.01) == p_u_at(state, 0.01)

    def test_middle_phase_fraction_scaling(self):
        state = ScheduleState(t=50, total=100, nonzero_count=5,
                              buffer_count=40)
        assert p_u_at(state, 0.08) == pytest.approx(0.08 * 5 / 40, abs=1e-15)

    def test_phase_boundaries_inclusive_left(self):
        # frac == 0.2 belongs to the middle phase, frac == 0.8 to the tail
        mid = ScheduleState(t=20, total=100, nonzero_count=3, buffer_count=30)
        assert p_u_at(mid, 0.1) == pytest.approx(0.1 * 0.1, abs=1e-15)
        tail = ScheduleState(t=80, total=100, nonzero_count=3, buffer_count=30)
        assert p_u_at(tail, 0.1) == pytest.approx(0.1 * math.log(4), abs=1e-15)

    def test_no_signal_means_no_shaping(self):
        for t in (5, 50, 95):
            state = ScheduleState(t=t, total=100, nonzero_count=0,
                                  buffer_count=20)
            assert p_u_at(state, 0.5) == 0.0

    def test_empty_buffer_middle_phase(self):
        state = ScheduleState(t=50, total=100, nonzero_count=0,
                              buffer_count=0)
        assert p_u_at(state, 0.5) == 0.0

    def test_clamped_to_unit_interval(self):
        state = ScheduleState(t=1, total=100, nonzero_count=10_000,
                              buffer_count=10_000)
        assert p_u_at(state, 1.0) == 1.0
        assert p_u_at(state, 0.0) == 0.0

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            p_u_at(ScheduleState(t=0, total=0, nonzero_count=1,
                                 buffer_count=1), 0.1)
