"""Training schedules for the confidence threshold, the loss mixing weight,
and the buffer shaping rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ScheduleState", "lambda_at", "alpha_at", "p_u_at"]

# Episode fractions (early, late) at which the shaping-rate phases change.
_PHASE_BOUNDARIES = (0.2, 0.8)


@dataclass
class ScheduleState:
    """Snapshot of the quantities the shaping-rate schedule depends on.

    t                 current episode index (0 <= t <= total)
    total             total training episodes
    nonzero_count     buffer entries with nonzero original reward
    buffer_count      total buffer entries
    """

    t: float
    total: float
    nonzero_count: int
    buffer_count: int


def lambda_at(t: float, total: float) -> float:
    """Confidence threshold: rises from 0.6 toward 0.9 with saturation.

    0.6 + 0.3 * (1 - exp(-t / total)); the configured final value is the
    asymptote, approached but not reached at t = total.
    """
    if total <= 0:
        raise ValueError("schedule horizon must be positive")
    return 0.6 + 0.3 * (1.0 - math.exp(-t / total))


def alpha_at(t: float, total: float) -> float:
    """Loss mixing weight: linear ramp 0.2 -> 0.7 over the first 80% of
    training, then flat at 0.7."""
    if total <= 0:
        raise ValueError("schedule horizon must be positive")
    if t < 0.8 * total:
        return 0.2 + 0.5 * (t / (0.8 * total))
    return 0.7


def p_u_at(state: ScheduleState, base: float) -> float:
    """Shaping visit rate: the base rate scaled by how much genuine reward
    signal the buffer holds.

    Outer phases (before the early boundary, from the late boundary on)
    scale by ln(1 + nonzero_count); the middle phase scales by the nonzero
    fraction of the buffer.  Clamped to [0, 1].
    """
    if state.total <= 0:
        raise ValueError("schedule horizon must be positive")
    early, late = _PHASE_BOUNDARIES
    frac = state.t / state.total
    if early <= frac < late:
        if state.buffer_count > 0:
            multiplier = state.nonzero_count / state.buffer_count
        else:
            multiplier = 0.0
    else:
        multiplier = math.log1p(state.nonzero_count)
    return min(max(base * multiplier, 0.0), 1.0)
