"""Training schedules for the confidence threshold, the loss mixing weight,
and the buffer shaping rate.  Each is a function of the episode index ``t``
and the horizon ``total``; the shaping rate also reads two buffer counts."""

from __future__ import annotations

import math

__all__ = ["lambda_at", "alpha_at", "p_u_at"]

# Episode fractions (early, late) at which the shaping-rate phases change.
_PHASE_BOUNDARIES = (0.2, 0.8)


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


def p_u_at(t: float, total: float, nonzero_count: int, buffer_count: int,
           base: float) -> float:
    """Shaping visit rate: the base rate scaled by how much genuine reward
    signal the buffer holds.

    ``nonzero_count`` is the number of buffer entries with a nonzero
    original reward and ``buffer_count`` the number of entries.  Outer
    phases (before the early boundary, from the late boundary on) scale by
    ln(1 + nonzero_count); the middle phase scales by the nonzero fraction
    of the buffer.  Clamped to [0, 1].
    """
    if total <= 0:
        raise ValueError("schedule horizon must be positive")
    early, late = _PHASE_BOUNDARIES
    frac = t / total
    if early <= frac < late:
        if buffer_count > 0:
            multiplier = nonzero_count / buffer_count
        else:
            multiplier = 0.0
    else:
        multiplier = math.log1p(nonzero_count)
    return min(max(base * multiplier, 0.0), 1.0)
