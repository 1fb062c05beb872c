"""Trajectory augmentations: weak/strong views over stacked episode states.

All transforms act on the state block of a :class:`~ssrs.core.TrajectoryMatrix`
and leave actions and rewards bit-identical.  The strong view of the default
pairing multiplies column partitions of the state block by their own Shannon
entropy, so information-dense regions are amplified relative to flat ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import TrajectoryMatrix

__all__ = [
    "AugmentSpec",
    "PAIRINGS",
    "shannon_entropy",
    "double_entropy",
    "apply_augment",
    "weak_strong_pair",
    "default_cutout_width",
]

_KINDS = ("gaussian", "cutout", "smooth", "scale", "translate", "flip", "double_entropy")

# Fixed draw ranges for the stochastic rescaling transforms.
_SCALE_RANGE = (0.8, 1.2)
_TRANSLATE_RANGE = (0.0, 0.1)


def default_cutout_width(m1: int) -> int:
    """Default number of zeroed columns: 16 for wide (>=128) state vectors,
    scaled down to ceil(m1 / 8) for narrow ones."""
    if m1 >= 128:
        return 16
    return math.ceil(m1 / 8)


@dataclass(frozen=True)
class AugmentSpec:
    """A named transform plus its parameters.

    kind      one of: gaussian, cutout, smooth, scale, translate, flip,
              double_entropy
    params    kind-specific parameters; missing entries take the defaults
              below.  ``scale`` and ``translate`` draw their factor from the
              fixed ranges (0.8, 1.2) and (0, 0.1) respectively.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown augmentation kind: {self.kind!r}")
        p = dict(self.params)
        if self.kind == "gaussian":
            sigma = float(p.get("sigma", 0.1))
            if sigma < 0:
                raise ValueError("gaussian sigma must be nonnegative")
            p["sigma"] = sigma
        elif self.kind == "cutout":
            # 0 means "derive from the state width at application time"
            n = int(p.get("n", 0))
            if n < 0:
                raise ValueError("cutout width must be nonnegative")
            p["n"] = n
        elif self.kind == "smooth":
            n = int(p.get("n", 3))
            if n < 1:
                raise ValueError("smoothing window must be at least 1")
            p["n"] = n
        elif self.kind == "double_entropy":
            n = int(p.get("n", 8))
            if n < 1:
                raise ValueError("partition count must be at least 1")
            p["n"] = n
        elif self.kind in ("scale", "translate"):
            lo, hi = _SCALE_RANGE if self.kind == "scale" else _TRANSLATE_RANGE
            plo = float(p.get("low", lo))
            phi = float(p.get("high", hi))
            if not (lo <= plo < phi <= hi):
                raise ValueError(
                    f"{self.kind} draw range must sit inside ({lo}, {hi})"
                )
            p["low"], p["high"] = plo, phi
        object.__setattr__(self, "params", p)


# Weak/strong pairings offered by the training configuration.  The weak view
# is always small gaussian noise; the strong view varies.
PAIRINGS = {
    "ssrs_s": ("gaussian", "double_entropy"),
    "ssrs_m": ("gaussian", "smooth"),
    "ssrs_c": ("gaussian", "cutout"),
}


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def shannon_entropy(matrix) -> float:
    """Shannon entropy (natural log) of a nonnegative matrix.

    Entries are normalized to a probability distribution p_k = a_k / sum(a);
    zero entries contribute nothing (0 * ln 0 := 0) and an all-zero matrix
    has entropy 0 by convention.

    :param matrix: array-like of nonnegative values.
    :return: entropy in nats, in [0, ln(#entries)].
    """
    a = np.asarray(matrix, dtype=np.float64)
    if np.any(a < 0):
        raise ValueError("entropy is only defined for nonnegative entries")
    total = a.sum()
    if total == 0.0:
        return 0.0
    p = a / total
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def double_entropy(traj: TrajectoryMatrix, n: int) -> TrajectoryMatrix:
    """Entropy-weight column partitions of the state block.

    The state block is split column-wise into ``n`` contiguous partitions of
    width floor(m1 / n); any remainder columns are absorbed by the last
    partition.  Each partition is multiplied elementwise by its own Shannon
    entropy.  Actions and rewards pass through untouched.
    """
    m1 = traj.states.shape[1]
    if n < 1:
        raise ValueError("partition count must be at least 1")
    if n > m1:
        raise ValueError(f"cannot split {m1} state columns into {n} partitions")
    width = m1 // n
    out = traj.states.copy()
    for i in range(n):
        lo = i * width
        hi = (i + 1) * width if i < n - 1 else m1
        block = traj.states[:, lo:hi]
        out[:, lo:hi] = shannon_entropy(block) * block
    return TrajectoryMatrix(states=out, actions=traj.actions.copy(),
                            rewards=traj.rewards.copy())


# ---------------------------------------------------------------------------
# transform application
# ---------------------------------------------------------------------------

def apply_augment(spec: AugmentSpec, traj: TrajectoryMatrix,
                  rng: np.random.Generator) -> TrajectoryMatrix:
    """Apply one named transform to the trajectory's state block.

    Deterministic given the generator state.  The returned trajectory has the
    same shapes as the input; actions and rewards are copied bit-identically.
    """
    s = traj.states
    m1 = s.shape[1]
    kind = spec.kind

    if kind == "gaussian":
        # Additive noise, clipped at zero to keep states in the valid range.
        noisy = s + rng.normal(0.0, spec.params["sigma"], size=s.shape)
        out = np.maximum(noisy, 0.0)
    elif kind == "cutout":
        n = spec.params["n"] or default_cutout_width(m1)
        n = min(n, m1)
        cols = rng.choice(m1, size=n, replace=False)
        out = s.copy()
        out[:, cols] = 0.0
    elif kind == "smooth":
        # Each row becomes the mean of the window of rows ending at it; the
        # window is shorter near the start of the episode.
        n = spec.params["n"]
        out = np.empty_like(s)
        for t in range(s.shape[0]):
            lo = max(0, t - n + 1)
            out[t] = s[lo:t + 1].mean(axis=0)
    elif kind == "scale":
        factor = rng.uniform(spec.params["low"], spec.params["high"])
        out = s * factor
    elif kind == "translate":
        frac = rng.uniform(spec.params["low"], spec.params["high"])
        shift = int(frac * m1)
        out = np.roll(s, shift, axis=1)
    elif kind == "flip":
        out = s[:, ::-1].copy()
    elif kind == "double_entropy":
        return double_entropy(traj, spec.params["n"])
    else:  # pragma: no cover - AugmentSpec already validates
        raise ValueError(f"unknown augmentation kind: {kind!r}")

    return TrajectoryMatrix(states=out, actions=traj.actions.copy(),
                            rewards=traj.rewards.copy())


def weak_strong_pair(pairing, traj: TrajectoryMatrix,
                     rng: np.random.Generator):
    """Produce (weak view, strong view) of a trajectory.

    ``pairing`` is a (weak, strong) pair of :class:`AugmentSpec`, as built by
    ``RunConfig.augment_pair`` from a :data:`PAIRINGS` name.  The two views
    draw from independent child generators spawned from ``rng``, so each is
    reproducible from one seed.
    """
    weak, strong = pairing
    rng_w, rng_s = rng.spawn(2)
    return apply_augment(weak, traj, rng_w), apply_augment(strong, traj, rng_s)
