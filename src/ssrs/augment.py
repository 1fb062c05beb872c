"""Trajectory augmentations: weak/strong views over stacked episode states.

All transforms act on the state block of a :class:`~ssrs.core.TrajectoryMatrix`
and leave actions and rewards bit-identical.  The strong view of the default
pairing multiplies column partitions of the state block by their own Shannon
entropy, so information-dense regions are amplified relative to flat ones.
The consistency loss augments each replay transition as its own one-row
trajectory; ``row_views`` does that for a whole batch of rows at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import TrajectoryMatrix

__all__ = [
    "AugmentSpec",
    "KINDS",
    "PAIRINGS",
    "row_entropy",
    "shannon_entropy",
    "partition_entropies",
    "apply_augment",
    "weak_strong_pair",
    "row_views",
    "default_cutout_width",
]

# The parameters each transform kind reads, with their defaults.  The
# ``scale`` and ``translate`` defaults are also the fixed ranges their draw
# ranges must sit inside.
_DEFAULTS = {
    "gaussian": {"sigma": 0.1},
    "cutout": {"n": 0},  # 0 derives the width from the state width
    "smooth": {"n": 3},
    "scale": {"low": 0.8, "high": 1.2},
    "translate": {"low": 0.0, "high": 0.1},
    "flip": {},
    "double_entropy": {"n": 8},
}
KINDS = tuple(_DEFAULTS)
_DRAWING_KINDS = ("gaussian", "cutout", "scale", "translate")


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
              below, and a parameter the kind does not read is rejected.
              ``scale`` and ``translate`` draw their factor from the fixed
              ranges (0.8, 1.2) and (0, 0.1) respectively.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown augmentation kind: {self.kind!r}")
        defaults = _DEFAULTS[self.kind]
        unread = sorted(set(self.params) - set(defaults))
        if unread:
            raise ValueError(f"{self.kind} takes no parameter "
                             f"{', '.join(unread)}")
        p = {**defaults, **self.params}
        if self.kind == "gaussian":
            p["sigma"] = float(p["sigma"])
            if not 0.0 <= p["sigma"] < math.inf:  # NaN fails both
                raise ValueError(f"gaussian sigma must be finite and "
                                 f"nonnegative, got {p['sigma']}")
        elif self.kind in ("scale", "translate"):
            lo, hi = defaults["low"], defaults["high"]
            p["low"], p["high"] = float(p["low"]), float(p["high"])
            if not lo <= p["low"] < p["high"] <= hi:
                raise ValueError(
                    f"{self.kind} draw range must sit inside ({lo}, {hi})"
                )
        elif "n" in p:
            p["n"] = int(p["n"])
            least = 0 if self.kind == "cutout" else 1
            if p["n"] < least:
                raise ValueError(f"{self.kind} n must be at least {least}")
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

def row_entropy(matrix) -> np.ndarray:
    """Shannon entropy (natural log) of each row of a nonnegative 2-D array.

    Each row is normalized to a probability distribution p_k = a_k / sum(a);
    zero entries contribute nothing (0 * ln 0 := 0) and an all-zero row has
    entropy 0 by convention.

    :param matrix: 2-D array-like of nonnegative values.
    :return: one entropy per row, in nats, each in [0, ln(#columns)].
    """
    # Contiguous rows, so each row's sums run in the same order as a 1-D sum.
    a = np.ascontiguousarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"row entropy needs a 2-D array, got {a.ndim}-D")
    if np.any(a < 0):
        raise ValueError("entropy is only defined for nonnegative entries")
    totals = a.sum(axis=1)
    out = np.zeros(a.shape[0])
    live = np.flatnonzero(totals != 0.0)
    p = a[live] / totals[live, None]
    positive = p > 0
    counts = np.count_nonzero(positive, axis=1)
    # Each row sums its p ln p terms over its positive entries only, in column
    # order.  Rows with equally many positive entries are summed together, so
    # every sum has the length and order of that row's own 1-D sum: numpy's
    # pairwise summation rounds differently for different lengths.
    for k in np.flatnonzero(np.bincount(counts)):
        same = counts == k
        terms = p[same][positive[same]].reshape(np.count_nonzero(same), k)
        out[live[same]] = -(terms * np.log(terms)).sum(axis=1)
    return out


def shannon_entropy(matrix) -> float:
    """Shannon entropy (natural log) of a nonnegative matrix, taken over all
    of its entries as one distribution (see :func:`row_entropy`).

    :param matrix: array-like of nonnegative values.
    :return: entropy in nats, in [0, ln(#entries)].
    """
    a = np.asarray(matrix, dtype=np.float64)
    return float(row_entropy(a.reshape(1, -1))[0])


def _partition_columns(m1: int, n: int) -> np.ndarray:
    """Partition index of each of ``m1`` state columns split into ``n``
    contiguous partitions of width floor(m1 / n), the last one taking the
    remainder."""
    if n < 1:
        raise ValueError("partition count must be at least 1")
    if n > m1:
        raise ValueError(f"cannot split {m1} state columns into {n} partitions")
    return np.minimum(np.arange(m1) // (m1 // n), n - 1)


def partition_entropies(blocks, n: int) -> np.ndarray:
    """Shannon entropy of each column partition (see
    :func:`_partition_columns`) of each trajectory in ``blocks``, shape
    (G, T, m1), taken over the partition's entries read row-major.

    :return: (G, n) entropies in nats.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    n_traj, steps, m1 = blocks.shape
    # first column of the last partition
    split = int(np.searchsorted(_partition_columns(m1, n), n - 1))
    out = np.empty((n_traj, n))
    # The n - 1 leading partitions share one width and go through one
    # row_entropy call, the last (possibly wider) one through another.
    for lo, hi, first, parts in ((0, split, 0, n - 1), (split, m1, n - 1, 1)):
        if parts == 0:
            continue
        part_width = (hi - lo) // parts
        flat = (blocks[:, :, lo:hi]
                .reshape(n_traj, steps, parts, part_width)
                .transpose(0, 2, 1, 3)
                .reshape(n_traj * parts, steps * part_width))
        out[:, first:first + parts] = row_entropy(flat).reshape(n_traj, parts)
    return out


# ---------------------------------------------------------------------------
# transform application
# ---------------------------------------------------------------------------

def _augment(spec: AugmentSpec, blocks: np.ndarray, rngs) -> np.ndarray:
    """Apply one named transform to G equal-length trajectories at once.

    ``blocks`` stacks their state blocks, shape (G, T, m1); trajectory g
    draws from ``rngs[g]`` exactly as it would on its own.  Returns the
    transformed blocks, same shape.
    """
    n_traj, _, m1 = blocks.shape
    kind = spec.kind
    p = spec.params
    if n_traj == 0:
        return blocks.copy()

    if kind == "gaussian":
        # Additive noise, clipped at zero to keep states in the valid range.
        noise = np.stack([rng.normal(0.0, p["sigma"], size=blocks.shape[1:])
                          for rng in rngs])
        return np.maximum(blocks + noise, 0.0)
    if kind == "cutout":
        n = min(p["n"] or default_cutout_width(m1), m1)
        cols = np.stack([rng.choice(m1, size=n, replace=False) for rng in rngs])
        out = blocks.copy()
        out[np.arange(n_traj)[:, None], :, cols] = 0.0
        return out
    if kind == "smooth":
        # Each row becomes the mean of the window of rows ending at it; the
        # window is shorter near the start of the trajectory, so a one-row
        # trajectory is left as it is.
        out = np.empty_like(blocks)
        for t in range(blocks.shape[1]):
            lo = max(0, t - p["n"] + 1)
            out[:, t] = blocks[:, lo:t + 1].mean(axis=1)
        return out
    if kind == "scale":
        factors = np.array([rng.uniform(p["low"], p["high"]) for rng in rngs])
        return blocks * factors[:, None, None]
    if kind == "translate":
        # Roll each trajectory's columns right by its own shift.
        shifts = np.array([int(rng.uniform(p["low"], p["high"]) * m1)
                           for rng in rngs])
        cols = (np.arange(m1) - shifts[:, None]) % m1
        return np.take_along_axis(blocks, cols[:, None, :], axis=2)
    if kind == "flip":
        return blocks[:, :, ::-1].copy()
    if kind == "double_entropy":
        columns = _partition_columns(m1, p["n"])
        return partition_entropies(blocks, p["n"])[:, None, columns] * blocks
    # AugmentSpec already validates the kind.
    raise ValueError(f"unknown augmentation kind: {kind!r}")  # pragma: no cover


def apply_augment(spec: AugmentSpec, traj: TrajectoryMatrix,
                  rng: np.random.Generator) -> TrajectoryMatrix:
    """Apply one named transform to the trajectory's state block.

    Deterministic given the generator state.  The returned trajectory has the
    same shapes as the input; actions and rewards are copied bit-identically.
    """
    return TrajectoryMatrix(states=_augment(spec, traj.states[None], [rng])[0],
                            actions=traj.actions.copy(),
                            rewards=traj.rewards.copy())


def weak_strong_pair(pairing, traj: TrajectoryMatrix,
                     rng: np.random.Generator):
    """Produce (weak view, strong view) of a trajectory.

    ``pairing`` is a (weak, strong) pair of :class:`AugmentSpec`, as built by
    ``RunConfig.augment_pair`` from a :data:`PAIRINGS` name.  The two views
    draw from independent child generators spawned from ``rng``, so each is
    reproducible from one seed.  Training builds its views with
    :func:`row_views`; this per-trajectory form is the reference it is
    checked against.
    """
    weak, strong = pairing
    rng_w, rng_s = rng.spawn(2)
    return apply_augment(weak, traj, rng_w), apply_augment(strong, traj, rng_s)


def row_views(pairing, states, seed: int):
    """(weak, strong) state views of every row of ``states``, each row
    augmented as its own one-row trajectory.

    Row i gets the views ``weak_strong_pair`` makes of that row alone from
    a generator seeded with the i-th child of ``SeedSequence(seed)``, so the
    views are reproducible from ``seed``; the transforms run on all rows at
    once.  With one-row trajectories ``smooth`` leaves every row as it is.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2:
        raise ValueError("states must be 2-D (one row per transition)")
    if np.any(states < 0):
        raise ValueError("state rows must be nonnegative")
    n = len(states)
    blocks = states[:, None, :]
    views = []
    for view, spec in enumerate(pairing):
        # Row i's generator for this view is the child
        # SeedSequence(seed).spawn(n)[i].spawn(2)[view], built straight from
        # its spawn key; transforms that draw nothing need none.
        rngs = ([np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence(seed, spawn_key=(i, view))))
                 for i in range(n)] if spec.kind in _DRAWING_KINDS
                else [None] * n)
        views.append(_augment(spec, blocks, rngs)[:, 0])
    return tuple(views)
