"""Walk through the entropy measure and every trajectory transform.

Builds one synthetic episode, prints its per-partition entropies, then runs
each transform and reports what changed (states only -- actions and rewards
always survive untouched).
"""

import numpy as np

from ssrs.augment import (AugmentSpec, apply_augment, shannon_entropy,
                          weak_strong_pair)
from ssrs.config import RunConfig
from ssrs.core import TrajectoryMatrix

rng = np.random.default_rng(7)

n_steps, width = 6, 16
traj = TrajectoryMatrix(
    states=rng.uniform(0.0, 255.0, size=(n_steps, width)),
    actions=np.eye(2)[rng.integers(0, 2, size=n_steps)],
    rewards=np.array([0.0, 0.0, 1.0, 0.0, 0.0, 2.0]),
)

print(f"episode: {n_steps} steps, state width {width}")
print(f"whole-matrix entropy      {shannon_entropy(traj.states):.4f}")
print(f"uniform 2x2 reference     {shannon_entropy(np.ones((2, 2))):.4f} (= ln 4)")
print(f"one-hot reference         {shannon_entropy(np.array([[1.0, 0.0], [0.0, 0.0]])):.4f}")
print(f"scaled by 3 (invariant)   {shannon_entropy(3.0 * traj.states):.4f}")
print()

for kind in ("gaussian", "cutout", "smooth", "scale", "translate", "flip",
             "double_entropy"):
    out = apply_augment(AugmentSpec(kind), traj, rng)
    moved = float(np.abs(out.states - traj.states).mean())
    same_ar = (np.array_equal(out.actions, traj.actions)
               and np.array_equal(out.rewards, traj.rewards))
    print(f"{kind:14s} mean |state change| {moved:8.3f}   "
          f"actions/rewards intact: {same_ar}")

# flip twice lands exactly back on the original
twice = apply_augment(AugmentSpec("flip"),
                      apply_augment(AugmentSpec("flip"), traj, rng), rng)
print(f"\nflip o flip identical to input: "
      f"{np.array_equal(twice.states, traj.states)}")

# the default weak/strong pairing (ssrs_s) used during training
weak, strong = weak_strong_pair(RunConfig().augment_pair(), traj,
                                np.random.default_rng(0))
print(f"weak view (gaussian) moved  {np.abs(weak.states - traj.states).mean():.3f}")
print(f"strong view (double entropy) nonnegative: {bool(np.all(strong.states >= 0))}")
