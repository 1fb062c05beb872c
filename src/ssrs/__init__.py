"""Semi-supervised reward shaping for sparse-reward reinforcement learning.

The package is organized around a small set of numpy-based building blocks:

- ``core``      shared containers: trajectory stacks, the reward candidate
                set, replay batches, and a ring replay buffer with binary
                checkpoints
- ``config``    the run configuration: each key's default and parser in one
                field, strict text parsing and serialization
- ``augment``   weak/strong trajectory transforms, including the
                entropy-weighted state transform used as the strong view
- ``estimator`` two softmax-headed MLPs producing a confidence vector over
                reward candidates, plus selection and buffer-shaping helpers
- ``losses``    supervised, consistency, and head-ordering losses with
                manual backprop and smoothed surrogates
- ``schedules`` threshold / mixing / shaping-rate schedules
- ``envs``      small deterministic sparse-reward environments
- ``training``  tabular Q-learning backbone coupled to the estimator
- ``analysis``  GMM clustering, consensus matrices, reward histograms
- ``cli``       command-line entry points (``ssrs train`` etc.)
"""

__version__ = "0.1.0"
