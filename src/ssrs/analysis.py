"""Post-hoc analysis: mixture clustering, consensus, reward histograms.

The Gaussian mixture here is a compact diagonal-covariance EM used to
cluster transition or trajectory features; the consensus matrix reports how
often pairs of items land in the same component across independently seeded
fits.  The buffer analyses read a ``core.Batch`` of stored entries, oldest
first: the entries of a checkpoint as ``core.load_buffer`` returns them, or
``buffer.batch_arrays(buffer.slots())`` of a live buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GmmModel",
    "gmm_fit",
    "gmm_predict",
    "consensus",
    "trajectory_consensus",
    "buffer_features",
    "reward_distribution",
    "best_score_series",
]

_VAR_FLOOR = 1e-6
# EM's iteration cap, and the log-likelihood gain below which it stops.
_MAX_ITER = 200
_TOL = 1e-8


@dataclass
class GmmModel:
    """Diagonal-covariance Gaussian mixture.

    weights   (k,) mixing proportions, positive, summing to 1
    means     (k, d) component means
    variances (k, d) per-dimension variances, floored at 1e-6
    loglik    per-iteration log-likelihood trace (nondecreasing)
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    loglik: np.ndarray


def _log_gaussian_rows(points, means, variances):
    """log N(x | mu_k, diag(var_k)) for every point/component pair -> (n, k)."""
    n, d = points.shape
    k = means.shape[0]
    out = np.empty((n, k))
    for j in range(k):
        diff = points - means[j]
        out[:, j] = -0.5 * (
            d * np.log(2.0 * np.pi)
            + np.log(variances[j]).sum()
            + (diff ** 2 / variances[j]).sum(axis=1)
        )
    return out


def _init_means(points, k, rng):
    """Distance-squared-proportional seeding (k-means++ style)."""
    n = points.shape[0]
    first = int(rng.integers(n))
    means = [points[first]]
    d2 = ((points - means[0]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        means.append(points[idx])
        d2 = np.minimum(d2, ((points - means[-1]) ** 2).sum(axis=1))
    return np.stack(means)


def gmm_fit(points, k: int, seed: int) -> GmmModel:
    """Fit a diagonal-covariance mixture by EM.

    :param points: (n, d) feature rows, n >= k.
    :param k: number of components.
    :param seed: seeds the mean initialization.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, d = points.shape
    if k < 1:
        raise ValueError("need at least one component")
    if n < k:
        raise ValueError(f"{n} points cannot support {k} components")
    rng = np.random.Generator(np.random.PCG64(seed))
    means = _init_means(points, k, rng)
    variances = np.maximum(points.var(axis=0), _VAR_FLOOR)[None, :].repeat(k, axis=0)
    weights = np.full(k, 1.0 / k)

    trace = []
    for _ in range(_MAX_ITER):
        # E step
        log_joint = _log_gaussian_rows(points, means, variances) + np.log(weights)
        peak = log_joint.max(axis=1, keepdims=True)  # log-sum-exp per row
        log_norm = (peak + np.log(np.exp(log_joint - peak).sum(
            axis=1, keepdims=True))).ravel()
        trace.append(float(log_norm.sum()))
        resp = np.exp(log_joint - log_norm[:, None])
        # M step (variance floor keeps the constrained maximization stable)
        mass = resp.sum(axis=0)
        mass = np.maximum(mass, 1e-12)
        weights = mass / n
        means = (resp.T @ points) / mass[:, None]
        for j in range(k):
            diff = points - means[j]
            variances[j] = np.maximum(
                (resp[:, j][:, None] * diff ** 2).sum(axis=0) / mass[j],
                _VAR_FLOOR,
            )
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < _TOL:
            break
    return GmmModel(weights=weights, means=means, variances=variances,
                    loglik=np.array(trace))


def gmm_predict(model: GmmModel, points) -> np.ndarray:
    """Most responsible component per point."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    log_joint = (_log_gaussian_rows(points, model.means, model.variances)
                 + np.log(model.weights))
    return log_joint.argmax(axis=1)


# ---------------------------------------------------------------------------
# consensus
# ---------------------------------------------------------------------------

def _co_assignment(features, k: int, runs: int, seed: int,
                   items) -> np.ndarray:
    """Fraction of ``runs`` seeded mixture fits of ``features`` in which two
    items share a component.

    ``items`` gives each row's item index, ascending from 0 without gaps,
    and an item takes the majority component of its rows (ties pick the
    lowest label).
    """
    if runs < 1:
        raise ValueError("need at least one run")
    n = int(items.max(initial=-1)) + 1
    matrix = np.zeros((n, n))
    for child in np.random.SeedSequence(seed).spawn(runs):
        run_seed = int(child.generate_state(1)[0])
        labels = gmm_predict(gmm_fit(features, k, run_seed), features)
        votes = np.bincount(items * k + labels, minlength=n * k)
        labels = votes.reshape(n, k).argmax(axis=1)
        matrix += labels[:, None] == labels[None, :]
    return matrix / runs


def consensus(features, k: int, runs: int = 100, seed: int = 0) -> np.ndarray:
    """Co-assignment frequency matrix over repeated seeded mixture fits.

    Entry (i, j) is the fraction of runs in which items i and j landed in
    the same component; the diagonal is exactly 1 and the matrix is
    symmetric by construction.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    # each row is its own item, so its majority label is its own label
    return _co_assignment(features, k, runs, seed,
                          np.arange(features.shape[0]))


def buffer_features(batch):
    """Per-transition feature rows [state | action | stored reward] plus the
    trajectory index of each transition (episodes split at terminal flags),
    in the batch's order (oldest first)."""
    if len(batch) == 0:
        raise ValueError("buffer holds no transitions")
    features = np.hstack([batch.states, batch.actions, batch.rewards[:, None]])
    traj_ids = np.cumsum(batch.terminals) - batch.terminals
    return features, traj_ids


def trajectory_consensus(batch, k: int, runs: int = 100, seed: int = 0):
    """Consensus over the trajectories of a batch of stored entries.

    Entries are clustered per run; each trajectory takes the majority
    component of its entries (ties pick the lowest label), and the
    co-assignment matrix is accumulated over trajectories.  Returns
    (matrix, trajectory count).
    """
    features, traj_ids = buffer_features(batch)
    matrix = _co_assignment(features, k, runs, seed, traj_ids)
    return matrix, matrix.shape[0]


# ---------------------------------------------------------------------------
# reward distribution
# ---------------------------------------------------------------------------

def reward_distribution(snapshots: dict, bins: int = 20):
    """Normalized histograms of stored rewards across buffer snapshots.

    ``snapshots`` maps an epoch label to a Batch of stored entries.
    Rewards are transformed to signed-log scale (ln(1 + |r|) * sign(r)); bin
    edges are shared across snapshots so rows are comparable.  Returns
    (edges, rows) where rows are (epoch, bin_left, bin_right, probability)
    tuples and each epoch's probabilities sum to 1.
    """
    if not snapshots:
        raise ValueError("need at least one snapshot")
    transformed = {}
    for epoch, batch in snapshots.items():
        if len(batch) == 0:
            raise ValueError(f"snapshot {epoch!r} holds no entries")
        r = batch.rewards
        transformed[epoch] = np.log1p(np.abs(r)) * np.sign(r)
    merged = np.concatenate(list(transformed.values()))
    lo, hi = merged.min(), merged.max()
    if lo == hi:
        edges = np.array([lo - 0.5, hi + 0.5])
    else:
        edges = np.linspace(lo, hi, bins + 1)
    rows = []
    for epoch in snapshots:
        counts, _ = np.histogram(transformed[epoch], bins=edges)
        probs = counts / counts.sum()
        for b in range(edges.size - 1):
            rows.append((epoch, float(edges[b]), float(edges[b + 1]),
                         float(probs[b])))
    return edges, rows


# ---------------------------------------------------------------------------
# score curves
# ---------------------------------------------------------------------------

def best_score_series(records):
    """Mean and population std of best-so-far scores across runs.

    All records must share the same episode grid.  Returns (episodes, mean,
    std).
    """
    if not records:
        raise ValueError("need at least one run record")
    grids = [np.asarray(r.episodes) for r in records]
    for grid in grids[1:]:
        if grid.shape != grids[0].shape or np.any(grid != grids[0]):
            raise ValueError("run records cover different episode grids")
    stacked = np.stack([np.asarray(r.best, dtype=np.float64) for r in records])
    return grids[0].copy(), stacked.mean(axis=0), stacked.std(axis=0)
