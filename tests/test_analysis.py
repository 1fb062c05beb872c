"""Mixture fitting, consensus matrices, reward histograms, score curves."""

from types import SimpleNamespace

import numpy as np
import pytest

from ssrs.analysis import (
    best_score_series,
    buffer_features,
    consensus,
    gmm_fit,
    gmm_predict,
    reward_distribution,
    trajectory_consensus,
)
from ssrs.core import ReplayBuffer


def _two_clouds(n_per=30, d=2, gap=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.5, size=(n_per, d))
    b = rng.normal(gap, 0.5, size=(n_per, d))
    return np.vstack([a, b])


def _push_episode(buf, anchor, length=4, reward=1.0, m1=3, m2=2):
    rng = np.random.default_rng(int(anchor * 1000) % 2**31)

    def jittered():
        return np.maximum(np.full(m1, anchor) + 0.01 * rng.normal(size=m1), 0.0)

    for t in range(length):
        buf.push(jittered(), np.eye(m2)[t % m2],
                 reward if t == length - 1 else 0.0, jittered(),
                 t == length - 1)


class TestGmmFit:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(1)
        points = rng.normal(2.0, 1.5, size=(200, 3))
        model = gmm_fit(points, k=1, seed=0)
        np.testing.assert_allclose(model.weights, [1.0], atol=1e-12)
        np.testing.assert_allclose(model.means[0], points.mean(axis=0),
                                   atol=1e-9)
        np.testing.assert_allclose(model.variances[0],
                                   np.maximum(points.var(axis=0), 1e-6),
                                   atol=1e-9)

    def test_variance_floor(self):
        points = np.ones((10, 2))  # degenerate cloud
        model = gmm_fit(points, k=1, seed=0)
        np.testing.assert_allclose(model.variances, 1e-6 * np.ones((1, 2)),
                                   atol=1e-18)

    def test_loglik_nondecreasing(self):
        points = _two_clouds(seed=2)
        model = gmm_fit(points, k=2, seed=3)
        diffs = np.diff(model.loglik)
        assert np.all(diffs >= -1e-9)

    def test_two_clouds_recovered(self):
        points = _two_clouds(seed=4)
        model = gmm_fit(points, k=2, seed=5)
        labels = gmm_predict(model, points)
        first, second = labels[:30], labels[30:]
        # perfect purity: each half uniform, halves distinct
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_deterministic_per_seed(self):
        points = _two_clouds(seed=6)
        a = gmm_fit(points, k=2, seed=9)
        b = gmm_fit(points, k=2, seed=9)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.loglik, b.loglik)

    def test_weights_form_distribution(self):
        points = _two_clouds(seed=7)
        model = gmm_fit(points, k=3, seed=1)
        assert np.all(model.weights > 0)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_input_validation(self):
        points = np.zeros((3, 2))
        with pytest.raises(ValueError):
            gmm_fit(points, k=0, seed=0)
        with pytest.raises(ValueError):
            gmm_fit(points, k=4, seed=0)

    def test_predict_assigns_nearest_component(self):
        model = gmm_fit(_two_clouds(seed=8), k=2, seed=2)
        near_a = gmm_predict(model, [[0.1, -0.1]])[0]
        near_b = gmm_predict(model, [[10.2, 9.9]])[0]
        assert near_a != near_b


class TestConsensus:
    def test_identical_features_always_agree(self):
        features = np.vstack([np.zeros((4, 2)), np.full((4, 2), 8.0)])
        matrix = consensus(features, k=2, runs=20, seed=0)
        block = matrix[:4, :4]
        np.testing.assert_allclose(block, np.ones((4, 4)), atol=1e-12)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(12, 3))
        matrix = consensus(features, k=3, runs=10, seed=1)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(matrix), np.ones(12), atol=1e-12)
        assert np.all((matrix >= 0.0) & (matrix <= 1.0))

    def test_separated_clouds_have_clean_blocks(self):
        features = _two_clouds(n_per=10, seed=10)
        matrix = consensus(features, k=2, runs=25, seed=4)
        within = (matrix[:10, :10].mean() + matrix[10:, 10:].mean()) / 2
        between = matrix[:10, 10:].mean()
        assert within - between > 0.5

    def test_requires_runs(self):
        with pytest.raises(ValueError):
            consensus(np.zeros((4, 2)), k=2, runs=0)


class TestBufferFeatures:
    def test_layout_and_trajectory_ids(self):
        buf = ReplayBuffer(64, 3, 2)
        _push_episode(buf, anchor=0.0, length=3)
        _push_episode(buf, anchor=5.0, length=2)
        features, traj_ids = buffer_features(buf)
        assert features.shape == (5, 3 + 2 + 1)
        np.testing.assert_array_equal(traj_ids, [0, 0, 0, 1, 1])
        # last column is the stored reward
        np.testing.assert_array_equal(features[:, -1], [0, 0, 1, 0, 1])

    def test_trajectory_consensus_blocks(self):
        buf = ReplayBuffer(256, 3, 2)
        for anchor in (0.0, 0.1, 7.0, 7.1):
            _push_episode(buf, anchor=anchor, length=4)
        matrix, n_traj = trajectory_consensus(buf, k=2, runs=15, seed=0)
        assert n_traj == 4
        assert matrix.shape == (4, 4)
        np.testing.assert_allclose(np.diag(matrix), np.ones(4), atol=1e-12)
        assert matrix[0, 1] > matrix[0, 2]

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            trajectory_consensus(ReplayBuffer(8, 3, 2), k=2, runs=2)

    def test_requires_runs(self):
        buf = ReplayBuffer(16, 3, 2)
        _push_episode(buf, anchor=0.0, length=3)
        with pytest.raises(ValueError, match="at least one run"):
            trajectory_consensus(buf, k=2, runs=0)


class TestRewardDistribution:
    def test_probabilities_sum_to_one(self):
        buf = ReplayBuffer(64, 3, 2)
        _push_episode(buf, anchor=1.0, length=6, reward=3.0)
        other = ReplayBuffer(64, 3, 2)
        _push_episode(other, anchor=2.0, length=5, reward=-2.0)
        edges, rows = reward_distribution({"a": buf, "b": other}, bins=8)
        assert edges.size == 9
        for epoch in ("a", "b"):
            total = sum(p for e, *_, p in rows if e == epoch)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_signed_log_bin_support(self):
        buf = ReplayBuffer(16, 3, 2)
        _push_episode(buf, anchor=0.5, length=2, reward=np.e - 1.0)
        edges, rows = reward_distribution({"only": buf}, bins=4)
        # transformed rewards are 0 and ln(e) = 1
        assert edges[0] == pytest.approx(0.0, abs=1e-12)
        assert edges[-1] == pytest.approx(1.0, abs=1e-12)

    def test_all_equal_rewards_single_bin(self):
        buf = ReplayBuffer(16, 2, 1)
        for _ in range(4):
            buf.push(np.ones(2), np.ones(1), 0.0, np.ones(2), False)
        edges, rows = reward_distribution({"flat": buf}, bins=10)
        np.testing.assert_allclose(edges, [-0.5, 0.5], atol=1e-12)
        assert rows == [("flat", -0.5, 0.5, 1.0)]

    def test_shared_edges_across_snapshots(self):
        small = ReplayBuffer(16, 3, 2)
        _push_episode(small, anchor=0.2, length=3, reward=1.0)
        large = ReplayBuffer(16, 3, 2)
        _push_episode(large, anchor=0.3, length=3, reward=50.0)
        edges, rows = reward_distribution({"s": small, "l": large}, bins=6)
        lefts_s = [l for e, l, _, _ in rows if e == "s"]
        lefts_l = [l for e, l, _, _ in rows if e == "l"]
        assert lefts_s == lefts_l

    def test_validation(self):
        with pytest.raises(ValueError):
            reward_distribution({})
        with pytest.raises(ValueError):
            reward_distribution({"empty": ReplayBuffer(4, 3, 2)})


class TestBestScoreSeries:
    def test_mean_and_population_std(self):
        grid = np.arange(1, 5)
        records = [SimpleNamespace(episodes=grid, best=np.array([1.0, 1, 3, 3])),
                   SimpleNamespace(episodes=grid, best=np.array([3.0, 3, 3, 5]))]
        episodes, mean, std = best_score_series(records)
        np.testing.assert_array_equal(episodes, grid)
        np.testing.assert_allclose(mean, [2.0, 2.0, 3.0, 4.0], atol=1e-15)
        np.testing.assert_allclose(std, [1.0, 1.0, 0.0, 1.0], atol=1e-15)

    def test_single_record_zero_std(self):
        records = [SimpleNamespace(episodes=np.array([1, 2]),
                                   best=np.array([0.5, 0.7]))]
        _, mean, std = best_score_series(records)
        np.testing.assert_allclose(mean, [0.5, 0.7])
        np.testing.assert_array_equal(std, [0.0, 0.0])

    def test_grid_mismatch_rejected(self):
        records = [SimpleNamespace(episodes=np.array([1, 2]),
                                   best=np.array([0.0, 1.0])),
                   SimpleNamespace(episodes=np.array([1, 3]),
                                   best=np.array([0.0, 1.0]))]
        with pytest.raises(ValueError):
            best_score_series(records)
        with pytest.raises(ValueError):
            best_score_series([])
