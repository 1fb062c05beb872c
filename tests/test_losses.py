"""Loss components: pinned formula values, gradients vs finite differences."""

import math

import numpy as np
import pytest

from ssrs.augment import AugmentSpec
from ssrs.core import Batch, RewardSet
from ssrs.estimator import EstimatorParams, MlpNet, confidence_batch
from ssrs.losses import (
    consistency_views,
    finite_diff_gradient,
    loss_qv,
    loss_r,
    loss_s,
    sgd_step,
    total_loss,
)

ZSET = RewardSet(values=np.array([1.0, 2.0, 4.0]), observed=(1.0, 4.0))
PAIRING = (AugmentSpec("gaussian", {"sigma": 0.1}),
           AugmentSpec("double_entropy", {"n": 2}))


class _FixedNet:
    """Duck-typed head that replays pre-set output rows, one per forward call
    (the last entry repeats).  Carries no parameters: an empty ``flat`` and
    no layers, and backing it by a slice of a parameter vector keeps it."""

    flat = np.zeros(0)
    n_params = 0

    def layer_views(self, vector):
        return (), ()

    def __init__(self, *outputs):
        self._outputs = [np.atleast_2d(np.asarray(o, dtype=np.float64))
                         for o in outputs]
        self._calls = 0

    def backed_by(self, flat):
        return self

    def forward(self, x, train=False, rng=None):
        out = self._outputs[min(self._calls, len(self._outputs) - 1)]
        self._calls += 1
        n = np.atleast_2d(np.asarray(x)).shape[0]
        if out.shape[0] == 1:
            out = np.broadcast_to(out, (n, out.shape[1]))
        return out.copy(), {}

    def backward(self, cache, grad_out):
        return [], []


def _loss_s(params, batch, *args, augment_seed=0, **kwargs):
    """loss_s on the views ``consistency_views`` makes of the batch."""
    return loss_s(params, batch, consistency_views(batch, PAIRING, augment_seed),
                  *args, **kwargs)


def _scripted(q_outputs, v_output=(1 / 3, 1 / 3, 1 / 3)):
    return EstimatorParams(q_net=_FixedNet(*q_outputs),
                           v_net=_FixedNet(v_output))


def _batch(rewards, m1=3, m2=2, seed=0, originals=None):
    rewards = np.asarray(rewards, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = rewards.size
    return Batch.from_arrays(
        rng.uniform(0.1, 1.0, size=(n, m1)),
        np.eye(m2)[rng.integers(0, m2, size=n)],
        rewards,
        rng.uniform(0.1, 1.0, size=(n, m1)),
        originals=originals,
    )


def _small_params(seed, m1=4, m2=2, n_z=3, hidden=(6,)):
    return EstimatorParams.create(m1, m2, n_z, np.random.default_rng(seed),
                                  hidden=hidden, dropout=0.0)


# ---------------------------------------------------------------------------
# supervised reward fit
# ---------------------------------------------------------------------------

class TestLossR:
    def test_exact_fit_is_zero(self):
        params = _scripted([[0.2, 0.3, 0.5]])
        value, grad, _ = loss_r(params, _batch([4.0]), ZSET, threshold=0.4,
                                mix=1.0)
        assert value == 0.0
        assert grad is None

    def test_squared_error_mean(self):
        # peak 0.5 at the last candidate selects z = 4 for every row
        params = _scripted([[0.2, 0.3, 0.5]])
        value, _, _ = loss_r(params, _batch([3.0, 1.0]), ZSET, threshold=0.4,
                             mix=1.0)
        assert value == pytest.approx((1.0 + 9.0) / 2, abs=1e-12)

    def test_selection_strict_but_gate_inclusive(self):
        # peak == threshold: no candidate is selected (strict), yet the
        # indicator still counts the sample (inclusive), so r is compared to 0
        params = _scripted([[0.2, 0.3, 0.5]])
        value, _, _ = loss_r(params, _batch([3.0]), ZSET, threshold=0.5, mix=1.0)
        assert value == pytest.approx(9.0, abs=1e-12)

    def test_gate_off_below_threshold(self):
        params = _scripted([[0.2, 0.3, 0.5]])
        value, _, _ = loss_r(params, _batch([3.0]), ZSET, threshold=0.6, mix=1.0)
        assert value == 0.0

    def test_rejects_zero_reward_rows(self):
        params = _small_params(0)
        with pytest.raises(ValueError):
            loss_r(params, _batch([2.0, 0.0], m1=4), ZSET, 0.5, 0.5)

    def test_hard_value_matches_manual_selection(self):
        params = _small_params(1)
        batch = _batch([1.0, 2.0, 4.0, 2.0, 1.0], m1=4, seed=3)
        thr, mix = 0.36, 0.6
        value, _, _ = loss_r(params, batch, ZSET, thr, mix)
        q, *_ = confidence_batch(params, batch.states, batch.actions,
                                 batch.next_states, mix)
        acc = 0.0
        for row, r in zip(q, batch.originals):
            sel = ZSET.values[int(row.argmax())] if row.max() > thr else 0.0
            acc += (row.max() >= thr) * (r - sel) ** 2
        assert value == pytest.approx(acc / len(batch), abs=1e-12)

    def test_smooth_value_scalar_recomputation(self):
        params = _scripted([[0.2, 0.3, 0.5]])
        value, grad, _ = loss_r(params, _batch([3.0]), ZSET, threshold=0.4,
                                mix=1.0, sharpness=2.0, temperature=0.5,
                                mode="smooth")
        gate = 1.0 / (1.0 + math.exp(-2.0 * (0.5 - 0.4)))
        e = [math.exp(v / 0.5) for v in (0.2, 0.3, 0.5)]
        w = [v / sum(e) for v in e]
        soft = sum(wi * zi for wi, zi in zip(w, (1.0, 2.0, 4.0)))
        assert value == pytest.approx(gate * (3.0 - soft) ** 2, abs=1e-12)
        assert isinstance(grad, np.ndarray)
        assert grad.shape == (params.n_params,)

    def test_smooth_gradient_matches_finite_differences(self):
        for seed in (0, 1, 2):
            params = _small_params(seed)
            batch = _batch([1.0, 4.0, 2.0], m1=4, seed=seed + 10)

            def f(p):
                return loss_r(p, batch, ZSET, 0.34, 0.5, sharpness=3.0,
                              temperature=0.5, mode="smooth")[0]

            _, grad, _ = loss_r(params, batch, ZSET, 0.34, 0.5, sharpness=3.0,
                                temperature=0.5, mode="smooth")
            fd = finite_diff_gradient(f, params)
            rel = np.abs(grad - fd) / (np.abs(fd) + 1e-8)
            assert rel.max() < 1e-4


# ---------------------------------------------------------------------------
# head ordering hinge
# ---------------------------------------------------------------------------

class TestLossQv:
    def test_componentwise_hinge_mean(self):
        # two rows, one candidate: deltas +1 and -1 hinge to 1 and 0
        params = EstimatorParams(q_net=_FixedNet([[1.0], [0.0]]),
                                 v_net=_FixedNet([[0.0], [1.0]]))
        zero_grid = _batch([5.0, 5.0], m1=3)
        value, grad, _ = loss_qv(params, zero_grid)
        assert value == pytest.approx(0.5, abs=1e-12)
        assert isinstance(grad, np.ndarray)
        assert grad.shape == (params.n_params,)

    def test_ordered_heads_cost_nothing(self):
        params = EstimatorParams(q_net=_FixedNet([[0.1, 0.2, 0.3]]),
                                 v_net=_FixedNet([[0.2, 0.3, 0.4]]))
        value, _, _ = loss_qv(params, _batch([1.0, 2.0]))
        assert value == 0.0

    def test_compares_heads_on_current_state(self):
        params = _small_params(2)
        batch = _batch([1.0, 2.0, 4.0], m1=4, seed=5)
        value, _, _ = loss_qv(params, batch)
        q_out, _ = params.q_net.forward(
            np.concatenate([batch.states, batch.actions], axis=1))
        v_out, _ = params.v_net.forward(batch.states)
        manual = (np.maximum(q_out - v_out, 0.0) ** 2).sum() / len(batch)
        assert value == pytest.approx(manual, abs=1e-12)

    def test_hard_mode_same_value_without_gradient(self):
        params = _small_params(3)
        batch = _batch([1.0, 2.0, 4.0], m1=4, seed=5)
        smooth, grad, gates = loss_qv(params, batch)
        hard, no_grad, hard_gates = loss_qv(params, batch, mode="hard")
        assert grad is not None and no_grad is None
        assert (hard, hard_gates) == (smooth, gates)

    def test_gradient_matches_finite_differences(self):
        for seed in (0, 3):
            params = _small_params(seed)
            batch = _batch([2.0, 1.0, 4.0, 2.0], m1=4, seed=seed)

            def f(p):
                return loss_qv(p, batch)[0]

            _, grad, _ = loss_qv(params, batch)
            fd = finite_diff_gradient(f, params)
            rel = np.abs(grad - fd) / (np.abs(fd) + 1e-8)
            assert rel.max() < 1e-4


# ---------------------------------------------------------------------------
# weak/strong consistency
# ---------------------------------------------------------------------------

class TestLossS:
    def test_cross_entropy_at_pseudo_label(self):
        # weak view calls the first scripted row, strong view the second
        params = _scripted([[0.7, 0.2, 0.1], [0.91, 0.05, 0.04]])
        value, grad, _ = _loss_s(params, _batch([0.0]), ZSET,
                                threshold=0.5, mix=1.0)
        assert value == pytest.approx(-math.log(0.91), abs=1e-12)
        assert grad is None

    def test_strong_gate_off(self):
        params = _scripted([[0.7, 0.2, 0.1], [0.45, 0.30, 0.25]])
        value, _, _ = _loss_s(params, _batch([0.0]), ZSET, 0.5, 1.0)
        assert value == 0.0

    def test_weak_gate_off(self):
        params = _scripted([[0.45, 0.30, 0.25], [0.91, 0.05, 0.04]])
        value, _, _ = _loss_s(params, _batch([0.0]), ZSET, 0.5, 1.0)
        assert value == 0.0

    def test_gates_inclusive_at_threshold(self):
        params = _scripted([[0.5, 0.3, 0.2], [0.5, 0.25, 0.25]])
        value, _, _ = _loss_s(params, _batch([0.0]), ZSET, 0.5, 1.0)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_rejects_nonzero_rows(self):
        params = _small_params(0)
        with pytest.raises(ValueError):
            _loss_s(params, _batch([0.0, 1.0], m1=4), ZSET, 0.5, 0.5)

    def test_rejects_grid_size_mismatch(self):
        params = _small_params(0)  # 3 candidate outputs
        wrong = RewardSet(values=np.array([1.0, 2.0]), observed=(1.0, 2.0))
        with pytest.raises(ValueError):
            _loss_s(params, _batch([0.0], m1=4), wrong, 0.5, 0.5)

    def test_rejects_views_of_another_batch(self):
        params = _small_params(0)
        batch = _batch([0.0, 0.0], m1=4)
        views = consistency_views(_batch([0.0], m1=4), PAIRING, 0)
        with pytest.raises(ValueError, match="views"):
            loss_s(params, batch, views, ZSET, 0.5, 0.5)

    def test_view_seed_reproducible(self):
        # smooth mode: the weak-view gate varies continuously with the noise,
        # so distinct augment seeds are visible in the value
        params = _small_params(4)
        batch = _batch([0.0, 0.0, 0.0], m1=4, seed=8)

        def run(seed):
            return _loss_s(params, batch, ZSET, 0.2, 0.5, mode="smooth",
                           augment_seed=seed)[0]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_smooth_gradient_matches_finite_differences(self):
        for seed in (0, 1):
            params = _small_params(seed)
            batch = _batch([0.0, 0.0, 0.0, 0.0], m1=4, seed=seed + 20)

            def f(p):
                return _loss_s(p, batch, ZSET, 0.34, 0.5, sharpness=3.0,
                               mode="smooth", augment_seed=1)[0]

            _, grad, _ = _loss_s(params, batch, ZSET, 0.34, 0.5, sharpness=3.0,
                                 mode="smooth", augment_seed=1)
            fd = finite_diff_gradient(f, params)
            rel = np.abs(grad - fd) / (np.abs(fd) + 1e-8)
            assert rel.max() < 1e-4


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------

class TestTotalLoss:
    def test_partition_and_weighting(self):
        params = _small_params(5)
        batch = _batch([2.0, 0.0, 4.0, 0.0, 0.0, 1.0], m1=4, seed=9)
        weight = 0.7
        breakdown, grad = total_loss(params, batch, weight, ZSET, 0.34, 0.5,
                                     views=consistency_views(batch, PAIRING, 3))
        assert grad is None
        assert abs(breakdown.total - (breakdown.l_qv + weight * breakdown.l_s
                                      + (1.0 - weight) * breakdown.l_r)) < 1e-15

        nz = batch.originals != 0.0
        l_r, _, _ = loss_r(params, batch.subset(nz), ZSET, 0.34, 0.5)
        l_qv, _, _ = loss_qv(params, batch.subset(nz))
        l_s, _, _ = _loss_s(params, batch.subset(~nz), ZSET, 0.34, 0.5,
                            augment_seed=3)
        assert breakdown.l_r == pytest.approx(l_r, abs=1e-12)
        assert breakdown.l_qv == pytest.approx(l_qv, abs=1e-12)
        assert breakdown.l_s == pytest.approx(l_s, abs=1e-12)
        assert breakdown.total == pytest.approx(
            l_qv + weight * l_s + (1 - weight) * l_r, abs=1e-12)

    def test_all_zero_batch_drops_supervised_terms(self):
        params = _small_params(6)
        batch = _batch([0.0, 0.0], m1=4)
        breakdown, _ = total_loss(params, batch, 0.5, ZSET, 0.2, 0.5,
                                  views=consistency_views(batch, PAIRING, 0))
        assert breakdown.l_r == 0.0
        assert breakdown.l_qv == 0.0

    def test_all_nonzero_batch_drops_consistency(self):
        params = _small_params(6)
        batch = _batch([1.0, 2.0], m1=4)
        breakdown, _ = total_loss(params, batch, 0.5, ZSET, 0.2, 0.5,
                                  views=consistency_views(batch, PAIRING, 0))
        assert breakdown.l_s == 0.0
        assert breakdown.gate_pass["l_s"] == 0

    def test_smooth_gradient_matches_finite_differences(self):
        params = _small_params(7)
        batch = _batch([2.0, 0.0, 1.0, 0.0], m1=4, seed=11)
        views = consistency_views(batch, PAIRING, 2)

        def f(p):
            return total_loss(p, batch, 0.6, ZSET, 0.34, 0.5, sharpness=3.0,
                              temperature=0.5, views=views,
                              mode="smooth")[0].total

        _, grad = total_loss(params, batch, 0.6, ZSET, 0.34, 0.5,
                             sharpness=3.0, temperature=0.5, views=views,
                             mode="smooth")
        fd = finite_diff_gradient(f, params)
        rel = np.abs(grad - fd) / (np.abs(fd) + 1e-8)
        assert rel.max() < 1e-4

    def test_hard_mode_runs_no_backward_pass(self, monkeypatch):
        params = _small_params(5)
        batch = _batch([2.0, 0.0, 4.0, 0.0, 0.0, 1.0], m1=4, seed=9)
        views = consistency_views(batch, PAIRING, 3)
        calls = []
        backward = MlpNet.backward

        def counting(net, cache, grad_out):
            calls.append(len(cache["out"]))
            return backward(net, cache, grad_out)

        monkeypatch.setattr(MlpNet, "backward", counting)
        breakdown, grad = total_loss(params, batch, 0.7, ZSET, 0.34, 0.5,
                                     views=views, mode="hard")
        assert grad is None and breakdown.gate_pass["l_qv"] >= 0
        assert calls == []
        total_loss(params, batch, 0.7, ZSET, 0.34, 0.5, views=views,
                   mode="smooth")
        assert calls  # the smooth pass still backpropagates

    def test_dropout_evaluation_reproducible(self):
        params = EstimatorParams.create(4, 2, 3, np.random.default_rng(8),
                                        hidden=(6,), dropout=0.3)
        batch = _batch([2.0, 0.0, 1.0], m1=4, seed=12)
        runs = [total_loss(params, batch, 0.5, ZSET, 0.2, 0.5,
                           views=consistency_views(batch, PAIRING, 0),
                           mode="smooth",
                           dropout_rng=np.random.default_rng(9))[0].total
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestNonFiniteGradient:
    """A smooth ``total_loss`` names each term whose gradient is not finite."""

    @staticmethod
    def _smooth_total(value, rewards):
        params = _small_params(5)
        params.flat[:] = value
        batch = _batch(rewards, m1=4, seed=6)
        with np.errstate(invalid="ignore", over="ignore"):
            return total_loss(params, batch, 0.5, ZSET, 0.34, 0.5,
                              views=consistency_views(batch, PAIRING, 0),
                              mode="smooth")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonzero_batch_names_l_r_and_l_qv(self, value):
        with pytest.raises(ValueError) as err:
            self._smooth_total(value, [1.0, 2.0, 4.0])
        message = str(err.value)
        assert "l_r" in message and "l_qv" in message
        assert "l_s" not in message

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_zero_batch_names_l_s(self, value):
        with pytest.raises(ValueError) as err:
            self._smooth_total(value, [0.0, 0.0, 0.0])
        message = str(err.value)
        assert "l_s" in message
        assert "l_r" not in message and "l_qv" not in message

    def test_finite_parameters_pass(self):
        _, grad = self._smooth_total(0.01, [1.0, 0.0, 2.0])
        assert np.all(np.isfinite(grad))


# ---------------------------------------------------------------------------
# optimization helpers
# ---------------------------------------------------------------------------

class TestSgdStep:
    def test_basic_arithmetic(self):
        params = _small_params(0, hidden=())
        params.flat[:] = 1.0
        out = sgd_step(params, 2.0 * np.ones(params.n_params), 0.1)
        assert out is params
        np.testing.assert_allclose(params.flat,
                                   0.8 * np.ones(params.n_params), atol=1e-15)

    def test_two_steps_compose_linearly(self):
        params = _small_params(1, hidden=())
        start = params.flat.copy()
        g = np.arange(params.n_params, dtype=np.float64)
        sgd_step(params, g, 0.05)
        sgd_step(params, g, 0.05)
        np.testing.assert_allclose(params.flat, start - 0.1 * g,
                                   atol=1e-12)

    def test_rejects_bad_gradients(self):
        params = _small_params(2, hidden=())
        bad = np.zeros(params.n_params)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            sgd_step(params, bad, 0.1)
        with pytest.raises(ValueError):
            sgd_step(params, np.zeros(3), 0.1)


class TestFiniteDiff:
    def test_quadratic_is_exact(self):
        params = _small_params(3, m1=2, m2=1, n_z=2, hidden=())
        theta = params.flat.copy()

        grad = finite_diff_gradient(lambda p: float((p.flat ** 2).sum()),
                                    params)
        np.testing.assert_allclose(grad, 2.0 * theta, atol=1e-8)
        # parameters restored afterward
        np.testing.assert_array_equal(params.flat, theta)

    def test_constant_loss_has_zero_gradient(self):
        params = _small_params(4, m1=2, m2=1, n_z=2, hidden=())
        grad = finite_diff_gradient(lambda p: 7.5, params)
        np.testing.assert_array_equal(grad, np.zeros(params.n_params))
