"""Estimator heads, confidence vectors, selection rules, buffer shaping."""

import math

import numpy as np
import pytest

from ssrs.core import ReplayBuffer, RewardSet, format_cell, update_reward_set
from ssrs.estimator import (
    ConfidenceCache,
    EstimatorParams,
    MlpNet,
    confidence_batch,
    load_params,
    pseudo_label,
    save_params,
    select,
    shape_buffer,
    soft_select,
)
from ssrs.losses import sgd_step


def _bias_net(in_width, probs):
    """Zero-weight net whose softmax output is the given distribution."""
    probs = np.asarray(probs, dtype=np.float64)
    logits = np.log(probs / probs.min())  # nonneg, survives the output relu
    net = MlpNet([in_width, probs.size], dropout=0.0)
    net.biases[0][...] = logits
    return net


def _fixed_params(m1=3, m2=2, q_probs=(1 / 6, 2 / 6, 3 / 6),
                  v_probs=(4 / 6, 1 / 6, 1 / 6)):
    return EstimatorParams(q_net=_bias_net(m1 + m2, q_probs),
                           v_net=_bias_net(m1, v_probs))


# ---------------------------------------------------------------------------
# network mechanics
# ---------------------------------------------------------------------------

class TestMlpNet:
    def test_output_is_distribution(self):
        rng = np.random.default_rng(0)
        net = MlpNet.create([5, 8, 4], rng, dropout=0.0)
        x = rng.normal(size=(7, 5))
        out, _ = net.forward(x)
        assert out.shape == (7, 4)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(7), atol=1e-12)

    def test_bias_net_exact_output(self):
        net = _bias_net(4, [0.1, 0.2, 0.3, 0.4])
        out, _ = net.forward(np.array([[9.0, 9.0, 9.0, 9.0]]))
        np.testing.assert_allclose(out, [[0.1, 0.2, 0.3, 0.4]], atol=1e-12)

    def test_dropout_runs_exactly_when_a_generator_is_passed(self):
        x = np.ones((2, 4))
        net = MlpNet.create([4, 6, 3], np.random.default_rng(2), dropout=0.2)
        out, cache = net.forward(x)
        assert cache["masks"] == [None, None]
        assert out.tobytes() == net.forward(x)[0].tobytes()
        _, cache = net.forward(x, np.random.default_rng(0))
        assert cache["masks"][0] is not None
        # a dropout-free net draws nothing from the generator it is passed
        net0 = MlpNet.create([4, 6, 3], np.random.default_rng(2), dropout=0.0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert net0.forward(x, rng)[1]["masks"] == [None, None]
        assert rng.bit_generator.state == state

    def test_inverted_dropout_scaling(self):
        rng = np.random.default_rng(3)
        net = MlpNet.create([6, 40, 3], rng, dropout=0.5)
        x = rng.uniform(0.5, 1.5, size=(1, 6))
        _, eval_cache = net.forward(x)
        _, train_cache = net.forward(x, np.random.default_rng(0))
        h_eval = eval_cache["inputs"][1]
        h_train = train_cache["inputs"][1]
        # each unit is dropped to 0 or scaled by 1/keep = 2
        dropped = h_train == 0.0
        kept = ~dropped & (h_eval != 0.0)
        assert dropped.any() and kept.any()
        np.testing.assert_allclose(h_train[kept], 2.0 * h_eval[kept], rtol=1e-12)

    def test_dropout_probability_validated(self):
        with pytest.raises(ValueError):
            MlpNet([3, 2], dropout=1.0)
        with pytest.raises(ValueError):
            MlpNet([3, 2], dropout=-0.1)
        with pytest.raises(ValueError):
            MlpNet([3])

    def test_create_deterministic(self):
        a = MlpNet.create([4, 5, 2], np.random.default_rng(7))
        b = MlpNet.create([4, 5, 2], np.random.default_rng(7))
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_flatten_roundtrip(self):
        rng = np.random.default_rng(4)
        net = MlpNet.create([3, 5, 2], rng)
        assert net.n_params == (5 * 3 + 5) + (2 * 5 + 2)
        flat = net.flat.copy()
        other = MlpNet([3, 5, 2], flat=flat)
        assert other.flat is flat
        np.testing.assert_array_equal(other.weights[1], net.weights[1])
        with pytest.raises(ValueError):
            MlpNet([3, 5, 2], flat=flat[:-1])
        with pytest.raises(ValueError):
            MlpNet([3, 5, 2], flat=flat.astype(np.float32))

    def test_copy_is_independent(self):
        net = MlpNet.create([3, 4, 2], np.random.default_rng(5))
        dup = net.copy()
        dup.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != dup.weights[0][0, 0]

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        net = MlpNet.create([4, 6, 3], rng, dropout=0.0)
        x = rng.normal(size=(5, 4))
        coef = rng.normal(size=(5, 3))
        out, cache = net.forward(x)
        grads_w, grads_b = net.backward(cache, coef)
        analytic = MlpNet([4, 6, 3])
        for dst, g in zip(analytic.weights + analytic.biases,
                          grads_w + grads_b):
            dst[...] = g
        g_bp = analytic.flat

        flat0 = net.flat.copy()
        h = 1e-6
        probe = net.copy()
        for k in rng.choice(flat0.size, size=12, replace=False):
            bump = np.zeros_like(flat0)
            bump[k] = h
            probe.flat[:] = flat0 + bump
            up = float((probe.forward(x)[0] * coef).sum())
            probe.flat[:] = flat0 - bump
            dn = float((probe.forward(x)[0] * coef).sum())
            fd = (up - dn) / (2 * h)
            assert abs(g_bp[k] - fd) / (abs(fd) + 1e-8) < 1e-4


class TestEstimatorParams:
    def test_create_shapes(self):
        params = EstimatorParams.create(10, 4, 5, np.random.default_rng(0),
                                        hidden=(8,), dropout=0.0)
        assert params.q_net.layer_sizes == [14, 8, 5]
        assert params.v_net.layer_sizes == [10, 8, 5]

    def test_flatten_order_and_roundtrip(self):
        params = EstimatorParams.create(3, 2, 4, np.random.default_rng(1),
                                        hidden=(6,))
        flat = params.flat.copy()
        split = params.q_net.n_params
        np.testing.assert_array_equal(flat[:split], params.q_net.flat)
        np.testing.assert_array_equal(flat[split:], params.v_net.flat)
        np.testing.assert_array_equal(params.q_net.weights[0].ravel(),
                                      flat[:params.q_net.weights[0].size])
        dup = params.copy()
        dup.flat[:] = 0.0
        assert np.all(dup.q_net.weights[0] == 0.0)
        np.testing.assert_array_equal(params.flat, flat)


class TestParameterVector:
    """``EstimatorParams.flat`` is the only copy of the parameters: every
    layer array is a view into it, (W, b) per layer, q head then v head."""

    @staticmethod
    def _layer_slices(params):
        pos = 0
        for net in (params.q_net, params.v_net):
            sizes = net.layer_sizes
            for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
                yield net.weights[i], params.flat[pos:pos + n_out * n_in]
                pos += n_out * n_in
                yield net.biases[i], params.flat[pos:pos + n_out]
                pos += n_out
        assert pos == params.flat.size

    def test_layers_are_views_after_sgd_steps(self):
        rng = np.random.default_rng(21)
        params = EstimatorParams.create(5, 3, 4, rng, hidden=(7, 6))
        assert params.flat.flags.c_contiguous
        for _ in range(5):
            sgd_step(params, rng.normal(size=params.n_params),
                     float(rng.uniform(0.01, 1.0)))
            for layer, part in self._layer_slices(params):
                assert layer.tobytes() == part.tobytes()
                assert np.shares_memory(layer, params.flat)
        # and writes through a layer land in the vector
        params.v_net.biases[-1][0] = 123.0
        assert params.flat[-params.v_net.biases[-1].size] == 123.0

    def test_copy_shares_no_memory(self):
        params = EstimatorParams.create(3, 2, 4, np.random.default_rng(22),
                                        hidden=(5,))
        dup = params.copy()
        assert dup.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(dup.flat, params.flat)
        for net in (dup.q_net, dup.v_net):
            for layer in net.weights + net.biases:
                assert np.shares_memory(layer, dup.flat)
                assert not np.shares_memory(layer, params.flat)
        net_dup = params.q_net.copy()
        assert not np.shares_memory(net_dup.flat, params.flat)

    def test_rebinding_a_layer_raises(self):
        params = EstimatorParams.create(3, 2, 4, np.random.default_rng(23),
                                        hidden=(5,))
        net = params.q_net
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros_like(net.weights[0])
        with pytest.raises(TypeError):
            net.biases[1] = np.zeros_like(net.biases[1])
        with pytest.raises(AttributeError):
            net.weights = [w.copy() for w in net.weights]
        with pytest.raises(AttributeError):
            net.biases = [b.copy() for b in net.biases]

    def test_save_load_roundtrips_flat_bitwise(self, tmp_path):
        rng = np.random.default_rng(24)
        params = EstimatorParams.create(4, 2, 3, rng, hidden=(6, 5),
                                        dropout=0.1, input_scale=1 / 255)
        sgd_step(params, rng.normal(size=params.n_params), 0.3)
        path = tmp_path / "params.txt"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        for layer, part in self._layer_slices(loaded):
            assert layer.tobytes() == part.tobytes()


# ---------------------------------------------------------------------------
# confidence
# ---------------------------------------------------------------------------

def _confidence_row(params, state, action, next_state, mix):
    q, *_ = confidence_batch(params, state[None, :], action[None, :],
                             next_state[None, :], mix)
    return q[0]


class TestConfidence:
    def test_convex_combination_exact(self):
        params = _fixed_params()
        q = _confidence_row(params, np.ones(3), np.array([1.0, 0.0]),
                            np.ones(3), mix=0.5)
        np.testing.assert_allclose(q, np.array([5.0, 3.0, 4.0]) / 12, atol=1e-12)

    def test_mix_extremes(self):
        params = _fixed_params()
        s, a, ns = np.ones(3), np.array([0.0, 1.0]), np.zeros(3)
        np.testing.assert_allclose(_confidence_row(params, s, a, ns, mix=1.0),
                                   [1 / 6, 2 / 6, 3 / 6], atol=1e-12)
        np.testing.assert_allclose(_confidence_row(params, s, a, ns, mix=0.0),
                                   [4 / 6, 1 / 6, 1 / 6], atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(8)
        params = EstimatorParams.create(4, 2, 3, rng, hidden=(6,), dropout=0.0)
        states = rng.uniform(size=(5, 4))
        actions = np.eye(2)[rng.integers(0, 2, size=5)]
        nexts = rng.uniform(size=(5, 4))
        q, q_out, v_out, _, _ = confidence_batch(params, states, actions,
                                                 nexts, mix=0.3)
        np.testing.assert_allclose(q, 0.3 * q_out + 0.7 * v_out, atol=1e-15)
        for i in range(5):
            np.testing.assert_allclose(
                q[i], _confidence_row(params, states[i], actions[i], nexts[i],
                                      0.3),
                atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        params = EstimatorParams.create(3, 2, 4, rng, hidden=(5,), dropout=0.0)
        for mix in (0.0, 0.25, 0.5, 0.9, 1.0):
            q, *_ = confidence_batch(params, rng.uniform(size=(6, 3)),
                                     np.eye(2)[rng.integers(0, 2, size=6)],
                                     rng.uniform(size=(6, 3)), mix)
            np.testing.assert_allclose(q.sum(axis=1), np.ones(6), atol=1e-12)
            assert np.all(q >= 0)


# ---------------------------------------------------------------------------
# selection rules
# ---------------------------------------------------------------------------

class TestSelection:
    zset = RewardSet(values=np.array([1.0, 2.0, 4.0]), observed=(1.0, 4.0))

    def test_select_above_threshold(self):
        np.testing.assert_array_equal(
            select(np.array([[0.2, 0.5, 0.3]]), self.zset, 0.4), [2.0])

    def test_select_threshold_is_strict(self):
        np.testing.assert_array_equal(
            select(np.array([[0.2, 0.5, 0.3]]), self.zset, 0.5), [0.0])

    def test_select_tie_picks_lowest_index(self):
        np.testing.assert_array_equal(
            select(np.array([[0.4, 0.4, 0.2]]), self.zset, 0.3), [1.0])

    def test_select_is_per_row(self):
        q = np.array([[0.2, 0.5, 0.3], [0.1, 0.2, 0.7], [0.4, 0.3, 0.3]])
        np.testing.assert_array_equal(select(q, self.zset, 0.45),
                                      [2.0, 4.0, 0.0])

    def test_pseudo_label_threshold_is_inclusive(self):
        label, confident = pseudo_label(np.array([[0.2, 0.5, 0.3]]), 0.5)
        np.testing.assert_array_equal(label, [1])
        np.testing.assert_array_equal(confident, [True])
        _, confident = pseudo_label(np.array([[0.2, 0.5, 0.3]]), 0.5 + 1e-12)
        np.testing.assert_array_equal(confident, [False])

    def test_boundary_contrast(self):
        # at peak == threshold the hard selection abstains but the label fires
        q = np.array([[0.25, 0.45, 0.30]])
        np.testing.assert_array_equal(select(q, self.zset, 0.45), [0.0])
        np.testing.assert_array_equal(pseudo_label(q, 0.45)[1], [True])

    def test_soft_select_matches_manual_softmax(self):
        q = np.array([0.2, 0.5, 0.3])
        t = 0.1
        w = np.exp(q / t - (q / t).max())
        w /= w.sum()
        value, weights = soft_select(q[None, :], self.zset, t)
        np.testing.assert_allclose(weights[0], w, atol=1e-12)
        assert value[0] == pytest.approx(float(w @ self.zset.values), abs=1e-12)

    def test_soft_select_cold_limit_hits_argmax(self):
        q = np.array([[0.2, 0.5, 0.3]])
        assert soft_select(q, self.zset, 1e-6)[0][0] == pytest.approx(2.0,
                                                                      abs=1e-9)

    def test_soft_select_hot_limit_is_mean(self):
        q = np.array([[0.2, 0.5, 0.3]])
        assert soft_select(q, self.zset, 1e6)[0][0] == pytest.approx(
            float(self.zset.values.mean()), abs=1e-5)


# ---------------------------------------------------------------------------
# buffer shaping
# ---------------------------------------------------------------------------

def _seed_buffer(n_zero=10, n_nonzero=2, m1=3, m2=2):
    buf = ReplayBuffer(32, m1, m2)
    rng = np.random.default_rng(0)
    for i in range(n_zero + n_nonzero):
        r = 3.0 if i < n_nonzero else 0.0
        buf.push(rng.uniform(size=m1), np.eye(m2)[i % m2], r,
                 rng.uniform(size=m1), False)
    return buf


def _cache(buf, n_candidates=3):
    return ConfidenceCache(buf.capacity, n_candidates)


def _stored(buf):
    """(stored rewards, shaped flags) of every entry, oldest first."""
    rows = buf.to_rows()
    return buf.batch_arrays(buf.slots()).rewards, rows[:, -1] == 1.0


class TestShapeBuffer:
    zset = RewardSet(values=np.array([1.0, 2.0, 4.0]), observed=(1.0, 4.0))

    def test_visit_count_is_floor_of_fraction(self):
        # fixed confidence [1/6, 2/6, 3/6]: peak 0.5 at the last candidate
        params = _fixed_params()
        buf = _seed_buffer(n_zero=10)
        shaped = shape_buffer(params, buf, self.zset, threshold=0.4,
                              visit_fraction=0.35, rng=np.random.default_rng(1),
                              mix=1.0, cache=_cache(buf))
        assert shaped == 3  # floor(0.35 * 10)
        rewards, shaped_flags = _stored(buf)
        assert (rewards == 4.0).sum() == 3
        assert shaped_flags.sum() == 3
        # the shaping pool is keyed on original rewards, so it is unchanged
        assert buf.zero_reward_slots().size == 10

    def test_zero_fraction_shapes_nothing(self):
        params = _fixed_params()
        buf = _seed_buffer()
        assert shape_buffer(params, buf, self.zset, 0.4, 0.0,
                            np.random.default_rng(0), 1.0, _cache(buf)) == 0

    def test_below_threshold_reverts(self):
        params = _fixed_params()
        buf = _seed_buffer(n_zero=6)
        shaped = shape_buffer(params, buf, self.zset, threshold=0.6,
                              visit_fraction=1.0, rng=np.random.default_rng(2),
                              mix=1.0, cache=_cache(buf))
        assert shaped == 0
        assert buf.zero_reward_slots().size == 6

    def test_deterministic_under_seed(self):
        params = _fixed_params()
        marks = []
        for _ in range(2):
            buf = _seed_buffer(n_zero=8)
            shape_buffer(params, buf, self.zset, 0.4, 0.5,
                         np.random.default_rng(11), 1.0, _cache(buf))
            rewards, _ = _stored(buf)
            marks.append(tuple(buf.slots()[rewards != 0.0]))
        assert marks[0] == marks[1]

    def test_matches_per_row_reference(self):
        # the per-row loop shape_buffer replaced: select and write back one
        # visited entry at a time, in draw order
        params = EstimatorParams.create(3, 2, 3, np.random.default_rng(4),
                                        hidden=(5,), dropout=0.0)
        fast, slow = _seed_buffer(n_zero=12), _seed_buffer(n_zero=12)
        shaped = shape_buffer(params, fast, self.zset, 0.36, 0.8,
                              np.random.default_rng(5), 0.5, _cache(fast))
        candidates = slow.zero_reward_slots()
        rng = np.random.default_rng(5)
        k = int(0.8 * candidates.size)
        chosen = candidates[rng.choice(candidates.size, size=k, replace=False)]
        expected = 0
        for slot in chosen:
            t = slow.batch_arrays(np.array([slot]))
            q, *_ = confidence_batch(params, t.states, t.actions,
                                     t.next_states, 0.5)
            value = float(select(q, self.zset, 0.36)[0])
            slow.set_reward(int(slot), value)
            expected += value != 0.0
        assert shaped == expected
        assert fast.to_rows().tobytes() == slow.to_rows().tobytes()

    def test_nonzero_originals_untouched(self):
        params = _fixed_params()
        buf = _seed_buffer(n_zero=5, n_nonzero=3)
        shape_buffer(params, buf, self.zset, 0.4, 1.0,
                     np.random.default_rng(3), 1.0, _cache(buf))
        batch = buf.batch_arrays(buf.slots())
        nonzero = batch.originals != 0.0
        assert nonzero.sum() == 3
        assert np.all(batch.rewards[nonzero] == 3.0)


def _reference_shape(params, buf, zset, threshold, fraction, rng, mix):
    """Uncached shaping: score every drawn row, then select and write back."""
    candidates = buf.zero_reward_slots()
    k = int(fraction * candidates.size)
    if k <= 0:
        return 0
    chosen = candidates[rng.choice(candidates.size, size=k, replace=False)]
    batch = buf.batch_arrays(chosen)
    q, *_ = confidence_batch(params, batch.states, batch.actions,
                             batch.next_states, mix)
    values = select(q, zset, threshold)
    buf.set_reward(chosen, values)
    return int(np.count_nonzero(values))


def _push_random(buf, rng, reward=0.0, m1=3, m2=2):
    return buf.push(rng.uniform(0, 4, size=m1), np.eye(m2)[rng.integers(m2)],
                    reward, rng.uniform(0, 4, size=m1), False)


class TestConfidenceCache:
    zset = TestShapeBuffer.zset

    @staticmethod
    def _params(seed=4):
        return EstimatorParams.create(3, 2, 3, np.random.default_rng(seed),
                                      hidden=(5,), dropout=0.0)

    def test_push_over_a_scored_slot_rescores_it(self):
        params = self._params()
        rng = np.random.default_rng(0)
        buf = ReplayBuffer(6, 3, 2)
        for _ in range(5):
            _push_random(buf, rng)
        _push_random(buf, rng, reward=3.0)
        cache = _cache(buf)
        shape_buffer(params, buf, self.zset, 0.0, 1.0,
                     np.random.default_rng(1), 0.5, cache)
        # the ring is full: the next push overwrites scored slot 0
        slot = _push_random(buf, rng)
        old = cache.values[slot].copy()
        cache.forget(slot)
        shape_buffer(params, buf, self.zset, 0.0, 1.0,
                     np.random.default_rng(2), 0.5, cache)
        row = buf.batch_arrays(np.array([slot]))
        q, *_ = confidence_batch(params, row.states, row.actions,
                                 row.next_states, 0.5)
        assert not np.array_equal(q[0], old)
        assert cache.values[slot].tobytes() == q[0].tobytes()
        assert buf.batch_arrays(np.array([slot])).rewards[0] == \
            select(q, self.zset, 0.0)[0]

    def test_clear_after_a_parameter_step_rescores_every_drawn_slot(self):
        params = self._params()
        buf = _seed_buffer(n_zero=12)
        cache = _cache(buf)
        shape_buffer(params, buf, self.zset, 0.0, 1.0,
                     np.random.default_rng(1), 0.5, cache)
        slots = buf.zero_reward_slots()
        before = cache.values[slots].copy()
        sgd_step(params, np.random.default_rng(3).normal(size=params.n_params),
                 0.5)
        cache.clear()
        shape_buffer(params, buf, self.zset, 0.0, 1.0,
                     np.random.default_rng(2), 0.5, cache)
        batch = buf.batch_arrays(slots)
        q, *_ = confidence_batch(params, batch.states, batch.actions,
                                 batch.next_states, 0.5)
        assert cache.fresh[slots].all()
        assert not np.allclose(before, q)
        np.testing.assert_allclose(cache.values[slots], q, rtol=1e-12,
                                   atol=0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_uncached_reference_over_random_operations(self, seed):
        # pushes (overwriting a full ring), estimator steps, new observed
        # rewards and threshold changes, with a shaping pass after each
        params = self._params(seed)
        rng = np.random.default_rng(seed)
        cached, reference = ReplayBuffer(10, 3, 2), ReplayBuffer(10, 3, 2)
        cache = _cache(cached)
        zset = update_reward_set(RewardSet.initial(3), 1.0)
        pass_cached = np.random.default_rng(100 + seed)
        pass_reference = np.random.default_rng(100 + seed)
        steps = 0
        for _ in range(120):
            op = rng.integers(4)
            if op == 0 or len(cached) == 0:
                reward = float(rng.choice([0.0, 0.0, 0.0, 1.0, 2.5]))
                state = rng.uniform(0, 4, size=3)
                action = np.eye(2)[rng.integers(2)]
                next_state = rng.uniform(0, 4, size=3)
                slot = cached.push(state, action, reward, next_state, False)
                reference.push(state, action, reward, next_state, False)
                cache.forget(slot)
                if reward != 0.0:
                    zset = update_reward_set(zset, reward)
            elif op == 1:
                sgd_step(params, rng.normal(size=params.n_params), 2.0)
                cache.clear()
                steps += 1
            elif op == 2:
                zset = update_reward_set(zset, float(rng.uniform(-2, 5)))
            threshold = float(rng.uniform(0.3, 0.6))
            fraction = float(rng.uniform(0.2, 1.0))
            n = shape_buffer(params, cached, zset, threshold, fraction,
                             pass_cached, 0.5, cache)
            assert n == _reference_shape(params, reference, zset, threshold,
                                         fraction, pass_reference, 0.5)
            assert cached.to_rows().tobytes() == reference.to_rows().tobytes()
        assert steps > 0

    def test_all_fresh_pass_runs_no_forward(self, monkeypatch):
        params = self._params()
        buf = _seed_buffer(n_zero=12)
        cache = _cache(buf)
        shape_buffer(params, buf, self.zset, 0.3, 1.0,
                     np.random.default_rng(1), 0.5, cache)
        calls = []
        forward = MlpNet.forward

        def counting(net, *args, **kwargs):
            calls.append(net)
            return forward(net, *args, **kwargs)

        monkeypatch.setattr(MlpNet, "forward", counting)
        shape_buffer(params, buf, self.zset, 0.4, 0.5,
                     np.random.default_rng(2), 0.5, cache)
        assert calls == []
        cache.forget(int(buf.zero_reward_slots()[0]))
        shape_buffer(params, buf, self.zset, 0.4, 1.0,
                     np.random.default_rng(3), 0.5, cache)
        assert len(calls) == 2  # one forward per head, for the one stale slot


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class TestParamsIo:
    def test_roundtrip_exact(self, tmp_path):
        params = EstimatorParams.create(4, 2, 3, np.random.default_rng(13),
                                        hidden=(6, 5), dropout=0.15,
                                        input_scale=1 / 255)
        path = tmp_path / "params.txt"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert loaded.q_net.layer_sizes == params.q_net.layer_sizes
        assert loaded.q_net.dropout == params.q_net.dropout
        assert loaded.q_net.input_scale == params.q_net.input_scale

    def test_bytes_match_per_value_formatting(self, tmp_path):
        # the format pinned before the row formatter: one format_cell per
        # value, space-separated
        params = EstimatorParams.create(3, 2, 4, np.random.default_rng(7),
                                        hidden=(5, 4), dropout=0.2,
                                        input_scale=1 / 255)
        params.flat[:6] = [-0.0, 5e-324, 1e308, 2.0, -3.0, 0.0]
        lines = ["reward-estimator-params v1"]
        for name, net in (("q", params.q_net), ("v", params.v_net)):
            lines.append(f"net {name} scale {format_cell(net.input_scale)} "
                         f"dropout {format_cell(net.dropout)} "
                         f"layers {len(net.weights)}")
            for w, b in zip(net.weights, net.biases):
                lines.append(f"layer {w.shape[0]} {w.shape[1]}")
                lines.extend(" ".join(map(format_cell, row)) for row in w)
                lines.append("bias")
                lines.append(" ".join(map(format_cell, b)))
        path = tmp_path / "params.txt"
        save_params(params, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            load_params(path)

    def test_rejects_unknown_version(self, tmp_path):
        params = EstimatorParams.create(2, 1, 2, np.random.default_rng(0),
                                        hidden=(3,))
        path = tmp_path / "params.txt"
        save_params(params, path)
        text = path.read_text().replace("v1", "v9", 1)
        path.write_text(text)
        with pytest.raises(ValueError):
            load_params(path)

    def test_truncation_at_every_line_boundary_names_the_file(self, tmp_path):
        params = EstimatorParams.create(2, 1, 2, np.random.default_rng(0),
                                        hidden=(3,))
        path = tmp_path / "params.txt"
        save_params(params, path)
        lines = path.read_text().splitlines(keepends=True)
        cut = tmp_path / "cut.txt"
        for keep in range(len(lines)):
            cut.write_text("".join(lines[:keep]))
            with pytest.raises(ValueError, match="cut.txt"):
                load_params(cut)
        cut.write_text("".join(lines))
        np.testing.assert_array_equal(load_params(cut).flat, params.flat)

    def test_bit_flips_load_or_name_the_file(self, tmp_path):
        params = EstimatorParams.create(2, 1, 2, np.random.default_rng(0),
                                        hidden=(3,))
        good = tmp_path / "good.txt"
        save_params(params, good)
        data = good.read_bytes()
        path = tmp_path / "flipped.txt"
        loaded = 0
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                back = load_params(path)
            except ValueError as exc:
                assert str(path) in str(exc)
                continue
            loaded += 1
            assert isinstance(back, EstimatorParams)
        # flips inside digits of a value still parse
        assert 0 < loaded < 8 * len(data)

    @pytest.mark.parametrize("old, new", [
        ("layer 3 2", "layer 3 x"),      # non-integer width
        ("layer 3 2", "layer 3 5"),      # width disagrees with the rows
        ("bias", "bias extra"),          # missing bias marker
        ("layers 2", "layers 0"),        # empty net
        ("v1", "vX"),                    # unparsable version
    ])
    def test_garbled_input_names_the_file(self, tmp_path, old, new):
        params = EstimatorParams.create(2, 1, 2, np.random.default_rng(0),
                                        hidden=(3,))
        path = tmp_path / "params.txt"
        save_params(params, path)
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises(ValueError, match="params.txt"):
            load_params(path)
