"""End-to-end acceptance suite.

Each test covers one acceptance check at its stated tolerance and prints a
single pass/fail line.  The checks pin externally computed expectations
(entropy constants, schedule values, an independently implemented Q-learning
reference) or structural invariants (gradient agreement, hard/smooth gate
consistency, consensus separation, monotone log-likelihood), so a regression
anywhere in the pipeline surfaces as a named line here.
"""

import time
from collections import deque

import numpy as np
import pytest

from ssrs.analysis import consensus, gmm_fit
from ssrs.augment import AugmentSpec, apply_augment, shannon_entropy
from ssrs.cli import gradcheck_report, main
from ssrs.config import RunConfig, apply_overrides
from ssrs.core import (Batch, RewardSet, TrajectoryMatrix, load_buffer,
                       save_buffer, update_reward_set)
from ssrs.estimator import (EstimatorParams, confidence_batch, load_params,
                            save_params, select)
from ssrs.losses import (consistency_views, loss_qv, loss_r,
                         loss_s, sgd_step, total_loss)
from ssrs.schedules import alpha_at, lambda_at
from ssrs.training import train

# the default weak/strong pairing (ssrs_s) the consistency checks run on
_PAIRING = RunConfig().augment_pair()


def _report(index, name, ok, detail=""):
    line = f"[{index:2d}/12] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_acceptance_01_gradient_correctness():
    """Backprop matches central finite differences on ten toy estimators."""
    tick = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        report = gradcheck_report(seed, step=1e-5)
        worst = max(worst, max(report.values()))
    elapsed = time.perf_counter() - tick
    _report(1, "gradient correctness", worst <= 1e-4 and elapsed < 30.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. hard/smooth consistency
# ---------------------------------------------------------------------------

_SHARPNESS = 1e3
_SOFT_TEMP = 1e-3
_CLEARANCE = 0.01  # well beyond the 1e-3 the check requires


def _gate_separated_batch(seed):
    """A batch, reward grid and threshold with every confidence peak at
    least _CLEARANCE away from the gate boundary, and every gated-on row's
    top-two confidence gap at least as wide (so the cold soft selection
    matches the argmax).  Probes the same augmented views the consistency
    loss will consume."""
    rng = np.random.default_rng(seed)
    params = EstimatorParams.create(8, 2, 4, rng, hidden=(8,), dropout=0.0,
                                    input_scale=1.0 / 8.0)
    zset = RewardSet.initial(4)
    for value in (1.0, 3.0):
        zset = update_reward_set(zset, value)
    for attempt in range(500):
        n = 12
        states = rng.uniform(0.0, 255.0, size=(n, 8))
        actions = np.eye(2)[rng.integers(0, 2, size=n)]
        rewards = np.where(rng.random(n) < 0.5, 0.0,
                           rng.choice(zset.values, size=n))
        if not (np.any(rewards != 0.0) and np.any(rewards == 0.0)):
            continue
        batch = Batch.from_arrays(states, actions, rewards,
                                      rng.uniform(0.0, 255.0, size=(n, 8)))
        aug_seed = 1000 * seed + attempt
        q, *_ = confidence_batch(params, batch.states, batch.actions,
                                 batch.next_states, 0.5)
        zero = batch.originals == 0.0
        weak, strong = consistency_views(batch, _PAIRING, aug_seed)
        q_w, *_ = confidence_batch(params, weak, batch.actions[zero],
                                   batch.next_states[zero], 0.5)
        q_s, *_ = confidence_batch(params, strong, batch.actions[zero],
                                   batch.next_states[zero], 0.5)
        mats = (q, q_w, q_s)
        peaks = np.sort(np.concatenate([m.max(axis=1) for m in mats]))
        inside = peaks[(peaks > 0.45) & (peaks < 0.95)]
        candidates = np.concatenate([[0.45], inside, [0.95]])
        best_lam, best_clear = None, 0.0
        for lo, hi in zip(candidates[:-1], candidates[1:]):
            mid = 0.5 * (lo + hi)
            clear = float(np.min(np.abs(peaks - mid)))
            if clear > best_clear:
                best_lam, best_clear = mid, clear
        if best_clear < _CLEARANCE:
            continue
        lam = float(best_lam)
        gaps_ok = True
        for mat in mats:
            ordered = np.sort(mat, axis=1)
            gated_on = ordered[:, -1] > lam
            if np.any(gated_on & (ordered[:, -1] - ordered[:, -2] < _CLEARANCE)):
                gaps_ok = False
        if gaps_ok:
            return params, zset, batch, aug_seed, lam, best_clear
    raise AssertionError("no gate-separated batch found")


def test_acceptance_02_hard_smooth_consistency():
    """With steep gates and a cold selection, smooth losses agree with their
    hard counterparts on gate-separated batches."""
    worst = 0.0
    min_clear = np.inf
    for seed in range(8):
        params, zset, batch, aug_seed, lam, clear = _gate_separated_batch(seed)
        min_clear = min(min_clear, clear)
        nonzero = batch.originals != 0.0
        hard, _, _ = loss_r(params, batch.subset(nonzero), zset, lam, 0.5,
                            mode="hard")
        smooth, _, _ = loss_r(params, batch.subset(nonzero), zset, lam, 0.5,
                              mode="smooth", sharpness=_SHARPNESS,
                              temperature=_SOFT_TEMP)
        worst = max(worst, abs(hard - smooth))
        views = consistency_views(batch, _PAIRING, aug_seed)
        hard, _, _ = loss_s(params, batch.subset(~nonzero), views, zset,
                            lam, 0.5, mode="hard")
        smooth, _, _ = loss_s(params, batch.subset(~nonzero), views, zset,
                              lam, 0.5, mode="smooth", sharpness=_SHARPNESS)
        worst = max(worst, abs(hard - smooth))
        hard_b, _ = total_loss(params, batch, 0.5, zset, lam, 0.5,
                               views=views, mode="hard")
        smooth_b, _ = total_loss(params, batch, 0.5, zset, lam, 0.5,
                                 mode="smooth", sharpness=_SHARPNESS,
                                 temperature=_SOFT_TEMP, views=views)
        worst = max(worst, abs(hard_b.total - smooth_b.total))
    _report(2, "hard/smooth consistency",
            worst <= 1e-2 and min_clear >= 1e-3,
            f"worst |hard-smooth| {worst:.2e}, min boundary clearance "
            f"{min_clear:.3f}")


# ---------------------------------------------------------------------------
# 3. entropy exactness
# ---------------------------------------------------------------------------

def test_acceptance_03_entropy_exactness():
    uniform = abs(shannon_entropy(np.ones((2, 2))) - np.log(4.0))
    one_hot = abs(shannon_entropy(np.array([[1.0, 0.0], [0.0, 0.0]])))
    skewed = abs(shannon_entropy(np.array([2.0, 1.0, 1.0])) - 1.5 * np.log(2.0))
    rng = np.random.default_rng(3)
    worst_scale = 0.0
    for _ in range(100):
        mat = rng.uniform(0.0, 10.0, size=rng.integers(2, 6, size=2))
        base = shannon_entropy(mat)
        for c in (0.5, 3.0):
            worst_scale = max(worst_scale, abs(shannon_entropy(c * mat) - base))
    ok = max(uniform, one_hot, skewed) <= 1e-9 and worst_scale <= 1e-12
    _report(3, "entropy exactness", ok,
            f"golden errs {uniform:.1e}/{one_hot:.1e}/{skewed:.1e}, "
            f"scale inv {worst_scale:.1e}")


# ---------------------------------------------------------------------------
# 4. augmentation invariants
# ---------------------------------------------------------------------------

_ALL_KINDS = ("gaussian", "cutout", "smooth", "scale", "translate", "flip",
              "double_entropy")


def test_acceptance_04_augmentation_invariants():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        m1 = int(rng.choice([8, 16, 24]))
        m2 = int(rng.choice([2, 4]))
        traj = TrajectoryMatrix(
            states=rng.uniform(0.0, 255.0, size=(n, m1)),
            actions=np.eye(m2)[rng.integers(0, m2, size=n)],
            rewards=rng.choice([0.0, 1.0, 2.0], size=n),
        )
        for kind in _ALL_KINDS:
            out = apply_augment(AugmentSpec(kind), traj, rng)
            assert out.states.shape == traj.states.shape, kind
            assert np.array_equal(out.actions, traj.actions), kind
            assert np.array_equal(out.rewards, traj.rewards), kind
            if kind == "double_entropy":
                assert np.all(out.states >= 0.0)
        flipped = apply_augment(AugmentSpec("flip"),
                                apply_augment(AugmentSpec("flip"), traj, rng),
                                rng)
        assert np.array_equal(flipped.states, traj.states)
    _report(4, "augmentation invariants", True,
            "1000 trajectories x 7 transforms")


# ---------------------------------------------------------------------------
# 5. schedule golden points
# ---------------------------------------------------------------------------

def test_acceptance_05_schedule_goldens():
    horizon = 1000
    ok = lambda_at(0, horizon) == 0.6
    lam_end_err = abs(lambda_at(horizon, horizon) - 0.789636)
    ok = ok and lam_end_err <= 1e-6
    ok = ok and alpha_at(0, horizon) == 0.2
    knee = int(0.8 * horizon)
    ok = ok and alpha_at(knee, horizon) == 0.7
    below = alpha_at(np.nextafter(float(knee), 0.0), horizon)
    knee_jump = abs(below - alpha_at(knee, horizon))
    ok = ok and knee_jump <= 1e-12
    _report(5, "schedule golden points", ok,
            f"end err {lam_end_err:.1e}, knee jump {knee_jump:.1e}")


# ---------------------------------------------------------------------------
# 6. estimator identifiability
# ---------------------------------------------------------------------------

_N_BUCKETS = 8


def _step_function_set(rng, n):
    """States are one-hot bucket indicators; the reward is a deterministic
    step function of the bucket taking the three values 4, 0 and 8."""
    buckets = rng.integers(0, _N_BUCKETS, size=n)
    states = np.eye(_N_BUCKETS)[buckets] * 255.0
    actions = np.ones((n, 1))
    rewards = np.zeros(n)
    rewards[buckets <= 2] = 4.0
    rewards[buckets >= 5] = 8.0
    return states, actions, rewards


def _identifiability_accuracy(seed):
    """Train on the reward-fit and ordering terms only; score hard selection
    on held-out samples with a threshold calibrated on the training split."""
    rng = np.random.default_rng(seed)
    states, actions, rewards = _step_function_set(rng, 2000)
    held_s, held_a, held_r = _step_function_set(rng, 500)
    zset = RewardSet.initial(3)
    for value in (4.0, 8.0):
        zset = update_reward_set(zset, value)
    params = EstimatorParams.create(_N_BUCKETS, 1, 3, rng, hidden=(),
                                    dropout=0.0, input_scale=1.0 / 255.0)
    nonzero = rewards != 0.0
    batch = Batch.from_arrays(states[nonzero], actions[nonzero],
                                  rewards[nonzero], states[nonzero])
    views = consistency_views(batch, _PAIRING, 0)  # no zero-reward rows
    for _ in range(5000):
        _, grad = total_loss(params, batch, 0.0, zset, 0.6, 0.5,
                             temperature=0.3, views=views, mode="smooth")
        sgd_step(params, grad, 0.2)
    q_train, *_ = confidence_batch(params, states, actions, states, 0.5)
    peaks = q_train.max(axis=1)
    zero_rows = rewards == 0.0
    threshold = 0.5 * (peaks[zero_rows].max() + peaks[~zero_rows].min())
    q_held, *_ = confidence_batch(params, held_s, held_a, held_s, 0.5)
    predicted = select(q_held, zset, threshold)
    return float(np.mean(predicted == held_r))


def test_acceptance_06_estimator_identifiability():
    tick = time.perf_counter()
    accuracies = [_identifiability_accuracy(seed) for seed in (0, 1, 2)]
    elapsed = time.perf_counter() - tick
    ok = min(accuracies) >= 0.95 and elapsed < 120.0
    _report(6, "estimator identifiability", ok,
            f"held-out accuracy {accuracies}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. head-ordering descent
# ---------------------------------------------------------------------------

def test_acceptance_07_head_ordering_descent():
    rng = np.random.default_rng(0)
    params = EstimatorParams.create(6, 2, 4, np.random.default_rng(0),
                                    hidden=(16,), dropout=0.0)
    n = 16
    batch = Batch.from_arrays(
        rng.uniform(0.0, 1.0, size=(n, 6)),
        np.eye(2)[rng.integers(0, 2, size=n)],
        rng.choice([1.0, 2.0], size=n),
        rng.uniform(0.0, 1.0, size=(n, 6)),
    )
    reached = None
    for step in range(10000):
        value, grad, _ = loss_qv(params, batch)
        if value < 1e-6:
            reached = step
            break
        sgd_step(params, grad, 1.0)
    final, _, _ = loss_qv(params, batch)
    _report(7, "head-ordering descent", reached is not None and final < 1e-6,
            f"below 1e-6 at step {reached}")


# ---------------------------------------------------------------------------
# 8. vanilla equivalence
# ---------------------------------------------------------------------------

def _reference_chain_q(seed, length=20, episodes=200, max_steps=100,
                       capacity=10000, batch_size=32, lr=0.1, discount=0.99,
                       q_init=1.0, eps_start=1.0, eps_final=0.05,
                       decay_frac=0.5, eval_interval=10):
    """Independent epsilon-greedy Q-learning on the corridor task.

    Shares nothing with the training module except the stream layout: the
    first two children of the seed sequence drive actions and batch
    sampling, transitions live in a plain deque, and the TD updates run
    sequentially in batch order.
    """
    children = np.random.SeedSequence(seed).spawn(8)
    action_rng = np.random.Generator(np.random.PCG64(children[0]))
    batch_rng = np.random.Generator(np.random.PCG64(children[1]))
    table = np.full((length, 2), q_init)
    window = deque(maxlen=capacity)
    decay = round(decay_frac * episodes)
    returns, scores = [], []
    first_success = None
    final_success = 0.0
    last_score = 0.0

    def greedy_return():
        pos, steps = 0, 0
        while True:
            action = int(np.argmax(table[pos]))
            pos = max(0, pos - 1) if action == 0 else min(length - 1, pos + 1)
            steps += 1
            if pos == length - 1:
                return 1.0
            if steps >= max_steps:
                return 0.0

    for ep in range(episodes):
        if ep >= decay:
            epsilon = eps_final
        else:
            epsilon = eps_start + (eps_final - eps_start) * ep / decay
        pos, steps, done, total = 0, 0, False, 0.0
        while not done:
            if epsilon > 0.0 and action_rng.random() < epsilon:
                action = int(action_rng.integers(2))
            else:
                action = int(np.argmax(table[pos]))
            nxt = max(0, pos - 1) if action == 0 else min(length - 1, pos + 1)
            steps += 1
            reward = 0.0
            if nxt == length - 1:
                reward, done = 1.0, True
            elif steps >= max_steps:
                done = True
            total += reward
            window.append((pos, action, reward, nxt, done))
            for idx in batch_rng.integers(0, len(window), size=batch_size):
                s, a, r, s2, term = window[int(idx)]
                target = r if term else r + discount * table[s2].max()
                table[s, a] += lr * (target - table[s, a])
            pos = nxt
        returns.append(total)
        if first_success is None and total > 0.0:
            first_success = ep + 1
        if ep % eval_interval == 0 or ep == episodes - 1:
            last_score = greedy_return()
            final_success = float(last_score > 0.0)
        scores.append(last_score)
    return table, np.array(returns), np.array(scores), first_success, final_success


def test_acceptance_08_vanilla_equivalence():
    tick = time.perf_counter()
    for seed in (0, 17):
        config = apply_overrides(RunConfig(), [
            f"seed={seed}", "shaping=off", "episodes=200"])
        record, backbone, params, _ = train(config)
        assert params is None
        table, returns, scores, first, final = _reference_chain_q(seed)
        assert np.array_equal(backbone.table, table), seed
        assert np.array_equal(record.returns, returns), seed
        assert np.array_equal(record.scores, scores), seed
        assert record.first_success_episode == first
        assert record.final_success_rate == final
    elapsed = time.perf_counter() - tick
    _report(8, "vanilla equivalence", elapsed < 30.0,
            f"2 seeds bit-exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. end-to-end shaping comparison
# ---------------------------------------------------------------------------

def test_acceptance_09_shaping_benefit():
    """Shaped runs must reach their first success no later than vanilla in
    the median, and must not give up final success (5-point floor).  The
    confidence gate keeps shaping conservative here: a single observed
    reward value gives the estimator nothing to separate, so interventions
    only fire once its confidence clears the threshold."""
    tick = time.perf_counter()
    overrides = ["episodes=500", "env.length=30", "env.max_steps=60",
                 "buffer_capacity=1500", "estimator_lr=0.01"]
    firsts = {"on": [], "off": []}
    finals = {"on": [], "off": []}
    for seed in range(10):
        for arm in ("off", "on"):
            config = apply_overrides(RunConfig(), overrides + [
                f"seed={seed}", f"shaping={arm}"])
            record, *_ = train(config)
            assert record.first_success_episode is not None
            firsts[arm].append(record.first_success_episode)
            finals[arm].append(record.final_success_rate)
    elapsed = time.perf_counter() - tick
    shaped_median = float(np.median(firsts["on"]))
    vanilla_median = float(np.median(firsts["off"]))
    ratio = shaped_median / vanilla_median
    shaped_rate = float(np.mean(finals["on"]))
    vanilla_rate = float(np.mean(finals["off"]))
    ok = (ratio <= 1.0 and shaped_rate >= vanilla_rate - 0.05
          and elapsed < 600.0)
    _report(9, "end-to-end shaping comparison", ok,
            f"median first-success {shaped_median:.0f} vs {vanilla_median:.0f} "
            f"(ratio {ratio:.3f}), success {shaped_rate:.2f} vs "
            f"{vanilla_rate:.2f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. consensus structure
# ---------------------------------------------------------------------------

def test_acceptance_10_consensus_structure():
    rng = np.random.default_rng(10)
    sizes = (17, 17, 16)
    centers = (0.0, 60.0, 120.0)
    blocks = [center + rng.normal(0.0, 1.0, size=(size, 6))
              for size, center in zip(sizes, centers)]
    features = np.concatenate(blocks)
    labels = np.repeat(np.arange(3), sizes)
    matrix = consensus(features, k=3, runs=100, seed=0)
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(50, dtype=bool)
    within = float(matrix[same & off_diag].mean())
    between = float(matrix[~same].mean())
    ok = (np.array_equal(matrix, matrix.T)
          and np.all(np.diag(matrix) == 1.0)
          and np.all((matrix >= 0.0) & (matrix <= 1.0))
          and within - between >= 0.5)
    _report(10, "consensus structure", ok,
            f"within {within:.3f}, between {between:.3f}")


# ---------------------------------------------------------------------------
# 11. mixture-fit log-likelihood
# ---------------------------------------------------------------------------

def test_acceptance_11_gmm_loglik_monotone():
    rng = np.random.default_rng(11)
    worst = np.inf
    for fit in range(100):
        n = int(rng.integers(20, 61))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        points = rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.5, 3.0),
                            size=(n, d))
        model = gmm_fit(points, k, seed=fit)
        if model.loglik.size > 1:
            worst = min(worst, float(np.min(np.diff(model.loglik))))
    _report(11, "mixture-fit log-likelihood", worst >= -1e-9,
            f"min iteration-to-iteration change {worst:.2e}")


# ---------------------------------------------------------------------------
# 12. reproducibility and formats
# ---------------------------------------------------------------------------

_REPRO_CONFIG = """
episodes = 12
env.kind = sparse_chain
env.length = 4
env.max_steps = 12
n_z = 3
estimator_hidden = 8
estimator_dropout = 0.0
eval_interval = 4
eval_episodes = 2
batch_size = 8
buffer_capacity = 200
checkpoint_interval = 6
"""


def _run_cycle(root, config_path):
    assert main(["train", "--config", str(config_path), "--seed", "3,4",
                 "--out", str(root / "run")]) == 0
    assert main(["rollout", "--config", str(config_path), "--seed", "7",
                 "--out", str(root / "roll")]) == 0
    assert main(["augment-check", "--traj",
                 str(root / "roll" / "rollout.csv"), "--kind", "gaussian",
                 "--seed", "5", "--out", str(root / "aug")]) == 0
    assert main(["consensus", "--run", str(root / "run" / "seed_3"),
                 "--k", "2", "--runs", "20", "--seed", "9",
                 "--out", str(root / "cons")]) == 0
    assert main(["dist", "--run", str(root / "run" / "seed_3"),
                 "--epochs", "6,12", "--out", str(root / "dist")]) == 0
    assert main(["compare", str(root / "run"), str(root / "run"),
                 "--out", str(root / "cmp")]) == 0
    return [
        root / "run" / "seed_3" / "curve.csv",
        root / "run" / "seed_4" / "curve.csv",
        root / "run" / "aggregate.csv",
        root / "roll" / "rollout.csv",
        root / "aug" / "augmented.csv",
        root / "cons" / "consensus_matrix.csv",
        root / "cons" / "consensus_pairs.csv",
        root / "dist" / "dist.csv",
        root / "cmp" / "compare.csv",
    ]


def test_acceptance_12_reproducibility_and_formats(tmp_path, monkeypatch):
    monkeypatch.delenv("SSRS_OUT", raising=False)
    config_path = tmp_path / "repro.cfg"
    config_path.write_text(_REPRO_CONFIG)
    first = _run_cycle(tmp_path / "a", config_path)
    second = _run_cycle(tmp_path / "b", config_path)
    for path_a, path_b in zip(first, second):
        assert path_a.read_bytes() == path_b.read_bytes(), path_a.name

    # checkpoint round-trips are byte-exact for both bespoke formats
    seed_dir = tmp_path / "a" / "run" / "seed_3"
    buffer_path = seed_dir / "buffer_final.bin"
    buffer_copy = tmp_path / "buffer_copy.bin"
    save_buffer(load_buffer(buffer_path), buffer_copy)
    assert buffer_path.read_bytes() == buffer_copy.read_bytes()
    params_path = seed_dir / "params_final.txt"
    params_copy = tmp_path / "params_copy.txt"
    save_params(load_params(params_path), params_copy)
    assert params_path.read_bytes() == params_copy.read_bytes()
    _report(12, "reproducibility and formats", True,
            f"{len(first)} CSVs bit-identical, 2 checkpoint round-trips")
