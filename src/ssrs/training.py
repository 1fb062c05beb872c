"""Tabular Q-learning backbone coupled to the reward estimator.

Determinism contract: all randomness derives from the run seed via named
child streams spawned in a fixed order (see ``STREAM_NAMES``).  The backbone
path consumes only the ``action`` stream (one uniform draw per step while
epsilon > 0, plus one integer draw per exploratory action) and the ``batch``
stream (one call per training step).  Estimator work draws exclusively from
its own streams, so disabling shaping never shifts the backbone's draws and
a shaped run's trajectory is bit-identical to vanilla until the first
nonzero reward has been observed.

``run_episode`` only acts, and decodes each observation to its state id
once; ``train`` hands it a step hook that, per environment step and in
this order, pushes the step into the replay buffer and writes the slot's
integer codes (state id, action index, next-state id, terminal flag),
folds a nonzero reward into the candidate set, runs a shaping pass and
applies one TD batch.  TD reads the drawn slots' codes and stored
rewards, nothing else of the buffer.  Shaping reuses each slot's
confidence vector until the slot is overwritten or the estimator steps.
Greedy evaluation runs on the same environment, passes no hook and stores
nothing.  ``train`` appends one row of measured values per episode and
builds its :class:`RunRecord` from them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash, serialize_config
from .core import (ReplayBuffer, RewardSet, save_buffer, update_reward_set,
                   write_csv, write_json)
from .envs import make_env
from .estimator import (ConfidenceCache, EstimatorParams, save_params,
                        shape_buffer)
from .losses import LossBreakdown, consistency_views, sgd_step, total_loss
from .schedules import ScheduleState, alpha_at, lambda_at, p_u_at

__all__ = [
    "STREAM_NAMES",
    "spawn_streams",
    "BackboneQ",
    "backbone_update",
    "run_episode",
    "evaluate",
    "epsilon_at",
    "RunRecord",
    "train",
    "write_run_outputs",
    "CURVE_COLUMNS",
]

STREAM_NAMES = (
    "action", "batch", "estimator_init", "dropout",
    "augment", "shaping", "eval", "estimator_batch",
)

CURVE_COLUMNS = ("episode", "score", "best", "L_r", "L_QV", "L_s",
                 "lambda", "alpha", "p_u", "shaped_count")


def spawn_streams(seed: int) -> dict:
    """Named generators derived from one seed, in stable order."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {
        name: np.random.Generator(np.random.PCG64(child))
        for name, child in zip(STREAM_NAMES, children)
    }


# ---------------------------------------------------------------------------
# backbone
# ---------------------------------------------------------------------------

class BackboneQ:
    """Tabular action-value function over state ids.

    ``rows`` holds the values, one list of Python floats per state id, and
    is the only copy: TD updates write into it.  ``table`` builds a
    read-only (n_states, n_actions) float64 array of it (for saving and
    comparing), so a write through ``table`` raises instead of being lost.
    """

    def __init__(self, table):
        self.rows = np.asarray(table, dtype=np.float64).tolist()

    @classmethod
    def create(cls, n_states: int, n_actions: int,
               init: float = 1.0) -> "BackboneQ":
        # Optimistic initialization drives systematic exploration of the
        # sparse environments even under modest epsilon.
        return cls(np.full((n_states, n_actions), float(init)))

    @property
    def table(self) -> np.ndarray:
        table = np.array(self.rows, dtype=np.float64)
        table.flags.writeable = False
        return table

    def greedy_action(self, sid: int) -> int:
        """The first action of maximal value in state ``sid``, as
        ``np.argmax`` picks it (for rows without NaN)."""
        row = self.rows[sid]
        return row.index(max(row))


def backbone_update(backbone: BackboneQ, buffer: ReplayBuffer,
                    codes: np.ndarray, slots: np.ndarray, lr: float,
                    discount: float):
    """Per-entry temporal-difference update of the entries at ``slots``,
    applied sequentially in the order of ``slots``.

    ``codes[slot]`` holds the entry's state id, action index, next-state id
    and terminal flag, written when the step was pushed; the reward is
    read from ``buffer`` (the stored reward, i.e. shaped where shaping has
    run).  Terminal entries use the reward alone as target.  The updates
    run on Python floats straight in ``backbone.rows``, which is the same
    float64 arithmetic as updating an array entry by entry.
    """
    rows = backbone.rows
    for (sid, aid, next_id, terminal), reward in zip(
            codes[slots].tolist(), buffer.rewards_at(slots).tolist()):
        row = rows[sid]
        target = reward if terminal else reward + discount * max(rows[next_id])
        row[aid] += lr * (target - row[aid])


# ---------------------------------------------------------------------------
# acting
# ---------------------------------------------------------------------------

def run_episode(env, backbone: BackboneQ, epsilon: float,
                rng: np.random.Generator | None, on_step=None):
    """Act one episode with epsilon-greedy exploration.

    While epsilon > 0, each step consumes one uniform draw (plus one integer
    draw when exploring); greedy runs (epsilon == 0) consume nothing.
    ``on_step(state, sid, action, reward, next_state, next_sid, terminal)``
    fires after each environment step, with the action index and the ids
    ``env.state_id_of`` gave: each observation is decoded once.
    Returns (steps, episode return).
    """
    if epsilon > 0.0 and rng is None:
        raise ValueError("exploratory episodes need a generator")
    obs = env.reset()
    sid = env.state_id_of(obs)
    steps = 0
    total = 0.0
    while True:
        if epsilon > 0.0 and rng.random() < epsilon:
            action = int(rng.integers(env.n_actions))
        else:
            action = backbone.greedy_action(sid)
        next_obs, reward, done = env.step(action)
        next_sid = env.state_id_of(next_obs)
        steps += 1
        total += reward
        if on_step is not None:
            on_step(obs, sid, action, reward, next_obs, next_sid, done)
        obs, sid = next_obs, next_sid
        if done:
            return steps, total


def evaluate(env, backbone: BackboneQ, n_episodes: int):
    """Mean return and success rate over greedy episodes."""
    returns = []
    for _ in range(n_episodes):
        _, ret = run_episode(env, backbone, 0.0, None)
        returns.append(ret)
    returns = np.array(returns)
    return float(returns.mean()), float(np.mean(returns > 0.0))


def epsilon_at(config: RunConfig, episode: int) -> float:
    """Linear decay from epsilon_start to epsilon_final over the first
    epsilon_decay_frac of training, then flat."""
    decay = round(config.epsilon_decay_frac * config.episodes)
    if decay <= 0 or episode >= decay:
        return config.epsilon_final
    span = config.epsilon_final - config.epsilon_start
    return config.epsilon_start + span * (episode / decay)


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    """Per-episode curves and summary metrics of a single training run.

    Every array holds one value per episode, in the order ``train`` appends
    its rows; the remaining per-run quantities are derived from them.
    """

    seed: int
    config_hash: str
    final_success_rate: float
    scores: np.ndarray
    l_r: np.ndarray
    l_qv: np.ndarray
    l_s: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    p_u: np.ndarray
    shaped_count: np.ndarray
    gate_r: np.ndarray
    gate_qv: np.ndarray
    gate_s: np.ndarray
    returns: np.ndarray
    lengths: np.ndarray

    @property
    def episodes(self) -> np.ndarray:
        """One-based episode numbers."""
        return np.arange(1, self.scores.size + 1)

    @property
    def best(self) -> np.ndarray:
        """Best evaluation score so far, per episode."""
        return np.maximum.accumulate(self.scores)

    @property
    def first_success_episode(self) -> int | None:
        """One-based number of the first episode with a positive return."""
        hits = np.flatnonzero(self.returns > 0.0)
        return int(hits[0]) + 1 if hits.size else None

    @property
    def total_transitions(self) -> int:
        """Environment steps over all episodes."""
        return int(self.lengths.sum())

    def curve_rows(self):
        """Rows matching CURVE_COLUMNS, one per episode."""
        return zip(self.episodes, self.scores, self.best, self.l_r, self.l_qv,
                   self.l_s, self.lam, self.alpha, self.p_u, self.shaped_count)

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "config_hash": self.config_hash,
            "episodes": int(self.episodes.size),
            "final_score": float(self.scores[-1]),
            "best_score": float(self.best[-1]),
            "final_success_rate": self.final_success_rate,
            "first_success_episode": self.first_success_episode,
            "total_transitions": self.total_transitions,
        }


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train(config: RunConfig, out_dir=None):
    """Run one seed end to end; returns (RunRecord, backbone, params, buffer).

    With ``out_dir`` set and checkpoint_interval > 0, buffer and estimator
    checkpoints are written every interval episodes.
    """
    env = make_env(config.env)
    streams = spawn_streams(config.seed)
    backbone = BackboneQ.create(env.n_states, env.n_actions, config.q_init)
    buffer = ReplayBuffer(config.buffer_capacity, env.obs_width, env.n_actions)
    # Per slot: state id, action index, next-state id, terminal flag.
    codes = np.zeros((config.buffer_capacity, 4), dtype=np.int32)
    zset = RewardSet.initial(config.n_z)
    params = cache = None
    if config.shaping:
        params = EstimatorParams.create(
            env.obs_width, env.n_actions, config.n_z,
            streams["estimator_init"], hidden=config.estimator_hidden,
            dropout=config.estimator_dropout, input_scale=1.0 / 255.0,
        )
        cache = ConfidenceCache(config.buffer_capacity, config.n_z)
    pairing = config.augment_pair()
    horizon = config.episodes
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None and config.checkpoint_interval > 0:
        out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    last_score = 0.0
    final_success = 0.0

    def on_step(obs, sid, action, reward, next_obs, next_sid, done):
        # lam and p_u are the current episode's; shaped counts its writes.
        nonlocal zset, shaped
        slot = buffer.push(obs, env.action_vector(action), reward, next_obs,
                           done)
        codes[slot] = sid, action, next_sid, done
        if cache is not None:
            cache.forget(slot)
        if reward != 0.0:
            zset = update_reward_set(zset, reward)
        # Shaping cannot act before any genuine reward exists: the
        # candidate grid would still be the placeholder.
        if (params is not None and p_u > 0.0
                and buffer.nonzero_reward_count > 0):
            shaped += shape_buffer(params, buffer, zset, lam, p_u,
                                   streams["shaping"], config.beta, cache)
        slots = buffer.sample_slots(config.batch_size, streams["batch"])
        backbone_update(backbone, buffer, codes, slots, config.backbone_lr,
                        config.discount)

    for ep in range(horizon):
        lam = lambda_at(ep, horizon)
        alpha = alpha_at(ep, horizon)
        if config.static_pu:
            p_u = config.p_u_base
        else:
            p_u = p_u_at(
                ScheduleState(ep, horizon, buffer.nonzero_reward_count,
                              len(buffer)),
                config.p_u_base,
            )
        epsilon = epsilon_at(config, ep)
        shaped = 0
        steps, ep_return = run_episode(env, backbone, epsilon,
                                       streams["action"], on_step=on_step)

        # An episode without an estimator step logs zeros.
        breakdown = LossBreakdown.zero()
        if params is not None and config.estimator_steps > 0:
            for _ in range(config.estimator_steps):
                slots = buffer.sample_slots(config.batch_size,
                                            streams["estimator_batch"])
                batch = buffer.batch_arrays(slots)
                aug_seed = int(streams["augment"].integers(2 ** 63))
                views = consistency_views(batch, pairing, aug_seed)
                dropout_rng = streams["dropout"] if config.train_dropout else None
                _, grad = total_loss(
                    params, batch, alpha, zset, lam, config.beta,
                    sharpness=config.sigmoid_sharpness,
                    temperature=config.soft_select_temp, views=views,
                    mode="smooth", ordering=config.monotonicity,
                    dropout_rng=dropout_rng,
                )
                sgd_step(params, grad, config.estimator_lr)
                cache.clear()
            # Hard-mode values of the last step's batch and views, after its
            # update, for the logged curves; the pass draws nothing.
            breakdown, _ = total_loss(
                params, batch, alpha, zset, lam, config.beta,
                sharpness=config.sigmoid_sharpness,
                temperature=config.soft_select_temp, views=views,
                mode="hard",
            )

        if ep % config.eval_interval == 0 or ep == horizon - 1:
            last_score, final_success = evaluate(env, backbone,
                                                 config.eval_episodes)

        gates = breakdown.gate_pass
        rows.append((last_score, breakdown.l_r, breakdown.l_qv, breakdown.l_s,
                     lam, alpha, p_u, shaped, gates["l_r"],
                     gates["l_qv"], gates["l_s"], ep_return, steps))

        if (out_dir is not None and config.checkpoint_interval > 0
                and (ep + 1) % config.checkpoint_interval == 0):
            save_buffer(buffer, out_dir / f"buffer_ep{ep + 1}.bin")
            if params is not None:
                save_params(params, out_dir / f"params_ep{ep + 1}.txt")

    # One array per RunRecord column, in field order.
    record = RunRecord(config.seed, config_hash(config), final_success,
                       *map(np.array, zip(*rows)))
    return record, backbone, params, buffer


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def write_run_outputs(record: RunRecord, config: RunConfig, out_dir,
                      backbone: BackboneQ = None,
                      params: EstimatorParams = None,
                      buffer: ReplayBuffer = None):
    """Write run.json, curve.csv and final checkpoints into a run directory."""
    out_dir = Path(out_dir)
    write_csv(out_dir / "curve.csv", CURVE_COLUMNS, record.curve_rows())
    write_json(out_dir / "run.json", {
        "config": serialize_config(config),
        "summary": record.summary(),
    })
    if backbone is not None:
        np.save(out_dir / "backbone_q.npy", backbone.table)
    if params is not None:
        save_params(params, out_dir / "params_final.txt")
    if buffer is not None:
        save_buffer(buffer, out_dir / "buffer_final.bin")
