"""Tabular Q-learning backbone coupled to the reward estimator.

Determinism contract: all randomness derives from the run seed via named
child streams spawned in a fixed order (see ``STREAM_NAMES``).  The backbone
path consumes only the ``action`` stream (one uniform draw per step while
epsilon > 0, plus one integer draw per exploratory action) and the ``batch``
stream (one call per training step).  Estimator work draws exclusively from
its own streams, so disabling shaping never shifts the backbone's draws and
a shaped run's trajectory is bit-identical to vanilla until the first
nonzero reward has been observed.

``run_episode`` only acts, on the codes ``reset`` and ``step`` return and
the state ids they set; it builds no observation row.  ``train`` hands it
a step hook that, per environment step and in this order, pushes the
step's codes into the replay buffer and writes the slot's TD codes (state
id, action index, next-state id, terminal flag), folds a nonzero reward
into the candidate set, runs a shaping pass and applies one TD batch.  TD
reads the drawn slots' TD codes and stored rewards, nothing else of the
buffer.  Shaping scores each distinct (state, action) and next state of
the buffer at most once per estimator step, keyed by their codes.  Greedy
evaluation plays one episode on the same environment, passes no hook and
stores nothing.  ``train`` appends one row of measured values per episode
and builds its :class:`RunRecord` from them once.
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
from .schedules import alpha_at, lambda_at, p_u_at

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

# Nothing draws from "eval"; it stays because its position fixes the seed
# of "estimator_batch".
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


def backbone_update(backbone: BackboneQ, buffer: ReplayBuffer, codes: list,
                    slots: np.ndarray, lr: float, discount: float):
    """Per-entry temporal-difference update of the entries at ``slots``,
    applied sequentially in the order of ``slots``.

    ``codes[slot]`` is the entry's (state id, action index, next-state id,
    terminal flag) tuple, written when the step was pushed; the reward is
    read from ``buffer`` (the stored reward, i.e. shaped where shaping has
    run).  Terminal entries use the reward alone as target.  The updates
    run on Python floats straight in ``backbone.rows``, which is the same
    float64 arithmetic as updating an array entry by entry.  A two-wide
    row's largest value is taken as ``b if b > a else a``, which is
    builtin ``max``'s rule (a later value replaces only a smaller one), so
    NaN and signed zeros come out the same.
    """
    rows = backbone.rows
    two_wide = len(rows[0]) == 2
    for slot, reward in zip(slots.tolist(), buffer.rewards_at(slots).tolist()):
        sid, aid, next_id, terminal = codes[slot]
        if terminal:
            target = reward
        elif two_wide:
            a, b = rows[next_id]
            target = reward + discount * (b if b > a else a)
        else:
            target = reward + discount * max(rows[next_id])
        row = rows[sid]
        row[aid] += lr * (target - row[aid])


# ---------------------------------------------------------------------------
# acting
# ---------------------------------------------------------------------------

def run_episode(env, backbone: BackboneQ, epsilon: float,
                rng: np.random.Generator | None, on_step=None):
    """Act one episode with epsilon-greedy exploration.

    While epsilon > 0, each step consumes one uniform draw (plus one integer
    draw when exploring); greedy runs (epsilon == 0) consume nothing.
    ``on_step(code, sid, action, reward, next_code, next_sid, terminal)``
    fires after each environment step, with the codes ``reset`` and
    ``step`` returned, the state ids they set (``env.state_id``) and the
    action index.  Returns (steps, episode return).
    """
    if epsilon > 0.0 and rng is None:
        raise ValueError("exploratory episodes need a generator")
    greedy_action = backbone.greedy_action
    code = env.reset()
    sid = env.state_id
    steps = 0
    total = 0.0
    while True:
        if epsilon > 0.0 and rng.random() < epsilon:
            action = int(rng.integers(env.n_actions))
        else:
            action = greedy_action(sid)
        next_code, reward, done = env.step(action)
        next_sid = env.state_id
        steps += 1
        total += reward
        if on_step is not None:
            on_step(code, sid, action, reward, next_code, next_sid, done)
        code, sid = next_code, next_sid
        if done:
            return steps, total


def evaluate(env, backbone: BackboneQ):
    """Return of one greedy episode, and 1.0 if it is positive, else 0.0.

    Neither environment draws a random number and the greedy action is
    deterministic, so every greedy episode of one table is this episode.
    """
    _, ret = run_episode(env, backbone, 0.0, None)
    return ret, float(ret > 0.0)


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
    buffer = ReplayBuffer(config.buffer_capacity, env)
    # TD codes per slot: (state id, action index, next-state id, terminal
    # flag).  TD reads them as one tuple per entry, which costs less than
    # reading the buffer's codes and mapping them to state ids per batch.
    codes = [None] * config.buffer_capacity
    zset = RewardSet.initial(config.n_z)
    params = cache = None
    if config.shaping:
        params = EstimatorParams.create(
            env.obs_width, env.n_actions, config.n_z,
            streams["estimator_init"], hidden=config.estimator_hidden,
            dropout=config.estimator_dropout, input_scale=1.0 / 255.0,
        )
        cache = ConfidenceCache()
    pairing = config.augment_pair()
    horizon = config.episodes
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None and config.checkpoint_interval > 0:
        out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    last_score = 0.0
    final_success = 0.0
    batch_size, batch_rng = config.batch_size, streams["batch"]
    lr, discount = config.backbone_lr, config.discount

    def on_step(code, sid, action, reward, next_code, next_sid, done):
        # lam and p_u are the current episode's; shaped counts its writes.
        nonlocal zset, shaped
        slot = buffer.push(code, action, reward, next_code, done)
        codes[slot] = sid, action, next_sid, done
        if reward != 0.0:
            zset = update_reward_set(zset, reward)
        # Shaping cannot act before any genuine reward exists: the
        # candidate grid would still be the placeholder.
        if (params is not None and p_u > 0.0
                and buffer.nonzero_reward_count > 0):
            shaped += shape_buffer(params, buffer, zset, lam, p_u,
                                   streams["shaping"], config.beta, cache)
        slots = buffer.sample_slots(batch_size, batch_rng)
        backbone_update(backbone, buffer, codes, slots, lr, discount)

    for ep in range(horizon):
        lam = lambda_at(ep, horizon)
        alpha = alpha_at(ep, horizon)
        if config.static_pu:
            p_u = config.p_u_base
        else:
            p_u = p_u_at(ep, horizon, buffer.nonzero_reward_count,
                         len(buffer), config.p_u_base)
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
            last_score, final_success = evaluate(env, backbone)

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
