"""Tabular Q-learning backbone coupled to the reward estimator.

Determinism contract: all randomness derives from the run seed via named
child streams spawned in a fixed order (see ``STREAM_NAMES``).  The backbone
path consumes only the ``action`` stream (one uniform draw per step while
epsilon > 0, plus one integer draw per exploratory action) and the ``batch``
stream (one call per training step).  Estimator work draws exclusively from
its own streams, so disabling shaping never shifts the backbone's draws and
a shaped run's trajectory is bit-identical to vanilla until the first
nonzero reward has been observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash, serialize_config
from .core import (Batch, ReplayBuffer, RewardSet, Transition, save_buffer,
                   update_reward_set, write_csv, write_json)
from .envs import make_env
from .estimator import EstimatorParams, save_params, shape_buffer
from .losses import consistency_views, loss_qv, sgd_step, total_loss
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

@dataclass
class BackboneQ:
    """Tabular action-value function plus an observation-to-id encoder.

    ``encoder`` maps a (rows, obs_width) block of observations to an array
    of state ids, e.g. an environment's ``state_ids_of``.
    """

    table: np.ndarray
    encoder: object

    @classmethod
    def create(cls, n_states: int, n_actions: int, encoder,
               init: float = 1.0) -> "BackboneQ":
        # Optimistic initialization drives systematic exploration of the
        # sparse environments even under modest epsilon.
        return cls(table=np.full((n_states, n_actions), float(init)),
                   encoder=encoder)

    def greedy_action(self, obs) -> int:
        state = self.encoder(np.asarray(obs)[None])[0]
        return int(np.argmax(self.table[state]))


def backbone_update(backbone: BackboneQ, batch: Batch, lr: float,
                    discount: float):
    """Per-entry temporal-difference update, applied sequentially in batch
    order (stored rewards, i.e. shaped where shaping has run).

    Terminal entries use the reward alone as target.  Both state columns and
    the action argmax are encoded once for the whole batch; the sequential
    updates then run on Python floats, which is the same float64 arithmetic
    as updating the array entry by entry, and the table is written back once.
    """
    encode = backbone.encoder
    rows = backbone.table.tolist()
    for sid, aid, reward, next_id, terminal in zip(
        encode(batch.states).tolist(),
        np.argmax(batch.actions, axis=1).tolist(),
        batch.rewards.tolist(),
        encode(batch.next_states).tolist(),
        batch.terminals.tolist(),
    ):
        row = rows[sid]
        target = reward if terminal else reward + discount * max(rows[next_id])
        row[aid] += lr * (target - row[aid])
    backbone.table[...] = rows


# ---------------------------------------------------------------------------
# acting
# ---------------------------------------------------------------------------

def run_episode(env, backbone: BackboneQ, epsilon: float,
                rng: np.random.Generator | None, buffer: ReplayBuffer = None,
                on_step=None):
    """Act one episode with epsilon-greedy exploration.

    While epsilon > 0, each step consumes one uniform draw (plus one integer
    draw when exploring); greedy runs (epsilon == 0) consume nothing.
    Transitions are pushed to the buffer when one is given; ``on_step(slot,
    transition)`` fires after each push (slot is None without a buffer).
    Returns (transitions, episode return).
    """
    if epsilon > 0.0 and rng is None:
        raise ValueError("exploratory episodes need a generator")
    obs = env.reset()
    transitions = []
    total = 0.0
    while True:
        if epsilon > 0.0 and rng.random() < epsilon:
            action = int(rng.integers(env.n_actions))
        else:
            action = backbone.greedy_action(obs)
        next_obs, reward, done = env.step(action)
        transition = Transition(
            state=obs, action=env.action_vector(action), reward=reward,
            next_state=next_obs, terminal=done,
        )
        transitions.append(transition)
        total += reward
        slot = buffer.push(transition) if buffer is not None else None
        if on_step is not None:
            on_step(slot, transition)
        obs = next_obs
        if done:
            return transitions, total


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
    """Per-episode curves and summary metrics of a single training run."""

    seed: int
    config_hash: str
    episodes: np.ndarray
    scores: np.ndarray
    best: np.ndarray
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
    first_success_episode: int | None
    final_success_rate: float
    total_transitions: int

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

def train(config: RunConfig, env=None, out_dir=None):
    """Run one seed end to end; returns (RunRecord, backbone, params, buffer).

    With ``out_dir`` set and checkpoint_interval > 0, buffer and estimator
    checkpoints are written every interval episodes.
    """
    env = env if env is not None else make_env(config.env_spec())
    eval_env = make_env(config.env_spec())
    streams = spawn_streams(config.seed)
    backbone = BackboneQ.create(env.n_states, env.n_actions, env.state_ids_of,
                                config.q_init)
    buffer = ReplayBuffer(config.buffer_capacity)
    zset = RewardSet.initial(config.n_z)
    params = None
    if config.shaping:
        params = EstimatorParams.create(
            env.obs_width, env.n_actions, config.n_z,
            streams["estimator_init"], hidden=config.estimator_hidden,
            dropout=config.estimator_dropout, input_scale=1.0 / 255.0,
        )
    pairing = config.augment_pair()
    horizon = config.episodes
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None and config.checkpoint_interval > 0:
        out_dir.mkdir(parents=True, exist_ok=True)

    columns = {name: [] for name in (
        "scores", "best", "l_r", "l_qv", "l_s", "lam", "alpha", "p_u",
        "shaped", "gate_r", "gate_qv", "gate_s", "returns", "lengths",
    )}
    state = {"zset": zset, "shaped": 0}
    best_score = -np.inf
    last_score = 0.0
    final_success = 0.0
    first_success = None
    total_transitions = 0

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
        state["shaped"] = 0

        def on_step(slot, transition):
            reward = transition.reward
            if reward != 0.0 and reward not in state["zset"].observed:
                state["zset"] = update_reward_set(state["zset"], reward)
            # Shaping cannot act before any genuine reward exists: the
            # candidate grid would still be the placeholder.
            if (params is not None and p_u > 0.0
                    and buffer.nonzero_reward_count > 0):
                state["shaped"] += shape_buffer(
                    params, buffer, state["zset"], lam, p_u,
                    streams["shaping"], config.beta,
                )
            slots = buffer.sample_slots(config.batch_size, streams["batch"])
            backbone_update(backbone, buffer.batch_arrays(slots),
                            config.backbone_lr, config.discount)

        transitions, ep_return = run_episode(
            env, backbone, epsilon, streams["action"], buffer=buffer,
            on_step=on_step,
        )
        total_transitions += len(transitions)
        if first_success is None and ep_return > 0.0:
            first_success = ep + 1

        breakdown = None
        if params is not None and config.estimator_steps > 0 and len(buffer) > 0:
            for _ in range(config.estimator_steps):
                slots = buffer.sample_slots(config.batch_size,
                                            streams["estimator_batch"])
                batch = buffer.batch_arrays(slots)
                aug_seed = int(streams["augment"].integers(2 ** 63))
                views = consistency_views(batch, pairing, aug_seed)
                dropout_rng = streams["dropout"] if config.train_dropout else None
                _, grad = total_loss(
                    params, batch, alpha, state["zset"], lam, config.beta,
                    sharpness=config.sigmoid_sharpness,
                    temperature=config.soft_select_temp, views=views,
                    mode="smooth", dropout_rng=dropout_rng,
                )
                if not config.monotonicity:
                    nz = batch.originals != 0.0
                    _, g_qv, _ = loss_qv(params, batch.subset(nz))
                    grad = grad - g_qv
                sgd_step(params, grad, config.estimator_lr)
                # Hard-mode values on the same batch and views for the
                # logged curves.
                breakdown, _ = total_loss(
                    params, batch, alpha, state["zset"], lam, config.beta,
                    sharpness=config.sigmoid_sharpness,
                    temperature=config.soft_select_temp, views=views,
                    mode="hard",
                )

        if ep % config.eval_interval == 0 or ep == horizon - 1:
            last_score, final_success = evaluate(eval_env, backbone,
                                                 config.eval_episodes)
        best_score = max(best_score, last_score)

        columns["scores"].append(last_score)
        columns["best"].append(best_score)
        columns["l_r"].append(breakdown.l_r if breakdown else 0.0)
        columns["l_qv"].append(breakdown.l_qv if breakdown else 0.0)
        columns["l_s"].append(breakdown.l_s if breakdown else 0.0)
        columns["gate_r"].append(breakdown.gate_pass["l_r"] if breakdown else 0)
        columns["gate_qv"].append(breakdown.gate_pass["l_qv"] if breakdown else 0)
        columns["gate_s"].append(breakdown.gate_pass["l_s"] if breakdown else 0)
        columns["lam"].append(lam)
        columns["alpha"].append(alpha)
        columns["p_u"].append(p_u)
        columns["shaped"].append(state["shaped"])
        columns["returns"].append(ep_return)
        columns["lengths"].append(len(transitions))

        if (out_dir is not None and config.checkpoint_interval > 0
                and (ep + 1) % config.checkpoint_interval == 0):
            save_buffer(buffer, out_dir / f"buffer_ep{ep + 1}.bin")
            if params is not None:
                save_params(params, out_dir / f"params_ep{ep + 1}.txt")

    record = RunRecord(
        seed=config.seed,
        config_hash=config_hash(config),
        episodes=np.arange(1, horizon + 1),
        scores=np.array(columns["scores"]),
        best=np.array(columns["best"]),
        l_r=np.array(columns["l_r"]),
        l_qv=np.array(columns["l_qv"]),
        l_s=np.array(columns["l_s"]),
        lam=np.array(columns["lam"]),
        alpha=np.array(columns["alpha"]),
        p_u=np.array(columns["p_u"]),
        shaped_count=np.array(columns["shaped"], dtype=int),
        gate_r=np.array(columns["gate_r"], dtype=int),
        gate_qv=np.array(columns["gate_qv"], dtype=int),
        gate_s=np.array(columns["gate_s"], dtype=int),
        returns=np.array(columns["returns"]),
        lengths=np.array(columns["lengths"], dtype=int),
        first_success_episode=first_success,
        final_success_rate=final_success,
        total_transitions=total_transitions,
    )
    assert record.total_transitions == int(record.lengths.sum())
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
