"""Estimator losses with hand-written backprop and smoothed surrogates.

Three components over a replay batch:

- supervised reward fit (``loss_r``): squared error between the observed
  nonzero reward and the selected candidate, gated on confidence;
- head ordering (``loss_qv``): squared hinge pushing every component of the
  state-action head at or below the state head;
- consistency (``loss_s``): cross-entropy between a confident weak-view
  pseudo-label and the strong-view confidence, gated on both views.

Hard mode evaluates the losses exactly as written (indicator gates, argmax
selection) and is what gets logged.  Smooth mode replaces indicators with
sigmoids and the argmax selection with a softmax-weighted average so the
gradient exists everywhere; those gradients are the ones used for training
and are checked against central finite differences in the test suite.

Each loss is one function returning (value, gradient, gate count).  The
gradient is a flat ndarray in ``params.flatten()`` order; hard mode returns
``None`` instead and runs no backward pass.  The confidence mix, hard and
soft selection and the confidence-gated pseudo-label come from
:mod:`ssrs.estimator`, so shaping and training share one definition of each.

The consistency term takes its weak/strong state views ready-made
(``consistency_views``), so one estimator step builds them once and its
smooth (training) and hard (logging) evaluations see the same views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .augment import row_views
from .core import RewardSet
from .estimator import (EstimatorParams, MlpNet, confidence_batch,
                        forward_heads, mix_heads, pseudo_label, select,
                        soft_select)

__all__ = [
    "LossBatch",
    "LossBreakdown",
    "loss_r",
    "loss_qv",
    "loss_s",
    "consistency_views",
    "total_loss",
    "sgd_step",
    "finite_diff_gradient",
]


class LossBatch(NamedTuple):
    """Arrays describing a batch of transitions for loss evaluation.

    ``originals`` carries the environment rewards before any shaping; for
    synthetic labeled data it equals ``rewards``.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    originals: np.ndarray

    @classmethod
    def from_arrays(cls, states, actions, rewards, next_states, originals=None):
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        next_states = np.atleast_2d(np.asarray(next_states, dtype=np.float64))
        if originals is None:
            originals = rewards
        originals = np.asarray(originals, dtype=np.float64).ravel()
        return cls(states, actions, rewards, next_states, originals)

    @classmethod
    def from_buffer_arrays(cls, arrays: dict) -> "LossBatch":
        return cls.from_arrays(
            arrays["states"], arrays["actions"], arrays["rewards"],
            arrays["next_states"], arrays["originals"],
        )

    def __len__(self) -> int:
        return self.states.shape[0]

    def subset(self, mask) -> "LossBatch":
        return LossBatch(self.states[mask], self.actions[mask],
                         self.rewards[mask], self.next_states[mask],
                         self.originals[mask])


@dataclass
class LossBreakdown:
    """Component values of one loss evaluation plus hard gate statistics."""

    l_r: float
    l_qv: float
    l_s: float
    total: float
    gate_pass: dict


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _assemble(params: EstimatorParams, q_pieces, v_pieces) -> np.ndarray:
    """Sum per-head backward results into one flat vector.

    q_pieces / v_pieces are lists of (cache, grad_out) pairs for the
    respective net; multiple pieces accumulate (the state-action head is
    evaluated once per view in the consistency loss).
    """
    q_flat = np.zeros(params.q_net.n_params)
    for cache, grad_out in q_pieces:
        q_flat += MlpNet.pack(*params.q_net.backward(cache, grad_out))
    v_flat = np.zeros(params.v_net.n_params)
    for cache, grad_out in v_pieces:
        v_flat += MlpNet.pack(*params.v_net.backward(cache, grad_out))
    return np.concatenate([q_flat, v_flat])


# ---------------------------------------------------------------------------
# supervised reward fit
# ---------------------------------------------------------------------------

def loss_r(params: EstimatorParams, batch: LossBatch, zset: RewardSet,
           threshold: float, mix: float, sharpness: float = 1.0,
           temperature: float = 0.1, mode: str = "hard", dropout_rng=None):
    """Supervised reward loss over nonzero-reward transitions.

    mean over the batch of gate * (r - selected)^2, where the gate passes
    when the confidence peak reaches the threshold.  Returns (value,
    gradient, gate count); the gradient is None in hard mode.
    """
    if np.any(batch.originals == 0.0):
        raise ValueError("supervised batch must contain only nonzero-reward transitions")
    n = len(batch)
    if n == 0:
        return 0.0, np.zeros(params.n_params), 0
    q, _, _, q_cache, v_cache = confidence_batch(
        params, batch.states, batch.actions, batch.next_states, mix, dropout_rng
    )
    arg, gate_on = pseudo_label(q, threshold)
    r = batch.originals
    gate_count = int(np.count_nonzero(gate_on))

    if mode == "hard":
        # Indicator gate is inclusive; the selection threshold is strict.
        value = float(np.mean(gate_on * (r - select(q, zset, threshold)) ** 2))
        return value, None, gate_count

    gate = _sigmoid(sharpness * (q.max(axis=1) - threshold))
    soft_sel, w = soft_select(q, zset, temperature)
    err = r - soft_sel
    value = float(np.mean(gate * err ** 2))

    # d value / d q, per sample:
    #   through the gate: sigmoid' * sharpness * err^2 at the argmax channel
    #   through the error: gate * 2 err * (-d soft_sel / d q)
    # with d soft_sel / d q_j = w_j (z_j - soft_sel) / temperature.
    dq = np.zeros_like(q)
    dq[np.arange(n), arg] += gate * (1.0 - gate) * sharpness * err ** 2 / n
    dq += ((2.0 * gate * err / n)[:, None]
           * (-(1.0 / temperature) * w * (zset.values[None, :] - soft_sel[:, None])))
    grad = _assemble(params, [(q_cache, mix * dq)], [(v_cache, (1.0 - mix) * dq)])
    return value, grad, gate_count


# ---------------------------------------------------------------------------
# head ordering hinge
# ---------------------------------------------------------------------------

def loss_qv(params: EstimatorParams, batch: LossBatch, dropout_rng=None,
            mode: str = "smooth"):
    """Squared hinge penalizing state-action head components that exceed the
    state head's, compared per candidate component.

    The hinge is already differentiable almost everywhere, so its value is
    the same in both modes; hard mode only skips the gradient.  Samples with
    every component at or below zero contribute no gradient.  Returns
    (value, gradient, count of samples with some positive component); the
    gradient is None in hard mode.
    """
    n = len(batch)
    if n == 0:
        return 0.0, np.zeros(params.n_params), 0
    # The ordering compares both heads on the *current* state.
    [(q_out, q_cache)], (v_out, v_cache) = forward_heads(
        params, [batch.states], batch.actions, batch.states, dropout_rng
    )
    delta = q_out - v_out
    positive = np.maximum(delta, 0.0)
    value = float((positive ** 2).sum() / n)
    gate_count = int(np.count_nonzero((delta > 0.0).any(axis=1)))
    if mode == "hard":
        return value, None, gate_count
    dq = 2.0 * positive / n
    grad = _assemble(params, [(q_cache, dq)], [(v_cache, -dq)])
    return value, grad, gate_count


# ---------------------------------------------------------------------------
# weak/strong consistency
# ---------------------------------------------------------------------------

def consistency_views(batch: LossBatch, pairing, augment_seed: int):
    """(weak, strong) state views of the batch's zero-reward transitions, in
    batch order: the views ``loss_s`` and ``total_loss`` consume.

    ``pairing`` is a (weak, strong) pair of :class:`~ssrs.augment.AugmentSpec`;
    each transition is augmented as its own one-row trajectory, reproducibly
    from ``augment_seed`` alone (see :func:`ssrs.augment.row_views`).
    """
    return row_views(pairing, batch.states[batch.originals == 0.0],
                     augment_seed)


def loss_s(params: EstimatorParams, batch: LossBatch, views,
           zset: RewardSet, threshold: float, mix: float,
           sharpness: float = 1.0, mode: str = "hard", dropout_rng=None):
    """Consistency loss over zero-reward transitions.

    ``views`` holds a weak and a strong state view of every transition, as
    ``consistency_views`` builds them; when both views are confident, the
    strong view is pulled toward the weak view's one-hot pseudo-label via
    cross-entropy.  Both views share one forward of the state head.  Returns
    (value, gradient, gate count); the gradient is None in hard mode.
    """
    if np.any(batch.originals != 0.0):
        raise ValueError("consistency batch must contain only zero-reward transitions")
    weak_states, strong_states = views
    if {weak_states.shape, strong_states.shape} != {batch.states.shape}:
        raise ValueError(
            f"views of shapes {weak_states.shape} and {strong_states.shape} "
            f"do not match the batch states {batch.states.shape}"
        )
    n = len(batch)
    if n == 0:
        return 0.0, np.zeros(params.n_params), 0
    [(qh_w, cache_w), (qh_s, cache_s)], (vh, cache_v) = forward_heads(
        params, [weak_states, strong_states], batch.actions, batch.next_states,
        dropout_rng,
    )
    if qh_w.shape[1] != zset.size:
        raise ValueError(
            f"estimator emits {qh_w.shape[1]} candidates but the reward set "
            f"holds {zset.size}"
        )
    q_w = mix_heads(qh_w, vh, mix)
    q_s = mix_heads(qh_s, vh, mix)

    rows = np.arange(n)
    label, on_w = pseudo_label(q_w, threshold)   # pseudo-label from the weak view
    arg_s, on_s = pseudo_label(q_s, threshold)
    p_label = q_s[rows, label]          # strong-view mass at the pseudo-label
    cross_ent = -np.log(p_label)
    both_on = on_w & on_s
    gate_count = int(np.count_nonzero(both_on))

    if mode == "hard":
        value = float(np.mean(both_on * cross_ent))
        return value, None, gate_count

    gate_w = _sigmoid(sharpness * (q_w.max(axis=1) - threshold))
    gate_s = _sigmoid(sharpness * (q_s.max(axis=1) - threshold))
    value = float(np.mean(gate_w * gate_s * cross_ent))

    # Gradients w.r.t. the two confidence vectors.  The pseudo-label index is
    # piecewise constant and treated as fixed; the weak view only contributes
    # through its gate.
    dq_w = np.zeros_like(q_w)
    dq_w[rows, label] += gate_s * gate_w * (1.0 - gate_w) * sharpness * cross_ent / n
    dq_s = np.zeros_like(q_s)
    dq_s[rows, arg_s] += gate_w * gate_s * (1.0 - gate_s) * sharpness * cross_ent / n
    dq_s[rows, label] += gate_w * gate_s * (-1.0 / p_label) / n

    grad = _assemble(
        params,
        [(cache_w, mix * dq_w), (cache_s, mix * dq_s)],
        [(cache_v, (1.0 - mix) * (dq_w + dq_s))],
    )
    return value, grad, gate_count


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------

def total_loss(params: EstimatorParams, batch: LossBatch, weight: float,
               zset: RewardSet, threshold: float, mix: float,
               sharpness: float = 1.0, temperature: float = 0.1, *,
               views, mode: str = "hard", dropout_rng=None):
    """Combined objective: l_qv + weight * l_s + (1 - weight) * l_r.

    The batch is partitioned by original reward: nonzero transitions feed
    the supervised and ordering terms, zero-reward transitions feed the
    consistency term, with ``views`` from ``consistency_views``.  Returns
    (LossBreakdown, gradient); the gradient is None in hard mode (the
    indicator gates have no useful derivative), which runs no backward pass.
    """
    nonzero = batch.originals != 0.0
    batch_nz = batch.subset(nonzero)
    batch_z = batch.subset(~nonzero)

    l_r, grad_r, gate_r = loss_r(params, batch_nz, zset, threshold, mix,
                                 sharpness, temperature, mode, dropout_rng)
    l_qv, grad_qv, gate_qv = loss_qv(params, batch_nz, dropout_rng, mode)
    l_s, grad_s, gate_s = loss_s(params, batch_z, views, zset, threshold,
                                 mix, sharpness, mode, dropout_rng)

    breakdown = LossBreakdown(
        l_r=l_r, l_qv=l_qv, l_s=l_s,
        total=l_qv + weight * l_s + (1.0 - weight) * l_r,
        gate_pass={"l_r": gate_r, "l_qv": gate_qv, "l_s": gate_s},
    )
    if mode == "hard":
        return breakdown, None
    return breakdown, grad_qv + weight * grad_s + (1.0 - weight) * grad_r


def sgd_step(params: EstimatorParams, grad: np.ndarray, lr: float) -> EstimatorParams:
    """In-place gradient descent step; rejects non-finite gradients."""
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient contains non-finite components")
    if grad.size != params.n_params:
        raise ValueError(
            f"gradient length {grad.size} does not match "
            f"{params.n_params} parameters"
        )
    params.load_flat(params.flatten() - lr * grad)
    return params


def finite_diff_gradient(loss_fn, params: EstimatorParams,
                         step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``loss_fn(params)`` over every
    parameter; restores the original parameters before returning."""
    base = params.flatten()
    grad = np.zeros_like(base)
    probe = base.copy()
    for i in range(base.size):
        probe[i] = base[i] + step
        params.load_flat(probe)
        up = loss_fn(params)
        probe[i] = base[i] - step
        params.load_flat(probe)
        down = loss_fn(params)
        probe[i] = base[i]
        grad[i] = (up - down) / (2.0 * step)
    params.load_flat(base)
    return grad
