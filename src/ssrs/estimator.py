"""Reward estimator: two softmax-headed MLPs over a fixed candidate grid.

One head scores state-action pairs (input: state concatenated with the
action vector), the other scores states alone (fed the successor state when
building confidence vectors).  Both heads emit a probability vector over the
reward candidate grid; the confidence vector is their convex combination.

This module holds the single, row-batched definition of each estimator
formula: the two-head forward (``forward_heads``), the confidence mix
(``mix_heads``, ``confidence_batch``), hard selection (``select``), its soft
surrogate (``soft_select``) and the confidence-gated pseudo-label
(``pseudo_label``).  Buffer shaping and the losses both build on them;
shaping keeps each slot's confidence vector in a ``ConfidenceCache`` until
the slot is overwritten or the parameters change.

The networks are plain numpy with hand-written backward passes so gradients
can be audited against finite differences.  All parameters live in one
vector, ``EstimatorParams.flat``, which every layer array views (layout at
:class:`MlpNet`), so an optimizer step is one in-place vector update.
"""

from __future__ import annotations

import numpy as np

from .core import ReplayBuffer, RewardSet, format_cell, format_floats

__all__ = [
    "MlpNet",
    "EstimatorParams",
    "forward_heads",
    "mix_heads",
    "confidence_batch",
    "select",
    "soft_select",
    "pseudo_label",
    "ConfidenceCache",
    "shape_buffer",
    "save_params",
    "load_params",
    "PARAMS_FORMAT_VERSION",
]

PARAMS_FORMAT_VERSION = 1
_DEFAULT_HIDDEN = (128, 64, 32)


def _relu(x):
    return np.maximum(x, 0.0)


def _softmax_rows(z):
    # Stable row-wise softmax.
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class MlpNet:
    """Dense stack with ReLU activations, inverted dropout between layers,
    a ReLU on the final dense layer, and a softmax over the outputs.

    The parameters live in one float64 vector ``flat`` (see
    :meth:`layer_views`); ``weights`` and ``biases`` are read-only tuples of
    views into it, so in-place writes to either side show in the other.

    ``forward`` returns the softmax output together with a cache that
    ``backward`` consumes; ``backward`` expects the gradient with respect to
    the softmax *output* and returns per-layer weight/bias gradients.
    """

    def __init__(self, layer_sizes, dropout: float = 0.2, input_scale: float = 1.0,
                 flat: np.ndarray | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout probability must sit in [0, 1)")
        self.layer_sizes = [int(n) for n in layer_sizes]
        self.dropout = float(dropout)
        self.input_scale = float(input_scale)
        sizes = self.layer_sizes
        n_params = sum(n_out * (n_in + 1) for n_in, n_out in zip(sizes, sizes[1:]))
        if flat is None:
            flat = np.zeros(n_params)
        elif flat.dtype != np.float64 or flat.shape != (n_params,):
            raise ValueError(f"expected a float64 vector of {n_params} "
                             f"parameters, got {flat.dtype} {flat.shape}")
        self.flat = flat
        self._weights, self._biases = self.layer_views(flat)

    @property
    def weights(self) -> tuple:
        return self._weights

    @property
    def biases(self) -> tuple:
        return self._biases

    @classmethod
    def create(cls, layer_sizes, rng: np.random.Generator,
               dropout: float = 0.2, input_scale: float = 1.0) -> "MlpNet":
        """He-normal initialization suited to the ReLU stack."""
        net = cls(layer_sizes, dropout=dropout, input_scale=input_scale)
        for w in net.weights:
            w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), size=w.shape)
        return net

    # -- forward / backward -------------------------------------------------

    def forward(self, x, rng: np.random.Generator | None = None):
        """Run the net on a batch of rows, shape (n, d_in).

        With a generator, inverted dropout (scale by 1/keep) is applied
        after every hidden activation, masks drawn from ``rng``; without
        one the pass is deterministic.
        """
        h = np.asarray(x, dtype=np.float64) * self.input_scale
        dropout = rng is not None and self.dropout > 0.0
        inputs, pre_acts, masks = [], [], []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(h)
            z = h @ w.T + b
            pre_acts.append(z)
            h = _relu(z)
            if i < last and dropout:
                keep = 1.0 - self.dropout
                mask = (rng.random(h.shape) < keep) / keep
                h = h * mask
            else:
                mask = None
            masks.append(mask)
        out = _softmax_rows(h)
        cache = {"inputs": inputs, "pre_acts": pre_acts, "masks": masks, "out": out}
        return out, cache

    def backward(self, cache, grad_out):
        """Backpropagate a gradient w.r.t. the softmax output.

        Returns (weight grads, bias grads) matching ``self.weights`` /
        ``self.biases`` in shape and order.
        """
        grad_out = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
        out = cache["out"]
        # softmax Jacobian: dz = p * (g - sum(g * p))
        inner = (grad_out * out).sum(axis=1, keepdims=True)
        dh = out * (grad_out - inner)
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            mask = cache["masks"][i]
            if mask is not None:
                dh = dh * mask
            dz = dh * (cache["pre_acts"][i] > 0.0)
            grads_w[i] = dz.T @ cache["inputs"][i]
            grads_b[i] = dz.sum(axis=0)
            if i > 0:
                dh = dz @ self.weights[i]
        return grads_w, grads_b

    # -- parameter vector ---------------------------------------------------

    @property
    def n_params(self) -> int:
        return self.flat.size

    def layer_views(self, vector: np.ndarray):
        """(weights, biases): per-layer views into a vector laid out like
        ``flat``, (W, b) per layer in layer order.  The one definition of
        that layout; gradients are assembled through it too."""
        weights, biases, pos = [], [], 0
        for n_in, n_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            weights.append(vector[pos:pos + n_out * n_in].reshape(n_out, n_in))
            pos += n_out * n_in
            biases.append(vector[pos:pos + n_out])
            pos += n_out
        return tuple(weights), tuple(biases)

    def backed_by(self, flat: np.ndarray) -> "MlpNet":
        """A net of the same shape whose parameters are ``flat`` itself (a
        float64 vector of ``n_params`` values, not copied)."""
        return MlpNet(self.layer_sizes, dropout=self.dropout,
                      input_scale=self.input_scale, flat=flat)

    def copy(self) -> "MlpNet":
        return self.backed_by(self.flat.copy())


class EstimatorParams:
    """The two estimator heads over one parameter vector.

    ``q_net`` consumes concat(state, action); ``v_net`` consumes a state.
    ``flat`` holds q_net's parameters then v_net's, and each head is backed
    by its slice, so an in-place update of ``flat`` (an SGD step) is an
    update of both heads.  Construction copies the given heads' values into
    a new ``flat``.
    """

    def __init__(self, q_net: MlpNet, v_net: MlpNet):
        self.flat = np.concatenate([q_net.flat, v_net.flat])
        split = q_net.flat.size
        self.q_net = q_net.backed_by(self.flat[:split])
        self.v_net = v_net.backed_by(self.flat[split:])

    @classmethod
    def create(cls, state_width: int, action_width: int, n_candidates: int,
               rng: np.random.Generator, hidden=_DEFAULT_HIDDEN,
               dropout: float = 0.2, input_scale: float = 1.0) -> "EstimatorParams":
        rng_q, rng_v = rng.spawn(2)
        q_net = MlpNet.create([state_width + action_width, *hidden, n_candidates],
                              rng_q, dropout=dropout, input_scale=input_scale)
        v_net = MlpNet.create([state_width, *hidden, n_candidates],
                              rng_v, dropout=dropout, input_scale=input_scale)
        return cls(q_net=q_net, v_net=v_net)

    @property
    def n_params(self) -> int:
        return self.flat.size

    def copy(self) -> "EstimatorParams":
        """An independent copy (shares no memory with this one)."""
        return EstimatorParams(q_net=self.q_net, v_net=self.v_net)


# ---------------------------------------------------------------------------
# confidence and selection (row-batched: q is (n, n_candidates))
# ---------------------------------------------------------------------------

def forward_heads(params: EstimatorParams, state_views, actions, v_states,
                  dropout_rng=None):
    """Forward of the state-action head on each state view, then of the state
    head on ``v_states``; every view shares the same action rows.

    Deterministic unless a dropout generator is supplied, in which case the
    heads draw live dropout masks in that order.  Returns ([(out, cache) per
    view], (v_out, v_cache)).
    """
    q_heads = [
        params.q_net.forward(np.concatenate([states, actions], axis=1),
                             dropout_rng)
        for states in state_views
    ]
    return q_heads, params.v_net.forward(v_states, dropout_rng)


def mix_heads(q_out, v_out, mix: float):
    """Confidence vectors from head outputs: mix * Q + (1 - mix) * V."""
    return mix * q_out + (1.0 - mix) * v_out


def confidence_batch(params: EstimatorParams, states, actions, next_states,
                     mix: float, dropout_rng=None):
    """Confidence vectors for a batch, plus head outputs and caches.

    mix is the convex weight on the state-action head:
    q = mix * Q(s, a) + (1 - mix) * V(s').  Eval mode unless a dropout
    generator is supplied.  Returns (q, q_head_out, v_head_out, q_cache,
    v_cache).
    """
    [(q_out, q_cache)], (v_out, v_cache) = forward_heads(
        params, [states], actions, next_states, dropout_rng)
    return mix_heads(q_out, v_out, mix), q_out, v_out, q_cache, v_cache


def select(q, zset: RewardSet, threshold: float) -> np.ndarray:
    """Hard reward selection per row: the candidate at the confidence peak
    when the peak strictly exceeds the threshold, else 0 (ties pick the
    lowest index)."""
    return np.where(q.max(axis=1) > threshold, zset.values[q.argmax(axis=1)],
                    0.0)


def soft_select(q, zset: RewardSet, temperature: float):
    """Differentiable surrogate for :func:`select`, per row.

    Returns (sum_i w_i z_i, w) with w = softmax(q / temperature); the value
    approaches the argmax candidate as the temperature shrinks.  The gate is
    not applied here; the smoothed losses carry it as a sigmoid factor.
    """
    w = _softmax_rows(q / temperature)
    return w @ zset.values, w


def pseudo_label(q, threshold: float):
    """Confidence-gated pseudo-labels, per row: (index of the confidence
    peak, whether the peak reaches the threshold).

    The gate is inclusive (peak >= threshold), unlike the strict gate of
    :func:`select`.
    """
    return q.argmax(axis=1), q.max(axis=1) >= threshold


# ---------------------------------------------------------------------------
# buffer shaping
# ---------------------------------------------------------------------------

class ConfidenceCache:
    """Confidence vectors of a buffer's slots, kept while the estimator
    parameters stay the same.

    A slot's vector depends only on the parameters, the confidence mix and
    the slot's state, action and next state; not on its stored reward, the
    threshold or the candidate set.  The owner calls :meth:`forget` when a
    push overwrites a slot and :meth:`clear` after every parameter update,
    and passes one mix to every :func:`shape_buffer` call.
    """

    def __init__(self, capacity: int, n_candidates: int):
        self.values = np.zeros((capacity, n_candidates))
        self.fresh = np.zeros(capacity, dtype=bool)

    def forget(self, slot: int):
        self.fresh[slot] = False

    def clear(self):
        self.fresh[:] = False


def shape_buffer(params: EstimatorParams, buffer: ReplayBuffer, zset: RewardSet,
                 threshold: float, visit_fraction: float,
                 rng: np.random.Generator, mix: float,
                 cache: ConfidenceCache) -> int:
    """Rewrite a random fraction of zero-original-reward entries.

    floor(visit_fraction * #candidates) entries are drawn without
    replacement; each visited entry's stored reward becomes the hard
    selection of its confidence vector.  Entries whose selection is 0 are
    reverted to unshaped.  Only visited entries without a fresh vector in
    ``cache`` are scored (in draw order); their vectors are stored there.
    Returns the number of entries left shaped.
    """
    candidates = buffer.zero_reward_slots()
    k = int(visit_fraction * candidates.size)
    if k <= 0:
        return 0
    chosen = candidates[rng.choice(candidates.size, size=k, replace=False)]
    stale = chosen[~cache.fresh[chosen]]
    if stale.size:
        batch = buffer.batch_arrays(stale)
        q, _, _, _, _ = confidence_batch(params, batch.states, batch.actions,
                                         batch.next_states, mix)
        cache.values[stale] = q
        cache.fresh[stale] = True
    values = select(cache.values[chosen], zset, threshold)
    buffer.set_reward(chosen, values)
    return int(np.count_nonzero(values))


# ---------------------------------------------------------------------------
# parameter checkpoints
# ---------------------------------------------------------------------------
#
# Text format, one value per whitespace-separated token, 17 significant
# digits (lossless for float64):
#
#   reward-estimator-params v<version>
#   net <name> scale <input_scale> dropout <p> layers <k>
#   layer <out> <in>
#   <in floats>          (one line per weight row, row-major)
#   ...
#   bias
#   <out floats>
#   ... next layer / next net ...

def save_params(params: EstimatorParams, path):
    lines = [f"reward-estimator-params v{PARAMS_FORMAT_VERSION}"]
    for name, net in (("q", params.q_net), ("v", params.v_net)):
        lines.append(
            f"net {name} scale {format_cell(net.input_scale)} "
            f"dropout {format_cell(net.dropout)} layers {len(net.weights)}"
        )
        for w, b in zip(net.weights, net.biases):
            lines.append(f"layer {w.shape[0]} {w.shape[1]}")
            lines.extend(map(format_floats, w))
            lines.append("bias")
            lines.append(format_floats(b))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path) -> EstimatorParams:
    """Read a checkpoint written by :func:`save_params`.

    Truncated or malformed input raises ValueError naming the file and the
    line where parsing stopped.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not a parameter checkpoint") from None
    if not lines or not lines[0].startswith("reward-estimator-params v"):
        raise ValueError(f"{path}: not a parameter checkpoint")
    version = lines[0].rsplit("v", 1)[1]
    if version != str(PARAMS_FORMAT_VERSION):
        raise ValueError(f"{path}: unsupported parameter format version {version}")
    pos = 1
    nets = {}
    try:
        while pos < len(lines) and lines[pos]:
            tag, name, _, input_scale, _, dropout, _, n_layers = lines[pos].split()
            if tag != "net" or int(n_layers) < 1:
                raise ValueError("expected a net header with at least one layer")
            pos += 1
            weights, biases = [], []
            for _ in range(int(n_layers)):
                tag, out_n, in_n = lines[pos].split()
                if tag != "layer":
                    raise ValueError("expected a layer header")
                out_n, in_n = int(out_n), int(in_n)
                if weights and in_n != weights[-1].shape[0]:
                    raise ValueError("layer width does not chain to the previous layer")
                pos += 1
                w = np.array(
                    [[float(v) for v in lines[pos + r].split()] for r in range(out_n)]
                ).reshape(out_n, in_n)
                pos += out_n
                if lines[pos] != "bias":
                    raise ValueError("expected a bias marker")
                pos += 1
                b = np.array([float(v) for v in lines[pos].split()])
                if b.shape != (out_n,):
                    raise ValueError(f"expected {out_n} bias values")
                pos += 1
                weights.append(w)
                biases.append(b)
            sizes = [weights[0].shape[1]] + [w.shape[0] for w in weights]
            net = MlpNet(sizes, dropout=float(dropout), input_scale=float(input_scale))
            for dst, src in zip(net.weights + net.biases, weights + biases):
                dst[...] = src
            nets[name] = net
    except IndexError:
        raise ValueError(f"{path}: truncated in the block at line {pos + 1}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: line {pos + 1}: {exc}") from None
    if set(nets) != {"q", "v"}:
        raise ValueError(f"{path}: checkpoint must contain exactly nets 'q' and 'v'")
    return EstimatorParams(q_net=nets["q"], v_net=nets["v"])
