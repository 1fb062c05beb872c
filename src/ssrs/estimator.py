"""Reward estimator: two softmax-headed MLPs over a fixed candidate grid.

One head scores state-action pairs (input: state concatenated with the
action vector), the other scores states alone (fed the successor state when
building confidence vectors).  Both heads emit a probability vector over the
reward candidate grid; the confidence vector is their convex combination.

This module holds the single, row-batched definition of each estimator
formula: the two-head forward (``forward_heads``), the confidence mix
(``mix_heads``, ``confidence_batch``), hard selection (``select``), its soft
surrogate (``soft_select``) and the confidence-gated pseudo-label
(``pseudo_label``).  Buffer shaping and the losses both build on them.

The networks are plain numpy with hand-written backward passes so gradients
can be audited against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ReplayBuffer, RewardSet, format_cell

__all__ = [
    "MlpNet",
    "EstimatorParams",
    "forward_heads",
    "mix_heads",
    "confidence_batch",
    "select",
    "soft_select",
    "pseudo_label",
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

    ``forward`` returns the softmax output together with a cache that
    ``backward`` consumes; ``backward`` expects the gradient with respect to
    the softmax *output* and returns per-layer weight/bias gradients.
    """

    def __init__(self, layer_sizes, dropout: float = 0.2, input_scale: float = 1.0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout probability must sit in [0, 1)")
        self.layer_sizes = [int(n) for n in layer_sizes]
        self.dropout = float(dropout)
        self.input_scale = float(input_scale)
        self.weights = [
            np.zeros((self.layer_sizes[i + 1], self.layer_sizes[i]))
            for i in range(len(self.layer_sizes) - 1)
        ]
        self.biases = [np.zeros(n) for n in self.layer_sizes[1:]]

    @classmethod
    def create(cls, layer_sizes, rng: np.random.Generator,
               dropout: float = 0.2, input_scale: float = 1.0) -> "MlpNet":
        """He-normal initialization suited to the ReLU stack."""
        net = cls(layer_sizes, dropout=dropout, input_scale=input_scale)
        for i, w in enumerate(net.weights):
            fan_in = w.shape[1]
            net.weights[i] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=w.shape)
        return net

    # -- forward / backward -------------------------------------------------

    def forward(self, x, train: bool = False, rng: np.random.Generator | None = None):
        """Run the net on a batch (n, d_in) or a single vector.

        In train mode, inverted dropout (scale by 1/keep at train time) is
        applied after every hidden activation; eval mode is deterministic.
        """
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        h = np.atleast_2d(x) * self.input_scale
        if train and self.dropout > 0.0 and rng is None:
            raise ValueError("train-mode forward needs a generator for dropout masks")
        inputs, pre_acts, masks = [], [], []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(h)
            z = h @ w.T + b
            pre_acts.append(z)
            h = _relu(z)
            if i < last and train and self.dropout > 0.0:
                keep = 1.0 - self.dropout
                mask = (rng.random(h.shape) < keep) / keep
                h = h * mask
            else:
                mask = None
            masks.append(mask)
        out = _softmax_rows(h)
        cache = {"inputs": inputs, "pre_acts": pre_acts, "masks": masks, "out": out}
        if squeeze:
            return out[0], cache
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
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    @staticmethod
    def pack(weights, biases) -> np.ndarray:
        """Concatenate per-layer arrays in flattening order, (W, b) per layer.

        Packs the parameters themselves or the (weight grads, bias grads)
        that :meth:`backward` returns.
        """
        return np.concatenate([part.ravel() for layer in zip(weights, biases)
                               for part in layer])

    def flatten(self) -> np.ndarray:
        return self.pack(self.weights, self.biases)

    def load_flat(self, flat: np.ndarray):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {flat.size}")
        pos = 0
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = flat[pos:pos + w.size].reshape(w.shape).copy()
            pos += w.size
            self.biases[i] = flat[pos:pos + b.size].copy()
            pos += b.size

    def copy(self) -> "MlpNet":
        dup = MlpNet(self.layer_sizes, dropout=self.dropout,
                     input_scale=self.input_scale)
        dup.weights = [w.copy() for w in self.weights]
        dup.biases = [b.copy() for b in self.biases]
        return dup


@dataclass
class EstimatorParams:
    """The two estimator heads.

    ``q_net`` consumes concat(state, action); ``v_net`` consumes a state.
    Flattening order is q_net then v_net, each as (W, b) per layer.
    """

    q_net: MlpNet
    v_net: MlpNet

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
        return self.q_net.n_params + self.v_net.n_params

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.q_net.flatten(), self.v_net.flatten()])

    def load_flat(self, flat: np.ndarray):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {flat.size}")
        split = self.q_net.n_params
        self.q_net.load_flat(flat[:split])
        self.v_net.load_flat(flat[split:])

    def copy(self) -> "EstimatorParams":
        return EstimatorParams(q_net=self.q_net.copy(), v_net=self.v_net.copy())


# ---------------------------------------------------------------------------
# confidence and selection (row-batched: q is (n, n_candidates))
# ---------------------------------------------------------------------------

def forward_heads(params: EstimatorParams, state_views, actions, v_states,
                  dropout_rng=None):
    """Forward of the state-action head on each state view, then of the state
    head on ``v_states``; every view shares the same action rows.

    Eval mode unless a dropout generator is supplied, in which case the heads
    draw live dropout masks in that order.  Returns ([(out, cache) per
    view], (v_out, v_cache)).
    """
    train = dropout_rng is not None
    q_heads = [
        params.q_net.forward(np.concatenate([states, actions], axis=1),
                             train=train, rng=dropout_rng)
        for states in state_views
    ]
    return q_heads, params.v_net.forward(v_states, train=train, rng=dropout_rng)


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

def shape_buffer(params: EstimatorParams, buffer: ReplayBuffer, zset: RewardSet,
                 threshold: float, visit_fraction: float,
                 rng: np.random.Generator, mix: float) -> int:
    """Rewrite a random fraction of zero-original-reward entries.

    floor(visit_fraction * #candidates) entries are drawn without
    replacement; each visited entry's stored reward becomes the hard
    selection of its confidence vector.  Entries whose selection is 0 are
    reverted to unshaped.  Returns the number of entries left shaped.
    """
    candidates = buffer.zero_reward_slots()
    k = int(visit_fraction * candidates.size)
    if k <= 0:
        return 0
    chosen = candidates[rng.choice(candidates.size, size=k, replace=False)]
    batch = buffer.batch_arrays(chosen)
    q, _, _, _, _ = confidence_batch(
        params, batch["states"], batch["actions"], batch["next_states"], mix
    )
    values = select(q, zset, threshold)
    shaped = values != 0.0
    buffer.set_reward(chosen, values, shaped)
    return int(np.count_nonzero(shaped))


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
            for row in w:
                lines.append(" ".join(format_cell(v) for v in row))
            lines.append("bias")
            lines.append(" ".join(format_cell(v) for v in b))
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
            net.weights = weights
            net.biases = biases
            nets[name] = net
    except IndexError:
        raise ValueError(f"{path}: truncated in the block at line {pos + 1}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: line {pos + 1}: {exc}") from None
    if set(nets) != {"q", "v"}:
        raise ValueError(f"{path}: checkpoint must contain exactly nets 'q' and 'v'")
    return EstimatorParams(q_net=nets["q"], v_net=nets["v"])
