"""Reward estimator: two softmax-headed MLPs over a fixed candidate grid.

One head scores state-action pairs (input: state concatenated with the
action vector), the other scores states alone (fed the successor state when
building confidence vectors).  Both heads emit a probability vector over the
reward candidate grid; the confidence vector is their convex combination.

This module holds the single, row-batched definition of each estimator
formula: the two-head forward (``forward_heads``), the confidence mix
(``mix_heads``), hard selection (``select``), its soft surrogate
(``soft_select``) and the confidence-gated pseudo-label (``pseudo_label``).
Buffer shaping and the losses both build on them.
Shaping scores each distinct input of the replay buffer at most once
between parameter updates, through a :class:`ConfidenceCache`.  The state
head runs first, and the state-action head only on entries whose
state-head bound leaves a candidate able to beat the threshold.

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


def _softmax_rows(z):
    # Stable row-wise softmax, into one new array.
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


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
        if not np.isfinite(input_scale):
            raise ValueError("input scale must be finite")
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
        inputs, acts, masks = [], [], []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(h)
            h = h @ w.T
            h += b
            np.maximum(h, 0.0, out=h)
            acts.append(h)
            if i < last and dropout:
                keep = 1.0 - self.dropout
                mask = (rng.random(h.shape) < keep) / keep
                h = h * mask
            else:
                mask = None
            masks.append(mask)
        out = _softmax_rows(h)
        cache = {"inputs": inputs, "acts": acts, "masks": masks, "out": out}
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
            # relu(z) > 0 exactly where z > 0
            dz = dh * (cache["acts"][i] > 0.0)
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


# ---------------------------------------------------------------------------
# confidence and selection (row-batched: q is (n, n_candidates))
# ---------------------------------------------------------------------------

def _state_action_input(states, actions):
    """The state-action head's input rows: each state followed by its
    action vector."""
    return np.concatenate([states, actions], axis=1)


def forward_heads(params: EstimatorParams, state_views, actions, v_states,
                  dropout_rng=None):
    """Forward of the state-action head on each state view, then of the state
    head on ``v_states``; every view shares the same action rows.

    Deterministic unless a dropout generator is supplied, in which case the
    heads draw live dropout masks in that order.  Returns ([(out, cache) per
    view], (v_out, v_cache)).
    """
    q_heads = [
        params.q_net.forward(_state_action_input(states, actions), dropout_rng)
        for states in state_views
    ]
    return q_heads, params.v_net.forward(v_states, dropout_rng)


def mix_heads(q_out, v_out, mix: float):
    """Confidence vectors from head outputs: mix * Q + (1 - mix) * V."""
    return mix * q_out + (1.0 - mix) * v_out


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

class _HeadOutputs:
    """One head's output vectors, packed.

    ``row_of`` maps an input code to the row of ``values`` that holds its
    vector, or to -1 while the code is unscored; it is int32 and as long as
    the largest code seen plus one.  ``values`` holds the vectors in
    scoring order, in its first ``n`` rows.
    """

    def __init__(self):
        self.row_of = np.empty(0, dtype=np.int32)
        self.values = None
        self.n = 0

    def outputs(self, codes: np.ndarray, score) -> np.ndarray:
        """The vector of each entry of ``codes``.  ``score`` is called once,
        on the ascending distinct codes without a vector, and returns one
        row per code it is given; nothing is called when there are none."""
        top = int(codes.max())
        if top >= self.row_of.size:
            row_of = np.full(top + 1, -1, dtype=np.int32)
            row_of[:self.row_of.size] = self.row_of
            self.row_of = row_of
        at = self.row_of[codes]
        stale = at < 0
        if stale.any():
            # np.unique, without its per-call overhead
            distinct = np.sort(codes[stale])
            first = np.empty(distinct.size, dtype=bool)
            first[0] = True
            np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
            distinct = distinct[first]
            scored = score(distinct)
            start, end = self.n, self.n + distinct.size
            if self.values is None or end > len(self.values):
                values = np.empty((max(end, 2 * start), scored.shape[1]))
                if start:
                    values[:start] = self.values[:start]
                self.values = values
            self.values[start:end] = scored
            self.row_of[distinct] = np.arange(start, end, dtype=np.int32)
            self.n = end
            at = self.row_of[codes]
        return self.values[at]


class ConfidenceCache:
    """Head outputs of a buffer's distinct shaping inputs since the last
    parameter update.

    The state head's output is kept per next-state code, and the
    state-action head's per ``state code * n_actions + action index``, as
    ``ReplayBuffer.codes_at`` gives them.  A head output depends only on the
    parameters and its input; not on the slot, its stored reward, the mix,
    the threshold or the candidate set.  A code names one input for as long
    as the buffer's row source lives, so every slot holding an input shares
    one vector, and a push needs no bookkeeping.  Per head a code costs 4 B
    up to the largest code seen, and each input scored since the last
    :meth:`clear` one vector of ``n_z`` floats, in an array that keeps room
    for at most twice the most inputs scored between two clears.  A vector
    is computed only when a pass asks for it, so a pair whose entries the
    state-head bound prunes stays unscored until a later pass needs it.
    The owner calls :meth:`clear` after every parameter update.  One cache
    serves one buffer.
    """

    def __init__(self):
        self.q = _HeadOutputs()
        self.v = _HeadOutputs()

    def clear(self):
        """Forget every stored vector: both heads unmap every code."""
        for head in (self.q, self.v):
            head.row_of.fill(-1)
            head.n = 0


def shape_buffer(params: EstimatorParams, buffer: ReplayBuffer, zset: RewardSet,
                 threshold: float, visit_fraction: float,
                 rng: np.random.Generator, mix: float,
                 cache: ConfidenceCache) -> int:
    """Rewrite a random fraction of zero-original-reward entries.

    floor(visit_fraction * #candidates) entries are drawn without
    replacement; each visited entry's stored reward becomes the hard
    selection of its confidence vector.  Entries whose selection is 0 are
    reverted to unshaped.  ``mix`` and ``visit_fraction`` must lie in
    [0, 1].

    The state head runs first.  A softmax output is at most 1, and float
    rounding is monotone, so with mix in [0, 1] the mixed confidence of
    every candidate is at most ``mix_heads(1.0, max(V), mix)`` as floats:
    the mix with the state-action head at its ceiling.  An
    entry whose bound does not beat the threshold (or is NaN) selects 0
    whatever its state-action output, so only the other entries run the
    state-action head, and none does when none is left.  Each head scores
    only the distinct inputs it is asked for that have no vector in
    ``cache``, in one forward pass, and stores them there.  A forward's
    last bits depend on how many rows it is given, so the selections match
    scoring every drawn entry with both heads unless a confidence lies
    within rounding of the threshold or of a tie.  Returns the number of
    entries left shaped.
    """
    if not 0.0 <= mix <= 1.0:
        raise ValueError(f"mix must lie in [0, 1], got {mix}")
    if not 0.0 <= visit_fraction <= 1.0:
        raise ValueError(
            f"visit_fraction must lie in [0, 1], got {visit_fraction}")
    candidates = buffer.zero_reward_slots()
    k = int(visit_fraction * candidates.size)
    if k <= 0:
        return 0
    chosen = candidates[rng.choice(candidates.size, size=k, replace=False)]
    states, actions, next_states = buffer.codes_at(chosen)
    rows = buffer.rows
    v_out = cache.v.outputs(
        next_states,
        lambda codes: params.v_net.forward(rows.observations(codes))[0])
    live = mix_heads(1.0, v_out.max(axis=1), mix) > threshold
    values = np.zeros(k)
    if live.any():
        n_actions = rows.n_actions
        q_out = cache.q.outputs(
            states[live] * n_actions + actions[live],
            lambda pairs: params.q_net.forward(_state_action_input(
                rows.observations(pairs // n_actions),
                rows.action_vectors(pairs % n_actions)))[0])
        values[live] = select(mix_heads(q_out, v_out[live], mix), zset,
                              threshold)
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
    line where parsing stopped: a non-finite value, a blank line, a header
    not of the form above, a net other than ``q`` or ``v``, or a repeated
    net.  A net's bad scale or dropout, a candidate count unlike the other
    net's, or a ``q`` input no wider than ``v``'s (it takes the state and
    an action) is reported at that net's header line.
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

    def values(n):
        """The n finite floats of the line at ``pos``, which moves past it."""
        nonlocal pos
        row = np.array([float(v) for v in lines[pos].split()])
        if row.shape != (n,) or not np.isfinite(row).all():
            raise ValueError(f"expected {n} finite values")
        pos += 1
        return row

    try:
        while pos < len(lines):
            header = pos
            fields = lines[pos].split()
            if (len(fields) != 8
                    or fields[0::2] != ["net", "scale", "dropout", "layers"]
                    or int(fields[7]) < 1):
                raise ValueError("expected a net header with at least one layer")
            _, name, _, input_scale, _, dropout, _, n_layers = fields
            if name not in ("q", "v"):
                raise ValueError(f"expected net 'q' or 'v', got {name!r}")
            if name in nets:
                raise ValueError(f"net {name!r} appears twice")
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
                weights.append(np.reshape([values(in_n) for _ in range(out_n)],
                                          (out_n, in_n)))
                if lines[pos] != "bias":
                    raise ValueError("expected a bias marker")
                pos += 1
                biases.append(values(out_n))
            sizes = [weights[0].shape[1]] + [w.shape[0] for w in weights]
            # A bad scale, dropout, candidate count or width is its header's.
            pos, end = header, pos
            net = MlpNet(sizes, dropout=float(dropout), input_scale=float(input_scale))
            for other, seen in nets.items():
                if seen.layer_sizes[-1] != sizes[-1]:
                    raise ValueError(
                        f"net {name!r} emits {sizes[-1]} candidates, net "
                        f"{other!r} {seen.layer_sizes[-1]}")
                width = {name: sizes[0], other: seen.layer_sizes[0]}
                if width["q"] <= width["v"]:
                    raise ValueError(f"net 'q' takes {width['q']} inputs, net "
                                     f"'v' {width['v']}; q must take more")
            pos = end
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
