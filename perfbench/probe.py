"""In-process instrumentation for one benchmark unit.

``install()`` wraps ``ssrs.training.train`` and ``write_run_outputs`` so the
benchmark can time them from outside the program.  With tracing on it also
wraps the public functions of every layer module in spans (name, start, end,
parent) plus exact counters.  Spans stay in memory; ``dump()`` writes them and
the counters once, to ``<PERFBENCH_PROBE_DIR>/proc_<pid>.json``, when the
process exits.

Environment:
  PERFBENCH_PROBE_DIR   directory for the per-process record (required)
  PERFBENCH_TRACE       "1" turns on spans and counters
  PERFBENCH_SETUP_ONLY  "1" stops the process at the call into ``train()``
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


class SetupOnly(Exception):
    """Raised at the call into train() when only set-up is being timed."""


class Recorder:
    """Spans, counters and train() timings of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []   # (name id, start, end, parent index)
        self.stack: list[int] = []     # indices of open spans
        self.counts: dict[str, float] = {}
        self.train_calls: list[dict] = []
        self.write_s: list[float] = []

    def count(self, name: str, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name: str, fn):
        """Wrap ``fn`` so every call records one span named ``name``."""
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)

        return wrapper

    def dump(self):
        payload = {
            "train": self.train_calls,
            "write_s": self.write_s,
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
        }
        path = self.out_dir / f"proc_{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)


def _rebind(old, new):
    """Point every ssrs module global that holds ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if name == "ssrs" or name.startswith("ssrs."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def _wrap_function(rec: Recorder, module, attr: str, name: str, after=None):
    old = getattr(module, attr)
    inner = rec.span(name, old)
    if after is None:
        new = inner
    else:
        @functools.wraps(old)
        def new(*args, **kwargs):
            result = inner(*args, **kwargs)
            after(result, *args, **kwargs)
            return result
    _rebind(old, new)


def _wrap_method(rec: Recorder, cls, attr: str, name: str, before=None):
    old = getattr(cls, attr)
    inner = rec.span(name, old)
    if before is None:
        setattr(cls, attr, inner)
        return

    @functools.wraps(old)
    def new(*args, **kwargs):
        before(*args, **kwargs)
        return inner(*args, **kwargs)

    setattr(cls, attr, new)


def _count_method(rec: Recorder, cls, attr: str, name: str):
    """Count calls without timing them (called ~10^5+ times per run)."""
    old = getattr(cls, attr)
    counts = rec.counts

    @functools.wraps(old)
    def new(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return old(*args, **kwargs)

    setattr(cls, attr, new)


def _forward_flop(net) -> int:
    sizes = net.layer_sizes
    return sum(2 * sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1))


def _install_trace(rec: Recorder):
    from ssrs import augment, cli, core, envs, estimator, losses, training

    count = rec.count

    # training
    for attr in ("run_episode", "backbone_update", "evaluate"):
        _wrap_function(rec, training, attr, f"training.{attr}")
    # envs: step is timed; state_id_of is counted only
    for cls in (envs.SparseChain, envs.KeyDoorGrid):
        _wrap_method(rec, cls, "step", "envs.step")
        _count_method(rec, cls, "state_id_of", "envs.state_id_of.calls")
    # core
    buf = core.ReplayBuffer
    _wrap_method(rec, buf, "push", "core.push")
    _wrap_method(rec, buf, "sample_slots", "core.sample_slots")
    _wrap_method(rec, buf, "zero_reward_slots", "core.zero_reward_slots")
    _wrap_method(rec, buf, "batch_arrays", "core.batch_arrays",
                 before=lambda self, slots: count("core.batch_arrays.rows",
                                                  len(slots)))
    _count_method(rec, buf, "set_reward", "core.set_reward.calls")
    _wrap_function(rec, core, "save_buffer", "core.save_buffer",
                   after=lambda _r, _b, path: count(
                       "core.save_buffer.bytes", os.path.getsize(path)))
    # estimator: rows visited follow shape_buffer's contract, floor(visit
    # fraction x zero-reward entries), so they do not depend on how it works
    def _shaped(shaped, params, buffer, zset, threshold, visit_fraction,
                *args, **kwargs):
        zero = len(buffer) - buffer.nonzero_reward_count
        count("estimator.shape_buffer.rows_visited",
              max(int(visit_fraction * zero), 0))
        count("estimator.shape_buffer.writes", shaped)

    _wrap_function(rec, estimator, "shape_buffer", "estimator.shape_buffer",
                   after=_shaped)

    def _forward_rows(net, x, *args, **kwargs):
        rows = 1 if getattr(x, "ndim", 2) == 1 else len(x)
        count("estimator.mlp_forward.rows", rows)
        count("estimator.mlp_forward.flop", rows * _forward_flop(net))

    def _backward_rows(net, cache, grad_out):
        count("estimator.mlp_backward.rows", len(cache["out"]))

    _wrap_method(rec, estimator.MlpNet, "forward", "estimator.mlp_forward",
                 before=_forward_rows)
    _wrap_method(rec, estimator.MlpNet, "backward", "estimator.mlp_backward",
                 before=_backward_rows)
    _wrap_function(rec, estimator, "save_params", "estimator.save_params",
                   after=lambda _r, _p, path: count(
                       "estimator.save_params.bytes", os.path.getsize(path)))
    # losses: total_loss is split by mode (smooth trains, hard is logging)
    total_loss = losses.total_loss
    smooth = rec.span("losses.total_loss.smooth", total_loss)
    hard = rec.span("losses.total_loss.hard", total_loss)

    @functools.wraps(total_loss)
    def split_total_loss(*args, **kwargs):
        if kwargs.get("mode", "hard") == "smooth":
            return smooth(*args, **kwargs)
        return hard(*args, **kwargs)

    _rebind(total_loss, split_total_loss)
    _wrap_function(rec, losses, "sgd_step", "losses.sgd_step")
    # augment
    _wrap_function(rec, augment, "weak_strong_pair", "augment.weak_strong_pair")
    # cli: the orchestrator's wall per seed worker, start-up included
    _wrap_function(rec, cli, "main", "cli.main")
    run_seed = rec.span("cli.seed_worker", subprocess.run)

    class _Subprocess:
        run = staticmethod(run_seed)

        def __getattr__(self, attr):
            return getattr(subprocess, attr)

    cli.subprocess = _Subprocess()


def install() -> Recorder:
    """Wrap ssrs for this process, as the environment asks (see the module
    docstring), and register the dump at exit."""
    rec = Recorder(Path(os.environ["PERFBENCH_PROBE_DIR"]))
    trace = os.environ.get("PERFBENCH_TRACE") == "1"
    setup_only = os.environ.get("PERFBENCH_SETUP_ONLY") == "1"

    import ssrs.cli  # noqa: F401  (imports every layer module)
    from ssrs import training

    if trace:
        _install_trace(rec)
        train_inner = rec.span("training.train", training.train)
        write_inner = rec.span("training.write_run_outputs",
                               training.write_run_outputs)
    else:
        train_inner = training.train
        write_inner = training.write_run_outputs
    old_train, old_write = training.train, training.write_run_outputs

    @functools.wraps(old_train)
    def train(*args, **kwargs):
        enter = clock()
        if setup_only:
            rec.train_calls.append({"enter": enter, "s": 0.0, "transitions": 0})
            raise SetupOnly("set-up timed; training skipped")
        result = train_inner(*args, **kwargs)
        rec.train_calls.append({"enter": enter, "s": clock() - enter,
                                "transitions": result[0].total_transitions})
        return result

    @functools.wraps(old_write)
    def write_run_outputs(*args, **kwargs):
        start = clock()
        try:
            return write_inner(*args, **kwargs)
        finally:
            rec.write_s.append(clock() - start)

    _rebind(old_train, train)
    _rebind(old_write, write_run_outputs)
    atexit.register(rec.dump)
    return rec
