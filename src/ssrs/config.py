"""Run configuration: typed defaults, strict text parsing, serialization.

Config files are plain ``key = value`` lines; ``#`` starts a comment and
blank lines are ignored.  Dotted keys address the nested sections
(``env.…``, ``augment.…``).  Unknown keys, malformed values, non-finite
numbers and out-of-range values are rejected with the offending line number.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

from .augment import PAIRINGS, AugmentSpec
from .envs import KINDS as ENV_KINDS, make_env

__all__ = [
    "ConfigError",
    "AugmentConfig",
    "EnvConfig",
    "RunConfig",
    "parse_config",
    "serialize_config",
    "apply_overrides",
    "config_hash",
]


class ConfigError(ValueError):
    """Invalid configuration text; carries the line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class AugmentConfig:
    pairing: str = "ssrs_s"
    gaussian_sigma: float = 0.1
    cutout_n: int = 0          # 0 derives the width from the state size
    smooth_n: int = 3
    partitions: int = 8


@dataclass
class EnvConfig:
    kind: str = "sparse_chain"
    length: int = 20
    max_steps: int = 100
    width: int = 5
    height: int = 5
    key_x: int = 4
    key_y: int = 0
    door_x: int = 4
    door_y: int = 4


@dataclass
class RunConfig:
    """Everything a training run needs, with conservative defaults."""

    seed: int = 0
    episodes: int = 500
    buffer_capacity: int = 10000
    batch_size: int = 32
    discount: float = 0.99
    backbone_lr: float = 0.1
    q_init: float = 1.0
    epsilon_start: float = 1.0
    epsilon_final: float = 0.05
    epsilon_decay_frac: float = 0.5

    beta: float = 0.5
    lambda_final: float = 0.9
    alpha_final: float = 0.7
    p_u_base: float = 0.01
    n_z: int = 12
    sigmoid_sharpness: float = 1.0
    soft_select_temp: float = 0.1

    estimator_lr: float = 0.05
    estimator_steps: int = 1
    estimator_hidden: tuple = (128, 64, 32)
    estimator_dropout: float = 0.2
    train_dropout: bool = False

    shaping: bool = True
    static_pu: bool = False
    monotonicity: bool = True

    eval_interval: int = 10
    eval_episodes: int = 5
    checkpoint_interval: int = 0

    augment: AugmentConfig = field(default_factory=AugmentConfig)
    env: EnvConfig = field(default_factory=EnvConfig)

    # -- derived views ------------------------------------------------------

    def augment_pair(self):
        """(weak, strong) transform specs for the configured pairing."""
        a = self.augment
        params = {
            "gaussian": {"sigma": a.gaussian_sigma},
            "double_entropy": {"n": a.partitions},
            "smooth": {"n": a.smooth_n},
            "cutout": {"n": a.cutout_n},
        }
        weak_kind, strong_kind = PAIRINGS[a.pairing]
        return (AugmentSpec(weak_kind, params[weak_kind]),
                AugmentSpec(strong_kind, params[strong_kind]))


# ---------------------------------------------------------------------------
# field registry
# ---------------------------------------------------------------------------

def _parse_int(lo=None, hi=None):
    def parse(raw):
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"expected an integer, got {raw!r}") from None
        if lo is not None and value < lo:
            raise ValueError(f"value {value} below minimum {lo}")
        if hi is not None and value > hi:
            raise ValueError(f"value {value} above maximum {hi}")
        return value
    return parse


def _parse_float(lo=None, hi=None, lo_open=False, hi_open=False):
    def parse(raw):
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {raw!r}")
        if lo is not None and (value <= lo if lo_open else value < lo):
            bound = f"> {lo}" if lo_open else f">= {lo}"
            raise ValueError(f"value {value} must be {bound}")
        if hi is not None and (value >= hi if hi_open else value > hi):
            bound = f"< {hi}" if hi_open else f"<= {hi}"
            raise ValueError(f"value {value} must be {bound}")
        return value
    return parse


def _parse_bool(raw):
    if raw == "on":
        return True
    if raw == "off":
        return False
    raise ValueError(f"expected on or off, got {raw!r}")


def _parse_choice(*choices):
    def parse(raw):
        if raw not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}; got {raw!r}")
        return raw
    return parse


def _parse_int_tuple(raw):
    try:
        values = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {raw!r}") from None
    if not values or any(v < 1 for v in values):
        raise ValueError("layer sizes must be positive integers")
    return values


def _fmt_value(value):
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


# key -> (section attr or None, field name, parser)
_FIELDS = {
    "seed": (None, "seed", _parse_int(lo=0)),
    "episodes": (None, "episodes", _parse_int(lo=1)),
    "buffer_capacity": (None, "buffer_capacity", _parse_int(lo=1)),
    "batch_size": (None, "batch_size", _parse_int(lo=1)),
    "discount": (None, "discount", _parse_float(lo=0, hi=1, lo_open=True, hi_open=True)),
    "backbone_lr": (None, "backbone_lr", _parse_float(lo=0, lo_open=True)),
    "q_init": (None, "q_init", _parse_float()),
    "epsilon_start": (None, "epsilon_start", _parse_float(lo=0, hi=1)),
    "epsilon_final": (None, "epsilon_final", _parse_float(lo=0, hi=1)),
    "epsilon_decay_frac": (None, "epsilon_decay_frac", _parse_float(lo=0, hi=1)),
    "beta": (None, "beta", _parse_float(lo=0, hi=1, lo_open=True, hi_open=True)),
    "lambda_final": (None, "lambda_final", _parse_float(lo=0, hi=1, lo_open=True)),
    "alpha_final": (None, "alpha_final", _parse_float(lo=0, hi=1)),
    "p_u_base": (None, "p_u_base", _parse_float(lo=0, hi=1)),
    "n_z": (None, "n_z", _parse_int(lo=2)),
    "sigmoid_sharpness": (None, "sigmoid_sharpness", _parse_float(lo=0, lo_open=True)),
    "soft_select_temp": (None, "soft_select_temp", _parse_float(lo=0, lo_open=True)),
    "estimator_lr": (None, "estimator_lr", _parse_float(lo=0, lo_open=True)),
    "estimator_steps": (None, "estimator_steps", _parse_int(lo=0)),
    "estimator_hidden": (None, "estimator_hidden", _parse_int_tuple),
    "estimator_dropout": (None, "estimator_dropout", _parse_float(lo=0, hi=1, hi_open=True)),
    "train_dropout": (None, "train_dropout", _parse_bool),
    "shaping": (None, "shaping", _parse_bool),
    "static_pu": (None, "static_pu", _parse_bool),
    "monotonicity": (None, "monotonicity", _parse_bool),
    "eval_interval": (None, "eval_interval", _parse_int(lo=1)),
    "eval_episodes": (None, "eval_episodes", _parse_int(lo=1)),
    "checkpoint_interval": (None, "checkpoint_interval", _parse_int(lo=0)),
    "augment.pairing": ("augment", "pairing", _parse_choice(*PAIRINGS)),
    "augment.gaussian_sigma": ("augment", "gaussian_sigma", _parse_float(lo=0, lo_open=True)),
    "augment.cutout_n": ("augment", "cutout_n", _parse_int(lo=0)),
    "augment.smooth_n": ("augment", "smooth_n", _parse_int(lo=1)),
    "augment.partitions": ("augment", "partitions", _parse_int(lo=1)),
    "env.kind": ("env", "kind", _parse_choice(*ENV_KINDS)),
    "env.length": ("env", "length", _parse_int(lo=2)),
    "env.max_steps": ("env", "max_steps", _parse_int(lo=1)),
    "env.width": ("env", "width", _parse_int(lo=2)),
    "env.height": ("env", "height", _parse_int(lo=2)),
    "env.key_x": ("env", "key_x", _parse_int(lo=0)),
    "env.key_y": ("env", "key_y", _parse_int(lo=0)),
    "env.door_x": ("env", "door_x", _parse_int(lo=0)),
    "env.door_y": ("env", "door_y", _parse_int(lo=0)),
}


def _assign(config: RunConfig, key: str, raw: str, line=None):
    try:
        section, name, parse = _FIELDS[key]
    except KeyError:
        raise ConfigError(f"unknown key {key!r}", line) from None
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}", line) from None
    target = config if section is None else getattr(config, section)
    setattr(target, name, value)


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig (unset keys keep their defaults)."""
    config = RunConfig()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}",
                              line_no)
        key, _, raw = line.partition("=")
        _assign(config, key.strip(), raw.strip(), line_no)
    _cross_check(config)
    return config


def apply_overrides(config: RunConfig, overrides) -> RunConfig:
    """Apply ``key=value`` override strings (CLI ``--set``) in order."""
    for i, item in enumerate(overrides, start=1):
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        try:
            _assign(config, key.strip(), raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"override {i}: {exc}") from None
    _cross_check(config)
    return config


def _cross_check(config: RunConfig):
    if config.epsilon_final > config.epsilon_start:
        raise ConfigError("epsilon_final must not exceed epsilon_start")
    try:
        make_env(config.env)
    except ValueError as exc:
        raise ConfigError(f"env: {exc}") from None


def serialize_config(config: RunConfig) -> str:
    """Render every key in registry order; parsing the result reproduces the
    config exactly (floats carry 17 significant digits)."""
    lines = []
    for key, (section, name, _) in _FIELDS.items():
        target = config if section is None else getattr(config, section)
        lines.append(f"{key} = {_fmt_value(getattr(target, name))}")
    return "\n".join(lines) + "\n"


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()
