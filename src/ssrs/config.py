"""Run configuration: typed defaults, strict text parsing, serialization.

Config files are plain ``key = value`` lines; ``#`` starts a comment and
blank lines are ignored.  Dotted keys address the nested sections
(``env.…``, ``augment.…``).  Unknown keys, malformed values, non-finite
numbers, out-of-range values and a key set twice are rejected with the
offending line number.

Each key is one dataclass field declared with :func:`_key`, which holds its
default and the parser of its text together; the key table, and so the
order of :func:`serialize_config`, follows the field order.  A section's
keys are ``section.field``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from functools import partial

from .augment import PAIRINGS, AugmentSpec
from .envs import KINDS as ENV_KINDS, make_env

__all__ = [
    "ConfigError",
    "AugmentConfig",
    "EnvConfig",
    "RunConfig",
    "parse_config",
    "parse_int_list",
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


# ---------------------------------------------------------------------------
# value parsers
# ---------------------------------------------------------------------------

def _parse_int(lo):
    def parse(raw):
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"expected an integer, got {raw!r}") from None
        if value < lo:
            raise ValueError(f"value {value} below minimum {lo}")
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


def parse_int_list(raw: str, lo: int) -> tuple:
    """The integers of comma-separated ``raw``, each at least ``lo``.

    An empty entry (``"1,,2"``, ``"6,"``, ``","``) is an error, as is an
    entry below ``lo``; the ValueError quotes ``raw``.
    """
    try:
        values = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ValueError(f"expected a list of at least one integer, "
                         f"comma-separated with no empty entry; got {raw!r}"
                         ) from None
    if min(values) < lo:
        raise ValueError(f"entries must be >= {lo}; got {raw!r}")
    return values


def _fmt_value(value):
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _key(default, parse):
    """A config key's field: its default and the parser of its text."""
    return field(default=default, metadata={"parse": parse})


# ---------------------------------------------------------------------------
# the keys
# ---------------------------------------------------------------------------

@dataclass
class AugmentConfig:
    pairing: str = _key("ssrs_s", _parse_choice(*PAIRINGS))
    gaussian_sigma: float = _key(0.1, _parse_float(lo=0, lo_open=True))
    # 0 derives the width from the state size
    cutout_n: int = _key(0, _parse_int(lo=0))
    smooth_n: int = _key(3, _parse_int(lo=1))
    partitions: int = _key(8, _parse_int(lo=1))


@dataclass
class EnvConfig:
    kind: str = _key("sparse_chain", _parse_choice(*ENV_KINDS))
    length: int = _key(20, _parse_int(lo=2))
    max_steps: int = _key(100, _parse_int(lo=1))
    width: int = _key(5, _parse_int(lo=2))
    height: int = _key(5, _parse_int(lo=2))
    key_x: int = _key(4, _parse_int(lo=0))
    key_y: int = _key(0, _parse_int(lo=0))
    door_x: int = _key(4, _parse_int(lo=0))
    door_y: int = _key(4, _parse_int(lo=0))


_UNIT = _parse_float(lo=0, hi=1)
_OPEN_UNIT = _parse_float(lo=0, hi=1, lo_open=True, hi_open=True)
_HALF_OPEN_UNIT = _parse_float(lo=0, hi=1, lo_open=True)
_POSITIVE = _parse_float(lo=0, lo_open=True)


@dataclass
class RunConfig:
    """Everything a training run needs, with conservative defaults."""

    seed: int = _key(0, _parse_int(lo=0))
    episodes: int = _key(500, _parse_int(lo=1))
    buffer_capacity: int = _key(10000, _parse_int(lo=1))
    batch_size: int = _key(32, _parse_int(lo=1))
    discount: float = _key(0.99, _OPEN_UNIT)
    # q += lr * (target - q) is a convex step only for lr in (0, 1]
    backbone_lr: float = _key(0.1, _HALF_OPEN_UNIT)
    q_init: float = _key(1.0, _parse_float())
    epsilon_start: float = _key(1.0, _UNIT)
    epsilon_final: float = _key(0.05, _UNIT)
    epsilon_decay_frac: float = _key(0.5, _UNIT)

    beta: float = _key(0.5, _OPEN_UNIT)
    lambda_final: float = _key(0.9, _HALF_OPEN_UNIT)
    alpha_final: float = _key(0.7, _UNIT)
    p_u_base: float = _key(0.01, _UNIT)
    n_z: int = _key(12, _parse_int(lo=2))
    sigmoid_sharpness: float = _key(1.0, _POSITIVE)
    soft_select_temp: float = _key(0.1, _POSITIVE)

    estimator_lr: float = _key(0.05, _POSITIVE)
    estimator_steps: int = _key(1, _parse_int(lo=0))
    estimator_hidden: tuple = _key((128, 64, 32),
                                   partial(parse_int_list, lo=1))
    estimator_dropout: float = _key(0.2,
                                    _parse_float(lo=0, hi=1, hi_open=True))
    train_dropout: bool = _key(False, _parse_bool)

    shaping: bool = _key(True, _parse_bool)
    static_pu: bool = _key(False, _parse_bool)
    monotonicity: bool = _key(True, _parse_bool)

    eval_interval: int = _key(10, _parse_int(lo=1))
    eval_episodes: int = _key(5, _parse_int(lo=1))
    checkpoint_interval: int = _key(0, _parse_int(lo=0))

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


def _key_table() -> dict:
    """key -> (section attribute or None, field name, parser), in field
    order."""
    table = {}
    for f in fields(RunConfig):
        if "parse" in f.metadata:
            table[f.name] = (None, f.name, f.metadata["parse"])
            continue
        for g in fields(f.default_factory):
            table[f"{f.name}.{g.name}"] = (f.name, g.name, g.metadata["parse"])
    return table


_KEYS = _key_table()


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------

def _assign(config: RunConfig, key: str, raw: str, line=None):
    try:
        section, name, parse = _KEYS[key]
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
    set_on = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}",
                              line_no)
        key, _, raw = line.partition("=")
        key = key.strip()
        first = set_on.setdefault(key, line_no)
        if first != line_no:
            raise ConfigError(f"key {key!r} is already set on line {first}",
                              line_no)
        _assign(config, key, raw.strip(), line_no)
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
        width = make_env(config.env).obs_width
    except ValueError as exc:
        raise ConfigError(f"env: {exc}") from None
    for key in ("partitions", "cutout_n"):
        if (value := getattr(config.augment, key)) > width:
            raise ConfigError(f"augment.{key}: value {value} above the env's "
                              f"state width {width}")


def serialize_config(config: RunConfig) -> str:
    """Render every key in field order; parsing the result reproduces the
    config exactly (floats carry 17 significant digits)."""
    lines = []
    for key, (section, name, _) in _KEYS.items():
        target = config if section is None else getattr(config, section)
        lines.append(f"{key} = {_fmt_value(getattr(target, name))}")
    return "\n".join(lines) + "\n"


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()
