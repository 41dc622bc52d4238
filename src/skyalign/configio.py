"""Flat `key = value` config files with SKYALIGN_ environment overrides.

Precedence, lowest to highest: dataclass default, config file, environment
variable SKYALIGN_<KEY> (key upper-cased), explicit CLI flag.

The config dataclasses are the schema: their fields name the keys and their
types, TrainConfig.loss standing for LossConfig's, and their __post_init__
checks are the only range rules.
"""

from __future__ import annotations

import math
import os
from dataclasses import fields, is_dataclass
from typing import get_type_hints

from .dataset import GenConfig
from .errors import ConfigError, open_text
from .objectives import LossConfig
from .trainer import TrainConfig

ENV_PREFIX = "SKYALIGN_"


def _schema(cls) -> dict[str, type]:
    """{key: type} of a config dataclass in field order, with a nested config
    field's keys in its place."""
    hints = get_type_hints(cls)
    keys: dict[str, type] = {}
    for f in fields(cls):
        keys.update(_schema(hints[f.name]) if is_dataclass(hints[f.name])
                    else {f.name: hints[f.name]})
    return keys


GEN_KEYS = _schema(GenConfig)
TRAIN_KEYS = _schema(TrainConfig)


def parse_flat_file(path) -> dict[str, str]:
    """Read `key = value` lines; # starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    try:
        with open_text(path, ConfigError) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = raw.strip()
    return values


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(key: str, raw: str, typ):
    try:
        value = _BOOLS[raw.lower()] if typ is bool else typ(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {key}: {raw!r}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def resolve(values: dict[str, str], known: dict[str, type],
            overrides: dict | None = None) -> dict:
    """Type-check file values, then layer env vars and explicit overrides."""
    for key in values:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    out = {}
    for key, typ in known.items():
        if key in values:
            out[key] = _coerce(key, values[key], typ)
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            out[key] = _coerce(key, env, typ)
    out.update((key, val) for key, val in (overrides or {}).items() if val is not None)
    return out


def load_gen_config(path, overrides: dict | None = None) -> GenConfig:
    resolved = resolve(parse_flat_file(path), GEN_KEYS, overrides)
    missing = [k for k in GEN_KEYS if k not in resolved]
    if missing:
        raise ConfigError(f"{path}: missing keys: {', '.join(missing)}")
    return GenConfig(**resolved)


def load_train_config(path, overrides: dict | None = None) -> TrainConfig:
    resolved = resolve(parse_flat_file(path), TRAIN_KEYS, overrides)
    loss = LossConfig(**{k: resolved.pop(k) for k in _schema(LossConfig) if k in resolved})
    return TrainConfig(loss=loss, **resolved)
