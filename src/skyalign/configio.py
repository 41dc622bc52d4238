"""Flat `key = value` config files with SKYALIGN_ environment overrides.

Precedence, lowest to highest: dataclass default, config file, environment
variable SKYALIGN_<KEY> (key upper-cased), explicit CLI flag.
"""

from __future__ import annotations

import math
import os

from .dataset import GenConfig
from .errors import ConfigError, open_text
from .objectives import LossConfig
from .trainer import TrainConfig

ENV_PREFIX = "SKYALIGN_"

GEN_KEYS = {
    "n_buildings": int,
    "views_per_building": int,
    "latent_dim": int,
    "noise_sigma": float,
    "fail_prob": float,
    "seed": int,
    "bins": int,
}

TRAIN_KEYS = {
    "peak_lr": float,
    "warmup_frac": float,
    "epochs": int,
    "batch_size": int,
    "weight_decay": float,
    "beta1": float,
    "beta2": float,
    "adam_eps": float,
    "seed": int,
    "rotation_prob": float,
    "hidden_dim": int,
    "embed_dim": int,
    "train_temperature": bool,
    "smoothing": float,
    "temperature": float,
    "orientation_mode": str,
    "orientation_weight": float,
    "bins": int,
}

_LOSS_KEYS = ("smoothing", "temperature", "orientation_mode", "orientation_weight", "bins")


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


def _coerce(key: str, raw: str, typ):
    try:
        if typ is bool:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        value = typ(raw)
    except ValueError:
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
    if overrides:
        for key, val in overrides.items():
            if val is not None:
                out[key] = val
    if out.get("seed", 0) < 0:
        raise ConfigError(f"seed must be >= 0, got {out['seed']}")
    return out


def load_gen_config(path, overrides: dict | None = None) -> GenConfig:
    resolved = resolve(parse_flat_file(path), GEN_KEYS, overrides)
    missing = [k for k in GEN_KEYS if k not in resolved]
    if missing:
        raise ConfigError(f"{path}: missing keys: {', '.join(missing)}")
    return GenConfig(**resolved)


def load_train_config(path, overrides: dict | None = None) -> TrainConfig:
    resolved = resolve(parse_flat_file(path), TRAIN_KEYS, overrides)
    loss_kwargs = {k: resolved.pop(k) for k in _LOSS_KEYS if k in resolved}
    try:
        return TrainConfig(loss=LossConfig(**loss_kwargs), **resolved)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
