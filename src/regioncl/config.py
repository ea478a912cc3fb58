"""Flat key=value run configuration shared by every CLI command.

One namespace covers every module, with dotted keys grouped by section:
``synth.*`` (dataset generator), ``poi.*`` (skip-gram), ``graph.*``
(fusion thresholds), ``model.*`` (embedding width, heads, depth),
``view.*`` (view generation), ``loss.*`` (contrastive mixture and reward),
``train.*`` (optimizer and loop), ``eval.*`` (probes). Defaults come
straight from the dataclasses so the two can never drift apart. Unknown
keys are rejected by name; values are cast to the default's type.

Config files hold one ``key = value`` per line; blank lines and lines
starting with ``#`` are ignored.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ConfigError
from .eval_harness import EvalConfig
from .losses import LossConfig
from .poi_embedding import SkipgramConfig
from .region_data import SynthConfig
from .trainer import TrainConfig
from .view_generator import ViewGenConfig


def _section(prefix: str, cls) -> dict:
    return {f"{prefix}.{k}": v for k, v in dataclasses.asdict(cls()).items()}


def _build(prefix: str, cls, values: dict):
    return cls(**{f.name: values[f"{prefix}.{f.name}"]
                  for f in dataclasses.fields(cls)})


# the key of each TrainConfig field that is not a nested config
TRAIN_KEYS = {"eps_p": "graph.eps_p", "eps_d": "graph.eps_d",
              "d": "model.d", "heads": "model.heads",
              "n_layers": "model.n_layers",
              **{name: f"train.{name}" for name in
                 ("epochs", "lr", "weight_decay", "seed", "variant")}}

DEFAULTS: dict = {}
DEFAULTS.update(_section("synth", SynthConfig))
DEFAULTS.update(_section("poi", SkipgramConfig))
DEFAULTS.update(_section("view", ViewGenConfig))
DEFAULTS.update(_section("loss", LossConfig))
DEFAULTS.update(_section("eval", EvalConfig))
DEFAULTS.update({key: getattr(TrainConfig(), name)
                 for name, key in TRAIN_KEYS.items()})


def cast_value(key: str, raw: str):
    """Cast the raw string to the type of the key's default; a float must
    be finite."""
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    kind = type(DEFAULTS[key])
    raw = raw.strip()
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r} expects "
                          f"{kind.__name__}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"config key {key!r} expects a finite float, "
                          f"got {raw!r}")
    return value


def apply_assignment(values: dict, text: str) -> None:
    """Apply one --set 'key=value' assignment in place."""
    if "=" not in text:
        raise ConfigError(f"--set: expected key=value, got {text!r}")
    key, raw = text.split("=", 1)
    key = key.strip()
    values[key] = cast_value(key, raw)


def load_config_file(path: str) -> dict:
    """Parse a key = value file; returns only the keys it sets."""
    values: dict = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected key=value, got {stripped!r}")
        try:
            apply_assignment(values, stripped)
        except ConfigError as e:
            raise ConfigError(f"{where}: {e}") from None
    return values


def assigned(config_path: str | None = None, assignments=(),
             seed: int | None = None) -> dict:
    """Only the keys that the config file, then the --set overrides, then
    --seed assign, whatever their values."""
    values = load_config_file(config_path) if config_path is not None else {}
    for text in assignments:
        apply_assignment(values, text)
    if seed is not None:
        values["train.seed"] = int(seed)
        values["synth.seed"] = int(seed)
    return values


def resolve(given: dict) -> dict:
    """The keys ``assigned`` returns, merged over the defaults."""
    return {**DEFAULTS, **given}


def build_synth_config(values: dict) -> SynthConfig:
    return _build("synth", SynthConfig, values)


def build_train_config(values: dict) -> TrainConfig:
    return TrainConfig(skipgram=_build("poi", SkipgramConfig, values),
                       view=_build("view", ViewGenConfig, values),
                       loss=_build("loss", LossConfig, values),
                       **{name: values[key]
                          for name, key in TRAIN_KEYS.items()})


def build_eval_config(values: dict) -> EvalConfig:
    return _build("eval", EvalConfig, values)


def defaults_lines() -> list:
    """One 'key = value' line per documented default, sorted."""
    return [f"{key} = {DEFAULTS[key]}" for key in sorted(DEFAULTS)]
