"""Run configuration: diffable `key = value` sections, strictly validated.

Every key is declared once, as a `Config` field whose metadata names its
file section and its rule. File parsing, validation, the CLI overrides and
the `RacHyper`/`RewardNetHyper` views that checkpoints carry all derive from
those declarations. Flags override the file. The effective configuration is
echoed into every artifact (logs, reports, checkpoints) so runs are
self-describing.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ConfigError, DataFormatError, require_regular_file


class Rule(NamedTuple):
    holds: Callable[[object], bool]
    text: str


_UNIT = Rule(lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_POSITIVE = Rule(lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_AT_LEAST_ONE = Rule(lambda v: v >= 1, ">= 1")
_NON_NEGATIVE = Rule(lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")


def _one_of(*choices: str) -> Rule:
    return Rule(lambda v: v in choices, "one of " + ", ".join(choices))


def _key(section: str, default, rule: Rule | None = None):
    """A config key: its file section, its default and its rule."""
    return dataclasses.field(default=default, metadata={"section": section, "rule": rule})


def _check_fields(obj) -> None:
    """Apply every field's declared rule; the first miss is a ConfigError."""
    for f in dataclasses.fields(obj):
        rule = f.metadata.get("rule")
        value = getattr(obj, f.name)
        if rule is not None and not rule.holds(value):
            raise ConfigError(f"{f.name} must be {rule.text}, got {value!r}")


@dataclass
class Config:
    events: str | None = _key("data", None)
    stations: str | None = _key("data", None)
    poi: str | None = _key("data", None)

    embed: int = _key("model", 100, _AT_LEAST_ONE)
    hidden: int = _key("model", 100, _AT_LEAST_ONE)
    layers: int = _key("model", 2, _AT_LEAST_ONE)
    critic_hidden: int = _key("model", 100, _AT_LEAST_ONE)
    k_actor: int = _key("model", 5, _AT_LEAST_ONE)
    k_reward: int = _key("model", 10, _AT_LEAST_ONE)

    alpha: float = _key("training", 0.001, _POSITIVE)
    epsilon: float = _key("training", 0.5, _UNIT)
    gamma: float = _key("training", 0.99, _UNIT)
    horizon: int = _key("training", 10, _AT_LEAST_ONE)
    epochs: int = _key("training", 200, _AT_LEAST_ONE)
    samples_per_epoch: int = _key("training", 32, _AT_LEAST_ONE)
    target_interval: int = _key("training", 100, _AT_LEAST_ONE)
    clip_norm: float = _key("training", 5.0, _NON_NEGATIVE)  # 0 disables clipping
    seed: int = _key("training", 0)
    finetune_epochs: int = _key("training", 50, _AT_LEAST_ONE)
    patience: int = _key("training", 10, _NON_NEGATIVE)
    reward_alpha: float = _key("training", 0.01, _POSITIVE)
    reward_epochs: int = _key("training", 200, _AT_LEAST_ONE)

    warmup: bool = _key("mode", True)
    per_driver: bool = _key("mode", False)
    reward_update: str = _key("mode", "supervised", _one_of("supervised", "td_coupled"))
    regularizer: str = _key("mode", "softmax_ce", _one_of("softmax_ce", "eta"))
    pg_weight: str = _key("mode", "q", _one_of("q", "delta"))
    jobs: int = _key("mode", 1, _AT_LEAST_ONE)

    def validate(self) -> "Config":
        _check_fields(self)
        return self

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def rac_hyper(self) -> RacHyper:
        return _view_of(self, RacHyper)

    def reward_hyper(self) -> RewardNetHyper:
        return _view_of(self, RewardNetHyper)


def _hyper_view(name: str, doc: str, keys, plain=()) -> type:
    """A frozen dataclass whose fields view Config keys, checked on construction.

    `keys` entries are Config keys or (field name, Config key) pairs; each
    field takes its key's type, default and rule. `plain` holds (name, type,
    default) fields that no key declares.
    """
    declared = {f.name: f for f in dataclasses.fields(Config)}
    specs = []
    for entry in keys:
        field_name, key = (entry, entry) if isinstance(entry, str) else entry
        f = declared[key]
        specs.append((field_name, f.type, dataclasses.field(
            default=f.default, metadata={"key": key, "rule": f.metadata["rule"]})))
    cls = dataclasses.make_dataclass(
        name, specs + list(plain), frozen=True,
        namespace={"__doc__": doc, "__post_init__": _check_fields},
    )
    cls.__module__ = __name__  # pickled by reference into per-driver workers
    return cls


def _view_of(config: Config, view: type):
    return view(**{f.name: getattr(config, f.metadata["key"])
                   for f in dataclasses.fields(view) if "key" in f.metadata})


RacHyper = _hyper_view(
    "RacHyper",
    "Actor-critic hyperparameters; `history` is the observations encoded per "
    "state and `horizon` the replay window length.",
    ["alpha", "epsilon", "gamma", "horizon", ("history", "k_actor"), "embed", "hidden",
     "layers", "critic_hidden", "epochs", "samples_per_epoch", "target_interval",
     "clip_norm", "seed", "pg_weight", "regularizer", "reward_update"],
)

RewardNetHyper = _hyper_view(
    "RewardNetHyper",
    "Wait forecaster hyperparameters; `window` is the lag hours fed to it.",
    [("window", "k_reward"), "hidden", "layers", ("alpha", "reward_alpha"),
     ("epochs", "reward_epochs"), "clip_norm", "seed"],
    plain=[("val_frac", float, 0.1)],
)


def _is_a(value, tp) -> bool:
    """JSON type check: bools are not numbers, and ints count as floats."""
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


def hyper_from_mapping(cls: type, raw, where: str):
    """A hyper dataclass from a checkpoint's JSON block.

    Unknown keys and values of the wrong JSON type are DataFormatError;
    missing keys take their defaults; a value outside its declared rule is a
    ConfigError, exactly as in a config file, with `where` in its message.
    """
    if not isinstance(raw, dict):
        raise DataFormatError(f"{where}: hyper must be a JSON object, got {type(raw).__name__}")
    types = typing.get_type_hints(cls)
    for key, value in raw.items():
        if key not in types:
            raise DataFormatError(f"{where}: unknown hyper key {key!r}")
        if not _is_a(value, types[key]):
            raise DataFormatError(f"{where}: hyper {key} must be {types[key].__name__}, got {value!r}")
    try:
        return cls(**raw)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_PARSERS = {int: int, float: float, str: str, bool: _parse_bool}


def load_config(path: str | Path) -> Config:
    """Parse and validate a config file; unknown sections or keys are errors."""
    require_regular_file(path, ConfigError)
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    sections = {f.name: f.metadata["section"] for f in dataclasses.fields(Config)}
    types = typing.get_type_hints(Config)
    for key in parser.defaults():  # configparser would copy them into every section
        raise ConfigError(f"{path}: unknown key [DEFAULT] {key}")
    values: dict[str, object] = {}
    for section in parser.sections():
        for key in parser[section]:
            if sections.get(key) != section:
                raise ConfigError(f"{path}: unknown key [{section}] {key}")
            conv = _PARSERS[(typing.get_args(types[key]) or (types[key],))[0]]  # str | None -> str
            try:
                values[key] = conv(parser[section][key])
            except (ValueError, configparser.Error) as exc:  # a bad `%` interpolation too
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {exc}") from exc
    try:
        return Config(**values).validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def apply_overrides(config: Config, **overrides) -> Config:
    """Replace fields with CLI-provided values (None means not provided)."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(config, **changes).validate()
