"""Run configuration: defaults, JSON round-trip, flag overrides, validation.

A run is a single JSON document. Nested sections (shift, domain) map to
their dataclasses; every key has a CLI flag of the same name with
underscores replaced by dashes (nested keys join their path, e.g.
--domain-class-sep). The resolved config echoed into each run directory
adds the derived values, among them the translation vector the domain
builds, so it shows every effective parameter and a run can be replayed
exactly. The dataclass fields are the one statement of that schema:
config_keys derives the flag set from them, and to_dict and from_dict
write and read exactly those fields.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass

from .errors import ConfigError, check_keys, check_number, check_type, declared_types
from .simulator import DomainSpec, ShiftSpec

LOSS_MODES = ("both", "contrastive_only", "kld_only", "none")

# Learning rate default: tuned once on the null-shift sanity task (adapted
# shared-class accuracy must stay within 2 points of the source holdout
# accuracy) and then frozen; larger rates drift a well-fit model off the
# anchor over a 200-batch run.
DEFAULT_LR = 3e-5

# `lambda` is a Python keyword, so the field is `lam`; config files, flags
# and sweeps call it `lambda`. The only key whose name differs from its field.
_KEY_OF_FIELD = {"lam": "lambda"}
_FIELD_OF_KEY = {v: k for k, v in _KEY_OF_FIELD.items()}


@dataclass
class RunConfig:
    seed: int = 0
    shift: ShiftSpec = field(
        default_factory=lambda: ShiftSpec("OPDA", n_shared=6, n_source_private=3, n_target_private=3)
    )
    domain: DomainSpec = field(
        default_factory=lambda: DomainSpec(
            d_in=20,
            class_sep=6.0,
            rotation_seed=1,
            rotation_strength=2.0,
            translation_scale=2.0,
            noise_sigma_source=1.0,
            noise_sigma_target=1.6,
        )
    )
    fd: int = 256
    fd_r: int = 64
    n_b: int = 64
    n_batches: int = 200
    p_reject: float = 50.0
    n_init: int = 30
    temperature: float = 0.1
    lam: float = 1.0
    lr: float = DEFAULT_LR
    momentum: float = 0.9
    loss_mode: str = "both"
    unknown_positive_pairs: bool = False
    augment_sigma: float | None = None
    # Base covariance regularization for the run. Large enough that early
    # near-singular covariances cannot push class log-density gaps past the
    # exp underflow cliff (which would tie entropies at exactly 0), small
    # against the between-class structure the gate relies on.
    jitter: float = 2e-2
    source_epochs: int = 6
    source_lr: float = 0.02
    n_source_train: int = 4500
    n_source_holdout: int = 900

    def validate(self) -> "RunConfig":
        for path, typ, nullable in config_keys():
            owner = functools.reduce(getattr, path[:-1], self)
            _check_value(getattr(owner, field_name(path[-1])), typ, nullable, ".".join(path))
        if self.shift.n_source_classes < 2:
            raise ConfigError("need at least 2 source classes")
        if self.fd < 1 or self.fd_r < 1:
            raise ConfigError("feature dimensions must be positive")
        if self.n_b < 4:
            raise ConfigError("batch size must be at least 4 (threshold calibration)")
        for name in ("n_batches", "source_epochs", "n_source_train", "n_source_holdout"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.p_reject < 100.0:
            raise ConfigError("p_reject must lie in (0, 100)")
        if self.n_init < 1:
            raise ConfigError("n_init must be positive")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")
        if self.lr <= 0 or self.source_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"loss_mode must be one of {LOSS_MODES}")
        if self.jitter < 0:
            raise ConfigError("jitter must be nonnegative")
        if self.augment_sigma is not None and self.augment_sigma < 0:
            raise ConfigError("augment_sigma must be nonnegative")
        return self

    def to_dict(self) -> dict:
        doc = asdict(self)
        for name, key in _KEY_OF_FIELD.items():
            doc[key] = doc.pop(name)
        return doc

    def resolved_dict(self) -> dict:
        doc = self.to_dict()
        doc["derived"] = {
            "n_source_classes": self.shift.n_source_classes,
            "n_total_classes": self.shift.n_total_classes,
            "unknown_marker": self.shift.unknown_marker,
            "shift_translation": self.domain.translation().tolist(),
        }
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Config from a complete document, as to_dict or resolved_dict
        write it (its derived section is ignored); ConfigError names a
        missing, unknown or mistyped key."""
        if isinstance(doc, dict):
            doc = {k: v for k, v in doc.items() if k != "derived"}
        check_keys(doc, [_KEY_OF_FIELD.get(f, f) for f in declared_types(cls)], "config",
                   ConfigError)
        values = {field_name(k): v for k, v in doc.items()}
        values["shift"] = _section(ShiftSpec, values["shift"], "shift")
        values["domain"] = _section(DomainSpec, values["domain"], "domain")
        return cls(**values).validate()


@functools.cache
def config_keys() -> tuple[tuple[tuple[str, ...], type, bool], ...]:
    """(path, type, nullable) of every config key, in declaration order.

    Walks the RunConfig fields and its nested sections under their config
    names. A `T | None` field has type T and is nullable.
    """
    keys = []

    def walk(cls, prefix):
        for name, (typ, nullable) in declared_types(cls).items():
            path = prefix + (_KEY_OF_FIELD.get(name, name),)
            if is_dataclass(typ):
                walk(typ, path)
            else:
                keys.append((path, typ, nullable))

    walk(RunConfig, ())
    return tuple(keys)


def field_name(key: str) -> str:
    """RunConfig field behind a top-level config key."""
    return _FIELD_OF_KEY.get(key, key)


def _check_value(value, typ: type, nullable: bool, name: str) -> None:
    """check_type, and a non-null float must be finite: NaN passes every
    range check in validate."""
    check_type(value, typ, nullable, name, ConfigError)
    if typ is float and value is not None:
        check_number(value, typ, -math.inf, name, ConfigError)


def _section(cls, doc, name: str):
    """The dataclass of a nested config section, built once its keys and
    values are checked."""
    check_keys(doc, declared_types(cls), name, ConfigError)
    for key, (typ, nullable) in declared_types(cls).items():
        _check_value(doc[key], typ, nullable, f"{name}.{key}")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def default_config() -> RunConfig:
    """Default desk-scale OPDA task (12 classes split 6/3/3)."""
    return RunConfig().validate()


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Config file (optional) merged with flag overrides on top of defaults."""
    doc = default_config().to_dict()
    if path is not None:
        with open(path) as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"config is not valid JSON: {err}") from err
        check_type(user, dict, False, f"config {path}", ConfigError)
        doc = _merge(doc, user)
    if overrides:
        doc = _merge(doc, overrides)
    return RunConfig.from_dict(doc)


def _merge(base: dict, update: dict) -> dict:
    out = dict(base)
    for k, v in update.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out
