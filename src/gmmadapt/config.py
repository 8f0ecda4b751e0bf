"""Run configuration: defaults, JSON round-trip, flag overrides, validation.

A run is a single JSON document. Nested sections (shift, domain) map to
their dataclasses; every key has a CLI flag of the same name with
underscores replaced by dashes (nested keys join their path, e.g.
--domain-class-sep). The resolved config echoed into each run directory
adds the derived values, among them the translation vector the domain
builds, so it shows every effective parameter and a run can be replayed
exactly. The dataclass fields, each under its metadata "key" or else
its name, are the one statement of that schema: config_keys derives the
flag set from them, to_dict writes them, and from_dict reads them with
errors.read_dataclass. Each dataclass checks its own ranges however it is
built, and RunConfig the types of its own values before their ranges.
validate reads a config back through from_dict, which also checks a value
set in place and the nested sections' types, and slots bar setting a
misspelt field.
"""
from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .errors import ConfigError, check_type, declared_types, read_dataclass
from .simulator import DomainSpec, ShiftSpec

LOSS_MODES = ("both", "contrastive_only", "kld_only", "none")

# Learning rate default: tuned once on the null-shift sanity task (adapted
# shared-class accuracy must stay within 2 points of the source holdout
# accuracy) and then frozen; larger rates drift a well-fit model off the
# anchor over a 200-batch run.
DEFAULT_LR = 3e-5

@dataclass(slots=True)
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
    # `lambda` is a Python keyword, so the field is `lam`; config files, flags
    # and sweeps call it `lambda`. The only key whose name differs from its field.
    lam: float = field(default=1.0, metadata={"key": "lambda"})
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

    def __post_init__(self):
        for name, (key, typ, nullable) in declared_types(RunConfig).items():
            check_type(getattr(self, name), typ, nullable, key, ConfigError)
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.shift.n_source_classes < 2:
            raise ConfigError("need at least 2 source classes")
        if self.fd < 1 or self.fd_r < 1:
            raise ConfigError("feature dimensions must be positive")
        if self.n_b < 4:
            raise ConfigError("batch size must be at least 4 (threshold calibration)")
        for name in ("n_batches", "n_init", "source_epochs", "n_source_train", "n_source_holdout"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.p_reject < 100.0:
            raise ConfigError("p_reject must lie in (0, 100)")
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

    def validate(self) -> "RunConfig":
        """self, once it reads back as itself through from_dict: a config
        edited in place is checked by the same rule as a file."""
        read = RunConfig.from_dict(self.to_dict())
        if read != self:
            wrong = [f.name for f in fields(self) if getattr(read, f.name) != getattr(self, f.name)]
            raise ConfigError(f"config does not read back as itself: {wrong} differ")
        return self

    def to_dict(self) -> dict:
        doc = asdict(self)
        for name, (key, _, _) in declared_types(RunConfig).items():
            if key != name:
                doc[key] = doc.pop(name)  # last, where files have always held it
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
        missing, unknown, mistyped or out-of-range key."""
        if isinstance(doc, dict):
            doc = {k: v for k, v in doc.items() if k != "derived"}
        return read_dataclass(cls, doc, "config", ConfigError)


@functools.cache
def config_keys() -> tuple[tuple[tuple[str, ...], type], ...]:
    """(path, type) of every config key, in declaration order.

    Walks the RunConfig fields and its nested sections under their keys.
    A `T | None` field has type T.
    """
    keys = []

    def walk(cls, prefix):
        for key, typ, _ in declared_types(cls).values():
            if is_dataclass(typ):
                walk(typ, prefix + (key,))
            else:
                keys.append((prefix + (key,), typ))

    walk(RunConfig, ())
    return tuple(keys)


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
