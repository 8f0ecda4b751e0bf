"""Run configuration: defaults, JSON round-trip, flag overrides, validation.

A run is a single JSON document. Nested sections (shift, domain) map to
their dataclasses; every scalar key has a CLI flag of the same name with
underscores replaced by dashes (nested keys join their path, e.g.
--domain-class-sep). The resolved config echoed into each run directory
contains every effective parameter, including derived ones, so a run can
be replayed exactly. The dataclass fields are the one statement of that
schema: config_keys derives the flag set from them.
"""
from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

from .errors import ConfigError, check_keys, check_type, declared_types
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

# The scalar key that stands in for the array domain.shift_translation.
_SCALE_PATH = ("domain", "translation_scale")

# The value types of scalar config keys; fields of other types have no key.
_SCALARS = (bool, int, float, str)


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
            shift_translation=None,
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
            if path != _SCALE_PATH:  # resolved into shift_translation, not stored
                owner = functools.reduce(getattr, path[:-1], self)
                check_type(getattr(owner, field_name(path[-1])), typ, nullable, ".".join(path),
                           ConfigError)
        if self.shift.n_source_classes < 2:
            raise ConfigError("need at least 2 source classes")
        if self.fd < 1 or self.fd_r < 1:
            raise ConfigError("feature dimensions must be positive")
        if self.n_b < 4:
            raise ConfigError("batch size must be at least 4 (threshold calibration)")
        if self.n_batches < 1:
            raise ConfigError("n_batches must be positive")
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
        doc["domain"]["shift_translation"] = self.domain.shift_translation.tolist()
        return doc

    def resolved_dict(self) -> dict:
        doc = self.to_dict()
        doc["derived"] = {
            "n_source_classes": self.shift.n_source_classes,
            "n_total_classes": self.shift.n_total_classes,
            "unknown_marker": self.shift.unknown_marker,
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
        values["domain"] = _domain_from_dict(values["domain"])
        return cls(**values).validate()


@functools.cache
def config_keys() -> tuple[tuple[tuple[str, ...], type, bool], ...]:
    """(path, type, nullable) of every scalar config key, in declaration order.

    Walks the RunConfig fields and its nested sections under their config
    names. A `T | None` field has type T and is nullable; array fields have
    no key. The scalar domain.translation_scale, which may be left out,
    stands in for the array domain.shift_translation.
    """
    keys = []

    def walk(cls, prefix):
        for name, (typ, nullable) in declared_types(cls).items():
            path = prefix + (_KEY_OF_FIELD.get(name, name),)
            if is_dataclass(typ):
                walk(typ, path)
            elif typ in _SCALARS:
                keys.append((path, typ, nullable))

    walk(RunConfig, ())
    keys.append((_SCALE_PATH, float, True))
    return tuple(keys)


def field_name(key: str) -> str:
    """RunConfig field behind a top-level config key."""
    return _FIELD_OF_KEY.get(key, key)


def _section(cls, doc, name: str):
    """The dataclass of a nested config section, built once its keys and
    scalar value types are checked."""
    check_keys(doc, declared_types(cls), name, ConfigError)
    for key, (typ, nullable) in declared_types(cls).items():
        if typ in _SCALARS:
            check_type(doc[key], typ, nullable, f"{name}.{key}", ConfigError)
    try:
        return cls(**doc)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def _domain_from_dict(doc) -> DomainSpec:
    """The domain section, where translation_scale may stand in for shift_translation."""
    if not (isinstance(doc, dict) and "translation_scale" in doc):
        return _section(DomainSpec, doc, "domain")
    doc = dict(doc)
    scale = doc.pop("translation_scale")
    check_type(scale, float, True, ".".join(_SCALE_PATH), ConfigError)
    if "shift_translation" in doc:
        raise ConfigError("give either shift_translation or translation_scale, not both")
    dom = _section(DomainSpec, dict(doc, shift_translation=None), "domain")
    if scale is not None:
        dom.shift_translation = resolve_translation(dom, float(scale))
    return dom


def resolve_translation(dom: DomainSpec, scale: float) -> np.ndarray:
    """Translation vector of the given length along a seeded direction."""
    if scale == 0.0:
        return np.zeros(dom.d_in)
    rng = np.random.default_rng(np.random.SeedSequence([dom.rotation_seed or 0, 7]))
    v = rng.standard_normal(dom.d_in)
    return scale * v / np.linalg.norm(v)


def default_config() -> RunConfig:
    """Default desk-scale OPDA task (12 classes split 6/3/3)."""
    cfg = RunConfig()
    cfg.domain.shift_translation = resolve_translation(cfg.domain, 2.0)
    return cfg.validate()


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
        _reconcile_translation(doc, user)
        doc = _merge(doc, user)
    if overrides:
        _reconcile_translation(doc, overrides)
        doc = _merge(doc, overrides)
    return RunConfig.from_dict(doc)


def _reconcile_translation(base: dict, update: dict) -> None:
    """A translation_scale in an update supersedes the baked-in vector."""
    dom, base_dom = update.get("domain"), base.get("domain")
    if isinstance(dom, dict) and isinstance(base_dom, dict):
        if "translation_scale" in dom:
            base_dom.pop("shift_translation", None)
        elif "shift_translation" in dom:
            base_dom.pop("translation_scale", None)


def _merge(base: dict, update: dict) -> dict:
    out = dict(base)
    for k, v in update.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out
