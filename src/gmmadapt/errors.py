"""Exception types shared across the library, and the one value rule,
check_type: a value has its declared type, and a number is finite. Each
self-checking dataclass applies it to its own fields (check_fields) before
its ranges; read_dataclass checks a JSON document's keys and builds the
dataclasses, so a value read from a file is checked once, as it is built."""
import dataclasses
import functools
import math
import reprlib
import typing


class GmmAdaptError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(GmmAdaptError, ValueError):
    """Operands have incompatible shapes."""


class NonFiniteInput(GmmAdaptError, ValueError):
    """An input array contains NaN or infinity."""


class NotPositiveDefinite(GmmAdaptError, ValueError):
    """A covariance factor is unusable: Cholesky factorization failed at
    the configured jitter, or a factor has a zero pivot."""


class NoInitializedMode(GmmAdaptError, RuntimeError):
    """Likelihoods requested before any mixture mode received mass."""


class AlreadyFrozen(GmmAdaptError, RuntimeError):
    """Threshold calibration attempted after the calibration window closed."""


class BatchTooSmall(GmmAdaptError, ValueError):
    """Calibration batch has too few samples for the quantile rule."""


class Uncalibrated(GmmAdaptError, RuntimeError):
    """Thresholds used before any calibration batch was processed."""


class NonFiniteGradient(GmmAdaptError, ValueError):
    """Optimizer received a gradient containing NaN or infinity."""


class InvalidSplit(GmmAdaptError, ValueError):
    """Category-shift class counts are inconsistent with the shift kind."""


class MalformedFile(GmmAdaptError, ValueError):
    """A run file cannot be read back: not the format, truncated, or keys missing or extra."""


class ConfigError(GmmAdaptError, ValueError):
    """Run configuration failed validation."""


class NumericalFailure(GmmAdaptError, RuntimeError):
    """An adaptation run aborted on a numerical error; carries the batch index."""

    def __init__(self, batch_index: int, cause: Exception):
        super().__init__(f"batch {batch_index}: {cause}")
        self.batch_index = batch_index
        self.cause = cause


def check_type(value, typ: type, nullable: bool, name: str, error: type[GmmAdaptError]) -> None:
    """Raise error unless value is a typ: an int is a non-bool int, a float
    any non-bool number, and a nullable key also takes null (None). An int
    or float must be finite, which an int too large for a float is not. A
    large value is shortened in the message."""
    if not (value is None and nullable
            or isinstance(value, (int, float) if typ is float else typ)
            and (typ is bool or not isinstance(value, bool))):
        null = " or null" if nullable else ""
        raise error(f"{name} must be {typ.__name__}{null}, got {reprlib.repr(value)}")
    try:
        finite = not isinstance(value, (int, float)) or math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise error(f"{name} must be finite, got {reprlib.repr(value)}")


def check_number(value, typ: type, least, name: str, error: type[GmmAdaptError]) -> None:
    """check_type for a non-null typ, then raise error unless value >= least."""
    check_type(value, typ, False, name, error)
    if value < least:
        raise error(f"{name} must be >= {least}, got {reprlib.repr(value)}")


def check_keys(doc, keys, what: str, error: type[GmmAdaptError]) -> None:
    """Raise error unless doc is a JSON object with exactly the given keys;
    anything other than an object counts as having no keys."""
    got, want = set(doc) if isinstance(doc, dict) else set(), set(keys)
    if got != want:
        raise error(f"{what} keys: missing {sorted(want - got)}, unexpected {sorted(got - want)}")


def check_fields(obj, error: type[GmmAdaptError]) -> None:
    """check_type on each field of a dataclass instance, named by its key;
    an int that passes for a float field is then stored as a float."""
    for name, (key, typ, nullable) in declared_types(type(obj)).items():
        check_type(value := getattr(obj, name), typ, nullable, key, error)
        if typ is float and type(value) is int:
            setattr(obj, name, float(value))  # finite, so it cannot overflow


@functools.cache
def declared_types(cls) -> dict[str, tuple[str, type, bool]]:
    """(key, type, nullable) of each field of a dataclass, by name: the key is
    its metadata "key", else the name; a `T | None` field has type T and is nullable."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        typ = [a for a in args if a is not type(None)]
        key = f.metadata.get("key", f.name)
        out[f.name] = (key, typ[0], True) if len(typ) < len(args) else (key, hints[f.name], False)
    return out


def read_dataclass(cls, doc, what: str, error: type[GmmAdaptError], prefix=""):
    """The cls a JSON object describes. Each field is read from its key
    (see declared_types), a dataclass field from a nested object the same
    way, built before its parent. error reports the keys of an object
    (named what, a nested one by its path) or a constructor's complaint
    about a value, such as check_fields' or a range check's, prefixed with
    the path of the object it builds (a nested value reads as domain.d_in)."""
    types = declared_types(cls)
    check_keys(doc, [key for key, _, _ in types.values()], what, error)
    values = {}
    for name, (key, typ, _) in types.items():
        value, path = doc[key], prefix + key
        if dataclasses.is_dataclass(typ):
            value = read_dataclass(typ, value, path, error, path + ".")
        values[name] = value
    try:
        return cls(**values)
    except (TypeError, ValueError) as err:
        raise error(f"{prefix}{err}") from err
