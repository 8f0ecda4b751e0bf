"""Every reader of a JSON document the library writes back rejects the same
faults in the same words.

Each reader is fed a valid document, and then the document with one fault:
not an object at the top level, a key missing, a key added, a bool in an
int key, a string in a float key. Each fault must raise a GmmAdaptError
whose message ends in the shared shape: "<what> keys: missing [...],
unexpected [...]" or "<name> must be <type>[ or null], got <value>".
A model checkpoint is also fed with one non-finite entry in each array,
and each reader of JSON text with one byte that is not UTF-8.
Each dataclass a config or record reader builds checks its own values, so
a value fault read from a document is the constructor's error, named by
its path.
"""
import json
import re
import reprlib
from dataclasses import asdict, replace

import numpy as np
import pytest

from gmmadapt.config import RunConfig, default_config, load_config
from gmmadapt.errors import ConfigError, GmmAdaptError, InvalidSplit, MalformedFile
from gmmadapt.gmm_stream import GaussianMixtureStream
from gmmadapt.metrics import BatchCounts, RunRecord, read_jsonl
from gmmadapt.runner import replay
from gmmadapt.simulator import DomainSpec, ShiftSpec
from gmmadapt.toy_model import PARAM_NAMES, ToyModel


def _record(batch=1) -> RunRecord:
    return RunRecord(batch=batch, acc_known=0.5, acc_unknown=None, h_score=None,
                     adapt_ratio=0.5, pl_precision_known=None, tau_k=0.3, tau_u=0.6,
                     loss_c=0.0, loss_kld=0.0,
                     counts=BatchCounts(n_known=2, n_known_correct=1, n_adapted=1, n_total=2))


def _record_obj(batch=1) -> dict:
    return asdict(_record(batch))


def _feed_config_file(doc, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return load_config(str(path))


def _feed_metrics(doc, tmp_path):
    path = tmp_path / "metrics.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    return read_jsonl(path)


def _feed_model_meta(doc, tmp_path, non_finite=None):
    """Load a checkpoint with metadata doc; non_finite, when given, is
    (array name, value) to put in that array's first entry."""
    path = tmp_path / "model.ckpt"
    model = ToyModel(d_in=3, fd=4, fd_r=2, n_classes=3, seed=13)
    arrays = {f"{prefix}_{k}": v for prefix, store in (("param", model.params),
                                                      ("vel", model.velocity))
              for k, v in store.items()}
    if non_finite is not None:
        name, value = non_finite
        arrays[name].flat[0] = value
    with open(path, "wb") as fh:
        np.savez(fh, meta=json.dumps(doc), **arrays)
    return ToyModel.load(path)


def _feed_resolved_config(doc, tmp_path):
    (tmp_path / "config.resolved.json").write_text(json.dumps(doc))
    records = [json.dumps(_record_obj(k)) for k in range(1, default_config().n_batches + 1)]
    (tmp_path / "metrics.jsonl").write_text("\n".join(records) + "\n")
    return replay(tmp_path)


# name: (valid document, feed(doc, tmp_path), a required key, an int key, a
# float key). A config file is merged over the defaults, so it has no
# required key; a checkpoint's metadata has no float key.
READERS = {
    "load_config": (lambda: {"seed": 1}, _feed_config_file, None, "n_b", "p_reject"),
    "from_dict": (lambda: default_config().to_dict(), lambda doc, _: RunConfig.from_dict(doc),
                  "n_init", "seed", "p_reject"),
    "read_jsonl": (_record_obj, _feed_metrics, "tau_k", "batch", "tau_k"),
    "from_snapshot": (lambda: json.loads(GaussianMixtureStream(2, 2).to_snapshot()),
                      lambda doc, _: GaussianMixtureStream.from_snapshot(json.dumps(doc)),
                      "dim", "n_classes", "jitter"),
    "ToyModel.load": (lambda: {"format_version": 1, "d_in": 3, "fd": 4, "fd_r": 2,
                               "n_classes": 3, "seed": 13},
                      _feed_model_meta, "d_in", "fd", None),
    "replay": (lambda: default_config().resolved_dict(), _feed_resolved_config,
               "n_init", "n_init", "p_reject"),
}


def _faults(required, int_key, float_key):
    """(fault id, the faulty document made from a valid one, regex the
    message must end with)."""
    if required is not None:
        yield ("missing", lambda doc: {k: v for k, v in doc.items() if k != required},
               re.escape(f"keys: missing ['{required}'], unexpected []"))
    yield "not_object", lambda doc: [1, 2], (r"keys: missing \[.+\], unexpected \[\]"
                                             r"|must be dict, got \[1, 2\]")
    yield ("unknown", lambda doc: dict(doc, stray=1),
           re.escape("keys: missing [], unexpected ['stray']"))
    yield ("bool_in_int", lambda doc: dict(doc, **{int_key: True}),
           rf"\b{int_key} must be int, got True")
    if float_key is not None:
        yield ("str_in_float", lambda doc: dict(doc, **{float_key: "0.5"}),
               rf"\b{float_key} must be float( or null)?, got '0.5'")


CASES = [pytest.param(name, fault, pattern, id=f"{name}-{fault_id}")
         for name, (_, _, *keys) in READERS.items()
         for fault_id, fault, pattern in _faults(*keys)]


@pytest.mark.parametrize("name", READERS)
def test_reader_accepts_a_valid_document(tmp_path, name):
    make, feed = READERS[name][:2]
    feed(make(), tmp_path)


@pytest.mark.parametrize("name,fault,pattern", CASES)
def test_reader_rejects_fault_in_shared_words(tmp_path, name, fault, pattern):
    make, feed = READERS[name][:2]
    with pytest.raises(GmmAdaptError) as info:
        feed(fault(make()), tmp_path)
    assert re.search(f"(?:{pattern})$", str(info.value)), str(info.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("array", [f"{prefix}_{k}" for k in PARAM_NAMES
                                   for prefix in ("param", "vel")])
def test_model_reader_rejects_a_non_finite_array(tmp_path, array, value):
    make, feed = READERS["ToyModel.load"][:2]
    with pytest.raises(MalformedFile) as info:
        feed(make(), tmp_path, (array, value))
    assert str(info.value) == (f"{tmp_path / 'model.ckpt'} is not a model checkpoint: "
                               f"array {array} holds a non-finite value")


def _nested(doc, path, value):
    """doc with the value at a dotted path replaced."""
    head, _, rest = path.partition(".")
    return dict(doc, **{head: _nested(doc[head], rest, value) if rest else value})


# Each dataclass the config and record readers reach: the error it raises,
# its path in a document ("" for the top level), a valid document, how a
# document is read, and a valid instance.
REACHED = {
    RunConfig: (ConfigError, "", lambda: default_config().to_dict(),
                lambda doc, _: RunConfig.from_dict(doc), default_config),
    ShiftSpec: (InvalidSplit, "shift.", lambda: default_config().to_dict(),
                lambda doc, _: RunConfig.from_dict(doc), lambda: default_config().shift),
    DomainSpec: (ValueError, "domain.", lambda: default_config().to_dict(),
                 lambda doc, _: RunConfig.from_dict(doc), lambda: default_config().domain),
    RunRecord: (ValueError, "", _record_obj, _feed_metrics, _record),
    BatchCounts: (ValueError, "counts.", _record_obj, _feed_metrics, lambda: _record().counts),
}
# (class, fault, field, value, message after the field's name). A class
# with only int fields takes 10**400, an int too large for a float, as its
# non-finite number.
BIG = reprlib.repr(10**400)
VALUE_FAULTS = [
    (RunConfig, "type", "n_init", True, "must be int, got True"),
    (RunConfig, "non_finite", "temperature", float("nan"), "must be finite, got nan"),
    (RunConfig, "range", "n_init", 0, "must be positive"),
    (ShiftSpec, "type", "n_shared", 2.0, "must be int, got 2.0"),
    (ShiftSpec, "non_finite", "n_shared", 10**400, f"must be finite, got {BIG}"),
    (ShiftSpec, "range", "n_shared", 0, "must be positive, the private class counts nonnegative"),
    (DomainSpec, "type", "d_in", "20", "must be int, got '20'"),
    (DomainSpec, "non_finite", "class_sep", float("inf"), "must be finite, got inf"),
    (DomainSpec, "range", "d_in", 0, "must be positive"),
    (RunRecord, "type", "batch", 1.0, "must be int, got 1.0"),
    (RunRecord, "non_finite", "loss_c", float("-inf"), "must be finite, got -inf"),
    (RunRecord, "range", "adapt_ratio", 0.25, "do not match the counts"),
    (BatchCounts, "type", "n_total", "2", "must be int, got '2'"),
    (BatchCounts, "non_finite", "n_total", 10**400, f"must be finite, got {BIG}"),
    (BatchCounts, "range", "n_known", -1, "must be nonnegative"),
    (BatchCounts, "part", "n_known_correct", 3, "must not exceed n_known, got 3 > 2"),
]
VALUE_FAULT_IDS = [f"{cls.__name__}-{fault}" for cls, fault, *_ in VALUE_FAULTS]


@pytest.mark.parametrize("cls,fault,name,value,message", VALUE_FAULTS, ids=VALUE_FAULT_IDS)
def test_value_fault_read_from_a_document_is_named_by_its_path(tmp_path, cls, fault, name,
                                                               value, message):
    _, prefix, make, feed, _ = REACHED[cls]
    with pytest.raises(GmmAdaptError) as info:
        feed(_nested(make(), prefix + name, value), tmp_path)
    from_log = feed is _feed_metrics
    assert type(info.value) is (MalformedFile if from_log else ConfigError)
    where = f"{tmp_path / 'metrics.jsonl'} line 1: " if from_log else ""
    assert str(info.value) == f"{where}{prefix}{name} {message}"


@pytest.mark.parametrize("cls,fault,name,value,message", VALUE_FAULTS, ids=VALUE_FAULT_IDS)
def test_value_fault_built_in_code_is_the_class_error(cls, fault, name, value, message):
    error, *_, instance = REACHED[cls]
    with pytest.raises(error) as info:
        replace(instance(), **{name: value})
    assert type(info.value) is error
    assert str(info.value) == f"{name} {message}"


def _replay_bytes(data, tmp_path):
    """replay of a run whose config.resolved.json holds data, with a valid log."""
    _feed_resolved_config(default_config().resolved_dict(), tmp_path)
    (tmp_path / "config.resolved.json").write_bytes(data)
    return replay(tmp_path)


def _file(path, data):
    path.write_bytes(data)
    return path


# name: (feed(bytes, tmp_path), its error, the message before the decoder's)
UNDECODABLE = {
    "load_config": (lambda data, tmp_path: load_config(str(_file(tmp_path / "run.json", data))),
                    ConfigError, "config {tmp}/run.json is not valid JSON: "),
    "read_jsonl": (lambda data, tmp_path: read_jsonl(_file(tmp_path / "metrics.jsonl", data)),
                   MalformedFile, "{tmp}/metrics.jsonl line 1: "),
    "from_snapshot": (lambda data, _: GaussianMixtureStream.from_snapshot(data),
                      MalformedFile, "snapshot is not JSON: "),
    "replay": (_replay_bytes, MalformedFile, "{tmp}/config.resolved.json: "),
}


@pytest.mark.parametrize("name", UNDECODABLE)
def test_reader_rejects_a_byte_that_is_not_utf8(tmp_path, name):
    feed, error, where = UNDECODABLE[name]
    data = bytearray(json.dumps(READERS[name][0]()).encode())
    data[len(data) // 2] = 0xff
    with pytest.raises(GmmAdaptError) as info:
        feed(bytes(data), tmp_path)
    assert type(info.value) is error
    assert re.fullmatch(re.escape(where.format(tmp=tmp_path)) + r"'utf-8' codec can't decode "
                        r"byte 0xff in position \d+: invalid start byte", str(info.value))
