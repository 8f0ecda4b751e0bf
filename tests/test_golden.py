"""Byte-level pins of the default run's outputs.

Any change to the arithmetic of the mixture, the gate, the losses or the
model shows up here first: the seed-0 default run must write exactly
these bytes, in every file of its run directory. The resolved config pins
the serialized schema as well: key names, key order and number
formatting.
"""
import hashlib

from gmmadapt.config import default_config
from gmmadapt.runner import run_adapt

PINNED = {
    "metrics.jsonl": "607df1d66ac04d22a711cafcd035b8bffece221b96fa521a7772efb096589081",
    "gmm.ckpt": "5ae2e88e28711ad4339c8638f3f0843f8d17c32a3f2a8ea08d3901cf7c3c98c2",
    "config.resolved.json": "cc2ecf55bd8aeeeb4569edf71afb96ba9316c39ec799d844ce8976676b8d3be6",
    "summary.json": "873fea912a62492090abc858eb84aba9ce02ccacc9f7a2ab64fd8769909b3c9e",
    "model.ckpt": "60255dd7c33c23f5a0b49f371984daf4fce6afbe648de15a90972512003b4f5d",
}


def test_default_run_bytes_pinned(tmp_path):
    run_adapt(default_config(), tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED
    }
    assert digests == PINNED
