"""Microbenchmark of source training: train_source_model at the default
config (9 source classes, d_in 20, fd 256, 4500 samples, 6 epochs of
64-sample batches), the set-up every fresh adapt run pays. Three timed
rounds on one prebuilt task keep the suite fast. Run it alone with

    python -m pytest tests/test_bench_toy_model.py --benchmark-only

It is skipped where pytest-benchmark is not installed.
"""
import pytest

from gmmadapt.config import default_config
from gmmadapt.runner import build_task, train_source_model

pytest.importorskip("pytest_benchmark")


def test_train_source_model(benchmark):
    cfg = default_config()
    source, _ = build_task(cfg)
    _, holdout_acc, history = benchmark.pedantic(
        train_source_model, args=(cfg, source), rounds=3, warmup_rounds=1)
    assert len(history) == cfg.source_epochs
    assert holdout_acc >= 0.9
