"""Microbenchmark of the contrastive loss at the default shape: a doubled
batch of 2n = 128 reduced features at fd_r 64, 9 known classes and about
a third of the samples discarded, the call every default adaptation step
makes once. Five timed rounds keep the suite fast. Run it alone with

    python -m pytest tests/test_bench_objectives.py --benchmark-only

It is skipped where pytest-benchmark is not installed.
"""
import numpy as np
import pytest

from gmmadapt.objectives import contrastive_loss
from test_objectives import default_shape_instance

pytest.importorskip("pytest_benchmark")


def test_contrastive_loss(benchmark):
    feats, labels, protos, n_classes, tau = default_shape_instance(0)
    loss, grad = benchmark.pedantic(
        contrastive_loss, args=(feats, labels, protos, n_classes, tau),
        rounds=5, iterations=20, warmup_rounds=1)
    assert np.isfinite(loss) and loss > 0.0
    assert grad.shape == feats.shape
