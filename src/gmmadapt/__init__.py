"""Memory-efficient online pseudo-labeling and adaptation under domain and
category shift: a streaming per-class Gaussian mixture, normalized-entropy
out-of-distribution gating with self-calibrating thresholds, and a
contrastive + KL-divergence adaptation loop, exercised end-to-end on a
synthetic feature-stream simulator.
"""
import os
import sys

# The matrices are small, so BLAS threads cost more than they give. A value
# the caller set stays. OpenBLAS reads the variable as it loads, so when numpy
# was imported before this line, the loaded OpenBLAS copies are pinned below.
_PIN_OPENBLAS = "numpy" in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import linalg
from .config import RunConfig, default_config, load_config
from .gmm_stream import GaussianMixtureStream
from .metrics import MemoryModelInputs, RunRecord, h_score, memory_report, score_batch
from .objectives import contrastive_loss, kld_loss
from .ood_gate import DISCARDED, ThresholdState, normalized_entropy_rows
from .runner import adapt_stream, build_task, replay, run_adapt, run_memory, run_sweep
from .simulator import DomainSpec, ShiftSpec, StreamBatch, TargetStream, make_task
from .toy_model import ForwardCache, OptimizerConfig, ToyModel, augment, train_source

if _PIN_OPENBLAS:
    linalg.pin_openblas()

__version__ = "0.1.0"

__all__ = [
    "DISCARDED",
    "DomainSpec",
    "ForwardCache",
    "GaussianMixtureStream",
    "MemoryModelInputs",
    "OptimizerConfig",
    "RunConfig",
    "RunRecord",
    "ShiftSpec",
    "StreamBatch",
    "TargetStream",
    "ThresholdState",
    "ToyModel",
    "adapt_stream",
    "augment",
    "build_task",
    "contrastive_loss",
    "default_config",
    "h_score",
    "kld_loss",
    "load_config",
    "make_task",
    "memory_report",
    "normalized_entropy_rows",
    "replay",
    "run_adapt",
    "run_memory",
    "run_sweep",
    "score_batch",
    "train_source",
]
