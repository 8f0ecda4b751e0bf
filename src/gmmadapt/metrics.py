"""Scoring, per-batch records, summaries, and the memory-footprint model.

Known-class accuracy counts a sample correct when the prediction equals
its true class exactly; unknown-class accuracy when a true-unknown sample
is predicted as the unknown class. The H-score is the harmonic mean of the
two. Rates with empty denominators are recorded as explicit nulls, never
zeros, so averages are not poisoned.

Records are emitted as JSONL, one object per batch in stable key order;
each row carries a counts sub-object so summaries can be recomputed
exactly from the file alone. read_jsonl reads each line back with
errors.read_dataclass, the reader of configs too; a record's counts must
be nonnegative and fit together (a part never exceeds its whole, and the
known and unknown samples make up the batch), its rates must follow from
them, and the n-th record must be batch n.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, MalformedFile, check_fields, read_dataclass
from .linalg import packed_size
from .ood_gate import DISCARDED


def h_score(acc_known: float, acc_unknown: float) -> float:
    """Harmonic mean of the two accuracies; 0 when both vanish."""
    if acc_known + acc_unknown == 0.0:
        return 0.0
    return 2.0 * acc_known * acc_unknown / (acc_known + acc_unknown)


@dataclass
class MemoryModelInputs:
    """The sizes the memory table reads, by default the paper's."""

    fd: int = 256
    fd_r: int = 64
    queue_len: int = 55_388
    teacher_params: int = 24_000_000

    def __post_init__(self):
        check_fields(self, ValueError)
        for name, value in vars(self).items():
            if value <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class MemoryReport:
    n_gmm: int
    n_queue: int
    n_teacher: int
    ratio_queue: float
    ratio_teacher: float


def memory_report(m: MemoryModelInputs, n_classes: int) -> MemoryReport:
    """Stored-value counts of the three cross-batch memories at n_classes
    classes, and their ratios.

    Mixture: per class a mean (fd_r), a packed covariance triangle
    (fd_r(fd_r+1)/2) and one weight. Queue: features plus classifier
    outputs for queue_len samples. Teacher: one parameter copy.
    """
    if n_classes < 1:
        raise ValueError("n_classes must be positive")
    n_gmm = (m.fd_r + packed_size(m.fd_r) + 1) * n_classes
    n_queue = m.queue_len * (m.fd + n_classes)
    return MemoryReport(
        n_gmm=n_gmm,
        n_queue=n_queue,
        n_teacher=m.teacher_params,
        ratio_queue=n_gmm / n_queue,
        ratio_teacher=n_gmm / m.teacher_params,
    )


@dataclass
class BatchCounts:
    """Raw tallies behind one record; ints pool exactly across batches."""

    n_known: int = 0
    n_known_correct: int = 0
    n_unknown: int = 0
    n_unknown_correct: int = 0
    n_adapted: int = 0
    n_total: int = 0
    n_pl_known: int = 0
    n_pl_known_correct: int = 0

    def __post_init__(self):
        check_fields(self, ValueError)
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
        for part, whole in (("n_known_correct", "n_known"), ("n_unknown_correct", "n_unknown"),
                            ("n_pl_known_correct", "n_pl_known"), ("n_pl_known", "n_adapted"),
                            ("n_adapted", "n_total")):
            if getattr(self, part) > getattr(self, whole):
                raise ValueError(f"{part} must not exceed {whole}, "
                                 f"got {getattr(self, part)} > {getattr(self, whole)}")
        if self.n_known + self.n_unknown != self.n_total:
            raise ValueError(f"n_known + n_unknown must equal n_total, got "
                             f"{self.n_known} + {self.n_unknown} != {self.n_total}")


@dataclass
class RunRecord:
    """One metric row; None marks rates with an empty denominator."""

    batch: int
    acc_known: float | None
    acc_unknown: float | None
    h_score: float | None
    adapt_ratio: float
    pl_precision_known: float | None
    tau_k: float
    tau_u: float
    loss_c: float
    loss_kld: float
    counts: BatchCounts = field(default_factory=BatchCounts)

    def __post_init__(self):
        check_fields(self, ValueError)
        wrong = [k for k, v in rates_from_counts(self.counts).items() if getattr(self, k) != v]
        if wrong:
            raise ValueError(f"{', '.join(wrong)} do not match the counts")


def score_batch(
    true_labels: np.ndarray,
    predictions: np.ndarray,
    pseudo_labels: np.ndarray,
    n_classes: int,
) -> tuple[BatchCounts, dict]:
    """Tally one batch and derive its rates.

    true_labels use the unknown marker n_classes for target-private
    samples; predictions come from the inference rule; pseudo_labels use
    the DISCARDED/known/unknown coding.
    """
    true_labels = np.asarray(true_labels)
    predictions = np.asarray(predictions)
    pseudo_labels = np.asarray(pseudo_labels)
    if not (true_labels.shape == predictions.shape == pseudo_labels.shape):
        raise DimensionMismatch("labels, predictions and pseudo-labels must align")

    known_mask = true_labels < n_classes
    unknown_mask = ~known_mask
    pl_known_mask = (pseudo_labels >= 0) & (pseudo_labels < n_classes)

    c = BatchCounts(
        n_known=int(known_mask.sum()),
        n_known_correct=int((predictions[known_mask] == true_labels[known_mask]).sum()),
        n_unknown=int(unknown_mask.sum()),
        n_unknown_correct=int((predictions[unknown_mask] == n_classes).sum()),
        n_adapted=int((pseudo_labels != DISCARDED).sum()),
        n_total=int(true_labels.shape[0]),
        n_pl_known=int(pl_known_mask.sum()),
        n_pl_known_correct=int((pseudo_labels[pl_known_mask] == true_labels[pl_known_mask]).sum()),
    )
    return c, rates_from_counts(c)


def rates_from_counts(c: BatchCounts) -> dict:
    acc_known = c.n_known_correct / c.n_known if c.n_known else None
    acc_unknown = c.n_unknown_correct / c.n_unknown if c.n_unknown else None
    h = h_score(acc_known, acc_unknown) if (acc_known is not None and acc_unknown is not None) else None
    return {
        "acc_known": acc_known,
        "acc_unknown": acc_unknown,
        "h_score": h,
        "adapt_ratio": c.n_adapted / c.n_total if c.n_total else 0.0,
        "pl_precision_known": c.n_pl_known_correct / c.n_pl_known if c.n_pl_known else None,
    }


def pool_counts(counts: list[BatchCounts]) -> BatchCounts:
    total = BatchCounts()
    for c in counts:
        for k in vars(total):
            setattr(total, k, getattr(total, k) + getattr(c, k))
    return total


def summarize(records: list[RunRecord], kind: str, n_init: int) -> dict:
    """Run summary: sample-weighted pooling over the full run and over the
    post-calibration window, plus the adaptation-ratio trend windows.

    PDA scoring is plain accuracy over all samples; ODA/OPDA use the
    H-score of the pooled accuracies. Deterministic given the records, so
    a stored metrics file reproduces it exactly.
    """
    def window(recs):
        pooled = pool_counts([r.counts for r in recs])
        rates = rates_from_counts(pooled)
        correct = pooled.n_known_correct + pooled.n_unknown_correct
        accuracy = correct / pooled.n_total if pooled.n_total else None
        return {
            "n_batches": len(recs),
            "n_samples": pooled.n_total,
            "acc_known": rates["acc_known"],
            "acc_unknown": rates["acc_unknown"],
            "h_score": rates["h_score"],
            "accuracy": accuracy,
            "adapt_ratio": rates["adapt_ratio"],
            "pl_precision_known": rates["pl_precision_known"],
            "primary_metric": accuracy if kind == "PDA" else rates["h_score"],
        }

    post = [r for r in records if r.batch > n_init]
    early_window = [r for r in records if n_init < r.batch <= n_init + 20]
    final_window = records[-20:]

    frozen = len(records) >= n_init
    summary = {
        "shift_kind": kind,
        "n_batches": len(records),
        "thresholds_frozen": frozen,
        "warnings": [] if frozen else ["thresholds never froze: run shorter than n_init"],
        "tau_k": records[-1].tau_k if records else None,
        "tau_u": records[-1].tau_u if records else None,
        "full_run": window(records),
        "post_calibration": window(post) if post else None,
        "adapt_ratio_early_window": _mean_or_none([r.adapt_ratio for r in early_window]),
        "adapt_ratio_final_window": _mean_or_none([r.adapt_ratio for r in final_window]),
        "mean_loss_c": _mean_or_none([r.loss_c for r in records]),
        "mean_loss_kld": _mean_or_none([r.loss_kld for r in records]),
    }
    return summary


def _mean_or_none(values: list[float]) -> float | None:
    return float(np.mean(values)) if values else None


# -- emitters -------------------------------------------------------------

def write_jsonl(records: list[RunRecord], path) -> None:
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps({**vars(r), "counts": vars(r.counts)}) + "\n")


def read_jsonl(path) -> list[RunRecord]:
    """The records of a metrics.jsonl file, the n-th of batch n; blank lines are skipped."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    record = read_dataclass(RunRecord, json.loads(line), "record", MalformedFile)
                    if record.batch != len(records) + 1:
                        raise MalformedFile(f"batch {record.batch}, expected {len(records) + 1}")
                except (json.JSONDecodeError, MalformedFile) as err:
                    raise MalformedFile(f"{path} line {lineno}: {err}") from err
                records.append(record)
    return records


def csv_text(rows: list[dict], columns) -> str:
    """Header line plus one line per dict row: None is an empty cell, a
    float its repr, anything else str.
    """
    def cell(v):
        return "" if v is None else repr(v) if isinstance(v, float) else str(v)

    lines = [",".join(columns)]
    lines += [",".join(cell(row[k]) for k in columns) for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(rows: list[dict], path, columns) -> None:
    Path(path).write_text(csv_text(rows, columns))
