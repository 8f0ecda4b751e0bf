"""Entropy-based out-of-distribution gating with self-calibrating thresholds.

Confidence of a sample belonging to the known-class mixture is scored by
the normalized Shannon entropy of its per-class likelihood vector, which
lands in [0, 1]: 0 at a one-hot vector, 1 at the uniform one. Two
thresholds split samples three ways: confidently known (entropy <= tau_k,
pseudo-labeled with the argmax class), confidently out-of-distribution
(entropy >= tau_u, pseudo-labeled unknown), and uncertain (discarded from
adaptation). The thresholds calibrate themselves over the first n_init
batches from per-batch order statistics and freeze afterwards.

Label coding used throughout the package: known classes are 0..C-1, the
unknown class is C, and DISCARDED (-1) marks samples excluded from
adaptation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AlreadyFrozen, BatchTooSmall, DimensionMismatch, NonFiniteInput, Uncalibrated,
                     check_fields)

DISCARDED = -1

# Minimum threshold separation enforced when a degenerate batch would
# collapse tau_k and tau_u onto the same value.
EPS_SEPARATION = 1e-6


def normalized_entropy_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of a (n, C) probability matrix, in [0, 1].

    Computed as 1 - KL(p || uniform)/log(C) rather than -sum(p log p)/log(C):
    the forms are identical mathematically, but the KL form makes a uniform
    row land on exactly 1.0 in floating point (p*C rounds to 1, log(1) == 0)
    while a one-hot row lands on exactly 0.0 in both. With a single class
    every row is 0.0 by convention.
    """
    p = np.asarray(p, dtype=np.float64)
    n = p.shape[1]
    if n == 1:
        return np.zeros(p.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p * n), 0.0)
    kl = np.sum(terms, axis=1)
    return np.clip(1.0 - kl / np.log(n), 0.0, 1.0)


@dataclass
class ThresholdState:
    """Dual entropy thresholds and their running calibration accumulators.

    During the calibration window tau_k/tau_u are running averages of the
    m-th smallest / m-th largest batch entropies, applied immediately
    (adaptation is active from batch 1). After n_init batches they freeze
    for the rest of the run. p_reject is the percentage of each batch left
    *without* a pseudo-label: the quantile rule keeps the bottom and top
    (100 - p_reject)/2 percent.
    """

    n_init: int
    p_reject: float
    tau_k: float = 0.0
    tau_u: float = 0.0
    sum_low: float = 0.0
    sum_high: float = 0.0
    batches_seen: int = 0

    def __post_init__(self):
        check_fields(self, ValueError)
        if self.n_init < 1:
            raise ValueError("n_init must be positive")
        if not 0.0 < self.p_reject < 100.0:
            raise ValueError("p_reject must lie in (0, 100)")

    @property
    def frozen(self) -> bool:
        return self.batches_seen >= self.n_init

    @property
    def tau(self) -> float:
        """Single inference threshold: midpoint of the dual thresholds."""
        return 0.5 * (self.tau_k + self.tau_u)

    def calibrate(self, entropies: np.ndarray) -> "ThresholdState":
        """Fold one batch of entropy values into the threshold averages.

        The cut rank is m = max(1, round(N_b * (100 - p_reject)/200)), a
        nearest-rank quantile (round half away from zero). When tau would
        not fall strictly between the running averages (they coincide, or
        are adjacent floats whose midpoint rounds onto one of them), both
        move a symmetric eps away from that midpoint, so tau_k < tau < tau_u
        always holds. A non-finite entropy raises NonFiniteInput before any
        field changes.
        """
        if self.frozen:
            raise AlreadyFrozen(f"calibration window closed after {self.n_init} batches")
        entropies = np.asarray(entropies, dtype=np.float64)
        n = entropies.shape[0]
        if n < 4:
            raise BatchTooSmall(f"need at least 4 samples to calibrate, got {n}")
        if not np.all(np.isfinite(entropies)):
            raise NonFiniteInput("calibration entropies must be finite")
        m = max(1, int(np.floor(n * (100.0 - self.p_reject) / 200.0 + 0.5)))
        ordered = np.sort(entropies)
        low = float(ordered[m - 1])
        high = float(ordered[n - m])
        self.sum_low += low
        self.sum_high += high
        self.batches_seen += 1
        self.tau_k = self.sum_low / self.batches_seen
        self.tau_u = self.sum_high / self.batches_seen
        mid = self.tau
        if not self.tau_k < mid < self.tau_u:
            self.tau_k = mid - EPS_SEPARATION
            self.tau_u = mid + EPS_SEPARATION
        return self

    def _gate_inputs(self, p: np.ndarray, entropies: np.ndarray):
        """p as float64 and its checked entropies, before any output is built.

        One finite entropy per row of p is required: a NaN would compare
        False with both thresholds and be routed without a word.
        """
        if self.batches_seen < 1:
            raise Uncalibrated("thresholds have not seen any calibration batch")
        p = np.asarray(p, dtype=np.float64)
        entropies = np.asarray(entropies, dtype=np.float64)
        if entropies.shape != p.shape[:1]:
            raise DimensionMismatch(
                f"entropies of shape {entropies.shape} for {p.shape[0]} likelihood rows"
            )
        if not np.all(np.isfinite(entropies)):
            raise NonFiniteInput("gate entropies must be finite")
        return p, entropies

    def pseudo_label_batch(self, p: np.ndarray, entropies: np.ndarray) -> np.ndarray:
        """Three-way pseudo-label per row of likelihood vectors p.

        A row gets its argmax class (ties to the lowest index) when its
        entropy is at most tau_k, the unknown class C when it is at least
        tau_u, and DISCARDED in between. entropies: normalized_entropy_rows(p).
        """
        p, entropies = self._gate_inputs(p, entropies)
        labels = np.full(p.shape[0], DISCARDED, dtype=int)
        known = entropies <= self.tau_k
        unknown = entropies >= self.tau_u
        labels[known] = np.argmax(p[known], axis=1)
        labels[unknown] = p.shape[1]
        return labels

    def predict_batch(self, softmax_outs: np.ndarray, p: np.ndarray,
                      entropies: np.ndarray) -> np.ndarray:
        """Inference rule per aligned row: classifier argmax gated by entropy.

        The class decision uses the model softmax, the gate uses the
        entropies of the mixture likelihoods p against tau = (tau_k +
        tau_u)/2; the boundary entropy == tau routes to the known branch.
        softmax_outs must have p's shape, so that no argmax reaches the
        unknown label C.
        """
        p, entropies = self._gate_inputs(p, entropies)
        softmax_outs = np.asarray(softmax_outs, dtype=np.float64)
        if softmax_outs.shape != p.shape:
            raise DimensionMismatch(
                f"softmax {softmax_outs.shape} and likelihoods {p.shape} differ"
            )
        preds = np.full(p.shape[0], p.shape[1], dtype=int)
        known = entropies <= self.tau
        preds[known] = np.argmax(softmax_outs[known], axis=1)
        return preds
