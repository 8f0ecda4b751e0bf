"""Per-class Gaussian modes updated recursively from a batch stream.

Each of the known classes is one Gaussian mode. A batch contributes to
every mode, weighted by the softmax classifier outputs: the cumulative
soft mass s(c) grows by the batch's class-c mass, the mean becomes the
mass-weighted blend of the old mean and the batch,

    s_k(c)   = s_{k-1}(c) + sum_i w[i,c]
    mu_k(c)  = (s_{k-1}(c) * mu_{k-1}(c) + sum_i w[i,c] * r_i) / s_k(c)
    Sig_k(c) = (s_{k-1}(c) * Sig_{k-1}(c)
                + sum_i w[i,c] * (r_i - mu_k(c))(r_i - mu_k(c))^T) / s_k(c)

and the covariance recursion centers the batch scatter on the *new* mean.
The recursion for the mean is exactly a cumulative weighted mean over all
samples ever seen; the covariance recursion is the method as defined, not
the pooled scatter (for a fresh mode the two coincide).

The whole state is three arrays, independent of how many batches were
processed: ``means`` (C, d), ``cov_packed`` (C, P) holding each packed
covariance triangle (P = d(d+1)/2) and ``mass`` (C,). A mode with mass 0
has never received mass; its mean and covariance are zero placeholders
and it is skipped everywhere. Work runs over blocks of at most BLOCK
classes: one stacked scatter per block in ``update``, one stacked
Cholesky per block in the likelihoods. Cholesky factors live only inside
one likelihood call and are never stored, so the state is exactly what
``memory_footprint`` counts.
"""
from __future__ import annotations

import copy
import json

import numpy as np

from . import linalg
from .errors import DimensionMismatch, MalformedFile, NoInitializedMode, NonFiniteInput

SNAPSHOT_VERSION = 1

# Classes per stacked scatter or Cholesky. Bounds the transient dense
# (BLOCK, d, d) stacks, several of which are live at once: at d = 64 each
# is 2 MB, where one stack of all 345 classes would be 11 MB.
BLOCK = 64


def _blocks(classes: np.ndarray):
    for start in range(0, classes.size, BLOCK):
        yield classes[start:start + BLOCK]


class GaussianMixtureStream:
    """Streaming weighted Gaussian mixture over a fixed set of known classes.

    The mode count never changes; new/unknown classes are never modes.
    Updates are sequential per run (the recursion is order-dependent across
    batches by design); instances are plain values that may be copied or
    moved between threads, but concurrent mutation is unsupported.
    """

    def __init__(self, n_classes: int, dim: int, jitter: float = 1e-6):
        if n_classes < 1:
            raise ValueError("need at least one class")
        if jitter < 0:
            raise ValueError("jitter must be nonnegative")
        self.n_classes = n_classes
        self.dim = dim
        self.jitter = float(jitter)
        self.batch_counter = 0
        self.means = np.zeros((n_classes, dim))
        self.cov_packed = np.zeros((n_classes, linalg.packed_size(dim)))
        self.mass = np.zeros(n_classes)

    def copy(self) -> "GaussianMixtureStream":
        return copy.deepcopy(self)

    def update(self, feats: np.ndarray, weights: np.ndarray) -> "GaussianMixtureStream":
        """Fold one batch into the mixture (one recursion step per class).

        feats: (n, dim) reduced features; weights: (n, n_classes) softmax
        outputs, rows summing to 1. Classes whose batch mass is zero are
        left untouched; for them the recursion is the identity anyway.
        """
        feats = np.asarray(feats, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] != self.dim:
            raise DimensionMismatch(f"feats shape {feats.shape}, expected (n, {self.dim})")
        if weights.shape != (feats.shape[0], self.n_classes):
            raise DimensionMismatch(
                f"weights shape {weights.shape}, expected ({feats.shape[0]}, {self.n_classes})"
            )
        if feats.shape[0] < 1:
            raise DimensionMismatch("batch must contain at least one sample")
        if not np.all(np.isfinite(feats)) or not np.all(np.isfinite(weights)):
            raise NonFiniteInput("batch contains non-finite values")
        row_sums = weights.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-6) or np.any(weights < -1e-12):
            raise ValueError("weight rows must be nonnegative and sum to 1")

        # Reduce samples in a canonical order so that shuffling a batch
        # yields bit-identical parameters (summation order is fixed): the
        # lexicographic order over the weight columns, then the feature
        # columns, each taken last column first. When the primary key,
        # the last weight column, has no ties, its sort is that order.
        order = np.argsort(weights[:, -1], kind="stable")
        primary = weights[order, -1]
        if np.any(primary[1:] == primary[:-1]):
            order = np.lexsort(np.vstack([feats.T, weights.T]))
        feats = feats[order]
        weights = weights[order]

        batch_mass = weights.sum(axis=0)
        weighted_sums = weights.T @ feats
        for block in _blocks(np.flatnonzero(batch_mass > 0.0)):
            s_prev = self.mass[block, None]
            s_new = s_prev + batch_mass[block, None]
            new_means = (s_prev * self.means[block] + weighted_sums[block]) / s_new
            scatter = linalg.weighted_scatter(feats, weights[:, block], new_means)
            self.cov_packed[block] = (s_prev * self.cov_packed[block] + scatter) / s_new
            self.means[block] = new_means
            self.mass[block] = s_new[:, 0]
        self.batch_counter += 1
        return self

    def class_log_likelihoods_batch(self, feats: np.ndarray) -> np.ndarray:
        """Row-wise class log-densities, shape (n, n_classes).

        -inf for modes that never received mass. Each block of modes is
        factored here, with the mixture's jitter, and the factors are
        dropped on return.
        """
        feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] != self.dim:
            raise DimensionMismatch(f"feats shape {feats.shape}, expected (n, {self.dim})")
        if not np.all(np.isfinite(feats)):
            raise NonFiniteInput("feats contain non-finite values")
        live = np.flatnonzero(self.mass > 0.0)
        if live.size == 0:
            raise NoInitializedMode("no mode has received mass yet")
        out = np.full((feats.shape[0], self.n_classes), -np.inf)
        for block in _blocks(live):
            chols = linalg.cholesky(linalg.unpack(self.cov_packed[block], self.dim), self.jitter)
            out[:, block] = linalg.log_gauss_density_batch(feats, self.means[block], chols)
        return out

    def likelihood_vectors(self, feats: np.ndarray) -> np.ndarray:
        """Normalized per-class likelihoods via log-sum-exp, rows sum to 1.

        Uninitialized modes are excluded from the normalization and get
        probability 0 (a -inf log-density contributes nothing).
        """
        logp = self.class_log_likelihoods_batch(feats)
        shift = np.max(logp, axis=1, keepdims=True)
        expd = np.exp(logp - shift)
        return expd / expd.sum(axis=1, keepdims=True)

    def prototypes(self) -> tuple[np.ndarray, np.ndarray]:
        """(class indices, means) of all initialized modes."""
        idx = np.flatnonzero(self.mass > 0.0)
        return idx, self.means[idx]

    def memory_footprint(self) -> int:
        """Stored reals: the sizes of the three state arrays."""
        return self.means.size + self.cov_packed.size + self.mass.size

    # -- snapshot serialization ------------------------------------------
    # JSON object, field order fixed: format_version, n_classes, dim,
    # jitter, batch_counter, modes. Each mode: weight, mean, cov_packed.

    def to_snapshot(self) -> str:
        doc = {
            "format_version": SNAPSHOT_VERSION,
            "n_classes": self.n_classes,
            "dim": self.dim,
            "jitter": self.jitter,
            "batch_counter": self.batch_counter,
            "modes": [
                {"weight": weight, "mean": mean, "cov_packed": cov}
                for weight, mean, cov in zip(
                    self.mass.tolist(), self.means.tolist(), self.cov_packed.tolist()
                )
            ],
        }
        return json.dumps(doc)

    @classmethod
    def from_snapshot(cls, blob: str) -> "GaussianMixtureStream":
        """Load a snapshot, rejecting any mode that does not fit the header.

        Raises MalformedFile for another version or a missing field,
        DimensionMismatch for a mode count other than n_classes or a
        mean/cov_packed of the wrong length, and NonFiniteInput for a
        non-finite value or a negative weight.
        """
        doc = json.loads(blob)
        if doc.get("format_version") != SNAPSHOT_VERSION:
            raise MalformedFile(f"unsupported snapshot version {doc.get('format_version')!r}")
        try:
            state = cls(doc["n_classes"], doc["dim"], doc["jitter"])
            state.batch_counter = doc["batch_counter"]
            modes = doc["modes"]
            if len(modes) != state.n_classes:
                raise DimensionMismatch(f"{len(modes)} modes for {state.n_classes} classes")
            for key, size in (("mean", state.dim), ("cov_packed", state.cov_packed.shape[1])):
                for c, entry in enumerate(modes):
                    if len(entry[key]) != size:
                        raise DimensionMismatch(
                            f"mode {c}: {key} has {len(entry[key])} entries, expected {size}"
                        )
            state.mass = np.array([entry["weight"] for entry in modes], dtype=np.float64)
            state.means = np.array([entry["mean"] for entry in modes], dtype=np.float64)
            state.cov_packed = np.array([entry["cov_packed"] for entry in modes],
                                        dtype=np.float64)
        except KeyError as err:
            raise MalformedFile(f"snapshot lacks the field {err}") from err
        if not np.all(np.isfinite(state.mass) & (state.mass >= 0.0)):
            raise NonFiniteInput("mode weights must be finite and nonnegative")
        if not (np.all(np.isfinite(state.means)) and np.all(np.isfinite(state.cov_packed))):
            raise NonFiniteInput("mode means and covariances must be finite")
        return state
