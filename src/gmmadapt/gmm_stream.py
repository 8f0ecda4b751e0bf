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
classes: in ``update`` one stacked scatter per block, folded into the
block's covariance rows in place; in the likelihoods one stacked Cholesky
per block and one in-place BLAS triangular solve per mode. Every mode's
floating-point operations are the same whatever the block size, so BLOCK
sets speed, never results. The blocks of one call are independent, each
writing only its own classes' rows or columns, so with several blocks
they run on a per-process pool of one thread per usable CPU, and the
bytes are those of a serial loop. Cholesky factors and every other work
array live only inside one call and are never stored, so the state is
exactly what ``memory_footprint`` counts.
"""
from __future__ import annotations

import copy
import json
import os
import reprlib

import numpy as np

from . import linalg
from .errors import (DimensionMismatch, MalformedFile, NoInitializedMode, NonFiniteInput,
                     check_keys, check_number, check_type)

# Classes per stacked scatter or Cholesky, chosen by measurement so that
# a block's work arrays stay in a core's L2 cache. Each (BLOCK, n, d) or
# (BLOCK, d, d) stack takes 32 KB per class at d = n = 64: 0.5 MB at 16
# classes, and the three or four live at once fit in a 2 MB L2, where at
# 64 classes each stack alone is 2 MB. Results do not depend on BLOCK.
BLOCK = 16


def _blocks(classes: np.ndarray):
    """(rows, ids) per run of at most BLOCK of the given classes.

    ids holds the class indices; rows indexes the state arrays with them,
    as a slice when they are consecutive (the usual case, every class
    having mass), so that the block's rows are views and not copies.
    """
    for start in range(0, classes.size, BLOCK):
        ids = classes[start:start + BLOCK]
        consecutive = ids[-1] - ids[0] == ids.size - 1
        yield (slice(ids[0], ids[-1] + 1) if consecutive else ids), ids


# Threads in the block pool: one per CPU this process may run on.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
_pool = None  # (pid, WORKERS, executor), made on first use in each process


def _each_block(classes: np.ndarray, work) -> None:
    """work(rows, ids) for each block of the classes (see _blocks): on the
    pool when there are several blocks and workers, else in this thread.
    Every block finishes; then the first failing block's error, in block
    order, is raised, as from a serial loop."""
    global _pool
    blocks = list(_blocks(classes))
    if len(blocks) == 1 or WORKERS == 1:
        for rows, ids in blocks:
            work(rows, ids)
        return
    # No lock: a race makes one spare pool, dropped with its threads, and a
    # lock held by another thread at a fork would stay held in the child.
    if _pool is None or _pool[:2] != (os.getpid(), WORKERS):
        from concurrent.futures import ThreadPoolExecutor

        _pool = os.getpid(), WORKERS, ThreadPoolExecutor(WORKERS, "gmm-block")
    futures = [_pool[2].submit(work, rows, ids) for rows, ids in blocks]
    for error in [f.exception() for f in futures]:
        if error is not None:
            raise error


class GaussianMixtureStream:
    """Streaming weighted Gaussian mixture over a fixed set of known classes.

    The mode count never changes; new/unknown classes are never modes.
    Updates are sequential per run (the recursion is order-dependent across
    batches by design); within one call, the blocks of classes run on the
    module's thread pool. Instances are plain values that may be copied or
    moved between threads, but concurrent mutation is unsupported.
    """

    format_version = 1  # of the snapshot layout

    def __init__(self, n_classes: int, dim: int, jitter: float = 1e-6):
        if n_classes < 1:
            raise ValueError("need at least one class")
        if dim < 1:
            raise ValueError("need at least one feature dimension")
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

        def fold(rows, _):
            s_prev = self.mass[rows, None]
            s_new = s_prev + batch_mass[rows, None]
            new_means = (s_prev * self.means[rows] + weighted_sums[rows]) / s_new
            # (s_prev * cov + scatter) / s_new, folded in place: on the
            # state itself when rows is a slice
            cov = self.cov_packed[rows]
            cov *= s_prev
            cov += linalg.weighted_scatter(feats, weights[:, rows], new_means)
            cov /= s_new
            self.cov_packed[rows] = cov
            self.means[rows] = new_means
            self.mass[rows] = s_new[:, 0]

        _each_block(np.flatnonzero(batch_mass > 0.0), fold)
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

        def densities(rows, ids):
            # unpacking reads scattered entries, faster from a fresh, cached
            # copy of the block's rows than from the state itself
            chols = linalg.cholesky(self.cov_packed[ids], self.jitter, ids=ids)
            out[:, rows] = linalg.log_gauss_density_batch(feats, self.means[rows], chols, ids=ids)

        _each_block(live, densities)
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
    # One JSON object laid out by _HEADER and _MODE below, written and read mode by mode.

    def to_snapshot(self) -> str:
        head = json.dumps({key: getattr(self, key) for key in _HEADER})
        pieces = [head[:-1] + ', "modes": [']
        for row in zip(*(getattr(self, array) for array in _MODE.values())):
            pieces += json.dumps(dict(zip(_MODE, (v.tolist() for v in row)))), ", "
        pieces[-1] = "]}"  # the last separator's place closes the list and the document
        return "".join(pieces)  # one join: another whole copy of the text would add to peak RSS

    @classmethod
    def from_snapshot(cls, blob: str) -> "GaussianMixtureStream":
        """Load a snapshot, rejecting any mode that does not fit the header.

        Raises MalformedFile for text that is not a JSON object, another
        version, a missing or unknown field, a header value of the wrong
        type or range, or a mode value that is not made of numbers (a JSON
        boolean is not a number), naming the mode;
        DimensionMismatch for a mode count other than n_classes or a
        mean/cov_packed of the wrong length; and NonFiniteInput for a
        non-finite value or a negative weight.
        """
        try:
            doc = json.loads(blob, object_hook=_rows_as_arrays)
        except json.JSONDecodeError as err:
            raise MalformedFile(f"snapshot is not JSON: {err}") from err
        check_keys(doc, [*_HEADER, "modes"], "snapshot", MalformedFile)
        if doc["format_version"] != cls.format_version:
            raise MalformedFile(f"unsupported snapshot version {doc['format_version']!r}")
        for key, (typ, least) in _HEADER.items():
            check_number(doc[key], typ, least, f"snapshot {key}", MalformedFile)
        n_classes, dim, modes = doc["n_classes"], doc["dim"], doc["modes"]
        check_type(modes, list, False, "snapshot modes", MalformedFile)
        if len(modes) != n_classes:
            raise DimensionMismatch(f"{len(modes)} modes for {n_classes} classes")
        state = cls(n_classes, dim, doc["jitter"])
        state.batch_counter = doc["batch_counter"]
        for c, entry in enumerate(modes):
            check_keys(entry, _MODE, f"snapshot mode {c}", MalformedFile)
            for key, array in _MODE.items():
                value, rows = entry[key], getattr(state, array)
                if not isinstance(value, np.ndarray):
                    kind = "a number" if key == "weight" else "a list of numbers"
                    raise MalformedFile(f"snapshot mode {c} {key} must be {kind}, "
                                        f"got {reprlib.repr(value)}")
                if value.shape != rows.shape[1:]:
                    raise DimensionMismatch(f"mode {c}: {key} has {value.size} entries, "
                                            f"expected {rows[c].size}")
                rows[c] = value
        if not np.all(np.isfinite(state.mass) & (state.mass >= 0.0)):
            raise NonFiniteInput("mode weights must be finite and nonnegative")
        if not (np.all(np.isfinite(state.means)) and np.all(np.isfinite(state.cov_packed))):
            raise NonFiniteInput("mode means and covariances must be finite")
        return state


# gmm.ckpt's layout, in the order written: each header key with its type
# and least value, then "modes", one object per class whose keys name the
# state array that the class's row comes from.
_HEADER = {"format_version": (int, 1), "n_classes": (int, 1), "dim": (int, 1),
           "jitter": (float, 0), "batch_counter": (int, 0)}
_MODE = {"weight": "mass", "mean": "means", "cov_packed": "cov_packed"}


def _rows_as_arrays(obj: dict) -> dict:
    """json object hook: a mode's numbers as float64 arrays (the weight 0-d),
    so that no mode's float objects outlive its parse. Types are tested in
    one C-level pass, since numpy would take a JSON boolean for 0 or 1; a
    value not made of numbers is left as parsed, for from_snapshot."""
    if obj.keys() == _MODE.keys():
        for key, value in obj.items():
            items = [value] if key == "weight" else value
            if type(items) is list and set(map(type, items)) <= {int, float}:
                try:
                    obj[key] = np.array(value, dtype=np.float64)
                except OverflowError as err:
                    raise MalformedFile(
                        f"a mode's {key} holds an integer too large for a float") from err
    return obj
