"""Synthetic source/target generator for category- and domain-shift streams.

Classes are unit-variance Gaussian blobs at mutually distant centers in
input space. The category shift follows the ordered-split scheme: the
source trains on the first n_shared + n_source_private class indices, the
target stream mixes the shared classes with the last n_target_private ones
(which the adapter must reject as unknown). The domain shift applies a
seeded rotation to the blob centers, a translation, and a larger noise
scale; with the identity rotation, zero translation and equal noise the
shared-class distributions coincide exactly (the null-shift sanity task).

True labels ride along for scoring only; the unknown marker equals the
number of source classes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSplit, check_fields
from .linalg import expm

SHIFT_KINDS = ("PDA", "ODA", "OPDA")
# Largest max|R R^T - I| a domain rotation may have. The squarings that
# follow expm's Padé step lose orthogonality as rotation_strength grows: on
# the default domain the error is 8e-16 at strength 2, 3e-10 at 1e6, 8e-9
# at 1e8 and 2.5e-4 at 1e12, where the "rotation" would scale the blobs.
ORTHOGONALITY_TOL = 1e-9


@dataclass(slots=True)
class ShiftSpec:
    """Category-shift class counts: shared / source-private / target-private."""

    kind: str
    n_shared: int
    n_source_private: int
    n_target_private: int

    def __post_init__(self):
        check_fields(self, InvalidSplit)
        if self.kind not in SHIFT_KINDS:
            raise InvalidSplit(f"kind must be one of {SHIFT_KINDS}, got {self.kind!r}")
        if self.n_shared < 1 or min(self.n_source_private, self.n_target_private) < 0:
            raise InvalidSplit("n_shared must be positive, the private class counts nonnegative")
        if self.kind == "PDA" and not (self.n_target_private == 0 and self.n_source_private > 0):
            raise InvalidSplit("kind PDA requires source-private classes and no target-private ones")
        if self.kind == "ODA" and not (self.n_source_private == 0 and self.n_target_private > 0):
            raise InvalidSplit("kind ODA requires target-private classes and no source-private ones")
        if self.kind == "OPDA" and min(self.n_source_private, self.n_target_private) == 0:
            raise InvalidSplit("kind OPDA requires private classes on both sides")

    @property
    def n_source_classes(self) -> int:
        return self.n_shared + self.n_source_private

    @property
    def n_total_classes(self) -> int:
        return self.n_shared + self.n_source_private + self.n_target_private

    @property
    def unknown_marker(self) -> int:
        return self.n_source_classes

    def target_classes(self) -> np.ndarray:
        shared = np.arange(self.n_shared)
        private = np.arange(self.n_source_classes, self.n_total_classes)
        return np.concatenate([shared, private])


@dataclass(slots=True)
class DomainSpec:
    """Input-space geometry and the affine-plus-noise domain shift.

    rotation_seed None means the identity rotation; otherwise a seeded
    skew-symmetric generator is exponentiated, with rotation_strength
    scaling the angle (0 recovers the identity smoothly). The exponential
    is ``linalg.expm``, the bits of ``scipy.linalg.expm`` without importing
    ``scipy.linalg``. A 1-dimensional domain is never rotated, and a
    strength so large that the rotation overflows or is no longer
    orthogonal to ORTHOGONALITY_TOL is a ValueError. The
    translation has length translation_scale along a direction seeded by
    rotation_seed.
    """

    d_in: int
    class_sep: float
    rotation_seed: int | None = None
    rotation_strength: float = 1.0
    translation_scale: float = 0.0
    noise_sigma_source: float = 1.0
    noise_sigma_target: float = 1.0

    def __post_init__(self):
        check_fields(self, ValueError)
        if self.d_in < 1:
            raise ValueError("d_in must be positive")
        if self.class_sep <= 0:
            raise ValueError("class_sep must be positive")
        if self.rotation_seed is not None and self.rotation_seed < 0:
            raise ValueError("rotation_seed must be null or nonnegative")
        if self.noise_sigma_source <= 0 or self.noise_sigma_target <= 0:
            raise ValueError("noise_sigma_source and noise_sigma_target must be positive")

    def rotation(self) -> np.ndarray:
        # the only rotation of a line is the identity (its 1 x 1 skew is 0)
        if self.rotation_seed is None or self.rotation_strength == 0.0 or self.d_in == 1:
            return np.eye(self.d_in)
        rng = np.random.default_rng(np.random.SeedSequence(self.rotation_seed))
        a = rng.standard_normal((self.d_in, self.d_in))
        skew = (a - a.T) / 2.0
        skew *= 1.0 / np.linalg.norm(skew, 2)  # unit spectral norm generator
        generator = self.rotation_strength * skew
        if not generator.any():  # a subnormal strength underflows to 0, whose exp is I
            return np.eye(self.d_in)
        rot = expm(generator)
        err = np.max(np.abs(rot @ rot.T - np.eye(self.d_in)))
        if not err <= ORTHOGONALITY_TOL:  # also true of NaN
            why = (f"max|R R^T - I| is {err:.1e}, above {ORTHOGONALITY_TOL:g}" if np.isfinite(err)
                   else "the rotation overflows")
            raise ValueError(f"rotation_strength {self.rotation_strength:g} is too large: {why}")
        return rot

    def translation(self) -> np.ndarray:
        if self.translation_scale == 0.0:
            return np.zeros(self.d_in)
        rng = np.random.default_rng(np.random.SeedSequence([self.rotation_seed or 0, 7]))
        v = rng.standard_normal(self.d_in)
        return self.translation_scale * v / np.linalg.norm(v)


@dataclass
class StreamBatch:
    """One target batch; true labels are for scoring only."""

    inputs: np.ndarray
    true_labels: np.ndarray
    batch_index: int


@dataclass
class SourceSet:
    x_train: np.ndarray
    y_train: np.ndarray
    x_holdout: np.ndarray
    y_holdout: np.ndarray


class TargetStream:
    """Seeded batch iterator over pre-drawn target samples.

    Every batch is visited exactly once, in order; a short final batch is
    dropped so the batch size stays constant (threshold calibration assumes
    a fixed N_b).
    """

    def __init__(self, inputs: np.ndarray, true_labels: np.ndarray, batch_size: int):
        self.batch_size = batch_size
        self.n_batches = inputs.shape[0] // batch_size
        keep = self.n_batches * batch_size
        self._inputs = inputs[:keep]
        self._labels = true_labels[:keep]
        self._cursor = 0

    def restarted(self) -> "TargetStream":
        """A new stream over the same samples, from the first batch."""
        return TargetStream(self._inputs, self._labels, self.batch_size)

    def next_batch(self) -> StreamBatch | None:
        if self._cursor >= self.n_batches:
            return None
        k = self._cursor
        sl = slice(k * self.batch_size, (k + 1) * self.batch_size)
        self._cursor += 1
        return StreamBatch(self._inputs[sl], self._labels[sl], batch_index=k + 1)

    def __iter__(self):
        batch = self.next_batch()
        while batch is not None:
            yield batch
            batch = self.next_batch()


def class_centers(n_classes: int, dom: DomainSpec, seed: int) -> np.ndarray:
    """Blob centers: distinct random-orthant corners at radius class_sep.

    Each center is a random sign pattern scaled to length class_sep. Any
    two corners differ in about half their coordinates, so pairwise
    distances concentrate around class_sep * sqrt(2) and every class
    shares coordinates with every other; unseen classes therefore land
    between seen ones rather than along fresh orthogonal directions.
    Corners keep a pairwise Hamming distance of at least ~0.4*d (relaxed
    if sampling stalls) so no two classes are much closer than the rest.
    """
    if n_classes > 2 ** dom.d_in:
        raise ValueError("more classes than orthants available")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    min_h = max(1, int(np.ceil(0.4 * dom.d_in)))
    corners = np.empty((n_classes, dom.d_in))
    k = 0
    attempts = 0
    while k < n_classes:
        s = rng.integers(0, 2, size=dom.d_in) * 2 - 1
        if np.all(np.count_nonzero(corners[:k] != s, axis=1) >= min_h):
            corners[k] = s
            k += 1
            attempts = 0
        else:
            attempts += 1
            if attempts > 200 * n_classes:
                min_h = max(1, min_h - 1)
                attempts = 0
    return dom.class_sep * corners / np.sqrt(dom.d_in)


def make_task(
    shift: ShiftSpec,
    dom: DomainSpec,
    seed: int,
    n_source_train: int = 4500,
    n_source_holdout: int = 900,
    n_batches: int = 200,
    batch_size: int = 64,
) -> tuple[SourceSet, TargetStream]:
    """Build the source dataset and the target batch stream for one run.

    Source samples come from the unshifted blobs of the source classes;
    target samples from rotated/translated/noisier blobs of the target
    classes, with target-private samples labeled by the unknown marker.
    Class priors are uniform on both sides.
    """
    root = np.random.SeedSequence(seed)
    src_rng, tgt_rng = (np.random.default_rng(s) for s in root.spawn(2))
    centers = class_centers(shift.n_total_classes, dom, seed)

    def draw_source(n, rng):
        labels = rng.integers(0, shift.n_source_classes, size=n)
        x = centers[labels] + dom.noise_sigma_source * rng.standard_normal((n, dom.d_in))
        return x, labels

    x_train, y_train = draw_source(n_source_train, src_rng)
    x_hold, y_hold = draw_source(n_source_holdout, src_rng)
    source = SourceSet(x_train, y_train, x_hold, y_hold)

    rot = dom.rotation()
    target_classes = shift.target_classes()
    shifted_centers = centers @ rot.T + dom.translation()

    n_target = n_batches * batch_size
    pick = tgt_rng.integers(0, target_classes.size, size=n_target)
    classes = target_classes[pick]
    x_t = shifted_centers[classes] + dom.noise_sigma_target * tgt_rng.standard_normal(
        (n_target, dom.d_in)
    )
    true = np.where(classes < shift.n_shared, classes, shift.unknown_marker)
    return source, TargetStream(x_t, true, batch_size)
