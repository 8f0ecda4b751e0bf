"""Small differentiable pipeline: tanh feature extractor, linear reduction,
linear softmax classifier, manual backprop, SGD with momentum.

The classifier consumes the full hidden features (dimension fd); the
mixture consumes the output of the reduction layer (dimension fd_r), which
branches off the same hidden features. Gradients are exact and analytic;
the reduction layer only receives gradient from losses that consume the
reduced features.

Each pass computes only what its caller reads. ``forward`` runs the heads
it is asked for, ``backward`` returns gradients only for the parameters
its upstream gradients reach, and ``sgd_step`` counts a missing gradient
as zero: that parameter's velocity still decays and is still applied.
Source training reads the classifier alone, so it never computes,
differentiates or changes the reduction head; W_r and b_r keep their
initial values and zero velocities.
"""
from __future__ import annotations

import copy
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, MalformedFile, NonFiniteGradient, NonFiniteInput,
                     check_fields, check_keys, check_number)

# model.ckpt's layout. The metadata: its int keys, in the order written, and
# their least values. Then each parameter, in init draw order: its shape and
# the fan-in of its init, in metadata keys; the file holds the parameter as
# param_<name> and its velocity as vel_<name>.
_META_LEAST = {"format_version": 1, "d_in": 1, "fd": 1, "fd_r": 1, "n_classes": 1, "seed": 0}
_PARAMS = {
    "W_g": (("fd", "d_in"), "d_in"),
    "b_g": (("fd",), "d_in"),
    "W_r": (("fd_r", "fd"), "fd"),
    "b_r": (("fd_r",), "fd"),
    "W_h": (("n_classes", "fd"), "fd"),
    "b_h": (("n_classes",), "fd"),
}
PARAM_NAMES = tuple(_PARAMS)


@dataclass
class OptimizerConfig:
    learning_rate: float
    momentum: float = 0.9

    def __post_init__(self):
        check_fields(self, ValueError)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


@dataclass
class ForwardCache:
    """Per-batch intermediates needed for exact backprop."""

    x: np.ndarray               # (n, d_in)
    hidden: np.ndarray          # (n, fd), tanh activations g(x)
    reduced: np.ndarray | None  # (n, fd_r), r(g(x)); None without the reduction head
    probs: np.ndarray | None    # (n, n_classes), softmax rows; None without the classifier


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class ToyModel:
    """f = h(g(x)) plus the reduction branch r(g(x))."""

    format_version = 1  # of the checkpoint layout

    def __init__(self, d_in: int, fd: int, fd_r: int, n_classes: int, seed: int = 0):
        self.d_in = d_in
        self.fd = fd
        self.fd_r = fd_r
        self.n_classes = n_classes
        self.seed = seed
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.params = {}
        for name, (shape, fan_in) in _PARAMS.items():
            bound = 1.0 / np.sqrt(getattr(self, fan_in))
            size = tuple(getattr(self, dim) for dim in shape)
            self.params[name] = rng.uniform(-bound, bound, size=size)
        self.velocity = {k: np.zeros_like(v) for k, v in self.params.items()}

    def copy(self) -> "ToyModel":
        return copy.deepcopy(self)

    def forward(self, x: np.ndarray, *, reduction: bool = True,
                classifier: bool = True) -> ForwardCache:
        """Hidden features plus the heads asked for; a head not asked for is None."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.d_in:
            raise DimensionMismatch(f"input shape {x.shape}, expected (n, {self.d_in})")
        if not np.all(np.isfinite(x)):
            raise NonFiniteInput("input contains non-finite values")
        p = self.params
        hidden = np.tanh(x @ p["W_g"].T + p["b_g"])
        reduced = probs = None
        if reduction:
            reduced = hidden @ p["W_r"].T + p["b_r"]
        if classifier:
            probs = softmax(hidden @ p["W_h"].T + p["b_h"])
        return ForwardCache(x=x, hidden=hidden, reduced=reduced, probs=probs)

    def backward(
        self,
        cache: ForwardCache,
        d_reduced: np.ndarray | None = None,
        d_logits: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """Gradients of the parameters the given upstream gradients reach.

        d_reduced flows through the reduction layer, d_logits through the
        classifier; both meet at the shared hidden activations and continue
        into the extractor. Either may be None (no gradient on that head),
        and a head's parameters are in the result only when its upstream
        gradient is given; with neither, the result is empty.
        """
        p = self.params
        grads = {}
        d_hidden = None
        heads = (("d_reduced", d_reduced, cache.reduced, "W_r", "b_r"),
                 ("d_logits", d_logits, cache.probs, "W_h", "b_h"))
        for name, upstream, output, W, b in heads:
            if upstream is None:
                continue
            if output is None:
                raise DimensionMismatch(f"{name} given for a head the forward pass skipped")
            upstream = np.asarray(upstream, dtype=np.float64)
            if upstream.shape != output.shape:
                raise DimensionMismatch(f"{name} shape does not match cache")
            grads[W] = upstream.T @ cache.hidden
            grads[b] = upstream.sum(axis=0)
            if d_hidden is None:
                d_hidden = upstream @ p[W]
            else:
                d_hidden += upstream @ p[W]
        if not grads:
            return grads
        d_pre = d_hidden * (1.0 - cache.hidden ** 2)  # tanh'
        grads["W_g"] = d_pre.T @ cache.x
        grads["b_g"] = d_pre.sum(axis=0)
        return grads

    def sgd_step(self, grads: dict[str, np.ndarray], cfg: OptimizerConfig) -> "ToyModel":
        """v <- momentum*v + grad; param <- param - lr*v (standard momentum).

        A parameter missing from grads has a zero gradient: its velocity
        decays and is applied, and nothing is added to it. Every gradient
        is checked first, so a non-finite one leaves the model unchanged.
        """
        for name in PARAM_NAMES:
            if name in grads and not np.all(np.isfinite(grads[name])):
                raise NonFiniteGradient(f"gradient for {name} is not finite")
        for name in PARAM_NAMES:
            g = grads.get(name)
            v = self.velocity[name]
            v *= cfg.momentum
            if g is not None:
                v += g
            self.params[name] -= cfg.learning_rate * v
        return self

    # -- checkpointing ----------------------------------------------------

    def save(self, path) -> None:
        meta = {key: getattr(self, key) for key in _META_LEAST}
        arrays = {f"param_{k}": v for k, v in self.params.items()}
        arrays.update({f"vel_{k}": v for k, v in self.velocity.items()})
        with open(path, "wb") as fh:  # file handle: savez must not append .npz
            np.savez(fh, meta=json.dumps(meta), **arrays)

    @classmethod
    def load(cls, path) -> "ToyModel":
        """Read a checkpoint written by save: MalformedFile for any other
        file, for metadata other than the written keys with int values in
        range or for an array not of native float64 or not finite,
        DimensionMismatch for an array its metadata does not fit.
        Every array is checked before the model is built from the file's
        arrays, so a bad file costs no more memory than its own size.
        """
        names = [f"{prefix}_{k}" for k in PARAM_NAMES for prefix in ("param", "vel")]
        what = f"{path} is not a model checkpoint: meta"
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"]))
                arrays = {name: data[name] for name in names}
        except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as err:
            raise MalformedFile(f"{path} is not a model checkpoint: {err!r}") from err
        check_keys(meta, _META_LEAST, what, MalformedFile)
        if meta["format_version"] != cls.format_version:
            raise MalformedFile(f"unsupported checkpoint version {meta['format_version']!r}")
        for key, least in _META_LEAST.items():
            check_number(meta[key], int, least, f"{what} {key}", MalformedFile)
        for name, (shape, _) in _PARAMS.items():
            expected = tuple(meta[dim] for dim in shape)
            for prefix in ("param", "vel"):
                array = arrays[f"{prefix}_{name}"]
                if array.shape != expected:
                    raise DimensionMismatch(
                        f"checkpoint array {prefix}_{name} has shape {array.shape}, "
                        f"expected {expected} from its metadata")
                if array.dtype != np.float64:
                    raise MalformedFile(f"{path} is not a model checkpoint: array {prefix}_{name}"
                                        f" has dtype {array.dtype}, expected float64")
                if not np.all(np.isfinite(array)):
                    raise MalformedFile(f"{path} is not a model checkpoint: array {prefix}_{name}"
                                        " holds a non-finite value")
        model = cls.__new__(cls)  # not __init__: its seeded init would be thrown away
        vars(model).update({key: meta[key] for key in _META_LEAST if key != "format_version"})
        model.params = {k: arrays[f"param_{k}"] for k in PARAM_NAMES}
        model.velocity = {k: arrays[f"vel_{k}"] for k in PARAM_NAMES}
        return model


def cross_entropy_loss(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    n = probs.shape[0]
    picked = np.clip(probs[np.arange(n), labels], 1e-12, None)
    loss = float(-np.mean(np.log(picked)))
    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    return loss, d_logits / n


def train_source(
    model: ToyModel,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    cfg: OptimizerConfig,
    batch_size: int = 64,
    seed: int = 0,
) -> list[float]:
    """Plain cross-entropy training on labeled source data.

    Shuffles per epoch with its own seeded generator; returns the mean
    training loss per epoch.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    if np.any(y < 0) or np.any(y >= model.n_classes):
        raise ValueError("source labels must lie in [0, n_classes)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    history = []
    for _ in range(epochs):
        order = rng.permutation(x.shape[0])
        losses = []
        for start in range(0, x.shape[0], batch_size):
            idx = order[start:start + batch_size]
            cache = model.forward(x[idx], reduction=False)
            loss, d_logits = cross_entropy_loss(cache.probs, y[idx])
            grads = model.backward(cache, d_logits=d_logits)
            model.sgd_step(grads, cfg)
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return history


def accuracy(model: ToyModel, x: np.ndarray, y: np.ndarray) -> float:
    preds = np.argmax(model.forward(x, reduction=False).probs, axis=1)
    return float(np.mean(preds == np.asarray(y)))


def augment(x: np.ndarray, rng: np.random.Generator, sigma: float | None = None) -> np.ndarray:
    """Additive-noise view of a batch: x + sigma * standard normal noise.

    sigma=None resolves to 0.1 times the standard deviation of the batch
    entries, the stand-in for input-space augmentation.
    """
    x = np.asarray(x, dtype=np.float64)
    if sigma is None:
        sigma = 0.1 * float(x.std())
    return x + sigma * rng.standard_normal(x.shape)
