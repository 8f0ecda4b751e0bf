"""Outside-in instrumentation of gmmadapt: probes, spans and counters.

Nothing under src/ is edited. Every hook is a wrapper installed on the
name the program looks up at call time: a module global for functions the
caller imported by name (runner binds make_task, contrastive_loss, ...),
the module attribute for calls made through a module (gmm_stream calls
linalg.*), and the class attribute for methods. `Recorder.uninstall`
puts every original object back.

Two levels:
- probes, always on: batch hand-off and prediction-return timestamps,
  set-up time, and capture of each adaptation result (for the state
  walk). They cost one wrapper call per batch or per run.
- spans, only when tracing: one span per call into a layer's public
  function, with name, start, end, parent span and batch index, kept in
  memory. Counters for cholesky attempts, pseudo-label yield and snapshot
  size ride on the same wrappers.
"""
from __future__ import annotations

import functools
import time

import numpy as np


def layer_sites(gm):
    """(span name, owner, attribute) for every measured layer of package gm.

    A span name appears at more than one site when different callers look
    the function up in different places.
    """
    runner, sim, tm, gs, la, og, me = (
        gm.runner, gm.simulator, gm.toy_model, gm.gmm_stream, gm.linalg, gm.ood_gate, gm.metrics
    )
    return [
        ("simulator.make_task", runner, "make_task"),
        ("simulator.class_centers", sim, "class_centers"),
        ("toy_model.train_source", runner, "train_source"),
        ("toy_model.forward", tm.ToyModel, "forward"),
        ("toy_model.backward", tm.ToyModel, "backward"),
        ("toy_model.sgd_step", tm.ToyModel, "sgd_step"),
        ("toy_model.augment", runner, "augment"),
        ("objectives.contrastive_loss", runner, "contrastive_loss"),
        ("objectives.kld_loss", runner, "kld_loss"),
        ("gmm_stream.update", gs.GaussianMixtureStream, "update"),
        ("gmm_stream.likelihood_vectors", gs.GaussianMixtureStream, "likelihood_vectors"),
        ("gmm_stream.prototypes", gs.GaussianMixtureStream, "prototypes"),
        ("gmm_stream.to_snapshot", gs.GaussianMixtureStream, "to_snapshot"),
        ("gmm_stream.from_snapshot", gs.GaussianMixtureStream, "from_snapshot"),
        ("linalg.cholesky", la, "cholesky"),
        ("linalg.weighted_scatter", la, "weighted_scatter"),
        ("linalg.log_gauss_density_batch", la, "log_gauss_density_batch"),
        ("ood_gate.normalized_entropy_rows", runner, "normalized_entropy_rows"),
        ("ood_gate.normalized_entropy_rows", og, "normalized_entropy_rows"),
        ("ood_gate.calibrate", og.ThresholdState, "calibrate"),
        ("ood_gate.pseudo_label_batch", og.ThresholdState, "pseudo_label_batch"),
        ("ood_gate.predict_batch", og.ThresholdState, "predict_batch"),
        ("metrics.score_batch", runner, "score_batch"),
        ("metrics.score_batch", me, "score_batch"),
        ("metrics.write_jsonl", me, "write_jsonl"),
        ("metrics.write_csv", me, "write_csv"),
        ("runner.build_task", runner, "build_task"),
        ("runner.train_source_model", runner, "train_source_model"),
        ("runner.adapt_stream", runner, "adapt_stream"),
        ("runner.run_adapt", runner, "run_adapt"),
        ("runner.run_sweep", runner, "run_sweep"),
    ]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        """Set owner.attr to make(original function); classmethods stay classmethods."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def self_times(spans, offset: int = 0) -> list[float]:
    """Per-span duration minus the time its direct children cover.

    Spans are [name, start, end, parent, batch]. spans may be a slice of
    the full list starting at index offset; parents outside it are roots.
    The program is sequential, so children of one span never overlap.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= offset:
            covered[parent - offset] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def layer_totals(spans, offset: int = 0) -> dict:
    """{name: {"self_s", "total_s", "calls"}} summed over spans."""
    out: dict[str, dict] = {}
    for (name, start, end, _, _), own in zip(spans, self_times(spans, offset)):
        agg = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        agg["self_s"] += own
        agg["total_s"] += end - start
        agg["calls"] += 1
    return out


def step_accounting(spans, offset: int, handoffs: list[list[float]]) -> bool | None:
    """Whether every child span of each adapt_stream lies inside its batch's step.

    Step k runs from the hand-off of batch k to the hand-off of batch k+1
    (or the stream's end), so when this holds the batch's child spans plus
    the loop's own self time make up exactly the step time. None when the
    call ran no adapt_stream.
    """
    streams = [i for i, s in enumerate(spans) if s[0] == "runner.adapt_stream"]
    if not streams:
        return None
    if len(streams) != len(handoffs):
        return False
    for i, times in zip(streams, handoffs):
        for _, start, end, parent, batch in spans[i + 1:]:
            if parent != i + offset:
                continue
            if not 1 <= batch < len(times) or start < times[batch - 1] or end > times[batch]:
                return False
    return True


class Recorder:
    """Probes (always) and spans (when traced) around one workload's calls."""

    def __init__(self, gm, traced: bool):
        self.gm = gm
        self.traced = traced
        self.clock = time.perf_counter
        self._patches = Patches()
        # spans and the open-span stack
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.batch = 0
        # probe samples, reset per workload call by begin_call
        self.begin_call()

    def begin_call(self):
        self.handoffs: list[list[float]] = []   # per stream: hand-off times, then the end
        self.predict_ms: list[float] = []
        self.setup_s: list[float] = []
        self.results: list = []                 # AdaptResult per adaptation run
        self.cholesky_attempts = 0
        self.pseudo_seen = 0
        self.pseudo_labeled = 0
        self.snapshot_bytes: list[int] = []
        self._setup_open = 0.0
        self._last_handoff = None
        self.call_spans = [len(self.spans), None]

    def end_timed(self):
        """Close the call's span range; spans after this belong to its checks."""
        self.call_spans[1] = len(self.spans)

    def call_summary(self) -> dict:
        """Counters of the current call and, when traced, its per-layer totals."""
        out = {
            "cholesky_attempts": self.cholesky_attempts,
            "pseudo_seen": self.pseudo_seen,
            "pseudo_labeled": self.pseudo_labeled,
            "snapshot_bytes": self.snapshot_bytes,
        }
        if self.traced:
            start, end = self.call_spans
            spans = self.spans[start:len(self.spans) if end is None else end]
            out["layers"] = layer_totals(spans, start)
            out["step_accounting"] = step_accounting(spans, start, self.handoffs)
        return out

    # -- probes ------------------------------------------------------------

    def handoff(self, batch_index: int | None):
        """Mark the moment batch batch_index is handed over (None: stream end)."""
        t = self.clock()
        if batch_index == 1 or not self.handoffs:
            self.handoffs.append([])
        self.handoffs[-1].append(t)
        self._last_handoff = t
        self.batch = batch_index or 0

    def steps_ms(self) -> list[float]:
        out = []
        for times in self.handoffs:
            out.extend(1e3 * (b - a) for a, b in zip(times, times[1:]))
        return out

    def _probe_next_batch(self, fn):
        @functools.wraps(fn)
        def next_batch(stream):
            batch = fn(stream)
            self.handoff(None if batch is None else batch.batch_index)
            return batch
        return next_batch

    def _probe_predict(self, fn):
        @functools.wraps(fn)
        def predict_batch(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.predict_ms.append(1e3 * (self.clock() - self._last_handoff))
            return out
        return predict_batch

    def _probe_setup(self, fn, closes: bool):
        @functools.wraps(fn)
        def setup_part(*args, **kwargs):
            t0 = self.clock()
            out = fn(*args, **kwargs)
            self._setup_open += self.clock() - t0
            if closes:
                self.setup_s.append(self._setup_open)
                self._setup_open = 0.0
            return out
        return setup_part

    def _probe_result(self, fn):
        @functools.wraps(fn)
        def adapt_stream(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.results.append(result)
            return result
        return adapt_stream

    # -- spans and counters ------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.batch]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def _count_cholesky(self, fn):
        @functools.wraps(fn)
        def cholesky(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == "linalg.cholesky":
                self.cholesky_attempts += 1
            return fn(*args, **kwargs)
        return cholesky

    def _count_pseudo(self, fn):
        discarded = self.gm.ood_gate.DISCARDED

        @functools.wraps(fn)
        def pseudo_label_batch(*args, **kwargs):
            labels = fn(*args, **kwargs)
            self.pseudo_seen += labels.shape[0]
            self.pseudo_labeled += int(np.count_nonzero(labels != discarded))
            return labels
        return pseudo_label_batch

    def _count_snapshot(self, fn):
        @functools.wraps(fn)
        def to_snapshot(*args, **kwargs):
            blob = fn(*args, **kwargs)
            self.snapshot_bytes.append(len(blob.encode()))
            return blob
        return to_snapshot

    # -- install / uninstall -----------------------------------------------

    def install(self):
        gm, p = self.gm, self._patches
        if self.traced:
            for name, owner, attr in layer_sites(gm):
                p.replace(owner, attr, functools.partial(self.span, name))
            p.replace(np.linalg, "cholesky", self._count_cholesky)
            p.replace(gm.ood_gate.ThresholdState, "pseudo_label_batch", self._count_pseudo)
            p.replace(gm.gmm_stream.GaussianMixtureStream, "to_snapshot", self._count_snapshot)
        p.replace(gm.simulator.TargetStream, "next_batch", self._probe_next_batch)
        p.replace(gm.ood_gate.ThresholdState, "predict_batch", self._probe_predict)
        p.replace(gm.runner, "build_task", functools.partial(self._probe_setup, closes=False))
        p.replace(gm.runner, "train_source_model", functools.partial(self._probe_setup, closes=True))
        p.replace(gm.runner, "adapt_stream", self._probe_result)

    def uninstall(self):
        self._patches.restore()


def carried_state_reals(obj) -> int:
    """Reals held by a mixture: everything below its top-level settings.

    Walks public attributes. Top-level scalars (class count, dimension,
    jitter, batch counter) are settings; every float reachable below the
    top level counts, whether an array element or a scalar such as a
    mode's mass, and so does every float array held at the top level.
    """
    total = 0
    for name, value in vars(obj).items():
        if name.startswith("_"):
            continue
        if isinstance(value, np.ndarray):
            total += _reals(value)
        elif isinstance(value, (list, tuple, dict)) or hasattr(value, "__dict__"):
            total += _reals(value)
    return total


def _reals(value) -> int:
    if isinstance(value, np.ndarray):
        return int(value.size) if np.issubdtype(value.dtype, np.floating) else 0
    if isinstance(value, float):
        return 1
    if isinstance(value, (list, tuple)):
        return sum(_reals(v) for v in value)
    if isinstance(value, dict):
        return sum(_reals(v) for v in value.values())
    if hasattr(value, "__dict__"):
        return sum(_reals(v) for k, v in vars(value).items() if not k.startswith("_"))
    return 0
