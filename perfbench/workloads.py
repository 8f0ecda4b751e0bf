"""The benchmark's workloads, each run inside one child process.

Every workload is closed-loop and single-process: the next call starts
when the previous one has returned. A workload makes MIN_CALLS calls, then
more while the next one can end within `seconds`, checking each call's
outputs. Inputs come only from the workload seed: call r of an adapt
workload uses run-config seed `seed * 1000 + r` (the sweep's repeats take
the next seeds), so `--seed 0` call 0 is the repository's default run.
"""
from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from tracing import carried_state_reals

# adapt-c65 (OPDA 50/15/10, 65 known classes: the mixture is ~86% of the
# loop and simulator.class_centers dominates set-up) runs by name and in
# --workload all, but BENCHMARK.json leaves it out: over 10 seeds on a
# 2-vCPU shared host its run_s, step_ms_p50 and predict_ms_p50 spread
# 0.24-0.33 of the median, past the largest bound allowed (0.25).
WORKLOADS = ("adapt-default", "adapt-c65", "mixture-c345", "sweep-p_reject")

# sha256 of call 0 at --seed 0 at 1 BLAS thread, pinned from the unmodified
# program: metrics.jsonl for the adapt workloads, the per-cell metrics.jsonl
# digests plus sweep.csv for the sweep, and the final snapshot for the
# mixture.
PINNED = {
    "adapt-default": "607df1d66ac04d22a711cafcd035b8bffece221b96fa521a7772efb096589081",
    "adapt-c65": "b7b9678d03a32d4dd6f89da1fea2e6568e8615d44cf3a6878a2c4d47521a6322",
    "mixture-c345": "6ea3ed82ab219f576eb04a4c309410851ac8802411c54f97905d642ca907d022",
    "sweep-p_reject": "3f324e86f8fe8733fb8bc9a7e41c88f0c355ce36e85010c2d837a7762d5eeee3",
}

# Calls every run makes, however long they take. h_score averages exactly
# these, so it depends on the seed alone and not on how fast the machine is.
MIN_CALLS = {"adapt-default": 8, "adapt-c65": 3, "mixture-c345": 2, "sweep-p_reject": 4}
MIN_SETUPS = 3           # set-up samples per adapt run, taken after the loop if short
MIXTURE_SETUPS = 100     # mixture constructions timed per mixture-c345 run
MIXTURE_SHAPE = dict(n_classes=345, dim=64, n_b=64, n_batches=100, n_unknown=40)
MIXTURE_JITTER = 2e-2
SWEEP_VALUES = [30.0, 70.0]
SWEEP_REPEATS = 2
SWEEP_BATCHES = 100


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mixture_inputs(seed: int, n_classes: int, dim: int, n_b: int, n_batches: int,
                   n_unknown: int):
    """Features, softmax weights and true labels for the mixture-only workload.

    Samples come from n_classes + n_unknown unit-variance blobs whose
    centers sit about 2 apart, so class likelihoods overlap and entropies
    spread. Known samples get softmax weights peaked on their class;
    samples of the n_unknown extra blobs get unpeaked ones and carry the
    unknown label n_classes.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_classes, dim]))
    centers = rng.standard_normal((n_classes + n_unknown, dim)) * np.sqrt(2.0)
    labels = rng.integers(0, n_classes + n_unknown, size=(n_batches, n_b))
    feats = centers[labels] + rng.standard_normal((n_batches, n_b, dim))
    logits = rng.standard_normal((n_batches, n_b, n_classes))
    known = labels < n_classes
    b, i = np.nonzero(known)
    logits[b, i, labels[known]] += 5.0
    weights = np.exp(logits - logits.max(axis=2, keepdims=True))
    weights /= weights.sum(axis=2, keepdims=True)
    true = np.where(known, labels, n_classes)
    return feats, weights, true


def snapshot_matches(gmm, back, blob: str) -> bool:
    """back, loaded from gmm's snapshot blob, re-serializes to blob and holds
    gmm's prototypes bit for bit."""
    idx_a, means_a = gmm.prototypes()
    idx_b, means_b = back.prototypes()
    return (back.to_snapshot() == blob and np.array_equal(idx_a, idx_b)
            and np.array_equal(means_a, means_b))


def check_run_dir(gm, run_dir: Path, gmm, n_batches: int) -> dict:
    """Replay, record count and snapshot checks on one run_adapt output."""
    summary = json.loads((run_dir / "summary.json").read_text())
    lines = (run_dir / "metrics.jsonl").read_bytes().splitlines()
    blob = (run_dir / "gmm.ckpt").read_text()
    return {
        "replay": gm.runner.replay(run_dir) == summary,
        "records": len(lines) == n_batches == summary["n_batches"],
        "snapshot": snapshot_matches(
            gmm, gm.gmm_stream.GaussianMixtureStream.from_snapshot(blob), blob),
    }


class Workload:
    """Runs one workload's calls against the package gm under recorder rec."""

    def __init__(self, gm, rec, name: str, seed: int, workdir: Path):
        self.gm, self.rec, self.name, self.seed = gm, rec, name, seed
        self.pinned = PINNED[name] if seed == 0 else None
        self.workdir = Path(workdir)
        self.clock = rec.clock
        if name == "mixture-c345":
            self.data = mixture_inputs(seed, **MIXTURE_SHAPE)

    def run(self, seconds: float) -> dict:
        calls, setups = [], []
        t0 = self.clock()
        last = 0.0
        # a call starts only while it can end within `seconds`, after MIN_CALLS
        while len(calls) < MIN_CALLS[self.name] or self.clock() - t0 + last <= seconds:
            t1 = self.clock()
            call = self.one_call(len(calls))
            last = self.clock() - t1
            calls.append(call)
            setups.extend(call.pop("setup_s"))
            if call["error"]:
                break
        setups.extend(self.extra_setups(len(setups)))
        return {"calls": calls, "setup_s": setups, "scored_calls": MIN_CALLS[self.name]}

    def one_call(self, r: int) -> dict:
        self.rec.begin_call()
        call = {"index": r, "error": None, "checks": {}, "digest": None}
        calldir = self.workdir / f"call-{r}"
        try:
            if self.name == "mixture-c345":
                call.update(self.mixture_call())
            elif self.name == "sweep-p_reject":
                call.update(self.sweep_call(self.seed * 1000 + SWEEP_REPEATS * r, calldir))
            else:
                call.update(self.adapt_call(self.seed * 1000 + r, calldir))
        except Exception as err:  # a failed call is counted, not fatal
            call["error"] = f"{type(err).__name__}: {err}"
        finally:
            shutil.rmtree(calldir, ignore_errors=True)
        if self.pinned and r == 0:
            call["checks"]["pinned_digest"] = call["digest"] == self.pinned
        call["steps_ms"] = self.rec.steps_ms()
        call["predict_ms"] = list(self.rec.predict_ms)
        call.setdefault("setup_s", list(self.rec.setup_s))
        call["probe"] = self.rec.call_summary()
        return call

    # -- adapt workloads ------------------------------------------------------

    def adapt_config(self, cfg_seed: int):
        cfg = self.gm.config.default_config()
        cfg.seed = cfg_seed
        if self.name == "adapt-c65":
            cfg.shift = self.gm.simulator.ShiftSpec("OPDA", 50, 15, 10)
        return cfg.validate()

    def adapt_call(self, cfg_seed: int, calldir: Path) -> dict:
        cfg = self.adapt_config(cfg_seed)
        out = calldir / f"run-{cfg_seed}"
        t0 = self.clock()
        summary = self.gm.runner.run_adapt(cfg, out)
        run_s = self.clock() - t0
        self.rec.end_timed()
        gmm = self.rec.results[-1].gmm
        checks = check_run_dir(self.gm, out, gmm, cfg.n_batches)
        checks["handoffs"] = len(self.rec.steps_ms()) == cfg.n_batches
        digest = sha256((out / "metrics.jsonl").read_bytes())
        return {
            "run_s": run_s, "batches": cfg.n_batches, "runs": 1, "digest": digest,
            "h_score": summary["full_run"]["h_score"], "checks": checks,
            **self.state_counts(gmm),
        }

    # -- sweep workload -------------------------------------------------------

    def sweep_call(self, cfg_seed: int, calldir: Path) -> dict:
        base = self.gm.config.default_config()
        base.seed = cfg_seed
        base.n_batches = SWEEP_BATCHES
        out = calldir / f"sweep-{cfg_seed}"
        t0 = self.clock()
        rows = self.gm.runner.run_sweep(base, "p_reject", SWEEP_VALUES, SWEEP_REPEATS, out)
        run_s = self.clock() - t0
        self.rec.end_timed()
        cells = [out / f"p_reject={v}_rep{r}" for v in SWEEP_VALUES for r in range(SWEEP_REPEATS)]
        checks, digests = {}, []
        for cell, result in zip(cells, self.rec.results):
            for key, ok in check_run_dir(self.gm, cell, result.gmm, SWEEP_BATCHES).items():
                checks[key] = checks.get(key, True) and ok
            digests.append(sha256((cell / "metrics.jsonl").read_bytes()))
        checks["cells"] = len(self.rec.results) == len(cells)
        checks["handoffs"] = len(self.rec.steps_ms()) == SWEEP_BATCHES * len(cells)
        digest = sha256(("\n".join(digests) + "\n").encode() + (out / "sweep.csv").read_bytes())
        return {
            "run_s": run_s, "batches": SWEEP_BATCHES * len(cells), "runs": len(cells),
            "digest": digest, "checks": checks,
            "h_score": float(np.mean([row["mean_primary_metric"] for row in rows])),
            **self.state_counts(self.rec.results[-1].gmm),
        }

    # -- mixture-only workload ------------------------------------------------

    def new_mixture(self):
        gs, og = self.gm.gmm_stream, self.gm.ood_gate
        gmm = gs.GaussianMixtureStream(MIXTURE_SHAPE["n_classes"], MIXTURE_SHAPE["dim"],
                                       jitter=MIXTURE_JITTER)
        return gmm, og.ThresholdState(n_init=30, p_reject=50.0)

    def mixture_call(self) -> dict:
        gm, rec = self.gm, self.rec
        og, me = gm.ood_gate, gm.metrics
        feats, weights, true = self.data
        n_classes = MIXTURE_SHAPE["n_classes"]
        t0 = self.clock()
        gmm, th = self.new_mixture()
        counts = []
        for k in range(feats.shape[0]):
            rec.handoff(k + 1)
            gmm.update(feats[k], weights[k])
            lik = gmm.likelihood_vectors(feats[k])
            ent = og.normalized_entropy_rows(lik)
            if not th.frozen:
                th.calibrate(ent)
            pseudo = th.pseudo_label_batch(lik, ent)
            preds = th.predict_batch(weights[k], lik, ent)
            counts.append(me.score_batch(true[k], preds, pseudo, n_classes)[0])
        rec.handoff(None)
        blob = gmm.to_snapshot()
        back = gm.gmm_stream.GaussianMixtureStream.from_snapshot(blob)
        run_s = self.clock() - t0
        rec.end_timed()
        checks = {
            "snapshot": snapshot_matches(gmm, back, blob),
            "mean_oracle": self.mean_oracle_ok(gmm),
            "handoffs": len(rec.steps_ms()) == feats.shape[0],
        }
        rates = me.rates_from_counts(me.pool_counts(counts))
        return {
            "run_s": run_s, "batches": feats.shape[0], "runs": 1,
            "digest": sha256(blob.encode()), "h_score": rates["h_score"], "checks": checks,
            **self.state_counts(gmm),
        }

    def mean_oracle_ok(self, gmm) -> bool:
        """Each mode's mean equals the one-pass weighted mean to 1e-10 (relative)."""
        feats, weights, _ = self.data
        f = feats.reshape(-1, feats.shape[2])
        w = weights.reshape(-1, weights.shape[2])
        oracle = (w.T @ f) / w.sum(axis=0)[:, None]
        idx, means = gmm.prototypes()
        if idx.size != w.shape[1]:
            return False
        rel = np.linalg.norm(means - oracle[idx], axis=1) / np.linalg.norm(oracle[idx], axis=1)
        return bool(np.all(rel < 1e-10))

    # -- set-up samples and state ---------------------------------------------

    def extra_setups(self, have: int) -> list[float]:
        """Top the set-up samples up to the per-workload minimum."""
        if self.name == "mixture-c345":
            out = []
            for _ in range(MIXTURE_SETUPS):
                t0 = self.clock()
                self.new_mixture()
                out.append(self.clock() - t0)
            return out
        self.rec.begin_call()
        for _ in range(max(0, MIN_SETUPS - have)):
            cfg = self.adapt_config(self.seed * 1000)
            source, _ = self.gm.runner.build_task(cfg)
            self.gm.runner.train_source_model(cfg, source)
        return list(self.rec.setup_s)

    def state_counts(self, gmm) -> dict:
        return {
            "carried_state_reals": carried_state_reals(gmm),
            "memory_footprint": gmm.memory_footprint(),
        }
