"""Turn child-process results into the benchmark's metrics."""
from __future__ import annotations

import statistics

import numpy as np

import spec


def call_failed(call: dict) -> bool:
    return bool(call["error"]) or not all(call["checks"].values())


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(child: dict) -> tuple[dict, dict]:
    """(metric values, sample counts) from one untraced child's result."""
    calls = [c for c in child["calls"] if not c["error"]]
    steps = [s for c in calls for s in c["steps_ms"]]
    predicts = [p for c in calls for p in c["predict_ms"]]
    values = {
        "setup_s": statistics.median(child["setup_s"]),
        "run_s": statistics.median(c["run_s"] for c in calls),
        "step_ms_p50": percentile(steps, 50),
        "step_ms_p90": percentile(steps, 90),
        "predict_ms_p50": percentile(predicts, 50),
        "predict_ms_p90": percentile(predicts, 90),
        "batches_per_s": statistics.median(c["batches"] / c["run_s"] for c in calls),
        "runs_per_min": statistics.median(60.0 * c["runs"] / c["run_s"] for c in calls),
        "peak_rss_mb": child["maxrss_kb"] / 1024.0,
        "carried_state_reals": calls[-1]["carried_state_reals"],
        "h_score": statistics.fmean(c["h_score"] for c in calls[:child["scored_calls"]]),
    }
    samples = {
        "setup_s": len(child["setup_s"]),
        "run_s": len(calls),
        "step_ms_p50": len(steps), "step_ms_p90": len(steps),
        "predict_ms_p50": len(predicts), "predict_ms_p90": len(predicts),
    }
    return values, samples


def layer_values(call: dict) -> dict:
    """Per-layer metrics of one traced call (absent layers read 0)."""
    probe = call["probe"]
    layers = probe["layers"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    out = {}
    for name in spec.units("per_layer"):
        layer, _, kind = name.rpartition(".")
        if kind == "busy_ms":
            out[name] = 1e3 * get(layer, "self_s")
        elif kind == "calls":
            out[name] = get(layer, "calls")
    out["runner.adapt_stream.self_ms"] = 1e3 * get("runner.adapt_stream", "self_s")
    n_cells = get("runner.run_adapt", "calls")
    out["runner.run_adapt.busy_ms"] = 1e3 * get("runner.run_adapt", "self_s") / max(1, n_cells)
    sweep_s = get("runner.run_sweep", "total_s")
    out["runner.run_sweep.cell_overlap"] = (
        get("runner.run_adapt", "total_s") / sweep_s if sweep_s else 0.0
    )
    n_chol = get("linalg.cholesky", "calls")
    out["linalg.cholesky.attempts_per_call"] = probe["cholesky_attempts"] / n_chol if n_chol else 0.0
    seen = probe["pseudo_seen"]
    out["ood_gate.adapt_ratio"] = probe["pseudo_labeled"] / seen if seen else 0.0
    sizes = probe["snapshot_bytes"]
    out["gmm_stream.snapshot_bytes"] = statistics.median(sizes) if sizes else 0
    out["gmm_stream.state_over_model"] = call["carried_state_reals"] / call["memory_footprint"]
    return out


def per_layer(traced: dict, untraced: dict) -> dict:
    """Median over the traced child's calls, plus the tracing overhead."""
    calls = [c for c in traced["calls"] if not c["error"]]
    per_call = [layer_values(c) for c in calls]
    out = {name: statistics.median(v[name] for v in per_call)
           for name in spec.units("per_layer") if name in per_call[0]}
    run_traced = statistics.median(c["run_s"] for c in calls)
    run_plain = statistics.median(c["run_s"] for c in untraced["calls"] if not c["error"])
    out["trace.overhead_ratio"] = run_traced / run_plain
    return out
