"""What each per-layer metric should move, and the hotspots found so far.

BENCHMARK.json at the repository root is the one source of the metric
names, units, directions and bounds and of the gated workloads;
`benchmark()` and `units()` read it. This file holds what BENCHMARK.json
cannot: the predictions a later performance change is judged against. A
change to one layer should move the end-to-end metric named here on the
workloads named here, and leave the `no_change` workloads alone.
"""
import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def units(kind: str) -> dict:
    """{metric name: unit} of the "end_to_end" or the "per_layer" metrics."""
    return {m["name"]: m["unit"] for m in benchmark()[kind]}


LOOPS = ["adapt-default", "adapt-c65", "mixture-c345"]
ALL = ["adapt-default", "adapt-c65", "mixture-c345", "sweep-p_reject"]
ADAPT = ["adapt-default", "adapt-c65", "sweep-p_reject"]  # workloads that call run_adapt

# per-layer metric: (end-to-end metric it should move, workloads where it
# should show, workloads where the prediction is no change)
PREDICTIONS = {
    "simulator.make_task.busy_ms": ("setup_s", ["adapt-c65"],
                                    ["adapt-default", "mixture-c345", "sweep-p_reject"]),
    "simulator.class_centers.busy_ms": ("setup_s", ["adapt-c65"],
                                        ["adapt-default", "mixture-c345", "sweep-p_reject"]),
    "toy_model.train_source.busy_ms": ("setup_s", ["adapt-default", "sweep-p_reject"],
                                       ["mixture-c345"]),
    **{f"toy_model.{fn}.{kind}": ("step_ms_p50", ["adapt-default"], ["mixture-c345"])
       for fn in ("forward", "backward", "sgd_step", "augment") for kind in ("busy_ms", "calls")},
    "objectives.contrastive_loss.busy_ms": ("step_ms_p50", ["adapt-default"], ["mixture-c345"]),
    "objectives.kld_loss.busy_ms": ("step_ms_p50", ["adapt-default"], ["mixture-c345"]),
    # the mixture is about half of adapt-default's loop and 86% of adapt-c65's
    **{f"gmm_stream.{fn}.busy_ms": ("step_ms_p50", LOOPS, [])
       for fn in ("update", "likelihood_vectors")},
    # runner asks for the prototypes on every batch; the mixture-only
    # workload calls them only in its checks, outside the timed loop
    "gmm_stream.prototypes.busy_ms": ("step_ms_p50", ["adapt-default", "sweep-p_reject"],
                                      ["mixture-c345"]),
    **{f"gmm_stream.{fn}.busy_ms": ("run_s", ["mixture-c345"], [])
       for fn in ("to_snapshot", "from_snapshot")},
    "gmm_stream.snapshot_bytes": ("run_s", ["mixture-c345"], []),
    "gmm_stream.state_over_model": ("carried_state_reals", ["mixture-c345"], []),
    **{f"linalg.{fn}.{kind}": ("step_ms_p90", LOOPS, [])
       for fn in ("cholesky", "weighted_scatter", "log_gauss_density_batch")
       for kind in ("busy_ms", "calls")},
    "linalg.cholesky.attempts_per_call": ("step_ms_p90", [], ALL),
    **{f"ood_gate.{fn}.busy_ms": ("predict_ms_p50", LOOPS, [])
       for fn in ("normalized_entropy_rows", "calibrate", "pseudo_label_batch", "predict_batch")},
    "ood_gate.adapt_ratio": ("h_score", [], ALL),
    "metrics.score_batch.busy_ms": ("run_s", ALL, []),
    # only run_adapt writes records; the mixture-only workload writes none
    **{f"metrics.{fn}.busy_ms": ("run_s", ADAPT, ["mixture-c345"])
       for fn in ("write_jsonl", "write_csv")},
    "runner.adapt_stream.self_ms": ("step_ms_p50", ["adapt-default"], ["mixture-c345"]),
    "runner.run_adapt.busy_ms": ("runs_per_min", ["sweep-p_reject"], ["mixture-c345"]),
    "runner.run_sweep.cell_overlap": ("runs_per_min", ["sweep-p_reject"], LOOPS),
    "trace.overhead_ratio": ("run_s", [], ALL),
}

# Recorded predictions for the three hotspots found when the benchmark was
# defined (2 CPUs, numpy 2.4.6 / scipy 1.17.1, OpenBLAS 0.3.31, 2 threads).
HOTSPOTS = [
    {
        "hotspot": "BLAS threading in linalg.log_gauss_density_batch",
        "evidence": "at the default 2 OpenBLAS threads a default run spends 1.46-1.63 s in it "
                    "against 0.20 s at 1 thread; step_ms_p90 is 74-85 ms against 8 ms, and "
                    "between runs predict_ms_p90 swings 12-72 ms and predict_ms_p50 2.9-4.2 ms. "
                    "adapt-c65's call-0 metrics.jsonl at seed 0 has sha256 df598925... at 2 "
                    "threads against b7b9678d... at 1 (same H-score); the default task's bytes "
                    "do not depend on the thread count",
        "prediction": "the benchmark runs its child processes at 1 BLAS thread, because the "
                      "2-thread numbers are not steady, so this hotspot does not show in its "
                      "numbers. Measured at the program's own policy (no BLAS thread variables "
                      "set), a program that pins 1 thread itself reads like the benchmark: "
                      "linalg.log_gauss_density_batch.busy_ms falls about 8x and step_ms_p90 and "
                      "predict_ms_p90 fall on every loop workload, with identical outputs",
    },
    {
        "hotspot": "simulator.class_centers in set-up",
        "evidence": "about 3 s at 75 total classes (adapt-c65) and 150 s at 385",
        "prediction": "a faster class_centers lowers setup_s on adapt-c65 only (run it by name; "
                      "it is not in BENCHMARK.json); adapt-default and sweep-p_reject, where it "
                      "takes 0.01 s, and mixture-c345, which never calls it, do not move",
    },
    {
        "hotspot": "cached Cholesky factors in carried_state_reals",
        "evidence": "the mixture holds 56,169 reals at 9 classes against 19,305 from "
                    "memory_footprint(): gmm_stream.state_over_model is 2.91",
        "prediction": "factoring per batch instead of caching brings state_over_model to 1.0 and "
                      "lowers carried_state_reals on every workload and peak_rss_mb on mixture-c345",
    },
]
