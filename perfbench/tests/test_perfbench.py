"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""
import json
import subprocess
import textwrap
from pathlib import Path

import numpy as np
import pytest

import gmmadapt
import report
import spec
import tracing
import workloads
from tracing import Recorder, layer_totals, self_times, step_accounting


def test_self_time_arithmetic_on_a_span_tree():
    # a[0,10] holds b[1,4] and d[5,9]; b holds c[2,3]
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 1],
        ["c", 2.0, 3.0, 1, 1],
        ["d", 5.0, 9.0, 0, 2],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # the same tree as a slice of a longer list: parents count from the offset
    shifted = [[n, s, e, p + 7 if p >= 0 else -1, b] for n, s, e, p, b in spans]
    assert self_times(shifted, offset=7) == [3.0, 2.0, 1.0, 4.0]
    spans.append(["b", 10.5, 11.0, -1, 3])
    totals = layer_totals(spans)
    assert totals["b"] == {"self_s": 2.5, "total_s": 3.5, "calls": 2}
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.5)


def test_step_accounting_places_child_spans_inside_their_step():
    handoffs = [[0.0, 1.0, 2.0]]  # batch 1 in [0, 1], batch 2 in [1, 2]
    good = [["runner.adapt_stream", -0.1, 2.1, -1, 0],
            ["x", 0.1, 0.9, 0, 1], ["y", 1.2, 1.9, 0, 2]]
    assert step_accounting(good, 0, handoffs) is True
    late = [good[0], ["x", 0.1, 1.1, 0, 1]]
    assert step_accounting(late, 0, handoffs) is False
    assert step_accounting([["other", 0.0, 1.0, -1, 0]], 0, handoffs) is None


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.mark.parametrize("traced", [False, True])
def test_install_and_uninstall_restore_the_originals(traced):
    gm = gmmadapt
    sites = [(owner, attr) for _, owner, attr in tracing.layer_sites(gm)]
    sites += [(np.linalg, "cholesky"), (gm.simulator.TargetStream, "next_batch")]
    before = [_current(owner, attr) for owner, attr in sites]
    rec = Recorder(gm, traced=traced)
    rec.install()
    try:
        assert _current(gm.runner, "adapt_stream") is not before[sites.index((gm.runner, "adapt_stream"))]
        if traced:
            changed = [_current(o, a) is not b for (o, a), b in zip(sites, before)]
            assert all(changed)
            assert isinstance(_current(gm.gmm_stream.GaussianMixtureStream, "from_snapshot"),
                              classmethod)
    finally:
        rec.uninstall()
    assert all(_current(o, a) is b for (o, a), b in zip(sites, before))


def test_mixture_inputs_are_deterministic_per_seed():
    shape = dict(n_classes=12, dim=5, n_b=8, n_batches=3, n_unknown=2)
    a = workloads.mixture_inputs(3, **shape)
    b = workloads.mixture_inputs(3, **shape)
    c = workloads.mixture_inputs(4, **shape)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert not np.array_equal(a[0], c[0])
    feats, weights, true = a
    assert feats.shape == (3, 8, 5) and weights.shape == (3, 8, 12) and true.shape == (3, 8)
    assert np.allclose(weights.sum(axis=2), 1.0)
    assert true.min() >= 0 and true.max() <= 12


def test_carried_state_counts_cached_factors():
    gmm = gmmadapt.GaussianMixtureStream(9, 64, jitter=2e-2)
    rng = np.random.default_rng(0)
    gmm.update(rng.standard_normal((64, 64)), rng.dirichlet(np.ones(9), size=64))
    assert gmm.memory_footprint() == 9 * (64 + 2080 + 1)
    assert tracing.carried_state_reals(gmm) == 9 * (64 + 2080 + 1 + 64 * 64)


def _small_run(traced: bool, tmp_path: Path):
    cfg = gmmadapt.default_config()
    cfg.n_batches, cfg.n_init, cfg.n_source_train, cfg.source_epochs = 6, 3, 256, 1
    rec = Recorder(gmmadapt, traced=traced)
    rec.install()
    try:
        gmmadapt.runner.run_adapt(cfg, tmp_path / str(traced))
        rec.end_timed()
        return rec, rec.call_summary(), (tmp_path / str(traced) / "metrics.jsonl").read_bytes()
    finally:
        rec.uninstall()


def test_traced_run_matches_untraced_and_accounts_for_each_step(tmp_path):
    plain, plain_summary, plain_bytes = _small_run(False, tmp_path)
    traced, summary, traced_bytes = _small_run(True, tmp_path)
    assert plain_bytes == traced_bytes
    assert len(plain.steps_ms()) == len(traced.steps_ms()) == 6
    assert len(plain.predict_ms) == 6 and len(plain.setup_s) == 1
    assert "layers" not in plain_summary
    assert summary["step_accounting"] is True
    layers = summary["layers"]
    assert layers["gmm_stream.update"]["calls"] == 6
    assert layers["runner.run_adapt"]["calls"] == 1
    assert summary["cholesky_attempts"] == layers["linalg.cholesky"]["calls"]
    assert summary["pseudo_seen"] == 6 * 64


def test_child_env_pins_one_blas_thread_whatever_the_shell_holds(monkeypatch):
    import run

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    env = run.child_env()
    assert all(env[k] == "1" for k in run.BLAS_VARS)


def test_every_per_layer_metric_has_a_prediction():
    doc = spec.benchmark()
    assert set(spec.PREDICTIONS) == set(spec.units("per_layer"))
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
    for moves, shows, no_change in spec.PREDICTIONS.values():
        assert moves in spec.units("end_to_end")
        assert set(shows) | set(no_change) <= set(workloads.WORKLOADS)
        assert not set(shows) & set(no_change)


def test_a_call_that_raises_is_recorded_and_its_files_removed(tmp_path, monkeypatch):
    def run_adapt(cfg, out):
        out.mkdir(parents=True)
        (out / "metrics.jsonl").write_text("partial\n")
        raise RuntimeError("boom")

    monkeypatch.setattr(gmmadapt.runner, "run_adapt", run_adapt)
    work = workloads.Workload(gmmadapt, Recorder(gmmadapt, traced=False), "adapt-default", 0,
                              tmp_path)
    call = work.one_call(0)
    assert call["error"] == "RuntimeError: boom"
    assert call["checks"]["pinned_digest"] is False
    assert report.call_failed(call)
    assert list(tmp_path.iterdir()) == []


FAKE_CHILD = """
import argparse, json, pathlib, sys
p = argparse.ArgumentParser()
for a in ("--workload", "--seed", "--seconds", "--trace", "--out", "--workdir"):
    p.add_argument(a)
args = p.parse_args()
(pathlib.Path(args.workdir) / "run-0").mkdir()
(pathlib.Path(args.workdir) / "run-0" / "metrics.jsonl").write_text("partial")
if {crash}:
    sys.exit(1)
call = {{"index": 0, "error": "RuntimeError: boom", "checks": {{}}}}
pathlib.Path(args.out).write_text(json.dumps({{
    "calls": [call], "setup_s": [], "scored_calls": 1, "maxrss_kb": 1,
    "env": {{"nproc": 1, "blas": {{}}}}}}))
"""


@pytest.mark.parametrize("crash", [False, True])
def test_run_reports_incorrect_when_a_child_fails_and_leaves_files(tmp_path, monkeypatch, capfd,
                                                                   crash):
    import run

    child = tmp_path / "child.py"
    child.write_text(textwrap.dedent(FAKE_CHILD.format(crash=crash)))
    outdir = tmp_path / "out"
    monkeypatch.setattr(run, "CHILD", child)
    monkeypatch.setattr(run, "OUTDIR", outdir)
    code = run.main(["--workload", "adapt-default", "--seconds", "1"])
    result = json.loads(capfd.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    assert [p.name for p in outdir.iterdir()] == ["adapt-default-seed0-trace0.json"]


def test_end_to_end_scores_only_the_fixed_calls():
    def call(run_s, h):
        return {"error": None, "checks": {}, "run_s": run_s, "batches": 4, "runs": 1,
                "steps_ms": [1.0, 2.0, 3.0, 4.0], "predict_ms": [0.5] * 4, "h_score": h,
                "carried_state_reals": 10}
    child = {"calls": [call(2.0, 0.4), call(4.0, 0.6), call(3.0, 0.9)], "setup_s": [0.1, 0.3, 0.2],
             "scored_calls": 2, "maxrss_kb": 2048}
    values, samples = report.end_to_end(child)
    assert values["h_score"] == pytest.approx(0.5)
    assert values["run_s"] == 3.0 and values["setup_s"] == 0.2
    assert values["batches_per_s"] == pytest.approx(4 / 3.0)
    assert values["step_ms_p50"] == 2.5 and samples["step_ms_p90"] == 12
    assert values["peak_rss_mb"] == 2.0


def test_a_trace_run_gives_each_child_half_the_seconds(tmp_path, monkeypatch):
    import run

    seconds = []

    def fake_run(cmd, **kwargs):
        arg = dict(zip(cmd[2::2], cmd[3::2]))
        seconds.append(float(arg["--seconds"]))
        call = {"index": 0, "error": "RuntimeError: boom", "checks": {}, "digest": None,
                "probe": {"step_accounting": None}}
        Path(arg["--out"]).write_text(json.dumps({"calls": [call], "env": {"nproc": 1, "blas": {}}}))
        return subprocess.CompletedProcess(cmd, 0)

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    monkeypatch.setattr(run, "OUTDIR", tmp_path / "out")
    assert run.main(["--workload", "adapt-default", "--seconds", "40", "--trace", "1"]) == 1
    assert seconds == [20.0, 20.0]
