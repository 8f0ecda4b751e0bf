"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; criteria 6-8 share one set of 24 adaptation runs (6 seeds x 4 loss
modes) built once per session.
"""
import json
import time

import numpy as np
import pytest

from gmmadapt import linalg
from gmmadapt.cli import main
from gmmadapt.config import default_config
from gmmadapt.gmm_stream import GaussianMixtureStream
from gmmadapt.objectives import contrastive_loss, kld_loss
from gmmadapt.ood_gate import DISCARDED, ThresholdState, normalized_entropy_rows
from gmmadapt.runner import adapt_stream, build_task, train_source_model
from gmmadapt.toy_model import ToyModel, cross_entropy_loss, softmax

LOSS_MODES = ("none", "kld_only", "contrastive_only", "both")


def report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} ({name}): {status}  {detail}")
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def default_runs():
    """6 seeds x 4 loss modes on the default task; source model shared per seed."""
    t0 = time.time()
    runs = {mode: [] for mode in LOSS_MODES}
    for seed in range(6):
        cfg = default_config()
        cfg.seed = seed
        source, stream = build_task(cfg)
        model0, holdout, _ = train_source_model(cfg, source)
        for mode in LOSS_MODES:
            cfg_m = default_config()
            cfg_m.seed = seed
            cfg_m.loss_mode = mode
            result = adapt_stream(cfg_m, model0.copy(), stream)
            runs[mode].append(
                {
                    "seed": seed,
                    "records": result.records,
                    "summary": result.summary(cfg_m),
                    "thresholds": result.thresholds,
                }
            )
    runs["elapsed"] = time.time() - t0
    return runs


def test_criterion_1_memory_ratio_reproduction(capsys):
    t0 = time.time()
    code = main(
        ["memory", "--fd", "256", "--fd-r", "64", "--queue-len", "55388",
         "--teacher-params", "24000000", "--classes", "345:345"]
    )
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        row = out.strip().splitlines()[-1].split(",")
        ratio_queue, ratio_teacher = float(row[4]), float(row[5])
        ok = (
            code == 0
            and abs(ratio_queue - 0.0222) <= 0.0005
            and abs(ratio_teacher - 0.0308) <= 0.0005
            and elapsed < 1.0
        )
        report(1, "memory ratios", ok,
               f"queue={ratio_queue:.4%} teacher={ratio_teacher:.4%} in {elapsed:.3f}s")


def test_criterion_2_streaming_mean_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_mean, worst_scatter = 0.0, 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        n_classes = int(rng.integers(2, 6))
        n_batches = int(rng.integers(1, 21))
        gmm = GaussianMixtureStream(n_classes, dim, jitter=1e-6)
        feats_all, w_all = [], []
        first = None
        for _ in range(n_batches):
            n = int(rng.integers(2, 24))
            feats = rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0)
            w = rng.dirichlet(np.ones(n_classes), size=n)
            gmm.update(feats, w)
            if first is None:
                first = (feats, w, linalg.unpack(gmm.cov_packed, dim), gmm.means.copy())
            feats_all.append(feats)
            w_all.append(w)
        feats = np.vstack(feats_all)
        w = np.vstack(w_all)
        for c in range(n_classes):
            oracle = (w[:, c] @ feats) / w[:, c].sum()
            rel = np.linalg.norm(gmm.means[c] - oracle) / max(np.linalg.norm(oracle), 1e-300)
            worst_mean = max(worst_mean, rel)
        f1, w1, covs1, means1 = first
        for c in range(n_classes):
            mass = w1[:, c].sum()
            if mass == 0:
                continue
            diff = f1 - means1[c]
            scatter = (diff.T * w1[:, c]) @ diff / mass
            rel = np.max(np.abs(covs1[c] - scatter)) / max(np.max(np.abs(scatter)), 1e-300)
            worst_scatter = max(worst_scatter, rel)
    elapsed = time.time() - t0
    ok = worst_mean < 1e-10 and worst_scatter < 1e-10 and elapsed < 10.0
    report(2, "streaming-mean oracle", ok,
           f"worst mean rel {worst_mean:.2e}, worst first-batch scatter rel "
           f"{worst_scatter:.2e} in {elapsed:.1f}s")


def _fd_check_over_params(model, loss_fn, h=1e-5):
    analytic = loss_fn(model, want_grads=True)
    worst = 0.0
    for name in model.params:
        g = model.params[name]
        num = np.zeros_like(g)
        it = np.nditer(g, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            old = g[idx]
            g[idx] = old + h
            up = loss_fn(model)
            g[idx] = old - h
            down = loss_fn(model)
            g[idx] = old
            num[idx] = (up - down) / (2 * h)
            it.iternext()
        denom = max(np.linalg.norm(num), 1e-10)
        # a parameter the loss does not reach has no entry: its gradient is zero
        grad = analytic.get(name, np.zeros_like(g))
        worst = max(worst, np.linalg.norm(grad - num) / denom)
    return worst


def test_criterion_3_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(7)
    d_in, fd, fd_r, n_classes, n_b = 5, 8, 4, 3, 6
    worst = {"contrastive": 0.0, "kld": 0.0, "combined": 0.0, "cross_entropy": 0.0}

    for trial in range(20):
        model = ToyModel(d_in, fd, fd_r, n_classes, seed=100 + trial)
        x = rng.standard_normal((2 * n_b, d_in))
        labels = rng.choice(list(range(n_classes)) + [n_classes, DISCARDED], size=n_b)
        labels[:2] = 0
        labels2 = np.concatenate([labels, labels])
        protos = rng.standard_normal((n_classes, fd_r))
        y_src = rng.integers(0, n_classes, size=n_b)
        lam = 1.0

        def contrastive_fn(m, want_grads=False):
            cache = m.forward(x)
            loss, d_feats = contrastive_loss(cache.reduced, labels2, protos, n_classes, 0.1)
            if want_grads:
                return m.backward(cache, d_reduced=d_feats)
            return loss

        def kld_fn(m, want_grads=False):
            cache = m.forward(x[:n_b])
            loss, d_logits = kld_loss(cache.probs, labels, n_classes)
            if want_grads:
                return m.backward(cache, d_logits=d_logits)
            return loss

        def combined_fn(m, want_grads=False):
            cache = m.forward(x)
            loss_c, d_feats = contrastive_loss(cache.reduced, labels2, protos, n_classes, 0.1)
            loss_k, d_logits_half = kld_loss(cache.probs[:n_b], labels, n_classes)
            if want_grads:
                d_logits = np.zeros_like(cache.probs)
                d_logits[:n_b] = lam * d_logits_half
                return m.backward(cache, d_reduced=d_feats, d_logits=d_logits)
            return loss_c + lam * loss_k

        def ce_fn(m, want_grads=False):
            cache = m.forward(x[:n_b])
            loss, d_logits = cross_entropy_loss(cache.probs, y_src)
            if want_grads:
                return m.backward(cache, d_logits=d_logits)
            return loss

        worst["contrastive"] = max(worst["contrastive"], _fd_check_over_params(model, contrastive_fn))
        worst["kld"] = max(worst["kld"], _fd_check_over_params(model, kld_fn))
        worst["combined"] = max(worst["combined"], _fd_check_over_params(model, combined_fn))
        worst["cross_entropy"] = max(worst["cross_entropy"], _fd_check_over_params(model, ce_fn))

    elapsed = time.time() - t0
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 30.0
    report(3, "gradient suite", ok,
           " ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f" in {elapsed:.1f}s")


def test_criterion_4_entropy_gate_properties():
    rng = np.random.default_rng(11)
    ok = True
    details = []

    total = 0
    for n in (2, 3, 5, 9, 12):
        p = rng.dirichlet(np.full(n, rng.uniform(0.1, 4.0)), size=20_000)
        vals = normalized_entropy_rows(p)
        total += vals.size
        if not (np.all(vals >= 0.0) and np.all(vals <= 1.0)):
            ok = False
            details.append(f"range violated at C={n}")
    details.append(f"{total} random vectors in [0,1]")

    for n in (2, 3, 4, 9, 12, 345):
        if normalized_entropy_rows(np.full((1, n), 1.0 / n))[0] != 1.0:
            ok = False
            details.append(f"uniform C={n} != 1.0")
        hot = np.zeros((1, n))
        hot[0, 0] = 1.0
        if normalized_entropy_rows(hot)[0] != 0.0:
            ok = False
            details.append(f"one-hot C={n} != 0.0")
    details.append("uniform==1.0 and one-hot==0.0 exactly")

    ts = ThresholdState(n_init=30, p_reject=50.0, tau_k=0.3, tau_u=0.7, batches_seen=1)
    p_boundary = np.array([0.5, 0.5, 0.0, 0.0])  # entropy exactly 0.5 == tau
    pred = ts.predict_batch(np.array([[0.1, 0.2, 0.6, 0.1]]), p_boundary[None, :],
                            normalized_entropy_rows(p_boundary[None, :]))[0]
    if pred != 2:
        ok = False
        details.append("boundary routed to unknown")
    else:
        details.append("boundary I==tau routes known")

    report(4, "entropy-gate properties", ok, "; ".join(details))


def test_criterion_5_threshold_behavior(default_runs):
    run = default_runs["both"][0]  # default config is seed 0
    records = run["records"]
    discard_1 = 1.0 - records[0].adapt_ratio
    tol = 2.0 / 64.0
    ok_discard = abs(discard_1 - 0.5) <= tol

    frozen = records[29:]  # batches 30..200 carry the frozen thresholds
    tks = {r.tau_k for r in frozen}
    tus = {r.tau_u for r in frozen}
    ok_stable = len(tks) == 1 and len(tus) == 1
    ok = ok_discard and ok_stable
    report(5, "threshold behavior", ok,
           f"first-batch discard {discard_1:.4f} (tol ±{tol:.4f}); "
           f"{len(frozen)} post-freeze batches, {len(tks)} tau_k value(s)")


def test_criterion_6_adaptation_benefit(default_runs):
    means = {
        mode: float(np.mean([r["summary"]["full_run"]["h_score"] for r in default_runs[mode]]))
        for mode in LOSS_MODES
    }
    margin = means["both"] - means["none"]
    ordered_kld = means["none"] <= means["kld_only"] <= means["both"]
    ordered_con = means["none"] <= means["contrastive_only"] <= means["both"]
    elapsed = default_runs["elapsed"]
    ok = margin >= 0.05 and ordered_kld and ordered_con and elapsed < 300.0
    report(6, "adaptation benefit", ok,
           f"H means none={means['none']:.3f} kld={means['kld_only']:.3f} "
           f"cont={means['contrastive_only']:.3f} both={means['both']:.3f} "
           f"margin={margin*100:.1f}pp, 24 runs in {elapsed:.0f}s")


def test_criterion_7_adaptation_ratio_trend(default_runs):
    rising = 0
    pairs = []
    for run in default_runs["both"]:
        s = run["summary"]
        early = s["adapt_ratio_early_window"]
        late = s["adapt_ratio_final_window"]
        pairs.append((early, late))
        if late > early:
            rising += 1
    ok = rising >= 5
    report(7, "adaptation-ratio trend", ok,
           f"{rising}/6 seeds rising; windows " +
           " ".join(f"{e:.2f}->{l:.2f}" for e, l in pairs))


def test_criterion_8_quality_over_quantity(default_runs):
    wins = 0
    pairs = []
    for run in default_runs["both"]:
        post = run["summary"]["post_calibration"]
        prec, acc = post["pl_precision_known"], post["acc_known"]
        pairs.append((prec, acc))
        if prec > acc:
            wins += 1
    ok = wins >= 5
    report(8, "quality over quantity", ok,
           f"{wins}/6 seeds precision>accuracy; " +
           " ".join(f"{p:.2f}>{a:.2f}" for p, a in pairs))


def test_criterion_9_determinism_and_replay(tmp_path):
    config = default_config().to_dict()
    config["n_batches"] = 40
    config["fd"] = 64
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["adapt", "--config", str(cfg_path), "--out", str(out_a)])
    code_b = main(["adapt", "--config", str(cfg_path), "--out", str(out_b)])
    identical = (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()

    replay_path = tmp_path / "summary.replay.json"
    code_r = main(["replay", str(out_a), "--out", str(replay_path)])
    replay_exact = replay_path.read_text() == (out_a / "summary.json").read_text()

    ok = code_a == 0 and code_b == 0 and code_r == 0 and identical and replay_exact
    report(9, "determinism and replay", ok,
           f"metrics byte-identical: {identical}; replay reproduces summary: {replay_exact}")
