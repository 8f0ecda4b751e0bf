"""End-to-end online adaptation on the default synthetic OPDA task.

Trains the source model, then streams target batches through the full
loop (mixture update, gating, pseudo-labels, losses, SGD), and compares
against the loss_mode=none baseline on the same stream. Shortened to 80
batches so the demo runs in well under a minute.
"""
from gmmadapt import default_config
from gmmadapt.runner import adapt_stream, build_task, train_source_model

cfg = default_config()
cfg.n_batches = 80

source, stream = build_task(cfg)
model, holdout_acc, _ = train_source_model(cfg, source)
print(f"source model trained: holdout accuracy {holdout_acc:.3f}")
print(f"task: {cfg.shift.kind} split "
      f"{cfg.shift.n_shared}/{cfg.shift.n_source_private}/{cfg.shift.n_target_private}, "
      f"{cfg.n_batches} batches of {cfg.n_b}\n")

results = {}
for mode in ("none", "both"):
    cfg_m = default_config()
    cfg_m.n_batches = 80
    cfg_m.loss_mode = mode
    result = adapt_stream(cfg_m, model.copy(), stream)
    results[mode] = result.summary(cfg_m)

for mode, s in results.items():
    full = s["full_run"]
    print(f"loss_mode={mode:5s}: H={full['h_score']:.3f} "
          f"(known {full['acc_known']:.3f}, unknown {full['acc_unknown']:.3f}), "
          f"adapt ratio {full['adapt_ratio']:.2f}")

gain = results["both"]["full_run"]["h_score"] - results["none"]["full_run"]["h_score"]
print(f"\nadaptation benefit over the frozen model: {gain * 100:+.1f} H-score points")
print(f"thresholds froze at tau_k={results['both']['tau_k']:.3f}, "
      f"tau_u={results['both']['tau_u']:.3f}")
