"""Self-calibrating dual-threshold gate on simulated entropy values.

Known-class samples produce low normalized entropy, out-of-distribution
samples high entropy. The gate calibrates tau_k / tau_u from per-batch
order statistics over 30 batches, then freezes; samples between the
thresholds are discarded from adaptation rather than guessed at.
"""
import numpy as np

from gmmadapt import DISCARDED, ThresholdState, normalized_entropy_rows

rng = np.random.default_rng(1)
n_classes, batch = 9, 64
ts = ThresholdState(n_init=30, p_reject=50.0)


def fake_batch():
    """2/3 knowns (peaked likelihoods), 1/3 unknowns (flat ones)."""
    p = np.zeros((batch, n_classes))
    n_known = 2 * batch // 3
    for i in range(batch):
        alpha = np.full(n_classes, 0.2 if i < n_known else 4.0)
        p[i] = rng.dirichlet(alpha)
    return p


for k in range(1, 31):
    probs = fake_batch()
    entropies = normalized_entropy_rows(probs)
    ts.calibrate(entropies)
    if k in (1, 2, 10, 30):
        labels = ts.pseudo_label_batch(probs, entropies)
        known = int(((labels >= 0) & (labels < n_classes)).sum())
        unknown = int((labels == n_classes).sum())
        disc = int((labels == DISCARDED).sum())
        print(f"batch {k:2d}: tau_k={ts.tau_k:.3f} tau_u={ts.tau_u:.3f} "
              f"-> known {known}, unknown {unknown}, discarded {disc}")

print(f"\nfrozen after {ts.batches_seen} batches: tau_k={ts.tau_k:.3f} "
      f"tau_u={ts.tau_u:.3f}, inference tau={ts.tau:.3f}")

probs = fake_batch()
preds = ts.predict_batch(probs, probs, normalized_entropy_rows(probs))
print(f"inference on a fresh batch: {int((preds < n_classes).sum())} known, "
      f"{int((preds == n_classes).sum())} rejected as unknown "
      f"(every sample gets a verdict)")
