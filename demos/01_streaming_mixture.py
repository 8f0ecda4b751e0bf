"""Streaming per-class Gaussian mixture on a synthetic feature stream.

Feeds 40 batches of soft-labeled features into the mixture and shows that
(a) the running means converge to the one-pass weighted means exactly,
(b) the stored-value count never grows with the number of batches.
"""
import numpy as np

from gmmadapt import GaussianMixtureStream

rng = np.random.default_rng(0)
n_classes, dim, batch = 3, 8, 32
centers = rng.standard_normal((n_classes, dim)) * 3

gmm = GaussianMixtureStream(n_classes, dim, jitter=1e-6)
print(f"mixture over {n_classes} classes in {dim}-d, "
      f"memory footprint {gmm.memory_footprint()} stored reals")

all_feats, all_weights = [], []
for k in range(1, 41):
    labels = rng.integers(0, n_classes, size=batch)
    feats = centers[labels] + rng.standard_normal((batch, dim))
    # soft weights: mostly on the true class, a little smeared
    weights = np.full((batch, n_classes), 0.1 / (n_classes - 1))
    weights[np.arange(batch), labels] = 0.9
    gmm.update(feats, weights)
    all_feats.append(feats)
    all_weights.append(weights)
    if k in (1, 5, 40):
        masses = [f"{m:7.1f}" for m in gmm.mass]
        print(f"batch {k:3d}: class masses {' '.join(masses)}, "
              f"footprint {gmm.memory_footprint()}")

feats = np.vstack(all_feats)
weights = np.vstack(all_weights)
print("\nstreaming mean vs one-pass weighted mean:")
for c in range(n_classes):
    oracle = (weights[:, c] @ feats) / weights[:, c].sum()
    err = np.linalg.norm(gmm.means[c] - oracle)
    print(f"  class {c}: |streaming - one-pass| = {err:.2e}")

x = centers[0] + 0.1 * rng.standard_normal(dim)
logp = gmm.class_log_likelihoods_batch(x[None, :])[0]
print(f"\nlog-likelihoods of a class-0 sample: {np.round(logp, 2)}")
print(f"argmax class: {int(np.argmax(logp))}")
