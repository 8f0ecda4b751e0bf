"""The two adaptation losses and their exact gradients.

Contrastive: pseudo-known samples attract same-class samples and their
class prototype, everything else repels through the softmax denominator.
KL-to-uniform: sharpens pseudo-known predictions, flattens pseudo-unknown
ones. Both gradients are analytic; a finite-difference probe confirms.
"""
import numpy as np

from gmmadapt import DISCARDED, contrastive_loss, kld_loss
from gmmadapt.toy_model import softmax

rng = np.random.default_rng(2)
n_classes, dim, n = 3, 6, 8

feats = rng.standard_normal((2 * n, dim))
labels = np.array([0, 0, 1, 2, n_classes, n_classes, DISCARDED, 1] * 2)
protos = rng.standard_normal((n_classes, dim))

loss_c, grad_c = contrastive_loss(feats, labels, protos, n_classes, temperature=0.1)
print(f"contrastive loss {loss_c:.4f}, gradient norm {np.linalg.norm(grad_c):.4f}")
print(f"  discarded sample gradient is zero: {not np.any(grad_c[6])}")

logits = rng.standard_normal((n, n_classes)) * 2
loss_k, grad_k = kld_loss(softmax(logits), labels[:n], n_classes)
print(f"kld loss {loss_k:.4f} (known terms negative, unknown positive)")

lam = 1.0
print(f"combined L_C + lambda * L_KLD with lambda={lam}: {loss_c + lam * loss_k:.4f}")

# finite-difference probe on one feature coordinate
h = 1e-6
up, down = feats.copy(), feats.copy()
up[0, 0] += h
down[0, 0] -= h
numeric = (contrastive_loss(up, labels, protos, n_classes, 0.1)[0]
           - contrastive_loss(down, labels, protos, n_classes, 0.1)[0]) / (2 * h)
print(f"\nfinite-difference check on feats[0,0]: "
      f"analytic {grad_c[0, 0]:+.8f} vs numeric {numeric:+.8f}")

# gradient descent on a single unknown sample's logits flattens it
z = np.array([[2.0, 0.0, -1.0]])
for step in range(200):
    probs = softmax(z)
    _, g = kld_loss(probs, np.array([n_classes]), n_classes)
    z -= 0.1 * g
print(f"after 200 steps of the unknown branch, softmax -> {np.round(softmax(z)[0], 3)}")
