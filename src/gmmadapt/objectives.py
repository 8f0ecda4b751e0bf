"""Adaptation losses with exact analytic gradients.

Contrastive term, over the doubled batch (originals + augmented views):
pseudo-known samples of the same class attract each other and their class
prototype (the current mixture mean); everything else in the batch acts as
a negative through the softmax denominators. Similarities are cosine, so
the loss is invariant to rescaling any feature or prototype. Unknown
samples are negatives only by default (a toggle admits unknown-unknown
positive pairs for ablation); discarded samples are excluded from every
term, numerators and denominators alike. Prototypes are constants: no
gradient flows into the mixture.

The sample-sample term runs on blocks: positive pairs on the eligible
samples, the only ones that can pair, and the denominators and their
softmax weights on the participants' block of the similarity matrix. A
full (2n, 2n) formulation holds an exact +0.0 everywhere outside that
block, and an axis-0 sum that skips rows of +0.0 keeps its bits. Work
whose bits depend on position keeps the (2n, 2n) layout: the similarity
GEMM, term 1's sum over positive pairs (numpy's pairwise sum groups terms
by flat index), the two coefficient GEMMs (BLAS blocking depends on the
sizes) and every reduction along the 2n columns. So the loss and its
gradient are bit for bit those of the full-mask formulation, which
tests/test_objectives.py keeps as its reference.

KL term, over the original half only: for pseudo-known samples the
divergence KL(uniform || softmax) is maximized (sharpens the prediction),
for pseudo-unknown samples it is minimized (flattens it); discarded
samples contribute nothing.

Label coding matches ood_gate: 0..C-1 known, C unknown, -1 discarded.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .ood_gate import DISCARDED

PROB_FLOOR = 1e-12


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """scipy.special.logsumexp(a, axis) of a real float array, bit for bit.

    The same arithmetic without scipy's array-API dispatch: the m maximal
    terms are split out of the sum s of the shifted exponentials and added
    back as log1p(s / m) + log(m) + max. A non-finite result, such as a
    slice that is entirely -inf, falls back to log(sum(exp(a))).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        is_max = a == a_max
        m = np.sum(is_max, axis=axis, keepdims=True).astype(a.dtype)
        shifted = a - a_max
        np.copyto(shifted, -np.inf, where=is_max)
        s = np.sum(np.exp(shifted, out=shifted), axis=axis, keepdims=True)
        s /= m  # 0 / m is 0, as scipy keeps it
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)))
    return np.squeeze(out, axis=axis)


def _block_index(idx: np.ndarray, n: int) -> np.ndarray:
    """Flat positions of the idx x idx block of a C-ordered (n, n) matrix,
    row by row: gathers and scatters through them are single fancy indexes."""
    return (idx[:, None] * n + idx).ravel()


def _normalize_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm rows; zero-norm rows stay zero (similarity 0 to everything)."""
    norms = np.linalg.norm(a, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return a / safe[:, None], norms


def contrastive_loss(
    reduced_feats: np.ndarray,
    pseudo_labels: np.ndarray,
    prototypes: np.ndarray,
    n_classes: int,
    temperature: float,
    unknown_positive_pairs: bool = False,
) -> tuple[float, np.ndarray]:
    """Prototype-anchored supervised contrastive loss and feature gradient.

    reduced_feats: (2n, fd_r) raw reduced features, originals followed by
    augmented views. pseudo_labels: (2n,) codes, the augmented half
    inheriting its origin's label. prototypes: (n_classes, fd_r) mixture
    means (rows of classes absent from the labels are never read).

    Returns the loss averaged over contributing numerator terms and its
    gradient w.r.t. the raw reduced features. No known sample (and no
    positive pair) means loss 0 with zero gradient.
    """
    feats = np.asarray(reduced_feats, dtype=np.float64)
    labels = np.asarray(pseudo_labels, dtype=int)
    protos = np.asarray(prototypes, dtype=np.float64)
    if feats.ndim != 2 or labels.shape != (feats.shape[0],):
        raise DimensionMismatch("features and pseudo-labels are misaligned")
    if protos.shape != (n_classes, feats.shape[1]):
        raise DimensionMismatch("prototype matrix has the wrong shape")
    if temperature <= 0:
        raise ValueError("temperature must be positive")

    tau = float(temperature)
    n2 = labels.shape[0]
    participant = labels != DISCARDED
    known = (labels >= 0) & (labels < n_classes)
    p = np.flatnonzero(participant)

    # Positive pairs: same known class, optionally unknown-unknown. Every
    # eligible sample participates; at_e holds their positions in p.
    eligible = known | (labels == n_classes) if unknown_positive_pairs else known
    at_e = np.flatnonzero(eligible[p])
    e = p[at_e]
    labels_e = labels[e]
    pos_e = labels_e[:, None] == labels_e[None, :]
    np.fill_diagonal(pos_e, False)

    n_pos_pairs = int(pos_e.sum())
    n_known = int(known.sum())
    n_terms = n_pos_pairs + n_known
    grad = np.zeros_like(feats)
    if n_terms == 0:
        return 0.0, grad

    z, norms = _normalize_rows(feats)
    sims = (z @ z.T) / tau  # (2n, 2n), entry [l, i] pairs sample l with anchor i
    pos = np.zeros((n2, n2), dtype=bool)
    pos.ravel()[_block_index(e, n2)] = pos_e.ravel()

    # Sample-sample term: anchor i, denominator over participants l != i.
    at_p = _block_index(p, n2)
    block = sims.ravel()[at_p].reshape(p.size, p.size)
    np.fill_diagonal(block, -np.inf)
    log_denom = _logsumexp(block, axis=0)  # per participant anchor column
    pos_per_anchor = np.zeros(p.size)  # n_i of each participant
    pos_per_anchor[at_e] = pos_e.sum(axis=0)
    active = pos_per_anchor > 0
    term1 = float(-(sims * pos).sum() + (pos_per_anchor[active] * log_denom[active]).sum())

    with np.errstate(invalid="ignore"):
        block -= log_denom
    softw = np.exp(block, out=block)
    np.fill_diagonal(softw, 0.0)  # a lone participant's -inf - -inf is NaN
    softw *= pos_per_anchor
    softw.ravel()[_block_index(at_e, p.size)] -= pos_e.ravel()
    softw /= tau
    coeff = np.zeros((n2, n2))  # A[l, i]
    coeff.ravel()[at_p] = softw.ravel()
    grad_z = coeff @ z + coeff.T @ z

    # Prototype term: anchor is the class mean, denominator over all
    # participating samples (self included).
    q, _ = _normalize_rows(protos)
    present = np.bincount(labels[known], minlength=n_classes).astype(np.float64)
    classes = np.flatnonzero(present)
    term2 = 0.0
    if classes.size > 0:
        proto_sims = (q[classes] @ z.T) / tau  # (n_present, 2n)
        counts = present[classes]
        numerator = proto_sims[np.searchsorted(classes, labels[known]), np.flatnonzero(known)]
        proto_sims[:, ~participant] = -np.inf
        log_denom_p = _logsumexp(proto_sims, axis=1)
        term2 = float(-numerator.sum() + (counts * log_denom_p).sum())

        proto_sims -= log_denom_p[:, None]
        softp = np.exp(proto_sims, out=proto_sims)
        softp *= counts[:, None]
        grad_z += (softp.T @ q[classes]) / tau
        grad_z[known] -= q[labels[known]] / tau

    loss = (term1 + term2) / n_terms
    grad_z /= n_terms

    # Chain through the row normalization z = r / ||r||; a row whose norm
    # is not > 0 (zero or NaN) keeps a zero gradient.
    inner = np.sum(grad_z * z, axis=1, keepdims=True)
    np.divide(grad_z - inner * z, norms[:, None], out=grad, where=(norms > 0.0)[:, None])
    return loss, grad


def kld_loss(
    softmax_outs: np.ndarray,
    pseudo_labels: np.ndarray,
    n_classes: int,
) -> tuple[float, np.ndarray]:
    """Signed KL-to-uniform loss and its gradient w.r.t. the logits.

    Per sample d = KL(u || q) with probabilities floored at 1e-12 inside
    the log; pseudo-known samples contribute -d, pseudo-unknown +d,
    discarded 0. The gradient accounts for the floor, so it matches finite
    differences even in clipped regimes.
    """
    probs = np.asarray(softmax_outs, dtype=np.float64)
    labels = np.asarray(pseudo_labels, dtype=int)
    if probs.ndim != 2 or probs.shape != (labels.shape[0], n_classes):
        raise DimensionMismatch("softmax matrix and pseudo-labels are misaligned")

    sign = np.zeros(labels.shape[0])
    sign[labels == n_classes] = 1.0
    sign[(labels >= 0) & (labels < n_classes)] = -1.0

    u = 1.0 / n_classes
    unclipped = probs > PROB_FLOOR
    logq = np.log(np.clip(probs, PROB_FLOOR, None))
    kl_per_sample = -u * logq.sum(axis=1) - np.log(n_classes)  # + sum(u log u)
    loss = float(sign @ kl_per_sample)

    # d KL/d logit_j = -u*1[q_j above floor] + q_j * sum_c u*1[q_c above floor]
    active_mass = u * unclipped.sum(axis=1, keepdims=True)
    d_logits = sign[:, None] * (-u * unclipped + probs * active_mass)
    return loss, d_logits
