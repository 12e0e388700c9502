"""Reconstruction, divergence, and classification losses.

Both data terms read the model's output logits, not probabilities, and are
computed in a form that stays exact at any finite logit: binary
cross-entropy as `max(z, 0) - t*z + log1p(exp(-|z|))` and classification as
log-softmax. So each reported loss is the function whose gradient the
model's backward uses (`sigmoid(z) - t` and `softmax(z) - onehot`), with
no clamp: a saturated output still moves the loss and the early-stopping
metric. An infinite logit gives a non-finite loss, which training reports
as divergence.

Reduction convention: binary cross-entropy averages over features and then
over the batch; the KL term sums over latent dimensions and averages over
the batch; classification cross-entropy averages over the batch. Keeping
reconstruction per-feature means its magnitude is comparable across input
widths, which is what makes one loss-weight setting usable at several scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .numerics import Matrix


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValidationError("the VAE loss weight alpha must be positive")
        if self.beta < 0.0:
            raise ValidationError("the classification loss weight beta must be non-negative")


@dataclass
class LossReport:
    recon_methyl: float
    recon_expr: float
    kl: float
    vae: float
    classification: float
    total: float


def bce(target: Matrix, logits: Matrix) -> float:
    """Binary cross-entropy of `target` against sigmoid(`logits`), mean over
    features then batch."""
    if target.shape != logits.shape:
        raise ValidationError(f"bce shape mismatch: {target.shape} vs {logits.shape}")
    # max(z, 0) - t*z + log1p(exp(-|z|)), in place in a and b
    a = np.abs(logits)
    np.negative(a, out=a)
    np.exp(a, out=a)
    np.log1p(a, out=a)
    b = np.maximum(logits, 0.0)
    np.subtract(b, target * logits, out=b)
    np.add(b, a, out=b)
    return float(b.mean())


def kl_gaussian(mu: Matrix, logvar: Matrix) -> float:
    """KL(N(mu, exp(logvar)) || N(0, I)): sum over dims, mean over batch."""
    if mu.shape != logvar.shape:
        raise ValidationError(f"kl_gaussian shape mismatch: {mu.shape} vs {logvar.shape}")
    per_sample = -0.5 * np.sum(1.0 + logvar - mu**2 - np.exp(logvar), axis=1)
    return float(per_sample.mean())


def vae_loss(
    methyl_targets: list[Matrix] | None,
    methyl_logits: list[Matrix] | None,
    expr_target: Matrix | None,
    expr_logits: Matrix | None,
    mu: Matrix,
    logvar: Matrix,
) -> tuple[float, float, float]:
    """Reconstruction + divergence components: (recon_methyl, recon_expr, kl).

    The methylation term is the mean of the per-chromosome-block BCEs; the
    expression term is a single BCE. Either modality may be absent: its
    target and logits are then both None and its term is 0.
    """
    if (methyl_targets is None) != (methyl_logits is None):
        raise ValidationError("methylation target/logits must both be present or both absent")
    if (expr_target is None) != (expr_logits is None):
        raise ValidationError("expression target/logits must both be present or both absent")
    recon_methyl = 0.0
    if methyl_targets is not None:
        if len(methyl_targets) != len(methyl_logits):
            raise ValidationError(
                f"block count mismatch: {len(methyl_targets)} targets vs "
                f"{len(methyl_logits)} logits"
            )
        recon_methyl = float(np.mean([bce(t, z) for t, z in zip(methyl_targets, methyl_logits)]))
    recon_expr = bce(expr_target, expr_logits) if expr_target is not None else 0.0
    return recon_methyl, recon_expr, kl_gaussian(mu, logvar)


def classification_loss(labels: np.ndarray, logits: Matrix) -> float:
    """Mean negative log-softmax of the true class: logsumexp(z) - z[label],
    with each row shifted by its maximum."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValidationError("labels must be a vector matching the batch size")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValidationError(
            f"label out of range [0, {logits.shape[1]}): {int(labels.min())}..{int(labels.max())}"
        )
    shifted = logits - logits.max(axis=1, keepdims=True)
    picked = shifted[np.arange(labels.shape[0]), labels]
    return float((np.log(np.exp(shifted).sum(axis=1)) - picked).mean())


def total_loss(
    recon_methyl: float,
    recon_expr: float,
    kl: float,
    classification: float,
    weights: LossWeights,
) -> LossReport:
    """Weighted combination of the VAE and classification terms."""
    vae = recon_methyl + recon_expr + kl
    return LossReport(
        recon_methyl=recon_methyl,
        recon_expr=recon_expr,
        kl=kl,
        vae=vae,
        classification=classification,
        total=weights.alpha * vae + weights.beta * classification,
    )
