"""Reconstruction, divergence, and classification losses.

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

LOG_CLAMP = 1e-7


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValidationError("loss weights must be non-negative")
        if self.alpha + self.beta <= 0.0:
            raise ValidationError("at least one loss weight must be positive")


@dataclass
class LossReport:
    recon_methyl: float
    recon_expr: float
    kl: float
    vae: float
    classification: float
    total: float


def bce(target: Matrix, pred: Matrix) -> float:
    """Binary cross-entropy, mean over features then batch.

    Predictions are clamped to [1e-7, 1-1e-7] before the logs.
    """
    if target.shape != pred.shape:
        raise ValidationError(f"bce shape mismatch: {target.shape} vs {pred.shape}")
    # -(target * log(p) + (1 - target) * log(1 - p)), in place in p and q
    p = np.clip(pred, LOG_CLAMP, 1.0 - LOG_CLAMP)
    q = np.subtract(1.0, p)
    np.log(p, out=p)
    np.log(q, out=q)
    np.multiply(target, p, out=p)
    np.multiply(1.0 - target, q, out=q)
    np.add(p, q, out=p)
    np.negative(p, out=p)
    return float(p.mean())


def kl_gaussian(mu: Matrix, logvar: Matrix) -> float:
    """KL(N(mu, exp(logvar)) || N(0, I)): sum over dims, mean over batch."""
    if mu.shape != logvar.shape:
        raise ValidationError(f"kl_gaussian shape mismatch: {mu.shape} vs {logvar.shape}")
    per_sample = -0.5 * np.sum(1.0 + logvar - mu**2 - np.exp(logvar), axis=1)
    return float(per_sample.mean())


def vae_loss(
    methyl_targets: list[Matrix] | None,
    methyl_preds: list[Matrix] | None,
    expr_target: Matrix | None,
    expr_pred: Matrix | None,
    mu: Matrix,
    logvar: Matrix,
) -> tuple[float, float, float]:
    """Reconstruction + divergence components: (recon_methyl, recon_expr, kl).

    The methylation term is the mean of the per-chromosome-block BCEs; the
    expression term is a single BCE. Either modality may be absent: its
    target and prediction are then both None and its term is 0.
    """
    if (methyl_targets is None) != (methyl_preds is None):
        raise ValidationError("methylation target/prediction must both be present or both absent")
    if (expr_target is None) != (expr_pred is None):
        raise ValidationError("expression target/prediction must both be present or both absent")
    recon_methyl = 0.0
    if methyl_targets is not None:
        if len(methyl_targets) != len(methyl_preds):
            raise ValidationError(
                f"block count mismatch: {len(methyl_targets)} targets vs "
                f"{len(methyl_preds)} predictions"
            )
        recon_methyl = float(
            np.mean([bce(t, p) for t, p in zip(methyl_targets, methyl_preds)])
        )
    recon_expr = bce(expr_target, expr_pred) if expr_target is not None else 0.0
    return recon_methyl, recon_expr, kl_gaussian(mu, logvar)


def classification_loss(labels: np.ndarray, probs: Matrix) -> float:
    """Mean negative log-probability of the true class."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != probs.shape[0]:
        raise ValidationError("labels must be a vector matching the batch size")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValidationError(
            f"label out of range [0, {probs.shape[1]}): {int(labels.min())}..{int(labels.max())}"
        )
    picked = probs[np.arange(labels.shape[0]), labels]
    return float(-np.log(np.clip(picked, 1e-300, 1.0)).mean())


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
