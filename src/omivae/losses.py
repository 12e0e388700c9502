"""The training objective: reconstruction, divergence and classification
losses, each returned with its gradient at the arrays it reads.

Each loss takes the weight of its value in the objective, and forms the
value and the weighted gradient from the same exponentials; the model's
`forward_backward` hands the gradients to its towers' backward. Both data
terms read logits and stay exact at any finite logit: binary cross-entropy
is `max(z, 0) - t*z + log1p(exp(-|z|))` with gradient `sigmoid(z) - t`, and
classification is log-softmax with gradient `softmax(z) - onehot`. There is
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


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0
    beta: float = 0.0


@dataclass
class LossReport:
    recon_methyl: float
    recon_expr: float
    kl: float
    vae: float
    classification: float
    total: float


def bce(target: np.ndarray, logits: np.ndarray, weight: float = 1.0) -> tuple[float, np.ndarray]:
    """Binary cross-entropy of `target` against sigmoid(`logits`), mean over
    features then batch, and `weight * (sigmoid(logits) - target)`: the
    gradient of the entries' losses summed, each with weight `weight`, so
    `1 / target.size` gives the mean's gradient. Both use e = e^-|z| <= 1,
    which cannot overflow; the sigmoid is `max(e, z >= 0) / (1 + e)`, one
    division for both signs. min(z, -z) rather than -|z| keeps a NaN's sign,
    as masking by sign does.
    """
    if target.shape != logits.shape:
        raise ValidationError(f"bce shape mismatch: {target.shape} vs {logits.shape}")
    with np.errstate(under="ignore"):
        e = np.negative(logits)
        np.minimum(logits, e, out=e)
        np.exp(e, out=e)
        b = np.maximum(logits, 0.0)
        np.subtract(b, target * logits, out=b)
        np.add(b, np.log1p(e), out=b)
        value = float(b.mean())
        # the gradient, in place in b
        np.maximum(e, logits >= 0, out=b)
        np.add(e, 1.0, out=e)
        np.divide(b, e, out=b)
        np.subtract(b, target, out=b)
        np.multiply(b, weight, out=b)
    return value, b


def kl_gaussian(mu: np.ndarray, logvar: np.ndarray, weight: float = 1.0) -> tuple[float, tuple]:
    """KL(N(mu, exp(logvar)) || N(0, I)), sum over dims and mean over batch,
    and the gradient of `weight` times it at `(mu, logvar)`."""
    if mu.shape != logvar.shape:
        raise ValidationError(f"kl_gaussian shape mismatch: {mu.shape} vs {logvar.shape}")
    var = np.exp(logvar)
    batch = mu.shape[0]
    per_sample = -0.5 * np.sum(1.0 + logvar - mu**2 - var, axis=1)
    return float(per_sample.mean()), (weight * mu / batch, weight * (var - 1.0) / (2.0 * batch))


def vae_loss(
    methyl_targets: list[np.ndarray] | None,
    methyl_logits: list[np.ndarray] | None,
    expr_target: np.ndarray | None,
    expr_logits: np.ndarray | None,
    mu: np.ndarray,
    logvar: np.ndarray,
    weight: float = 1.0,
) -> tuple[tuple[float, float, float], tuple]:
    """Reconstruction + divergence components, `(recon_methyl, recon_expr,
    kl)`, and the gradient of `weight` times their sum at `(methylation
    block logits, expression logits, mu, logvar)`.

    The methylation term is the mean of the per-chromosome-block BCEs; the
    expression term is a single BCE. Either modality may be absent: its
    target and logits are then both None, its term is 0 and its gradient
    None.
    """
    recon_methyl, d_methyl = 0.0, None
    if methyl_targets is not None:
        m = len(methyl_targets)
        terms = [bce(t, z, weight / (m * t.size)) for t, z in zip(methyl_targets, methyl_logits)]
        recon_methyl = float(np.mean([value for value, _ in terms]))
        d_methyl = [grad for _, grad in terms]
    recon_expr, d_expr = 0.0, None
    if expr_target is not None:
        recon_expr, d_expr = bce(expr_target, expr_logits, weight / expr_target.size)
    kl, (d_mu, d_logvar) = kl_gaussian(mu, logvar, weight)
    return (recon_methyl, recon_expr, kl), (d_methyl, d_expr, d_mu, d_logvar)


def classification_loss(
    labels: np.ndarray, logits: np.ndarray, weight: float = 1.0
) -> tuple[float, np.ndarray]:
    """Mean negative log-softmax of the true class, logsumexp(z) - z[label]
    with each row shifted by its maximum, and the gradient of `weight` times
    it, `weight * (softmax(z) - onehot) / batch`."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValidationError("labels must be a vector matching the batch size")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValidationError(
            f"label out of range [0, {logits.shape[1]}): {int(labels.min())}..{int(labels.max())}"
        )
    shifted = logits - logits.max(axis=1, keepdims=True)
    rows = np.arange(labels.shape[0])
    exp_shifted = np.exp(shifted)
    sums = exp_shifted.sum(axis=1, keepdims=True)
    value = float((np.log(sums[:, 0]) - shifted[rows, labels]).mean())
    grad = exp_shifted / sums
    grad[rows, labels] -= 1.0
    return value, weight * grad / labels.shape[0]


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
