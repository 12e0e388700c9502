"""The multi-omics VAE/classifier network.

Structure: per-chromosome methylation blocks and a two-layer expression
encoder meet in a fused hidden layer that feeds Gaussian latent heads; a
mirror-image decoder reconstructs every input block through linear output
layers; a three-layer classifier reads the latent mean and ends in a linear
layer. `decode` and `classify` return those output layers' logits, which
the losses read. Every hidden layer is an `FcBlock` (linear, batch norm,
ReLU). A modality is present exactly when the config gives its widths, so
the single-omics model is the same network with one input tower and its
decoder branch left out. The graph is declared once, in
`OmiVaeModel.__init__`, as an encoder, a decoder and a classifier tower
whose blocks run their own backward. `forward_backward` takes each loss's
gradient from `losses`, which returns it with the value, and calls the
towers' backward, which hand each parameter's gradient to the step's sink
as it forms, one `sink.take(value, grad)` per slab (see `layers`): the
model keeps no gradient.

A model is made in three steps: its blocks declare their tensors, one
`ParameterArena` allocates them all, and then either each block draws its
initialization into the arena in place, or the arena checks a
checkpoint's tensors against the declarations and copies them in. Each
tensor is allocated once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .layers import (
    FcBlock,
    Join,
    LinearLayer,
    ParameterArena,
    Sequence,
    Split,
    softmax,
)
from .losses import (
    LossReport,
    LossWeights,
    classification_loss,
    total_loss,
    vae_loss,
)
from .numerics import RngState


@dataclass(frozen=True)
class ModelConfig:
    """Every architectural knob, with defaults usable at full data scale.

    The input widths say which modalities the model has: methylation when
    `methyl_block_dims` lists any block, expression when `expr_dim` > 0.
    The first expression hidden layer is no knob: its width `expr_hidden`
    is one unit per ~14 input features, `max(8, min(4096, ceil(expr_dim /
    14)))`, so tiny configurations scale down.
    """

    methyl_block_dims: tuple[int, ...] = ()
    expr_dim: int = 0
    per_block_hidden: int = 256
    modality_dim: int = 1024
    fusion_dim: int = 512
    latent_dim: int = 128
    classifier_hidden: tuple[int, ...] = (128, 64)
    num_classes: int = 34

    def __post_init__(self):
        for name in ("methyl_block_dims", "classifier_hidden"):
            object.__setattr__(self, name, tuple(int(d) for d in getattr(self, name)))
        if any(d < 1 for d in self.methyl_block_dims):
            raise ValidationError("methylation block dimensions must be >= 1")
        if self.expr_dim < 0:
            raise ValidationError("expr_dim must be >= 0")
        if not (self.has_expression or self.has_methylation):
            raise ValidationError("the model needs expression or methylation input widths")
        for name in ("per_block_hidden", "modality_dim", "fusion_dim", "latent_dim"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if len(self.classifier_hidden) != 2 or any(d < 1 for d in self.classifier_hidden):
            raise ValidationError("classifier_hidden must list two positive hidden widths")
        if self.num_classes < 2:
            raise ValidationError("num_classes must be >= 2")

    @property
    def has_expression(self) -> bool:
        return self.expr_dim > 0

    @property
    def has_methylation(self) -> bool:
        return len(self.methyl_block_dims) > 0

    @property
    def num_blocks(self) -> int:
        return len(self.methyl_block_dims)

    @property
    def expr_hidden(self) -> int:
        return max(8, min(4096, math.ceil(self.expr_dim / 14)))


def reparameterize(
    mu: np.ndarray, logvar: np.ndarray, rng: RngState
) -> tuple[np.ndarray, np.ndarray]:
    """The training-time latent sample: (z, epsilon) with
    z = mu + exp(logvar/2) * epsilon, epsilon drawn from `rng`.

    Outside training the model reads the latent mean itself (`embed`).
    """
    if mu.shape != logvar.shape:
        raise ValidationError(f"mu/logvar shape mismatch: {mu.shape} vs {logvar.shape}")
    epsilon = rng.standard_normal(mu.shape[0], mu.shape[1])
    return mu + np.exp(0.5 * logvar) * epsilon, epsilon


class OmiVaeModel:
    """Encoder, mirror decoder, and latent-mean classifier as one unit.

    The graph is declared once, as towers of blocks (`layers.Sequence`,
    `Join`, `Split`) that run their own backward. `blocks` collects the
    blocks in the order they are declared, which is the order of the arena
    and of checkpoints. `init` is either an `RngState`, from which each
    block in `blocks` order draws its initialization, or a checkpoint's
    (name, array) list, which the arena checks and copies in.
    """

    def __init__(self, config: ModelConfig, init: RngState | list[tuple[str, np.ndarray]]):
        self.config = cfg = config
        n_mod = int(cfg.has_methylation) + int(cfg.has_expression)
        dims, m = cfg.methyl_block_dims, cfg.num_blocks
        pbh, mod, eh = cfg.per_block_hidden, cfg.modality_dim, cfg.expr_hidden
        self.blocks: list = []

        def add(block):
            self.blocks.append(block)
            return block

        def fc(in_dim: int, out_dim: int, name: str, **options) -> FcBlock:
            return add(FcBlock(in_dim, out_dim, name=name, **options))

        def out(in_dim: int, out_dim: int, name: str) -> LinearLayer:
            # the losses read the logits, so their gradients enter here
            return add(LinearLayer(in_dim, out_dim, name=f"{name}.linear"))

        # the input layers skip the gradient with respect to the data
        branches = []
        if cfg.has_methylation:
            encoders = [
                fc(d, pbh, f"encoder.methyl.block{j:02d}", needs_input_grad=False)
                for j, d in enumerate(dims)
            ]
            branches.append(Sequence(Join(encoders), fc(m * pbh, mod, "encoder.methyl.merge")))
        if cfg.has_expression:
            hidden1 = fc(cfg.expr_dim, eh, "encoder.expr.hidden1", needs_input_grad=False)
            branches.append(Sequence(hidden1, fc(eh, mod, "encoder.expr.hidden2")))
        self.encoder = Sequence(Join(branches), fc(n_mod * mod, cfg.fusion_dim, "encoder.fusion"))
        # distribution heads stay unconstrained: plain linear, no norm
        self.heads = (
            add(LinearLayer(cfg.fusion_dim, cfg.latent_dim, name="encoder.mu_head")),
            add(LinearLayer(cfg.fusion_dim, cfg.latent_dim, name="encoder.logvar_head")),
        )

        trunk = (
            fc(cfg.latent_dim, cfg.fusion_dim, "decoder.from_latent"),
            fc(cfg.fusion_dim, n_mod * mod, "decoder.to_modalities"),
        )
        branches = []
        if cfg.has_methylation:
            expand = fc(mod, m * pbh, "decoder.methyl.expand")
            outputs = [out(pbh, d, f"decoder.methyl.out{j:02d}") for j, d in enumerate(dims)]
            branches.append(Sequence(expand, Split([pbh] * m, outputs)))
        if cfg.has_expression:
            expand = fc(mod, eh, "decoder.expr.expand")
            branches.append(Sequence(expand, out(eh, cfg.expr_dim, "decoder.expr.out")))
        self.decoder = Sequence(*trunk, Split([mod] * n_mod, branches))

        h1, h2 = cfg.classifier_hidden
        self.classifier = Sequence(
            fc(cfg.latent_dim, h1, "classifier.hidden1"),
            fc(h1, h2, "classifier.hidden2"),
            out(h2, cfg.num_classes, "classifier.out"),
        )
        saved = None if isinstance(init, RngState) else init
        self.arena = ParameterArena(self.blocks, saved)
        if saved is None:
            for block in self.blocks:
                block.init(init)

    # ------------------------------------------------------------------ plumbing

    def state_tensors(self) -> list[tuple[str, np.ndarray]]:
        """Parameters plus batch-norm running statistics, in declaration order."""
        return list(self.arena.tensors)

    # ------------------------------------------------------------------ forward

    def encode(
        self,
        x_expr: np.ndarray | None,
        x_methyl_blocks: list[np.ndarray] | None,
        train: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        inputs = [x for x in (x_methyl_blocks, x_expr) if x is not None]
        fused = self.encoder.forward(inputs, train)
        mu_head, logvar_head = self.heads
        return mu_head.forward(fused, train), logvar_head.forward(fused, train)

    def decode(
        self, z: np.ndarray, train: bool = False
    ) -> tuple[np.ndarray | None, list[np.ndarray] | None]:
        """(expression, methylation blocks) reconstruction logits of `z`; an
        absent modality's entry is None."""
        outs = self.decoder.forward(z, train)  # one entry per modality
        cfg = self.config
        return (outs[-1] if cfg.has_expression else None,
                outs[0] if cfg.has_methylation else None)

    def classify(self, mu: np.ndarray, train: bool = False) -> np.ndarray:
        """Class logits of the latent means `mu`."""
        return self.classifier.forward(mu, train)

    def embed(
        self, x_expr: np.ndarray | None, x_methyl_blocks: list[np.ndarray] | None
    ) -> np.ndarray:
        """Latent means in infer mode; the deterministic sample embedding."""
        mu, _ = self.encode(x_expr, x_methyl_blocks, train=False)
        return mu

    def predict_proba(
        self, x_expr: np.ndarray | None, x_methyl_blocks: list[np.ndarray] | None
    ) -> np.ndarray:
        return softmax(self.classify(self.embed(x_expr, x_methyl_blocks), train=False))

    # ------------------------------------------------------------------ training step

    def forward_backward(
        self,
        x_expr: np.ndarray | None,
        x_methyl_blocks: list[np.ndarray] | None,
        labels: np.ndarray | None,
        weights: LossWeights,
        rng: RngState,
        sink,
    ) -> LossReport:
        """One training forward plus backward; hands each parameter's
        gradient to `sink` and returns the batch's losses.

        The losses return their gradients at the logits, mu and logvar; the
        step adds the path through the sampled z. Backward runs the decoder,
        the classifier, the latent heads and the encoder, in that order, and
        each layer hands its parameters' gradients on as it forms them. When
        beta is 0 the classifier runs no backward, so `sink` sees none of its
        parameters. The classifier reads the latent mean, so its gradient
        reaches the encoder through mu only and never through z.
        """
        alpha, beta = weights.alpha, weights.beta
        if beta > 0.0 and labels is None:
            raise ValidationError("classification weight is positive but no labels were given")

        mu, logvar = self.encode(x_expr, x_methyl_blocks, train=True)
        z, epsilon = reparameterize(mu, logvar, rng)
        recon_expr, recon_blocks = self.decode(z, train=True)
        train_classifier = beta > 0.0
        logits = self.classify(mu, train=True) if train_classifier else None

        (recon_methyl, recon_e, kl), (d_blocks, d_expr, d_mu, d_logvar) = vae_loss(
            x_methyl_blocks, recon_blocks, x_expr, recon_expr, mu, logvar, alpha
        )
        cls_loss, d_logits = (
            classification_loss(labels, logits, beta) if train_classifier else (0.0, None)
        )
        report = total_loss(recon_methyl, recon_e, kl, cls_loss, weights)
        if not np.isfinite(report.total):
            raise NumericError(f"non-finite training loss: {asdict(report)}")

        # ---- backward ----
        d_z = self.decoder.backward([d for d in (d_blocks, d_expr) if d is not None], sink)
        d_mu += d_z
        d_logvar += 0.5 * d_z * epsilon * np.exp(0.5 * logvar)
        if train_classifier:
            d_mu += self.classifier.backward(d_logits, sink)

        mu_head, logvar_head = self.heads
        d_fused = mu_head.backward(d_mu, sink) + logvar_head.backward(d_logvar, sink)
        self.encoder.backward(d_fused, sink)
        return report


def build_model(config: ModelConfig, rng: RngState) -> OmiVaeModel:
    """Construct and initialize a model; weights depend only on (config, rng)."""
    return OmiVaeModel(config, rng)
