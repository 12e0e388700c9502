"""The multi-omics VAE/classifier network.

Structure: per-chromosome methylation blocks and a two-layer expression
encoder meet in a fused hidden layer that feeds Gaussian latent heads; a
mirror-image decoder reconstructs every input block through sigmoid output
layers; a three-layer classifier reads the latent mean. Backpropagation
through the whole graph is written out by hand in `forward_backward`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError
from .layers import ActivationKind, FcBlock, LinearLayer, Parameter, ParameterArena
from .losses import (
    LossReport,
    LossWeights,
    classification_loss,
    total_loss,
    vae_loss,
)
from .numerics import Matrix, RngState, gaussian_sample


@dataclass
class ModelConfig:
    """Every architectural knob, with defaults usable at full data scale.

    `expr_hidden` is the width of the first expression hidden layer; when
    left as None it is derived as one unit per ~14 input features, floored
    at 8 and capped at 4096, so tiny configurations scale down.
    """

    methyl_block_dims: tuple[int, ...] = ()
    expr_dim: int = 0
    per_block_hidden: int = 256
    modality_dim: int = 1024
    fusion_dim: int = 512
    latent_dim: int = 128
    classifier_hidden: tuple[int, ...] = (128, 64)
    num_classes: int = 34
    expr_hidden: int | None = None
    use_expression: bool = True
    use_methylation: bool = True

    def __post_init__(self):
        self.methyl_block_dims = tuple(int(d) for d in self.methyl_block_dims)
        self.classifier_hidden = tuple(int(d) for d in self.classifier_hidden)
        self.validate()

    def validate(self) -> None:
        if not (self.use_expression or self.use_methylation):
            raise ValidationError("at least one modality must be enabled")
        if self.use_methylation:
            if len(self.methyl_block_dims) < 1:
                raise ValidationError("methylation enabled but no block dimensions given")
            if any(d < 1 for d in self.methyl_block_dims):
                raise ValidationError("methylation block dimensions must be >= 1")
        if self.use_expression and self.expr_dim < 1:
            raise ValidationError("expression enabled but expr_dim < 1")
        for name in ("per_block_hidden", "modality_dim", "fusion_dim", "latent_dim"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if len(self.classifier_hidden) != 2 or any(d < 1 for d in self.classifier_hidden):
            raise ValidationError("classifier_hidden must list two positive hidden widths")
        if self.num_classes < 2:
            raise ValidationError("num_classes must be >= 2")
        if self.expr_hidden is not None and self.expr_hidden < 1:
            raise ValidationError("expr_hidden must be >= 1 when set")

    @property
    def num_blocks(self) -> int:
        return len(self.methyl_block_dims) if self.use_methylation else 0

    @property
    def resolved_expr_hidden(self) -> int:
        if self.expr_hidden is not None:
            return self.expr_hidden
        return max(8, min(4096, math.ceil(self.expr_dim / 14)))

    @property
    def total_input_dim(self) -> int:
        total = sum(self.methyl_block_dims) if self.use_methylation else 0
        if self.use_expression:
            total += self.expr_dim
        return total

    def to_flat_dict(self) -> dict[str, str]:
        return {
            "methyl_block_dims": ",".join(str(d) for d in self.methyl_block_dims),
            "expr_dim": str(self.expr_dim),
            "per_block_hidden": str(self.per_block_hidden),
            "modality_dim": str(self.modality_dim),
            "fusion_dim": str(self.fusion_dim),
            "latent_dim": str(self.latent_dim),
            "classifier_hidden": ",".join(str(d) for d in self.classifier_hidden),
            "num_classes": str(self.num_classes),
            "expr_hidden": "auto" if self.expr_hidden is None else str(self.expr_hidden),
            "use_expression": "true" if self.use_expression else "false",
            "use_methylation": "true" if self.use_methylation else "false",
        }

    @classmethod
    def from_flat_dict(cls, flat: dict[str, str]) -> "ModelConfig":
        def ints(value: str) -> tuple[int, ...]:
            return tuple(int(v) for v in value.split(",") if v != "")

        try:
            return cls(
                methyl_block_dims=ints(flat["methyl_block_dims"]),
                expr_dim=int(flat["expr_dim"]),
                per_block_hidden=int(flat["per_block_hidden"]),
                modality_dim=int(flat["modality_dim"]),
                fusion_dim=int(flat["fusion_dim"]),
                latent_dim=int(flat["latent_dim"]),
                classifier_hidden=ints(flat["classifier_hidden"]),
                num_classes=int(flat["num_classes"]),
                expr_hidden=None if flat["expr_hidden"] == "auto" else int(flat["expr_hidden"]),
                use_expression=flat["use_expression"] == "true",
                use_methylation=flat["use_methylation"] == "true",
            )
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"malformed model configuration: {exc}") from exc


@dataclass
class LatentSample:
    mu: Matrix
    logvar: Matrix
    epsilon: Matrix
    z: Matrix


@dataclass
class ForwardPass:
    latent: LatentSample
    recon_expr: Matrix | None
    recon_methyl_blocks: list[Matrix] = field(default_factory=list)
    class_probs: Matrix | None = None


def reparameterize(
    mu: Matrix,
    logvar: Matrix,
    rng: RngState | None = None,
    train: bool = True,
    epsilon: Matrix | None = None,
) -> LatentSample:
    """z = mu + exp(logvar/2) * eps in train mode; z = mu in infer mode."""
    if mu.shape != logvar.shape:
        raise ValidationError(f"mu/logvar shape mismatch: {mu.shape} vs {logvar.shape}")
    if not train:
        eps = np.zeros_like(mu)
        return LatentSample(mu=mu, logvar=logvar, epsilon=eps, z=mu.copy())
    if epsilon is None:
        if rng is None:
            raise ValidationError("train-mode reparameterization needs an rng or a fixed epsilon")
        epsilon = gaussian_sample(rng, mu.shape[0], mu.shape[1])
    elif epsilon.shape != mu.shape:
        raise ValidationError("epsilon shape must match mu")
    z = mu + np.exp(0.5 * logvar) * epsilon
    return LatentSample(mu=mu, logvar=logvar, epsilon=epsilon, z=z)


class OmiVaeModel:
    """Encoder, mirror decoder, and latent-mean classifier as one unit."""

    def __init__(self, config: ModelConfig, rng: RngState):
        config.validate()
        self.config = config
        cfg = config
        n_mod = int(cfg.use_methylation) + int(cfg.use_expression)
        relu = ActivationKind.RELU

        self.methyl_block_encoders: list[FcBlock] = []
        self.methyl_merge: FcBlock | None = None
        self.expr_encoder_1: FcBlock | None = None
        self.expr_encoder_2: FcBlock | None = None
        if cfg.use_methylation:
            for j, dim in enumerate(cfg.methyl_block_dims):
                self.methyl_block_encoders.append(
                    FcBlock(dim, cfg.per_block_hidden, relu, rng, name=f"encoder.methyl.block{j:02d}")
                )
            self.methyl_merge = FcBlock(
                cfg.num_blocks * cfg.per_block_hidden,
                cfg.modality_dim,
                relu,
                rng,
                name="encoder.methyl.merge",
            )
        if cfg.use_expression:
            self.expr_encoder_1 = FcBlock(
                cfg.expr_dim, cfg.resolved_expr_hidden, relu, rng, name="encoder.expr.hidden1"
            )
            self.expr_encoder_2 = FcBlock(
                cfg.resolved_expr_hidden, cfg.modality_dim, relu, rng, name="encoder.expr.hidden2"
            )
        self.fusion = FcBlock(
            n_mod * cfg.modality_dim, cfg.fusion_dim, relu, rng, name="encoder.fusion"
        )
        # distribution heads stay unconstrained: plain linear, no norm
        self.mu_head = LinearLayer(cfg.fusion_dim, cfg.latent_dim, rng, name="encoder.mu_head")
        self.logvar_head = LinearLayer(
            cfg.fusion_dim, cfg.latent_dim, rng, name="encoder.logvar_head"
        )

        self.decoder_from_latent = FcBlock(
            cfg.latent_dim, cfg.fusion_dim, relu, rng, name="decoder.from_latent"
        )
        self.decoder_to_modalities = FcBlock(
            cfg.fusion_dim, n_mod * cfg.modality_dim, relu, rng, name="decoder.to_modalities"
        )
        self.decoder_methyl_expand: FcBlock | None = None
        self.decoder_methyl_out: list[FcBlock] = []
        self.decoder_expr_expand: FcBlock | None = None
        self.decoder_expr_out: FcBlock | None = None
        if cfg.use_methylation:
            self.decoder_methyl_expand = FcBlock(
                cfg.modality_dim,
                cfg.num_blocks * cfg.per_block_hidden,
                relu,
                rng,
                name="decoder.methyl.expand",
            )
            for j, dim in enumerate(cfg.methyl_block_dims):
                self.decoder_methyl_out.append(
                    FcBlock(
                        cfg.per_block_hidden,
                        dim,
                        ActivationKind.SIGMOID,
                        rng,
                        batch_norm=False,
                        name=f"decoder.methyl.out{j:02d}",
                    )
                )
        if cfg.use_expression:
            self.decoder_expr_expand = FcBlock(
                cfg.modality_dim, cfg.resolved_expr_hidden, relu, rng, name="decoder.expr.expand"
            )
            self.decoder_expr_out = FcBlock(
                cfg.resolved_expr_hidden,
                cfg.expr_dim,
                ActivationKind.SIGMOID,
                rng,
                batch_norm=False,
                name="decoder.expr.out",
            )

        h1, h2 = cfg.classifier_hidden
        self.classifier_hidden1 = FcBlock(cfg.latent_dim, h1, relu, rng, name="classifier.hidden1")
        self.classifier_hidden2 = FcBlock(h1, h2, relu, rng, name="classifier.hidden2")
        self.classifier_out = FcBlock(
            h2, cfg.num_classes, ActivationKind.SOFTMAX, rng, batch_norm=False, name="classifier.out"
        )

        self._components: list = []
        self._components.extend(self.methyl_block_encoders)
        if self.methyl_merge is not None:
            self._components.append(self.methyl_merge)
        if self.expr_encoder_1 is not None:
            self._components.extend([self.expr_encoder_1, self.expr_encoder_2])
        self._components.extend([self.fusion, self.mu_head, self.logvar_head])
        self._components.extend([self.decoder_from_latent, self.decoder_to_modalities])
        if self.decoder_methyl_expand is not None:
            self._components.append(self.decoder_methyl_expand)
            self._components.extend(self.decoder_methyl_out)
        if self.decoder_expr_expand is not None:
            self._components.extend([self.decoder_expr_expand, self.decoder_expr_out])
        self._components.extend(
            [self.classifier_hidden1, self.classifier_hidden2, self.classifier_out]
        )
        self.arena = ParameterArena(self._components)

    # ------------------------------------------------------------------ plumbing

    def parameters(self) -> list[Parameter]:
        return list(self.arena.params)

    def zero_grad(self) -> None:
        self.arena.grads.fill(0.0)

    def state_tensors(self) -> list[tuple[str, np.ndarray]]:
        """Parameters plus batch-norm running statistics, in a fixed order."""
        tensors: list[tuple[str, np.ndarray]] = []
        for c in self._components:
            tensors.extend((p.name, p.value) for p in c.parameters())
            tensors.extend(c.state())
        return tensors

    def param_count(self) -> int:
        return self.arena.values.size

    def _validate_inputs(self, x_expr, x_methyl_blocks) -> int:
        rows = None
        if self.config.use_expression:
            if x_expr is None:
                raise ValidationError("expression modality is enabled but no expression input given")
            rows = x_expr.shape[0]
        elif x_expr is not None:
            raise ValidationError("expression input given but the modality is disabled")
        if self.config.use_methylation:
            if x_methyl_blocks is None:
                raise ValidationError(
                    "methylation modality is enabled but no methylation input given"
                )
            if len(x_methyl_blocks) != self.config.num_blocks:
                raise ValidationError(
                    f"expected {self.config.num_blocks} methylation blocks, got {len(x_methyl_blocks)}"
                )
            for j, b in enumerate(x_methyl_blocks):
                if rows is not None and b.shape[0] != rows:
                    raise ValidationError("modalities disagree on batch size")
                rows = b.shape[0]
        elif x_methyl_blocks:
            raise ValidationError("methylation input given but the modality is disabled")
        return rows

    # ------------------------------------------------------------------ forward

    def encode(
        self,
        x_expr: Matrix | None,
        x_methyl_blocks: list[Matrix] | None,
        train: bool = False,
    ) -> tuple[Matrix, Matrix]:
        self._validate_inputs(x_expr, x_methyl_blocks)
        vectors = []
        if self.config.use_methylation:
            encoded = [
                blk.forward(x, train) for blk, x in zip(self.methyl_block_encoders, x_methyl_blocks)
            ]
            vectors.append(self.methyl_merge.forward(np.concatenate(encoded, axis=1), train))
        if self.config.use_expression:
            h = self.expr_encoder_1.forward(x_expr, train)
            vectors.append(self.expr_encoder_2.forward(h, train))
        fused = self.fusion.forward(np.concatenate(vectors, axis=1), train)
        return self.mu_head.forward(fused, train), self.logvar_head.forward(fused, train)

    def decode(self, z: Matrix, train: bool = False) -> tuple[Matrix | None, list[Matrix]]:
        if z.shape[1] != self.config.latent_dim:
            raise ValidationError(
                f"latent width {z.shape[1]} != configured latent_dim {self.config.latent_dim}"
            )
        d = self.decoder_from_latent.forward(z, train)
        d = self.decoder_to_modalities.forward(d, train)
        offset = 0
        recon_blocks: list[Matrix] = []
        recon_expr = None
        if self.config.use_methylation:
            part = d[:, offset : offset + self.config.modality_dim]
            offset += self.config.modality_dim
            expanded = self.decoder_methyl_expand.forward(part, train)
            col = 0
            for out_block in self.decoder_methyl_out:
                chunk = expanded[:, col : col + self.config.per_block_hidden]
                col += self.config.per_block_hidden
                recon_blocks.append(out_block.forward(chunk, train))
        if self.config.use_expression:
            part = d[:, offset : offset + self.config.modality_dim]
            h = self.decoder_expr_expand.forward(part, train)
            recon_expr = self.decoder_expr_out.forward(h, train)
        return recon_expr, recon_blocks

    def classify(self, mu: Matrix, train: bool = False) -> Matrix:
        if mu.shape[1] != self.config.latent_dim:
            raise ValidationError(
                f"classifier input width {mu.shape[1]} != latent_dim {self.config.latent_dim}"
            )
        h = self.classifier_hidden1.forward(mu, train)
        h = self.classifier_hidden2.forward(h, train)
        return self.classifier_out.forward(h, train)

    def forward(
        self,
        x_expr: Matrix | None,
        x_methyl_blocks: list[Matrix] | None,
        train: bool = False,
        rng: RngState | None = None,
        epsilon: Matrix | None = None,
    ) -> ForwardPass:
        mu, logvar = self.encode(x_expr, x_methyl_blocks, train)
        latent = reparameterize(mu, logvar, rng=rng, train=train, epsilon=epsilon)
        recon_expr, recon_blocks = self.decode(latent.z, train)
        probs = self.classify(mu, train)
        return ForwardPass(
            latent=latent,
            recon_expr=recon_expr,
            recon_methyl_blocks=recon_blocks,
            class_probs=probs,
        )

    def embed(self, x_expr: Matrix | None, x_methyl_blocks: list[Matrix] | None) -> Matrix:
        """Latent means in infer mode; the deterministic sample embedding."""
        mu, _ = self.encode(x_expr, x_methyl_blocks, train=False)
        return mu

    def predict_proba(self, x_expr: Matrix | None, x_methyl_blocks: list[Matrix] | None) -> Matrix:
        return self.classify(self.embed(x_expr, x_methyl_blocks), train=False)

    # ------------------------------------------------------------------ training step

    def forward_backward(
        self,
        x_expr: Matrix | None,
        x_methyl_blocks: list[Matrix] | None,
        labels: np.ndarray | None,
        weights: LossWeights,
        rng: RngState | None = None,
        epsilon: Matrix | None = None,
    ) -> tuple[ForwardPass, LossReport]:
        """One training forward plus hand-derived backward; grads accumulate.

        The classifier reads the latent mean, so its gradient reaches the
        encoder through mu only and never through the sampled z.
        """
        cfg = self.config
        batch = self._validate_inputs(x_expr, x_methyl_blocks)
        alpha, beta = weights.alpha, weights.beta
        if beta > 0.0 and labels is None:
            raise ValidationError("classification weight is positive but no labels were given")

        mu, logvar = self.encode(x_expr, x_methyl_blocks, train=True)
        latent = reparameterize(mu, logvar, rng=rng, train=True, epsilon=epsilon)
        train_decoder = alpha > 0.0
        recon_expr, recon_blocks = self.decode(latent.z, train=train_decoder)
        train_classifier = beta > 0.0
        probs = self.classify(mu, train=train_classifier)

        recon_methyl, recon_e, kl = vae_loss(
            list(x_methyl_blocks) if cfg.use_methylation else [],
            recon_blocks,
            x_expr if cfg.use_expression else None,
            recon_expr,
            mu,
            logvar,
        )
        cls_loss = classification_loss(labels, probs) if beta > 0.0 else 0.0
        report = total_loss(recon_methyl, recon_e, kl, cls_loss, weights)
        if not np.isfinite(report.total):
            raise NumericError(f"non-finite training loss: {report.as_dict()}")

        # ---- backward ----
        if train_decoder:
            mod_grads = []
            if cfg.use_methylation:
                m = cfg.num_blocks
                chunks = []
                for j, out_block in enumerate(self.decoder_methyl_out):
                    scale = alpha / (m * batch * cfg.methyl_block_dims[j])
                    chunks.append(
                        out_block.backward_from_preact(scale * (recon_blocks[j] - x_methyl_blocks[j]))
                    )
                d_expand = self.decoder_methyl_expand.backward(np.concatenate(chunks, axis=1))
                mod_grads.append(d_expand)
            if cfg.use_expression:
                scale = alpha / (batch * cfg.expr_dim)
                d_h = self.decoder_expr_out.backward_from_preact(scale * (recon_expr - x_expr))
                mod_grads.append(self.decoder_expr_expand.backward(d_h))
            d_mod = self.decoder_to_modalities.backward(np.concatenate(mod_grads, axis=1))
            d_z = self.decoder_from_latent.backward(d_mod)
        else:
            d_z = np.zeros_like(latent.z)

        d_mu = d_z.copy()
        d_logvar = 0.5 * d_z * latent.epsilon * np.exp(0.5 * logvar)
        if alpha > 0.0:
            d_mu += alpha * mu / batch
            d_logvar += alpha * (np.exp(logvar) - 1.0) / (2.0 * batch)

        if train_classifier:
            onehot = np.zeros_like(probs)
            onehot[np.arange(batch), np.asarray(labels)] = 1.0
            d = self.classifier_out.backward_from_preact(beta * (probs - onehot) / batch)
            d = self.classifier_hidden2.backward(d)
            d_mu += self.classifier_hidden1.backward(d)

        d_fused = self.mu_head.backward(d_mu) + self.logvar_head.backward(d_logvar)
        d_concat = self.fusion.backward(d_fused)
        offset = 0
        if cfg.use_methylation:
            d_vec = d_concat[:, offset : offset + cfg.modality_dim]
            offset += cfg.modality_dim
            d_merge_in = self.methyl_merge.backward(d_vec)
            col = 0
            for blk in self.methyl_block_encoders:
                blk.backward(d_merge_in[:, col : col + cfg.per_block_hidden])
                col += cfg.per_block_hidden
        if cfg.use_expression:
            d_vec = d_concat[:, offset : offset + cfg.modality_dim]
            d_h = self.expr_encoder_2.backward(d_vec)
            self.expr_encoder_1.backward(d_h)

        fp = ForwardPass(
            latent=latent,
            recon_expr=recon_expr,
            recon_methyl_blocks=recon_blocks,
            class_probs=probs,
        )
        return fp, report


def build_model(config: ModelConfig, rng: RngState) -> OmiVaeModel:
    """Construct and initialize a model; weights depend only on (config, rng)."""
    return OmiVaeModel(config, rng)
