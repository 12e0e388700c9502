"""Adam, two-phase training with early stopping, and checkpoints.

`train.phase1_epochs=0` or `train.phase2_epochs=0` skips a training phase.
A model keeps every parameter and batch-norm running statistic in one
float64 `ParameterArena`, and everything here works on its flat vectors.
Training holds four arrays the size of `arena.values`: the arena itself,
Adam's `m` and `v`, and the snapshot `saved` of `arena.state`; besides
them, one piece of a gradient at a time: one row slab of a weight matrix
(`layers.GRAD_SLAB` elements where the row width allows) or a whole 1-D
tensor. No array holds a whole model's gradient, nor a whole tensor's:
`forward_backward` hands each piece of a gradient to Adam, the step's
sink, as backward forms it, and Adam steps that piece at once, while it is
still in cache, and keeps none of it. Adam takes Kingma & Ba's
efficient form, so its `m` and `v` hold unscaled moments: `(1 - beta1) * m`
and `(1 - beta2) * v` are the textbook ones. Code that changes a tensor
writes it in place and never rebinds `.value` or a running statistic. A
checkpoint's model is declared, allocated and loaded: `Checkpoint.build`
hands the saved tensors to the new model, whose arena checks them against
its declarations before it allocates and then copies them in, with no
initialization drawn.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from .container import fields_from_text, fields_to_text, read_container, write_container
from .errors import NumericError, ValidationError
from .layers import ParameterArena, softmax
from .losses import LossReport, LossWeights, classification_loss, total_loss, vae_loss
from .model import ModelConfig, OmiVaeModel
from .numerics import RngState

CHECKPOINT_MAGIC = b"OMVAE1"
CHECKPOINT_VERSION = 1
ADAM_CHUNK = 32_768  # elements per array per pass: 256 KB, so each pass runs in cache
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam in Kingma & Ba's efficient form (arXiv 1412.6980, §2): the bias
    corrections and `(1 - b)` factors fold into a step size and an eps per
    step, which is the textbook update in exact arithmetic.

    The decay rates and eps are `ADAM_BETA1`, `ADAM_BETA2` and `ADAM_EPS`;
    only the learning rate is a parameter. One `m` and one `v` cover the
    arena's values, unscaled, so `(1 - b1) * m` and `(1 - b2) * v` are the
    textbook moments.

    Adam is the gradient sink of a training step (see `layers`).
    `begin_step()` advances `t` and fixes the step's size and eps. Backward
    then hands each slab of a gradient (a weight matrix's row slab, or a
    whole 1-D tensor) to `take`, as the array it formed. `take` finds the
    slab's offset in `values` from its address, checks the gradient, and
    updates the slab's weights and moments in place, over chunks of
    `ADAM_CHUNK` elements with two preallocated chunk buffers for the
    temporaries; it keeps no reference to the gradient. A non-finite
    gradient raises `NumericError` naming its tensor before anything of
    that slab changes; the slabs taken earlier in the step, that tensor's
    own earlier rows among them, have stepped already.
    """

    def __init__(self, arena: ParameterArena, lr: float):
        self.arena = arena
        self.lr = lr
        self.t = 0
        self.m = np.zeros(arena.values.size)
        self.v = np.zeros(arena.values.size)
        self._a = np.empty(ADAM_CHUNK)
        self._b = np.empty(ADAM_CHUNK)
        self._size = self._eps = None

    def reset(self) -> None:
        """Zero the moments and the step count, as in a fresh `Adam`."""
        self.t = 0
        self.m.fill(0.0)
        self.v.fill(0.0)

    def begin_step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        r = np.sqrt((1.0 - b2**self.t) / (1.0 - b2))
        self._size, self._eps = self.lr * (1.0 - b1) * r / (1.0 - b1**self.t), ADAM_EPS * r

    def take(self, value: np.ndarray, grad: np.ndarray) -> None:
        """Step `value`, a slab of a parameter, by its gradient `grad`."""
        offset = self.arena.offset(value)
        grad = grad.reshape(-1)
        # a finite sum of squares means every entry is finite; only a
        # non-finite one (or an overflow) needs the exact check
        if not np.isfinite(grad @ grad) and not np.isfinite(grad).all():
            name = self.arena.owner(offset).name
            raise NumericError(f"non-finite gradient in {name}; step aborted")
        b1, b2, size, eps = ADAM_BETA1, ADAM_BETA2, self._size, self._eps
        span = slice(offset, offset + grad.size)
        values, ms, vs = self.arena.values[span], self.m[span], self.v[span]
        for start in range(0, grad.size, ADAM_CHUNK):
            chunk = slice(start, start + ADAM_CHUNK)
            g, m, v, w = grad[chunk], ms[chunk], vs[chunk], values[chunk]
            a, b = self._a[: g.size], self._b[: g.size]
            # m = b1*m + g and v = b2*v + g**2
            np.multiply(m, b1, out=m)
            np.add(m, g, out=m)
            np.multiply(v, b2, out=v)
            np.square(g, out=a)
            np.add(v, a, out=v)
            # w -= size*m / (sqrt(v) + eps')
            np.sqrt(v, out=b)
            np.add(b, eps, out=b)
            np.multiply(m, size, out=a)
            np.divide(a, b, out=a)
            np.subtract(w, a, out=w)


@dataclass(frozen=True)
class TrainConfig:
    """Two-phase training settings. Each epoch visits the training samples
    in a fresh random order, and a phase stops early after `patience`
    epochs without any improvement of its validation metric. `val_fraction`
    is the share of a `train` run's samples held out for validation, as one
    stratified fold of `round(1 / val_fraction)`; crossval validates on one
    of its own folds instead."""

    batch_size: int = 32
    learning_rate: float = 1e-3
    phase1_epochs: int = 200
    phase2_epochs: int = 300
    patience: int = 10
    alpha: float = 1.0
    phase2_beta: float = 1.0
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValidationError("batch_size must be >= 2 (batch normalization)")
        if self.patience < 1:
            raise ValidationError("patience must be >= 1")
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise ValidationError("epoch caps must be >= 0")
        if self.learning_rate <= 0.0:
            raise ValidationError("learning_rate must be positive")
        if self.alpha <= 0.0:
            raise ValidationError("alpha must be positive: every phase trains the VAE loss")
        if self.phase2_beta <= 0.0:
            raise ValidationError("phase2_beta must be positive: phase2_epochs=0 skips phase 2")
        if not 0.0 < self.val_fraction < 0.5:
            raise ValidationError("val_fraction must be in (0, 0.5)")


@dataclass
class EpochRecord:
    phase: int
    epoch: int
    train: LossReport
    val: LossReport
    val_accuracy: float


@dataclass
class TrainingHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: dict[int, int] = field(default_factory=dict)
    best_metric: dict[int, float] = field(default_factory=dict)
    # why training stopped on a non-finite value, where it did; "" if it did not
    diverged: str = ""

    TSV_COLUMNS = (
        "phase",
        "epoch",
        "train_recon_methyl",
        "train_recon_expr",
        "train_kl",
        "train_vae",
        "train_class",
        "train_total",
        "val_recon_methyl",
        "val_recon_expr",
        "val_kl",
        "val_vae",
        "val_class",
        "val_total",
        "val_accuracy",
    )

    def to_tsv(self) -> str:
        lines = ["\t".join(self.TSV_COLUMNS)]
        for r in self.records:
            cells = [str(r.phase), str(r.epoch)]
            for rep in (r.train, r.val):
                cells += [repr(float(x)) for x in astuple(rep)]
            cells.append(repr(float(r.val_accuracy)))
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"


def evaluate_losses(
    model: OmiVaeModel,
    dataset,
    indices: np.ndarray,
    weights: LossWeights,
) -> tuple[LossReport, float]:
    """Infer-mode losses and accuracy over `indices`.

    The rows run in `dataset.chunks`, so memory scales with `INFER_ROWS`,
    not with the split. Each chunk runs the way `embed` and `predict_proba`
    do: `encode`, then `decode` and `classify` of the latent mean, so the
    reconstruction is scored at z = mu. The classification loss and the
    accuracy count only samples with a label: each chunk's classification
    loss is weighted by its labeled count. A prediction is the argmax of
    the softmax, as in `predict_proba`, so logits that round to one
    probability tie the same way. The accuracy is NaN when no sample has a
    label.
    """
    indices = np.asarray(indices)
    if indices.size == 0:
        raise ValidationError("evaluation split is empty")
    sums = np.zeros(3)  # recon_methyl, recon_expr, kl
    cls_sum = 0.0
    correct = 0
    labeled = 0
    for part, x_expr, x_blocks in dataset.chunks(indices):
        mu, logvar = model.encode(x_expr, x_blocks)
        recon_expr, recon_blocks = model.decode(mu)
        (rm, re, kl), _ = vae_loss(x_blocks, recon_blocks, x_expr, recon_expr, mu, logvar)
        sums += np.array([rm, re, kl]) * part.size
        if dataset.labels is not None:
            lab = dataset.labels[part]
            mask = lab >= 0
            part_labeled = int(mask.sum())
            if part_labeled:
                logits = model.classify(mu)[mask]
                cls_sum += classification_loss(lab[mask], logits)[0] * part_labeled
                predicted = np.argmax(softmax(logits), axis=1)
                correct += int((predicted == lab[mask]).sum())
                labeled += part_labeled
    rm, re, kl = sums / indices.size
    cls = cls_sum / labeled if labeled else 0.0
    report = total_loss(rm, re, kl, cls, weights)
    accuracy = correct / labeled if labeled else float("nan")
    return report, accuracy


def train_two_phase(
    model: OmiVaeModel,
    dataset,
    train_idx,
    val_idx,
    config: TrainConfig,
    rng: RngState | None = None,
) -> TrainingHistory:
    """Unsupervised phase (no label use) then supervised fine-tuning.

    Phase 1 trains encoder and decoder on every training sample with the
    classification weight at zero and early-stops on validation total loss.
    Phase 2 keeps the learned parameters, turns the classifier on over the
    labeled samples, and early-stops on validation accuracy. A phase whose
    epoch cap is 0 does not run, so `phase1_epochs=0` or `phase2_epochs=0`
    skips it. Each phase draws from its own stream derived from the master
    seed, so a run reuses no randomness across phases and a phase-2-only
    resume reproduces the continuous run exactly.

    Both phases share one snapshot buffer `saved` and one `Adam`, whose
    moments are zeroed for phase 2; both are freed when this returns.
    Phase 1 starts on zeroed moments and runs no classifier backward, so
    the classifier stays as it is, as Adam would leave it on zero
    gradients. `saved` holds a phase's entry state until an epoch improves
    and the best state so far after that; the phase ends on that state,
    and `history` records its epoch and metric once an epoch has improved.
    On divergence that state is restored, undoing the tensors a failing
    step had already stepped, training stops, and `history.diverged` names
    the phase, epoch and step and the `NumericError` that stopped it.
    """
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_idx = np.asarray(val_idx, dtype=np.int64)
    if train_idx.size == 0 or val_idx.size == 0:
        raise ValidationError("training and validation splits must be non-empty")
    rng = rng if rng is not None else RngState(config.seed)
    labels = dataset.labels
    history = TrainingHistory()
    adam = Adam(model.arena, lr=config.learning_rate)
    saved = np.empty_like(model.arena.state)
    phases = [(1, config.phase1_epochs, 0.0), (2, config.phase2_epochs, config.phase2_beta)]
    for phase, epochs_max, beta in phases:
        if epochs_max == 0:
            continue
        rows = train_idx
        if phase == 2:
            if labels is None:
                raise ValidationError("supervised phase requires labels")
            rows = train_idx[labels[train_idx] >= 0]
            if rows.size == 0:
                raise ValidationError("supervised phase has no labeled training samples")
            adam.reset()
        weights = LossWeights(alpha=config.alpha, beta=beta)
        stream = rng.derive(phase)
        np.copyto(saved, model.arena.state)
        best_metric: float | None = None
        best_epoch = wait = step = 0
        try:
            for epoch in range(1, epochs_max + 1):
                order = stream.permutation(rows.size)
                sums = np.zeros(6)
                seen = 0
                for start in range(0, rows.size, config.batch_size):
                    chosen = rows[order[start : start + config.batch_size]]
                    if chosen.size < 2:
                        continue  # batch norm cannot run on a single sample
                    x_expr, x_blocks = dataset.batch(chosen)
                    batch_labels = labels[chosen] if phase == 2 else None
                    step += 1
                    adam.begin_step()
                    report = model.forward_backward(
                        x_expr, x_blocks, batch_labels, weights, stream, adam
                    )
                    sums += np.array(astuple(report)) * chosen.size
                    seen += chosen.size
                if seen == 0:
                    raise ValidationError("training split produced no usable batches")
                val_report, val_accuracy = evaluate_losses(model, dataset, val_idx, weights)
                history.records.append(
                    EpochRecord(phase, epoch, LossReport(*(sums / seen)), val_report, val_accuracy)
                )
                if phase == 1:
                    metric = val_report.total
                    improved = best_metric is None or metric < best_metric
                else:
                    metric = val_accuracy
                    if np.isnan(metric):
                        raise ValidationError(
                            "supervised phase requires labeled validation samples"
                        )
                    improved = best_metric is None or metric > best_metric
                if improved:
                    best_metric, best_epoch, wait = metric, epoch, 0
                    np.copyto(saved, model.arena.state)
                else:
                    wait += 1
                    if wait >= config.patience:
                        break
        except NumericError as exc:
            history.diverged = f"phase {phase}, epoch {epoch}, step {step}: {exc}"
        if best_epoch != epoch:  # else the state is still the one saved
            np.copyto(model.arena.state, saved)
        if best_metric is not None:  # None when the phase diverged in its first epoch
            history.best_epoch[phase] = best_epoch
            history.best_metric[phase] = best_metric
        if history.diverged:
            break
    return history


@dataclass
class Checkpoint:
    config: ModelConfig
    tensors: list[tuple[str, np.ndarray]]
    metadata: dict[str, str]

    def build(self) -> OmiVaeModel:
        """Reconstruct the model this checkpoint was saved from, drawing no
        initialization. The tensors must be the model's `state_tensors()`
        names and shapes, in order; the arena checks them before it
        allocates anything, and the first mismatch is a `FormatError`.
        """
        return OmiVaeModel(self.config, self.tensors)


def save_checkpoint(path: str, model: OmiVaeModel, metadata: dict[str, str] | None = None) -> None:
    """Write a checkpoint: the model config, the model's state tensors in
    `model.state_tensors()` order and the caller's metadata, nothing else.

    No optimizer state is saved: a phase resumed from a checkpoint starts
    Adam on zero moments at step 0, as phase 2 of a continuous run does.
    """
    write_container(
        path,
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        fields_to_text(model.config),
        model.state_tensors(),
        metadata or {},
    )


def load_checkpoint(path: str) -> Checkpoint:
    """Read what `save_checkpoint` wrote; `Checkpoint.build` makes the model."""
    config_flat, tensors, metadata = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    return Checkpoint(fields_from_text(ModelConfig, config_flat), tensors, metadata)
