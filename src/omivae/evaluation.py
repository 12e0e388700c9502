"""Classification metrics, the PCA baseline, the probe classifier, and exports."""

from __future__ import annotations

import colorsys
import html
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .container import write_text_atomic
from .data import checked_ids, read_numeric_body, tsv_header
from .errors import ValidationError
from .numerics import sym_eig

PROBE_L2 = 1e-4
PROBE_MAX_ITER = 5000
PROBE_GRAD_TOL = 1e-6
SCATTER_WIDTH, SCATTER_HEIGHT = 760, 520  # SVG pixels
# characters XML 1.0 allows nowhere in a document, not even as a reference
NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


@dataclass
class EvalReport:
    confusion: np.ndarray
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    per_class_precision: np.ndarray
    per_class_recall: np.ndarray
    per_class_f1: np.ndarray

    def to_text(self, class_names: list[str]) -> str:
        lines = [
            f"samples={int(self.confusion.sum())}",
            f"accuracy={repr(self.accuracy)}",
            f"weighted_precision={repr(self.weighted_precision)}",
            f"weighted_recall={repr(self.weighted_recall)}",
            f"weighted_f1={repr(self.weighted_f1)}",
        ]
        for c in range(self.confusion.shape[0]):
            name = class_names[c]
            lines.append(
                f"class.{name}.precision={repr(float(self.per_class_precision[c]))}"
            )
            lines.append(f"class.{name}.recall={repr(float(self.per_class_recall[c]))}")
            lines.append(f"class.{name}.f1={repr(float(self.per_class_f1[c]))}")
        return "\n".join(lines) + "\n"

    def confusion_tsv(self, class_names: list[str]) -> str:
        lines = ["true\\predicted\t" + "\t".join(class_names)]
        for c, row in enumerate(self.confusion):
            lines.append(class_names[c] + "\t" + "\t".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


def compute_metrics(true_labels, predicted_labels, num_classes: int) -> EvalReport:
    """Confusion matrix, accuracy, and support-weighted precision/recall/F1."""
    t = np.asarray(true_labels)
    p = np.asarray(predicted_labels)
    if t.shape != p.shape or t.ndim != 1:
        raise ValidationError("label vectors must be 1-D and equal length")
    if t.size == 0:
        raise ValidationError("cannot compute metrics on zero samples")
    for name, v in (("true", t), ("predicted", p)):
        if v.min() < 0 or v.max() >= num_classes:
            raise ValidationError(f"{name} label out of range [0, {num_classes})")
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (t, p), 1)
    tp = np.diag(confusion).astype(np.float64)
    support = confusion.sum(axis=1).astype(np.float64)
    predicted = confusion.sum(axis=0).astype(np.float64)
    precision = np.divide(tp, predicted, out=np.zeros(num_classes), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(num_classes), where=support > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros(num_classes), where=pr > 0)
    total = float(t.size)
    return EvalReport(
        confusion=confusion,
        accuracy=float(tp.sum() / total),
        weighted_precision=float((precision * support).sum() / total),
        weighted_recall=float((recall * support).sum() / total),
        weighted_f1=float((f1 * support).sum() / total),
        per_class_precision=precision,
        per_class_recall=recall,
        per_class_f1=f1,
    )


@dataclass
class PcaModel:
    mean: np.ndarray
    axes: np.ndarray  # features x components
    explained_variance: np.ndarray


def _fix_signs(axes: np.ndarray) -> np.ndarray:
    """Flip each axis so its largest-magnitude loading is positive."""
    for c in range(axes.shape[1]):
        i = int(np.argmax(np.abs(axes[:, c])))
        if axes[i, c] < 0:
            axes[:, c] = -axes[:, c]
    return axes


def pca_fit(data: np.ndarray, components: int) -> PcaModel:
    """Principal axes of `data` (samples x features).

    The shape picks the eigenproblem, the smaller of the two: the features x
    features scatter matrix when features <= samples, else the samples x
    samples Gram matrix (the rank trick for features >> samples). Both give
    the same axes up to the fixed sign convention and share their non-zero
    eigenvalues, so one rank cutoff makes a null direction's variance 0 on
    either route. The Gram route maps its eigenvectors to feature space
    with one product and orthonormalizes them with one QR, which also
    completes an orthonormal set where the data has fewer directions than
    `components`.
    """
    n, f = data.shape
    if n < 2:
        raise ValidationError("PCA needs at least two samples")
    if not 1 <= components <= min(n, f):
        raise ValidationError(
            f"components must be in [1, {min(n, f)}] for a {n}x{f} matrix"
        )
    mean = data.mean(axis=0)
    centered = data - mean
    if f <= n:
        eigenvalues, vectors = sym_eig(centered.T @ centered)
        axes = vectors[:, :components].copy()
    else:
        eigenvalues, vectors = sym_eig(centered @ centered.T)
        axes = np.linalg.qr(centered.T @ vectors[:, :components])[0]
    top = eigenvalues[:components]
    null = top <= max(float(np.abs(eigenvalues).max()), 1.0) * 1e-12
    explained = np.where(null, 0.0, top) / (n - 1)
    return PcaModel(mean=mean, axes=_fix_signs(axes), explained_variance=explained)


def pca_transform(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """PCA scores of `data`, centred in one float64 copy."""
    data = np.array(data, dtype=np.float64)
    if data.shape[1] != model.mean.shape[0]:
        raise ValidationError(
            f"PCA transform expects {model.mean.shape[0]} features, got {data.shape[1]}"
        )
    data -= model.mean
    return data @ model.axes


@dataclass
class ProbeClassifier:
    """Multinomial logistic probe fit by monotone full-batch gradient descent."""

    weights: np.ndarray  # (features + 1) x classes, last row is the intercept
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    loss_history: list[float] = field(default_factory=list)

    def _design(self, embedding: np.ndarray) -> np.ndarray:
        scaled = (embedding - self.feature_mean) / self.feature_scale
        return np.hstack([scaled, np.ones((embedding.shape[0], 1))])


def probe_fit(embedding: np.ndarray, labels) -> ProbeClassifier:
    """Fit the probe; deterministic for given data (zero init, fixed step).

    The loss is cross-entropy plus `PROBE_L2` times half the squared weights.
    The step size is 1 over the loss's curvature bound, which makes the
    training loss non-increasing. The fit stops after `PROBE_MAX_ITER` steps
    or when the gradient norm falls below `PROBE_GRAD_TOL`. `labels` must be
    a 1-D vector of non-negative integer class indices, one per row.

    Each step works class-major (classes x samples) in buffers made once:
    one product `w.T @ x.T` gives the logits, the softmax runs along the
    samples, the normaliser adds the classes in order, and the gradient is
    `x.T @` the residuals' transpose. The losses and weights are bit-equal
    to the same steps written out of place.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError(
            f"probe labels must be a 1-D vector of integers, got shape {labels.shape} "
            f"of {labels.dtype}"
        )
    if embedding.shape[0] != labels.shape[0]:
        raise ValidationError("embedding rows must match labels")
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValidationError("probe needs at least two classes in the training data")
    if labels.min() < 0:
        raise ValidationError("probe labels must be non-negative class indices")
    num_classes = int(labels.max()) + 1
    n = embedding.shape[0]

    mean = embedding.mean(axis=0)
    scale = embedding.std(axis=0)
    scale[scale < 1e-12] = 1.0
    probe = ProbeClassifier(
        weights=np.zeros((embedding.shape[1] + 1, num_classes)),
        feature_mean=mean,
        feature_scale=scale,
    )
    x = probe._design(embedding)
    rows = np.arange(n)
    onehot = np.zeros((num_classes, n))
    onehot[labels, rows] = 1.0
    true_class = np.ravel_multi_index((labels, rows), onehot.shape)  # into class-major arrays

    # softmax cross-entropy curvature is at most 0.5 * lmax(X^T X / n) + PROBE_L2
    lmax = float(sym_eig(x.T @ x / n)[0][0])
    step = 1.0 / (0.5 * lmax + PROBE_L2)
    w = probe.weights
    xt = np.ascontiguousarray(x.T)
    # shifted logits, then their exp, the probabilities and last the
    # residuals `probs - onehot`
    s = np.empty((num_classes, n))
    row_max, total, ce_terms, picked = np.empty((4, n))
    grad, decay = np.empty((2, *w.shape))
    flat_grad = grad.reshape(-1)
    for _ in range(PROBE_MAX_ITER):
        np.matmul(w.T, xt, out=s)
        np.maximum.reduce(s, axis=0, out=row_max)
        np.subtract(s, row_max, out=s)
        s.take(true_class, out=picked, mode="clip")
        np.exp(s, out=s)
        np.add.reduce(s, axis=0, out=total)
        np.log(total, out=ce_terms)
        np.subtract(ce_terms, picked, out=ce_terms)
        ce = float(np.add.reduce(ce_terms) / n)
        np.multiply(w, w, out=decay)
        loss = ce + 0.5 * PROBE_L2 * float(np.add.reduce(decay, axis=None))
        probe.loss_history.append(loss)
        np.divide(s, total, out=s)
        np.subtract(s, onehot, out=s)
        np.matmul(xt, s.T, out=grad)
        np.divide(grad, n, out=grad)
        np.multiply(w, PROBE_L2, out=decay)
        np.add(grad, decay, out=grad)
        if math.sqrt(flat_grad @ flat_grad) < PROBE_GRAD_TOL:
            break
        np.multiply(grad, step, out=grad)
        np.subtract(w, grad, out=w)
    return probe


def probe_predict(probe: ProbeClassifier, embedding: np.ndarray) -> np.ndarray:
    if embedding.shape[1] + 1 != probe.weights.shape[0]:
        raise ValidationError(
            f"probe expects {probe.weights.shape[0] - 1} features, got {embedding.shape[1]}"
        )
    return np.argmax(probe._design(embedding) @ probe.weights, axis=1)


def dataset_matrix(dataset) -> np.ndarray:
    """All features of a dataset as one new matrix (methylation blocks, then expression)."""
    blocks, expression = dataset.methylation_blocks, dataset.expression
    parts = [*(blocks or []), *([] if expression is None else [expression])]
    if not parts:
        raise ValidationError("dataset has no features")
    return np.concatenate(parts, axis=1)


def embed_dataset(model, dataset) -> np.ndarray:
    """The model's latent means for every sample, over `dataset.chunks`, so
    memory beyond the embedding itself scales with `INFER_ROWS`, not with
    the cohort."""
    every = np.arange(dataset.num_samples)
    return np.concatenate([model.embed(x_e, x_b) for _, x_e, x_b in dataset.chunks(every)])


def predict_classes(model, dataset, indices) -> np.ndarray:
    """The most probable class of each sample in `indices`, chunk by chunk."""
    return np.concatenate([
        np.argmax(model.predict_proba(x_e, x_b), axis=1) for _, x_e, x_b in dataset.chunks(indices)
    ])


def export_embedding(model, dataset, path: str) -> np.ndarray:
    """Write the model's `embed_dataset` as a `sample_id, dim_1..dim_p[,
    class_name]` TSV; returns the embedding.

    Floats are written with shortest round-trip formatting, so parsing the
    file recovers the in-memory values bit-exactly.
    """
    embedding = embed_dataset(model, dataset)
    if embedding.shape[1] < 2:
        raise ValidationError("embedding export needs at least 2 dimensions")
    labeled = dataset.labels is not None
    header = ["sample_id"] + [f"dim_{d + 1}" for d in range(embedding.shape[1])]
    if labeled:
        header.append("class_name")
    lines = ["\t".join(header)]
    for i, sid in enumerate(dataset.sample_ids):
        cells = [sid] + [repr(float(v)) for v in embedding[i]]
        if labeled:
            idx = int(dataset.labels[i])
            cells.append(dataset.class_vocab[idx] if idx >= 0 else "")
        lines.append("\t".join(cells))
    write_text_atomic(path, "\n".join(lines) + "\n")
    return embedding


def read_embedding_tsv(path: str) -> tuple[list[str], np.ndarray, list[str] | None]:
    """Parse an embedding TSV back into (sample_ids, matrix, class names or None).

    The body is `data.read_numeric_body`'s, in the one numeric-cell grammar,
    and its IDs are `data.checked_ids`. A missing or infinite value is a
    `ValidationError` naming its row and column.
    """
    header, lines = tsv_header(path)
    if header[0] != "sample_id":
        raise ValidationError(f"{path}: not an embedding TSV (header {header[:2]})")
    has_classes = header[-1] == "class_name"
    if len(header) - has_classes < 2:
        raise ValidationError(f"{path}: no embedding dimensions")
    ids, values, classes = read_numeric_body(path, header, lines, trailing=has_classes)
    ids = checked_ids(ids, "sample", "row", path)
    finite = np.isfinite(values)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        what = "missing" if np.isnan(values[row, col]) else "infinite"
        raise ValidationError(f"{path}: {what} embedding value at row {row + 2}, column {col + 2}")
    return ids, values, classes if has_classes else None


def _build_palette(count: int = 34) -> tuple[str, ...]:
    colors = []
    for i in range(count):
        r, g, b = colorsys.hsv_to_rgb(i / count, 0.72, 0.85)
        colors.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
    return tuple(colors)


PALETTE = _build_palette()
UNLABELED_COLOR = "#3366aa"  # not in PALETTE


def render_scatter(embedding_path: str, out_path: str) -> None:
    """Deterministic SVG scatter of the first two embedding dimensions; the
    legend shows a character XML forbids in a class name as U+FFFD. A
    sample without a class name is drawn in `UNLABELED_COLOR`."""
    width, height = SCATTER_WIDTH, SCATTER_HEIGHT
    ids, embedding, classes = read_embedding_tsv(embedding_path)
    if embedding.shape[1] < 2:
        raise ValidationError("scatter plot needs an embedding with at least 2 dimensions")
    x = embedding[:, 0]
    y = embedding[:, 1]

    def scaler(values: np.ndarray, lo_px: float, hi_px: float):
        lo, hi = float(values.min()), float(values.max())
        span = hi - lo if hi > lo else 1.0
        pad = 0.05 * span
        lo -= pad
        span += 2 * pad

        def to_px(v: float) -> float:
            return lo_px + (v - lo) / span * (hi_px - lo_px)

        return to_px

    # an unlabeled sample's class cell is empty: it gets no legend row
    legend_names = sorted(set(classes or ()) - {""})
    legend_width = 150 if legend_names else 0
    plot_right = width - legend_width - 10
    sx = scaler(x, 45.0, plot_right)
    sy = scaler(y, height - 40.0, 15.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="45" y="15" width="{plot_right - 45}" height="{height - 55}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    color_of = {name: PALETTE[i % len(PALETTE)] for i, name in enumerate(legend_names)}
    for i in range(len(ids)):
        color = color_of.get(classes[i], UNLABELED_COLOR) if classes else UNLABELED_COLOR
        parts.append(
            f'<circle cx="{sx(float(x[i])):.2f}" cy="{sy(float(y[i])):.2f}" r="3" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )
    for i, name in enumerate(legend_names):
        ly = 25 + i * 14
        lx = plot_right + 12
        parts.append(
            f'<rect x="{lx}" y="{ly - 8}" width="10" height="10" fill="{color_of[name]}"/>'
        )
        parts.append(
            f'<text x="{lx + 14}" y="{ly}" font-family="sans-serif" font-size="10">'
            f"{html.escape(NOT_XML.sub(chr(0xFFFD), name), quote=False)}</text>"
        )
    parts.append("</svg>")
    write_text_atomic(out_path, "\n".join(parts) + "\n")
