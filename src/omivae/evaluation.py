"""Classification metrics, the PCA baseline, the probe classifier, and exports."""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .numerics import Matrix, sym_eig

PROBE_L2 = 1e-4
PROBE_MAX_ITER = 5000
PROBE_GRAD_TOL = 1e-6
SCATTER_WIDTH, SCATTER_HEIGHT = 760, 520  # SVG pixels


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

    def to_text(self, class_names: list[str] | None = None) -> str:
        lines = [
            f"samples={int(self.confusion.sum())}",
            f"accuracy={repr(self.accuracy)}",
            f"weighted_precision={repr(self.weighted_precision)}",
            f"weighted_recall={repr(self.weighted_recall)}",
            f"weighted_f1={repr(self.weighted_f1)}",
        ]
        for c in range(self.confusion.shape[0]):
            name = class_names[c] if class_names else str(c)
            lines.append(
                f"class.{name}.precision={repr(float(self.per_class_precision[c]))}"
            )
            lines.append(f"class.{name}.recall={repr(float(self.per_class_recall[c]))}")
            lines.append(f"class.{name}.f1={repr(float(self.per_class_f1[c]))}")
        return "\n".join(lines) + "\n"

    def confusion_tsv(self, class_names: list[str] | None = None) -> str:
        k = self.confusion.shape[0]
        names = class_names if class_names else [str(c) for c in range(k)]
        lines = ["true\\predicted\t" + "\t".join(names)]
        for c in range(k):
            lines.append(names[c] + "\t" + "\t".join(str(int(v)) for v in self.confusion[c]))
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


def pca_fit(data: Matrix, components: int, method: str = "auto") -> PcaModel:
    """Principal axes of `data` (samples x features).

    `method` picks the eigenproblem: `covariance` solves the features x
    features covariance directly; `gram` solves the samples x samples Gram
    matrix (the rank trick for features >> samples); `auto` chooses by shape.
    Both give identical axes up to the fixed sign convention.
    """
    n, f = data.shape
    if n < 2:
        raise ValidationError("PCA needs at least two samples")
    if not 1 <= components <= min(n, f):
        raise ValidationError(
            f"components must be in [1, {min(n, f)}] for a {n}x{f} matrix"
        )
    if method not in ("auto", "covariance", "gram"):
        raise ValidationError(f"unknown PCA method {method!r}")
    if method == "auto":
        method = "covariance" if f <= n else "gram"
    mean = data.mean(axis=0)
    centered = data - mean
    if method == "covariance":
        cov = centered.T @ centered / (n - 1)
        eigenvalues, vectors = sym_eig(cov)
        axes = vectors[:, :components].copy()
        explained = np.maximum(eigenvalues[:components], 0.0)
    else:
        gram = centered @ centered.T
        eigenvalues, vectors = sym_eig(gram)
        scale = float(np.abs(eigenvalues).max()) if eigenvalues.size else 1.0
        tol = max(scale, 1.0) * 1e-12
        axes = np.zeros((f, components))
        explained = np.zeros(components)
        for c in range(components):
            g = eigenvalues[c]
            if g > tol:
                axis = centered.T @ vectors[:, c] / np.sqrt(g)
                axes[:, c] = axis / np.linalg.norm(axis)
                explained[c] = g / (n - 1)
            else:
                # rank-deficient direction: deterministic orthonormal filler
                axis = np.zeros(f)
                for basis in range(f):
                    candidate = np.zeros(f)
                    candidate[basis] = 1.0
                    candidate -= axes[:, :c] @ (axes[:, :c].T @ candidate)
                    norm = np.linalg.norm(candidate)
                    if norm > 1e-6:
                        axis = candidate / norm
                        break
                axes[:, c] = axis
    return PcaModel(mean=mean, axes=_fix_signs(axes), explained_variance=explained)


def pca_transform(model: PcaModel, data: Matrix) -> Matrix:
    if data.shape[1] != model.mean.shape[0]:
        raise ValidationError(
            f"PCA transform expects {model.mean.shape[0]} features, got {data.shape[1]}"
        )
    return (data - model.mean) @ model.axes


@dataclass
class ProbeClassifier:
    """Multinomial logistic probe fit by monotone full-batch gradient descent."""

    weights: np.ndarray  # (features + 1) x classes, last row is the intercept
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    loss_history: list[float] = field(default_factory=list)

    def _design(self, embedding: Matrix) -> Matrix:
        scaled = (embedding - self.feature_mean) / self.feature_scale
        return np.hstack([scaled, np.ones((embedding.shape[0], 1))])


def probe_fit(embedding: Matrix, labels) -> ProbeClassifier:
    """Fit the probe; deterministic for given data (zero init, fixed step).

    The loss is cross-entropy plus `PROBE_L2` times half the squared weights.
    The step size is 1 over the loss's curvature bound, which makes the
    training loss non-increasing. The fit stops after `PROBE_MAX_ITER` steps
    or when the gradient norm falls below `PROBE_GRAD_TOL`.
    """
    labels = np.asarray(labels)
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
    onehot = np.zeros((n, num_classes))
    onehot[rows, labels] = 1.0

    # softmax cross-entropy curvature is at most 0.5 * lmax(X^T X / n) + PROBE_L2
    lmax = float(sym_eig(x.T @ x / n)[0][0])
    step = 1.0 / (0.5 * lmax + PROBE_L2)
    w = probe.weights
    for _ in range(PROBE_MAX_ITER):
        logits = x @ w
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        total = e.sum(axis=1, keepdims=True)
        probs = e / total
        ce = float((np.log(total[:, 0]) - shifted[rows, labels]).mean())
        loss = ce + 0.5 * PROBE_L2 * float((w * w).sum())
        probe.loss_history.append(loss)
        grad = x.T @ (probs - onehot) / n + PROBE_L2 * w
        if float(np.linalg.norm(grad)) < PROBE_GRAD_TOL:
            break
        w -= step * grad
    return probe


def probe_predict(probe: ProbeClassifier, embedding: Matrix) -> np.ndarray:
    if embedding.shape[1] + 1 != probe.weights.shape[0]:
        raise ValidationError(
            f"probe expects {probe.weights.shape[0] - 1} features, got {embedding.shape[1]}"
        )
    return np.argmax(probe._design(embedding) @ probe.weights, axis=1)


def dataset_matrix(dataset) -> Matrix:
    """All features of a dataset as one matrix (methylation blocks, then expression)."""
    parts = []
    if dataset.methylation_blocks is not None:
        parts.extend(dataset.methylation_blocks)
    if dataset.expression is not None:
        parts.append(dataset.expression)
    if not parts:
        raise ValidationError("dataset has no features")
    return np.concatenate(parts, axis=1)


def embed_dataset(source, dataset, chunk: int = 1024) -> Matrix:
    """Embedding rows for every sample: latent means for a model, scores for PCA."""
    if isinstance(source, PcaModel):
        return pca_transform(source, dataset_matrix(dataset))
    rows = []
    n = dataset.num_samples
    for start in range(0, n, chunk):
        x_expr, x_blocks = dataset.batch(np.arange(start, min(start + chunk, n)))
        rows.append(source.embed(x_expr, x_blocks))
    return np.concatenate(rows, axis=0)


def export_embedding(source, dataset, path: str) -> Matrix:
    """Write `sample_id, dim_1..dim_p[, class_name]` TSV; returns the embedding.

    Floats are written with shortest round-trip formatting, so parsing the
    file recovers the in-memory values bit-exactly.
    """
    embedding = embed_dataset(source, dataset)
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
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return embedding


def read_embedding_tsv(path: str) -> tuple[list[str], np.ndarray, list[str] | None]:
    """Parse an embedding TSV back into (sample_ids, matrix, class names or None).

    Every embedding value must be a finite number; a row holding anything
    else is a `ValidationError` naming the path and the row.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read embedding {path}: {exc}") from exc
    if not lines:
        raise ValidationError(f"{path}: empty embedding file")
    header = lines[0].split("\t")
    if header[0] != "sample_id":
        raise ValidationError(f"{path}: not an embedding TSV (header {header[:2]})")
    has_classes = header[-1] == "class_name"
    dim_count = len(header) - 1 - int(has_classes)
    if dim_count < 1:
        raise ValidationError(f"{path}: no embedding dimensions")
    ids: list[str] = []
    rows: list[list[float]] = []
    classes: list[str] = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ValidationError(f"{path}: ragged row {lineno}")
        ids.append(cells[0])
        try:
            values = [float(c) for c in cells[1 : 1 + dim_count]]
        except ValueError:
            raise ValidationError(f"{path}: non-numeric embedding value in row {lineno}") from None
        if not all(map(math.isfinite, values)):
            raise ValidationError(f"{path}: non-finite embedding value in row {lineno}")
        rows.append(values)
        if has_classes:
            classes.append(cells[-1])
    if not rows:
        raise ValidationError(f"{path}: no embedding rows")
    return ids, np.array(rows), classes if has_classes else None


def _build_palette(count: int = 34) -> tuple[str, ...]:
    colors = []
    for i in range(count):
        r, g, b = colorsys.hsv_to_rgb(i / count, 0.72, 0.85)
        colors.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
    return tuple(colors)


PALETTE = _build_palette()


def render_scatter(embedding_path: str, out_path: str) -> None:
    """Deterministic SVG scatter of the first two embedding dimensions."""
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

    legend_names = sorted(set(classes)) if classes else []
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
        color = color_of[classes[i]] if classes else "#3366aa"
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
            f'<text x="{lx + 14}" y="{ly}" font-family="sans-serif" font-size="10">{name}</text>'
        )
    parts.append("</svg>")
    with open(out_path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
