"""Output checks, each against a computation made apart from the program.

Every check raises `CheckFailed` with the reason when an output is wrong.
The independent computations are plain numpy: an encoder forward pass
written from the checkpoint's tensors, the preprocessing rules applied to
the generating matrices, `np.linalg.eigvalsh`, and sums over the confusion
matrices.
"""

from __future__ import annotations

import math

import numpy as np

BN_EPSILON = 1e-5  # BatchNormLayer's default, which every model block uses


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------ reference model

def _block(t: dict[str, np.ndarray], name: str, x: np.ndarray, batch_norm: bool = True):
    """Infer-mode linear -> batch norm -> ReLU, or linear + bias without norm."""
    z = x @ t[f"{name}.linear.weights"].T
    if batch_norm:
        mean, var = t[f"{name}.norm.running_mean"], t[f"{name}.norm.running_var"]
        z = t[f"{name}.norm.gamma"] * (z - mean) / np.sqrt(var + BN_EPSILON)
        return np.maximum(z + t[f"{name}.norm.beta_shift"], 0.0)
    return z + t[f"{name}.linear.bias"]


def reference_embed(tensors: dict[str, np.ndarray], x_expr, x_blocks) -> np.ndarray:
    """Latent means from the checkpoint tensors, row by row independent."""
    parts = []
    if x_blocks is not None:
        hidden = [_block(tensors, f"encoder.methyl.block{j:02d}", x) for j, x in enumerate(x_blocks)]
        parts.append(_block(tensors, "encoder.methyl.merge", np.concatenate(hidden, axis=1)))
    if x_expr is not None:
        h = _block(tensors, "encoder.expr.hidden1", x_expr)
        parts.append(_block(tensors, "encoder.expr.hidden2", h))
    fused = _block(tensors, "encoder.fusion", np.concatenate(parts, axis=1))
    return fused @ tensors["encoder.mu_head.weights"].T + tensors["encoder.mu_head.bias"]


def close(actual: np.ndarray, expected: np.ndarray, rtol: float) -> bool:
    if actual.shape != expected.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(expected)))) if expected.size else 1.0
    return bool(np.all(np.abs(actual - expected) <= rtol * scale))


# ------------------------------------------------------------ training history

def number(text: str) -> float:
    """A float the program wrote with repr(); under numpy >= 2 the repr of a
    numpy scalar reads `np.float64(x)`, which the history TSV carries."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64(") : -1]
    return float(text)


def parse_history(text: str) -> list[dict[str, float]]:
    lines = text.splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, map(number, line.split("\t")))) for line in lines[1:] if line]


def check_history(rows: list[dict[str, float]], phase1_epochs: int, phase2_epochs: int) -> None:
    """Fixed epoch counts per phase and no non-finite (diverged) value."""
    for phase, expected in ((1, phase1_epochs), (2, phase2_epochs)):
        got = sum(1 for r in rows if r["phase"] == phase)
        _require(got == expected, f"phase {phase} ran {got} epochs, expected {expected}")
    _require(
        all(math.isfinite(v) for r in rows for v in r.values()),
        "history holds a non-finite value (training diverged)",
    )


# ------------------------------------------------------------ crossval-b23

def parse_confusion(text: str) -> np.ndarray:
    rows = [line.split("\t")[1:] for line in text.splitlines()[1:] if line]
    return np.array(rows, dtype=np.int64)


def parse_aggregate(text: str) -> dict[str, float]:
    return {k: float(v) for k, v in (line.split("=", 1) for line in text.splitlines() if line)}


def check_crossval(confusions: list[np.ndarray], aggregate: dict[str, float], labels) -> None:
    """Test folds partition the samples; accuracies agree with the confusions."""
    class_counts = np.bincount(np.asarray(labels), minlength=confusions[0].shape[0])
    per_class = sum(c.sum(axis=1) for c in confusions)
    _require(
        np.array_equal(per_class, class_counts),
        f"test-fold confusion rows sum to {per_class.tolist()}, classes hold {class_counts.tolist()}",
    )
    accuracies = []
    for r, confusion in enumerate(confusions):
        accuracy = float(np.trace(confusion) / confusion.sum())
        recorded = aggregate.get(f"fold{r:02d}.accuracy")
        _require(recorded == accuracy, f"fold {r} accuracy {recorded} != confusion's {accuracy}")
        accuracies.append(accuracy)
    mean = float(np.mean(accuracies))
    _require(
        abs(aggregate["accuracy_mean"] - mean) <= 1e-12,
        f"accuracy_mean {aggregate['accuracy_mean']} != mean of folds {mean}",
    )


# ------------------------------------------------------------ ingest-analyze

def check_cache(dataset, expected) -> None:
    """The cache equals the preprocessing computed from the generating matrices."""
    _require(list(dataset.sample_ids) == expected.sample_ids, "cache sample order differs")
    _require(
        list(dataset.expression_feature_ids) == expected.expression_features,
        "cache expression features differ",
    )
    _require(close(dataset.expression, expected.expression, 1e-12), "cache expression values differ")
    _require(
        list(dataset.block_chromosomes) == expected.block_chromosomes,
        f"cache blocks are chromosomes {dataset.block_chromosomes}",
    )
    for j, (block, features) in enumerate(zip(expected.blocks, expected.block_features)):
        _require(
            list(dataset.methylation_block_features[j]) == features,
            f"cache block {j} features differ",
        )
        _require(close(dataset.methylation_blocks[j], block, 1e-12), f"cache block {j} values differ")
    _require(np.array_equal(dataset.labels, expected.labels), "cache labels differ")


def check_roundtrip(ids: list[str], parsed: np.ndarray, sample_ids, embedding: np.ndarray) -> None:
    _require(list(ids) == list(sample_ids), "embedding TSV sample ids differ")
    _require(
        parsed.shape == embedding.shape and np.array_equal(parsed, embedding),
        "embedding TSV does not round-trip bit-exactly",
    )


def check_rows(parsed: np.ndarray, expected: np.ndarray, what: str) -> None:
    bad = [
        i
        for i in range(expected.shape[0])
        if not close(parsed[i : i + 1], expected[i : i + 1], 1e-9)
    ]
    _require(not bad, f"embedding rows {bad[:5]} differ from {what}")


def check_pca(axes: np.ndarray, explained: np.ndarray, sample: np.ndarray) -> None:
    """Orthonormal axes whose variances are the top eigenvalues of the sample."""
    k = axes.shape[1]
    _require(close(axes.T @ axes, np.eye(k), 1e-9), "PCA axes are not orthonormal")
    centered = sample - sample.mean(axis=0)
    # the Gram matrix shares the covariance's non-zero spectrum
    eig = np.linalg.eigvalsh(centered @ centered.T / (sample.shape[0] - 1))[::-1][:k]
    _require(close(explained, eig, 1e-8), "PCA variances differ from eigvalsh")


def check_probe_monotone(losses: list[float]) -> None:
    rises = [i for i in range(1, len(losses)) if losses[i] > losses[i - 1] + 1e-12 * abs(losses[i - 1])]
    _require(not rises, f"probe loss increases at iterations {rises[:5]}")


def check_scatter(svg: str, samples: int) -> None:
    dots = svg.count("<circle ")
    _require(dots == samples, f"scatter has {dots} points for {samples} samples")
