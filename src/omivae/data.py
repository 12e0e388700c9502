"""Dataset representation, TSV ingestion, preprocessing, folds, synthesis.

Matrix TSV files are feature-table shaped: header row of sample IDs, one row
per feature. A cell, after `strip()`, is `NA` or empty for a missing value,
anything `float()` accepts for that double, and anything else is a
`ValidationError` naming its row and column. Reading one holds about two
float64 copies of the matrix at its peak. Annotation files map feature IDs to
chromosomes `1`..`22`, `X`, `Y`, or `NA`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .container import (
    decode_str_list,
    encode_str_list,
    read_container,
    write_container,
)
from .errors import FormatError, ValidationError
from .numerics import RngState

DATASET_MAGIC = b"OMIDS1"
DATASET_VERSION = 1

CHROMOSOMES = tuple(str(i) for i in range(1, 23)) + ("X",)
VALID_ANNOTATIONS = CHROMOSOMES + ("Y", "NA")


@dataclass
class RawMatrix:
    """Samples-by-features values with NaN marking missing entries."""

    sample_ids: list[str]
    feature_ids: list[str]
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.sample_ids), len(self.feature_ids)):
            raise ValidationError(
                f"raw matrix shape {self.values.shape} does not match "
                f"{len(self.sample_ids)} samples x {len(self.feature_ids)} features"
            )


def _parse_cell(cell: str, path: str, row: int, col: int) -> float:
    cell = cell.strip()
    if cell == "NA" or cell == "":
        return np.nan
    try:
        return float(cell)
    except ValueError:
        raise ValidationError(
            f"{path}: unparseable numeric value {cell!r} at row {row}, column {col}"
        ) from None


def _check_unique(ids: list[str], what: str, path: str) -> None:
    seen: set[str] = set()
    for i in ids:
        if i in seen:
            raise ValidationError(f"{path}: duplicate {what} ID {i!r}")
        seen.add(i)


def _open_tsv(path: str):
    """Open an input TSV; a file that cannot be opened is a bad input."""
    try:
        return open(path, newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def load_matrix_tsv(path: str) -> RawMatrix:
    """Read a feature-table TSV (the portal layout: one row per feature, one
    column per sample) as a samples x features matrix.

    Each cell is stripped; `NA` or empty is missing (NaN), anything `float()`
    accepts is that double, and anything else raises a `ValidationError`
    naming the row and column of the first bad cell. Each row is stored as a
    float64 array as it is read and the rows are stacked once, so the peak
    memory is about two float64 copies of the matrix.
    """
    with _open_tsv(path) as fh:
        reader = csv.reader(fh, delimiter="\t")
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if len(header) < 2:
            raise ValidationError(f"{path}: header must name at least one data column")
        sample_ids = [c.strip() for c in header[1:]]
        feature_ids: list[str] = []
        rows: list[np.ndarray] = []
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise ValidationError(
                    f"{path}: ragged row {lineno}: {len(record)} cells, expected {len(header)}"
                )
            feature_ids.append(record[0].strip())
            cells = record[1:]
            try:
                row = [math.nan if c == "NA" or c == "" else float(c) for c in cells]
            except ValueError:
                # padded `NA`s and the first bad cell's error are `_parse_cell`'s
                row = [_parse_cell(c, path, lineno, j + 2) for j, c in enumerate(cells)]
            rows.append(np.array(row, dtype=np.float64))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    values = np.stack(rows, axis=1)
    _check_unique(sample_ids, "sample", path)
    _check_unique(feature_ids, "feature", path)
    return RawMatrix(sample_ids=sample_ids, feature_ids=feature_ids, values=values)


def _load_two_column_tsv(path: str, col_a: str, col_b: str) -> dict[str, str]:
    with _open_tsv(path) as fh:
        reader = csv.reader(fh, delimiter="\t")
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if [c.strip() for c in header[:2]] != [col_a, col_b]:
            raise ValidationError(
                f"{path}: expected header columns {col_a!r}, {col_b!r}, got {header[:2]}"
            )
        mapping: dict[str, str] = {}
        for lineno, record in enumerate(reader, start=2):
            if len(record) < 2:
                raise ValidationError(f"{path}: row {lineno} has fewer than two columns")
            key, value = record[0].strip(), record[1].strip()
            if key in mapping:
                raise ValidationError(f"{path}: duplicate {col_a} {key!r}")
            mapping[key] = value
    return mapping


def load_annotations(path: str) -> dict[str, str]:
    """feature_id -> chromosome label; labels outside 1..22/X/Y/NA are rejected."""
    mapping = _load_two_column_tsv(path, "feature_id", "chromosome")
    for fid, chrom in mapping.items():
        if chrom not in VALID_ANNOTATIONS:
            raise ValidationError(f"{path}: invalid chromosome {chrom!r} for feature {fid!r}")
    return mapping


def load_labels(path: str) -> dict[str, str]:
    return _load_two_column_tsv(path, "sample_id", "class_name")


def write_matrix_tsv(path: str, raw: RawMatrix) -> None:
    """Write the feature-table layout read back by load_matrix_tsv."""
    with open(path, "w") as fh:
        fh.write("id\t" + "\t".join(raw.sample_ids) + "\n")
        for j, fid in enumerate(raw.feature_ids):
            # "nan" is the only float repr that contains "nan"
            cells = "\t".join(map(repr, raw.values[:, j].tolist())).replace("nan", "NA")
            fh.write(fid + "\t" + cells + "\n")


def write_annotations_tsv(path: str, annotations: dict[str, str]) -> None:
    with open(path, "w") as fh:
        fh.write("feature_id\tchromosome\n")
        for fid in annotations:
            fh.write(f"{fid}\t{annotations[fid]}\n")


def write_labels_tsv(path: str, labels: dict[str, str]) -> None:
    with open(path, "w") as fh:
        fh.write("sample_id\tclass_name\n")
        for sid in labels:
            fh.write(f"{sid}\t{labels[sid]}\n")


@dataclass
class OmicsDataset:
    """Aligned per-sample omics matrices, optionally labeled.

    Matrices are samples x features; methylation is one matrix per
    chromosome block. Values are in [0, 1] after preprocessing; NaN entries
    may appear only in not-yet-preprocessed synthetic data.
    """

    sample_ids: list[str]
    expression: np.ndarray | None = None
    expression_feature_ids: list[str] | None = None
    methylation_blocks: list[np.ndarray] | None = None
    methylation_block_features: list[list[str]] | None = None
    block_chromosomes: list[str] | None = None
    labels: np.ndarray | None = None
    class_vocab: list[str] | None = None

    @property
    def num_samples(self) -> int:
        return len(self.sample_ids)

    @property
    def expr_dim(self) -> int:
        return 0 if self.expression is None else self.expression.shape[1]

    @property
    def methyl_block_dims(self) -> tuple[int, ...]:
        if self.methylation_blocks is None:
            return ()
        return tuple(b.shape[1] for b in self.methylation_blocks)

    def validate(self, allow_missing: bool = False, check_range: bool = True) -> None:
        n = self.num_samples
        if self.expression is None and self.methylation_blocks is None:
            raise ValidationError("dataset has no modality")
        matrices = []
        if self.expression is not None:
            matrices.append(("expression", self.expression))
            if self.expression_feature_ids is not None and len(
                self.expression_feature_ids
            ) != self.expression.shape[1]:
                raise ValidationError("expression feature ID count mismatch")
        if self.methylation_blocks is not None:
            if self.block_chromosomes is not None and len(self.block_chromosomes) != len(
                self.methylation_blocks
            ):
                raise ValidationError("block chromosome list length mismatch")
            for j, b in enumerate(self.methylation_blocks):
                matrices.append((f"methylation block {j}", b))
        for name, m in matrices:
            if m.shape[0] != n:
                raise ValidationError(f"{name} has {m.shape[0]} rows, expected {n}")
            if not allow_missing and np.isnan(m).any():
                raise ValidationError(f"{name} contains missing values")
            if check_range:
                finite = m[~np.isnan(m)] if allow_missing else m
                if finite.size and (finite.min() < -1e-9 or finite.max() > 1.0 + 1e-9):
                    raise ValidationError(f"{name} has values outside [0, 1]")
        if self.labels is not None:
            if self.labels.shape != (n,):
                raise ValidationError("labels length mismatch")
            if self.class_vocab is None:
                raise ValidationError("labels present but class vocabulary missing")
            if self.labels.max(initial=-1) >= len(self.class_vocab):
                raise ValidationError("label index outside class vocabulary")
            if self.labels.min(initial=0) < -1:
                raise ValidationError("label indices must be >= -1")

    def batch(self, indices) -> tuple[np.ndarray | None, list[np.ndarray] | None]:
        indices = np.asarray(indices)
        x_expr = self.expression[indices] if self.expression is not None else None
        x_blocks = (
            [b[indices] for b in self.methylation_blocks]
            if self.methylation_blocks is not None
            else None
        )
        return x_expr, x_blocks

    def save(self, path: str) -> None:
        config = {
            "num_samples": str(self.num_samples),
            "has_expression": "true" if self.expression is not None else "false",
            "num_blocks": str(
                0 if self.methylation_blocks is None else len(self.methylation_blocks)
            ),
            "has_labels": "true" if self.labels is not None else "false",
        }
        tensors: list[tuple[str, np.ndarray]] = []
        metadata = {"sample_ids": encode_str_list(self.sample_ids)}
        if self.expression is not None:
            tensors.append(("expression", self.expression))
            if self.expression_feature_ids is not None:
                metadata["expression_features"] = encode_str_list(self.expression_feature_ids)
        if self.methylation_blocks is not None:
            for j, b in enumerate(self.methylation_blocks):
                tensors.append((f"methyl.block{j:02d}", b))
                if self.methylation_block_features is not None:
                    metadata[f"block{j:02d}.features"] = encode_str_list(
                        self.methylation_block_features[j]
                    )
            if self.block_chromosomes is not None:
                metadata["block_chromosomes"] = encode_str_list(self.block_chromosomes)
        if self.labels is not None:
            tensors.append(("labels", self.labels.astype(np.float64)))
            metadata["class_vocab"] = encode_str_list(self.class_vocab)
        write_container(path, DATASET_MAGIC, DATASET_VERSION, config, tensors, metadata)

    @classmethod
    def load(cls, path: str) -> "OmicsDataset":
        config, tensor_list, metadata = read_container(path, DATASET_MAGIC, DATASET_VERSION)
        tensors = dict(tensor_list)
        try:
            num_blocks = int(config["num_blocks"])
            has_expression = config["has_expression"] == "true"
            has_labels = config["has_labels"] == "true"
            sample_ids = decode_str_list(metadata["sample_ids"])
            expression = tensors["expression"] if has_expression else None
            blocks = (
                [tensors[f"methyl.block{j:02d}"] for j in range(num_blocks)]
                if num_blocks
                else None
            )
            block_features = None
            if num_blocks and "block00.features" in metadata:
                block_features = [
                    decode_str_list(metadata[f"block{j:02d}.features"]) for j in range(num_blocks)
                ]
            ds = cls(
                sample_ids=sample_ids,
                expression=expression,
                expression_feature_ids=(
                    decode_str_list(metadata["expression_features"])
                    if "expression_features" in metadata
                    else None
                ),
                methylation_blocks=blocks,
                methylation_block_features=block_features,
                block_chromosomes=(
                    decode_str_list(metadata["block_chromosomes"])
                    if "block_chromosomes" in metadata
                    else None
                ),
                labels=tensors["labels"].astype(np.int64) if has_labels else None,
                class_vocab=(
                    decode_str_list(metadata["class_vocab"]) if has_labels else None
                ),
            )
        except KeyError as exc:
            raise FormatError(f"{path}: dataset cache is missing {exc}") from exc
        except ValueError as exc:
            raise FormatError(f"{path}: malformed dataset cache: {exc}") from exc
        ds.validate(allow_missing=True)
        return ds


@dataclass
class PreprocessConfig:
    missing_threshold: float = 0.10
    drop_y: bool = True
    drop_all_zero: bool = True
    drop_unmapped: bool = True
    normalize_expression: bool = True
    log2_expression: bool = False

    def __post_init__(self):
        if not 0.0 <= self.missing_threshold <= 1.0:
            raise ValidationError("missing_threshold must be in [0, 1]")


@dataclass
class PreprocessReport:
    samples_used: int = 0
    samples_dropped: int = 0
    expression_removed: dict[str, int] = field(default_factory=dict)
    methylation_removed: dict[str, int] = field(default_factory=dict)
    expression_kept: int = 0
    methylation_kept: int = 0
    imputed_expression_cells: int = 0
    imputed_methylation_cells: int = 0
    unlabeled_samples: int = 0

    def to_text(self) -> str:
        lines = [
            f"samples_used={self.samples_used}",
            f"samples_dropped={self.samples_dropped}",
        ]
        for rule, count in self.expression_removed.items():
            lines.append(f"expression_removed.{rule}={count}")
        lines.append(f"expression_kept={self.expression_kept}")
        for rule, count in self.methylation_removed.items():
            lines.append(f"methylation_removed.{rule}={count}")
        lines.append(f"methylation_kept={self.methylation_kept}")
        lines.append(f"imputed_expression_cells={self.imputed_expression_cells}")
        lines.append(f"imputed_methylation_cells={self.imputed_methylation_cells}")
        lines.append(f"unlabeled_samples={self.unlabeled_samples}")
        return "\n".join(lines) + "\n"


def _impute_feature_means(values: np.ndarray) -> int:
    """Replace NaNs with per-feature observed means, in place; 0 if all missing."""
    missing = np.isnan(values)
    count = int(missing.sum())
    if count:
        observed = np.where(missing, 0.0, values)
        denom = (~missing).sum(axis=0).astype(np.float64)
        means = np.divide(
            observed.sum(axis=0), denom, out=np.zeros(values.shape[1]), where=denom > 0
        )
        values[missing] = np.broadcast_to(means, values.shape)[missing]
    return count


def preprocess(
    expression: RawMatrix | None,
    methylation: RawMatrix | None,
    annotations: dict[str, str],
    config: PreprocessConfig | None = None,
    labels: dict[str, str] | None = None,
    train_sample_ids: list[str] | None = None,
) -> tuple[OmicsDataset, PreprocessReport]:
    """Filter, impute, normalize, and group raw matrices into a dataset.

    Rule order: drop unmapped/control methylation probes, drop Y-chromosome
    features, drop all-zero expression features, drop features missing in
    strictly more than the threshold fraction of samples, impute remaining
    missing entries with feature means, min-max normalize expression, and
    group methylation features by chromosome (1..22 then X).

    Expression normalization statistics come from `train_sample_ids` when
    given (values outside the training range clip to [0, 1]); by default
    they come from all samples.
    """
    if expression is None and methylation is None:
        raise ValidationError("preprocess needs at least one modality")
    config = config if config is not None else PreprocessConfig()
    report = PreprocessReport()

    # sample alignment across modalities
    if expression is not None and methylation is not None:
        methyl_set = set(methylation.sample_ids)
        sample_ids = [s for s in expression.sample_ids if s in methyl_set]
        total = len(set(expression.sample_ids) | set(methylation.sample_ids))
        report.samples_dropped = total - len(sample_ids)
    else:
        present = expression if expression is not None else methylation
        sample_ids = list(present.sample_ids)
    if not sample_ids:
        raise ValidationError("no samples shared by the provided modalities")
    report.samples_used = len(sample_ids)

    def rows_for(raw: RawMatrix) -> np.ndarray:
        pos = {s: i for i, s in enumerate(raw.sample_ids)}
        return raw.values[np.array([pos[s] for s in sample_ids])]

    threshold = config.missing_threshold
    expr_values = expr_features = None
    if expression is not None:
        expr_values = rows_for(expression).copy()
        expr_features = list(expression.feature_ids)
        if config.log2_expression:
            expr_values = np.log2(expr_values + 1.0)
        keep = np.ones(len(expr_features), dtype=bool)
        if config.drop_y:
            is_y = np.array([annotations.get(f) == "Y" for f in expr_features])
            report.expression_removed["y_chromosome"] = int(is_y.sum())
            keep &= ~is_y
        if config.drop_all_zero:
            observed = ~np.isnan(expr_values)
            nonzero = (np.nan_to_num(expr_values, nan=0.0) != 0.0).any(axis=0)
            all_zero = keep & observed.any(axis=0) & ~nonzero
            report.expression_removed["all_zero"] = int(all_zero.sum())
            keep &= ~all_zero
        missing_frac = np.isnan(expr_values).mean(axis=0)
        high_missing = keep & (missing_frac > threshold)
        report.expression_removed["high_missing"] = int(high_missing.sum())
        keep &= ~high_missing
        expr_values = expr_values[:, keep]
        expr_features = [f for f, k in zip(expr_features, keep) if k]
        if not expr_features:
            raise ValidationError("no expression features survive filtering")
        report.imputed_expression_cells = _impute_feature_means(expr_values)
        if config.normalize_expression:
            if train_sample_ids is not None:
                wanted = set(train_sample_ids)
                stat_rows = np.array([i for i, s in enumerate(sample_ids) if s in wanted])
                if stat_rows.size == 0:
                    raise ValidationError("train_sample_ids matches no samples")
            else:
                stat_rows = np.arange(len(sample_ids))
            lo = expr_values[stat_rows].min(axis=0)
            hi = expr_values[stat_rows].max(axis=0)
            span = hi - lo
            span[span == 0.0] = 1.0  # constant features normalize to 0
            expr_values = np.clip((expr_values - lo) / span, 0.0, 1.0)
        report.expression_kept = len(expr_features)

    blocks = block_features = block_chroms = None
    if methylation is not None:
        methyl_values = rows_for(methylation).copy()
        methyl_features = list(methylation.feature_ids)
        keep = np.ones(len(methyl_features), dtype=bool)
        if config.drop_unmapped:
            unmapped = np.array(
                [annotations.get(f, "NA") == "NA" for f in methyl_features]
            )
            report.methylation_removed["unmapped_or_control"] = int(unmapped.sum())
            keep &= ~unmapped
        if config.drop_y:
            is_y = keep & np.array([annotations.get(f) == "Y" for f in methyl_features])
            report.methylation_removed["y_chromosome"] = int(is_y.sum())
            keep &= ~is_y
        missing_frac = np.isnan(methyl_values).mean(axis=0)
        high_missing = keep & (missing_frac > threshold)
        report.methylation_removed["high_missing"] = int(high_missing.sum())
        keep &= ~high_missing
        methyl_values = methyl_values[:, keep]
        methyl_features = [f for f, k in zip(methyl_features, keep) if k]
        if not methyl_features:
            raise ValidationError("no methylation features survive filtering")
        report.imputed_methylation_cells = _impute_feature_means(methyl_values)
        observed = methyl_values[~np.isnan(methyl_values)]
        if observed.size and (observed.min() < -1e-6 or observed.max() > 1.0 + 1e-6):
            raise ValidationError("methylation values must be Beta values in [0, 1]")
        methyl_values = np.clip(methyl_values, 0.0, 1.0)
        blocks, block_features, block_chroms = [], [], []
        chrom_of = [annotations[f] for f in methyl_features]
        for chrom in CHROMOSOMES:
            cols = [i for i, c in enumerate(chrom_of) if c == chrom]
            if not cols:
                continue
            blocks.append(np.ascontiguousarray(methyl_values[:, cols]))
            block_features.append([methyl_features[i] for i in cols])
            block_chroms.append(chrom)
        report.methylation_kept = len(methyl_features)

    label_array = class_vocab = None
    if labels is not None:
        class_vocab = sorted({labels[s] for s in sample_ids if s in labels})
        index = {c: i for i, c in enumerate(class_vocab)}
        label_array = np.array(
            [index.get(labels.get(s, None), -1) for s in sample_ids], dtype=np.int64
        )
        report.unlabeled_samples = int((label_array == -1).sum())

    dataset = OmicsDataset(
        sample_ids=sample_ids,
        expression=expr_values,
        expression_feature_ids=expr_features,
        methylation_blocks=blocks,
        methylation_block_features=block_features,
        block_chromosomes=block_chroms,
        labels=label_array,
        class_vocab=class_vocab,
    )
    # unit-interval values are guaranteed only when normalization ran
    dataset.validate(check_range=config.normalize_expression)
    return dataset, report


def dataset_to_raw(
    dataset: OmicsDataset,
) -> tuple[RawMatrix | None, RawMatrix | None, dict[str, str]]:
    """Flatten a dataset back into raw matrices plus a chromosome annotation map."""
    annotations: dict[str, str] = {}
    expr = None
    if dataset.expression is not None:
        ids = dataset.expression_feature_ids or [
            f"expr{i:06d}" for i in range(dataset.expression.shape[1])
        ]
        expr = RawMatrix(list(dataset.sample_ids), list(ids), dataset.expression.copy())
    methyl = None
    if dataset.methylation_blocks is not None:
        all_ids: list[str] = []
        for j, block in enumerate(dataset.methylation_blocks):
            ids = (
                dataset.methylation_block_features[j]
                if dataset.methylation_block_features is not None
                else [f"cg{j:02d}x{i:05d}" for i in range(block.shape[1])]
            )
            chrom = dataset.block_chromosomes[j] if dataset.block_chromosomes else str(j + 1)
            for fid in ids:
                annotations[fid] = chrom
            all_ids.extend(ids)
        methyl = RawMatrix(
            list(dataset.sample_ids),
            all_ids,
            np.concatenate(dataset.methylation_blocks, axis=1),
        )
    return expr, methyl, annotations


def restrict_modalities(
    dataset: OmicsDataset, expression: bool = True, methylation: bool = True
) -> OmicsDataset:
    """A view of the dataset with disabled modalities removed."""
    if not expression and not methylation:
        raise ValidationError("cannot disable every modality")
    if expression and dataset.expression is None:
        raise ValidationError("dataset has no expression modality")
    if methylation and dataset.methylation_blocks is None:
        raise ValidationError("dataset has no methylation modality")
    return OmicsDataset(
        sample_ids=dataset.sample_ids,
        expression=dataset.expression if expression else None,
        expression_feature_ids=dataset.expression_feature_ids if expression else None,
        methylation_blocks=dataset.methylation_blocks if methylation else None,
        methylation_block_features=(
            dataset.methylation_block_features if methylation else None
        ),
        block_chromosomes=dataset.block_chromosomes if methylation else None,
        labels=dataset.labels,
        class_vocab=dataset.class_vocab,
    )


@dataclass
class FoldSplit:
    folds: list[np.ndarray]

    @property
    def k(self) -> int:
        return len(self.folds)

    def round(self, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(train, validation, test) indices for cross-validation round `r`.

        The test and validation folds are two different folds, and training
        needs at least one more, so a round needs k >= 3.
        """
        if self.k < 3:
            raise ValidationError(f"a cross-validation round needs k >= 3 folds, got k={self.k}")
        if not 0 <= r < self.k:
            raise ValidationError(f"round {r} out of range for {self.k} folds")
        test = self.folds[r]
        val = self.folds[(r + 1) % self.k]
        train = np.sort(
            np.concatenate([f for i, f in enumerate(self.folds) if i != r and i != (r + 1) % self.k])
        )
        return train, val, test


def stratified_kfold(labels, k: int, seed: int) -> FoldSplit:
    """Shuffled per-class round-robin assignment into k folds."""
    labels = np.asarray(labels)
    if k < 2:
        raise ValidationError("k must be >= 2")
    if labels.ndim != 1 or labels.size == 0:
        raise ValidationError("labels must be a non-empty vector")
    if (labels < 0).any():
        raise ValidationError("stratified split requires a label for every sample")
    rng = RngState(seed)
    fold_lists: list[list[int]] = [[] for _ in range(k)]
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if members.size < k:
            raise ValidationError(
                f"class {int(cls)} has {members.size} samples, fewer than k={k}"
            )
        order = members[rng.permutation(members.size)]
        for i, idx in enumerate(order):
            fold_lists[i % k].append(int(idx))
    return FoldSplit(folds=[np.array(sorted(f), dtype=np.int64) for f in fold_lists])


@dataclass
class SyntheticSpec:
    """Generator for class-structured data shaped like the real pipeline's output.

    Each class owns a point in a low-dimensional factor space; samples add
    within-class factor jitter, the factors mix through fixed random maps
    into every feature block, and `nonlinear_mix` pushes the mixed signal
    through a saturating tanh so that linear projections under-separate the
    classes. With `split_signal`, expression sees only one factor subspace
    and methylation only the other, so neither modality alone identifies the
    class.
    """

    num_classes: int = 10
    samples_per_class: int = 60
    num_blocks: int = 5
    features_per_block: int = 200
    expr_features: int = 400
    class_signal: float = 0.35
    signal_fraction: float = 0.7
    latent_factors: int = 6
    within_class_sd: float = 0.0
    nonlinear_mix: bool = False
    nonlinear_gain: float = 3.0
    noise_sd: float = 0.05
    missing_rate: float = 0.0
    split_signal: bool = False
    seed: int = 1

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValidationError("num_classes must be >= 2")
        if self.samples_per_class < 1:
            raise ValidationError("samples_per_class must be >= 1")
        if self.num_blocks < 1 or self.num_blocks > len(CHROMOSOMES):
            raise ValidationError(f"num_blocks must be in [1, {len(CHROMOSOMES)}]")
        if self.features_per_block < 1 or self.expr_features < 1:
            raise ValidationError("feature counts must be >= 1")
        if not 0.0 <= self.signal_fraction <= 1.0:
            raise ValidationError("signal_fraction must be in [0, 1]")
        if not 0.0 <= self.missing_rate <= 1.0:
            raise ValidationError("missing_rate must be in [0, 1]")
        if self.noise_sd < 0.0 or self.within_class_sd < 0.0:
            raise ValidationError("noise levels must be >= 0")
        if self.latent_factors < 2:
            raise ValidationError("latent_factors must be >= 2")


def synthesize(spec: SyntheticSpec) -> OmicsDataset:
    """Deterministic class-structured dataset; see SyntheticSpec for the recipe."""
    root = RngState(spec.seed)
    rng_factors = root.derive(0)
    rng_mix = root.derive(1)
    rng_noise = root.derive(2)
    rng_missing = root.derive(3)
    rng_jitter = root.derive(4)

    k, spc, latent = spec.num_classes, spec.samples_per_class, spec.latent_factors
    n = k * spc
    if spec.split_signal:
        half = latent // 2
        a_count = math.ceil(math.sqrt(k))
        b_count = math.ceil(k / a_count)
        factors_a = rng_factors.standard_normal(a_count, half)
        factors_b = rng_factors.standard_normal(b_count, latent - half)
        class_factors = np.zeros((k, latent))
        for c in range(k):
            class_factors[c, :half] = factors_a[c % a_count]
            class_factors[c, half:] = factors_b[c // a_count]
        expr_mask = np.zeros(latent)
        expr_mask[:half] = 1.0
        methyl_mask = np.zeros(latent)
        methyl_mask[half:] = 1.0
    else:
        class_factors = rng_factors.standard_normal(k, latent)
        expr_mask = methyl_mask = np.ones(latent)

    labels = np.repeat(np.arange(k, dtype=np.int64), spc)
    sample_factors = class_factors[labels]
    if spec.within_class_sd > 0.0:
        sample_factors = sample_factors + spec.within_class_sd * rng_jitter.standard_normal(
            n, latent
        )

    def make_group(num_features: int, factor_mask: np.ndarray) -> np.ndarray:
        mixing = rng_mix.standard_normal(latent, num_features) / np.sqrt(latent)
        phase = rng_mix.uniform(-1.0, 1.0, num_features)
        signal_count = int(round(spec.signal_fraction * num_features))
        signal_cols = np.sort(rng_mix.choice(num_features, size=signal_count, replace=False))
        mixed = (sample_factors * factor_mask) @ mixing
        values = np.full((n, num_features), 0.5)
        if spec.nonlinear_mix:
            values[:, signal_cols] = 0.5 + 0.5 * np.tanh(
                spec.nonlinear_gain * spec.class_signal * mixed[:, signal_cols]
                + phase[signal_cols]
            )
        else:
            values[:, signal_cols] = 0.5 + spec.class_signal * mixed[:, signal_cols]
        return values

    blocks = [make_group(spec.features_per_block, methyl_mask) for _ in range(spec.num_blocks)]
    expression = make_group(spec.expr_features, expr_mask)

    def finish(values: np.ndarray) -> np.ndarray:
        if spec.noise_sd > 0.0:
            values = values + spec.noise_sd * rng_noise.standard_normal(*values.shape)
        values = np.clip(values, 0.0, 1.0)
        if spec.missing_rate > 0.0:
            mask = rng_missing.uniform(0.0, 1.0, values.shape) < spec.missing_rate
            values[mask] = np.nan
        return values

    blocks = [finish(b) for b in blocks]
    expression = finish(expression)

    dataset = OmicsDataset(
        sample_ids=[f"S{i:05d}" for i in range(n)],
        expression=expression,
        expression_feature_ids=[f"gene{i:05d}" for i in range(spec.expr_features)],
        methylation_blocks=blocks,
        methylation_block_features=[
            [f"cg{j:02d}x{i:05d}" for i in range(spec.features_per_block)]
            for j in range(spec.num_blocks)
        ],
        block_chromosomes=list(CHROMOSOMES[: spec.num_blocks]),
        labels=labels,
        class_vocab=[f"class{c:02d}" for c in range(k)],
    )
    dataset.validate(allow_missing=spec.missing_rate > 0.0)
    return dataset
