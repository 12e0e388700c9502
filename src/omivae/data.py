"""Dataset representation, TSV ingestion, preprocessing, folds, synthesis.

Every TSV, read or written, is one dialect: UTF-8 text, cells separated by
tabs with no quoting (a `"` is a plain character), lines ending at `\n`,
`\r\n` or `\r`. A file that cannot be read or is not UTF-8 text is a
`ValidationError`.

Matrix and embedding TSVs share one numeric-cell grammar (`_parse_cell`):
a cell, after `strip()`, is `NA` or empty for a missing value (NaN), any
value `float()` accepts is that double, and anything else is a
`ValidationError` naming its row and column. `read_numeric_body` reads the
body of both with numpy's C reader, and with the per-cell loop instead on
a cell only `float()` accepts, a padded or empty `NA`, a `NAN` that the
`NA` replacement garbles, an empty body, a row of another width or no
data rows. Every reader strips its IDs and refuses an empty or repeated
one (`checked_ids`). A matrix TSV is feature-table shaped, a header row of
sample IDs and one row per feature; `load_matrix_tsv` refuses an infinite
cell. An embedding TSV (`evaluation.read_embedding_tsv`) refuses a missing
or infinite value, naming its row and column. Annotation files map feature
IDs to chromosomes `1`..`22`, `X`, `Y`, or `NA`.
`preprocess` runs one fixed recipe; its two keys, `missing_threshold` and
`log2_expression`, describe the input and switch no rule off.

A dataset cache (`.omids`) is a container of tensors and tab-joined name
lists, with an empty config block. Tensors: `expression`, then
`methyl.block00`, `methyl.block01`, ..., then `labels` (class indices as
float64, -1 for unlabeled). Name lists: `sample_ids`; `expression_features`
beside `expression`; `block_chromosomes` and one `blockNN.features` per
block beside the blocks; `class_vocab` beside `labels`. The name lists
alone give the layout, so a tensor they do not describe, or one they
describe that is missing, is a `FormatError`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .container import (
    decode_str_list,
    encode_str_list,
    read_container,
    write_container,
    write_text_atomic,
)
from .errors import FormatError, ValidationError
from .numerics import RngState

DATASET_MAGIC = b"OMIDS1"
DATASET_VERSION = 1

INFER_ROWS = 1024  # rows a pass outside training gathers at once (`OmicsDataset.chunks`)

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


def checked_ids(ids, what: str, where: str, path: str) -> list[str]:
    """`ids` stripped. An empty one, named by its `where` (`row` or
    `column`, the first ID at 2), or a repeated one is a `ValidationError`."""
    ids = [i.strip() for i in ids]
    if "" in ids:
        raise ValidationError(f"{path}: empty {what} ID in {where} {ids.index('') + 2}")
    seen: set[str] = set()
    for i in ids:
        if i in seen:
            raise ValidationError(f"{path}: duplicate {what} ID {i!r}")
        seen.add(i)
    return ids


def _raw_lines(path: str):
    """Yield each line of the text file at `path` without its line end.

    The one reader of text files: UTF-8, and a line ends at `\n`, `\r\n` or
    `\r` only (universal newlines), so a cell may hold U+0085, U+2028 and
    the other characters `str.splitlines()` would also break at. A file
    that cannot be read or is not UTF-8 text is a `ValidationError`.
    """
    try:
        with open(path, encoding="utf-8") as fh:  # universal newlines
            for line in fh:
                yield line.removesuffix("\n")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None


def _tsv_lines(path: str):
    """Yield `(lineno, cells)` for each of the `_raw_lines` of `path`, from
    1, split at every tab."""
    for lineno, line in enumerate(_raw_lines(path), start=1):
        yield lineno, line.split("\t")


def tsv_header(path: str):
    """The header cells of the TSV at `path` and `_tsv_lines` of the rest."""
    lines = _tsv_lines(path)
    for _, header in lines:
        return header, lines
    raise ValidationError(f"{path}: empty file")


class _Irregular(Exception):
    """A body line that numpy's reader would read otherwise than the
    per-cell loop."""


def tsv_numeric_body(path: str, width: int, trailing: bool = False):
    """`(first cells, rows x width float64 values, last cells)` of the lines
    below the header of the TSV at `path`, read by numpy's C text reader;
    `last cells` holds a row's trailing cell when `trailing` (an embedding's
    class) and is empty otherwise. None where the per-cell loop of
    `read_numeric_body` must read the file instead, so that only that loop
    reports errors.

    An exact `NA` cell becomes `nan` first. Every cell the C reader then
    accepts is `PyOS_string_to_double` of the stripped cell, which is what
    `float()` returns for it. A cell only `float()` takes (`1_0`, non-ASCII
    digits), one the replacement garbles (`NAN`), an empty or padded `NA`
    cell, an empty body, a row of another width or a file without data rows
    returns None; `checked_ids` checks the IDs.
    """
    ids: list[str] = []
    tails: list[str] = []

    def bodies(lines):
        for line in lines:
            if trailing:
                line, _, tail = line.rpartition("\t")
                tails.append(tail)
            # a tab ends the first cell, so only body cells can change
            head, _, body = line.replace("\tNA", "\tnan").partition("\t")
            # the C reader skips an empty line
            if not body:
                raise _Irregular
            ids.append(head)
            yield body

    lines = _raw_lines(path)
    next(lines, None)  # the header
    rows = bodies(lines)
    try:
        first = next(rows, None)
        if first is None:  # loadtxt warns on a file without data
            return None
        values = np.loadtxt(
            itertools.chain((first,), rows), dtype=np.float64, delimiter="\t",
            comments=None, quotechar=None, ndmin=2,
        )
    except (ValueError, _Irregular):
        return None
    if values.shape[1] != width:
        return None
    return ids, values, tails


def read_numeric_body(path: str, header: list[str], lines, trailing: bool = False):
    """`tsv_numeric_body` of the TSV at `path`, or where that turns the
    file down, the same read by the one per-cell loop over the `_tsv_lines`
    below `header`: `_parse_cell` of each value cell, the only reader that
    reports a ragged row, a bad cell or a body without rows. The loop stores
    each row as a float64 array and stacks the rows once, so either way the
    peak memory is about two float64 copies of the values.
    """
    width = len(header) - 1 - trailing
    body = tsv_numeric_body(path, width, trailing)
    if body is not None:
        return body
    ids: list[str] = []
    rows: list[np.ndarray] = []
    tails: list[str] = []
    for lineno, record in lines:
        if len(record) != len(header):
            raise ValidationError(
                f"{path}: ragged row {lineno}: {len(record)} cells, expected {len(header)}"
            )
        ids.append(record[0])
        tails += record[1 + width :]  # the trailing cell, if any
        cells = enumerate(record[1 : 1 + width], start=2)
        rows.append(np.array([_parse_cell(c, path, lineno, j) for j, c in cells]))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return ids, np.stack(rows), tails


def load_matrix_tsv(path: str) -> RawMatrix:
    """Read a feature-table TSV (the portal layout: one row per feature, one
    column per sample) as a samples x features matrix.

    The body is `read_numeric_body`'s, transposed once, and the IDs are
    `checked_ids`. A cell that parses to +-inf is a `ValidationError`
    naming its row and column.
    """
    header, lines = tsv_header(path)
    if len(header) < 2:
        raise ValidationError(f"{path}: header must name at least one data column")
    sample_ids = checked_ids(header[1:], "sample", "column", path)
    ids, values, _ = read_numeric_body(path, header, lines)
    feature_ids = checked_ids(ids, "feature", "row", path)
    values = np.ascontiguousarray(values.T)
    # NaN-skipping extremes copy nothing; only a failure looks for the cell
    if np.isinf(np.fmin.reduce(values, axis=None)) or np.isinf(np.fmax.reduce(values, axis=None)):
        row, col = np.argwhere(np.isinf(values.T))[0]  # in the file's layout
        raise ValidationError(f"{path}: infinite value at row {row + 2}, column {col + 2}")
    return RawMatrix(sample_ids=sample_ids, feature_ids=feature_ids, values=values)


def _load_two_column_tsv(path: str, col_a: str, col_b: str) -> dict[str, str]:
    header, lines = tsv_header(path)
    if [c.strip() for c in header[:2]] != [col_a, col_b]:
        raise ValidationError(
            f"{path}: expected header columns {col_a!r}, {col_b!r}, got {header[:2]}"
        )
    keys, values = [], []
    for lineno, record in lines:
        if len(record) < 2:
            raise ValidationError(f"{path}: row {lineno} has fewer than two columns")
        keys.append(record[0])
        values.append(record[1].strip())
    return dict(zip(checked_ids(keys, col_a.removesuffix("_id"), "row", path), values))


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
    lines = ["id\t" + "\t".join(raw.sample_ids) + "\n"]
    for j, fid in enumerate(raw.feature_ids):
        # "nan" is the only float repr that contains "nan"
        cells = "\t".join(map(repr, raw.values[:, j].tolist())).replace("nan", "NA")
        lines.append(fid + "\t" + cells + "\n")
    write_text_atomic(path, "".join(lines))


def _write_pairs_tsv(path: str, header: str, pairs: dict[str, str]) -> None:
    write_text_atomic(path, header + "\n" + "".join(f"{a}\t{b}\n" for a, b in pairs.items()))


def write_annotations_tsv(path: str, annotations: dict[str, str]) -> None:
    _write_pairs_tsv(path, "feature_id\tchromosome", annotations)


def write_labels_tsv(path: str, labels: dict[str, str]) -> None:
    _write_pairs_tsv(path, "sample_id\tclass_name", labels)


@dataclass
class OmicsDataset:
    """Aligned per-sample omics matrices in [0, 1], optionally labeled.

    Matrices are samples x features, methylation one per chromosome block.
    A present matrix names its columns: `validate` and `save` refuse
    expression without `expression_feature_ids`, or a block without its
    `methylation_block_features` list and `block_chromosomes` entry, so
    only a dataset built in memory to embed may go nameless. NaN entries
    may appear only in synthetic data made with a `missing_rate`.
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

    def _matrices(self) -> list[tuple[str, np.ndarray, str, list[str]]]:
        """`(tensor name, matrix, name-list key, feature IDs)` of each
        present matrix, in cache order, once each is a samples x features
        matrix with one feature ID per column."""
        matrices = []
        if self.expression is not None:
            matrices.append(
                ("expression", self.expression, "expression_features", self.expression_feature_ids)
            )
        if self.methylation_blocks is not None:
            blocks, features = self.methylation_blocks, self.methylation_block_features or []
            if not len(blocks) == len(features) == len(self.block_chromosomes or ()):
                raise ValidationError(
                    f"{len(blocks)} methylation blocks need as many feature ID lists and chromosomes"
                )
            matrices += [
                (f"methyl.block{j:02d}", b, f"block{j:02d}.features", ids)
                for j, (b, ids) in enumerate(zip(blocks, features))
            ]
        if not matrices:
            raise ValidationError("dataset has no modality")
        n = self.num_samples
        if n == 0:
            raise ValidationError("dataset has no samples")
        for name, m, key, ids in matrices:
            if m.ndim != 2 or m.shape[0] != n:
                raise ValidationError(f"{name} has shape {m.shape}, expected {n} rows")
            if ids is None or len(ids) != m.shape[1]:
                raise ValidationError(
                    f"{name} has {m.shape[1]} columns but {len(ids or ())} feature IDs in {key}"
                )
        return matrices

    def validate(self) -> None:
        """Refuse a dataset whose matrices lack a name for each column, hold
        NaN or values outside [0, 1], or whose labels do not index
        `class_vocab`."""
        for name, m, _, _ in self._matrices():
            # one copy-free pass each gives the range and, as minimum and
            # maximum propagate NaN, finds a missing cell; `initial` lets a
            # matrix without columns pass
            lo = np.minimum.reduce(m, axis=None, initial=np.inf)
            hi = np.maximum.reduce(m, axis=None, initial=-np.inf)
            if np.isnan(lo):
                raise ValidationError(f"{name} contains missing values")
            if lo < -1e-9 or hi > 1.0 + 1e-9:
                raise ValidationError(f"{name} has values outside [0, 1]")
        if self.labels is not None:
            if self.labels.shape != (self.num_samples,):
                raise ValidationError("labels length mismatch")
            if self.class_vocab is None:
                raise ValidationError("labels present but class vocabulary missing")
            if not np.isin(self.labels, np.arange(-1, len(self.class_vocab))).all():
                raise ValidationError("labels are not indices into class_vocab, or -1")

    def batch(self, indices) -> tuple[np.ndarray | None, list[np.ndarray] | None]:
        indices = np.asarray(indices)
        x_expr = self.expression[indices] if self.expression is not None else None
        x_blocks = (
            [b[indices] for b in self.methylation_blocks]
            if self.methylation_blocks is not None
            else None
        )
        return x_expr, x_blocks

    def chunks(self, indices):
        """`(rows, x_expr, x_blocks)` for consecutive runs of at most
        `INFER_ROWS` of `indices`, in order. Every pass outside training
        reads its inputs here, so its memory scales with the chunk, not
        with the cohort."""
        indices = np.asarray(indices)
        for start in range(0, indices.size, INFER_ROWS):
            rows = indices[start : start + INFER_ROWS]
            yield (rows, *self.batch(rows))

    def save(self, path: str) -> None:
        """Write the cache: each matrix as a tensor beside its name list, the
        labels beside `class_vocab`, and an empty config block."""
        matrices = self._matrices()
        tensors = [(name, m) for name, m, _, _ in matrices]
        metadata = {key: encode_str_list(ids) for _, _, key, ids in matrices}
        metadata["sample_ids"] = encode_str_list(self.sample_ids)
        if self.methylation_blocks is not None:
            metadata["block_chromosomes"] = encode_str_list(self.block_chromosomes)
        if self.labels is not None:
            tensors.append(("labels", self.labels.astype(np.float64)))
            metadata["class_vocab"] = encode_str_list(self.class_vocab)
        write_container(path, DATASET_MAGIC, DATASET_VERSION, {}, tensors, metadata)

    @classmethod
    def load(cls, path: str) -> "OmicsDataset":
        """Read a cache, its layout off its name lists (see the module
        docstring); a cache `validate` refuses is a `FormatError`. The
        config block, which older caches filled, is not read."""
        _, tensor_list, metadata = read_container(path, DATASET_MAGIC, DATASET_VERSION)
        tensors = dict(tensor_list)

        def names(key: str) -> list[str] | None:
            return decode_str_list(metadata[key]) if key in metadata else None

        ds = cls(
            sample_ids=names("sample_ids"),
            expression_feature_ids=names("expression_features"),
            block_chromosomes=names("block_chromosomes"),
            class_vocab=names("class_vocab"),
        )
        blocks = [f"block{j:02d}" for j in range(len(ds.block_chromosomes or ()))]
        described = (
            ["expression"] * (ds.expression_feature_ids is not None)
            + [f"methyl.{b}" for b in blocks]
            + ["labels"] * (ds.class_vocab is not None)
        )
        found = [name for name, _ in tensor_list]
        if found != described:
            raise FormatError(
                f"{path}: the cache holds tensors {found}, its name lists describe {described}"
            )
        if ds.sample_ids is None:
            raise FormatError(f"{path}: dataset cache is missing 'sample_ids'")
        ds.expression = tensors.get("expression")
        if ds.block_chromosomes is not None:
            ds.methylation_blocks = [tensors[f"methyl.{b}"] for b in blocks]
            ds.methylation_block_features = [names(f"{b}.features") for b in blocks]
        ds.labels = tensors.get("labels")  # float64 class indices, cast once validated
        try:
            ds.validate()  # a cache holds preprocessed values only: no NaN
        except ValidationError as exc:
            raise FormatError(f"{path}: {exc}") from None
        if ds.labels is not None:
            ds.labels = ds.labels.astype(np.int64)
        return ds


@dataclass(frozen=True)
class PreprocessConfig:
    """The input's description: the largest fraction of samples a kept
    feature may miss, and whether expression is raw counts (>= 0) to take
    `log2(x + 1)` of first. Every rule of `preprocess` always runs."""

    missing_threshold: float = 0.10
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


def _filter_features(
    modality: str, values: np.ndarray, features: list[str], rules, threshold: float, removed: dict
) -> tuple[np.ndarray, list[str], int]:
    """Drop the features each `(rule, hit)` mask hits, in order, then those
    missing in more than `threshold` of samples, counting each under the
    first rule that hits it. Returns the kept columns, imputed, their IDs and
    the imputed cell count."""
    keep = np.ones(len(features), dtype=bool)
    for rule, hit in [*rules, ("high_missing", np.isnan(values).mean(axis=0) > threshold)]:
        hit &= keep
        removed[rule] = int(hit.sum())
        keep &= ~hit
    features = [f for f, k in zip(features, keep) if k]
    if not features:
        raise ValidationError(f"no {modality} features survive filtering")
    values = values[:, keep]
    return values, features, _impute_feature_means(values)


def preprocess(
    expression: RawMatrix | None,
    methylation: RawMatrix | None,
    annotations: dict[str, str],
    config: PreprocessConfig | None = None,
    labels: dict[str, str] | None = None,
) -> tuple[OmicsDataset, PreprocessReport]:
    """Filter, impute, scale and group raw matrices into a dataset.

    One fixed recipe, in order: take `log2(x + 1)` of expression if
    `log2_expression` (a negative count is a `ValidationError`); drop
    methylation probes on no chromosome (`NA` or not in `annotations`),
    features of both modalities on Y, and expression features zero in every
    observed sample; drop features missing in strictly more than
    `missing_threshold` of samples; fill missing cells with feature means;
    min-max scale expression to [0, 1] (a constant feature becomes 0); check
    that methylation is Beta values and group it by chromosome (1..22, then
    X). An empty or absent class is unlabeled.
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
        return raw.values[np.array([pos[s] for s in sample_ids])]  # a copy

    def chromosomes(features: list[str]) -> np.ndarray:
        return np.array([annotations.get(f, "NA") for f in features], dtype=str)

    threshold = config.missing_threshold
    expr_values = expr_features = None
    if expression is not None:
        expr_values = rows_for(expression)
        if config.log2_expression:
            negative = expr_values < 0.0
            if negative.any():
                sample, feature = np.argwhere(negative)[0]
                raise ValidationError(
                    f"log2_expression: expression feature {expression.feature_ids[feature]!r} "
                    f"has a negative count {float(expr_values[sample, feature])!r} "
                    f"in sample {sample_ids[sample]!r}"
                )
            expr_values = np.log2(expr_values + 1.0)
        # an all-NaN column reduces to NaN, which is not zero
        lo, hi = np.fmin.reduce(expr_values, axis=0), np.fmax.reduce(expr_values, axis=0)
        rules = [("y_chromosome", chromosomes(expression.feature_ids) == "Y"),
                 ("all_zero", (lo == 0.0) & (hi == 0.0))]
        expr_values, expr_features, report.imputed_expression_cells = _filter_features(
            "expression", expr_values, expression.feature_ids, rules, threshold,
            report.expression_removed)
        lo = expr_values.min(axis=0)
        span = expr_values.max(axis=0) - lo
        span[span == 0.0] = 1.0  # constant features scale to 0
        expr_values -= lo  # (x - lo) / span rounds into [0, 1]: nothing to clip
        expr_values /= span
        report.expression_kept = len(expr_features)

    blocks = block_features = block_chroms = None
    if methylation is not None:
        chroms = chromosomes(methylation.feature_ids)
        rules = [("unmapped_or_control", ~np.isin(chroms, CHROMOSOMES + ("Y",))),
                 ("y_chromosome", chroms == "Y")]
        methyl_values, methyl_features, report.imputed_methylation_cells = _filter_features(
            "methylation", rows_for(methylation), methylation.feature_ids, rules, threshold,
            report.methylation_removed)
        if methyl_values.min() < -1e-6 or methyl_values.max() > 1.0 + 1e-6:
            raise ValidationError("methylation values must be Beta values in [0, 1]")
        np.clip(methyl_values, 0.0, 1.0, out=methyl_values)
        blocks, block_features, block_chroms = [], [], []
        kept_chroms = chromosomes(methyl_features)
        for chrom in CHROMOSOMES:
            cols = np.flatnonzero(kept_chroms == chrom)
            if cols.size:
                blocks.append(np.ascontiguousarray(methyl_values[:, cols]))
                block_features.append([methyl_features[i] for i in cols])
                block_chroms.append(chrom)
        report.methylation_kept = len(methyl_features)

    label_array = class_vocab = None
    if labels is not None:
        named = [labels.get(s, "") for s in sample_ids]
        class_vocab = sorted(set(named) - {""})
        index = {c: i for i, c in enumerate(class_vocab)}
        label_array = np.array([index.get(c, -1) for c in named], dtype=np.int64)
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
    dataset.validate()
    return dataset, report


def dataset_to_raw(
    dataset: OmicsDataset,
) -> tuple[RawMatrix | None, RawMatrix | None, dict[str, str]]:
    """Flatten a dataset back into raw matrices, under its own feature IDs,
    plus a chromosome annotation map."""
    expr = methyl = None
    if dataset.expression is not None:
        expr = RawMatrix(
            list(dataset.sample_ids), list(dataset.expression_feature_ids), dataset.expression.copy()
        )
    annotations: dict[str, str] = {}
    if dataset.methylation_blocks is not None:
        for ids, chrom in zip(dataset.methylation_block_features, dataset.block_chromosomes):
            annotations.update(dict.fromkeys(ids, chrom))
        methyl = RawMatrix(
            list(dataset.sample_ids),
            [fid for ids in dataset.methylation_block_features for fid in ids],
            np.concatenate(dataset.methylation_blocks, axis=1),
        )
    return expr, methyl, annotations


def restrict_modalities(
    dataset: OmicsDataset, expression: bool = True, methylation: bool = True
) -> OmicsDataset:
    """The dataset with only the named modalities, each of which it must have."""
    if not expression and not methylation:
        raise ValidationError("cannot disable every modality")
    if expression and dataset.expression is None:
        raise ValidationError("dataset has no expression modality")
    if methylation and dataset.methylation_blocks is None:
        raise ValidationError("dataset has no methylation modality")
    if not expression:
        return replace(dataset, expression=None, expression_feature_ids=None)
    if not methylation:
        return replace(
            dataset, methylation_blocks=None, methylation_block_features=None, block_chromosomes=None
        )
    return replace(dataset)


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


# the generator's fixed shape: the spread of the class signal around 0.5,
# the share of each block's features that carry it, and the dimension of
# the class factor space
CLASS_SIGNAL = 0.35
SIGNAL_FRACTION = 0.7
LATENT_FACTORS = 6


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator for class-structured data shaped like the real pipeline's output.

    Each class owns a point in a `LATENT_FACTORS`-dimensional factor space,
    shared by all its samples; the factors mix through fixed random maps
    into a `SIGNAL_FRACTION` share of every feature block, scaled by
    `CLASS_SIGNAL` around 0.5. With `split_signal`, expression
    sees only one factor subspace and methylation only the other, so neither
    modality alone identifies the class. Noise and missing cells come last.
    """

    num_classes: int = 10
    samples_per_class: int = 60
    num_blocks: int = 5
    features_per_block: int = 200
    expr_features: int = 400
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
        if not 0.0 <= self.missing_rate <= 1.0:
            raise ValidationError("missing_rate must be in [0, 1]")
        if self.noise_sd < 0.0:
            raise ValidationError("noise_sd must be >= 0")


def synthesize(spec: SyntheticSpec) -> OmicsDataset:
    """Deterministic class-structured dataset; see SyntheticSpec for the recipe.

    Each feature group's values and the labels are allocated before the
    first draw, so a cohort numpy cannot allocate is a `ValidationError`
    naming its bytes, as `ParameterArena` refuses an unallocatable model.
    """
    k, spc, latent = spec.num_classes, spec.samples_per_class, LATENT_FACTORS
    n = k * spc
    widths = [spec.features_per_block] * spec.num_blocks + [spec.expr_features]
    try:
        groups = [np.empty((n, width)) for width in widths]
        labels = np.repeat(np.arange(k, dtype=np.int64), spc)
    except (MemoryError, ValueError):  # ValueError: more elements than an index holds
        raise ValidationError(f"the synthetic cohort needs {8 * n * (sum(widths) + 1)} bytes, "
                              "which numpy cannot allocate") from None

    root = RngState(spec.seed)
    rng_factors = root.derive(0)
    rng_mix = root.derive(1)
    rng_noise = root.derive(2)
    rng_missing = root.derive(3)

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

    sample_factors = class_factors[labels]

    def fill_group(values: np.ndarray, factor_mask: np.ndarray) -> None:
        num_features = values.shape[1]
        mixing = rng_mix.standard_normal(latent, num_features) / np.sqrt(latent)
        rng_mix.uniform(-1.0, 1.0, num_features)  # unused: keeps every later draw the same
        signal_count = int(round(SIGNAL_FRACTION * num_features))
        signal_cols = np.sort(rng_mix.choice(num_features, size=signal_count, replace=False))
        mixed = (sample_factors * factor_mask) @ mixing
        values[...] = 0.5
        values[:, signal_cols] = 0.5 + CLASS_SIGNAL * mixed[:, signal_cols]
        if spec.noise_sd > 0.0:
            values += spec.noise_sd * rng_noise.standard_normal(*values.shape)
        np.clip(values, 0.0, 1.0, out=values)
        if spec.missing_rate > 0.0:
            mask = rng_missing.uniform(0.0, 1.0, values.shape) < spec.missing_rate
            values[mask] = np.nan

    # the mixing, noise and missing-cell streams are separate: each draws
    # for the blocks, then for expression
    for values, factor_mask in zip(groups, [methyl_mask] * spec.num_blocks + [expr_mask]):
        fill_group(values, factor_mask)
    *blocks, expression = groups

    return OmicsDataset(
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
