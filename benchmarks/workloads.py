"""The workloads: inputs made from a seed, the timed round, the checks.

A workload's `setup` writes the program's inputs for one seed into a fresh
directory. A round runs the program on them, one operation per CLI command
or library call, and returns its timings. `check` runs once after the timed
part on the first round's outputs and returns the quality metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from omivae import cli, data, evaluation, optim
from omivae.losses import LossWeights
from omivae.model import ModelConfig, build_model
from omivae.numerics import RngState

NO_EARLY_STOP = ("--set", "train.patience=1000000")  # so every run trains its fixed epochs


class Ops:
    """Runs a round's operations, counting attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds: dict[str, float] = {}

    def cli(self, label: str, *argv: str) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        self.seconds[label] = time.perf_counter() - t0
        self.failed += code != 0

    def call(self, label: str, fn, *args):
        """A library call; an error in it ends the run, as a bug in the
        benchmark would."""
        self.attempted += 1
        t0 = time.perf_counter()
        result = fn(*args)
        self.seconds[label] = time.perf_counter() - t0
        return result


@dataclass
class Round:
    ops: Ops
    work: dict[str, float]  # units of work done by the stage behind each rate
    kept: dict[str, object] = field(default_factory=dict)  # objects the checks need


def digest(directory: str) -> str:
    """Hash of every output file, to show each round reproduces the first."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isdir(path):
            h.update(digest(path).encode())
        else:
            with open(path, "rb") as fh:
                h.update(name.encode() + fh.read())
    return h.hexdigest()


# ------------------------------------------------------------------ inputs

STEPS = 10_000  # TSV values are multiples of 1/STEPS, so parsing them is exact


def quantize(values: np.ndarray) -> np.ndarray:
    """Round to the TSV grid; k / STEPS is the double that parsing "0.kkkk" gives."""
    return np.rint(values * STEPS) / STEPS


def write_tsv(path: str, sample_ids, feature_ids, values: np.ndarray) -> None:
    """Feature-table TSV of quantized values in [0, 1], NaN as NA."""
    table = np.array([f"{k / STEPS:.4f}" for k in range(STEPS + 1)] + ["NA"], dtype=object)
    codes = np.where(np.isnan(values), STEPS + 1, np.rint(np.nan_to_num(values) * STEPS)).astype(
        np.int64
    )
    with open(path, "w") as fh:
        fh.write("id\t" + "\t".join(sample_ids) + "\n")
        for j, fid in enumerate(feature_ids):
            fh.write(fid + "\t" + "\t".join(table[codes[:, j]]) + "\n")


def write_pairs(path: str, header: tuple[str, str], pairs) -> None:
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        fh.writelines(f"{a}\t{b}\n" for a, b in pairs)


TSV_KINDS = ("expression", "methylation", "annotations", "labels")


@dataclass
class Inputs:
    directory: str
    files: dict[str, str]
    labels: np.ndarray
    expected: object = None  # the cache the generating matrices imply (ingest-analyze)


def tsv_inputs(directory: str, ds, methyl_order, decoys) -> Inputs:
    """Write `ds` as expression/methylation/annotation/label TSVs.

    `methyl_order` permutes the methylation columns after `decoys` are
    appended: (expr ids, expr values, expr chromosomes, methyl ids, methyl
    values, methyl chromosomes), features preprocessing must drop.
    """
    os.makedirs(directory, exist_ok=True)
    files = {k: os.path.join(directory, f"{k}.tsv") for k in TSV_KINDS}
    d_expr_ids, d_expr, d_expr_chrom, d_methyl_ids, d_methyl, d_methyl_chrom = decoys
    expr_ids = list(ds.expression_feature_ids) + d_expr_ids
    expr = np.concatenate([ds.expression, d_expr], axis=1)
    methyl_ids = [f for feats in ds.methylation_block_features for f in feats] + d_methyl_ids
    methyl = np.concatenate([*ds.methylation_blocks, d_methyl], axis=1)
    chrom = {
        f: c
        for feats, c in zip(ds.methylation_block_features, ds.block_chromosomes)
        for f in feats
    }
    chrom.update(zip(d_expr_ids, d_expr_chrom))
    chrom.update(zip(d_methyl_ids, d_methyl_chrom))
    methyl_ids = [methyl_ids[i] for i in methyl_order]
    methyl = methyl[:, methyl_order]
    write_tsv(files["expression"], ds.sample_ids, expr_ids, expr)
    # methylation lists the samples in reverse, so preprocessing must align them
    write_tsv(files["methylation"], ds.sample_ids[::-1], methyl_ids, methyl[::-1])
    write_pairs(files["annotations"], ("feature_id", "chromosome"), chrom.items())
    write_pairs(
        files["labels"],
        ("sample_id", "class_name"),
        ((s, ds.class_vocab[c]) for s, c in zip(ds.sample_ids, ds.labels)),
    )
    return Inputs(directory, files, ds.labels)


def train_samples(n_train: int, batch: int, epochs: int) -> int:
    """Samples one run of `epochs` steps over; a last batch of one is skipped."""
    return (n_train - (1 if n_train % batch == 1 else 0)) * epochs


# ------------------------------------------------------------------ crossval-b23

B23 = dict(num_blocks=23, expr_features=2000)
B23_K = 4
B23_BATCH = 128
B23_EPOCHS = (1, 4)


def b23_setup(directory: str, seed: int) -> Inputs:
    ds = data.synthesize(data.SyntheticSpec(seed=seed, **B23))
    os.makedirs(directory)
    files = {"data": os.path.join(directory, "dataset.omids")}
    ds.save(files["data"])
    return Inputs(directory, files, ds.labels)


def b23_round(inputs: Inputs, out: str, seed: int) -> Round:
    ops = Ops()
    p1, p2 = B23_EPOCHS
    ops.cli(
        "train", "crossval", "--data", inputs.files["data"], "--k", str(B23_K),
        "--out", os.path.join(out, "cv"),
        "--set", f"train.seed={seed}",
        "--set", f"train.batch_size={B23_BATCH}",
        "--set", f"train.phase1_epochs={p1}",
        "--set", f"train.phase2_epochs={p2}",
        *NO_EARLY_STOP,
    )
    folds = data.stratified_kfold(inputs.labels, B23_K, seed)
    trained = sum(
        train_samples(folds.round(r)[0].size, B23_BATCH, p1 + p2) for r in range(B23_K)
    )
    return Round(ops, {"train": trained})


def b23_check(inputs: Inputs, out: str, seed: int, kept: dict) -> dict[str, float]:
    cv = os.path.join(out, "cv")
    confusions, phase1 = [], []
    for r in range(B23_K):
        with open(os.path.join(cv, f"fold{r:02d}.confusion.tsv")) as fh:
            confusions.append(checks.parse_confusion(fh.read()))
        with open(os.path.join(cv, f"fold{r:02d}.history.tsv")) as fh:
            rows = checks.parse_history(fh.read())
        checks.check_history(rows, *B23_EPOCHS)
        phase1.append(min(row["val_total"] for row in rows if row["phase"] == 1))
    with open(os.path.join(cv, "aggregate.txt")) as fh:
        aggregate = checks.parse_aggregate(fh.read())
    checks.check_crossval(confusions, aggregate, inputs.labels)
    return {"accuracy": aggregate["accuracy_mean"], "val_loss": float(np.mean(phase1))}


# ------------------------------------------------------------------ ingest-analyze

COHORT = dict(samples_per_class=300, missing_rate=0.02)
PCA_SAMPLE = 128  # Jacobi sym_eig on the Gram matrix grows ~n^3: 128 keeps it seconds
PCA_COMPONENTS = 16
DECOYS = 20  # of each kind of probe and gene that preprocessing must drop


@dataclass
class Expected:
    sample_ids: list[str]
    expression_features: list[str]
    expression: np.ndarray
    block_chromosomes: list[str]
    block_features: list[list[str]]
    blocks: list[np.ndarray]
    labels: np.ndarray


def impute(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    rows, cols = np.nonzero(np.isnan(out))
    out[rows, cols] = np.nanmean(values, axis=0)[cols]
    return out


def cohort_inputs(directory: str, ds, seed: int, decoy_count: int = DECOYS) -> Inputs:
    """TSVs of `ds` with decoy features and shuffled probe order, plus the
    cache they must preprocess into.

    Decoys: Y-chromosome and all-zero genes; Y, unmapped and 25%-missing
    probes. The expected cache drops them, fills missing cells with the
    feature mean, min-max scales expression, and groups probes by
    chromosome in file order.
    """
    rng = RngState(seed).derive(101)
    n = ds.num_samples
    d = decoy_count
    sparse = quantize(rng.uniform(0.0, 1.0, (n, d)))
    sparse[(np.arange(n)[:, None] + np.arange(d)) % 4 == 0] = np.nan
    decoys = (
        [f"ygene{i:03d}" for i in range(d)] + ["zerogene"],
        np.concatenate([quantize(rng.uniform(0.0, 1.0, (n, d))), np.zeros((n, 1))], axis=1),
        ["Y"] * d + ["1"],
        [f"decoy{i:03d}" for i in range(3 * d)],
        np.concatenate([quantize(rng.uniform(0.0, 1.0, (n, 2 * d))), sparse], axis=1),
        ["Y"] * d + ["NA"] * d + [ds.block_chromosomes[0]] * d,
    )
    methyl_ids = [f for feats in ds.methylation_block_features for f in feats]
    order = rng.permutation(len(methyl_ids) + 3 * d)
    inputs = tsv_inputs(directory, ds, order, decoys)

    expr = impute(ds.expression)
    lo, hi = expr.min(axis=0), expr.max(axis=0)
    span = np.where(hi - lo == 0.0, 1.0, hi - lo)
    chrom_of = [c for feats, c in zip(ds.methylation_block_features, ds.block_chromosomes) for _ in feats]
    by_chrom = {c: [] for c in ds.block_chromosomes}
    for i in order:
        if i < len(methyl_ids):
            by_chrom[chrom_of[i]].append(i)
    methyl = impute(np.concatenate(ds.methylation_blocks, axis=1))
    inputs.expected = Expected(
        sample_ids=list(ds.sample_ids),
        expression_features=list(ds.expression_feature_ids),
        expression=np.clip((expr - lo) / span, 0.0, 1.0),
        block_chromosomes=list(ds.block_chromosomes),
        block_features=[[methyl_ids[i] for i in cols] for cols in by_chrom.values()],
        blocks=[methyl[:, cols] for cols in by_chrom.values()],
        labels=ds.labels,
    )
    return inputs


def ingest_setup(directory: str, seed: int) -> Inputs:
    """The cohort's TSVs and an untrained checkpoint.

    The checkpoint stands for a released model, the same for every seed:
    the loss of an untrained model moves by a sixth with its initialisation,
    which would drown `val_loss`; only the cohort varies with the seed.
    """
    ds = data.synthesize(data.SyntheticSpec(seed=seed, **COHORT))
    ds.expression = quantize(ds.expression)
    ds.methylation_blocks = [quantize(b) for b in ds.methylation_blocks]
    inputs = cohort_inputs(directory, ds, seed)
    config = ModelConfig(
        methyl_block_dims=ds.methyl_block_dims,
        expr_dim=ds.expr_dim,
        num_classes=len(ds.class_vocab),
    )
    inputs.files["checkpoint"] = os.path.join(directory, "seeded.omvae")
    optim.save_checkpoint(inputs.files["checkpoint"], build_model(config, RngState(0)))
    return inputs


def ingest_round(inputs: Inputs, out: str, seed: int) -> Round:
    ops = Ops()
    f = inputs.files
    cache = os.path.join(out, "data.omids")
    ckpt = f["checkpoint"]
    embedding = os.path.join(out, "embedding.tsv")
    ops.cli("preprocess", "preprocess", "--expression", f["expression"],
            "--methylation", f["methylation"], "--annotations", f["annotations"],
            "--labels", f["labels"], "--out", cache)
    ops.cli("embed", "embed", "--checkpoint", ckpt, "--data", cache, "--out", embedding)
    ops.cli("evaluate", "evaluate", "--checkpoint", ckpt, "--data", cache,
            "--out", os.path.join(out, "eval.txt"), "--confusion", os.path.join(out, "confusion.tsv"))
    ops.cli("plot", "plot", "--embedding", embedding, "--out", os.path.join(out, "embedding.svg"))

    dataset = ops.call("load", data.OmicsDataset.load, cache)
    matrix = evaluation.dataset_matrix(dataset)
    sample = matrix[np.sort(RngState(seed).derive(103).choice(matrix.shape[0], PCA_SAMPLE))]
    pca = ops.call("pca_fit", evaluation.pca_fit, sample, PCA_COMPONENTS)
    scores = ops.call("pca_transform", evaluation.pca_transform, pca, matrix)
    # the probe fits one stratified fifth and is scored on the rest; its
    # full-batch iterations cost in proportion to the rows it fits
    folds = data.stratified_kfold(dataset.labels, 5, seed)
    train = folds.folds[0]
    test = np.sort(np.concatenate(folds.folds[1:]))
    probe = ops.call("train", evaluation.probe_fit, scores[train], dataset.labels[train])
    predicted = ops.call("probe_predict", evaluation.probe_predict, probe, scores[test])
    accuracy = float(np.mean(predicted == dataset.labels[test]))
    work = {"train": train.size * len(probe.loss_history)}
    return Round(ops, work, {"pca": pca, "sample": sample, "probe": probe, "accuracy": accuracy})


def ingest_check(inputs: Inputs, out: str, seed: int, kept: dict) -> dict[str, float]:
    dataset = data.OmicsDataset.load(os.path.join(out, "data.omids"))
    checks.check_cache(dataset, inputs.expected)
    checkpoint = optim.load_checkpoint(inputs.files["checkpoint"])
    model = checkpoint.build()
    ids, parsed, _ = evaluation.read_embedding_tsv(os.path.join(out, "embedding.tsv"))
    checks.check_roundtrip(ids, parsed, dataset.sample_ids, evaluation.embed_dataset(model, dataset))
    x_expr, x_blocks = dataset.batch(np.arange(dataset.num_samples))
    checks.check_rows(parsed, checks.reference_embed(dict(checkpoint.tensors), x_expr, x_blocks),
                      "the reference encoder")
    alone = np.sort(RngState(seed).derive(104).choice(dataset.num_samples, 64))
    singles = np.concatenate([model.embed(*dataset.batch([i])) for i in alone], axis=0)
    checks.check_rows(parsed[alone], singles, "the samples embedded alone")
    checks.check_pca(kept["pca"].axes, kept["pca"].explained_variance, kept["sample"])
    checks.check_probe_monotone(kept["probe"].loss_history)
    with open(os.path.join(out, "embedding.svg")) as fh:
        checks.check_scatter(fh.read(), dataset.num_samples)
    every = np.arange(dataset.num_samples)
    losses, _ = optim.evaluate_losses(model, dataset, every, LossWeights(alpha=1.0, beta=1.0))
    return {"accuracy": kept["accuracy"], "val_loss": losses.total}


@dataclass
class Workload:
    name: str
    setup: object
    round: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("crossval-b23", b23_setup, b23_round, b23_check),
        Workload("ingest-analyze", ingest_setup, ingest_round, ingest_check),
    )
}
