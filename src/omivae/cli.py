"""Command-line interface: synth, preprocess, train, crossval, embed, evaluate, plot.

Exit codes: 0 success, 1 validation error (bad inputs, bad config, among
them a model or synthetic cohort numpy cannot allocate), 2 runtime or
numeric error, among them a file system error and running out of memory
past those checks. Errors print a single machine-parseable line
`omivae: error: <category>: <message>` on stderr. `train` runs both
phases; `--set train.phase1_epochs=0` or `--set train.phase2_epochs=0`
skips one, and `--resume` continues from a checkpoint, whose architecture
it keeps: a `model.*` key that `--config` or `--set` gives must agree with
the checkpoint's. The OMIVAE_THREADS environment variable, a positive
integer, caps fold-level parallelism in crossval (default 1); while its
folds run, numpy's bundled OpenBLAS uses at most `cores // OMIVAE_THREADS`
threads, so fold threads and BLAS threads do not oversubscribe the cores.
OpenBLAS's GEMM results can differ in the last bits with its thread count
(`(128x400) @ (400x256)` does at 1 and 2 threads), so the outputs of
`train` and of `crossval` at one fold thread, which run OpenBLAS's default
count, depend on the machine's cores.
`OPENBLAS_NUM_THREADS=1` reproduces the bytes of a one-thread run on a CPU
that selects the same kernel: numpy's OpenBLAS picks its GEMM kernel by CPU.
A checkpoint meets a cache in `embed`, `evaluate` and `train --resume`, and
there its input widths are checked against the cache's, once; a model that
`train` or `crossval` builds takes its widths from the cache.
Every output file is written as UTF-8 and replaced
atomically: a run that stops part-way leaves each file whole, old or new.
Checkpoints and dataset caches stream to and from disk one tensor at a
time, so saving either, or loading a cache, holds a single copy of its
tensors. Every command that loads a checkpoint holds two while it builds
the model: the loaded tensors and the model's arena they are copied into.
Training holds four arrays the size of the model's parameters (the arena,
the best-epoch snapshot and Adam's two moments) and one gradient slab at
a time: backward forms each row slab of a weight gradient, or a whole
bias or batch-norm gradient, and hands it to Adam, which steps it and
keeps none; each crossval fold thread holds its own. Building a model
holds its arena alone: each layer draws its initialization into it in
place. Every pass outside training (validation, `embed`, `evaluate` and
each crossval test fold) gathers at most `data.INFER_ROWS` rows at a
time, so its memory scales with that chunk, not with the cohort.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np

from .config import RunConfig, load_run_config
from .container import format_value, write_text_atomic
from .data import (
    OmicsDataset,
    dataset_to_raw,
    load_annotations,
    load_labels,
    load_matrix_tsv,
    preprocess,
    restrict_modalities,
    stratified_kfold,
    synthesize,
    write_annotations_tsv,
    write_labels_tsv,
    write_matrix_tsv,
)
from .errors import OmiVaeError, ValidationError
from .evaluation import compute_metrics, export_embedding, predict_classes, render_scatter
from .model import ModelConfig, build_model
from .numerics import RngState
from .optim import TrainConfig, load_checkpoint, save_checkpoint, train_two_phase


def _load_dataset(path: str, run: RunConfig) -> OmicsDataset:
    """The `--data` cache cut to the modalities `model.modalities` names."""
    return restrict_modalities(OmicsDataset.load(path), *run.modalities())


def _train_val_split(dataset: OmicsDataset, config: TrainConfig):
    """Hold out one stratified fold of about `val_fraction` of the samples
    for validation (a random share if any sample is unlabeled)."""
    folds = max(2, round(1.0 / config.val_fraction))
    if dataset.labels is not None and (dataset.labels >= 0).all():
        counts = np.bincount(dataset.labels)
        small = np.flatnonzero((counts > 0) & (counts < folds))
        if small.size:
            raise ValidationError(
                f"train.val_fraction={config.val_fraction!r} holds out one of {folds} "
                f"stratified folds, so each class needs {folds} samples; class "
                f"{dataset.class_vocab[small[0]]!r} has {counts[small[0]]}"
            )
        split = stratified_kfold(dataset.labels, folds, config.seed)
        val_idx = split.folds[0]
        train_idx = np.sort(np.concatenate(split.folds[1:]))
    else:
        order = RngState(config.seed).derive(9).permutation(dataset.num_samples)
        n_val = max(1, round(dataset.num_samples / folds))
        val_idx = np.sort(order[:n_val])
        train_idx = np.sort(order[n_val:])
    return train_idx, val_idx


def cmd_synth(args) -> int:
    run = load_run_config(args.config, args.set)
    spec = run.synthetic_spec()
    dataset = synthesize(spec)
    os.makedirs(args.out, exist_ok=True)
    expr_raw, methyl_raw, annotations = dataset_to_raw(dataset)
    write_matrix_tsv(os.path.join(args.out, "expression.tsv"), expr_raw)
    write_matrix_tsv(os.path.join(args.out, "methylation.tsv"), methyl_raw)
    write_annotations_tsv(os.path.join(args.out, "annotations.tsv"), annotations)
    labels = {
        sid: dataset.class_vocab[dataset.labels[i]]
        for i, sid in enumerate(dataset.sample_ids)
    }
    write_labels_tsv(os.path.join(args.out, "labels.tsv"), labels)
    processed, _report = preprocess(
        expr_raw, methyl_raw, annotations, run.preprocess_config(), labels=labels
    )
    processed.save(os.path.join(args.out, "dataset.omids"))
    print(
        f"synthesized {dataset.num_samples} samples, "
        f"{len(dataset.methylation_blocks)} methylation blocks, "
        f"{dataset.expr_dim} expression features -> {args.out}"
    )
    return 0


def cmd_preprocess(args) -> int:
    if args.expression is None and args.methylation is None:
        raise ValidationError("provide --expression and/or --methylation")
    run = load_run_config(args.config, args.set)
    expression = load_matrix_tsv(args.expression) if args.expression else None
    methylation = load_matrix_tsv(args.methylation) if args.methylation else None
    annotations = load_annotations(args.annotations) if args.annotations else {}
    labels = load_labels(args.labels) if args.labels else None
    dataset, report = preprocess(
        expression, methylation, annotations, run.preprocess_config(), labels=labels
    )
    dataset.save(args.out)
    report_path = args.report or args.out + ".report.txt"
    write_text_atomic(report_path, report.to_text())
    print(report.to_text(), end="")
    print(f"wrote {args.out}")
    return 0


def _require_two_classes(dataset: OmicsDataset, what: str) -> None:
    """Refuse a labeled dataset whose vocabulary names fewer than two classes."""
    if dataset.labels is not None and len(dataset.class_vocab) < 2:
        raise ValidationError(
            f"{what} needs at least two classes, the dataset names {dataset.class_vocab}"
        )


def _check_fits(model, dataset: OmicsDataset) -> None:
    """Refuse a cache whose input widths differ from those a loaded model
    reads. Equal widths mean the same modalities and block count, and the
    cache's own check makes its modalities agree on rows."""
    cfg = model.config
    for name, reads, has in (
        ("expression width", cfg.expr_dim, dataset.expr_dim),
        ("methylation block widths", cfg.methyl_block_dims, dataset.methyl_block_dims),
    ):
        if reads != has:
            raise ValidationError(f"the checkpoint reads {name} {reads}, the cache has {has}")


def _check_architecture(run: RunConfig, config: ModelConfig) -> None:
    """Refuse a `model.*` key that the run gives and a resumed checkpoint's
    architecture disagrees with."""
    for f in fields(ModelConfig):
        key, saved = f"model.{f.name}", getattr(config, f.name)
        if key in run.given and run[key] != saved:
            raise ValidationError(f"--resume keeps the checkpoint's architecture, whose {key} "
                                  f"is {format_value(saved)}, not {format_value(run[key])}")


def _fit(dataset, run: RunConfig, train_cfg: TrainConfig, stream: RngState, resume_path=None):
    if resume_path is not None:
        checkpoint = load_checkpoint(resume_path)
        _check_architecture(run, checkpoint.config)
        model = checkpoint.build()
        _check_fits(model, dataset)
    else:
        model = build_model(run.model_config(dataset), stream.derive(0))
    train_idx, val_idx = _train_val_split(dataset, train_cfg)
    history = train_two_phase(model, dataset, train_idx, val_idx, train_cfg, rng=stream)
    return model, history


def cmd_train(args) -> int:
    run = load_run_config(args.config, args.set)
    dataset = _load_dataset(args.data, run)
    train_cfg = run.train_config()
    if train_cfg.phase2_epochs > 0:
        _require_two_classes(dataset, "the classifier phase (skipped by train.phase2_epochs=0)")
    stream = RngState(train_cfg.seed)
    model, history = _fit(dataset, run, train_cfg, stream, resume_path=args.resume)
    last = history.records[-1] if history.records else None
    # the last phase that finished an epoch, 0 if none did
    metadata = {"phase": str(last.phase if last else 0), "epochs_run": str(len(history.records))}
    for ph, metric in history.best_metric.items():
        metadata[f"best_metric.phase{ph}"] = repr(float(metric))
        metadata[f"best_epoch.phase{ph}"] = str(history.best_epoch[ph])
    save_checkpoint(args.out, model, metadata=metadata)
    history_path = args.history or args.out + ".history.tsv"
    write_text_atomic(history_path, history.to_tsv())
    if history.diverged:
        print(f"training diverged ({history.diverged}); best snapshot saved", file=sys.stderr)
    if last is not None:
        print(
            f"trained {len(history.records)} epochs; "
            f"final val total {last.val.total:.4f}, val accuracy {last.val_accuracy:.4f}"
        )
    print(f"wrote {args.out}")
    return 0


def _run_fold(fold, dataset, run, base_cfg):
    r, (train_idx, val_idx, test_idx) = fold
    stream = RngState(base_cfg.seed).derive(3).derive(r)
    model = build_model(run.model_config(dataset), stream.derive(0))
    history = train_two_phase(model, dataset, train_idx, val_idx, base_cfg, rng=stream)
    predicted = predict_classes(model, dataset, test_idx)
    report = compute_metrics(dataset.labels[test_idx], predicted, model.config.num_classes)
    return r, report, history


def _fold_threads() -> int:
    """The fold-thread cap from OMIVAE_THREADS (default 1)."""
    text = os.environ.get("OMIVAE_THREADS", "1")
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValidationError(f"OMIVAE_THREADS must be a positive integer, got {text!r}")
    return threads


def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy, or None where numpy links another BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy loaded, not a second one
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _blas_threads_per_fold(fold_threads: int):
    """Cap OpenBLAS at `max(1, cores // fold_threads)` threads for the body,
    then restore the old count; lower a count only, never raise it."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    old = get()
    set_(min(old, max(1, len(os.sched_getaffinity(0)) // fold_threads)))
    try:
        yield
    finally:
        set_(old)


def cmd_crossval(args) -> int:
    threads = _fold_threads()
    run = load_run_config(args.config, args.set)
    dataset = _load_dataset(args.data, run)
    if dataset.labels is None:
        raise ValidationError("cross-validation requires a labeled dataset")
    _require_two_classes(dataset, "cross-validation")
    train_cfg = run.train_config()
    folds = stratified_kfold(dataset.labels, args.k, train_cfg.seed)
    work = [(r, folds.round(r)) for r in range(args.k)]
    os.makedirs(args.out, exist_ok=True)
    with _blas_threads_per_fold(threads), ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda item: _run_fold(item, dataset, run, train_cfg), work))

    metric_rows = []
    for r, report, history in results:
        prefix = os.path.join(args.out, f"fold{r:02d}")
        write_text_atomic(prefix + ".report.txt", report.to_text(dataset.class_vocab))
        write_text_atomic(prefix + ".confusion.tsv", report.confusion_tsv(dataset.class_vocab))
        write_text_atomic(prefix + ".history.tsv", history.to_tsv())
        metric_rows.append(
            (report.accuracy, report.weighted_precision, report.weighted_recall, report.weighted_f1)
        )
    # a round needs k >= 3 folds, so every sd below is defined
    columns = np.array(metric_rows).T
    means = [float(c.mean()) for c in columns]
    sds = [float(c.std(ddof=1)) for c in columns]
    names = ("accuracy", "weighted_precision", "weighted_recall", "weighted_f1")
    lines = []
    for name, mean, sd in zip(names, means, sds):
        lines += [f"{name}_mean={mean!r}", f"{name}_sd={sd!r}"]
    for r, report, _ in results:
        lines.append(f"fold{r:02d}.accuracy={repr(report.accuracy)}")
    write_text_atomic(os.path.join(args.out, "aggregate.txt"), "\n".join(lines) + "\n")
    print(f"{args.k}-fold accuracy: {means[0] * 100:.2f}±{sds[0] * 100:.2f}%")
    return 0


def _load_trained(args):
    """The model of `--checkpoint` and the `--data` cache cut to its modalities."""
    model = load_checkpoint(args.checkpoint).build()
    dataset = restrict_modalities(
        OmicsDataset.load(args.data),
        expression=model.config.has_expression,
        methylation=model.config.has_methylation,
    )
    _check_fits(model, dataset)
    return model, dataset


def cmd_embed(args) -> int:
    model, dataset = _load_trained(args)
    embedding = export_embedding(model, dataset, args.out)
    print(f"wrote {embedding.shape[0]}x{embedding.shape[1]} embedding to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    model, dataset = _load_trained(args)
    if dataset.labels is None or (dataset.labels < 0).any():
        raise ValidationError("evaluation requires a fully labeled dataset")
    classes = model.config.num_classes
    if len(dataset.class_vocab) < classes:
        raise ValidationError(
            f"the dataset names {len(dataset.class_vocab)} classes, "
            f"fewer than the checkpoint's {classes}"
        )
    predicted = predict_classes(model, dataset, np.arange(dataset.num_samples))
    report = compute_metrics(dataset.labels, predicted, classes)
    write_text_atomic(args.out, report.to_text(dataset.class_vocab))
    if args.confusion:
        write_text_atomic(args.confusion, report.confusion_tsv(dataset.class_vocab))
    print(f"accuracy={report.accuracy:.4f} weighted_f1={report.weighted_f1:.4f}")
    return 0


def cmd_plot(args) -> int:
    render_scatter(args.embedding, args.out)
    print(f"wrote {args.out}")
    return 0


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so they print the one error line."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="omivae",
        description="Multi-omics VAE: synthesize, preprocess, train, cross-validate, embed, evaluate, plot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset (TSVs + cache)")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("preprocess", help="filter/impute/normalize raw matrices into a cache")
    _add_config_args(p)
    p.add_argument("--expression", help="expression matrix TSV")
    p.add_argument("--methylation", help="methylation matrix TSV")
    p.add_argument("--annotations", help="feature_id/chromosome TSV")
    p.add_argument("--labels", help="sample_id/class_name TSV")
    p.add_argument("--report", help="where to write the preprocessing report")
    p.add_argument("--out", required=True, help="output dataset cache (.omids)")
    p.set_defaults(fn=cmd_preprocess)

    about = ("two-phase training on a dataset cache "
             "(--set train.phase1_epochs=0 or train.phase2_epochs=0 skips a phase)")
    p = sub.add_parser("train", help=about, description=about)
    _add_config_args(p)
    p.add_argument("--data", required=True, help="dataset cache (.omids)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--history", help="where to write the per-epoch history TSV")
    p.add_argument("--out", required=True, help="output checkpoint (.omvae)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("crossval", help="stratified k-fold cross-validation")
    _add_config_args(p)
    p.add_argument("--data", required=True, help="dataset cache (.omids)")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True, help="output directory for fold reports")
    p.set_defaults(fn=cmd_crossval)

    p = sub.add_parser("embed", help="export the latent-mean embedding as TSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("evaluate", help="classification metrics of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--confusion", help="where to write the confusion matrix TSV")
    p.add_argument("--out", required=True, help="where to write the metrics report")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("plot", help="render an embedding TSV as an SVG scatter")
    p.add_argument("--embedding", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # only --help: usage errors raise ValidationError
        return 0 if exc.code in (0, None) else 1
    except ValidationError as exc:
        print(f"omivae: error: validation: {exc}", file=sys.stderr)
        return 1
    except (OmiVaeError, OSError, MemoryError) as exc:
        print(f"omivae: error: runtime: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
