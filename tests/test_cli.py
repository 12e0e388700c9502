"""The command line: each subcommand's options, one error line for every
bad input and every runtime failure, a cache every preprocess setting
writes is loadable, the phase-2 resume, inference passes that gather at
most `INFER_ROWS` rows at a time and encode every sample once, runs on one
modality of a two-modality cache, and the BLAS thread cap crossval sets
around its folds."""

from dataclasses import replace

import argparse
import os
import pathlib

import numpy as np
import pytest

from omivae import cli, data
from omivae.config import SCHEMA
from omivae.container import encode_str_list, read_container, write_container
from omivae.data import (
    OmicsDataset,
    SyntheticSpec,
    restrict_modalities,
    synthesize,
    write_annotations_tsv,
    write_labels_tsv,
    write_matrix_tsv,
)
from omivae.errors import NumericError
from omivae.model import ModelConfig, OmiVaeModel, build_model
from omivae.numerics import RngState
from omivae.optim import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_checkpoint, save_checkpoint
from standalone import Poison

# a small model and one epoch per phase, for cases that would otherwise train
SHORT = ["--set", "model.per_block_hidden=3", "--set", "model.modality_dim=4",
         "--set", "model.fusion_dim=4", "--set", "model.latent_dim=2",
         "--set", "model.classifier_hidden=3,3", "--set", "train.batch_size=4",
         "--set", "train.phase1_epochs=1", "--set", "train.phase2_epochs=1"]
# case -> (argv, a fragment the error line must name)
BAD_INPUT = {
    "synth": (["synth", "--set", "synth.noise_sd=nan", "--out", "{d}/synth"],
              "'synth.noise_sd'"),
    "preprocess": (["preprocess", "--out", "{d}/cache.omids"], "--expression"),
    "preprocess-removed-key": (
        ["preprocess", "--set", "preprocess.drop_y=false", "--expression", "{d}/expr.tsv",
         "--out", "{d}/cache.omids"], "'preprocess.drop_y'"),
    "preprocess-missing-expression": (
        ["preprocess", "--expression", "{d}/absent_expr.tsv", "--out", "{d}/cache.omids"],
        "absent_expr.tsv"),
    "preprocess-missing-methylation": (
        ["preprocess", "--methylation", "{d}/absent_methyl.tsv", "--out", "{d}/cache.omids"],
        "absent_methyl.tsv"),
    "preprocess-missing-annotations": (
        ["preprocess", "--expression", "{d}/expr.tsv", "--annotations", "{d}/absent_ann.tsv",
         "--out", "{d}/cache.omids"], "absent_ann.tsv"),
    "preprocess-missing-labels": (
        ["preprocess", "--expression", "{d}/expr.tsv", "--labels", "{d}/absent_labels.tsv",
         "--out", "{d}/cache.omids"], "absent_labels.tsv"),
    "train": (["train", "--data", "{d}/absent.omids", "--out", "{d}/model.omvae"],
              "absent.omids"),
    "crossval": (["crossval", "--config", "{d}/absent.cfg", "--data", "{d}/absent.omids",
                  "--out", "{d}/cv"], "absent.cfg"),
    "embed": (["embed", "--checkpoint", "{d}/absent.omvae", "--data", "{d}/absent.omids",
               "--out", "{d}/embedding.tsv"], "absent.omvae"),
    "evaluate": (["evaluate", "--checkpoint", "{d}/garbage.omvae", "--data", "{d}/absent.omids",
                  "--out", "{d}/report.txt"], "bad magic"),
    "evaluate-fewer-classes": (["evaluate", "--checkpoint", "{two}/three.omvae", "--data",
                                "{two}/two.omids", "--out", "{d}/report.txt"],
                               "the dataset names 2 classes, fewer than the checkpoint's 3"),
    "embed-wider-cache": (["embed", "--checkpoint", "{narrow}/narrow.omvae", "--data",
                           "{narrow}/wide.omids", "--out", "{d}/embedding.tsv"],
                          "the checkpoint reads expression width 5, the cache has 6"),
    "evaluate-wider-cache": (["evaluate", "--checkpoint", "{narrow}/narrow.omvae", "--data",
                              "{narrow}/wide.omids", "--out", "{d}/report.txt"],
                             "the checkpoint reads expression width 5, the cache has 6"),
    "train-resume-wider-cache": (["train", "--resume", "{narrow}/narrow.omvae", "--data",
                                  "{narrow}/wide.omids", "--out", "{d}/model.omvae"],
                                 "the checkpoint reads expression width 5, the cache has 6"),
    "train-resume-other-architecture": (
        ["train", "--resume", "{two}/three.omvae", "--data", "{two}/two.omids", *SHORT,
         "--set", "model.latent_dim=7", "--set", "train.val_fraction=0.25",
         "--out", "{d}/model.omvae"],
        "--resume keeps the checkpoint's architecture, whose model.latent_dim is 2, not 7"),
    "train-resume-of-expression-cut": (
        ["train", "--resume", "{odd}/fits.omvae", "--set", "model.modalities=expression",
         "--data", "{odd}/expression.omids", *SHORT, "--out", "{d}/model.omvae"],
        "the checkpoint reads methylation block widths (4, 4), the cache has ()"),
    "train-resume-expression-checkpoint": (
        ["train", "--resume", "{odd}/expression.omvae", "--data", "{cache}", *SHORT,
         "--out", "{d}/model.omvae"],
        "the checkpoint reads methylation block widths (), the cache has (4, 4)"),
    "embed-other-block-count": (["embed", "--checkpoint", "{odd}/fits.omvae", "--data",
                                 "{odd}/three_blocks.omids", "--out", "{d}/embedding.tsv"],
                                "the checkpoint reads methylation block widths (4, 4), "
                                "the cache has (4, 4, 4)"),
    "preprocess-log2-negative": (
        ["preprocess", "--set", "preprocess.log2_expression=true", "--expression",
         "{d}/negative.tsv", "--out", "{d}/cache.omids"],
        "expression feature 'g2' has a negative count -5.0 in sample 'S2'"),
    "preprocess-log2-minus-one": (
        ["preprocess", "--set", "preprocess.log2_expression=true", "--expression",
         "{d}/minus_one.tsv", "--out", "{d}/cache.omids"],
        "expression feature 'g2' has a negative count -1.0 in sample 'S2'"),
    "preprocess-infinite": (
        ["preprocess", "--expression", "{d}/infinite.tsv", "--out", "{d}/cache.omids"],
        "infinite.tsv: infinite value at row 3, column 4"),
    "plot": (["plot", "--embedding", "{d}/absent.tsv", "--out", "{d}/plot.svg"], "absent.tsv"),
    "plot-non-numeric": (["plot", "--embedding", "{d}/bad_cell.tsv", "--out", "{d}/plot.svg"],
                         "bad_cell.tsv: unparseable numeric value 'oops' at row 3, column 3"),
    "plot-non-finite": (["plot", "--embedding", "{d}/non_finite.tsv", "--out", "{d}/plot.svg"],
                        "non_finite.tsv: infinite embedding value at row 2, column 3"),
    "plot-missing": (["plot", "--embedding", "{d}/missing_cell.tsv", "--out", "{d}/plot.svg"],
                     "missing_cell.tsv: missing embedding value at row 3, column 2"),
    "plot-header-only": (["plot", "--embedding", "{d}/header_only.tsv", "--out", "{d}/plot.svg"],
                         "header_only.tsv: no data rows"),
    "plot-duplicate-id": (["plot", "--embedding", "{d}/repeated_id.tsv", "--out", "{d}/plot.svg"],
                          "repeated_id.tsv: duplicate sample ID 'S1'"),
    "plot-empty-id": (["plot", "--embedding", "{d}/empty_id.tsv", "--out", "{d}/plot.svg"],
                      "empty_id.tsv: empty sample ID in row 3"),
    "crossval-k2": (["crossval", "--data", "{cache}", "--k", "2", "--out", "{d}/cv"], "k=2"),
    "crossval-threads-word": (["crossval", "--data", "{d}/absent.omids", "--out", "{d}/cv"],
                              "OMIVAE_THREADS must be a positive integer, got 'two'"),
    "crossval-threads-zero": (["crossval", "--data", "{d}/absent.omids", "--out", "{d}/cv"],
                              "OMIVAE_THREADS must be a positive integer, got '0'"),
    "preprocess-non-utf8-expression": (
        ["preprocess", "--expression", "{d}/latin1_matrix.tsv", "--out", "{d}/cache.omids"],
        "latin1_matrix.tsv"),
    "preprocess-non-utf8-annotations": (
        ["preprocess", "--expression", "{d}/expr.tsv", "--annotations", "{d}/latin1_ann.tsv",
         "--out", "{d}/cache.omids"], "latin1_ann.tsv"),
    "preprocess-non-utf8-labels": (
        ["preprocess", "--expression", "{d}/expr.tsv", "--labels", "{d}/latin1_labels.tsv",
         "--out", "{d}/cache.omids"], "latin1_labels.tsv"),
    "plot-non-utf8": (["plot", "--embedding", "{d}/latin1_embedding.tsv", "--out",
                       "{d}/plot.svg"], "latin1_embedding.tsv"),
    "train-non-utf8-config": (["train", "--config", "{d}/latin1.cfg", "--data", "{cache}",
                               "--out", "{d}/model.omvae"], "latin1.cfg"),
    "preprocess-empty-sample-id": (
        ["preprocess", "--expression", "{d}/empty_sample.tsv", "--out", "{d}/cache.omids"],
        "empty_sample.tsv: empty sample ID in column 3"),
    "preprocess-empty-feature-id": (
        ["preprocess", "--expression", "{d}/empty_feature.tsv", "--out", "{d}/cache.omids"],
        "empty_feature.tsv: empty feature ID in row 3"),
    "train-missing-cells": (["train", "--data", "{odd}/missing.omids", *SHORT,
                             "--out", "{d}/model.omvae"], "contains missing values"),
    "crossval-missing-cells": (["crossval", "--data", "{odd}/missing.omids", "--k", "3", *SHORT,
                                "--out", "{d}/cv"], "contains missing values"),
    "embed-missing-cells": (["embed", "--checkpoint", "{odd}/fits.omvae", "--data",
                             "{odd}/missing.omids", "--out", "{d}/embedding.tsv"],
                            "contains missing values"),
    "evaluate-missing-cells": (["evaluate", "--checkpoint", "{odd}/fits.omvae", "--data",
                                "{odd}/missing.omids", "--out", "{d}/report.txt"],
                               "contains missing values"),
    "train-expression-of-methylation-cache": (
        ["train", "--set", "model.modalities=expression", "--data", "{odd}/methylation.omids",
         *SHORT, "--out", "{d}/model.omvae"], "dataset has no expression modality"),
    "train-default-modalities-of-expression-cache": (
        ["train", "--data", "{odd}/expression.omids", *SHORT, "--out", "{d}/model.omvae"],
        "dataset has no methylation modality"),
    "crossval-val-fraction": (["crossval", "--set", "train.val_fraction=0.9", "--data", "{cache}",
                               "--k", "3", *SHORT, "--out", "{d}/cv"],
                              "val_fraction must be in (0, 0.5)"),
    "crossval-one-class": (["crossval", "--data", "{odd}/one_class.omids", "--k", "3", *SHORT,
                            "--out", "{d}/cv"],
                           "cross-validation needs at least two classes, the dataset names ['only']"),
    "train-one-class": (["train", "--data", "{odd}/one_class.omids", *SHORT,
                         "--out", "{d}/model.omvae"],
                        "the classifier phase (skipped by train.phase2_epochs=0) needs at "
                        "least two classes, the dataset names ['only']"),
    "train-val-fraction-small-class": (
        ["train", "--data", "{cache}", *SHORT, "--out", "{d}/model.omvae"],
        "train.val_fraction=0.1 holds out one of 10 stratified folds, so each class needs "
        "10 samples; class 'class00' has 4"),
    "train-alpha-zero": (["train", "--set", "train.alpha=0", "--data", "{cache}", *SHORT,
                          "--out", "{d}/model.omvae"], "alpha must be positive"),
    "train-learning-rate-zero": (["train", "--set", "train.learning_rate=0", "--data", "{cache}",
                                  *SHORT, "--out", "{d}/model.omvae"],
                                 "learning_rate must be positive"),
    "train-phase2-beta-zero": (["train", "--set", "train.phase2_beta=0", "--data", "{cache}",
                                *SHORT, "--out", "{d}/model.omvae"],
                               "phase2_beta must be positive"),
    "train-no-samples": (["train", "--data", "{odd}/empty.omids", *SHORT,
                          "--out", "{d}/model.omvae"], "empty.omids: dataset has no samples"),
    "crossval-no-samples": (["crossval", "--data", "{odd}/empty.omids", "--k", "3", *SHORT,
                             "--out", "{d}/cv"], "empty.omids: dataset has no samples"),
    "embed-impossible-width": (["embed", "--checkpoint", "{odd}/impossible.omvae", "--data",
                                "{odd}/expression.omids", "--out", "{d}/embedding.tsv"],
                               "checkpoint tensor 'encoder.expr.hidden1.linear.weights' has "
                               "shape (8, 5), expected (4096, 1000000000000000)"),
    "train-impossible-fusion-width": (
        ["train", "--set", "model.fusion_dim=1000000000000", "--data", "{narrow}/wide.omids",
         "--out", "{d}/model.omvae"],
        "the model's tensors need 35904000008927680 bytes, which numpy cannot allocate"),
    "synth-impossible-cohort": (
        ["synth", "--set", "synth.samples_per_class=1000000000000000", "--out", "{d}/synth"],
        "the synthetic cohort needs 112080000000000000000 bytes, which numpy cannot allocate"),
    "crossval-impossible-modality-width": (
        ["crossval", "--set", "model.modality_dim=100000000000000000", "--data",
         "{narrow}/wide.omids", "--k", "3", "--out", "{d}/cv"],
        "the model's tensors need 2483200000000001882560 bytes, which numpy cannot allocate"),
    "embed-no-samples": (["embed", "--checkpoint", "{odd}/fits.omvae", "--data",
                          "{odd}/empty.omids", "--out", "{d}/embedding.tsv"],
                         "empty.omids: dataset has no samples"),
    "evaluate-no-samples": (["evaluate", "--checkpoint", "{odd}/fits.omvae", "--data",
                             "{odd}/empty.omids", "--out", "{d}/report.txt"],
                            "empty.omids: dataset has no samples"),
    "usage-missing-option": (["train", "--data", "{d}/absent.omids"], "--out"),
    "usage-removed-phase-option": (["train", "--phase", "unsupervised-only", "--data", "{cache}",
                                    "--out", "{d}/model.omvae"],
                                   "unrecognized arguments: --phase unsupervised-only"),
    "usage-unknown-command": (["bogus"], "'bogus'"),
}
# case -> OMIVAE_THREADS, for the cases that set it
THREADS = {"crossval-threads-word": "two", "crossval-threads-zero": "0"}
# file name -> bytes, written for every case
FILES = {
    "garbage.omvae": b"not a checkpoint",
    "expr.tsv": b"gene\tS1\tS2\tS3\ng1\t0.1\t0.2\t0.3\n",
    "negative.tsv": b"gene\tS1\tS2\tS3\ng1\t1\t2\t3\ng2\t4\t-5\t6\n",
    "minus_one.tsv": b"gene\tS1\tS2\tS3\ng1\t1\t2\t3\ng2\t4\t-1\t6\n",
    "infinite.tsv": b"gene\tS1\tS2\tS3\ng1\t0.1\t0.2\t0.3\ng2\t0.4\t0.5\t-Infinity\n",
    "bad_cell.tsv": b"sample_id\tdim_1\tdim_2\nS1\t0.5\t1.5\nS2\t0.25\toops\n",
    "header_only.tsv": b"sample_id\tdim_1\tdim_2\n",
    "non_finite.tsv": b"sample_id\tdim_1\tdim_2\nS1\t0.5\tinf\nS2\tnan\t1.5\n",
    "missing_cell.tsv": b"sample_id\tdim_1\tdim_2\nS1\t0.5\t1.5\nS2\tNA\t1_0\n",
    "repeated_id.tsv": b"sample_id\tdim_1\tdim_2\nS1\t0.5\t1.5\nS2\t1\t2\n S1\t0.25\t1\n",
    "empty_id.tsv": b"sample_id\tdim_1\tdim_2\nS1\t0.5\t1.5\n \t0.25\t1\n",
    # one Latin-1 byte (0xff) in a file that is otherwise valid
    "latin1_matrix.tsv": b"id\tS1\tS2\ng1\t\xff0.3\t0.4\n",
    "latin1_ann.tsv": b"feature_id\tchromosome\ng1\t1\xff\n",
    "latin1_labels.tsv": b"sample_id\tclass_name\nS1\tBRCA\xff\n",
    "latin1_embedding.tsv": b"sample_id\tdim_1\nS\xff1\t0.5\n",
    "latin1.cfg": b"# caf\xe9\ntrain.seed = 1\n",
    "empty_sample.tsv": b"gene\tS1\t \tS3\ng1\t0.1\t0.2\t0.3\n",
    "empty_feature.tsv": b"gene\tS1\tS2\tS3\ng1\t0.1\t0.2\t0.3\n\t0.4\t0.5\t0.6\n",
}


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """A small labeled dataset cache."""
    path = str(tmp_path_factory.mktemp("cache") / "tiny.omids")
    spec = SyntheticSpec(samples_per_class=4, num_blocks=2, features_per_block=4, expr_features=5)
    synthesize(spec).save(path)
    return path


@pytest.fixture(scope="module")
def two(tmp_path_factory):
    """A directory holding a 2-class cache and an untrained 3-class checkpoint
    of the same shape."""
    d = tmp_path_factory.mktemp("two")
    ds = synthesize(SyntheticSpec(num_classes=2, samples_per_class=4, num_blocks=2,
                                  features_per_block=4, expr_features=5))
    ds.save(str(d / "two.omids"))
    config = ModelConfig(methyl_block_dims=ds.methyl_block_dims, expr_dim=ds.expr_dim,
                         per_block_hidden=3, modality_dim=4, fusion_dim=4, latent_dim=2,
                         classifier_hidden=(3, 3), num_classes=3)
    save_checkpoint(str(d / "three.omvae"), build_model(config, RngState(0)))
    return str(d)


@pytest.fixture(scope="module")
def narrow(tmp_path_factory):
    """A directory holding a labeled cache of 6 expression features and an
    untrained checkpoint that reads 5, alike in everything else."""
    d = tmp_path_factory.mktemp("narrow")
    ds = synthesize(SyntheticSpec(samples_per_class=10, num_blocks=2, features_per_block=4,
                                  expr_features=6))
    ds.save(str(d / "wide.omids"))
    config = ModelConfig(methyl_block_dims=ds.methyl_block_dims, expr_dim=5,
                         per_block_hidden=3, modality_dim=4, fusion_dim=4, latent_dim=2,
                         classifier_hidden=(3, 3), num_classes=len(ds.class_vocab))
    save_checkpoint(str(d / "narrow.omvae"), build_model(config, RngState(0)))
    return str(d)


@pytest.fixture(scope="module")
def odd(tmp_path_factory):
    """A directory holding a 30-sample cache with missing cells, an untrained
    checkpoint of its shape, a copy whose config claims an expression width
    no memory holds and one of its expression tower alone, a cache of each
    modality alone, a cache of three methylation blocks, a cache whose every
    sample is of the one class `only` and a cache of no samples."""
    d = tmp_path_factory.mktemp("odd")
    spec = SyntheticSpec(num_classes=3, samples_per_class=10, num_blocks=2, features_per_block=4,
                         expr_features=5)
    synthesize(replace(spec, missing_rate=0.05)).save(str(d / "missing.omids"))
    ds = synthesize(spec)
    restrict_modalities(ds, expression=False).save(str(d / "methylation.omids"))
    restrict_modalities(ds, methylation=False).save(str(d / "expression.omids"))
    synthesize(replace(spec, num_blocks=3)).save(str(d / "three_blocks.omids"))
    replace(ds, labels=np.zeros_like(ds.labels), class_vocab=["only"]).save(
        str(d / "one_class.omids"))
    # written as `OmicsDataset.save` would, had it not refused zero samples
    names = {"expression_features": ds.expression_feature_ids, "sample_ids": [],
             "block_chromosomes": ds.block_chromosomes, "class_vocab": ds.class_vocab}
    names |= {f"block{j:02d}.features": ids for j, ids in enumerate(ds.methylation_block_features)}
    tensors = [("expression", ds.expression[:0])]
    tensors += [(f"methyl.block{j:02d}", b[:0]) for j, b in enumerate(ds.methylation_blocks)]
    write_container(str(d / "empty.omids"), data.DATASET_MAGIC, data.DATASET_VERSION, {},
                    [*tensors, ("labels", np.zeros(0))],
                    {key: encode_str_list(ids) for key, ids in names.items()})
    config = ModelConfig(methyl_block_dims=ds.methyl_block_dims, expr_dim=ds.expr_dim,
                         per_block_hidden=3, modality_dim=4, fusion_dim=4, latent_dim=2,
                         classifier_hidden=(3, 3), num_classes=len(ds.class_vocab))
    save_checkpoint(str(d / "fits.omvae"), build_model(config, RngState(0)))
    save_checkpoint(str(d / "expression.omvae"),
                    build_model(replace(config, methyl_block_dims=()), RngState(0)))
    fields, tensors, metadata = read_container(str(d / "fits.omvae"), CHECKPOINT_MAGIC,
                                               CHECKPOINT_VERSION)
    write_container(str(d / "impossible.omvae"), CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                    fields | {"expr_dim": str(10**15)}, tensors, metadata)
    return str(d)


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_prints_one_validation_line(
    tmp_path, capsys, monkeypatch, cache, two, narrow, odd, case
):
    for name, blob in FILES.items():
        (tmp_path / name).write_bytes(blob)
    if case in THREADS:
        monkeypatch.setenv("OMIVAE_THREADS", THREADS[case])
    argv, fragment = BAD_INPUT[case]
    dirs = dict(d=tmp_path, cache=cache, two=two, narrow=narrow, odd=odd)
    code = cli.main([arg.format(**dirs) for arg in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("omivae: error: validation: ")
    assert fragment in err


# subcommand -> its option strings besides --help, pinned as `PUBLIC_KEYS` pins the config keys
OPTIONS = {
    "synth": ["--config", "--out", "--set"],
    "preprocess": ["--annotations", "--config", "--expression", "--labels", "--methylation",
                   "--out", "--report", "--set"],
    "train": ["--config", "--data", "--history", "--out", "--resume", "--set"],
    "crossval": ["--config", "--data", "--k", "--out", "--set"],
    "embed": ["--checkpoint", "--data", "--out"],
    "evaluate": ["--checkpoint", "--confusion", "--data", "--out"],
    "plot": ["--embedding", "--out"],
}


def test_each_subcommand_takes_the_pinned_options():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, p in commands.choices.items()
    }
    assert found == OPTIONS


# every boolean preprocess key at its non-default value, and the rule
# switches earlier versions had, which are now unknown keys
PREPROCESS_SWITCHES = sorted((
    {key: "true" if default == "false" else "false"
     for key, (kind, default) in SCHEMA.items()
     if kind == "bool" and key.startswith("preprocess.")}
    | {f"preprocess.{name}": "false"
       for name in ("drop_y", "drop_all_zero", "drop_unmapped", "normalize_expression")}
).items())


@pytest.mark.parametrize("key, value", PREPROCESS_SWITCHES)
def test_every_preprocess_switch_writes_a_loadable_cache_or_one_error_line(
    tmp_path, capsys, golden_raw, key, value
):
    expression, methylation, annotations, labels = golden_raw
    d = str(tmp_path)
    write_matrix_tsv(f"{d}/expr.tsv", expression)
    write_matrix_tsv(f"{d}/methyl.tsv", methylation)
    write_annotations_tsv(f"{d}/ann.tsv", annotations)
    write_labels_tsv(f"{d}/labels.tsv", labels)
    code = cli.main([
        "preprocess", "--set", f"{key}={value}", "--expression", f"{d}/expr.tsv",
        "--methylation", f"{d}/methyl.tsv", "--annotations", f"{d}/ann.tsv",
        "--labels", f"{d}/labels.tsv", "--out", f"{d}/cache.omids",
    ])
    err = capsys.readouterr().err
    if code == 0:
        dataset = OmicsDataset.load(f"{d}/cache.omids")
        with open(f"{d}/cache.omids.report.txt") as fh:
            report = dict(line.split("=") for line in fh.read().splitlines())
        assert int(report["expression_kept"]) == dataset.expr_dim
        assert int(report["methylation_kept"]) == sum(dataset.methyl_block_dims)
    else:
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("omivae: error: ")


def out_of_memory(spec):
    raise MemoryError("Unable to allocate 71.1 PiB for an array with shape (10000000000000000,)")


# case -> (argv, a fragment the error line must name)
RUNTIME_FAILURE = {
    "synth-out-of-memory": (["synth", "--set", "synth.samples_per_class=2",
                             "--out", "{d}/synth"], "Unable to allocate 71.1 PiB"),
    "synth-out-names-a-file": (["synth", "--set", "synth.samples_per_class=2",
                                "--out", "{d}/taken"], "File exists"),
}
# case -> (owner, attribute, stand-in) patched for its run: a memory
# failure that passes every validation, as one past the cohort's byte check does
RUNTIME_PATCHES = {"synth-out-of-memory": (cli, "synthesize", out_of_memory)}


@pytest.mark.parametrize("case", sorted(RUNTIME_FAILURE))
def test_runtime_failure_prints_one_runtime_line(tmp_path, capsys, monkeypatch, case):
    (tmp_path / "taken").write_text("")
    if case in RUNTIME_PATCHES:
        monkeypatch.setattr(*RUNTIME_PATCHES[case])
    argv, fragment = RUNTIME_FAILURE[case]
    code = cli.main([arg.format(d=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("omivae: error: runtime: ")
    assert fragment in err


def test_help_exits_zero(capsys):
    assert cli.main(["train", "--help"]) == 0
    assert "--resume" in capsys.readouterr().out


SYNTH = [
    "--set", "synth.num_classes=3", "--set", "synth.samples_per_class=20",
    "--set", "synth.num_blocks=2", "--set", "synth.features_per_block=12",
    "--set", "synth.expr_features=16",
]
MODEL = [
    "--set", "model.per_block_hidden=8", "--set", "model.modality_dim=12",
    "--set", "model.fusion_dim=10", "--set", "model.latent_dim=4",
    "--set", "model.classifier_hidden=6,5", "--set", "train.batch_size=8",
]


def phase_rows(history_path, phase):
    with open(history_path) as fh:
        return [line for line in fh.read().splitlines()[1:] if line.split("\t")[0] == phase]


def test_phase2_resume_reproduces_the_continuous_run(tmp_path, capsys):
    d = str(tmp_path)
    assert cli.main(["synth", *SYNTH, "--out", f"{d}/synth"]) == 0
    run = [
        "train", "--data", f"{d}/synth/dataset.omids", *MODEL, "--set", "train.seed=5",
        "--set", "train.phase1_epochs=3", "--set", "train.phase2_epochs=3",
    ]
    assert cli.main([*run, "--out", f"{d}/full.omvae"]) == 0
    assert cli.main([*run, "--set", "train.phase2_epochs=0", "--out", f"{d}/p1.omvae"]) == 0
    assert cli.main([*run, "--set", "train.phase1_epochs=0", "--resume", f"{d}/p1.omvae",
                     "--out", f"{d}/p2.omvae"]) == 0
    capsys.readouterr()

    full, resumed = load_checkpoint(f"{d}/full.omvae"), load_checkpoint(f"{d}/p2.omvae")
    assert full.config == resumed.config
    assert [n for n, _ in full.tensors] == [n for n, _ in resumed.tensors]
    for (name, a), (_, b) in zip(full.tensors, resumed.tensors):
        assert np.array_equal(a, b), name
    rows = phase_rows(f"{d}/full.omvae.history.tsv", "2")
    assert len(rows) == 3
    assert rows == phase_rows(f"{d}/p2.omvae.history.tsv", "2")
    differ = {
        key
        for key in full.metadata.keys() | resumed.metadata.keys()
        if full.metadata.get(key) != resumed.metadata.get(key)
    }
    assert differ == {"best_metric.phase1", "best_epoch.phase1", "epochs_run"}


@pytest.mark.parametrize("options, phase", [
    (["--set", "train.phase2_epochs=0"], "1"),
    (["--set", "train.phase1_epochs=0"], "2"),
    ([], "2"),
])
def test_the_checkpoint_names_the_last_phase_that_ran(tmp_path, capsys, options, phase):
    d = str(tmp_path)
    assert cli.main(["synth", *SYNTH, "--out", f"{d}/synth"]) == 0
    assert cli.main([
        "train", "--data", f"{d}/synth/dataset.omids", *MODEL, "--set", "train.phase1_epochs=1",
        "--set", "train.phase2_epochs=1", *options, "--out", f"{d}/m.omvae",
    ]) == 0
    capsys.readouterr()
    assert load_checkpoint(f"{d}/m.omvae").metadata["phase"] == phase
    assert {line.split("\t")[0] for line in phase_rows(f"{d}/m.omvae.history.tsv", phase)} == {phase}


def test_train_names_where_and_why_it_diverged(tmp_path, capsys, monkeypatch):
    """A NaN in the gradient of the first methylation block's weights, which
    backward hands on after most others, on the third step of phase 1
    stops training; the stderr line keeps the error's tensor name and the
    step, and the saved model is the phase's entry state, not the one that
    step had partly stepped."""
    d = str(tmp_path)
    assert cli.main(["synth", *SYNTH, "--out", f"{d}/synth"]) == 0
    forward_backward = OmiVaeModel.forward_backward
    name = "encoder.methyl.block00.linear.weights"
    entry = []

    def poisoned(self, *args):
        entry.append(self.arena.state.copy())
        sink = Poison(args[-1], self.arena, name) if len(entry) == 3 else args[-1]
        return forward_backward(self, *args[:-1], sink)

    monkeypatch.setattr(OmiVaeModel, "forward_backward", poisoned)
    capsys.readouterr()
    assert cli.main(["train", "--data", f"{d}/synth/dataset.omids", *MODEL,
                     "--out", f"{d}/m.omvae"]) == 0
    err = capsys.readouterr().err
    assert err == (
        f"training diverged (phase 1, epoch 1, step 3: non-finite gradient in {name}; "
        "step aborted); best snapshot saved\n"
    )
    saved = load_checkpoint(f"{d}/m.omvae").build()
    assert len(entry) == 3 and saved.arena.state.tobytes() == entry[0].tobytes()


def test_no_inference_pass_gathers_more_than_infer_rows(tmp_path, monkeypatch):
    """`evaluate`, `embed`, validation and each crossval test fold read the
    60-sample cohort in chunks of `data.INFER_ROWS`; training gathers
    batches of 8, so no gather may exceed the 8-row chunk."""
    rows = 8
    monkeypatch.setattr(data, "INFER_ROWS", rows)
    d = str(tmp_path)
    assert cli.main(["synth", *SYNTH, "--out", f"{d}/synth"]) == 0
    gathered = []
    batch = OmicsDataset.batch

    def spy(self, indices):
        gathered.append(len(indices))
        return batch(self, indices)

    monkeypatch.setattr(OmicsDataset, "batch", spy)
    cache = f"{d}/synth/dataset.omids"
    epochs = ["--set", "train.phase1_epochs=1", "--set", "train.phase2_epochs=1"]
    assert cli.main(["train", "--data", cache, *MODEL, *epochs, "--out", f"{d}/m.omvae"]) == 0
    assert cli.main(["crossval", "--data", cache, *MODEL, *epochs, "--k", "3",
                     "--out", f"{d}/cv"]) == 0
    assert max(gathered) == rows
    for command in (["embed", "--out", f"{d}/e.tsv"], ["evaluate", "--out", f"{d}/r.txt"]):
        gathered.clear()
        assert cli.main([*command, "--checkpoint", f"{d}/m.omvae", "--data", cache]) == 0
        assert gathered == [rows] * 7 + [4]


@pytest.mark.parametrize("modality, other", [("expression", "methyl"), ("methylation", "expr")])
def test_one_modality_trains_embeds_and_evaluates(tmp_path, capsys, modality, other):
    d = str(tmp_path)
    assert cli.main(["synth", *SYNTH, "--out", f"{d}/synth"]) == 0
    cache = f"{d}/synth/dataset.omids"
    assert cli.main([
        "train", "--data", cache, *MODEL, "--set", f"model.modalities={modality}",
        "--set", "train.phase1_epochs=2", "--set", "train.phase2_epochs=2",
        "--out", f"{d}/m.omvae",
    ]) == 0
    checkpoint = load_checkpoint(f"{d}/m.omvae")
    config = checkpoint.config
    assert (config.has_expression, config.has_methylation) == (
        modality == "expression", modality == "methylation")
    assert not any(f".{other}." in name for name, _ in checkpoint.tensors)
    inputs = ["--checkpoint", f"{d}/m.omvae", "--data", cache]
    assert cli.main(["embed", *inputs, "--out", f"{d}/e.tsv"]) == 0
    assert cli.main(["evaluate", *inputs, "--out", f"{d}/r.txt"]) == 0
    capsys.readouterr()
    with open(f"{d}/e.tsv") as fh:
        assert len(fh.read().splitlines()) == 1 + 60
    with open(f"{d}/r.txt") as fh:
        assert "samples=60" in fh.read().splitlines()


def test_embed_and_evaluate_encode_every_sample_once_in_infer_mode(tmp_path, monkeypatch, capsys):
    """The benchmark's `embed_samples_per_s` times infer-mode
    `OmiVaeModel.encode` calls, so `embed` and `evaluate` must each put every
    sample through one of them exactly once."""
    monkeypatch.setattr(data, "INFER_ROWS", 8)
    d = str(tmp_path)
    ds = synthesize(SyntheticSpec(num_classes=3, samples_per_class=7, num_blocks=2,
                                  features_per_block=4, expr_features=5))
    ds.save(f"{d}/c.omids")
    config = ModelConfig(methyl_block_dims=ds.methyl_block_dims, expr_dim=ds.expr_dim,
                         per_block_hidden=3, modality_dim=4, fusion_dim=4, latent_dim=2,
                         classifier_hidden=(3, 3), num_classes=3)
    save_checkpoint(f"{d}/m.omvae", build_model(config, RngState(0)))
    x_expr, x_blocks = OmicsDataset.load(f"{d}/c.omids").batch(np.arange(ds.num_samples))
    cohort = sorted(row.tobytes() for row in np.hstack([*x_blocks, x_expr]))
    encoded = []
    encode = OmiVaeModel.encode

    def spy(self, x_expr, x_methyl_blocks, train=False):
        if not train:
            encoded.extend(row.tobytes() for row in np.hstack([*x_methyl_blocks, x_expr]))
        return encode(self, x_expr, x_methyl_blocks, train)

    monkeypatch.setattr(OmiVaeModel, "encode", spy)
    for command in (["embed", "--out", f"{d}/e.tsv"], ["evaluate", "--out", f"{d}/r.txt"]):
        encoded.clear()
        assert cli.main([*command, "--checkpoint", f"{d}/m.omvae", "--data", f"{d}/c.omids"]) == 0
        assert sorted(encoded) == cohort, command[0]


def test_a_one_class_cache_trains_the_vae_alone(tmp_path, capsys, odd):
    assert cli.main(["train", "--data", f"{odd}/one_class.omids", *SHORT,
                     "--set", "train.phase2_epochs=0", "--out", f"{tmp_path}/m.omvae"]) == 0
    assert load_checkpoint(f"{tmp_path}/m.omvae").metadata["phase"] == "1"


CROSSVAL = ["--set", "train.phase1_epochs=1", "--set", "train.phase2_epochs=1", "--k", "3"]


@pytest.mark.parametrize("fails", [False, True])
@pytest.mark.parametrize("start, capped", [(8, 2), (1, 1)])
def test_crossval_caps_blas_threads_per_fold_and_restores_them(
    tmp_path, capsys, monkeypatch, fails, start, capped
):
    """A stand-in BLAS on 4 cores: two fold threads run with at most 4 // 2
    BLAS threads (a lower count stands), and the old count comes back after
    the folds, also when a fold fails."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    threads = [start]

    def set_threads(count):
        threads[0] = count

    monkeypatch.setattr(cli, "_openblas_threads", lambda: (lambda: threads[0], set_threads))
    monkeypatch.setenv("OMIVAE_THREADS", "2")
    during = []
    run_fold = cli._run_fold

    def fold(*args):
        during.append(threads[0])
        if fails:
            raise NumericError("fold diverged")
        return run_fold(*args)

    monkeypatch.setattr(cli, "_run_fold", fold)
    d = str(tmp_path)
    assert cli.main(["synth", *SYNTH, "--out", f"{d}/synth"]) == 0
    code = cli.main(["crossval", "--data", f"{d}/synth/dataset.omids", *MODEL, *CROSSVAL,
                     "--out", f"{d}/cv"])
    assert code == (2 if fails else 0)
    assert set(during) == {capped}
    assert threads == [start]


def test_crossval_under_the_blas_cap_matches_a_one_thread_run(tmp_path, capsys, monkeypatch):
    """Two fold threads on two cores cap OpenBLAS at one thread, so the
    outputs are those of a run with OpenBLAS pinned to one thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("OMIVAE_THREADS", "2")
    d = str(tmp_path)
    assert cli.main(["synth", *SYNTH, "--out", f"{d}/synth"]) == 0
    blas = cli._openblas_threads()
    before = blas[0]() if blas else None
    outputs = []
    for pinned in (False, True):
        if pinned:
            monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
            if blas:
                blas[1](1)
        out = f"{d}/cv{int(pinned)}"
        try:
            code = cli.main(["crossval", "--data", f"{d}/synth/dataset.omids", *MODEL,
                             *CROSSVAL, "--out", out])
        finally:
            if blas and pinned:
                blas[1](before)
        assert code == 0
        assert blas is None or blas[0]() == before
        outputs.append({path.name: path.read_bytes() for path in pathlib.Path(out).iterdir()})
    assert outputs[0] == outputs[1]
