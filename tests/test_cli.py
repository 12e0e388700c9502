"""The command line: one error line for every bad input, and the phase-2 resume."""

import numpy as np
import pytest

from omivae import cli
from omivae.data import SyntheticSpec, synthesize
from omivae.optim import load_checkpoint

# case -> (argv, a fragment the error line must name)
BAD_INPUT = {
    "synth": (["synth", "--set", "synth.class_signal=nan", "--out", "{d}/synth"],
              "'synth.class_signal'"),
    "preprocess": (["preprocess", "--out", "{d}/cache.omids"], "--expression"),
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
    "plot": (["plot", "--embedding", "{d}/absent.tsv", "--out", "{d}/plot.svg"], "absent.tsv"),
    "plot-non-numeric": (["plot", "--embedding", "{d}/bad_cell.tsv", "--out", "{d}/plot.svg"],
                         "bad_cell.tsv: non-numeric embedding value in row 3"),
    "plot-non-finite": (["plot", "--embedding", "{d}/non_finite.tsv", "--out", "{d}/plot.svg"],
                        "non_finite.tsv: non-finite embedding value in row 2"),
    "plot-header-only": (["plot", "--embedding", "{d}/header_only.tsv", "--out", "{d}/plot.svg"],
                         "header_only.tsv: no embedding rows"),
    "crossval-k2": (["crossval", "--data", "{cache}", "--k", "2", "--out", "{d}/cv"], "k=2"),
    "crossval-threads-word": (["crossval", "--data", "{d}/absent.omids", "--out", "{d}/cv"],
                              "OMIVAE_THREADS must be a positive integer, got 'two'"),
    "crossval-threads-zero": (["crossval", "--data", "{d}/absent.omids", "--out", "{d}/cv"],
                              "OMIVAE_THREADS must be a positive integer, got '0'"),
    "usage-missing-option": (["train", "--data", "{d}/absent.omids"], "--out"),
    "usage-unknown-command": (["bogus"], "'bogus'"),
}
# case -> OMIVAE_THREADS, for the cases that set it
THREADS = {"crossval-threads-word": "two", "crossval-threads-zero": "0"}
# file name -> text, written for every case
FILES = {
    "garbage.omvae": "not a checkpoint",
    "expr.tsv": "gene\tS1\tS2\tS3\ng1\t0.1\t0.2\t0.3\n",
    "bad_cell.tsv": "sample_id\tdim_1\tdim_2\nS1\t0.5\t1.5\nS2\t0.25\toops\n",
    "header_only.tsv": "sample_id\tdim_1\tdim_2\n",
    "non_finite.tsv": "sample_id\tdim_1\tdim_2\nS1\tnan\t1.5\nS2\t0.25\tinf\n",
}


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """A small labeled dataset cache."""
    path = str(tmp_path_factory.mktemp("cache") / "tiny.omids")
    spec = SyntheticSpec(samples_per_class=4, num_blocks=2, features_per_block=4, expr_features=5)
    synthesize(spec).save(path)
    return path


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_prints_one_validation_line(tmp_path, capsys, monkeypatch, cache, case):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    if case in THREADS:
        monkeypatch.setenv("OMIVAE_THREADS", THREADS[case])
    argv, fragment = BAD_INPUT[case]
    code = cli.main([arg.format(d=tmp_path, cache=cache) for arg in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("omivae: error: validation: ")
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
    assert cli.main([*run, "--phase", "unsupervised-only", "--out", f"{d}/p1.omvae"]) == 0
    assert cli.main(
        [*run, "--phase", "supervised-only", "--resume", f"{d}/p1.omvae", "--out", f"{d}/p2.omvae"]
    ) == 0
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
