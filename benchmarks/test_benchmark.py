"""Each output check passes on a correct output and fails on a corrupted one;
the tracer's self times and patching hold on small cases."""

from __future__ import annotations

import copy
import os
import time

import numpy as np
import pytest

import checks
import spans
import workloads
from checks import CheckFailed
from omivae import data, evaluation, layers
from omivae.model import ModelConfig, build_model
from omivae.numerics import RngState

TINY = ModelConfig(
    methyl_block_dims=(5, 4),
    expr_dim=6,
    per_block_hidden=4,
    modality_dim=8,
    fusion_dim=8,
    latent_dim=4,
    classifier_hidden=(5, 4),
    num_classes=3,
)


def tiny_model():
    model = build_model(TINY, RngState(3))
    rng = np.random.default_rng(4)
    for name, arr in model.state_tensors():
        if name.endswith("running_mean"):
            arr[:] = rng.normal(size=arr.shape)
        elif name.endswith("running_var"):
            arr[:] = rng.uniform(0.5, 2.0, size=arr.shape)
    return model


def tiny_inputs(n=7):
    rng = np.random.default_rng(5)
    return rng.uniform(size=(n, 6)), [rng.uniform(size=(n, 5)), rng.uniform(size=(n, 4))]


HISTORY = (
    "phase\tepoch\tval_total\tval_accuracy\n"
    "1\t1\tnp.float64(5.0)\t0.1\n"
    "1\t2\t4.5\t0.2\n"
    "2\t1\t4.75\t0.9\n"
)


def test_history_checks():
    rows = checks.parse_history(HISTORY)
    checks.check_history(rows, 2, 1)
    assert rows[0]["val_total"] == 5.0
    with pytest.raises(CheckFailed):
        checks.check_history(rows, 2, 2)
    with pytest.raises(CheckFailed):
        checks.check_history(checks.parse_history(HISTORY.replace("4.75", "nan")), 2, 1)


def test_reference_forward_matches_program():
    model = tiny_model()
    tensors = dict(model.state_tensors())
    x_expr, x_blocks = tiny_inputs()
    mu = model.embed(x_expr, x_blocks)
    checks.check_rows(mu, checks.reference_embed(tensors, x_expr, x_blocks), "reference")
    corrupted = mu.copy()
    corrupted[3, 1] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_rows(corrupted, checks.reference_embed(tensors, x_expr, x_blocks), "reference")


def crossval_outputs():
    labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
    confusions = [
        np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
    ]
    accs = [float(np.trace(c) / c.sum()) for c in confusions]
    aggregate = {
        "accuracy_mean": float(np.mean(accs)),
        "fold00.accuracy": accs[0],
        "fold01.accuracy": accs[1],
    }
    return confusions, aggregate, labels


def test_crossval_check():
    confusions, aggregate, labels = crossval_outputs()
    checks.check_crossval(confusions, aggregate, labels)
    text = "true\\predicted\ta\tb\tc\n" + "".join(
        f"{n}\t" + "\t".join(map(str, row)) + "\n" for n, row in zip("abc", confusions[0])
    )
    assert np.array_equal(checks.parse_confusion(text), confusions[0])

    moved = copy.deepcopy(confusions)
    moved[1][0, 0] -= 1
    moved[1][1, 1] += 1  # a sample tested twice, another never
    with pytest.raises(CheckFailed):
        checks.check_crossval(moved, aggregate, labels)
    for key, delta in (("fold01.accuracy", 0.25), ("accuracy_mean", 1e-9)):
        wrong = dict(aggregate, **{key: aggregate[key] + delta})
        with pytest.raises(CheckFailed):
            checks.check_crossval(confusions, wrong, labels)


def test_cache_check(tmp_path):
    ds = data.synthesize(
        data.SyntheticSpec(
            num_classes=3, samples_per_class=20, num_blocks=3, features_per_block=6,
            expr_features=5, missing_rate=0.02, seed=7,
        )
    )
    ds.expression = workloads.quantize(ds.expression)
    ds.methylation_blocks = [workloads.quantize(b) for b in ds.methylation_blocks]
    inputs = workloads.cohort_inputs(str(tmp_path), ds, seed=7, decoy_count=2)
    f = inputs.files
    labels = data.load_labels(f["labels"])
    cache, _ = data.preprocess(
        data.load_matrix_tsv(f["expression"]),
        data.load_matrix_tsv(f["methylation"]),
        data.load_annotations(f["annotations"]),
        labels=labels,
    )
    checks.check_cache(cache, inputs.expected)

    shifted = copy.deepcopy(cache)
    shifted.methylation_blocks[1][2, 3] += 1e-9
    with pytest.raises(CheckFailed):
        checks.check_cache(shifted, inputs.expected)
    regrouped = copy.deepcopy(cache)
    regrouped.methylation_block_features[0] = regrouped.methylation_block_features[0][::-1]
    with pytest.raises(CheckFailed):
        checks.check_cache(regrouped, inputs.expected)
    unscaled = copy.deepcopy(cache)
    unscaled.expression = unscaled.expression * 0.5
    with pytest.raises(CheckFailed):
        checks.check_cache(unscaled, inputs.expected)


def test_embedding_roundtrip(tmp_path):
    model = tiny_model()
    ds = data.OmicsDataset(
        sample_ids=[f"s{i}" for i in range(7)],
        expression=tiny_inputs()[0],
        methylation_blocks=tiny_inputs()[1],
        labels=np.array([0, 1, 2, 0, 1, 2, 0]),
        class_vocab=["a", "b", "c"],
    )
    path = str(tmp_path / "e.tsv")
    embedding = evaluation.export_embedding(model, ds, path)
    ids, parsed, _ = evaluation.read_embedding_tsv(path)
    checks.check_roundtrip(ids, parsed, ds.sample_ids, embedding)
    with pytest.raises(CheckFailed):
        checks.check_roundtrip(ids, np.nextafter(parsed, np.inf), ds.sample_ids, embedding)
    with pytest.raises(CheckFailed):
        checks.check_roundtrip(ids[::-1], parsed, ds.sample_ids, embedding)


def test_pca_check():
    sample = np.random.default_rng(8).uniform(size=(12, 30))
    pca = evaluation.pca_fit(sample, 4)
    checks.check_pca(pca.axes, pca.explained_variance, sample)
    with pytest.raises(CheckFailed):
        checks.check_pca(pca.axes * 1.001, pca.explained_variance, sample)
    with pytest.raises(CheckFailed):
        checks.check_pca(pca.axes, pca.explained_variance * 1.001, sample)


def test_probe_and_scatter_checks():
    checks.check_probe_monotone([3.0, 2.0, 2.0, 1.5])
    with pytest.raises(CheckFailed):
        checks.check_probe_monotone([3.0, 2.0, 2.1])
    svg = "<svg>" + '<circle cx="1"/>' * 3 + "</svg>"
    checks.check_scatter(svg, 3)
    with pytest.raises(CheckFailed):
        checks.check_scatter(svg, 4)


def fake(sid, name, parent, thread, start, end):
    return spans.Span(sid, name, parent, thread, start, end)


def test_self_times_and_accounting():
    phase = spans.Phase(
        [
            fake(1, "bench.round", None, 1, 0.0, 10.0),
            fake(2, "a", 1, 1, 1.0, 4.0),
            fake(3, "b", 2, 1, 2.0, 3.0),
            fake(4, "fold", 1, 2, 1.0, 9.0),  # another thread: not subtracted from its parent
            fake(5, "c", 4, 2, 2.0, 5.0),
        ],
        {},
        10.0,
    )
    own = spans.self_times(phase.spans)
    assert own == {1: 7.0, 2: 2.0, 3: 1.0, 4: 5.0, 5: 3.0}
    assert spans.accounting_error(phase) is None
    short = spans.Phase(phase.spans, {}, 12.0)
    assert "self times" in spans.accounting_error(short)
    # children that overlap on one thread cover more than their parent ran
    overlapping = spans.Phase(phase.spans + [fake(6, "d", 2, 1, 1.5, 3.9)], {}, 10.0)
    assert "negative" in spans.accounting_error(overlapping)


def test_install_traces_and_undo_restores():
    original_forward = layers.LinearLayer.forward
    original_sym_eig = evaluation.sym_eig
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert evaluation.sym_eig is not original_sym_eig
        root = tracer.open("bench.round")
        model = tiny_model()
        model.embed(*tiny_inputs())
        evaluation.pca_fit(np.random.default_rng(1).uniform(size=(6, 9)), 2)
        tracer.close(root)
    finally:
        patches.undo()
    assert layers.LinearLayer.forward is original_forward
    assert evaluation.sym_eig is original_sym_eig
    names = {s.name for s in tracer.spans}
    assert {"model.OmiVaeModel.embed", "layers.LinearLayer.forward", "numerics.sym_eig"} <= names
    embed = next(s for s in tracer.spans if s.name == "model.OmiVaeModel.embed")
    encode = next(s for s in tracer.spans if s.name == "model.OmiVaeModel.encode")
    assert encode.parent == embed.sid
    phase = spans.Phase(tracer.spans, dict(tracer.counters), root.duration)
    assert spans.accounting_error(phase) is None
    # forward flops of every encoder linear layer (both latent heads), 7 rows each
    dims = [(5, 4), (4, 4), (8, 8), (6, 8), (8, 8), (16, 8), (8, 4), (8, 4)]
    assert tracer.counters["linear_flops"] == sum(2 * 7 * i * o for i, o in dims)
    metrics = spans.per_layer_metrics(phase, [phase], 1.0)
    assert set(metrics) == set(spans.PER_LAYER)
    assert metrics["numerics.sym_eig_calls"] == 2


def test_bare_directory_exits_nonzero(tmp_path):
    import subprocess
    import sys

    script = os.path.join(os.path.dirname(__file__), "run.py")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, script, "--workload", "ingest-analyze", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert time.perf_counter() - t0 < 120
