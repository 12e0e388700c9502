import tracemalloc
from xml.etree import ElementTree

import numpy as np
import pytest

from omivae import data
from omivae.data import OmicsDataset, SyntheticSpec, synthesize
from omivae.errors import ValidationError
from omivae.evaluation import (
    PALETTE,
    PROBE_GRAD_TOL,
    PROBE_L2,
    PROBE_MAX_ITER,
    UNLABELED_COLOR,
    compute_metrics,
    embed_dataset,
    export_embedding,
    pca_fit,
    pca_transform,
    predict_classes,
    probe_fit,
    probe_predict,
    read_embedding_tsv,
    render_scatter,
)
from omivae.losses import LossWeights
from omivae.model import ModelConfig, build_model
from omivae.numerics import RngState, sym_eig
from omivae.optim import evaluate_losses


def brute_force_metrics(true, pred, num_classes):
    """Independent per-class tally used as the oracle for compute_metrics."""
    total = len(true)
    correct = sum(1 for t, p in zip(true, pred) if t == p)
    weighted = {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    for c in range(num_classes):
        tp = sum(1 for t, p in zip(true, pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(true, pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(true, pred) if t == c and p != c)
        support = tp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        weighted["precision"] += precision * support
        weighted["recall"] += recall * support
        weighted["f1"] += f1 * support
    return (
        correct / total,
        weighted["precision"] / total,
        weighted["recall"] / total,
        weighted["f1"] / total,
    )


class TestComputeMetrics:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        report = compute_metrics(labels, labels, 3)
        assert report.accuracy == 1.0
        assert report.weighted_precision == 1.0
        assert report.weighted_recall == 1.0
        assert report.weighted_f1 == 1.0

    def test_hand_worked_confusion(self):
        true = np.array([0] * 4 + [1] * 6)
        pred = np.array([0, 0, 0, 1, 0, 0, 1, 1, 1, 1])
        report = compute_metrics(true, pred, 2)
        assert np.array_equal(report.confusion, np.array([[3, 1], [2, 4]]))
        assert abs(report.accuracy - 0.7) < 1e-12
        assert abs(report.per_class_f1[0] - 2 / 3) < 1e-4
        assert abs(report.per_class_f1[1] - 0.7273) < 1e-4
        assert abs(report.weighted_f1 - 0.703) < 1e-3

    def test_single_class_collapse(self):
        true = np.array([0, 1, 2] * 5)
        pred = np.zeros(15, dtype=int)
        report = compute_metrics(true, pred, 3)
        assert abs(report.accuracy - 1 / 3) < 1e-12
        # classes never predicted get precision 0
        assert report.per_class_precision[1] == 0.0
        assert report.per_class_precision[2] == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            k = int(2 + rng.integers(0, 5))
            n = int(10 + rng.integers(0, 40))
            true = np.asarray(rng.integers(0, k, n))
            pred = np.asarray(rng.integers(0, k, n))
            report = compute_metrics(true, pred, k)
            acc, wp, wr, wf = brute_force_metrics(true.tolist(), pred.tolist(), k)
            assert abs(report.accuracy - acc) <= 1e-12
            assert abs(report.weighted_precision - wp) <= 1e-12
            assert abs(report.weighted_recall - wr) <= 1e-12
            assert abs(report.weighted_f1 - wf) <= 1e-12
            # support-weighted recall is algebraically the accuracy
            assert abs(report.weighted_recall - report.accuracy) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            compute_metrics(np.array([0, 3]), np.array([0, 1]), 3)

    def test_report_serialization(self):
        report = compute_metrics(np.array([0, 1]), np.array([0, 1]), 2)
        text = report.to_text(["a", "b"])
        assert "accuracy=1.0" in text
        tsv = report.confusion_tsv(["a", "b"])
        assert tsv.splitlines()[1] == "a\t1\t0"


class TestPca:
    def test_line_data_is_rank_one(self):
        t = np.linspace(-1.0, 1.0, 30).reshape(-1, 1)
        data = t @ np.array([[2.0, -1.0, 0.5]]) + np.array([1.0, 2.0, 3.0])
        model = pca_fit(data, components=2)
        total = model.explained_variance.sum()
        assert model.explained_variance[0] / total > 1.0 - 1e-9
        assert model.explained_variance[1] < 1e-9

    @pytest.mark.parametrize(
        "shape", [(20, 8), (9, 14)], ids=["features<=samples", "features>samples"]
    )
    def test_matches_an_eigh_oracle(self, shape):
        # np.linalg.eigh of the sample covariance, independent of pca_fit's route
        rng = RngState(1)
        for _ in range(5):
            data = rng.uniform(0.0, 1.0, shape)
            model = pca_fit(data, 4)
            centered = data - data.mean(axis=0)
            eigenvalues, vectors = np.linalg.eigh(centered.T @ centered / (shape[0] - 1))
            assert np.allclose(model.explained_variance, eigenvalues[::-1][:4], rtol=0, atol=1e-10)
            for c in range(4):
                assert abs(abs(float(model.axes[:, c] @ vectors[:, -1 - c])) - 1.0) < 1e-8
            scores = pca_transform(model, data)
            oracle_scores = centered @ vectors[:, ::-1][:, :4]
            assert np.allclose(np.abs(scores), np.abs(oracle_scores), rtol=0, atol=1e-8)

    def test_axes_orthonormal(self):
        data = RngState(2).uniform(0.0, 1.0, (12, 30))  # features > samples: gram route
        model = pca_fit(data, 5)
        assert np.allclose(model.axes.T @ model.axes, np.eye(5), atol=1e-8)

    @pytest.mark.parametrize("shape", [(20, 50), (12, 30), (6, 7)])
    def test_rank_deficient_axes_complete_an_orthonormal_set(self, shape):
        # n centred samples span n - 1 directions, so the last axis is filler
        n = shape[0]
        data = RngState(13).uniform(0.0, 1.0, shape)
        model = pca_fit(data, n)
        assert np.abs(model.axes.T @ model.axes - np.eye(n)).max() <= 1e-12
        assert model.explained_variance[-1] == 0.0
        assert np.all(model.explained_variance[:-1] > 1e-3)
        assert np.abs(pca_transform(model, data)[:, -1]).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_a_null_direction_has_zero_variance_on_the_covariance_route(self, seed):
        # 6 centred samples of 6 features span 5 directions: the sixth
        # eigenvalue is rounding, which the rank cutoff reports as 0
        model = pca_fit(RngState(seed).uniform(0.0, 1.0, (6, 6)), 6)
        assert model.explained_variance[-1] == 0.0
        assert np.all(model.explained_variance[:-1] > 1e-3)

    def test_transform_variance_equals_explained(self):
        data = RngState(3).uniform(0.0, 1.0, (25, 6))
        model = pca_fit(data, 4)
        embedding = pca_transform(model, data)
        variances = embedding.var(axis=0, ddof=1)
        assert np.allclose(variances, model.explained_variance, atol=1e-8)

    def test_components_bounds(self):
        data = np.zeros((5, 3))
        with pytest.raises(ValidationError):
            pca_fit(data, 4)
        with pytest.raises(ValidationError):
            pca_fit(data, 0)

    def test_sign_convention_deterministic(self):
        data = RngState(4).uniform(0.0, 1.0, (15, 6))
        a = pca_fit(data, 3)
        b = pca_fit(data, 3)
        assert np.array_equal(a.axes, b.axes)
        for c in range(3):
            i = int(np.argmax(np.abs(a.axes[:, c])))
            assert a.axes[i, c] > 0


class TestProbe:
    def test_separable_clusters(self):
        rng = RngState(5)
        a = rng.standard_normal(120, 2) * 0.3 + np.array([3.0, 0.0])
        b = rng.standard_normal(120, 2) * 0.3 + np.array([-3.0, 0.0])
        x = np.vstack([a, b])
        y = np.array([0] * 120 + [1] * 120)
        order = RngState(6).permutation(240)
        train, test = order[:160], order[160:]
        probe = probe_fit(x[train], y[train])
        accuracy = float((probe_predict(probe, x[test]) == y[test]).mean())
        assert accuracy >= 0.99

    def test_shuffled_labels_hit_chance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((400, 2))
        y = np.asarray(rng.integers(0, 4, 400))
        probe = probe_fit(x[:200], y[:200])
        accuracy = float((probe_predict(probe, x[200:]) == y[200:]).mean())
        assert abs(accuracy - 0.25) <= 0.1

    def test_duplicating_training_points_changes_nothing(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((60, 3))
        y = np.asarray(rng.integers(0, 3, 60))
        once = probe_fit(x, y)
        twice = probe_fit(np.vstack([x, x]), np.concatenate([y, y]))
        assert np.allclose(once.weights, twice.weights, atol=1e-9)
        grid = rng.standard_normal((50, 3))
        assert np.array_equal(probe_predict(once, grid), probe_predict(twice, grid))

    def test_loss_monotone_nonincreasing(self):
        rng = RngState(9)
        x = rng.standard_normal(100, 2)
        y = (x[:, 0] + 0.3 * np.asarray(rng.standard_normal(100, 1))[:, 0] > 0).astype(int)
        probe = probe_fit(x, y)
        losses = np.array(probe.loss_history)
        assert np.all(np.diff(losses) <= 1e-12)
        # the benchmark's fit: 600 x 16 PCA-like scores of 10 classes, held to
        # its monotone check (a rise beyond 1e-12 relative marks a run incorrect)
        y = np.arange(600) % 10
        centres = rng.standard_normal(10, 16) * 2.0
        x = (centres[y] + rng.standard_normal(600, 16)) * np.geomspace(8.0, 0.5, 16)
        losses = np.array(probe_fit(x, y).loss_history)
        assert np.all(losses[1:] <= losses[:-1] + 1e-12 * np.abs(losses[:-1]))

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            probe_fit(np.zeros((5, 2)), np.zeros(5, dtype=int))

    @pytest.mark.parametrize("labels", [
        np.zeros((6, 1), dtype=int),  # a column: it would broadcast into a wrong one-hot
        np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]),
        np.array([False, True, True, False, True, False]),
    ], ids=["column", "float", "bool"])
    def test_labels_must_be_a_vector_of_integers(self, labels):
        with pytest.raises(ValidationError, match="1-D vector of integers"):
            probe_fit(RngState(11).standard_normal(6, 2), labels)

    def test_narrow_integer_labels_fit_like_int64(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((600, 3))
        y = rng.integers(0, 5, 600)
        wide, narrow = probe_fit(x, y), probe_fit(x, y.astype(np.uint8))
        assert narrow.weights.tobytes() == wide.weights.tobytes()

    # numpy's own row sums (pairwise past 8 values) add the classes in
    # another order than the class-major loop, so the row-major form agrees
    # only to rounding; 600 x 16 with 10 classes is the benchmark's fit
    @pytest.mark.parametrize("rows, features, classes", [
        (150, 5, 2), (150, 5, 4), (150, 5, 9), (150, 5, 10), (150, 5, 17), (150, 5, 33),
        (600, 16, 10), (150, 5, 130),
    ])
    def test_bit_equal_to_the_two_exponential_form(self, rows, features, classes):
        """The in-place loop gives the weights and losses of the same
        class-major steps written out of place, bit for bit, and agrees to
        rounding with the row-major form that took `exp` once for the
        probabilities and again for the normaliser."""
        rng = RngState(10)
        scales = np.resize([1.0, 2.0, 0.5, 3.0, 1e-3], features)
        x = rng.standard_normal(rows, features) * scales + 0.7
        mix = rng.standard_normal(features, classes)
        y = np.argmax(x @ mix + np.asarray(rng.standard_normal(rows, classes)), axis=1)
        y[:classes] = np.arange(classes)
        probe = probe_fit(x, y)
        n = x.shape[0]
        design = probe._design(x)
        dt = np.ascontiguousarray(design.T)
        cols = np.arange(n)
        onehot = np.zeros((classes, n))
        onehot[y, cols] = 1.0
        onehot_rows = np.ascontiguousarray(onehot.T)
        step = 1.0 / (0.5 * float(sym_eig(design.T @ design / n)[0][0]) + PROBE_L2)

        w, row_w = np.zeros((2, features + 1, classes))
        losses, row_losses = [], []
        for _ in range(PROBE_MAX_ITER):
            logits = w.T @ dt
            shifted = logits - logits.max(axis=0)
            e = np.exp(shifted)
            total = e.sum(axis=0)
            ce = float((np.log(total) - shifted[y, cols]).mean())
            losses.append(ce + 0.5 * PROBE_L2 * float((w * w).sum()))
            grad = dt @ (e / total - onehot).T / n + PROBE_L2 * w

            logits = design @ row_w
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            probs = e / e.sum(axis=1, keepdims=True)
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_norm = np.log(np.exp(shifted).sum(axis=1))
            ce = float((log_norm - shifted[cols, y]).mean())
            row_losses.append(ce + 0.5 * PROBE_L2 * float((row_w * row_w).sum()))
            row_grad = design.T @ (probs - onehot_rows) / n + PROBE_L2 * row_w

            stop = float(np.linalg.norm(grad)) < PROBE_GRAD_TOL
            assert stop == (float(np.linalg.norm(row_grad)) < PROBE_GRAD_TOL)
            if stop:
                break
            w -= step * grad
            row_w -= step * row_grad
        assert len(losses) > 100
        assert probe.loss_history == losses
        assert probe.weights.tobytes() == w.tobytes()
        assert np.abs(row_w - w).max() <= 1e-13 * np.abs(row_w).max()
        assert np.all(np.abs(np.subtract(row_losses, losses)) <= 1e-13 * np.abs(row_losses))


class TestEmbeddingExport:
    def make_dataset(self):
        return synthesize(
            SyntheticSpec(
                num_classes=2,
                samples_per_class=3,
                num_blocks=1,
                features_per_block=6,
                expr_features=5,
                seed=11,
            )
        )

    def make_model(self, ds):
        """An untrained model of `ds`'s widths with a 2-dimensional latent space."""
        config = ModelConfig(methyl_block_dims=ds.methyl_block_dims, expr_dim=ds.expr_dim,
                             per_block_hidden=3, modality_dim=4, fusion_dim=4, latent_dim=2,
                             classifier_hidden=(3, 3), num_classes=2)
        return build_model(config, RngState(0))

    def test_pca_export_columns_and_round_trip(self, tmp_path):
        ds = self.make_dataset()
        model = self.make_model(ds)
        path = str(tmp_path / "emb.tsv")
        embedding = export_embedding(model, ds, path)
        ids, parsed, classes = read_embedding_tsv(path)
        assert ids == ds.sample_ids
        assert classes == [ds.class_vocab[i] for i in ds.labels]
        assert np.array_equal(parsed, embedding)  # bit-exact round trip
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split("\t")
        assert header == ["sample_id", "dim_1", "dim_2", "class_name"]

    def test_ids_holding_line_break_characters_round_trip(self, tmp_path):
        ds = self.make_dataset()
        # characters str.splitlines() breaks on; the writers only emit "\n"
        ds.sample_ids = [f"S{c}{i}" for i, c in enumerate(["\u0085", "\x1c", "\u2028"] * 2)]
        cache = str(tmp_path / "ds.omids")
        ds.save(cache)
        loaded = OmicsDataset.load(cache)
        assert loaded.sample_ids == ds.sample_ids
        path = str(tmp_path / "emb.tsv")
        export_embedding(self.make_model(loaded), loaded, path)
        ids, _, _ = read_embedding_tsv(path)
        assert ids == ds.sample_ids

    def test_unlabeled_omits_class_column(self, tmp_path):
        ds = self.make_dataset()
        ds.labels = None
        ds.class_vocab = None
        model = self.make_model(ds)
        path = str(tmp_path / "emb.tsv")
        export_embedding(model, ds, path)
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split("\t")
        assert header == ["sample_id", "dim_1", "dim_2"]


R = 8  # the inference chunk the tests below patch in


class TestChunkedInference:
    """Validation, embedding and prediction run in chunks of `INFER_ROWS`
    rows and match one whole-batch pass, bit-equal while the rows fit one
    chunk."""

    def first_rows(self, n):
        ds = synthesize(SyntheticSpec(num_classes=3, samples_per_class=6, num_blocks=2,
                                      features_per_block=5, expr_features=7, seed=4))
        return OmicsDataset(
            sample_ids=ds.sample_ids[:n],
            expression=ds.expression[:n],
            methylation_blocks=[b[:n] for b in ds.methylation_blocks],
            labels=ds.labels[:n],
            class_vocab=ds.class_vocab,
        )

    @pytest.mark.parametrize("n", [R - 1, R, R + 1, 2 * R + 1])
    def test_chunks_match_one_whole_batch(self, monkeypatch, n):
        ds = self.first_rows(n)
        config = ModelConfig(methyl_block_dims=(5, 5), expr_dim=7, per_block_hidden=4,
                             modality_dim=6, fusion_dim=5, latent_dim=3,
                             classifier_hidden=(4, 4), num_classes=3)
        model = build_model(config, RngState(3))
        every = np.arange(n)
        x_expr, x_blocks = ds.batch(every)
        whole_embedding = model.embed(x_expr, x_blocks)
        whole_classes = np.argmax(model.predict_proba(x_expr, x_blocks), axis=1)
        weights = LossWeights(1.0, 1.0)
        monkeypatch.setattr(data, "INFER_ROWS", n)
        whole_report, whole_accuracy = evaluate_losses(model, ds, every, weights)

        monkeypatch.setattr(data, "INFER_ROWS", R)
        embedding = embed_dataset(model, ds)
        classes = predict_classes(model, ds, every)
        report, accuracy = evaluate_losses(model, ds, every, weights)
        assert np.array_equal(classes, whole_classes)
        assert accuracy == whole_accuracy
        if n <= R:
            assert embedding.tobytes() == whole_embedding.tobytes()
            assert report == whole_report
        else:
            np.testing.assert_allclose(embedding, whole_embedding, rtol=1e-12, atol=1e-15)
            for field in ("recon_methyl", "recon_expr", "kl", "classification", "total"):
                a, b = getattr(report, field), getattr(whole_report, field)
                assert abs(a - b) <= 1e-12 * abs(b), field

    def test_model_embedding_holds_under_half_a_cohort_copy(self, monkeypatch):
        """At 128 rows a chunk, embedding the default cohort with a
        default-size model peaks below half a float64 copy of the cohort."""
        ds = synthesize(SyntheticSpec(samples_per_class=300, seed=2))  # 3,000 x 1,400
        model = build_model(ModelConfig(methyl_block_dims=ds.methyl_block_dims,
                                        expr_dim=ds.expr_dim, num_classes=len(ds.class_vocab)),
                            RngState(5))
        monkeypatch.setattr(data, "INFER_ROWS", 128)
        tracemalloc.start()
        try:
            embedding = embed_dataset(model, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cohort = ds.num_samples * (sum(ds.methyl_block_dims) + ds.expr_dim) * 8
        assert embedding.shape == (3000, model.config.latent_dim)
        assert peak < 0.5 * cohort, peak / cohort


class TestRenderScatter:
    def write_embedding(self, tmp_path, labeled=True):
        lines = ["sample_id\tdim_1\tdim_2" + ("\tclass_name" if labeled else "")]
        points = [("s1", 0.0, 0.0, "x"), ("s2", 1.0, 0.5, "x"), ("s3", 0.2, 1.0, "y"), ("s4", 1.0, 1.0, "y")]
        for sid, a, b, cls in points:
            row = f"{sid}\t{a}\t{b}"
            if labeled:
                row += f"\t{cls}"
            lines.append(row)
        path = tmp_path / "emb.tsv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_circle_and_legend_counts(self, tmp_path):
        path = self.write_embedding(tmp_path)
        out = str(tmp_path / "plot.svg")
        render_scatter(path, out)
        with open(out) as fh:
            svg = fh.read()
        assert svg.count("<circle") == 4
        assert svg.count("<text") == 2

    def test_byte_identical_reruns(self, tmp_path):
        path = self.write_embedding(tmp_path)
        out1 = str(tmp_path / "a.svg")
        out2 = str(tmp_path / "b.svg")
        render_scatter(path, out1)
        render_scatter(path, out2)
        with open(out1, "rb") as a, open(out2, "rb") as b:
            assert a.read() == b.read()

    def test_class_names_are_escaped(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("sample_id\tdim_1\tdim_2\tclass_name\ns1\t0\t0\tA&B\ns2\t1\t1\t<x>\n")
        out = tmp_path / "plot.svg"
        render_scatter(str(path), str(out))
        texts = ElementTree.parse(out).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert [t.text for t in texts] == ["<x>", "A&B"]

    def test_a_class_holding_a_character_xml_forbids_is_well_formed(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("sample_id\tdim_1\tdim_2\tclass_name\ns1\t0\t0\tA\x01B\ns2\t1\t1\tC\n")
        out = tmp_path / "plot.svg"
        render_scatter(str(path), str(out))
        texts = ElementTree.parse(out).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert [t.text for t in texts] == ["A\ufffdB", "C"]

    def test_an_unlabeled_sample_is_drawn_neutral_without_a_legend_row(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text(
            "sample_id\tdim_1\tdim_2\tclass_name\n"
            "s1\t0\t0\tBRCA\ns2\t1\t1\t\ns3\t0.5\t0.2\tLUAD\n"
        )
        out = tmp_path / "plot.svg"
        render_scatter(str(path), str(out))
        root = ElementTree.parse(out).getroot()
        svg = "{http://www.w3.org/2000/svg}"
        fills = [c.get("fill") for c in root.iter(svg + "circle")]
        assert fills == [PALETTE[0], UNLABELED_COLOR, PALETTE[1]]
        assert [t.text for t in root.iter(svg + "text")] == ["BRCA", "LUAD"]

    def test_palette_has_34_distinct_colors(self):
        assert len(PALETTE) == 34
        assert len(set(PALETTE)) == 34

    def test_34_class_legend(self, tmp_path):
        lines = ["sample_id\tdim_1\tdim_2\tclass_name"]
        for i in range(34):
            lines.append(f"s{i}\t{float(i)}\t{float(i % 7)}\tclass{i:02d}")
        path = tmp_path / "emb.tsv"
        path.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "plot.svg")
        render_scatter(path, out)
        with open(out) as fh:
            svg = fh.read()
        used = {line.split('fill="')[1].split('"')[0] for line in svg.splitlines() if "<rect x=" in line and "fill=\"#" in line}
        assert len(used) == 34
