import numpy as np
import pytest

from omivae.data import SyntheticSpec, synthesize
from omivae.errors import ValidationError
from omivae.evaluation import (
    PALETTE,
    PROBE_GRAD_TOL,
    PROBE_L2,
    PROBE_MAX_ITER,
    compute_metrics,
    dataset_matrix,
    export_embedding,
    pca_fit,
    pca_transform,
    probe_fit,
    probe_predict,
    read_embedding_tsv,
    render_scatter,
)
from omivae.numerics import RngState, sym_eig


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
        rng = RngState(0)
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

    def test_gram_route_matches_covariance_oracle(self):
        rng = RngState(1)
        for _ in range(5):
            data = rng.uniform(0.0, 1.0, (20, 8))
            direct = pca_fit(data, 4, method="covariance")
            gram = pca_fit(data, 4, method="gram")
            for c in range(4):
                dot = abs(float(direct.axes[:, c] @ gram.axes[:, c]))
                assert abs(dot - 1.0) < 1e-8
                assert abs(direct.explained_variance[c] - gram.explained_variance[c]) < 1e-8
            embedding_a = pca_transform(direct, data)
            embedding_b = pca_transform(gram, data)
            assert np.max(np.abs(np.abs(embedding_a) - np.abs(embedding_b))) < 1e-8

    def test_axes_orthonormal(self):
        data = RngState(2).uniform(0.0, 1.0, (12, 30))  # features > samples: gram route
        model = pca_fit(data, 5)
        assert np.allclose(model.axes.T @ model.axes, np.eye(5), atol=1e-8)

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
        rng = RngState(7)
        x = rng.standard_normal(400, 2)
        y = np.asarray(rng.integers(0, 4, 400))
        probe = probe_fit(x[:200], y[:200])
        accuracy = float((probe_predict(probe, x[200:]) == y[200:]).mean())
        assert abs(accuracy - 0.25) <= 0.1

    def test_duplicating_training_points_changes_nothing(self):
        rng = RngState(8)
        x = rng.standard_normal(60, 3)
        y = np.asarray(rng.integers(0, 3, 60))
        once = probe_fit(x, y)
        twice = probe_fit(np.vstack([x, x]), np.concatenate([y, y]))
        assert np.allclose(once.weights, twice.weights, atol=1e-9)
        grid = rng.standard_normal(50, 3)
        assert np.array_equal(probe_predict(once, grid), probe_predict(twice, grid))

    def test_loss_monotone_nonincreasing(self):
        rng = RngState(9)
        x = rng.standard_normal(100, 2)
        y = (x[:, 0] + 0.3 * np.asarray(rng.standard_normal(100, 1))[:, 0] > 0).astype(int)
        probe = probe_fit(x, y)
        losses = np.array(probe.loss_history)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            probe_fit(np.zeros((5, 2)), np.zeros(5, dtype=int))

    def test_bit_equal_to_the_two_exponential_form(self):
        """One `exp` per step gives the weights and losses of the form that
        took `exp` once for the probabilities and again for the normaliser."""
        rng = RngState(10)
        x = rng.standard_normal(150, 5) * np.array([1.0, 2.0, 0.5, 3.0, 1e-3]) + 0.7
        y = np.argmax(x[:, :4] + np.asarray(rng.standard_normal(150, 4)), axis=1)
        probe = probe_fit(x, y)
        n = x.shape[0]
        design = probe._design(x)
        onehot = np.zeros((n, 4))
        onehot[np.arange(n), y] = 1.0
        step = 1.0 / (0.5 * float(sym_eig(design.T @ design / n)[0][0]) + PROBE_L2)
        w = np.zeros((6, 4))
        losses = []
        for _ in range(PROBE_MAX_ITER):
            logits = design @ w
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            probs = e / e.sum(axis=1, keepdims=True)
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_norm = np.log(np.exp(shifted).sum(axis=1))
            ce = float((log_norm - shifted[np.arange(n), y]).mean())
            losses.append(ce + 0.5 * PROBE_L2 * float((w * w).sum()))
            grad = design.T @ (probs - onehot) / n + PROBE_L2 * w
            if float(np.linalg.norm(grad)) < PROBE_GRAD_TOL:
                break
            w -= step * grad
        assert len(losses) > 100
        assert probe.loss_history == losses
        assert probe.weights.tobytes() == w.tobytes()


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

    def test_pca_export_columns_and_round_trip(self, tmp_path):
        ds = self.make_dataset()
        model = pca_fit(dataset_matrix(ds), 2)
        path = str(tmp_path / "emb.tsv")
        embedding = export_embedding(model, ds, path)
        ids, parsed, classes = read_embedding_tsv(path)
        assert ids == ds.sample_ids
        assert classes == [ds.class_vocab[i] for i in ds.labels]
        assert np.array_equal(parsed, embedding)  # bit-exact round trip
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split("\t")
        assert header == ["sample_id", "dim_1", "dim_2", "class_name"]

    def test_unlabeled_omits_class_column(self, tmp_path):
        ds = self.make_dataset()
        ds.labels = None
        ds.class_vocab = None
        model = pca_fit(dataset_matrix(ds), 2)
        path = str(tmp_path / "emb.tsv")
        export_embedding(model, ds, path)
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split("\t")
        assert header == ["sample_id", "dim_1", "dim_2"]


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
