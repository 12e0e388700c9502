import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omivae.data import (
    OmicsDataset,
    PreprocessConfig,
    RawMatrix,
    SyntheticSpec,
    dataset_to_raw,
    load_annotations,
    load_labels,
    load_matrix_tsv,
    preprocess,
    restrict_modalities,
    stratified_kfold,
    synthesize,
    write_matrix_tsv,
    _parse_cell,
)
from omivae.errors import FormatError, ValidationError
from omivae.numerics import RngState


class TestLoadMatrixTsv:
    def write(self, tmp_path, text, name="m.tsv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_golden_values_and_ids(self, tmp_path):
        path = self.write(
            tmp_path,
            "id\tsampleA\tsampleB\n"
            "f1\t1.0\t2.0\n"
            "f2\t3.5\t-4.0\n"
            "f3\t0.25\t0.75\n",
        )
        raw = load_matrix_tsv(path)
        assert raw.sample_ids == ["sampleA", "sampleB"]
        assert raw.feature_ids == ["f1", "f2", "f3"]
        assert np.array_equal(
            raw.values, np.array([[1.0, 3.5, 0.25], [2.0, -4.0, 0.75]])
        )

    def test_na_cell_becomes_missing(self, tmp_path):
        path = self.write(tmp_path, "id\ts1\ts2\nf1\tNA\t2.0\n")
        raw = load_matrix_tsv(path)
        assert np.isnan(raw.values[0, 0])
        assert raw.values[1, 0] == 2.0

    def test_duplicate_sample_column_is_named(self, tmp_path):
        path = self.write(tmp_path, "id\tsX\tsX\nf1\t1\t2\n")
        with pytest.raises(ValidationError, match="sX"):
            load_matrix_tsv(path)

    def test_duplicate_feature_row(self, tmp_path):
        path = self.write(tmp_path, "id\ts1\nf1\t1\nf1\t2\n")
        with pytest.raises(ValidationError, match="f1"):
            load_matrix_tsv(path)

    def test_ragged_row(self, tmp_path):
        path = self.write(tmp_path, "id\ts1\ts2\nf1\t1.0\n")
        with pytest.raises(ValidationError, match="ragged"):
            load_matrix_tsv(path)

    def test_unparseable_numeric(self, tmp_path):
        path = self.write(tmp_path, "id\ts1\nf1\tbogus\n")
        with pytest.raises(ValidationError, match="bogus"):
            load_matrix_tsv(path)

    def test_round_trip_with_writer(self, tmp_path):
        """Bit-exact, NaN positions included, across the double range."""
        rng = RngState(4)
        values = rng.standard_normal(30, 12) * np.exp(rng.uniform(-30.0, 30.0, (30, 12)))
        values[rng.uniform(0.0, 1.0, (30, 12)) < 0.1] = np.nan
        values[0, : len(SPECIAL)] = SPECIAL
        raw = RawMatrix([f"s{i}" for i in range(30)], [f"f{j}" for j in range(12)], values)
        path = str(tmp_path / "round.tsv")
        write_matrix_tsv(path, raw)
        back = load_matrix_tsv(path)
        assert back.sample_ids == raw.sample_ids
        assert back.feature_ids == raw.feature_ids
        assert back.values.tobytes() == values.tobytes()


SPECIAL = [np.nan, -0.0, 0.0, 5e-324, np.inf, -np.inf, 1e16, 1e-5, 0.1, -2.5, 1e300, 123456789.0]

# cells the matrix grammar accepts, rejects, or strips first; no tab, newline
# or quote, which would change the record rather than the cell
PADDING = st.sampled_from([" ", "  ", "\x0b", "\x0c", "\x1c", "\x1f"])
NUMBERS = st.one_of(
    st.floats().map(repr),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-400, 400)),
    st.builds("{}E+{}".format, st.floats(0, 10).map(repr), st.integers(0, 20)),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "-Infinity", "+1.5", "1_000",
                     ".5", "5.", "00", "-0"]),
)
MISSING = st.sampled_from(["NA", ""])
INVALID = st.sampled_from(["bogus", "N/A", "na", "1.2.3", "--1", "1e", "0x10", "1__0", "_1",
                           "inf inity", "1,5", "NA NA"])
CELLS = st.one_of(
    NUMBERS,
    MISSING,
    st.builds("{}{}{}".format, PADDING, st.one_of(NUMBERS, MISSING), PADDING),
    PADDING,
    INVALID,
)


class TestMatrixGrammar:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(table=st.integers(1, 4).flatmap(
        lambda cols: st.lists(st.lists(CELLS, min_size=cols, max_size=cols), min_size=1, max_size=4)
    ))
    def test_bulk_rows_match_the_cell_parser(self, tmp_path_factory, table):
        """Values, NaN positions and signs, and the first bad cell's error are
        those of `_parse_cell` applied cell by cell."""
        path = str(tmp_path_factory.mktemp("grammar") / "m.tsv")
        lines = ["id\t" + "\t".join(f"s{j}" for j in range(len(table[0])))]
        lines += [f"f{r}\t" + "\t".join(row) for r, row in enumerate(table)]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            expected = np.array(
                [[_parse_cell(c, path, r + 2, j + 2) for j, c in enumerate(row)]
                 for r, row in enumerate(table)],
                dtype=np.float64,
            ).T
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                load_matrix_tsv(path)
            assert str(got.value) == str(exc)
            return
        raw = load_matrix_tsv(path)
        assert raw.values.dtype == np.float64 and raw.values.flags.c_contiguous
        assert raw.values.shape == expected.shape
        assert raw.values.tobytes() == expected.tobytes()

    def test_padded_cells_and_the_first_bad_column(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("id\ts1\ts2\ts3\nf1\t NA \t 2.5\x1c\t\x0b\nf2\t1\tx\ty\n")
        with pytest.raises(ValidationError) as got:
            load_matrix_tsv(str(path))
        assert str(got.value) == f"{path}: unparseable numeric value 'x' at row 3, column 3"
        path.write_text("id\ts1\ts2\ts3\nf1\t NA \t 2.5\x1c\t\x0b\n")
        values = load_matrix_tsv(str(path)).values
        assert np.isnan(values[0, 0]) and values[1, 0] == 2.5 and np.isnan(values[2, 0])

    def test_peak_memory_is_about_two_copies(self, tmp_path):
        """Rows become float64 arrays as they are read and are stacked once."""
        rng = RngState(3)
        values = np.round(rng.uniform(0.0, 1.0, (1000, 200)), 4)
        values[values < 0.02] = np.nan
        raw = RawMatrix([f"sample{i:04d}" for i in range(1000)],
                        [f"probe{j:03d}" for j in range(200)], values)
        path = str(tmp_path / "m.tsv")
        write_matrix_tsv(path, raw)
        tracemalloc.start()
        try:
            back = load_matrix_tsv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.values.tobytes() == values.tobytes()
        assert peak <= 2.5 * back.values.nbytes, peak / back.values.nbytes


class TestWriteMatrixTsv:
    def test_bytes_equal_per_cell_formatting(self, tmp_path):
        values = np.array([SPECIAL, SPECIAL[::-1]])
        raw = RawMatrix(["a", "b"], [f"f{j}" for j in range(len(SPECIAL))], values)
        path = tmp_path / "m.tsv"
        write_matrix_tsv(str(path), raw)
        expected = "id\ta\tb\n" + "".join(
            f"f{j}\t" + "\t".join("NA" if np.isnan(v) else repr(float(v)) for v in values[:, j]) + "\n"
            for j in range(values.shape[1])
        )
        assert path.read_bytes() == expected.encode()


class TestAnnotationAndLabelFiles:
    def test_annotations(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("feature_id\tchromosome\nf1\t1\nf2\tX\nf3\tNA\n")
        ann = load_annotations(str(path))
        assert ann == {"f1": "1", "f2": "X", "f3": "NA"}

    def test_invalid_chromosome(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("feature_id\tchromosome\nf1\tchr99\n")
        with pytest.raises(ValidationError, match="chr99"):
            load_annotations(str(path))

    def test_labels(self, tmp_path):
        path = tmp_path / "lab.tsv"
        path.write_text("sample_id\tclass_name\ns1\tBRCA\ns2\tLUAD\n")
        assert load_labels(str(path)) == {"s1": "BRCA", "s2": "LUAD"}


class TestPreprocessGolden:
    def test_rule_counts_and_values(self, golden_raw):
        expression, methylation, annotations, labels = golden_raw
        dataset, report = preprocess(expression, methylation, annotations, labels=labels)

        assert report.expression_removed == {
            "y_chromosome": 1,
            "all_zero": 1,
            "high_missing": 1,
        }
        assert report.expression_kept == 3
        assert report.methylation_removed == {
            "unmapped_or_control": 1,
            "y_chromosome": 1,
            "high_missing": 1,
        }
        assert report.methylation_kept == 3
        assert dataset.expression_feature_ids == ["eEdge", "eOk", "eConst"]

        # the feature missing in exactly 10% of samples is retained
        assert "eEdge" in dataset.expression_feature_ids

        # eEdge imputed with the observed mean 3.0, then min-max over [2, 4] -> 0.5
        edge = dataset.expression[:, 0]
        assert abs(edge[0] - 0.5) < 1e-12
        assert edge.min() == 0.0 and edge.max() == 1.0

        # eOk spans [0, 9] -> normalized endpoints 0 and 1
        ok = dataset.expression[:, 1]
        assert ok[0] == 0.0 and ok[-1] == 1.0

        # constant feature normalizes to zero everywhere
        assert np.array_equal(dataset.expression[:, 2], np.zeros(10))

        # blocks follow chromosome order; features keep input order inside a block
        assert dataset.block_chromosomes == ["1", "2"]
        assert dataset.methylation_block_features == [["mOk2", "mEdge"], ["mOk1"]]
        # mEdge imputed with mean of its nine observed values = 0.5
        assert abs(dataset.methylation_blocks[0][0, 1] - 0.5) < 1e-12

        assert dataset.class_vocab == ["tumourA", "tumourB"]
        assert dataset.labels.tolist() == [0, 1] * 5

    def test_imputation_preserves_observed_means(self, golden_raw):
        expression, methylation, annotations, _ = golden_raw
        config = PreprocessConfig(normalize_expression=False)
        dataset, _ = preprocess(expression, methylation, annotations, config)
        observed = expression.values[:, 3]  # eEdge pre-imputation
        observed_mean = observed[~np.isnan(observed)].mean()
        assert abs(dataset.expression[:, 0].mean() - observed_mean) < 1e-12

    def test_idempotent(self, golden_raw):
        # constant features are excluded: they normalize to 0 (by design) and
        # would then legitimately fall to the all-zero rule on a second pass
        expression, methylation, annotations, labels = golden_raw
        keep = [i for i, f in enumerate(expression.feature_ids) if f != "eConst"]
        expression = RawMatrix(
            sample_ids=expression.sample_ids,
            feature_ids=[expression.feature_ids[i] for i in keep],
            values=expression.values[:, keep],
        )
        first, _ = preprocess(expression, methylation, annotations, labels=labels)
        expr2, methyl2, ann2 = dataset_to_raw(first)
        label_map = {
            s: first.class_vocab[first.labels[i]] for i, s in enumerate(first.sample_ids)
        }
        second, report2 = preprocess(expr2, methyl2, ann2, labels=label_map)
        assert np.array_equal(first.expression, second.expression)
        for a, b in zip(first.methylation_blocks, second.methylation_blocks):
            assert np.array_equal(a, b)
        assert first.methylation_block_features == second.methylation_block_features
        assert sum(report2.expression_removed.values()) == 0
        assert sum(report2.methylation_removed.values()) == 0

    def test_grouping_partitions_kept_features(self, golden_raw):
        _, methylation, annotations, _ = golden_raw
        dataset, report = preprocess(None, methylation, annotations)
        grouped = [f for block in dataset.methylation_block_features for f in block]
        assert sorted(grouped) == ["mEdge", "mOk1", "mOk2"]
        assert len(grouped) == report.methylation_kept

    def test_sample_intersection(self, golden_raw):
        expression, methylation, annotations, _ = golden_raw
        smaller = RawMatrix(
            sample_ids=methylation.sample_ids[:8],
            feature_ids=methylation.feature_ids,
            values=methylation.values[:8],
        )
        dataset, report = preprocess(expression, smaller, annotations)
        assert dataset.num_samples == 8
        assert report.samples_dropped == 2

    def test_empty_after_filtering(self, golden_raw):
        _, methylation, _, _ = golden_raw
        with pytest.raises(ValidationError, match="survive"):
            preprocess(None, methylation, {})  # nothing mapped -> all dropped

    def test_train_only_normalization_stats_clip(self, golden_raw):
        expression, _, annotations, _ = golden_raw
        dataset, _ = preprocess(
            expression, None, annotations, train_sample_ids=[f"P{i:02d}" for i in range(5)]
        )
        assert dataset.expression.min() >= 0.0
        assert dataset.expression.max() <= 1.0


class TestStratifiedKFold:
    def test_even_split(self):
        labels = np.array([0] * 50 + [1] * 50)
        folds = stratified_kfold(labels, 10, seed=0)
        for fold in folds.folds:
            assert fold.size == 10
            assert (labels[fold] == 0).sum() == 5
            assert (labels[fold] == 1).sum() == 5

    def test_remainder_goes_to_leading_folds(self):
        labels = np.zeros(11, dtype=int)
        folds = stratified_kfold(labels, 10, seed=1)
        sizes = sorted((f.size for f in folds.folds), reverse=True)
        assert sizes == [2] + [1] * 9

    def test_determinism_and_seed_sensitivity(self):
        labels = np.array([0, 1] * 30)
        a = stratified_kfold(labels, 5, seed=3)
        b = stratified_kfold(labels, 5, seed=3)
        c = stratified_kfold(labels, 5, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a.folds, b.folds))
        assert any(not np.array_equal(x, y) for x, y in zip(a.folds, c.folds))

    def test_small_class_rejected(self):
        labels = np.array([0] * 20 + [1] * 3)
        with pytest.raises(ValidationError, match="class 1"):
            stratified_kfold(labels, 5, seed=0)

    def test_partition_and_balance_invariants(self):
        rng = RngState(5)
        for trial in range(10):
            num_classes = 2 + trial % 4
            counts = [int(5 + rng.integers(0, 20)) for _ in range(num_classes)]
            labels = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
            labels = labels[rng.permutation(labels.size)]
            k = 5
            folds = stratified_kfold(labels, k, seed=trial)
            joined = np.concatenate(folds.folds)
            assert np.array_equal(np.sort(joined), np.arange(labels.size))
            for cls in range(num_classes):
                per_fold = [(labels[f] == cls).sum() for f in folds.folds]
                assert max(per_fold) - min(per_fold) <= 1

    def test_round_roles(self):
        labels = np.array([0, 1] * 20)
        folds = stratified_kfold(labels, 4, seed=0)
        train, val, test = folds.round(1)
        assert np.array_equal(test, folds.folds[1])
        assert np.array_equal(val, folds.folds[2])
        combined = np.sort(np.concatenate([train, val, test]))
        assert np.array_equal(combined, np.arange(40))

    def test_unlabeled_rejected(self):
        with pytest.raises(ValidationError):
            stratified_kfold(np.array([0, -1, 1]), 2, seed=0)


def nearest_centroid_accuracy(x, labels, train_idx, test_idx):
    classes = np.unique(labels)
    centroids = np.vstack([x[train_idx][labels[train_idx] == c].mean(axis=0) for c in classes])
    distance = ((x[test_idx, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    predicted = classes[np.argmin(distance, axis=1)]
    return float((predicted == labels[test_idx]).mean())


class TestSynthesize:
    def test_noiseless_same_class_rows_identical(self):
        spec = SyntheticSpec(
            num_classes=3,
            samples_per_class=4,
            num_blocks=2,
            features_per_block=10,
            expr_features=8,
            noise_sd=0.0,
            seed=2,
        )
        ds = synthesize(spec)
        for c in range(3):
            rows = np.flatnonzero(ds.labels == c)
            for matrix in [ds.expression] + ds.methylation_blocks:
                assert np.array_equal(matrix[rows[0]], matrix[rows[1]])

    def test_default_spec_signal_exists(self):
        ds = synthesize(SyntheticSpec(seed=1))
        x = np.hstack([np.hstack(ds.methylation_blocks), ds.expression])
        order = RngState(0).permutation(ds.num_samples)
        split = int(0.8 * ds.num_samples)
        accuracy = nearest_centroid_accuracy(x, ds.labels, order[:split], order[split:])
        assert accuracy >= 0.95

    def test_missing_rate_realized(self):
        spec = SyntheticSpec(
            num_classes=4,
            samples_per_class=30,
            num_blocks=2,
            features_per_block=50,
            expr_features=50,
            missing_rate=0.05,
            seed=3,
        )
        ds = synthesize(spec)
        joined = np.hstack([np.hstack(ds.methylation_blocks), ds.expression])
        assert abs(np.isnan(joined).mean() - 0.05) < 0.01

    def test_deterministic(self):
        a = synthesize(SyntheticSpec(num_classes=3, samples_per_class=5, seed=9))
        b = synthesize(SyntheticSpec(num_classes=3, samples_per_class=5, seed=9))
        assert np.array_equal(a.expression, b.expression)
        for x, y in zip(a.methylation_blocks, b.methylation_blocks):
            assert np.array_equal(x, y)

    def test_split_signal_hides_one_factor_per_modality(self):
        # classes sharing an expression-factor coordinate get identical expression
        spec = SyntheticSpec(
            num_classes=4,
            samples_per_class=2,
            num_blocks=1,
            features_per_block=12,
            expr_features=12,
            noise_sd=0.0,
            split_signal=True,
            seed=4,
        )
        ds = synthesize(spec)
        # with A=2: classes 0 and 2 share a (= c % 2 = 0), differ in b
        row0 = np.flatnonzero(ds.labels == 0)[0]
        row2 = np.flatnonzero(ds.labels == 2)[0]
        assert np.array_equal(ds.expression[row0], ds.expression[row2])
        assert not np.array_equal(
            ds.methylation_blocks[0][row0], ds.methylation_blocks[0][row2]
        )


class TestDatasetContainer:
    def test_save_load_round_trip(self, tmp_path, golden_raw):
        expression, methylation, annotations, labels = golden_raw
        dataset, _ = preprocess(expression, methylation, annotations, labels=labels)
        path = str(tmp_path / "ds.omids")
        dataset.save(path)
        back = OmicsDataset.load(path)
        assert back.sample_ids == dataset.sample_ids
        assert np.array_equal(back.expression, dataset.expression)
        for a, b in zip(back.methylation_blocks, dataset.methylation_blocks):
            assert np.array_equal(a, b)
        assert back.methylation_block_features == dataset.methylation_block_features
        assert back.block_chromosomes == dataset.block_chromosomes
        assert np.array_equal(back.labels, dataset.labels)
        assert back.class_vocab == dataset.class_vocab

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.omids"
        path.write_bytes(b"NOTMAG" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            OmicsDataset.load(str(path))

    def test_restrict_modalities(self, golden_raw):
        expression, methylation, annotations, labels = golden_raw
        dataset, _ = preprocess(expression, methylation, annotations, labels=labels)
        expr_only = restrict_modalities(dataset, expression=True, methylation=False)
        assert expr_only.methylation_blocks is None
        assert expr_only.expression is not None
        with pytest.raises(ValidationError):
            restrict_modalities(dataset, expression=False, methylation=False)
