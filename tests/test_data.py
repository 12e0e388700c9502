import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omivae import data
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
from omivae.evaluation import read_embedding_tsv
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

    @pytest.mark.parametrize("text, where", [
        ("id\ts1\t \nf1\t1\t2\n", "empty sample ID in column 3"),
        ("id\ts1\ts2\nf1\t1\t2\n\t3\t4\n", "empty feature ID in row 3"),
    ])
    def test_an_empty_id_is_named(self, tmp_path, text, where):
        path = self.write(tmp_path, text)
        with pytest.raises(ValidationError, match=f"{path}: {where}"):
            load_matrix_tsv(path)

    def test_duplicate_sample_column_is_named(self, tmp_path):
        path = self.write(tmp_path, "id\tsX\tsX\nf1\t1\t2\n")
        with pytest.raises(ValidationError, match="sX"):
            load_matrix_tsv(path)

    def test_duplicate_sample_is_reported_before_any_row_is_parsed(self, tmp_path):
        path = self.write(tmp_path, "id\tsX\tsX\nf1\t1\t2\nf2\t3\toops\n")
        with pytest.raises(ValidationError, match="duplicate sample ID 'sX'"):
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
        """Bit-exact, NaN positions included, across the finite double range."""
        rng = RngState(4)
        values = rng.standard_normal(30, 12) * np.exp(rng.uniform(-30.0, 30.0, (30, 12)))
        values[rng.uniform(0.0, 1.0, (30, 12)) < 0.1] = np.nan
        finite = [v for v in SPECIAL if not np.isinf(v)]
        values[0, : len(finite)] = finite
        raw = RawMatrix([f"s{i}" for i in range(30)], [f"f{j}" for j in range(12)], values)
        path = str(tmp_path / "round.tsv")
        write_matrix_tsv(path, raw)
        back = load_matrix_tsv(path)
        assert back.sample_ids == raw.sample_ids
        assert back.feature_ids == raw.feature_ids
        assert back.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e400"])
    def test_an_infinite_cell_is_named(self, tmp_path, cell):
        path = tmp_path / "m.tsv"
        path.write_text(f"id\ts1\ts2\ts3\nf1\t0.5\tNA\t0.25\nf2\t1\t2\t{cell}\n")
        with pytest.raises(ValidationError) as got:
            load_matrix_tsv(str(path))
        assert str(got.value) == f"{path}: infinite value at row 3, column 4"


SPECIAL = [np.nan, -0.0, 0.0, 5e-324, np.inf, -np.inf, 1e16, 1e-5, 0.1, -2.5, 1e300, 123456789.0]

# cells the matrix grammar accepts, rejects, or strips first; no tab or
# newline, which would change the record rather than the cell
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
                           "inf inity", "1,5", "NA NA", '"0.3'])
CELLS = st.one_of(
    NUMBERS,
    MISSING,
    st.builds("{}{}{}".format, PADDING, st.one_of(NUMBERS, MISSING), PADDING),
    PADDING,
    INVALID,
)


class TestMatrixGrammar:
    @settings(max_examples=300)
    @given(table=st.integers(1, 4).flatmap(
        lambda cols: st.lists(st.lists(CELLS, min_size=cols, max_size=cols), min_size=1, max_size=4)
    ))
    def test_bulk_rows_match_the_cell_parser(self, tmp_path_factory, table):
        """Values, NaN positions and signs, and the first bad cell's error are
        those of `_parse_cell` applied cell by cell; a table that parses
        whole is then rejected at its first infinite cell."""
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
        infinite = np.argwhere(np.isinf(expected.T))
        if infinite.size:
            with pytest.raises(ValidationError) as got:
                load_matrix_tsv(path)
            r, j = infinite[0]
            assert str(got.value) == f"{path}: infinite value at row {r + 2}, column {j + 2}"
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


# cells numpy's reader and `float()` may read differently, beside plain ones
EDGE_CELLS = st.sampled_from([
    " NA", "NA ", "", " ", "NAN", "NA\x00", "NAinf", "1_0", "١٢", "１", "1\x1c", "1\xa0",
    "0x10", "#1", '"1"', "1 2", "1e500", "-nan", "nan", "-Infinity", "+.5e-3", "1\x00",
])
PLAIN_CELLS = st.one_of(st.floats(allow_infinity=False).map(repr), st.just("NA"))
# half the tables are plain; in the rest a quarter of the cells are edge cases
TABLES = st.sampled_from([PLAIN_CELLS, st.one_of(*[PLAIN_CELLS] * 3, EDGE_CELLS)]).flatmap(
    lambda cells: st.integers(1, 4).flatmap(
        lambda cols: st.lists(st.lists(cells, min_size=cols, max_size=cols), min_size=1, max_size=4)
    )
)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def grammar(cell: str) -> float | None:
    """The documented matrix cell: stripped, `NA` or empty is NaN and
    anything else is what `float()` returns for it; None where it refuses."""
    cell = cell.strip()
    if cell in ("NA", ""):
        return math.nan
    try:
        return float(cell)
    except ValueError:
        return None


def first_unparseable(path: str, table: list[list[str]]) -> str | None:
    """The error naming the first cell of `table` that `grammar` refuses,
    as the body of the TSV at `path`; None if it refuses none."""
    for r, row in enumerate(table):
        for j, cell in enumerate(row):
            if grammar(cell) is None:
                where = f"at row {r + 2}, column {j + 2}"
                return f"{path}: unparseable numeric value {cell.strip()!r} {where}"
    return None


@pytest.fixture
def per_cell_reads(monkeypatch):
    """The lines each TSV read asks `_tsv_lines` for: 1, the header, unless
    the per-cell loop reads the body too."""
    pulls: list[int] = []
    tsv_lines = data._tsv_lines

    def counted(path):
        lines = tsv_lines(path)
        pulls.append(0)
        while True:
            pulls[-1] += 1
            line = next(lines, None)
            if line is None:
                return
            yield line

    monkeypatch.setattr(data, "_tsv_lines", counted)
    return pulls


class TestNumericReader:
    """Numeric bodies go through numpy's C reader and fall back to the
    per-cell loop on anything the two could read differently; matrices and
    embeddings share the one cell grammar."""

    @settings(max_examples=300)
    @given(table=TABLES, end=LINE_ENDS)
    def test_a_matrix_reads_as_the_documented_grammar(self, tmp_path_factory, table, end):
        path = tmp_path_factory.mktemp("numeric") / "m.tsv"
        lines = ["id\t" + "\t".join(f"s{j}" for j in range(len(table[0])))]
        lines += [f"f{r}\t" + "\t".join(row) for r, row in enumerate(table)]
        path.write_bytes((end.join(lines) + end).encode())
        path = str(path)
        error = first_unparseable(path, table)
        if error:
            with pytest.raises(ValidationError) as got:
                load_matrix_tsv(path)
            assert str(got.value) == error
            return
        expected = np.array([[grammar(c) for c in row] for row in table], dtype=np.float64)
        infinite = np.argwhere(np.isinf(expected))
        if infinite.size:
            with pytest.raises(ValidationError) as got:
                load_matrix_tsv(path)
            r, j = infinite[0]
            assert str(got.value) == f"{path}: infinite value at row {r + 2}, column {j + 2}"
            return
        raw = load_matrix_tsv(path)
        assert raw.feature_ids == [f"f{r}" for r in range(len(table))]
        assert raw.values.dtype == np.float64 and raw.values.flags.c_contiguous
        assert raw.values.tobytes() == np.ascontiguousarray(expected.T).tobytes()

    @settings(max_examples=300)
    @given(table=TABLES, end=LINE_ENDS, name=st.sampled_from(["A", "", " b "]))
    def test_an_embedding_reads_as_the_documented_grammar(
        self, tmp_path_factory, table, end, name
    ):
        """Values are the matrix grammar's, and a missing or infinite one is
        refused by its row and column."""
        path = tmp_path_factory.mktemp("numeric") / "e.tsv"
        dims = "\t".join(f"dim_{j + 1}" for j in range(len(table[0])))
        lines = [f"sample_id\t{dims}\tclass_name"]
        lines += [f"s{r}\t" + "\t".join(row) + f"\t{name}" for r, row in enumerate(table)]
        path.write_bytes((end.join(lines) + end).encode())
        path = str(path)
        error = first_unparseable(path, table)
        if error:
            with pytest.raises(ValidationError) as got:
                read_embedding_tsv(path)
            assert str(got.value) == error
            return
        expected = np.array([[grammar(c) for c in row] for row in table], dtype=np.float64)
        refused = np.argwhere(~np.isfinite(expected))
        if refused.size:
            with pytest.raises(ValidationError) as got:
                read_embedding_tsv(path)
            r, j = refused[0]
            what = "missing" if np.isnan(expected[r, j]) else "infinite"
            where = f"at row {r + 2}, column {j + 2}"
            assert str(got.value) == f"{path}: {what} embedding value {where}"
            return
        ids, values, classes = read_embedding_tsv(path)
        assert ids == [f"s{r}" for r in range(len(table))]
        assert classes == [name] * len(table)
        assert values.dtype == np.float64 and values.flags.c_contiguous
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text, result", [
        ("id\ts1\ts2\nf1\t0.5\tNA\nf2\t-1e-3\t2\n", [[0.5, -1e-3], [np.nan, 2.0]]),
        ("id\ts1\nf1\tNA\n", [[np.nan]]),
        ("id\ts1\ts2\n f1 \tnan\t1E2\n", [[np.nan], [100.0]]),
        ("id\ts1\nf1\t1\x1f\n", [[1.0]]),
    ])
    def test_a_well_formed_matrix_skips_the_per_cell_loop(
        self, tmp_path, per_cell_reads, text, result
    ):
        path = tmp_path / "m.tsv"
        path.write_text(text)
        raw = load_matrix_tsv(str(path))
        assert per_cell_reads == [1]
        assert raw.values.tobytes() == np.array(result).tobytes()

    @pytest.mark.parametrize("text, result", [
        ("id\ts1\ts2\nf1\t NA\t2\n", [[np.nan], [2.0]]),
        ("id\ts1\ts2\nf1\tNAN\t1_0\n", [[np.nan], [10.0]]),
        ("id\ts1\ts2\nf1\t\t١٢\n", [[np.nan], [12.0]]),
        ("id\ts1\nf1\t\nf2\t1\n", [[np.nan, 1.0]]),
        ("id\ts1\ts2\nf1\t1\nf2\t2\n", "ragged row 2: 2 cells, expected 3"),
        ("id\ts1\n", "no data rows"),
        ("id\ts1\ts2\nf1\t1\tbogus\n", "unparseable numeric value 'bogus' at row 2, column 3"),
    ])
    def test_an_irregular_matrix_takes_the_per_cell_loop(
        self, tmp_path, per_cell_reads, text, result
    ):
        path = tmp_path / "m.tsv"
        path.write_text(text)
        if isinstance(result, str):
            with pytest.raises(ValidationError) as got:
                load_matrix_tsv(str(path))
            assert str(got.value) == f"{path}: {result}"
        else:
            assert load_matrix_tsv(str(path)).values.tobytes() == np.array(result).tobytes()
        assert per_cell_reads[0] >= 2

    def test_an_empty_feature_id_is_refused_after_numpys_read(self, tmp_path, per_cell_reads):
        path = tmp_path / "m.tsv"
        path.write_text("id\ts1\ts2\n \t1\t2\n")
        with pytest.raises(ValidationError) as got:
            load_matrix_tsv(str(path))
        assert str(got.value) == f"{path}: empty feature ID in row 2"
        assert per_cell_reads == [1]

    def test_a_well_formed_embedding_skips_the_per_cell_loop(self, tmp_path, per_cell_reads):
        path = tmp_path / "e.tsv"
        path.write_text("sample_id\tdim_1\tdim_2\tclass_name\ns1\t0.5\t-2\tA\ns2\t1e-3\t3\t\n")
        ids, values, classes = read_embedding_tsv(str(path))
        assert per_cell_reads == [1]
        assert (ids, classes) == (["s1", "s2"], ["A", ""])
        assert values.tobytes() == np.array([[0.5, -2.0], [1e-3, 3.0]]).tobytes()

    def test_a_separator_padded_embedding_cell_skips_the_per_cell_loop(
        self, tmp_path, per_cell_reads
    ):
        """Numpy's reader strips an ASCII separator from around a number, as
        the grammar does."""
        rows = ["s1\t0.5\t-2\tA", "s3\t1\x1c\t1\tA"]
        path = tmp_path / "e.tsv"
        path.write_text("sample_id\tdim_1\tdim_2\tclass_name\n" + "\n".join(rows) + "\n")
        ids, values, classes = read_embedding_tsv(str(path))
        assert per_cell_reads == [1]
        assert (ids, classes) == (["s1", "s3"], ["A", "A"])
        expected = [[grammar(c) for c in row.split("\t")[1:3]] for row in rows]
        assert values.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("row, problem", [
        ("s1\t1\tA", "ragged row 2: 3 cells, expected 4"),
        ("s1\t1\t2\t3\tA", "ragged row 2: 5 cells, expected 4"),
        ("\t1_0\t2\tA", "empty sample ID in row 2"),
        (" s1 \t1_0\t2\tA", None),
        ("", "ragged row 2: 1 cells, expected 4"),
    ])
    def test_an_irregular_embedding_takes_the_per_cell_loop(
        self, tmp_path, per_cell_reads, row, problem
    ):
        """A row the loop accepts reads as the grammar's values; the first
        cell, stripped, is the sample ID."""
        path = tmp_path / "e.tsv"
        path.write_text(f"sample_id\tdim_1\tdim_2\tclass_name\n{row}\n")
        if problem is None:
            ids, values, _ = read_embedding_tsv(str(path))
            cells = row.split("\t")
            assert ids == [cells[0].strip()]
            assert values.tobytes() == np.array([[grammar(c) for c in cells[1:3]]]).tobytes()
        else:
            with pytest.raises(ValidationError) as got:
                read_embedding_tsv(str(path))
            assert str(got.value) == f"{path}: {problem}"
        assert per_cell_reads[0] >= 2

    @pytest.mark.parametrize("rows, loop, problem", [
        ("s1\tinf\t1\tA", False, "infinite embedding value at row 2, column 2"),
        ("s1\tNA\t1\tA", False, "missing embedding value at row 2, column 2"),
        ("s1\t0.5\t1\t\ns2\tnan\t-inf\tB", False, "missing embedding value at row 3, column 2"),
        ("s1\t1_0\t-1e400\tA", True, "infinite embedding value at row 2, column 3"),
        ("s1\t2\t1\tA\ns2\t1\t NA\tB", True, "missing embedding value at row 3, column 3"),
        ("s1\t\t1\x1c\tA", True, "missing embedding value at row 2, column 2"),
    ], ids=["inf-numpy", "NA-numpy", "nan-numpy", "inf-loop", "NA-loop", "empty-loop"])
    def test_a_missing_or_infinite_embedding_value_is_named(
        self, tmp_path, per_cell_reads, rows, loop, problem
    ):
        """By its row and column, from numpy's reader and the loop alike."""
        path = tmp_path / "e.tsv"
        path.write_text(f"sample_id\tdim_1\tdim_2\tclass_name\n{rows}\n")
        with pytest.raises(ValidationError) as got:
            read_embedding_tsv(str(path))
        assert str(got.value) == f"{path}: {problem}"
        assert (per_cell_reads[0] >= 2) == loop

    @pytest.mark.parametrize("irregular", [
        "s1\t1_0\t-2.5\tA\ns2\t 2 \t0.125\t\n",
        "s1\t10\t-2.5\x1c\tA\ns2\t2\t\u0661\u0662\t\n",
        "s1\t+10.\t-25e-1\tA\ns2\t\x0b2\t1_2\t\n",
    ])
    def test_an_irregular_embedding_reads_as_its_plain_twin(
        self, tmp_path, per_cell_reads, irregular
    ):
        """The loop and numpy's reader give the same bytes for the same values."""
        header = "sample_id\tdim_1\tdim_2\tclass_name\n"
        path = tmp_path / "irregular.tsv"
        path.write_text(header + irregular)
        ids, values, classes = read_embedding_tsv(str(path))
        cells = [line.split("\t") for line in irregular.split("\n")[:-1]]  # not at "\x1c"
        plain = "".join(f"{r[0]}\t{grammar(r[1])!r}\t{grammar(r[2])!r}\t{r[3]}\n" for r in cells)
        twin = tmp_path / "plain.tsv"
        twin.write_text(header + plain)
        assert per_cell_reads[0] >= 2
        twin_ids, twin_values, twin_classes = read_embedding_tsv(str(twin))
        assert per_cell_reads[1] == 1
        assert (ids, classes) == (twin_ids, twin_classes) == (["s1", "s2"], ["A", ""])
        assert values.tobytes() == twin_values.tobytes()

    def test_an_embedding_without_rows_takes_the_per_cell_loop(self, tmp_path, per_cell_reads):
        path = tmp_path / "e.tsv"
        path.write_text("sample_id\tdim_1\tdim_2\n")
        with pytest.raises(ValidationError, match="no data rows"):
            read_embedding_tsv(str(path))
        assert per_cell_reads == [2]


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

    def test_a_cell_longer_than_the_csv_field_limit(self, tmp_path):
        # the reader has no field limit; the csv module's default is 131,072
        path = tmp_path / "ann.tsv"
        path.write_text("feature_id\tchromosome\n" + "g" * 200_000 + "\t1\n")
        assert load_annotations(str(path)) == {"g" * 200_000: "1"}

    def test_a_quote_is_a_plain_character(self, tmp_path):
        path = tmp_path / "lab.tsv"
        path.write_text('sample_id\tclass_name\nS1\t"BRCA\nS2\tLUAD\nS3\tLUAD\n')
        assert load_labels(str(path)) == {"S1": '"BRCA', "S2": "LUAD", "S3": "LUAD"}

    def test_labels(self, tmp_path):
        path = tmp_path / "lab.tsv"
        path.write_text("sample_id\tclass_name\ns1\tBRCA\ns2\tLUAD\n")
        assert load_labels(str(path)) == {"s1": "BRCA", "s2": "LUAD"}

    @pytest.mark.parametrize("reader, text, problem", [
        (load_labels, "sample_id\tclass_name\ns1\tBRCA\n\tBRCA\n", "empty sample ID in row 3"),
        (load_labels, "sample_id\tclass_name\n \tBRCA\n", "empty sample ID in row 2"),
        (load_labels, "sample_id\tclass_name\ns1\tA\ns1 \tB\n", "duplicate sample ID 's1'"),
        (load_annotations, "feature_id\tchromosome\ng1\t1\n\t2\n", "empty feature ID in row 3"),
    ], ids=["labels-empty", "labels-blank", "labels-repeated", "annotations-empty"])
    def test_an_empty_or_repeated_key_is_named(self, tmp_path, reader, text, problem):
        path = tmp_path / "pairs.tsv"
        path.write_text(text)
        with pytest.raises(ValidationError) as got:
            reader(str(path))
        assert str(got.value) == f"{path}: {problem}"


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
        dataset, _ = preprocess(expression, methylation, annotations)
        observed = methylation.values[:, 4]  # mEdge pre-imputation
        observed_mean = observed[~np.isnan(observed)].mean()
        edge = dataset.methylation_blocks[0][:, 1]
        assert dataset.methylation_block_features[0][1] == "mEdge"
        assert abs(edge.mean() - observed_mean) < 1e-12

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

    def test_probe_missing_from_annotations_is_dropped_and_counted(self, golden_raw):
        _, methylation, annotations, _ = golden_raw
        del annotations["mUnmapped"]
        dataset, report = preprocess(None, methylation, annotations)
        assert report.methylation_removed["unmapped_or_control"] == 1
        grouped = [f for block in dataset.methylation_block_features for f in block]
        assert "mUnmapped" not in grouped
        assert len(grouped) == report.methylation_kept == 3

    def test_an_empty_class_cell_leaves_the_sample_unlabeled(self, tmp_path, golden_raw):
        expression, _, annotations, _ = golden_raw
        path = tmp_path / "labels.tsv"
        path.write_text(
            "sample_id\tclass_name\n"
            + "".join(f"P{i:02d}\t{'' if i == 3 else 'tumourA'}\n" for i in range(10))
        )
        dataset, report = preprocess(expression, None, annotations, labels=load_labels(str(path)))
        assert dataset.class_vocab == ["tumourA"]
        assert dataset.labels.tolist() == [0, 0, 0, -1] + [0] * 6
        assert report.unlabeled_samples == 1


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
        rng = np.random.default_rng(5)
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

    def test_a_cache_with_missing_cells_is_refused(self, tmp_path):
        path = str(tmp_path / "missing.omids")
        synthesize(SyntheticSpec(samples_per_class=3, missing_rate=0.05)).save(path)
        with pytest.raises(ValidationError, match=f"{path}: expression contains missing values"):
            OmicsDataset.load(path)

    def test_a_matrix_needs_one_feature_id_per_column(self, tmp_path):
        ds = synthesize(SyntheticSpec(num_classes=2, samples_per_class=3, num_blocks=2,
                                      features_per_block=3, expr_features=4))
        first = ds.methylation_block_features[0]
        cases = [
            (dict(expression_feature_ids=None),
             "expression has 4 columns but 0 feature IDs in expression_features"),
            (dict(expression_feature_ids=ds.expression_feature_ids[1:]),
             "expression has 4 columns but 3 feature IDs in expression_features"),
            (dict(methylation_block_features=[first, first[1:]]),
             "methyl.block01 has 3 columns but 2 feature IDs in block01.features"),
            (dict(methylation_block_features=[first]), "2 methylation blocks need as many"),
            (dict(block_chromosomes=None), "2 methylation blocks need as many"),
        ]
        path = tmp_path / "nameless.omids"
        for edit, message in cases:
            nameless = replace(ds, **edit)
            with pytest.raises(ValidationError, match=re.escape(message)):
                nameless.validate()
            with pytest.raises(ValidationError, match=re.escape(message)):
                nameless.save(str(path))
        assert not path.exists()

    def test_restrict_modalities(self, golden_raw):
        expression, methylation, annotations, labels = golden_raw
        dataset, _ = preprocess(expression, methylation, annotations, labels=labels)
        expr_only = restrict_modalities(dataset, expression=True, methylation=False)
        assert expr_only.methylation_blocks is None
        assert expr_only.expression is not None
        with pytest.raises(ValidationError):
            restrict_modalities(dataset, expression=False, methylation=False)


class TestValidateRange:
    def methylation_only(self, block):
        return OmicsDataset(sample_ids=[f"s{i}" for i in range(block.shape[0])],
                            methylation_blocks=[block],
                            methylation_block_features=[[f"cg{j}" for j in range(block.shape[1])]],
                            block_chromosomes=["1"])

    def test_the_range_is_checked(self):
        block = np.array([[0.25, 0.5], [1.0, 0.0]])
        self.methylation_only(block).validate()
        block[0, 1] = 1.5
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            self.methylation_only(block).validate()
        block[0, 1] = -0.5
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            self.methylation_only(block).validate()

    def test_a_missing_cell_is_refused_and_an_empty_matrix_passes(self):
        block = np.array([[0.25, np.nan], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="methyl.block00 contains missing values"):
            self.methylation_only(block).validate()
        self.methylation_only(np.zeros((3, 0))).validate()

    def test_the_range_check_copies_no_matrix(self):
        block = RngState(6).uniform(0.0, 1.0, (2000, 500))
        dataset = self.methylation_only(block)
        tracemalloc.start()
        try:
            dataset.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block.nbytes / 8, peak / block.nbytes
