"""Corrupt inputs: a truncated or bit-flipped checkpoint or dataset cache,
and a mutated annotation, label or embedding TSV, load or raise FormatError
or ValidationError, never another exception."""

import io
import math
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omivae import container
from omivae.data import (
    DATASET_MAGIC,
    DATASET_VERSION,
    OmicsDataset,
    SyntheticSpec,
    load_annotations,
    load_labels,
    synthesize,
)
from omivae.errors import FormatError, ValidationError
from omivae.evaluation import read_embedding_tsv
from omivae.model import ModelConfig, build_model
from omivae.numerics import RngState
from omivae.optim import load_checkpoint, save_checkpoint

TINY = ModelConfig(
    methyl_block_dims=(3,),
    expr_dim=4,
    per_block_hidden=2,
    modality_dim=3,
    fusion_dim=5,
    latent_dim=2,
    classifier_hidden=(3, 2),
    num_classes=2,
)
SPEC = SyntheticSpec(
    num_classes=2, samples_per_class=3, num_blocks=2, features_per_block=3, expr_features=4
)
# what each kind of file is read by, as the CLI reads it
LOADERS = {
    "checkpoint": lambda path: load_checkpoint(path).build(),
    "dataset": OmicsDataset.load,
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """kind -> the bytes of an intact file."""
    d = tmp_path_factory.mktemp("corruption")
    save_checkpoint(str(d / "tiny.omvae"), build_model(TINY, RngState(0)), metadata={"phase": "2"})
    synthesize(SPEC).save(str(d / "tiny.omids"))
    return {"checkpoint": (d / "tiny.omvae").read_bytes(), "dataset": (d / "tiny.omids").read_bytes()}


def load(kind, blob):
    """Load `blob` as a file of `kind`. The container reads a file with one
    `open`; serving the bytes from memory keeps thousands of loads fast."""
    with mock.patch.object(container, "open", lambda path, mode: io.BytesIO(blob), create=True):
        return LOADERS[kind](f"corrupt.{kind}")


def u32_fields(blob):
    """Offsets of a container's u32 fields: version, lengths, count, ranks, dims."""

    def u32(at):
        return struct.unpack_from("<I", blob, at)[0]

    fields = [6, 10]  # after the magic: the version, the config block's length
    at = 14 + u32(10)
    fields.append(at)  # the tensor count
    count, at = u32(at), at + 4
    for _ in range(count):
        fields.append(at)  # the name's length
        at += 4 + u32(at)
        rank = u32(at)
        fields += [at + 4 * i for i in range(1 + rank)]  # the rank and the dims
        at += 4 + 4 * rank + 8 * math.prod(struct.unpack_from(f"<{rank}I", blob, at + 4))
    assert at + 4 + u32(at) == len(blob)  # the metadata block ends the file
    return fields + [at]  # and its length


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_the_intact_file_loads(files, kind):
    load(kind, files[kind])


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_truncation_is_a_format_error(files, kind):
    blob = files[kind]
    for length in range(len(blob)):
        with pytest.raises(FormatError):
            load(kind, blob[:length])


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_flip_of_a_length_rank_or_dim_loads_or_is_a_validation_error(files, kind):
    blob = files[kind]
    for at in u32_fields(blob):
        for bit in range(32):
            corrupt = bytearray(blob)
            corrupt[at + bit // 8] ^= 1 << bit % 8
            try:
                load(kind, bytes(corrupt))
            except ValidationError:  # FormatError included
                pass


def rewrite(tmp_path, blob, config=None, drop=()):
    """The bytes of the container `blob` with `config` as its config block
    and without the metadata keys in `drop`."""
    path = str(tmp_path / "rewritten.omids")
    with open(path, "wb") as fh:
        fh.write(blob)
    old, tensors, metadata = container.read_container(path, DATASET_MAGIC, DATASET_VERSION)
    for key in drop:
        del metadata[key]
    container.write_container(path, DATASET_MAGIC, DATASET_VERSION,
                              old if config is None else config, tensors, metadata)
    with open(path, "rb") as fh:
        return fh.read()


def test_a_feature_list_shorter_than_its_block_names_the_block(files):
    blob = files["dataset"]
    tab = blob.index(b"\t", blob.index(b"block01.features="))
    with pytest.raises(FormatError, match="methyl.block01 has 3 columns but 2 feature IDs"):
        load("dataset", blob[:tab] + b"_" + blob[tab + 1:])


def test_a_tensor_without_its_name_list_is_a_format_error(files, tmp_path):
    blob = rewrite(tmp_path, files["dataset"], drop=["expression_features"])
    with pytest.raises(FormatError, match=r"corrupt.dataset: the cache holds tensors \['expression'"):
        load("dataset", blob)


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.5, 2.0, -2.0])
def test_a_label_that_is_no_class_index_is_a_format_error(files, value):
    blob = files["dataset"]
    # the labels tensor: name length, name, rank 1, its one dim, then the payload
    at = blob.index(b"\x06\x00\x00\x00labels") + 4 + 6 + 4 + 4
    corrupt = blob[:at] + struct.pack("<d", value) + blob[at + 8:]
    with pytest.raises(FormatError, match="labels are not indices into class_vocab, or -1"):
        load("dataset", corrupt)


def test_the_config_block_is_empty_and_an_older_one_is_ignored(files, tmp_path):
    assert struct.unpack_from("<I", files["dataset"], 10) == (0,)  # the config block's length
    older = {"has_expression": "true", "has_labels": "true", "num_blocks": "2", "num_samples": "6"}
    back = load("dataset", rewrite(tmp_path, files["dataset"], config=older))
    intact = load("dataset", files["dataset"])
    assert back.block_chromosomes == intact.block_chromosomes == ["1", "2"]
    assert back.methylation_block_features == intact.methylation_block_features
    assert np.array_equal(back.expression, intact.expression)
    assert np.array_equal(back.labels, intact.labels)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=150)
@given(data=st.data())
def test_a_flipped_bit_loads_or_is_a_validation_error(files, kind, data):
    blob = files[kind]
    corrupt = bytearray(blob)
    corrupt[data.draw(st.integers(0, len(blob) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    # a flip inside a float payload leaves a well-formed file, which loads
    try:
        load(kind, bytes(corrupt))
    except ValidationError:  # FormatError included
        pass


# kind -> (reader, the rows of a valid file)
TSV_READERS = {
    "annotations": (
        load_annotations, [b"feature_id\tchromosome", b"g1\t1", b"g2\tX", b"cg3\tNA"]),
    "labels": (load_labels, [b"sample_id\tclass_name", b"S1\tBRCA", b"S2\tLUAD"]),
    "embedding": (
        read_embedding_tsv,
        [b"sample_id\tdim_1\tdim_2\tclass_name", b"S1\t0.5\t-1.25\tBRCA", b"S2\t0\t3e-05\tLUAD"],
    ),
}
# stray tabs, NUL, non-UTF-8 bytes, line-break characters, non-finite numbers,
# and quotes, which are plain characters: alone and opening a cell
TOKENS = [b"\t", b"\x00", b"\xff", b"\xc3", b"\n", b"\r", b"\r\n", "\u0085".encode(), b"\x1c",
          "\u2028".encode(), b"nan", b"inf", b"-inf", b"", b'"', b'\t"']


def mutate(rows, data):
    """Apply one to three edits: insert a token, replace a cell by one, cut a
    row short, or repeat a row (a duplicate key)."""
    rows = list(rows)
    for _ in range(data.draw(st.integers(1, 3))):
        r = data.draw(st.integers(0, len(rows) - 1))
        row = rows[r]
        edit = data.draw(st.sampled_from(["insert", "cell", "cut", "repeat"]))
        if edit == "insert":
            at = data.draw(st.integers(0, len(row)))
            rows[r] = row[:at] + data.draw(st.sampled_from(TOKENS)) + row[at:]
        elif edit == "cell":
            cells = row.split(b"\t")
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(st.sampled_from(TOKENS))
            rows[r] = b"\t".join(cells)
        elif edit == "cut":
            rows[r] = row[: data.draw(st.integers(0, max(len(row) - 1, 0)))]
        else:
            rows.insert(r, row)
    return b"\n".join(rows) + b"\n"


@pytest.fixture(scope="module")
def tsv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tsv") / "input.tsv"


@pytest.mark.parametrize("kind", sorted(TSV_READERS))
@settings(max_examples=200)
@given(data=st.data())
def test_a_mutated_tsv_loads_or_is_a_validation_error(tsv_path, kind, data):
    reader, rows = TSV_READERS[kind]
    blob = mutate(rows, data)
    tsv_path.write_bytes(blob)
    try:
        loaded = reader(str(tsv_path))
    except ValidationError:
        return
    # what loads holds one stripped key per line, unique and not empty, the
    # lines split where Python's text files split them: at "\r\n", "\r"
    # and "\n" only
    lines = re.split(rb"\r\n|\r|\n", blob)[1:-1]
    keys = [line.split(b"\t")[0].decode("utf-8").strip() for line in lines]
    ids = loaded[0] if kind == "embedding" else list(loaded)  # (IDs, values, classes)
    assert ids == keys
    assert "" not in keys and len(set(keys)) == len(keys)
