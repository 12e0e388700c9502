"""The binary container: corrupt names, file modes, atomic replacement, the
CLI on a bad file, and the memory a save or load holds beyond its tensors."""

import contextlib
import os
import struct
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from omivae import cli
from omivae.container import encode_str_list, read_container, write_container
from omivae.data import SyntheticSpec, synthesize, write_labels_tsv
from omivae.errors import FormatError
from omivae.optim import CHECKPOINT_MAGIC, CHECKPOINT_VERSION


def non_utf8_name_checkpoint(path):
    """Magic, version, empty config, one tensor whose 2-byte name is not UTF-8."""
    blob = (
        CHECKPOINT_MAGIC
        + struct.pack("<I", CHECKPOINT_VERSION)
        + struct.pack("<I", 0)
        + struct.pack("<I", 1)
        + struct.pack("<I", 2)
        + b"\xff\xfe"
    )
    with open(path, "wb") as fh:
        fh.write(blob)


def test_non_utf8_tensor_name_is_a_format_error(tmp_path):
    path = str(tmp_path / "bad.omvae")
    non_utf8_name_checkpoint(path)
    with pytest.raises(FormatError, match="tensor name is not valid UTF-8"):
        read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)


def test_embed_on_non_utf8_name_prints_one_error_line(tmp_path, capsys):
    path = str(tmp_path / "bad.omvae")
    non_utf8_name_checkpoint(path)
    code = cli.main(
        ["embed", "--checkpoint", path, "--data", str(tmp_path / "absent.omids"),
         "--out", str(tmp_path / "embedding.tsv")]
    )
    err = capsys.readouterr().err
    # FormatError is a ValidationError, so a corrupt file exits 1 like bad magic does
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("omivae: error: validation: ")
    assert "tensor name is not valid UTF-8" in err


@pytest.mark.parametrize("separator", ["\t", "\n", "\r"])
def test_an_id_holding_a_tab_or_line_end_is_not_saved(tmp_path, separator):
    # every TSV reader ends a line at "\r", so an exported embedding would
    # split such an ID's row in two
    ds = synthesize(SyntheticSpec(num_classes=2, samples_per_class=3, num_blocks=1,
                                  features_per_block=4, expr_features=5))
    ds.sample_ids = [f"S{separator}{i}" for i in range(ds.num_samples)]
    path = tmp_path / "ds.omids"
    with pytest.raises(FormatError, match="list item contains a separator"):
        ds.save(str(path))
    assert not path.exists()


def test_an_empty_id_is_not_saved(tmp_path):
    # "" would be written as the text of an empty list
    assert encode_str_list(["a", "b"]) == "a\tb"
    with pytest.raises(FormatError, match="list item is empty"):
        encode_str_list([""])
    ds = synthesize(SyntheticSpec(num_classes=2, samples_per_class=3, num_blocks=1,
                                  features_per_block=4, expr_features=5))
    ds.expression_feature_ids[0] = ""
    path = tmp_path / "ds.omids"
    with pytest.raises(FormatError, match="list item is empty"):
        ds.save(str(path))
    assert not path.exists()


MB = 2**20


@contextlib.contextmanager
def traced_peak():
    """Yields a list that holds, after the block, the peak bytes numpy and
    Python allocated inside it."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
        peak.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def test_tensor_size_does_not_wrap_around(tmp_path):
    path = str(tmp_path / "huge.omvae")
    # 2**31 * 2**31 * 4 elements is 2**64: a 64-bit product wraps to 0; and
    # 4096 * 4096 elements is 128 MB, more than the file holds
    for dims in [(2**31, 2**31, 4), (4096, 4096)]:
        blob = (
            CHECKPOINT_MAGIC
            + struct.pack("<4I", CHECKPOINT_VERSION, 0, 1, 1)  # version, empty config, 1 tensor
            + b"w"
            + struct.pack(f"<{1 + len(dims)}I", len(dims), *dims)  # rank, dims, no payload
            + struct.pack("<I", 0)
        )
        with open(path, "wb") as fh:
            fh.write(blob)
        with traced_peak() as peak, pytest.raises(FormatError, match="truncated"):
            read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        assert peak[0] < 64 * 1024, dims  # refused before anything is allocated


def test_a_save_holds_no_second_copy_of_the_tensors(tmp_path):
    path = str(tmp_path / "big.bin")
    tensor = np.linspace(0.0, 1.0, MB)  # 8 MB
    with traced_peak() as peak:
        write_container(path, b"TEST01", 1, {"k": "v"}, [("w", tensor)], {"m": "1"})
    assert peak[0] < MB  # beyond the tensor
    assert os.path.getsize(path) > tensor.nbytes


def test_a_load_holds_one_copy_of_the_tensors(tmp_path):
    path = str(tmp_path / "big.bin")
    tensor = np.linspace(0.0, 1.0, MB)
    write_container(path, b"TEST01", 1, {"k": "v"}, [("w", tensor)], {"m": "1"})
    with traced_peak() as peak:
        _, tensors, _ = read_container(path, b"TEST01", 1)
    assert peak[0] < tensor.nbytes + MB  # the tensor read back, and little else
    assert tensors[0][1].tobytes() == tensor.tobytes()


def test_a_file_that_is_no_container_is_refused_after_its_header(tmp_path):
    # `omivae embed --checkpoint` given a large TSV must not read it whole
    path = tmp_path / "zeros.omvae"
    with open(path, "wb") as fh:
        fh.truncate(50 * MB)
    with traced_peak() as peak, pytest.raises(FormatError, match="bad magic"):
        read_container(str(path), CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    assert peak[0] < MB


WRITE_AND_STAT = """
import os, sys
os.umask(int(sys.argv[2], 8))
from omivae.container import write_container
from omivae.data import write_labels_tsv
write_container(sys.argv[1], b"TEST01", 1, {}, [], {})
write_labels_tsv(sys.argv[1] + ".tsv", {"S1": "BRCA"})
for path in (sys.argv[1], sys.argv[1] + ".tsv"):
    print(oct(os.stat(path).st_mode & 0o777))
"""


@pytest.mark.parametrize("umask, mode", [("022", "0o644"), ("077", "0o600")])
def test_written_file_honours_the_umask(tmp_path, umask, mode):
    # the umask is read when the module is imported, so each case runs in its own process
    path = str(tmp_path / "out.bin")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", WRITE_AND_STAT, path, umask],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert proc.stdout.split() == [mode, mode]  # the container, then the text file


@pytest.mark.parametrize("write", [
    lambda path: write_container(path, b"TEST01", 1, {}, [], {}),
    lambda path: write_labels_tsv(path, {"S1": "BRCA"}),
], ids=["container", "text"])
def test_a_write_that_fails_before_the_rename_leaves_the_old_file(tmp_path, write):
    path = tmp_path / "out"
    path.write_bytes(b"old contents\n")
    with mock.patch.object(os, "replace", side_effect=OSError("rename failed")):
        with pytest.raises(OSError, match="rename failed"):
            write(str(path))
    assert path.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["out"]  # and no .tmp-* file
