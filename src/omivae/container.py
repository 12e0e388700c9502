"""Shared binary container for checkpoints and dataset caches.

Layout (little-endian throughout):

    magic           6 bytes
    format version  u32
    config block    u32 byte length + canonical key-value text (UTF-8)
    tensor count    u32
    per tensor:     u32 name length, name bytes,
                    u32 rank, u32 x rank dims,
                    float64 x prod(dims) payload
    metadata block  u32 byte length + canonical key-value text (UTF-8)

Canonical key-value text is one `key=value` line per entry, sorted by key,
newline-terminated. Values must not contain newlines; list values use tab
separators. A config dataclass's fields are written and read as text by
their annotations, the same codec that parses configuration files.

Containers and text outputs (`write_text_atomic`) are written one way: to a
temp file beside the target, then renamed over it.

A container streams one field at a time, so saving or loading holds one
copy of the tensors: `write_container` writes each payload from a view of
its own array (a tensor that is not contiguous float64 is copied alone,
while it is written), and `read_container` checks every length against the
bytes left in the file before it allocates, then reads each payload
straight into its new array. Beyond the tensors, either adds memory of the
order of the text blocks, and a file that is not a container is refused
after its first six bytes.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import tempfile

import numpy as np

from .errors import FormatError

# mkstemp creates files 0600; written files get the mode open() would give
# them. The umask can only be read by setting it, which is not safe once
# crossval's fold threads run, so it is read once, here.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def canonical_text(entries: dict[str, str]) -> str:
    for key, value in entries.items():
        if "=" in key or "\n" in key:
            raise FormatError(f"invalid canonical key: {key!r}")
        if "\n" in value:
            raise FormatError(f"canonical value for {key!r} contains a newline")
    return "".join(f"{k}={entries[k]}\n" for k in sorted(entries))


def parse_canonical_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    # "\n" is the only line break `canonical_text` emits; a value may hold others
    for line in text.split("\n"):
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"malformed canonical line: {line!r}")
        key, value = line.split("=", 1)
        if key in entries:
            raise FormatError(f"duplicate canonical key: {key!r}")
        entries[key] = value
    return entries


# annotation of a config dataclass field -> the kind of value its text holds
FIELD_KINDS = {
    "int": "int",
    "float": "float",
    "bool": "bool",
    "tuple[int, ...]": "intlist",
}


def format_value(value) -> str:
    """The text of a config value: `true`/`false` for a bool, comma lists."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def parse_value(kind: str, raw: str):
    """Inverse of `format_value` for one kind; raises ValueError on bad text."""
    if kind == "int":
        return int(raw)
    if kind == "float":
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError("not a finite number")
        return value
    if kind == "bool":
        if raw not in ("true", "false"):
            raise ValueError("expected true or false")
        return raw == "true"
    if kind == "intlist":
        return tuple(int(v) for v in raw.split(",") if v != "")
    return raw


def fields_to_text(obj) -> dict[str, str]:
    """A config dataclass as `field -> text` entries for a config block."""
    return {f.name: format_value(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def fields_from_text(cls, entries: dict[str, str]):
    """Rebuild a config dataclass from the entries `fields_to_text` wrote."""
    values = {}
    for f in dataclasses.fields(cls):
        if f.name not in entries:
            raise FormatError(f"config block is missing {f.name!r}")
        raw, kind = entries[f.name], FIELD_KINDS[f.type]
        try:
            values[f.name] = parse_value(kind, raw)
        except ValueError as exc:
            raise FormatError(f"config {f.name!r}: cannot parse {raw!r} as {kind}") from exc
    return cls(**values)


def encode_str_list(items) -> str:
    """Tab-joined items; an item may not be empty, since `[""]` would join to
    the text of `[]`, nor hold a tab, `\n` or `\r`, since the tab separates
    items and every TSV reader ends a line at `\n` or `\r`."""
    joined = list(items)
    for item in joined:
        if not item:
            raise FormatError("list item is empty")
        if "\t" in item or "\n" in item or "\r" in item:
            raise FormatError(f"list item contains a separator: {item!r}")
    return "\t".join(joined)


def decode_str_list(value: str) -> list[str]:
    return value.split("\t") if value else []


def write_container(
    path: str,
    magic: bytes,
    version: int,
    config: dict[str, str],
    tensors: list[tuple[str, np.ndarray]],
    metadata: dict[str, str],
) -> None:
    """Write atomically: a temp file in the target directory, then rename.

    Each payload is written from a view of its own array, so the write
    holds no second copy of the tensors.
    """
    if len(magic) != 6:
        raise FormatError("container magic must be exactly 6 bytes")
    config_bytes = canonical_text(config).encode("utf-8")
    meta_bytes = canonical_text(metadata).encode("utf-8")

    def chunks():
        yield magic
        yield struct.pack("<II", version, len(config_bytes))
        yield config_bytes
        yield struct.pack("<I", len(tensors))
        for name, arr in tensors:
            name_bytes = name.encode("utf-8")
            # a copy, of this one tensor, only if it is not contiguous <f8 already
            arr = np.ascontiguousarray(arr, dtype="<f8")
            yield struct.pack("<I", len(name_bytes))
            yield name_bytes
            yield struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
            yield memoryview(arr)
        yield struct.pack("<I", len(meta_bytes))
        yield meta_bytes

    _replace_file(path, chunks())


def write_text_atomic(path: str, text: str) -> None:
    """Replace `path` with `text` as UTF-8, atomically like `write_container`."""
    _replace_file(path, [text.encode("utf-8")])


def _replace_file(path: str, chunks) -> None:
    """Write the bytes-like `chunks` in turn to a temp file in the target
    directory, then rename it over `path`: a reader sees the old file or
    the new one, never a part."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


class _Reader:
    """Reads a container's fields off its open file, checking every length
    against the bytes left before anything is allocated or read."""

    def __init__(self, fh, path: str):
        self.fh = fh
        self.path = path
        self.left = fh.seek(0, os.SEEK_END)
        fh.seek(0)

    def truncated(self, n: int) -> FormatError:
        return FormatError(f"{self.path}: truncated container (needed {n} more bytes)")

    def need(self, n: int) -> None:
        if n > self.left:
            raise self.truncated(n)
        self.left -= n

    def take(self, n: int) -> bytes:
        self.need(n)
        out = self.fh.read(n)
        if len(out) != n:  # the file shrank while it was read
            raise self.truncated(n)
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self, length: int, what: str) -> str:
        try:
            return str(self.take(length), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: {what} is not valid UTF-8") from exc

    def text_block(self, what: str) -> str:
        return self.text(self.u32(), f"{what} block")

    def array(self, name: str, dims: tuple[int, ...]) -> np.ndarray:
        n = 8 * math.prod(dims)  # exact: np.prod would wrap at 2**63
        self.need(n)
        try:
            arr = np.empty(dims, dtype="<f8")
        except ValueError as exc:  # a zero dim beside dims too large for numpy
            raise FormatError(f"{self.path}: impossible shape {dims} for {name!r}") from exc
        if self.fh.readinto(arr) != n:
            raise self.truncated(n)
        return arr


def read_container(
    path: str, magic: bytes, version: int
) -> tuple[dict[str, str], list[tuple[str, np.ndarray]], dict[str, str]]:
    try:
        with open(path, "rb") as fh:
            return _read_fields(_Reader(fh, path), magic, version)
    except OSError as exc:
        raise FormatError(f"cannot read container {path}: {exc}") from exc


def _read_fields(r: _Reader, magic: bytes, version: int):
    path = r.path
    found_magic = r.take(6)
    if found_magic != magic:
        raise FormatError(
            f"{path}: bad magic {found_magic!r}, expected {magic!r}"
        )
    found_version = r.u32()
    if found_version != version:
        raise FormatError(
            f"{path}: unsupported format version {found_version}, expected {version}"
        )
    config = parse_canonical_text(r.text_block("config"))
    count = r.u32()
    tensors: list[tuple[str, np.ndarray]] = []
    for _ in range(count):
        name = r.text(r.u32(), "tensor name")
        rank = r.u32()
        if rank > 8:
            raise FormatError(f"{path}: implausible tensor rank {rank} for {name!r}")
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
        tensors.append((name, r.array(name, dims)))
    metadata = parse_canonical_text(r.text_block("metadata"))
    if r.left:
        raise FormatError(f"{path}: {r.left} trailing bytes after metadata")
    return config, tensors, metadata
