"""Flat key-value run configuration with schema validation.

Configuration files are plain text, one `key = value` per line, `#` for
comments. Every key must exist in the schema; `--set key=value` overrides
from the command line use the same keys.

The schema is read off the config dataclasses: each field of `ModelConfig`,
`TrainConfig`, `PreprocessConfig` and `SyntheticSpec` is the key
`<section>.<field>`, with the field's annotation as its kind and the field's
default as its default. A key is its field. The exceptions are the one key
in `EXTRA_KEYS`, `model.modalities`, which picks the dataset's modalities
and is not a field, and the `ModelConfig` fields in `DATASET_FIELDS`, which
are read off the dataset rather than a key.
"""

from __future__ import annotations

from dataclasses import fields

from .container import FIELD_KINDS, format_value, parse_value
from .data import PreprocessConfig, SyntheticSpec, _raw_lines
from .errors import ValidationError
from .model import ModelConfig
from .optim import TrainConfig

SECTIONS = {
    "model": ModelConfig,
    "train": TrainConfig,
    "preprocess": PreprocessConfig,
    "synth": SyntheticSpec,
}
# ModelConfig fields that `RunConfig.model_config` takes from the dataset
DATASET_FIELDS = ("methyl_block_dims", "expr_dim", "num_classes")
# key -> (kind, default) of the keys that are not dataclass fields
EXTRA_KEYS = {"model.modalities": ("str", "methylation,expression")}

# key -> (kind, default); kinds: int, float, bool, str, intlist
SCHEMA: dict[str, tuple[str, str]] = {
    f"{section}.{f.name}": (FIELD_KINDS[f.type], format_value(f.default))
    for section, cls in SECTIONS.items()
    for f in fields(cls)
    if not (cls is ModelConfig and f.name in DATASET_FIELDS)
} | EXTRA_KEYS


def _parse_key(key: str, raw: str):
    kind = SCHEMA[key][0]
    try:
        return parse_value(kind, raw)
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from exc


class RunConfig:
    """Typed view over the flat configuration keys; `given` holds the keys a
    file or an override set, the rest keep their defaults."""

    def __init__(self, values: dict[str, object], given: frozenset[str] = frozenset()):
        self.values = values
        self.given = given

    def __getitem__(self, key: str):
        return self.values[key]

    def modalities(self) -> tuple[bool, bool]:
        """Whether model.modalities names (expression, methylation): the
        arguments of `data.restrict_modalities`."""
        names = [m.strip() for m in str(self["model.modalities"]).split(",") if m.strip()]
        for m in names:
            if m not in ("expression", "methylation"):
                raise ValidationError(f"unknown modality {m!r} in model.modalities")
        if not names:
            raise ValidationError("model.modalities must name at least one modality")
        return "expression" in names, "methylation" in names

    def _section(self, section: str, **bound):
        """The section's dataclass: each field not in `bound` read from its key."""
        cls = SECTIONS[section]
        keyed = {f.name: self[f"{section}.{f.name}"] for f in fields(cls) if f.name not in bound}
        return cls(**bound, **keyed)

    def model_config(self, dataset) -> ModelConfig:
        """Bind the architecture keys to a dataset's widths and class count."""
        return self._section(
            "model",
            methyl_block_dims=dataset.methyl_block_dims,
            expr_dim=dataset.expr_dim,
            num_classes=max(2, len(dataset.class_vocab or ())),
        )

    def train_config(self) -> TrainConfig:
        return self._section("train")

    def preprocess_config(self) -> PreprocessConfig:
        return self._section("preprocess")

    def synthetic_spec(self) -> SyntheticSpec:
        return self._section("synth")


def load_run_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Defaults, then the file, then `key=value` overrides; unknown keys rejected."""
    values = {key: _parse_key(key, default) for key, (_, default) in SCHEMA.items()}
    given = set()
    if path is not None:
        for lineno, line in enumerate(_raw_lines(path), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in SCHEMA:
                raise ValidationError(f"{path}:{lineno}: unknown configuration key {key!r}")
            values[key] = _parse_key(key, raw)
            given.add(key)
    for item in overrides or []:
        if "=" not in item:
            raise ValidationError(f"override must be key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in SCHEMA:
            raise ValidationError(f"unknown configuration key {key!r}")
        values[key] = _parse_key(key, raw)
        given.add(key)
    return RunConfig(values, frozenset(given))
