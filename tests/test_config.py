"""The flat configuration: schema defaults, parse errors and the model
configuration's flat text form."""

from dataclasses import FrozenInstanceError, fields
from types import SimpleNamespace

import pytest

from omivae.config import SCHEMA, SECTIONS, RunConfig, load_run_config
from omivae.container import fields_from_text, fields_to_text
from omivae.data import PreprocessConfig, SyntheticSpec
from omivae.errors import FormatError, ValidationError
from omivae.model import ModelConfig
from omivae.optim import TrainConfig


class RecordingConfig(RunConfig):
    """A RunConfig that remembers every key read through it."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestDefaults:
    def test_schema_defaults_equal_dataclass_defaults(self):
        config = RecordingConfig(load_run_config().values)
        dataset = SimpleNamespace(
            expr_dim=4,
            methyl_block_dims=(3,),
            class_vocab=[f"c{i}" for i in range(ModelConfig.num_classes)],
        )
        assert config.modalities() == (True, True)
        assert config.model_config(dataset) == ModelConfig(methyl_block_dims=(3,), expr_dim=4)
        assert config.train_config() == TrainConfig()
        assert config.preprocess_config() == PreprocessConfig()
        assert config.synthetic_spec() == SyntheticSpec()
        # every schema key went through one of the comparisons above
        assert config.read == set(SCHEMA)


PUBLIC_KEYS = {
    "model.per_block_hidden": ("int", "256"),
    "model.modality_dim": ("int", "1024"),
    "model.fusion_dim": ("int", "512"),
    "model.latent_dim": ("int", "128"),
    "model.classifier_hidden": ("intlist", "128,64"),
    "model.modalities": ("str", "methylation,expression"),
    "train.batch_size": ("int", "32"),
    "train.learning_rate": ("float", "0.001"),
    "train.phase1_epochs": ("int", "200"),
    "train.phase2_epochs": ("int", "300"),
    "train.patience": ("int", "10"),
    "train.alpha": ("float", "1.0"),
    "train.phase2_beta": ("float", "1.0"),
    "train.seed": ("int", "0"),
    "train.val_fraction": ("float", "0.1"),
    "preprocess.missing_threshold": ("float", "0.1"),
    "preprocess.log2_expression": ("bool", "false"),
    "synth.num_classes": ("int", "10"),
    "synth.samples_per_class": ("int", "60"),
    "synth.num_blocks": ("int", "5"),
    "synth.features_per_block": ("int", "200"),
    "synth.expr_features": ("int", "400"),
    "synth.noise_sd": ("float", "0.05"),
    "synth.missing_rate": ("float", "0.0"),
    "synth.split_signal": ("bool", "false"),
    "synth.seed": ("int", "1"),
}


class TestPublicKeys:
    def test_keys_kinds_and_defaults_are_pinned(self):
        assert len(PUBLIC_KEYS) == 26
        assert SCHEMA == PUBLIC_KEYS


# keys of earlier versions that no run set: unknown keys now, like any other
REMOVED_KEYS = {
    "model.expr_hidden": "int_or_auto",
    "train.min_delta": "float",
    "train.shuffle": "bool",
    "synth.class_signal": "float",
    "synth.signal_fraction": "float",
    "synth.latent_factors": "int",
    "synth.within_class_sd": "float",
    "synth.nonlinear_gain": "float",
    "synth.nonlinear_mix": "bool",
}
FLOAT_KEYS = sorted(key for key, (kind, _) in PUBLIC_KEYS.items() if kind == "float")
REMOVED_FLOAT_KEYS = sorted(key for key, kind in REMOVED_KEYS.items() if kind == "float")


class TestErrors:
    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        for key in ["model.width", *REMOVED_KEYS]:
            with pytest.raises(ValidationError, match=f"unknown configuration key '{key}'"):
                load_run_config(overrides=[f"{key}=3"])
            path.write_text(f"train.seed = 3\n{key} = 3\n")
            with pytest.raises(ValidationError, match=f"{path}:2: unknown configuration key '{key}'"):
                load_run_config(str(path))

    @pytest.mark.parametrize("raw", ["yes", "True", "1", ""])
    def test_malformed_bool(self, raw):
        with pytest.raises(ValidationError, match="'synth.split_signal': cannot parse"):
            load_run_config(overrides=[f"synth.split_signal={raw}"])

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", sorted(FLOAT_KEYS + REMOVED_FLOAT_KEYS))
    def test_non_finite_float(self, key, raw):
        # a float key of an earlier version is refused before its value is read
        message = (
            f"unknown configuration key '{key}'"
            if key in REMOVED_KEYS
            else f"'{key}': cannot parse '{raw}' as float"
        )
        with pytest.raises(ValidationError, match=message):
            load_run_config(overrides=[f"{key}={raw}"])

    @pytest.mark.parametrize("fraction", ["0", "0.0", "0.5", "0.9", "-0.1"])
    def test_val_fraction_out_of_range(self, fraction):
        config = load_run_config(overrides=[f"train.val_fraction={fraction}"])
        with pytest.raises(ValidationError, match="val_fraction must be in"):
            config.train_config()

    @pytest.mark.parametrize("alpha", ["0", "0.0", "-1"])
    def test_alpha_must_be_positive(self, alpha):
        # every phase trains the VAE loss, so a zero weight is refused up front
        config = load_run_config(overrides=[f"train.alpha={alpha}"])
        with pytest.raises(ValidationError, match="alpha must be positive"):
            config.train_config()

    @pytest.mark.parametrize("beta", ["0", "0.0", "-1"])
    def test_phase2_beta_must_be_positive(self, beta):
        # phase2_epochs=0 is the one way to skip phase 2
        config = load_run_config(overrides=[f"train.phase2_beta={beta}"])
        with pytest.raises(ValidationError, match="phase2_beta must be positive"):
            config.train_config()

    def test_line_without_equals_reports_path_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\ntrain.seed = 3\ntrain.batch_size 64\n")
        with pytest.raises(ValidationError) as info:
            load_run_config(str(path))
        assert str(info.value) == f"{path}:4: expected key=value, got 'train.batch_size 64'"


class TestFrozen:
    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_no_field_can_be_assigned(self, section):
        cls = SECTIONS[section]
        config = cls(expr_dim=4) if cls is ModelConfig else cls()
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(config, f.name, getattr(config, f.name))

    def test_model_config_stores_its_widths_as_int_tuples(self):
        config = ModelConfig(methyl_block_dims=[3, 4.0], classifier_hidden=[5, 6])
        assert config.methyl_block_dims == (3, 4) and config.classifier_hidden == (5, 6)
        assert all(type(d) is int for d in config.methyl_block_dims)


class TestModelConfigFlatText:
    def test_auto_expr_hidden_single_modality_round_trip(self):
        config = ModelConfig(expr_dim=40, latent_dim=16, num_classes=5)
        flat = fields_to_text(config)
        assert flat == {
            "methyl_block_dims": "",
            "expr_dim": "40",
            "per_block_hidden": "256",
            "modality_dim": "1024",
            "fusion_dim": "512",
            "latent_dim": "16",
            "classifier_hidden": "128,64",
            "num_classes": "5",
        }
        back = fields_from_text(ModelConfig, flat)
        assert back == config
        assert back.expr_hidden == 8

    def test_modality_flags_of_older_checkpoints_are_read_off_the_widths(self):
        # older checkpoints also wrote use_expression/use_methylation, which
        # always matched the widths
        config = ModelConfig(expr_dim=40, latent_dim=16, num_classes=5)
        flat = fields_to_text(config) | {"use_expression": "true", "use_methylation": "false"}
        assert fields_from_text(ModelConfig, flat) == config

    def test_auto_expr_hidden_of_older_checkpoints_is_the_width_rule(self):
        # older checkpoints also wrote expr_hidden; `auto` meant today's rule
        config = ModelConfig(expr_dim=400, latent_dim=16, num_classes=5)
        flat = fields_to_text(config) | {"expr_hidden": "auto"}
        assert fields_from_text(ModelConfig, flat) == config
        assert config.expr_hidden == 29  # ceil(400 / 14)

    def test_checkpoint_fields_are_strict(self):
        flat = fields_to_text(ModelConfig(expr_dim=40))
        flat["latent_dim"] = "x"
        with pytest.raises(FormatError, match="'latent_dim': cannot parse 'x' as int"):
            fields_from_text(ModelConfig, flat)
