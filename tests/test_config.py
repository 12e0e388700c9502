"""The flat configuration: schema defaults, parse errors and the model
configuration's flat text form."""

from types import SimpleNamespace

import numpy as np
import pytest

from omivae.config import SCHEMA, RunConfig, load_run_config
from omivae.data import PreprocessConfig, SyntheticSpec
from omivae.errors import ValidationError
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
            expression=np.zeros((1, 4)),
            expr_dim=4,
            methylation_blocks=[np.zeros((1, 3))],
            methyl_block_dims=(3,),
            class_vocab=[f"c{i}" for i in range(ModelConfig.num_classes)],
        )
        assert config.model_config(dataset) == ModelConfig(methyl_block_dims=(3,), expr_dim=4)
        assert config.train_config() == TrainConfig()
        assert config.preprocess_config() == PreprocessConfig()
        assert config.synthetic_spec() == SyntheticSpec()
        assert config.validation_fold_count() == 10
        # every schema key went through one of the comparisons above
        assert config.read == set(SCHEMA)


class TestErrors:
    def test_unknown_key(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown configuration key 'model.width'"):
            load_run_config(overrides=["model.width=3"])
        path = tmp_path / "run.cfg"
        path.write_text("train.seed = 3\nmodel.width = 3\n")
        with pytest.raises(ValidationError, match=f"{path}:2: unknown configuration key"):
            load_run_config(str(path))

    @pytest.mark.parametrize("raw", ["yes", "True", "1", ""])
    def test_malformed_bool(self, raw):
        with pytest.raises(ValidationError, match="'train.shuffle': cannot parse"):
            load_run_config(overrides=[f"train.shuffle={raw}"])

    @pytest.mark.parametrize("fraction", ["0", "0.0", "0.5", "0.9", "-0.1"])
    def test_val_fraction_out_of_range(self, fraction):
        config = load_run_config(overrides=[f"train.val_fraction={fraction}"])
        with pytest.raises(ValidationError, match="val_fraction must be in"):
            config.validation_fold_count()

    def test_line_without_equals_reports_path_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\ntrain.seed = 3\ntrain.batch_size 64\n")
        with pytest.raises(ValidationError) as info:
            load_run_config(str(path))
        assert str(info.value) == f"{path}:4: expected key=value, got 'train.batch_size 64'"


class TestModelConfigFlatText:
    def test_auto_expr_hidden_single_modality_round_trip(self):
        config = ModelConfig(expr_dim=40, use_methylation=False, latent_dim=16, num_classes=5)
        flat = config.to_flat_dict()
        assert flat == {
            "methyl_block_dims": "",
            "expr_dim": "40",
            "per_block_hidden": "256",
            "modality_dim": "1024",
            "fusion_dim": "512",
            "latent_dim": "16",
            "classifier_hidden": "128,64",
            "num_classes": "5",
            "expr_hidden": "auto",
            "use_expression": "true",
            "use_methylation": "false",
        }
        back = ModelConfig.from_flat_dict(flat)
        assert back == config
        assert back.expr_hidden is None and back.resolved_expr_hidden == 8
