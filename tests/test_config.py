"""Tests for the configuration dataclasses."""

import pytest

from repro.config import ModelConfig, TrainingConfig, fit_patch_length


class TestModelConfig:
    def test_defaults_match_paper_section_iv(self):
        config = ModelConfig()
        assert config.input_length == 720
        assert config.patch_length == 48
        assert config.hidden_dim == 512
        assert config.dropout == 0.5

    def test_n_patches_and_target_patches(self):
        config = ModelConfig(input_length=96, horizon=24, patch_length=24)
        assert config.n_patches == 4
        assert config.n_target_patches == 1
        longer = config.with_overrides(horizon=100)
        assert longer.n_target_patches == 5

    def test_has_covariates(self):
        assert not ModelConfig(covariate_numerical_dim=0).has_covariates
        assert ModelConfig(covariate_numerical_dim=3).has_covariates
        assert ModelConfig(covariate_categorical_cardinalities=(4,)).has_covariates

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            ModelConfig(input_length=0)
        with pytest.raises(ValueError):
            ModelConfig(input_length=100, patch_length=48)
        with pytest.raises(ValueError):
            ModelConfig(hidden_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(dropout=-0.1)

    def test_with_overrides_is_a_copy(self):
        config = ModelConfig()
        other = config.with_overrides(horizon=192)
        assert other.horizon == 192
        assert config.horizon == 96


class TestTrainingConfig:
    def test_defaults(self):
        config = TrainingConfig()
        assert config.epochs == 10
        assert config.batch_size == 256
        assert config.patience == 3
        assert config.lr_decay_gamma == 1.0

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0)
        with pytest.raises(ValueError):
            TrainingConfig(patience=-1)
        with pytest.raises(ValueError):
            TrainingConfig(lr_decay_gamma=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(lr_decay_gamma=1.5)

    def test_with_overrides(self):
        config = TrainingConfig().with_overrides(epochs=2)
        assert config.epochs == 2


@pytest.mark.parametrize(
    "input_length, preferred, expected",
    [(96, 24, 24), (100, 24, 20), (48, 96, 48), (7, 4, 1), (13, 13, 13)],
)
def test_fit_patch_length_is_the_largest_divisor_not_above_preferred(input_length, preferred, expected):
    patch = fit_patch_length(input_length, preferred)
    assert patch == expected
    ModelConfig(input_length=input_length, patch_length=patch)
