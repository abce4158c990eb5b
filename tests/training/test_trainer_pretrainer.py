"""Tests for the Trainer, contrastive Pretrainer and experiment runner."""

import numpy as np
import pytest

from repro.baselines import DLinear
from repro.config import ModelConfig, TrainingConfig
from repro.core import LiPFormer
from repro.training import (
    ContrastivePretrainer,
    Trainer,
    pretrain_covariate_encoder,
    run_experiment,
    measure_inference_time,
)


def _config_for(data, hidden=16):
    return ModelConfig(
        input_length=data.input_length,
        horizon=data.horizon,
        n_channels=data.n_channels,
        patch_length=12,
        hidden_dim=hidden,
        dropout=0.0,
        covariate_numerical_dim=data.covariate_numerical_dim,
        covariate_categorical_cardinalities=data.covariate_categorical_cardinalities,
        covariate_embed_dim=2,
        covariate_hidden_dim=8,
    )


class TestTrainer:
    def test_fit_runs_and_records_history(self, etth1_smoke_data, training_config):
        model = DLinear(_config_for(etth1_smoke_data))
        trainer = Trainer(model, training_config)
        history = trainer.fit(etth1_smoke_data)
        assert history.epochs_run == 1
        assert len(history.train_losses) == 1
        assert history.seconds_per_epoch > 0
        assert np.isfinite(history.best_validation_loss)

    def test_training_improves_over_initialisation(self, etth1_smoke_data):
        config = TrainingConfig(epochs=3, batch_size=64, learning_rate=5e-3, patience=5)
        model = DLinear(_config_for(etth1_smoke_data))
        trainer = Trainer(model, config)
        before = trainer.test(etth1_smoke_data)["mse"]
        trainer.fit(etth1_smoke_data)
        after = trainer.test(etth1_smoke_data)["mse"]
        assert after < before

    def test_early_stopping_restores_best_state(self, etth1_smoke_data):
        config = TrainingConfig(epochs=2, batch_size=64, patience=0)
        model = DLinear(_config_for(etth1_smoke_data))
        trainer = Trainer(model, config)
        history = trainer.fit(etth1_smoke_data)
        # validation score of the restored model equals the best recorded score
        _, val_loader, _ = etth1_smoke_data.loaders(config.batch_size, shuffle_train=False)
        restored = trainer.evaluate(val_loader)["mse"]
        assert restored == pytest.approx(history.best_validation_loss, rel=0.05)

    def test_evaluate_returns_all_metrics(self, etth1_smoke_data, training_config):
        model = DLinear(_config_for(etth1_smoke_data))
        trainer = Trainer(model, training_config)
        _, val_loader, _ = etth1_smoke_data.loaders(16)
        metrics = trainer.evaluate(val_loader)
        assert set(metrics) == {"mse", "mae", "rmse"}

    def test_learning_rate_decay_schedule(self, etth1_smoke_data):
        config = TrainingConfig(epochs=3, batch_size=64, learning_rate=1e-2, patience=5, lr_decay_gamma=0.5)
        model = DLinear(_config_for(etth1_smoke_data))
        trainer = Trainer(model, config)
        assert trainer.scheduler is not None
        trainer.fit(etth1_smoke_data)
        # The scheduler steps once per completed epoch: lr = 1e-2 * 0.5^3.
        assert trainer.optimizer.lr == pytest.approx(1e-2 * 0.5**3, rel=1e-6)

    def test_no_scheduler_when_decay_disabled(self, etth1_smoke_data, training_config):
        model = DLinear(_config_for(etth1_smoke_data))
        trainer = Trainer(model, training_config)
        assert trainer.scheduler is None

    def test_covariates_passed_only_to_supporting_models(self, cycle_smoke_data, training_config):
        lipformer = LiPFormer(_config_for(cycle_smoke_data))
        dlinear = DLinear(_config_for(cycle_smoke_data))
        for model in (lipformer, dlinear):
            trainer = Trainer(model, training_config)
            history = trainer.fit(cycle_smoke_data)
            assert history.epochs_run == 1


class TestPretrainer:
    def test_pretraining_reduces_contrastive_loss(self, cycle_smoke_data):
        model = LiPFormer(_config_for(cycle_smoke_data))
        dual_encoder = model.build_dual_encoder()
        pretrainer = ContrastivePretrainer(
            dual_encoder, TrainingConfig(epochs=1, pretrain_epochs=3, batch_size=64)
        )
        history = pretrainer.fit(cycle_smoke_data)
        assert len(history.losses) == 3
        assert history.losses[-1] < history.losses[0]

    def test_pretrain_covariate_encoder_freezes(self, cycle_smoke_data, training_config):
        model = LiPFormer(_config_for(cycle_smoke_data))
        history = pretrain_covariate_encoder(model, cycle_smoke_data, training_config)
        assert model.covariate_encoder_frozen
        assert len(history.losses) == training_config.pretrain_epochs

    def test_pretraining_without_covariates_raises(self, training_config):
        from repro.data import prepare_forecasting_data

        data = prepare_forecasting_data(
            "ETTh1", input_length=48, horizon=12, n_timestamps=800, stride=8, include_covariates=False
        )
        model = LiPFormer(_config_for(data).with_overrides(
            covariate_numerical_dim=1, covariate_categorical_cardinalities=()
        ))
        pretrainer = ContrastivePretrainer(model.build_dual_encoder(), training_config)
        with pytest.raises(ValueError):
            pretrainer.fit(data)


class TestExperimentRunner:
    def test_run_experiment_end_to_end(self, cycle_smoke_data, training_config):
        model = LiPFormer(_config_for(cycle_smoke_data))
        result = run_experiment(
            model, cycle_smoke_data, training_config, model_name="LiPFormer", pretrain=True
        )
        assert result.model_name == "LiPFormer"
        assert result.dataset == "Cycle"
        assert result.pretrained
        assert result.mse > 0 and result.mae > 0
        assert result.parameters == model.num_parameters()
        row = result.as_row()
        assert row["model"] == "LiPFormer"
        assert "macs" not in row

    def test_run_experiment_without_pretraining(self, etth1_smoke_data, training_config):
        model = DLinear(_config_for(etth1_smoke_data))
        result = run_experiment(model, etth1_smoke_data, training_config, model_name="DLinear")
        assert not result.pretrained

    def test_measure_inference_time_positive(self, etth1_smoke_data):
        model = DLinear(_config_for(etth1_smoke_data))
        assert measure_inference_time(model, etth1_smoke_data, batch_size=8, repeats=2) > 0

    @pytest.mark.parametrize("training", [False, True])
    def test_measure_inference_time_keeps_the_train_flag(self, etth1_smoke_data, training):
        model = DLinear(_config_for(etth1_smoke_data))
        model.train(training)
        measure_inference_time(model, etth1_smoke_data, batch_size=8, repeats=1)
        assert model.training is training
        assert all(module.training is training for _, module in model.named_modules())

    def test_measure_inference_time_rejects_zero_repeats(self, etth1_smoke_data):
        model = DLinear(_config_for(etth1_smoke_data))
        with pytest.raises(ValueError, match="repeats"):
            measure_inference_time(model, etth1_smoke_data, batch_size=8, repeats=0)
