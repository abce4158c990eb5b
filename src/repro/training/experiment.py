"""High-level experiment runner shared by every table/figure driver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..config import TrainingConfig
from ..core.base import ForecastModel
from ..data.pipeline import ForecastingData
from ..nn import Tensor, seed_everything
from ..profiling import time_forward
from .pretrainer import pretrain_covariate_encoder
from .trainer import Trainer, TrainingHistory

__all__ = ["ExperimentResult", "run_experiment", "measure_inference_time"]


@dataclass
class ExperimentResult:
    """Accuracy, efficiency and timing figures for one trained model."""

    model_name: str
    dataset: str
    horizon: int
    mse: float
    mae: float
    parameters: int
    train_seconds_per_epoch: float
    inference_seconds: float
    epochs_run: int
    pretrained: bool
    macs: Optional[int] = None

    def as_row(self) -> Dict[str, object]:
        """Row representation for :class:`~repro.training.results.ResultsTable`."""
        row = {
            "model": self.model_name,
            "dataset": self.dataset,
            "horizon": self.horizon,
            "mse": self.mse,
            "mae": self.mae,
            "parameters": self.parameters,
            "train_s_per_epoch": self.train_seconds_per_epoch,
            "inference_s": self.inference_seconds,
            "epochs": self.epochs_run,
            "pretrained": self.pretrained,
        }
        if self.macs is not None:
            row["macs"] = self.macs
        return row


def measure_inference_time(
    model: ForecastModel,
    data: ForecastingData,
    batch_size: int = 32,
    repeats: int = 3,
) -> float:
    """Median wall-clock seconds for one batched inference pass on the
    first test batch (see :func:`repro.profiling.time_forward`)."""
    _, _, test_loader = data.loaders(batch_size, shuffle_train=False)
    batch = next(iter(test_loader))
    covariates = (
        {"future_numerical": batch["future_numerical"], "future_categorical": batch["future_categorical"]}
        if model.supports_covariates
        else {"future_numerical": None, "future_categorical": None}
    )
    return time_forward(model, Tensor(batch["x"]), repeats=repeats, **covariates)


def run_experiment(
    model: ForecastModel,
    data: ForecastingData,
    training_config: Optional[TrainingConfig] = None,
    model_name: Optional[str] = None,
    pretrain: bool = False,
    seed: int = 2021,
) -> ExperimentResult:
    """Train ``model`` on ``data`` and report paper-style accuracy/efficiency.

    When ``pretrain`` is true and the model exposes ``build_dual_encoder``
    (LiPFormer, CovariateEnrichedModel), the Covariate Encoder is first
    pre-trained contrastively and frozen, matching the paper's two-stage
    procedure.
    """
    training_config = training_config or TrainingConfig()
    rng = seed_everything(seed)
    pretrained = False
    if pretrain and hasattr(model, "build_dual_encoder"):
        pretrain_covariate_encoder(model, data, training_config, rng=rng)
        pretrained = True

    trainer = Trainer(model, training_config)
    history: TrainingHistory = trainer.fit(data, rng=rng)
    test_metrics = trainer.test(data)
    inference_seconds = measure_inference_time(model, data)

    return ExperimentResult(
        model_name=model_name or type(model).__name__,
        dataset=data.name,
        horizon=data.horizon,
        mse=test_metrics["mse"],
        mae=test_metrics["mae"],
        parameters=model.num_parameters(),
        train_seconds_per_epoch=history.seconds_per_epoch,
        inference_seconds=inference_seconds,
        epochs_run=history.epochs_run,
        pretrained=pretrained,
    )
