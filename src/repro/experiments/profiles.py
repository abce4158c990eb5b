"""Experiment profiles: the paper-scale configuration and a quick CPU profile.

Every experiment driver accepts a profile.  ``PAPER`` mirrors the paper's
Section IV-A2 configuration (input length 720, patch length 48, hidden size
512, horizons 96/192/336/720, 10 epochs).  ``QUICK`` shrinks the synthetic
datasets, the model width and the horizons so the complete benchmark harness
finishes on a laptop-class CPU while preserving the comparisons' shape.
``SMOKE`` is smaller still and is used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..config import ModelConfig, TrainingConfig, fit_patch_length

__all__ = ["ExperimentProfile", "PAPER", "QUICK", "SMOKE", "get_profile"]


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale knobs shared by all experiment drivers."""

    name: str
    n_timestamps: Optional[int]          # synthetic series length (None = paper Table II length)
    channel_cap: Optional[int]           # cap on channels for the very wide datasets
    input_length: int
    horizons: Tuple[int, ...]
    patch_length: int
    hidden_dim: int
    covariate_hidden_dim: int
    covariate_embed_dim: int
    dropout: float
    n_heads: int
    n_layers: int
    epochs: int
    pretrain_epochs: int
    batch_size: int
    window_stride: int
    learning_rate: float = 1e-3
    seed: int = 2021

    def model_config(
        self,
        n_channels: int,
        horizon: int,
        covariate_numerical_dim: int = 0,
        covariate_categorical_cardinalities: Tuple[int, ...] = (),
        input_length: Optional[int] = None,
        patch_length: Optional[int] = None,
    ) -> ModelConfig:
        """Build a :class:`ModelConfig` for this profile."""
        length = input_length if input_length is not None else self.input_length
        patch = patch_length if patch_length is not None else self.patch_length
        return ModelConfig(
            input_length=length,
            horizon=horizon,
            n_channels=n_channels,
            patch_length=fit_patch_length(length, patch),
            hidden_dim=self.hidden_dim,
            dropout=self.dropout,
            n_heads=self.n_heads,
            n_layers=self.n_layers,
            covariate_numerical_dim=covariate_numerical_dim,
            covariate_categorical_cardinalities=covariate_categorical_cardinalities,
            covariate_embed_dim=self.covariate_embed_dim,
            covariate_hidden_dim=self.covariate_hidden_dim,
            seed=self.seed,
        )

    def training_config(self) -> TrainingConfig:
        """Build a :class:`TrainingConfig` for this profile."""
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            pretrain_epochs=self.pretrain_epochs,
            seed=self.seed,
        )


PAPER = ExperimentProfile(
    name="paper",
    n_timestamps=None,
    channel_cap=None,
    input_length=720,
    horizons=(96, 192, 336, 720),
    patch_length=48,
    hidden_dim=512,
    covariate_hidden_dim=128,
    covariate_embed_dim=16,
    dropout=0.5,
    n_heads=8,
    n_layers=3,
    epochs=10,
    pretrain_epochs=3,
    batch_size=256,
    window_stride=1,
)

QUICK = ExperimentProfile(
    name="quick",
    n_timestamps=3000,
    channel_cap=8,
    input_length=96,
    horizons=(24, 48),
    patch_length=24,
    hidden_dim=48,
    covariate_hidden_dim=16,
    covariate_embed_dim=4,
    dropout=0.1,
    n_heads=4,
    n_layers=2,
    epochs=3,
    pretrain_epochs=1,
    batch_size=64,
    window_stride=4,
)

SMOKE = ExperimentProfile(
    name="smoke",
    n_timestamps=1200,
    channel_cap=4,
    input_length=48,
    horizons=(12,),
    patch_length=12,
    hidden_dim=16,
    covariate_hidden_dim=8,
    covariate_embed_dim=2,
    dropout=0.05,
    n_heads=2,
    n_layers=1,
    epochs=1,
    pretrain_epochs=1,
    batch_size=32,
    window_stride=8,
)

_PROFILES = {"paper": PAPER, "quick": QUICK, "smoke": SMOKE}


def get_profile(name: str) -> ExperimentProfile:
    """Look up a profile by name (``paper``, ``quick`` or ``smoke``)."""
    try:
        return _PROFILES[name.lower()]
    except KeyError as error:
        raise KeyError(f"unknown profile {name!r}; available: {sorted(_PROFILES)}") from error
