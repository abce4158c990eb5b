"""Configuration dataclasses shared by models, trainers and experiments."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

__all__ = ["ModelConfig", "TrainingConfig", "fit_patch_length"]


def fit_patch_length(input_length: int, preferred: int) -> int:
    """Largest patch length <= ``preferred`` that divides ``input_length``
    (``preferred`` itself when it does)."""
    for candidate in range(min(preferred, input_length), 0, -1):
        if input_length % candidate == 0:
            return candidate
    return 1


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters for a forecasting model.

    Defaults follow the paper's Section IV-A2 ("Data & Model Configuration")
    except that the hidden size is left to each experiment profile — the
    paper uses 512 on a GPU workstation, the quick CPU profile uses 64.
    """

    input_length: int = 720
    horizon: int = 96
    n_channels: int = 7
    patch_length: int = 48
    hidden_dim: int = 512
    dropout: float = 0.5
    n_heads: int = 4
    n_layers: int = 2
    covariate_numerical_dim: int = 0
    covariate_categorical_cardinalities: Tuple[int, ...] = ()
    covariate_embed_dim: int = 8
    covariate_hidden_dim: int = 64
    smooth_l1_beta: float = 1.0
    seed: int = 2021

    def __post_init__(self) -> None:
        if self.input_length < 1 or self.horizon < 1:
            raise ValueError("input_length and horizon must be positive")
        if self.patch_length < 1:
            raise ValueError("patch_length must be positive")
        if self.input_length % self.patch_length != 0:
            raise ValueError(
                f"input_length ({self.input_length}) must be divisible by "
                f"patch_length ({self.patch_length}); the paper uses non-overlapping patches"
            )
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def n_patches(self) -> int:
        """Number of input patches ``n = T / pl``."""
        return self.input_length // self.patch_length

    @property
    def n_target_patches(self) -> int:
        """Number of output patches ``nt = ceil(L / pl)``."""
        return max(1, -(-self.horizon // self.patch_length))

    @property
    def has_covariates(self) -> bool:
        return self.covariate_numerical_dim > 0 or bool(self.covariate_categorical_cardinalities)

    def with_overrides(self, **kwargs) -> "ModelConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class TrainingConfig:
    """Optimisation hyper-parameters."""

    epochs: int = 10
    batch_size: int = 256
    learning_rate: float = 1e-3
    weight_decay: float = 1e-2
    patience: int = 3
    gradient_clip: float = 5.0
    lr_decay_gamma: float = 1.0
    pretrain_epochs: int = 3
    pretrain_learning_rate: float = 1e-3
    seed: int = 2021

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
        if not 0.0 < self.lr_decay_gamma <= 1.0:
            raise ValueError("lr_decay_gamma must be in (0, 1]; 1 disables the decay")

    def with_overrides(self, **kwargs) -> "TrainingConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
