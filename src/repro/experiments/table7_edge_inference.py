"""E4 — Table VII: CPU-only edge-device inference time vs input length.

The paper deploys the vanilla Transformer and LiPFormer on a CPU-only edge
box and measures seconds per inference for input lengths 96/192/336/720 on
ETTh1 (7 channels) and Weather (21 channels).  The headline result is that
LiPFormer's inference cost grows far more slowly with the input length.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..baselines import create_model
from ..data.datasets import DATASET_SPECS
from ..profiling import edge_inference_profile
from ..training import ResultsTable
from .profiles import QUICK, ExperimentProfile

__all__ = ["DEFAULT_DATASETS", "DEFAULT_INPUT_LENGTHS", "DEFAULT_MODELS", "run_table7", "main"]

DEFAULT_DATASETS = ("ETTh1", "Weather")
DEFAULT_INPUT_LENGTHS = (96, 192, 336, 720)
DEFAULT_MODELS = ("Transformer", "LiPFormer")
#: interleaved timing rounds per input length; each cell is their median
REPEATS = 9


def run_table7(
    profile: ExperimentProfile = QUICK,
    datasets: Optional[Sequence[str]] = None,
    input_lengths: Optional[Sequence[int]] = None,
    models: Optional[Sequence[str]] = None,
    horizon: Optional[int] = None,
    n_threads: Optional[int] = None,
    seed: Optional[int] = None,
) -> ResultsTable:
    """Regenerate Table VII: per-inference seconds on a CPU-only device."""
    datasets = tuple(datasets) if datasets else DEFAULT_DATASETS
    input_lengths = tuple(input_lengths) if input_lengths else DEFAULT_INPUT_LENGTHS
    models = tuple(models) if models else DEFAULT_MODELS
    horizon = horizon if horizon is not None else profile.horizons[0]
    table = ResultsTable(title="Table VII — CPU-only inference time by input length")
    rng = np.random.default_rng(seed or profile.seed)
    for dataset in datasets:
        n_channels = DATASET_SPECS[dataset].n_channels
        if profile.channel_cap:
            n_channels = min(n_channels, profile.channel_cap)
        base_config = profile.model_config(n_channels=n_channels, horizon=horizon)
        for model_name in models:
            timings = edge_inference_profile(
                model_factory=lambda config, name=model_name: create_model(name, config),
                base_config=base_config,
                input_lengths=input_lengths,
                batch_size=1,
                repeats=REPEATS,
                n_threads=n_threads,
                rng=rng,
            )
            row = {"dataset": dataset, "model": model_name}
            for length, seconds in timings.items():
                row[f"T={length}"] = seconds
            table.add_row(**row)
    return table


def main() -> None:  # pragma: no cover - CLI entry point
    print(run_table7().to_text(float_format="{:.4f}"))


if __name__ == "__main__":  # pragma: no cover
    main()
