"""LiPFormer reproduction: lightweight patch-wise Transformer forecasting.

This package reproduces "Towards Lightweight Time Series Forecasting: A
Patch-Wise Transformer with Weak Data Enriching" (ICDE 2025).  The public
API groups into:

* ``repro.nn``          — NumPy autograd / layers / optimizers substrate
* ``repro.data``        — synthetic benchmark datasets and the data pipeline
* ``repro.core``        — LiPFormer (Base Predictor, Covariate Encoder, dual
                          encoder, ablation variants)
* ``repro.baselines``   — DLinear, PatchTST, TiDE, iTransformer, TimeMixer,
                          FGNN, Transformer/Informer/Autoformer
* ``repro.training``    — trainers, metrics, experiment runner
* ``repro.serving``     — micro-batched inference service + admission control
* ``repro.streaming``   — multi-tenant online ingestion + streaming forecasts
* ``repro.cluster``     — sharded multi-replica serving with consistent-hash
                          tenant partitioning, incremental checkpoints,
                          replica failover and snapshot/restore persistence
* ``repro.runtime``     — concurrency primitives: reader/writer and
                          lock-order-checked locks, retries, breakers
* ``repro.profiling``   — parameters, MACs, timing, edge emulation
* ``repro.experiments`` — drivers regenerating every paper table / figure
"""

from .config import ModelConfig, TrainingConfig
from .core import LiPFormer
from .baselines import available_models, create_model
from .cluster import HashRing, ShardedForecaster
from .data import load_dataset, prepare_forecasting_data
from .serving import ForecastService
from .streaming import SeriesStore, StreamingForecaster
from .training import Trainer, run_experiment

__version__ = "1.0.0"

__all__ = [
    "ModelConfig",
    "TrainingConfig",
    "LiPFormer",
    "available_models",
    "create_model",
    "load_dataset",
    "prepare_forecasting_data",
    "ForecastService",
    "SeriesStore",
    "StreamingForecaster",
    "HashRing",
    "ShardedForecaster",
    "Trainer",
    "run_experiment",
    "__version__",
]
