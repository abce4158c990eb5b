"""The benchmark's workloads: deployment shape and model per workload.

Every workload is a single-process closed loop: one caller drives ticks, and
each tick ingests one row per tenant, then calls ``forecast_all`` and
``result()`` on every handle.  Two shards on either backend keep the number
of busy threads or worker processes at the host's two cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cluster import ServiceSpec
from repro.config import ModelConfig

__all__ = ["Workload", "WORKLOADS"]

N_SHARDS = 2
MAX_BATCH_SIZE = 64


@dataclass(frozen=True)
class Workload:
    """One deployment plus the traffic shape driven through it."""

    name: str
    traffic: str            # workloads sharing a traffic shape get the same inputs
    backend: str            # "thread" or "process"
    n_tenants: int
    config: ModelConfig
    normalization: str
    covariates: bool        # known-future covariates on every forecast

    @property
    def history(self) -> int:
        """Rows per tenant ingested at set-up, two input windows."""
        return 2 * self.config.input_length

    @property
    def spec(self) -> ServiceSpec:
        return ServiceSpec(
            model="LiPFormer", config=self.config, max_batch_size=MAX_BATCH_SIZE
        )


_FLEET_CONFIG = ModelConfig(
    input_length=48, horizon=12, n_channels=1, patch_length=12, hidden_dim=32, dropout=0.0
)

# The paper's weak-data-enriching shape: seven target channels plus known
# future covariates, four numerical (weather-forecast-like) and two
# categorical calendar fields (weekday, hour).
_ENRICHED_CONFIG = ModelConfig(
    input_length=96,
    horizon=24,
    n_channels=7,
    patch_length=24,
    hidden_dim=64,
    dropout=0.0,
    covariate_numerical_dim=4,
    covariate_categorical_cardinalities=(7, 24),
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Per-request Python work in serving, streaming and cluster dominates;
        # the model is a small share of a sweep and the wire is bypassed.
        Workload("fleet-thread", "fleet", "thread", 64, _FLEET_CONFIG, "rolling", False),
        # The same traffic on worker processes: every ingest is a wire round
        # trip, so the coordinator and the wire dominate.
        Workload("fleet-process", "fleet", "process", 64, _FLEET_CONFIG, "rolling", False),
        # Compiled-plan replay, covariate encoder included, dominates; the
        # request path does little work.
        Workload("enriched-thread", "enriched", "thread", 32, _ENRICHED_CONFIG, "none", True),
    )
}
