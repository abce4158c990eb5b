"""Seeded input generator: every array a run ingests, built before timing.

The program under test sees only these arrays.  Series are hourly: a daily
cycle per tenant and channel plus noise, and for covariate workloads a
dependence on four weather-forecast-like numerical covariates.  Calendar
covariates (weekday, hour) follow from the time index and a per-tenant
time-zone offset.  The same ``(traffic, seed)`` always gives bit-identical
arrays, and tick ``t``'s rows do not depend on ``max_ticks``.  Both fleet
workloads share one traffic shape, so they ingest the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .workloads import Workload

__all__ = ["WorkloadInputs", "generate"]

_DAY = 24


@dataclass(frozen=True)
class WorkloadInputs:
    """Pre-generated traffic for one run.

    ``history`` is ingested once per tenant at set-up; tick ``t`` ingests
    ``rows[t, i]`` for tenant ``i``.  Covariate timelines cover the history,
    every tick and one horizon beyond, so the forecast made after ``k`` ticks
    reads rows ``[history + k, history + k + horizon)``.
    """

    tenants: Tuple[str, ...]
    history: np.ndarray                       # [tenants, history, channels] float32
    rows: np.ndarray                          # [ticks, tenants, 1, channels] float32
    future_numerical: Optional[np.ndarray]    # [tenants, timeline, 4] float32
    future_categorical: Optional[np.ndarray]  # [tenants, timeline, 2] int64
    horizon: int

    @property
    def max_ticks(self) -> int:
        return len(self.rows)

    @property
    def nbytes(self) -> int:
        """Bytes held by the arrays, which the program's memory excludes."""
        arrays = (self.history, self.rows, self.future_numerical, self.future_categorical)
        return sum(array.nbytes for array in arrays if array is not None)

    def covariates(self, ticks_done: int) -> Dict[str, Dict[str, np.ndarray]]:
        """``forecast_all`` covariate keywords after ``ticks_done`` ticks."""
        if self.future_numerical is None:
            return {}
        start = self.history.shape[1] + ticks_done
        stop = start + self.horizon
        return {
            "future_numerical": {
                tenant: self.future_numerical[i, start:stop]
                for i, tenant in enumerate(self.tenants)
            },
            "future_categorical": {
                tenant: self.future_categorical[i, start:stop]
                for i, tenant in enumerate(self.tenants)
            },
        }


def generate(workload: Workload, seed: int, max_ticks: int) -> WorkloadInputs:
    """Build every array a run of ``workload`` can ingest, from ``seed``."""
    if max_ticks < 1:
        raise ValueError(f"max_ticks must be positive, got {max_ticks}")
    config = workload.config
    streams = np.random.SeedSequence([seed, _stable_id(workload.traffic)]).spawn(3)
    params, noise_rng, cov_rng = (np.random.default_rng(stream) for stream in streams)
    n_tenants, channels, history = workload.n_tenants, config.n_channels, workload.history
    steps = history + max_ticks
    timeline = steps + config.horizon
    hours = np.arange(timeline, dtype=np.float64)

    # Noise is drawn time-major from its own stream, so tick t's inputs do
    # not depend on how many ticks were generated after it.
    level = params.normal(0.0, 2.0, size=(n_tenants, 1, channels))
    amplitude = params.uniform(0.5, 2.0, size=(n_tenants, 1, channels))
    phase = params.uniform(0.0, _DAY, size=(n_tenants, 1, channels))
    scale = params.uniform(0.05, 0.3, size=(n_tenants, 1, channels))
    noise = noise_rng.standard_normal((steps, n_tenants, channels)).transpose(1, 0, 2)
    daily = np.sin(2 * np.pi * (hours[None, :steps, None] + phase) / _DAY)
    series = level + amplitude * daily + scale * noise

    future_numerical = future_categorical = None
    if workload.covariates:
        dims = config.covariate_numerical_dim
        cov_phase = params.uniform(0.0, _DAY, size=(n_tenants, 1, dims))
        period = params.uniform(0.5, 3.0, size=(1, 1, dims)) * _DAY
        weights = params.normal(0.0, 0.5, size=(n_tenants, dims, channels))
        offset = params.integers(0, _DAY, size=(n_tenants, 1))
        cov_noise = 0.1 * cov_rng.standard_normal((timeline, n_tenants, dims)).transpose(1, 0, 2)
        numerical = np.sin(2 * np.pi * (hours[None, :, None] + cov_phase) / period) + cov_noise
        series = series + np.einsum("ntd,ndc->ntc", numerical[:, :steps], weights)
        local = np.arange(timeline)[None, :] + offset
        future_numerical = np.ascontiguousarray(numerical, dtype=np.float32)
        future_categorical = np.stack([(local // _DAY) % 7, local % _DAY], axis=-1).astype(np.int64)

    series = series.astype(np.float32)
    rows = np.ascontiguousarray(series[:, history:].transpose(1, 0, 2))[:, :, None, :]
    return WorkloadInputs(
        tenants=tuple(f"tenant-{i:03d}" for i in range(n_tenants)),
        history=np.ascontiguousarray(series[:, :history]),
        rows=rows,
        future_numerical=future_numerical,
        future_categorical=future_categorical,
        horizon=config.horizon,
    )


def _stable_id(name: str) -> int:
    """A process-independent integer for a traffic name (``hash`` is salted)."""
    return int.from_bytes(name.encode("utf-8"), "little") % (1 << 63)
