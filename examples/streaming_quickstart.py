"""Streaming quickstart: multi-tenant online forecasting on live arrivals.

Run with::

    python examples/streaming_quickstart.py

Where ``serving_quickstart.py`` forecasts from pre-materialised arrays,
this script serves the workload the roadmap actually describes —
observations arriving continuously for many tenants, each wanting fresh
forecasts in its own units:

1. train a small LiPFormer once, offline, on standardised data;
2. stand up a :class:`StreamingForecaster` in ``"rolling"`` mode: every
   tenant gets a bounded ring buffer (no reallocation, no unbounded
   history) and an incremental Welford scaler (no offline fit needed);
3. simulate live traffic for tenants at wildly different operating levels
   — each tick ingests one observation per tenant and serves all tenants
   through ONE coalesced forward pass;
4. prove correctness with the replay harness: streaming forecasts over an
   offline-scaled series are bit-identical to ``ForecastService.backfill``.
"""

from __future__ import annotations

import numpy as np

from repro import ModelConfig, TrainingConfig, prepare_forecasting_data
from repro.core import LiPFormer
from repro.serving import ForecastService
from repro.streaming import StreamingForecaster, compare_to_backfill, replay
from repro.training import Trainer


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Offline: train one small model on standardised ETTh1 windows.
    # ------------------------------------------------------------------ #
    data = prepare_forecasting_data("ETTh1", input_length=96, horizon=24,
                                    n_timestamps=2000, n_channels=1, stride=2,
                                    include_covariates=False, seed=2021)
    config = ModelConfig(input_length=96, horizon=24, n_channels=1,
                         patch_length=24, hidden_dim=64, dropout=0.1)
    model = LiPFormer(config)
    trainer = Trainer(model, TrainingConfig(epochs=2, batch_size=64,
                                            learning_rate=1e-3, patience=2))
    trainer.fit(data)
    print(f"trained LiPFormer: test mse={trainer.test(data)['mse']:.4f}")

    # ------------------------------------------------------------------ #
    # 2. Online: one service, one streaming forecaster, rolling per-tenant
    #    normalisation — tenants never need an offline fit.
    # ------------------------------------------------------------------ #
    service = ForecastService(model, max_batch_size=32)
    forecaster = StreamingForecaster(service, normalization="rolling")

    # Five tenants sharing one trained model but living at different
    # operating levels (e.g. small vs. large deployments of one product).
    rng = np.random.default_rng(7)
    t = np.arange(400, dtype=np.float32)
    tenants = {}
    for i in range(5):
        level, spread = 10.0 ** (i / 2 + 1), 0.1 * 10.0 ** (i / 2 + 1)
        seasonal = np.sin(2 * np.pi * t / 24 + i)[:, None]
        tenants[f"tenant-{i}"] = (level + spread * (seasonal + 0.3 * rng.normal(
            size=(len(t), 1)))).astype(np.float32)

    # Warm ingest: each tenant's history streams in (chunked arrival).
    for name, values in tenants.items():
        forecaster.ingest(name, values[:96])

    # ------------------------------------------------------------------ #
    # 3. Live ticks: ingest one observation per tenant, forecast everyone
    #    through one coalesced micro-batch.
    # ------------------------------------------------------------------ #
    for step in range(96, 120):
        handles = forecaster.ingest_and_forecast(
            {name: values[step] for name, values in tenants.items()}
        )
        if step == 96 or step == 119:
            line = ", ".join(
                f"{name}={handle.result()[0, 0]:,.1f}"
                for name, handle in sorted(handles.items())
            )
            print(f"tick {step}: next-step forecasts in tenant units: {line}")
    print(f"service stats: {service.stats.as_dict()}")
    print(f"streaming stats: {service.stats.requests} forecasts for "
          f"{forecaster.store.stats.tenants} tenants, "
          f"{forecaster.store.stats.evicted} rows aged out of ring buffers")

    # ------------------------------------------------------------------ #
    # 4. Correctness: replay an offline-scaled series through a fresh
    #    pass-through forecaster; bit-identical to backfill.
    # ------------------------------------------------------------------ #
    parity_forecaster = StreamingForecaster(service, normalization="none")
    streams = {
        f"shard-{i}": data.test.series.values[i * 150:(i + 1) * 150]
        for i in range(2)
    }
    result = replay(parity_forecaster, streams)
    report = compare_to_backfill(parity_forecaster, streams, result)
    print(f"replay parity over {report.windows_compared} windows: "
          f"bit_identical={report.bit_identical} "
          f"(mean batch size {result.mean_batch_size:.1f})")
    report.raise_on_mismatch()


if __name__ == "__main__":
    main()
