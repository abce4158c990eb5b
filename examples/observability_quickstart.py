"""Observability quickstart: metrics, stats views and request tracing.

Run with::

    python examples/observability_quickstart.py

The serving, streaming, cluster and runtime layers are instrumented with
``repro.obs`` — one stdlib-only metrics registry plus span tracing.  This
script shows the full surface on a live two-shard cluster:

1. stand up a :class:`ShardedForecaster` and drive bursty multi-tenant
   traffic through it — every layer records into the default
   :class:`MetricsRegistry` as a side effect of serving;
2. read latency percentiles straight from the log-bucketed histograms
   (p50/p95/p99 from bucket interpolation, O(1) memory per histogram);
3. export the same numbers as JSON and Prometheus text — the ``*Stats``
   counters the layers already keep are folded in as registry views,
   merged by the same sum-or-max rule as ``CounterStats.merge``, so
   ``service_stats()`` and the exports can never disagree;
4. turn on span tracing for one ``forecast_all`` fan-out and export the
   resulting tree (cluster → shard → service flush → batch assembly →
   compiled plan replay) as Chrome trace-event JSON — load it in
   ``chrome://tracing`` or https://ui.perfetto.dev to see the waterfall.

Tracing is off by default and metrics degrade to one attribute check per
touchpoint when disabled, so the instrumented hot paths stay near-free
(see ``benchmarks/test_obs_overhead.py`` for the enforced gate).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.cluster import ShardedForecaster
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import ForecastService

INPUT_LENGTH = 48
HORIZON = 12
N_TENANTS = 32
N_BURSTS = 4


def main() -> None:
    config = ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=1, patch_length=12,
        hidden_dim=32, dropout=0.0,
    )
    cluster = ShardedForecaster(
        lambda: ForecastService(LiPFormer(config), max_batch_size=16), n_shards=2
    )

    # --- 1. serve bursty traffic; instrumentation rides along ------------
    rng = np.random.default_rng(0)
    for i in range(N_TENANTS):
        cluster.ingest(f"tenant-{i}", rng.normal(size=(INPUT_LENGTH, 1)).astype(np.float32))
    for _ in range(N_BURSTS):
        for i in range(N_TENANTS):
            cluster.ingest(f"tenant-{i}", rng.normal(size=(4, 1)).astype(np.float32))
        cluster.forecast_all()
    print(f"served {cluster.service_stats().requests} forecasts across 2 shards\n")

    # --- 2. latency percentiles from the serving histograms --------------
    latency = obs.histogram("repro_serving_request_latency_seconds")
    flush = obs.histogram("repro_serving_flush_seconds")
    print("request latency: "
          + ", ".join(f"p{q} {latency.percentile(q) * 1e3:.2f}ms" for q in (50, 95, 99)))
    print(f"flush time:      p50 {flush.percentile(50) * 1e3:.2f}ms "
          f"over {flush.count} flushes")
    print(f"peak queue depth: {obs.gauge('repro_serving_queue_depth').max_value:.0f}\n")

    # --- 3. stats views + Prometheus export ------------------------------
    registry = obs.default_registry()
    views = registry.views_snapshot()
    for key in sorted(views):
        if key.startswith(("repro_serving_", "repro_plan_cache_")):
            print(f"{key} = {views[key]:g}")
    print("\nPrometheus excerpt:")
    for line in registry.prometheus().splitlines():
        if line.startswith("repro_serving_request_latency_seconds"):
            print(f"  {line}")

    # --- 4. trace one fan-out and export a Chrome trace ------------------
    recorder = obs.default_recorder()
    recorder.clear()
    with obs.observability(tracing=True):
        cluster.forecast_all()
    recorder.export_chrome("forecast_all_trace.json")
    spans = recorder.spans()
    print(f"\ntraced 1 forecast_all: {len(spans)} spans "
          f"({sorted({span.name for span in spans})})")
    print("Chrome trace written to forecast_all_trace.json — open in chrome://tracing")


if __name__ == "__main__":
    main()
