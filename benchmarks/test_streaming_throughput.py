"""Benchmark S2 — streaming multi-tenant serving throughput.

Quantifies the two claims the streaming subsystem makes:

* forecasting N live tenants through :class:`StreamingForecaster` (one
  coalesced micro-batch per tick) beats per-tenant sequential
  ``ForecastModel.predict`` — the acceptance bar is >= 2x with a mean batch
  size > 1;
* :class:`SeriesStore` ingestion is cheap enough to never be the
  bottleneck: row-at-a-time and chunked append throughput are reported, and
  a known tenant's appends never reallocate the store's slab.
"""

import time

import numpy as np

from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.profiling import interleave
from repro.serving import ForecastService
from repro.streaming import SeriesStore, StreamingForecaster, replay

N_TENANTS = 12
INPUT_LENGTH = 48
HORIZON = 12
TICKS = 16          # forecast ticks after warmup


def _make_model():
    config = ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=1,
        patch_length=12, hidden_dim=32, dropout=0.0,
    )
    return LiPFormer(config)


def _make_streams():
    rng = np.random.default_rng(11)
    steps = INPUT_LENGTH + TICKS
    return {
        f"tenant-{i}": rng.normal(size=(steps, 1)).astype(np.float32)
        for i in range(N_TENANTS)
    }


def test_streaming_beats_per_tenant_sequential_predict():
    """Coalesced multi-tenant serving: >= 2x over sequential, batches > 1."""
    model = _make_model()
    streams = _make_streams()

    def sequential():
        # The obvious per-tenant loop: maintain a window per tenant, call
        # the model once per tenant per tick.
        for step in range(INPUT_LENGTH, INPUT_LENGTH + TICKS):
            for values in streams.values():
                model.predict(values[step - INPUT_LENGTH:step][None])

    def streaming():
        service = ForecastService(model, max_batch_size=N_TENANTS)
        forecaster = StreamingForecaster(service)
        return replay(forecaster, streams, warmup=INPUT_LENGTH)

    sequential()
    result = streaming()      # warmup both paths (and keep one result)
    timings = interleave({"sequential": sequential, "streaming": streaming}, rounds=3)
    t_sequential, t_streaming = timings["sequential"].min, timings["streaming"].min

    requests = N_TENANTS * (TICKS + 1)     # replay also forecasts at warmup
    speedup = t_sequential / t_streaming * (requests / (N_TENANTS * TICKS))
    print(
        f"\nstreaming serving ({N_TENANTS} tenants): sequential "
        f"{N_TENANTS * TICKS / t_sequential:,.0f} forecasts/s, streaming "
        f"{requests / t_streaming:,.0f} forecasts/s, speedup {speedup:.1f}x, "
        f"mean batch size {result.mean_batch_size:.1f}"
    )
    assert result.mean_batch_size > 1.0, "tenants must coalesce into micro-batches"
    assert result.mean_batch_size >= N_TENANTS * 0.9
    assert speedup >= 2.0, (
        f"streaming only {speedup:.2f}x faster than per-tenant sequential predict"
    )


def test_ingest_throughput_and_no_reallocation():
    """Slab ingestion: amortised O(1), no backing-array reallocation."""
    store = SeriesStore(capacity=4 * INPUT_LENGTH, n_channels=1)
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(20_000, 1)).astype(np.float32)

    start = time.perf_counter()
    for tenant in range(4):
        key = f"tenant-{tenant}"
        for row in rows[:5_000]:
            store.ingest(key, row)
    elapsed = time.perf_counter() - start
    row_rate = 20_000 / elapsed

    # Steady state for a known tenant: its rows land in the shard's slab
    # in place, so the slab is never reallocated.
    backing = store._slab
    for row in rows[:1_000]:
        store.ingest("tenant-0", row)
    assert store._slab is backing

    chunk_store = SeriesStore(capacity=4 * INPUT_LENGTH, n_channels=1)
    start = time.perf_counter()
    for chunk_start in range(0, len(rows), 64):
        chunk_store.ingest("bulk", rows[chunk_start:chunk_start + 64])
    chunk_rate = len(rows) / (time.perf_counter() - start)

    print(
        f"\ningest throughput: {row_rate:,.0f} rows/s row-at-a-time, "
        f"{chunk_rate:,.0f} rows/s in 64-row chunks "
        f"(evicted {store.stats.evicted + chunk_store.stats.evicted:,} rows)"
    )
    assert row_rate > 5_000, f"row-at-a-time ingest too slow: {row_rate:,.0f} rows/s"
    assert chunk_rate > row_rate, "chunked ingest must amortise better than rows"
