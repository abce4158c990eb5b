"""Benchmark S4 — parallel shard execution and incremental checkpoint cost.

Quantifies two claims of the thread cluster:

* **parallel fan-out**: ``forecast_all`` over S shards whose collects
  run on a :class:`concurrent.futures.ThreadPoolExecutor` overlaps the
  per-shard forward passes (NumPy releases the GIL inside BLAS), so
  throughput scales with cores.  The speedup bar adapts to the host:
  single-core CI boxes can only verify the pool doesn't *cost* anything,
  multi-core hosts must see a real speedup (>1.5× at 4 shards on ≥4
  cores — the acceptance bar).
* **O(churn) checkpoints**: ``save_incremental`` at 10% churn must write
  well under half the bytes of a full ``save`` (acceptance: <50%), because
  a delta carries payloads only for dirtied tenants.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from repro.cluster import ShardedForecaster
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.profiling import interleave
from repro.serving import ForecastService

N_SHARDS = 4
N_TENANTS = 128
N_CHANNELS = 8
INPUT_LENGTH = 96
HORIZON = 24
TICKS = 6
REPEATS = 7


def _service_factory():
    # Wide enough that each shard's padded forward pass is BLAS-dominated
    # (~95% of wall-clock scales with batch size at this geometry) — the
    # GIL-releasing regime the thread-pool claim is about.
    config = ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=N_CHANNELS,
        patch_length=24, hidden_dim=128, dropout=0.0, n_heads=4, n_layers=2,
    )
    return ForecastService(LiPFormer(config), max_batch_size=N_TENANTS)


def _build_cluster(executor):
    rng = np.random.default_rng(11)
    cluster = ShardedForecaster(_service_factory, n_shards=N_SHARDS, executor=executor)
    for i in range(N_TENANTS):
        cluster.ingest(
            f"tenant-{i}", rng.normal(size=(INPUT_LENGTH, N_CHANNELS)).astype(np.float32)
        )
    return cluster


def _drive(cluster, ticks):
    for _ in range(ticks):
        for handle in cluster.forecast_all().values():
            handle.result()


def test_pool_executor_speedup_over_serial(blas_pinned):
    """Parallel forecast_all throughput vs the serial fan-out baseline.

    Serial and pool blocks of ``TICKS`` ticks are interleaved and the gate
    reads the median per-round ratio, so a load spike on a shared host
    lands on both sides of a round instead of deciding the verdict from
    one block.
    """
    with ThreadPoolExecutor(N_SHARDS) as pool:
        clusters = {}
        for name, executor in {"serial": None, "pool": pool}.items():
            clusters[name] = _build_cluster(executor)
            _drive(clusters[name], 2)              # warm caches and the pool
            clusters[name].reset_service_stats()
        timings = interleave(
            {name: partial(_drive, cluster, TICKS) for name, cluster in clusters.items()},
            rounds=REPEATS,
        )
        for cluster in clusters.values():
            stats = cluster.service_stats()
            assert stats.requests == N_TENANTS * TICKS * REPEATS
            # Parallelism must not change batching: tenants still coalesce
            # per shard into one flush per fan-out.
            assert stats.mean_batch_size >= 0.8 * N_TENANTS / N_SHARDS

    speedup = timings.ratios("serial", "pool").median
    cores = os.cpu_count() or 1
    # The bar the host can actually clear: with one core a thread pool can
    # only tie (the assert guards against fan-out *overhead*), and real
    # parallel speedup is only demanded when the serial baseline is known
    # to run single-threaded — with a multithreaded BLAS (the pip default,
    # unless OMP/OPENBLAS_NUM_THREADS=1 as CI sets) the baseline already
    # occupies every core and the executor comparison measures scheduling,
    # not parallelism.
    if cores >= 4 and blas_pinned:
        required = 1.5
    elif cores >= 2 and blas_pinned:
        required = 1.1
    else:
        required = 0.6
    print(
        f"\nparallel scaling ({cores} cores, {N_SHARDS} shards): serial "
        f"{N_TENANTS * TICKS / timings['serial'].median:,.0f} forecasts/s, pool "
        f"{N_TENANTS * TICKS / timings['pool'].median:,.0f} forecasts/s "
        f"(median paired speedup {speedup:.2f}x, required {required:.2f}x)"
    )
    assert speedup >= required, (
        f"a {N_SHARDS}-thread pool gave {speedup:.2f}x over inline collects on {cores} "
        f"cores; expected at least {required:.2f}x"
    )


def test_incremental_checkpoint_cost_at_ten_percent_churn(tmp_path):
    """Delta bytes and wall-clock vs a full snapshot of the same fleet."""
    rng = np.random.default_rng(12)
    cluster = _build_cluster(None)

    full_path = str(tmp_path / "full.npz")
    start = time.perf_counter()
    cluster.save(full_path)
    full_seconds = time.perf_counter() - start

    churned = [f"tenant-{i}" for i in range(max(1, N_TENANTS // 10))]
    for tenant in churned:
        cluster.ingest(tenant, rng.normal(size=(4, N_CHANNELS)).astype(np.float32))

    delta_path = str(tmp_path / "delta.npz")
    start = time.perf_counter()
    cluster.save_incremental(delta_path)
    delta_seconds = time.perf_counter() - start

    full_bytes = os.path.getsize(full_path)
    delta_bytes = os.path.getsize(delta_path)
    print(
        f"\ncheckpoint cost at {len(churned)}/{N_TENANTS} churn: full "
        f"{full_bytes:,} B in {full_seconds * 1e3:.1f} ms, incremental "
        f"{delta_bytes:,} B in {delta_seconds * 1e3:.1f} ms "
        f"({delta_bytes / full_bytes:.1%} of full)"
    )
    assert delta_bytes < 0.5 * full_bytes, (
        f"incremental checkpoint wrote {delta_bytes} bytes — "
        f">50% of the {full_bytes}-byte full snapshot"
    )
    # The restore path must accept the freshly benchmarked chain.
    revived = ShardedForecaster.load_chain(_service_factory, [full_path, delta_path])
    assert revived.tenants() == cluster.tenants()
