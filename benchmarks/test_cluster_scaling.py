"""Benchmark S3 — sharded cluster scaling, process backend, rebalance cost.

Quantifies the claims the cluster subsystem makes:

* the sharded façade is a routing layer, not a bottleneck: serving the
  same tenant fleet through 2 or 4 shards (ring lookup + per-shard
  micro-batches) stays within a small factor of the single-shard path in
  one process, while per-shard batch sizes shrink by exactly the shard
  count (the win materialises when shards get their own cores/processes);
* the process backend *is* that materialisation: ``forecast_all`` through
  :class:`~repro.cluster.ProcessCoordinator` workers escapes the GIL, so
  on a multi-core host with single-threaded BLAS it must outrun the
  thread backend outright (≥2× at 4 shards on ≥4 cores); single-core CI
  boxes can only verify the wire/codec overhead stays bounded;
* consistent hashing keeps rebalancing *cheap*: growing an N-shard ring
  by one moves ≈ ``1/(N+1)`` of the tenants — never a full reshuffle —
  and every moved tenant lands on the new shard;
* a ``kill -9`` crash drill (detect + failover from the checkpoint chain)
  completes in interactive time, not restart-the-world time.

Process/thread and crash-drill measurements are merged into
``BENCH_cluster.json`` so re-anchors can see the trajectory.
"""

import os
import signal
import time
from functools import partial

import numpy as np

from repro.cluster import ProcessCoordinator, ServiceSpec, ShardedForecaster, build_cluster
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.profiling import interleave
from repro.serving import ForecastService

N_TENANTS = 24
INPUT_LENGTH = 48
HORIZON = 12
TICKS = 10
#: interleaved timing rounds per shard count in the routing-overhead gate
ROUNDS = 7


def _service_factory():
    config = ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=1,
        patch_length=12, hidden_dim=32, dropout=0.0,
    )
    return ForecastService(LiPFormer(config), max_batch_size=N_TENANTS)


def _arrivals(rng, steps):
    return [
        {f"tenant-{i}": rng.normal(size=(1, 1)).astype(np.float32) for i in range(N_TENANTS)}
        for _ in range(steps)
    ]


def _drive(cluster, arrivals):
    for tick in arrivals:
        handles = cluster.ingest_and_forecast(tick)
        for handle in handles.values():
            handle.result()


def test_sharded_routing_overhead_is_bounded():
    """Throughput vs shard count: fan-out must not crater single-process serving.

    The shard counts are timed in interleaved rounds (the order reversed
    every round), and the gate reads the median of the per-round 4-shard
    over 1-shard throughput ratios, so a burst of host load lands on every
    shard count alike instead of on one count's only sample.
    """
    rng = np.random.default_rng(3)
    warmup = _arrivals(rng, INPUT_LENGTH // 2)
    measured = _arrivals(rng, TICKS)

    clusters = {n: ShardedForecaster(_service_factory, n_shards=n) for n in (1, 2, 4)}
    for cluster in clusters.values():
        _drive(cluster, warmup)
        cluster.reset_service_stats()
    timings = interleave(
        {n: partial(_drive, cluster, measured) for n, cluster in clusters.items()}, rounds=ROUNDS
    )
    batch_sizes = {}
    for n_shards, cluster in clusters.items():
        stats = cluster.service_stats()
        batch_sizes[n_shards] = stats.mean_batch_size
        assert stats.requests == ROUNDS * N_TENANTS * TICKS

    throughput = {n: N_TENANTS * TICKS / samples.median for n, samples in timings.items()}
    ratio = timings.ratios(1, 4).median
    print(
        "\ncluster scaling: "
        + ", ".join(
            f"{n} shard(s) {throughput[n]:,.0f} forecasts/s "
            f"(mean batch {batch_sizes[n]:.1f})"
            for n in sorted(throughput)
        )
        + f"; median paired 4/1 throughput ratio {ratio:.2f}"
    )
    # Tenants still coalesce per shard: N tenants over S shards ≈ N/S.
    for n_shards, mean_batch in batch_sizes.items():
        assert mean_batch >= 0.8 * N_TENANTS / n_shards
    # One process runs shards sequentially, so 4 shards can't be faster —
    # but the routing/fan-out layer itself must stay cheap.
    assert ratio >= 0.25, (
        f"4-shard fan-out overhead too high: median paired throughput ratio "
        f"{ratio:.2f} ({throughput[4]:,.0f} vs {throughput[1]:,.0f} forecasts/s unsharded)"
    )


def _backend_spec():
    # Wide enough that each worker's padded forward pass is BLAS-dominated
    # — the regime where separate processes (separate GILs, separate BLAS
    # contexts) actually buy wall-clock over one process's threads.
    return ServiceSpec(
        config=ModelConfig(
            input_length=96, horizon=24, n_channels=4,
            patch_length=24, hidden_dim=96, dropout=0.0, n_heads=4, n_layers=2,
        ),
        max_batch_size=64,
    )


def _required_process_speedup(blas_pinned: bool) -> float:
    """The bar the host can actually clear (see test_parallel_scaling).

    With one core, worker processes can't run concurrently and the wire
    codec is pure overhead — the assert only bounds that overhead.  Real
    GIL-escape speedup is demanded only when cores exist *and* BLAS is
    pinned to one thread (multithreaded BLAS already eats every core in
    the thread baseline, turning the comparison into scheduler noise).
    """
    cores = os.cpu_count() or 1
    if cores >= 4 and blas_pinned:
        return 2.0
    if cores >= 2 and blas_pinned:
        return 1.2
    return 0.3


def test_process_backend_escapes_the_gil(bench_record, blas_pinned):
    """forecast_all throughput: 4 process workers vs 4 thread shards.

    Both clusters are up at once and timed in interleaved rounds of
    ``ticks`` sweeps each; the gate reads the median per-round ratio.
    """
    n_shards, n_tenants, ticks, rounds = 4, 32, 4, 5
    spec = _backend_spec()
    rng = np.random.default_rng(21)
    fleet = {
        f"tenant-{i}": rng.normal(size=(96, 4)).astype(np.float32)
        for i in range(n_tenants)
    }

    def drive(cluster):
        for _ in range(ticks):
            for handle in cluster.forecast_all().values():
                handle.result()

    clusters = {b: build_cluster(spec, n_shards=n_shards, backend=b) for b in ("thread", "process")}
    try:
        for cluster in clusters.values():
            for tenant, values in fleet.items():
                cluster.ingest(tenant, values)
            drive(cluster)                         # warm plans on every shard
        timings = interleave({b: partial(drive, cluster) for b, cluster in clusters.items()}, rounds=rounds)
        for cluster in clusters.values():
            assert cluster.service_stats().requests >= n_tenants * ticks * (rounds + 1)
    finally:
        clusters["process"].close()

    speedup = timings.ratios("thread", "process")
    required = _required_process_speedup(blas_pinned)
    cores = os.cpu_count() or 1
    throughput = {b: n_tenants * ticks / samples.median for b, samples in timings.items()}
    print(
        f"\nprocess backend ({cores} cores, {n_shards} shards): thread "
        f"{throughput['thread']:,.0f} forecasts/s, process "
        f"{throughput['process']:,.0f} forecasts/s "
        f"(median paired speedup {speedup.median:.2f}x, required {required:.2f}x)"
    )
    bench_record(
        "cluster",
        "process_vs_thread",
        {
            "n_shards": n_shards,
            "n_tenants": n_tenants,
            "thread_forecasts_per_s": round(throughput["thread"], 1),
            "process_forecasts_per_s": round(throughput["process"], 1),
            "speedup": round(speedup.median, 3),
            "spread": round(speedup.spread, 3),
            "required": required,
        },
    )
    assert speedup.median >= required, (
        f"process backend gave {speedup.median:.2f}x over threads on {cores} "
        f"cores; expected at least {required:.2f}x"
    )


def test_crash_drill_recovery_time(bench_record, tmp_path):
    """kill -9 → detect → failover wall-clock, from a real checkpoint."""
    spec = _backend_spec()
    rng = np.random.default_rng(23)
    with ProcessCoordinator(spec, n_shards=3) as cluster:
        for i in range(18):
            cluster.ingest(f"tenant-{i}", rng.normal(size=(96, 4)).astype(np.float32))
        cluster.save(str(tmp_path / "ckpt"))
        victim = cluster.shard_for("tenant-0")
        os.kill(cluster.worker_pid(victim), signal.SIGKILL)

        start = time.perf_counter()
        dead = cluster.detect_failures(timeout=5.0)
        detect_seconds = time.perf_counter() - start
        assert dead == [victim]

        start = time.perf_counter()
        report = cluster.failover(victim)
        failover_seconds = time.perf_counter() - start
        assert report.complete and report.restored

        # Post-recovery the cluster still serves its whole fleet.
        assert len(cluster.forecast_all()) == 18

    recovery = detect_seconds + failover_seconds
    print(
        f"\ncrash drill: detect {detect_seconds * 1e3:.0f} ms + failover "
        f"{failover_seconds * 1e3:.0f} ms = {recovery * 1e3:.0f} ms for "
        f"{len(report.restored)} tenants restored"
    )
    bench_record(
        "cluster",
        "crash_drill",
        {
            "detect_seconds": round(detect_seconds, 4),
            "failover_seconds": round(failover_seconds, 4),
            "recovery_seconds": round(recovery, 4),
            "tenants_restored": len(report.restored),
        },
    )
    assert recovery < 30.0, f"crash recovery took {recovery:.1f}s"


def test_rebalance_moves_at_most_one_over_n_plus_slack():
    """Rebalance cost: adding shard N+1 migrates ≈ 1/(N+1) of tenants."""
    rng = np.random.default_rng(9)
    n_tenants = 600
    for n_shards in (2, 4):
        cluster = ShardedForecaster(_service_factory, n_shards=n_shards, vnodes=128)
        for i in range(n_tenants):
            cluster.ingest(f"tenant-{i}", rng.normal(size=(4, 1)).astype(np.float32))
        before = cluster.ring.assignments(cluster.tenants())
        start = time.perf_counter()
        moved = cluster.add_shard()
        rebalance_seconds = time.perf_counter() - start
        fraction = len(moved) / n_tenants
        expected = 1 / (n_shards + 1)
        print(
            f"\nrebalance {n_shards}→{n_shards + 1} shards: moved "
            f"{len(moved)}/{n_tenants} tenants ({fraction:.1%}, expected "
            f"≈{expected:.1%}) in {rebalance_seconds * 1e3:.1f} ms"
        )
        assert fraction <= expected + 0.10, (
            f"rebalance moved {fraction:.1%} of tenants; consistent hashing "
            f"should move ≈{expected:.1%}"
        )
        assert fraction > 0, "a new shard should take some load"
        # Only reassigned tenants moved, and state went with them.
        after = cluster.ring.assignments(list(before))
        assert set(moved) == {t for t in before if before[t] != after[t]}
        assert all(t in cluster.shard(after[t]).store for t in before)
