"""Benchmark S2 — serving latency percentiles under a bursty workload.

Drives a two-shard :class:`ShardedForecaster` with bursty multi-tenant
traffic (every tenant ingests, then one ``forecast_all`` fan-out per
burst) and reads the request-latency distribution straight from the
``repro.obs`` histograms the serving layer already maintains — the same
numbers the JSON/Prometheus exports publish.  Records p50/p95/p99,
throughput and peak queue depth into ``BENCH_serving.json``.
"""

import time

import numpy as np

from repro import obs
from repro.cluster import ShardedForecaster
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import (
    AdmissionPolicy,
    DeadlineExceeded,
    ForecastService,
    Overloaded,
)

N_TENANTS = 64
N_SHARDS = 2
N_BURSTS = 8
INPUT_LENGTH = 48
HORIZON = 12


def _make_cluster():
    config = ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=1, patch_length=12,
        hidden_dim=32, dropout=0.0,
    )
    return ShardedForecaster(
        lambda: ForecastService(LiPFormer(config), max_batch_size=16),
        n_shards=N_SHARDS,
    )


def test_bursty_multitenant_latency_recorded(bench_record):
    cluster = _make_cluster()
    rng = np.random.default_rng(11)
    for i in range(N_TENANTS):
        cluster.ingest(
            f"tenant-{i}", rng.normal(size=(INPUT_LENGTH, 1)).astype(np.float32)
        )
    cluster.forecast_all()  # warm every shard's compiled plan

    # The serving layer's own instruments are the measurement: reset them
    # post-warmup so the recorded distribution covers only the burst phase.
    latency = obs.histogram("repro_serving_request_latency_seconds")
    queue_depth = obs.gauge("repro_serving_queue_depth")
    latency.reset()
    queue_depth.reset()

    started = time.perf_counter()
    for _ in range(N_BURSTS):
        burst = rng.normal(size=(N_TENANTS, 4, 1)).astype(np.float32)
        for i in range(N_TENANTS):
            cluster.ingest(f"tenant-{i}", burst[i])
        results = cluster.forecast_all()
        assert len(results) == N_TENANTS
    elapsed = time.perf_counter() - started

    total_requests = N_TENANTS * N_BURSTS
    assert latency.count == total_requests, "request-latency histogram missed requests"
    p50, p95, p99 = (latency.percentile(q) * 1e3 for q in (50, 95, 99))
    throughput = total_requests / elapsed
    peak_queue = queue_depth.max_value

    print(
        f"\nbursty serving ({N_TENANTS} tenants x {N_BURSTS} bursts, {N_SHARDS} shards): "
        f"p50 {p50:.2f}ms p95 {p95:.2f}ms p99 {p99:.2f}ms, "
        f"{throughput:,.0f} req/s, peak queue {peak_queue:.0f}"
    )
    bench_record("serving", "latency", {
        "p50_ms": round(p50, 3), "p95_ms": round(p95, 3), "p99_ms": round(p99, 3),
    })
    bench_record("serving", "throughput", {"req_per_s": round(throughput)})
    bench_record("serving", "queue_depth", {"peak": peak_queue})
    bench_record("serving", "workload", {
        "tenants": N_TENANTS, "shards": N_SHARDS, "bursts": N_BURSTS,
        "input_length": INPUT_LENGTH, "horizon": HORIZON,
        "max_batch_size": 16,
    })

    assert 0 < p50 <= p95 <= p99
    assert peak_queue > 0
    assert throughput > 0


QUEUE_LIMIT = 16
BURST_SIZE = 48  # 3x the queue: two thirds of each burst must shed
DOOMED_PER_BURST = 4  # submitted with a deadline that lapses before flush


def test_overload_shedding_recorded(bench_record):
    """Benchmark S3 — typed load-shedding under a 3-priority burst.

    Drives a queue-bounded service with bursts three times its capacity
    and records the shed rate, the deadline-miss rate and the p99 latency
    the *interactive* class still gets while lower classes pay.
    """
    config = ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=1, patch_length=12,
        hidden_dim=32, dropout=0.0,
    )
    service = ForecastService(
        LiPFormer(config),
        max_batch_size=64,  # above the queue bound: shedding, not auto-flush
        admission=AdmissionPolicy(
            queue_limit=QUEUE_LIMIT,
            default_timeout=30.0,
            # Fire the rescue timer at the deadline itself, so a lapsed
            # budget is a measured miss rather than an early rescue.
            flush_fraction=1.0,
        ),
    )
    rng = np.random.default_rng(13)
    history = rng.normal(size=(INPUT_LENGTH, 1)).astype(np.float32)
    service.submit(history).result()  # warm the compiled plan
    service.reset_stats()
    priority_latency = obs.histogram(
        "repro_serving_priority_latency_seconds", labels=("priority",)
    )
    interactive = priority_latency.labels(priority="interactive")
    interactive.reset()

    priorities = ("interactive", "batch", "best_effort")
    handles, refused = [], 0
    submitted = N_BURSTS * (BURST_SIZE + DOOMED_PER_BURST)
    started = time.perf_counter()
    for _ in range(N_BURSTS):
        for i in range(DOOMED_PER_BURST):
            # Deliberate deadline misses: queued first (into an empty
            # queue, at a priority nothing displaces) with a budget that
            # lapses while the burst queues behind them — the flush sheds
            # them instead of spending a forward pass.
            try:
                handles.append(
                    service.submit(
                        history - 0.01 * i, priority="interactive", timeout=0.004
                    )
                )
            except (Overloaded, DeadlineExceeded):
                refused += 1
        for i in range(BURST_SIZE):
            try:
                handles.append(
                    service.submit(history + 0.01 * i, priority=priorities[i % 3])
                )
            except (Overloaded, DeadlineExceeded):
                refused += 1
        time.sleep(0.01)
        service.flush()
    elapsed = time.perf_counter() - started
    service.close()

    outcomes = {"ok": 0, "Overloaded": 0, "DeadlineExceeded": 0}
    for handle in handles:
        try:
            handle.result()
            outcomes["ok"] += 1
        except (Overloaded, DeadlineExceeded) as error:
            outcomes[type(error).__name__] += 1

    stats = service.stats_snapshot()
    shed = stats.shed_overloaded + stats.shed_expired + stats.deadline_misses
    shed_rate = shed / submitted
    deadline_miss_rate = stats.deadline_misses / submitted
    p99_interactive = interactive.percentile(99) * 1e3

    print(
        f"\noverload ({N_BURSTS} bursts of {BURST_SIZE}+{DOOMED_PER_BURST} vs "
        f"queue {QUEUE_LIMIT}): shed {shed_rate:.1%} "
        f"(deadline misses {deadline_miss_rate:.1%}), "
        f"{outcomes['ok']} served, interactive p99 {p99_interactive:.2f}ms"
    )
    bench_record("serving", "overload", {
        "submitted": submitted,
        "served": outcomes["ok"],
        "refused_at_admission": refused,
        "evicted": outcomes["Overloaded"],
        "deadline_misses": stats.deadline_misses,
        "shed_rate": round(shed_rate, 4),
        "deadline_miss_rate": round(deadline_miss_rate, 4),
        "p99_interactive_ms": round(p99_interactive, 3),
        "queue_limit": QUEUE_LIMIT,
        "burst_size": BURST_SIZE,
        "priorities": list(priorities),
        "wall_seconds": round(elapsed, 3),
    })

    assert outcomes["ok"] + refused + outcomes["Overloaded"] + outcomes[
        "DeadlineExceeded"
    ] == submitted, "every submission must resolve or shed typed"
    assert shed_rate > 0.5, "a 3x burst must shed most of its traffic"
    assert stats.deadline_misses > 0, "doomed submissions must miss typed"
    assert np.isfinite(p99_interactive) and p99_interactive > 0
