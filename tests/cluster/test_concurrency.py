"""Concurrency tests for the parallel cluster: many threads, one truth.

The reader/writer refactor's whole claim is that routed traffic on
different shards can proceed concurrently *without* weakening any of PR
3's guarantees: no lost updates, no deadlocks, exact cluster-wide stats,
and forecasts bit-identical to an unsharded single-threaded reference.
These tests hammer the cluster from many threads (with rebalances
mid-stream) and then audit the books.
"""

import gc
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.obs.metrics

from repro.cluster import ShardedForecaster, compare_cluster_to_unsharded, replay_cluster
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.runtime import lock_ordering
from repro.serving import ForecastService
from repro.streaming import StreamingForecaster

INPUT_LENGTH = 16
HORIZON = 4


@pytest.fixture(autouse=True)
def _lock_order_watchdog():
    """Run every stress test under the lock-order detector.

    Any thread that acquires the topology and shard locks in an order
    inconsistent with the rest of the suite turns a would-be flaky hang
    into a deterministic :class:`PotentialDeadlock` failure.
    """
    with lock_ordering():
        yield


@pytest.fixture
def config():
    return ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=1, patch_length=4,
        hidden_dim=8, dropout=0.0, n_heads=2, n_layers=1,
    )


@pytest.fixture
def pool():
    """A fan-out thread pool, shut down after the test."""
    with ThreadPoolExecutor(3) as executor:
        yield executor


@pytest.fixture
def service_factory(config):
    def factory():
        return ForecastService(LiPFormer(config), max_batch_size=8)
    return factory


class TestStress:
    def test_threads_across_shards_with_midstream_rebalance(self, service_factory, pool):
        """Ingest + forecast from many threads while the topology changes.

        Each worker owns a disjoint set of tenants, so the expected counts
        are exact.  Mid-stream the main thread grows and shrinks the ring
        and runs cluster-wide fan-outs.  Afterwards every ledger must
        balance: per-tenant row counts, store totals, streaming forecast
        counts and service request counts — nothing lost, nothing double-
        counted, and (implicitly) no deadlock because the test finishes.
        """
        n_threads, tenants_per_thread, iterations = 6, 3, 24
        cluster = ShardedForecaster(service_factory, n_shards=3, executor=pool)
        owned = {
            worker: [f"w{worker}-t{j}" for j in range(tenants_per_thread)]
            for worker in range(n_threads)
        }
        ingested = {t: 0 for ts in owned.values() for t in ts}
        forecasts_by_thread = [0] * n_threads
        errors = []
        start = threading.Barrier(n_threads + 1, timeout=30)

        def worker(index: int) -> None:
            rng = np.random.default_rng(index)
            try:
                start.wait()
                for step in range(iterations):
                    for tenant in owned[index]:
                        cluster.ingest(tenant, rng.normal(size=(1, 1)).astype(np.float32))
                        ingested[tenant] += 1
                    if step % 4 == 3:
                        tenant = owned[index][step % tenants_per_thread]
                        value = cluster.forecast(tenant).result()
                        forecasts_by_thread[index] += 1
                        assert value.shape == (HORIZON, 1)
            except Exception as error:  # noqa: BLE001 - surfaced by the assert
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        start.wait()
        fan_out_requests = 0
        for round_index in range(3):
            cluster.add_shard()
            handles = cluster.forecast_all()
            fan_out_requests += len(handles)
            for handle in handles.values():
                assert handle.result().shape == (HORIZON, 1)
            cluster.remove_shard(cluster.shard_ids()[-1])
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive(), "worker deadlocked"
        cluster.flush()

        assert not errors, f"concurrent traffic failed: {errors[:1]}"
        # No lost updates: every tenant's row count matches what was sent.
        for tenant, count in ingested.items():
            owner = cluster.shard(cluster.shard_for(tenant))
            assert owner.store.observed(tenant) == count, f"{tenant} lost rows"
        store = cluster.store_stats()
        assert store.observations == sum(ingested.values())
        assert store.tenants == len(ingested)
        # Exact service accounting: one request per submitted forecast.
        submitted = sum(forecasts_by_thread) + fan_out_requests
        assert cluster.service_stats().requests == submitted

    def test_registry_reads_during_rebalances_stay_exact(self, service_factory, monkeypatch):
        """Metrics exports read the retired record while rebalances fold
        shards into it; no read fails, and once the topology settles the
        export counts what service_stats() / store_stats() count."""
        registry = repro.obs.metrics.MetricsRegistry()
        monkeypatch.setattr(repro.obs.metrics, "_DEFAULT_REGISTRY", registry)
        cluster = ShardedForecaster(service_factory, n_shards=3)
        rng = np.random.default_rng(11)
        for i in range(12):
            cluster.ingest(f"tenant-{i}", rng.normal(size=(INPUT_LENGTH, 1)).astype(np.float32))
        stop, errors = threading.Event(), []

        def read_views():
            try:
                while not stop.is_set():
                    registry.views_snapshot()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        readers = [threading.Thread(target=read_views) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for _ in range(4):
                for handle in cluster.forecast_all().values():
                    handle.result()
                cluster.add_shard()
                cluster.remove_shard(cluster.shard_ids()[0])
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for reader in readers:
                reader.join(30)
        assert not any(reader.is_alive() for reader in readers), "registry read hung"
        assert not errors, f"registry read failed: {errors[:1]}"
        gc.collect()
        views = registry.views_snapshot()
        assert views["repro_serving_requests"] == cluster.service_stats().requests == 48
        assert views["repro_store_observations"] == cluster.store_stats().observations

    def test_concurrent_fan_outs_never_tear_stats(self, service_factory, pool):
        """Parallel forecast_all calls from several threads stay exact."""
        cluster = ShardedForecaster(service_factory, n_shards=2, executor=pool)
        rng = np.random.default_rng(7)
        tenants = [f"tenant-{i}" for i in range(12)]
        for tenant in tenants:
            cluster.ingest(tenant, rng.normal(size=(INPUT_LENGTH, 1)).astype(np.float32))
        rounds_per_thread, n_threads = 5, 4
        errors = []

        def fan_out():
            try:
                for _ in range(rounds_per_thread):
                    for handle in cluster.forecast_all().values():
                        handle.result()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=fan_out) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive(), "fan-out deadlocked"
        assert not errors, f"fan-out failed: {errors[:1]}"
        expected = len(tenants) * rounds_per_thread * n_threads
        stats = cluster.service_stats()
        assert stats.requests == expected


class TestDropRace:
    def test_forecast_all_tolerates_concurrent_drops(self, service_factory, rng, pool):
        """A tenant dropped between enumeration and its shard's fan-out must
        vanish from the result, not KeyError the whole fan-out."""
        cluster = ShardedForecaster(service_factory, n_shards=2, executor=pool)
        stable = [f"stable-{i}" for i in range(6)]
        churny = [f"churny-{i}" for i in range(6)]
        for tenant in stable + churny:
            cluster.ingest(tenant, rng.normal(size=(INPUT_LENGTH, 1)).astype(np.float32))
        errors = []
        stop = threading.Event()

        def churn():
            local = np.random.default_rng(3)
            try:
                while not stop.is_set():
                    for tenant in churny:
                        cluster.drop(tenant)
                        cluster.ingest(
                            tenant, local.normal(size=(1, 1)).astype(np.float32)
                        )
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for _ in range(30):
                handles = cluster.forecast_all()
                # Stable tenants are always served; churny ones may skip a
                # round mid-drop but must never poison the fan-out.
                assert set(stable) <= set(handles)
                for handle in handles.values():
                    assert handle.result().shape == (HORIZON, 1)
        finally:
            stop.set()
            thread.join(30)
            assert not thread.is_alive()
        assert not errors, f"churn thread failed: {errors[:1]}"

    def test_explicit_tenant_list_still_errors_on_unknown(self, service_factory, rng):
        cluster = ShardedForecaster(service_factory, n_shards=2)
        cluster.ingest("known", rng.normal(size=(4, 1)).astype(np.float32))
        with pytest.raises(KeyError, match="unknown tenant"):
            cluster.forecast_all(tenants=["known", "ghost"])


class TestAssignmentCache:
    def test_ring_lookup_cache_tracks_the_live_population(self, service_factory, rng):
        """drop() must evict the memoised lookup — under tenant churn the
        cache cannot grow with every key ever seen."""
        cluster = ShardedForecaster(service_factory, n_shards=2)
        for i in range(50):
            tenant = f"ephemeral-{i}"
            cluster.ingest(tenant, rng.normal(size=(1, 1)).astype(np.float32))
            cluster.drop(tenant)
        assert len(cluster._assign_cache) == 0
        cluster.ingest("kept", rng.normal(size=(1, 1)).astype(np.float32))
        assert set(cluster._assign_cache) == {"kept"}

    def test_cache_invalidated_by_topology_changes(self, service_factory, rng):
        cluster = ShardedForecaster(service_factory, n_shards=2)
        tenants = [f"tenant-{i}" for i in range(30)]
        for tenant in tenants:
            cluster.ingest(tenant, rng.normal(size=(1, 1)).astype(np.float32))
        cluster.add_shard()
        # Fresh lookups after the rebalance agree with the ring everywhere.
        for tenant in tenants:
            assert cluster.shard_for(tenant) == cluster.ring.assign(tenant)
            assert tenant in cluster.shard(cluster.shard_for(tenant)).store


class TestPoolParity:
    def test_pool_executor_keeps_bit_identical_parity(self, service_factory, rng):
        """Acceptance: parallel fan-out must not change a single bit.

        The same per-tenant streams replayed through an unsharded
        forecaster and through a 3-shard cluster running its fan-outs on a
        thread pool must produce identical forecasts — parallelism is a
        scheduling decision, never a numerical one.
        """
        steps = INPUT_LENGTH + 12
        t = np.arange(steps, dtype=np.float32)
        streams = {
            f"tenant-{i}": (
                np.sin(2 * np.pi * (t / 12.0 + i / 7.0))[:, None]
                + rng.normal(scale=0.2, size=(steps, 1))
            ).astype(np.float32)
            for i in range(7)
        }
        reference = StreamingForecaster(service_factory())
        expected = replay_cluster(reference, streams, warmup=INPUT_LENGTH)
        with ThreadPoolExecutor(4) as pool:
            cluster = ShardedForecaster(service_factory, n_shards=3, executor=pool)
            produced = replay_cluster(cluster, streams, warmup=INPUT_LENGTH)
        report = compare_cluster_to_unsharded(produced, expected)
        assert report.bit_identical, f"max |Δ| = {report.max_abs_error}"
        assert report.windows_compared == 7 * 13


class CountingLock:
    """A shard lock that counts how often it is entered."""

    def __init__(self, lock):
        self.lock = lock
        self.entered = 0

    def __enter__(self):
        self.entered += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


class TestIngestWithoutShardLock:
    """A thread-shard ingest takes the topology read guard and the store
    lock, never the shard lock: the store lock orders it against a gather."""

    def test_ingest_never_enters_the_shard_lock(self, service_factory, rng):
        cluster = ShardedForecaster(service_factory, n_shards=2)
        # The coordinator keeps no public accessor for its shard handles.
        locks = {}
        for shard_id, shard in cluster._shards.items():
            shard.lock = locks[shard_id] = CountingLock(shard.lock)
        for i in range(64):
            cluster.ingest(f"tenant-{i}", rng.normal(size=(1, 1)).astype(np.float32))
        assert [lock.entered for lock in locks.values()] == [0, 0]
        cluster.flush()  # a fan-out still takes every shard lock
        assert [lock.entered for lock in locks.values()] == [1, 1]

    def test_concurrent_ingest_never_tears_a_window_from_its_moments(self, config):
        """One thread ingests 1, 2, 3, ... per tenant through the cluster
        while another sweeps: every window a sweep gathers whose last value
        is ``v`` must come with the mean of ``1..v``, ``(v + 1) / 2``."""
        def factory():
            return ForecastService(LiPFormer(config), max_batch_size=8)

        cluster = ShardedForecaster(factory, n_shards=2, normalization="rolling")
        tenants = [f"w{i}" for i in range(4)]
        rows = 400
        history = np.arange(1, INPUT_LENGTH + 1, dtype=np.float32)[:, None]
        for tenant in tenants:
            cluster.ingest(tenant, history)
        assert len({cluster.shard_for(tenant) for tenant in tenants}) == 2
        torn = []
        for shard_id in cluster.shard_ids():
            store = cluster.shard(shard_id).store

            def checked(*args, _gather=store.gather, **kwargs):
                gathered = _gather(*args, **kwargs)
                _, windows, _, (mean, _) = gathered
                for row, last in enumerate(windows[:, -1, 0].tolist()):
                    if abs(mean[row, 0] - (last + 1) / 2) > 1e-9 * last:
                        torn.append((last, mean[row, 0]))
                return gathered

            store.gather = checked
        stop = threading.Event()
        errors = []

        def write():
            try:
                for value in range(INPUT_LENGTH + 1, rows + 1):
                    for tenant in tenants:
                        cluster.ingest(tenant, np.array([[value]], dtype=np.float32))
            except Exception as error:  # noqa: BLE001 - surfaced by the assert
                errors.append(error)

        def sweep():
            sweeps = 0
            try:
                while not stop.is_set() or not sweeps:
                    for handle in cluster.forecast_all().values():
                        assert handle.result().shape == (HORIZON, 1)
                    sweeps += 1
            except Exception as error:  # noqa: BLE001 - surfaced by the assert
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writer = threading.Thread(target=write)
            reader = threading.Thread(target=sweep)
            reader.start()
            writer.start()
            writer.join(timeout=60)
            stop.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not writer.is_alive() and not reader.is_alive(), "ingest or sweep deadlocked"
        assert not errors, errors[:1]
        assert not torn, torn[:3]
        reference = StreamingForecaster(factory(), normalization="rolling")
        for tenant in tenants:
            assert cluster.shard(cluster.shard_for(tenant)).store.observed(tenant) == rows
            reference.ingest(tenant, np.arange(1, rows + 1, dtype=np.float32)[:, None])
        expected = {tenant: handle.result() for tenant, handle in reference.forecast_all().items()}
        for tenant, handle in cluster.forecast_all(tenants).items():
            np.testing.assert_array_equal(handle.result(), expected[tenant])
