"""Tests for the process-backed cluster (:mod:`repro.cluster.process`).

Workers are real OS processes, so the suite leans on a shared
module-scoped cluster where it can (spawn + replica build is the
expensive part) and spawns fresh clusters only where the test mutates
topology or persistence state.
"""

import os

import numpy as np
import pytest

import repro.obs as obs
from repro.cluster import process as process_module
from repro.cluster import (
    ProcessCoordinator,
    ServiceSpec,
    ShardedForecaster,
    WorkerDied,
    build_cluster,
    compare_cluster_to_unsharded,
    replay_cluster,
)
from repro.config import ModelConfig
from repro.streaming import StreamingForecaster

INPUT_LENGTH = 16
HORIZON = 4
CHANNELS = 2


@pytest.fixture(scope="module")
def config():
    return ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=CHANNELS,
        patch_length=4, hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1, seed=11,
    )


@pytest.fixture(scope="module")
def spec(config):
    return ServiceSpec(config=config, max_batch_size=16)


def make_streams(n_tenants, rows, seed=0):
    rng = np.random.default_rng(seed)
    return {
        f"tenant-{i}": rng.normal(size=(rows, CHANNELS)).astype(np.float32)
        for i in range(n_tenants)
    }


@pytest.fixture(scope="module")
def cluster(spec):
    with ProcessCoordinator(spec, n_shards=2) as cluster:
        for tenant, values in make_streams(6, INPUT_LENGTH + 4).items():
            cluster.ingest(tenant, values)
        yield cluster


class TestServiceSpec:
    def test_replicas_are_bit_identical(self, spec):
        a, b = spec.build(), spec.build()
        window = np.random.default_rng(3).normal(size=(INPUT_LENGTH, CHANNELS)).astype(np.float32)
        first, second = a.submit(window), b.submit(window)
        a.flush()
        b.flush()
        np.testing.assert_array_equal(first.result(), second.result())

    def test_state_round_trip(self, spec):
        revived = ServiceSpec.from_state(spec.to_state())
        assert revived == spec

    def test_spec_is_a_service_factory(self, spec):
        # The thread backend takes any zero-arg callable; a spec qualifies.
        cluster = ShardedForecaster(spec, n_shards=2)
        assert len(cluster) == 2

    def test_coordinator_rejects_closures(self, config):
        from repro.core import LiPFormer
        from repro.serving import ForecastService

        with pytest.raises(TypeError, match="ServiceSpec"):
            ProcessCoordinator(lambda: ForecastService(LiPFormer(config)), n_shards=1)


class TestRoutedTraffic:
    def test_ingest_returns_totals(self, cluster):
        total = cluster.ingest("tenant-0", np.zeros((2, CHANNELS), dtype=np.float32))
        assert total >= INPUT_LENGTH + 4 + 2

    def test_forecast_all_shapes(self, cluster):
        handles = cluster.forecast_all()
        assert sorted(handles) == sorted(f"tenant-{i}" for i in range(6))
        for handle in handles.values():
            assert handle.result().shape == (HORIZON, CHANNELS)

    def test_single_forecast_resolves_via_flush(self, cluster):
        handle = cluster.forecast("tenant-1")
        assert not handle.done()
        result = handle.result()  # triggers the owning shard's flush
        assert handle.done()
        assert result.shape == (HORIZON, CHANNELS)

    def test_unknown_tenant_keeps_thread_backend_error_type(self, cluster):
        handle = cluster.forecast("tenant-1")
        with pytest.raises(KeyError):
            cluster.forecast_all(["never-ingested"])
        handle.result()  # pending work on healthy shards still settles

    def test_routing_is_ring_stable(self, cluster, spec):
        thread = ShardedForecaster(spec, n_shards=2)
        for tenant in (f"tenant-{i}" for i in range(6)):
            assert cluster.shard_for(tenant) == thread.shard_for(tenant)

    def test_drop_forgets_tenant(self, spec):
        with ProcessCoordinator(spec, n_shards=2, warmup=False) as cluster:
            for tenant, values in make_streams(3, INPUT_LENGTH).items():
                cluster.ingest(tenant, values)
            cluster.drop("tenant-1")
            assert sorted(cluster.tenants()) == ["tenant-0", "tenant-2"]
            assert cluster.tenant_count() == 2

    def test_implicit_sweep_sends_one_frame_per_worker(self, cluster, monkeypatch):
        """Live tenants come from the census: no per-worker enumeration RPC."""
        sent = []
        # The coordinator keeps no public accessor for its shard handles.
        for shard in cluster._shards.values():
            def counted(command, _send=shard.send, **fields):
                sent.append(command)
                return _send(command, **fields)

            monkeypatch.setattr(shard, "send", counted)
        handles = cluster.forecast_all()
        assert sent == ["forecast_many"] * len(cluster.shard_ids())
        for handle in handles.values():
            handle.result()
        assert sent == ["forecast_many"] * len(cluster.shard_ids())

    def test_buffer_cap_ships_rows_on_a_frame_of_their_own(self, spec, monkeypatch):
        """Ingest is write-behind: rows wait for the next frame, unless a
        shard's buffer reaches the cap, which ships it on a ping."""
        monkeypatch.setattr(process_module, "BUFFER_ROWS", 6)
        with ProcessCoordinator(spec, n_shards=1, warmup=False) as cluster:
            shard = cluster._shards["shard-0"]
            sent = []

            def counted(command, _send=shard.send, **fields):
                sent.append((command, bool(shard._buffer)))  # rows ride this frame?
                return _send(command, **fields)

            monkeypatch.setattr(shard, "send", counted)
            assert cluster.ingest("a", np.zeros((4, CHANNELS), dtype=np.float32)) == 4
            assert sent == []
            assert cluster.ingest("b", np.ones((2, CHANNELS), dtype=np.float32)) == 2
            assert sent == [("ping", True)]
            assert cluster.ingest("a", np.ones((1, CHANNELS), dtype=np.float32)) == 5
            assert sent == [("ping", True)]
            census = shard.request("census")["census"]
            assert {t: e["observed"] for t, e in census.items()} == {"a": 5, "b": 2}

    def test_implicit_sweep_matches_explicit_list(self, spec):
        with ProcessCoordinator(spec, n_shards=2, warmup=False) as cluster:
            for tenant, values in make_streams(5, INPUT_LENGTH).items():
                cluster.ingest(tenant, values)
            cluster.drop("tenant-3")
            cluster.ingest("tenant-3", np.ones((2, CHANNELS), dtype=np.float32))
            cluster.drop("tenant-1")
            implicit = cluster.forecast_all()
            # tenants() asks every worker; the census must agree with it.
            assert sorted(implicit) == sorted(cluster.tenants())
            explicit = cluster.forecast_all(sorted(implicit))
            for tenant, handle in explicit.items():
                np.testing.assert_array_equal(implicit[tenant].result(), handle.result())


class TestParity:
    def test_process_cluster_matches_unsharded_replay(self, spec):
        streams = make_streams(5, INPUT_LENGTH + 6, seed=42)
        reference = StreamingForecaster(spec.build())
        expected = replay_cluster(reference, streams, warmup=INPUT_LENGTH)
        with ProcessCoordinator(spec, n_shards=3) as cluster:
            produced = replay_cluster(cluster, streams, warmup=INPUT_LENGTH)
        report = compare_cluster_to_unsharded(produced, expected)
        assert report.bit_identical, report

    def test_process_matches_thread_backend(self, spec):
        streams = make_streams(4, INPUT_LENGTH + 4, seed=7)
        thread = build_cluster(spec, n_shards=2, backend="thread")
        for tenant, values in streams.items():
            thread.ingest(tenant, values)
        expected = {t: h.result() for t, h in thread.forecast_all().items()}
        with build_cluster(spec, n_shards=2, backend="process") as process:
            for tenant, values in streams.items():
                process.ingest(tenant, values)
            produced = {t: h.result() for t, h in process.forecast_all().items()}
        for tenant in streams:
            np.testing.assert_array_equal(produced[tenant], expected[tenant])


class TestBuildCluster:
    def test_backend_selection(self, spec):
        thread = build_cluster(spec, n_shards=2, backend="thread")
        assert isinstance(thread, ShardedForecaster)
        with pytest.raises(ValueError, match="unknown backend"):
            build_cluster(spec, backend="fibers")

    def test_process_backend_rejects_executor(self, spec):
        from repro.runtime import SerialExecutor

        with pytest.raises(ValueError, match="executor"):
            build_cluster(spec, backend="process", executor=SerialExecutor())


class TestTopology:
    def test_add_and_remove_shard_preserve_data(self, spec):
        streams = make_streams(6, INPUT_LENGTH + 2, seed=5)
        with ProcessCoordinator(spec, n_shards=2) as cluster:
            for tenant, values in streams.items():
                cluster.ingest(tenant, values)
            before = {t: h.result() for t, h in cluster.forecast_all().items()}
            moved_in = cluster.add_shard()
            assert len(cluster) == 3
            assert all(cluster.shard_for(t) == "shard-2" for t in moved_in)
            moved_out = cluster.remove_shard("shard-2")
            assert sorted(moved_out) == sorted(moved_in)
            after = {t: h.result() for t, h in cluster.forecast_all().items()}
            for tenant in streams:
                np.testing.assert_array_equal(after[tenant], before[tenant])
            assert cluster.rebalances == 2
            assert cluster.tenants_migrated == len(moved_in) * 2

    def test_cannot_remove_last_shard(self, spec):
        with ProcessCoordinator(spec, n_shards=1, warmup=False) as cluster:
            with pytest.raises(ValueError, match="last shard"):
                cluster.remove_shard("shard-0")


class TestObservability:
    def test_stats_merge_across_workers(self, cluster):
        cluster.forecast_all()
        stats = cluster.service_stats()
        assert stats.requests > 0
        assert stats.flushes > 0
        streaming = cluster.streaming_stats()
        assert streaming.forecasts > 0
        store = cluster.store_stats()
        assert store.observations > 0

    def test_registry_views_are_cache_backed(self, cluster):
        cluster.service_stats()  # refresh the cache
        views = obs.default_registry().snapshot()["views"]
        assert views.get("repro_serving_requests", 0) > 0

    def test_worker_metrics_by_shard(self, cluster):
        metrics = cluster.worker_metrics()
        assert sorted(metrics) == cluster.shard_ids()
        for snapshot in metrics.values():
            assert "metrics" in snapshot and "views" in snapshot

    def test_as_dict_reports_backend(self, cluster):
        payload = cluster.as_dict()
        assert payload["backend"] == "process"
        assert payload["shards"] == 2
        assert sum(payload["tenants_per_shard"].values()) == payload["tenants"]

    def test_spans_graft_across_the_boundary(self, spec):
        with obs.observability(tracing=True):
            obs.default_recorder().clear()
            with ProcessCoordinator(spec, n_shards=2, warmup=False) as cluster:
                for tenant, values in make_streams(3, INPUT_LENGTH).items():
                    cluster.ingest(tenant, values)
                {t: h.result() for t, h in cluster.forecast_all().items()}
            spans = obs.default_recorder().spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        fan_out = by_name["cluster.forecast_all"]
        workers = by_name["worker.forecast_many"]
        assert workers, "worker spans must cross the process boundary"
        fan_out_ids = {span.span_id for span in fan_out}
        assert all(w.parent_id in fan_out_ids for w in workers)
        # Worker-internal children keep their (remapped) links.
        worker_ids = {w.span_id for w in workers}
        assert any(s.parent_id in worker_ids for s in by_name.get("service.flush", []))


class TestPersistence:
    def test_save_load_round_trip(self, spec, tmp_path):
        streams = make_streams(4, INPUT_LENGTH + 2, seed=9)
        with ProcessCoordinator(spec, n_shards=2) as cluster:
            for tenant, values in streams.items():
                cluster.ingest(tenant, values)
            expected = {t: h.result() for t, h in cluster.forecast_all().items()}
            cluster.save(str(tmp_path / "full"))
        with ProcessCoordinator.load(spec, str(tmp_path / "full")) as revived:
            produced = {t: h.result() for t, h in revived.forecast_all().items()}
        for tenant in streams:
            np.testing.assert_array_equal(produced[tenant], expected[tenant])

    def test_chain_round_trip_and_cross_backend(self, spec, tmp_path):
        streams = make_streams(4, INPUT_LENGTH + 2, seed=13)
        rng = np.random.default_rng(99)
        with ProcessCoordinator(spec, n_shards=2) as cluster:
            for tenant, values in streams.items():
                cluster.ingest(tenant, values)
            cluster.save(str(tmp_path / "base"))
            cluster.ingest("tenant-0", rng.normal(size=(2, CHANNELS)).astype(np.float32))
            cluster.save_incremental(str(tmp_path / "delta-1"))
            chain = cluster.checkpoint_chain()
            expected = {t: h.result() for t, h in cluster.forecast_all().items()}
        # Process chain restores in a fresh process cluster...
        with ProcessCoordinator.load_chain(spec, chain) as revived:
            produced = {t: h.result() for t, h in revived.forecast_all().items()}
        for tenant in streams:
            np.testing.assert_array_equal(produced[tenant], expected[tenant])
        # ...and in a thread cluster: one snapshot format, two deployments.
        thread = ShardedForecaster.load_chain(spec, chain)
        crossed = {t: h.result() for t, h in thread.forecast_all().items()}
        for tenant in streams:
            np.testing.assert_array_equal(crossed[tenant], expected[tenant])

    def test_thread_snapshot_restores_as_process_cluster(self, spec, tmp_path):
        streams = make_streams(4, INPUT_LENGTH + 2, seed=17)
        thread = ShardedForecaster(spec, n_shards=2)
        for tenant, values in streams.items():
            thread.ingest(tenant, values)
        expected = {t: h.result() for t, h in thread.forecast_all().items()}
        thread.save(str(tmp_path / "thread-full"))
        with ProcessCoordinator.load(spec, str(tmp_path / "thread-full")) as revived:
            produced = {t: h.result() for t, h in revived.forecast_all().items()}
        for tenant in streams:
            np.testing.assert_array_equal(produced[tenant], expected[tenant])

    def test_incremental_requires_base(self, spec, tmp_path):
        with ProcessCoordinator(spec, n_shards=1, warmup=False) as cluster:
            with pytest.raises(RuntimeError, match="call save"):
                cluster.save_incremental(str(tmp_path / "orphan"))


class TestWorkerLifecycle:
    def test_detect_failures_empty_when_healthy(self, cluster):
        assert cluster.detect_failures(timeout=5.0) == []

    def test_close_is_idempotent_and_reaps(self, spec):
        cluster = ProcessCoordinator(spec, n_shards=2, warmup=False)
        pids = [cluster.worker_pid(s) for s in cluster.shard_ids()]
        cluster.close()
        cluster.close()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_dead_shard_raises_worker_died(self, spec):
        with ProcessCoordinator(spec, n_shards=2, warmup=False) as cluster:
            cluster.ingest("t", np.zeros((4, CHANNELS), dtype=np.float32))
            victim = cluster.shard_for("t")
            cluster.kill_worker(victim)
            with pytest.raises(WorkerDied) as info:
                cluster.ingest("t", np.zeros((1, CHANNELS), dtype=np.float32))
            assert info.value.shard_id == victim
