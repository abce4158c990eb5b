"""Process-backend specifics of the cluster (:mod:`repro.cluster.process`).

Every contract both backends share is written once, in
``test_conformance.py``, and the ``ServiceSpec`` and ``build_cluster``
unit tests live in ``test_cluster_spec.py``.  What is left here exists
only across a process boundary: one frame per worker per sweep, the
write-behind ``BUFFER_ROWS`` cap (a corrupt cap frame included), an
ingest that never polls the worker, cache-backed registry views,
per-worker metrics, spans grafted from workers, worker reaping on
``close`` and ``WorkerDied`` at ingest.  Workers are real OS processes,
so those tests lean on a shared module-scoped cluster where they can
(spawn + replica build is the expensive part).  The other names in this
module bind a conformance or spec case on the process backend, so the
names it has always reported keep reporting the same guarantee.
"""

import os

import numpy as np
import pytest

import repro.obs as obs
from repro.cluster import process as process_module
from repro.cluster import ProcessCoordinator, ServiceSpec, WorkerDied
from repro.config import ModelConfig
from repro.testing import faults

import test_cluster_spec as cluster_spec
import test_conformance as conformance
from test_conformance import TestCheckpoints as Checkpoints
from test_conformance import TestFanOut as FanOut
from test_conformance import TestLiveHeadParity as LiveHeadParity
from test_conformance import TestParity as Parity
from test_conformance import TestRebalance as Rebalance
from test_conformance import TestRouting as Routing
from test_conformance import TestSingleForecast as SingleForecast
from test_conformance import TestSweeps as Sweeps

INPUT_LENGTH = 16
CHANNELS = 2


@pytest.fixture(scope="module")
def spec():
    config = ModelConfig(
        input_length=INPUT_LENGTH, horizon=4, n_channels=CHANNELS,
        patch_length=4, hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1, seed=11,
    )
    return ServiceSpec(config=config, max_batch_size=16)


def make_streams(n_tenants, rows, seed=0):
    rng = np.random.default_rng(seed)
    return {
        f"tenant-{i}": rng.normal(size=(rows, CHANNELS)).astype(np.float32)
        for i in range(n_tenants)
    }


@pytest.fixture(scope="module")
def shared_cluster(spec):
    with ProcessCoordinator(spec, n_shards=2) as cluster:
        for tenant, values in make_streams(6, INPUT_LENGTH + 4).items():
            cluster.ingest(tenant, values)
        yield cluster


cluster = conformance.cluster


@pytest.fixture
def backend():
    return "process"


class TestServiceSpec:
    test_replicas_are_bit_identical = cluster_spec.TestServiceSpec.test_replicas_are_bit_identical
    test_state_round_trip = cluster_spec.TestServiceSpec.test_state_round_trip
    test_spec_is_a_service_factory = cluster_spec.TestServiceSpec.test_spec_is_a_service_factory
    test_coordinator_rejects_closures = (
        cluster_spec.TestServiceSpec.test_coordinator_rejects_closures
    )


class TestBuildCluster:
    test_backend_selection = cluster_spec.TestBuildCluster.test_backend_selection
    test_process_backend_rejects_executor = (
        cluster_spec.TestBuildCluster.test_process_backend_rejects_executor
    )


class TestRoutedTraffic:
    test_ingest_returns_totals = Routing.test_tenants_are_listed_and_counted_across_shards
    test_routing_is_ring_stable = Routing.test_ingest_lands_on_the_ring_assigned_shard
    test_drop_forgets_tenant = Routing.test_drop_forgets_the_tenant
    test_forecast_all_shapes = FanOut.test_forecast_all_coalesces_per_shard
    test_single_forecast_resolves_via_flush = SingleForecast.test_bits_equal_the_one_tenant_sweep
    test_unknown_tenant_keeps_thread_backend_error_type = (
        Sweeps.test_explicit_unknown_tenant_raises_and_settles_the_rest
    )
    test_implicit_sweep_matches_explicit_list = Sweeps.test_implicit_sweep_equals_explicit_sweep

    def test_implicit_sweep_sends_one_frame_per_worker(self, shared_cluster, monkeypatch):
        """Live tenants come from the census: no per-worker enumeration RPC."""
        sent = []
        # The coordinator keeps no public accessor for its shard handles.
        for shard in shared_cluster._shards.values():
            def counted(command, _send=shard.send, **fields):
                sent.append(command)
                return _send(command, **fields)

            monkeypatch.setattr(shard, "send", counted)
        handles = shared_cluster.forecast_all()
        assert sent == ["forecast_many"] * len(shared_cluster.shard_ids())
        for handle in handles.values():
            handle.result()
        assert sent == ["forecast_many"] * len(shared_cluster.shard_ids())

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
            census = shard.request("census")["result"]
            assert {t: observed for t, (observed, _) in census.items()} == {"a": 5, "b": 2}

    def test_corrupt_cap_frame_still_accepts_the_row_exactly_once(self, spec, monkeypatch):
        """A cap drain whose ping fails corrupt before the write leaves the
        row buffered: the ingest returns the census total instead of
        raising, and the next frame delivers the row once."""
        monkeypatch.setattr(process_module, "BUFFER_ROWS", 6)
        schedule = faults.FaultSchedule().add("shard.send", "corrupt", match={"cmd": "ping"})
        with ProcessCoordinator(spec, n_shards=1, warmup=False) as cluster:
            shard = cluster._shards["shard-0"]
            assert cluster.ingest("a", np.zeros((4, CHANNELS), dtype=np.float32)) == 4
            with faults.inject(schedule):
                assert cluster.ingest("a", np.ones((2, CHANNELS), dtype=np.float32)) == 6
            assert [kind for _, kind, _ in schedule.fired] == ["corrupt"]
            census = shard.request("census")["result"]
            worker = {t: (int(observed), int(gen)) for t, (observed, gen) in census.items()}
            assert worker == shard.census() == {"a": (6, 0)}

    def test_fleet_ingest_makes_no_waitpid_call(self, spec, monkeypatch):
        """Liveness at ingest is what a reap or a failed frame already
        recorded: a tick of 64 ingests never polls a worker process."""
        with ProcessCoordinator(spec, n_shards=2, warmup=False) as cluster:
            polls = []
            for shard in cluster._shards.values():
                def counted(_poll=shard.process.poll):
                    polls.append(1)
                    return _poll()

                monkeypatch.setattr(shard.process, "poll", counted)
            for tenant, values in make_streams(64, 1).items():
                assert cluster.ingest(tenant, values) == 1
            assert polls == []
            assert cluster.tenant_count() == 64


class TestParity:
    test_process_cluster_matches_unsharded_replay = Parity.test_shard_count_never_changes_forecasts

    def test_process_matches_thread_backend(self, tmp_path):
        LiveHeadParity.test_backends_agree_bit_for_bit(self, "fleet", tmp_path)


class TestTopology:
    test_add_and_remove_shard_preserve_data = (
        Rebalance.test_add_then_remove_moves_exactly_the_reassigned_tenants
    )
    test_cannot_remove_last_shard = Rebalance.test_last_or_unknown_shard_cannot_be_removed


class TestObservability:
    test_stats_merge_across_workers = FanOut.test_stats_aggregate_cluster_wide
    test_as_dict_reports_backend = FanOut.test_as_dict_reports_the_topology

    def test_registry_views_are_cache_backed(self, shared_cluster):
        shared_cluster.service_stats()  # refresh the cache
        views = obs.default_registry().snapshot()["views"]
        assert views.get("repro_serving_requests", 0) > 0

    def test_worker_metrics_by_shard(self, shared_cluster):
        metrics = shared_cluster.worker_metrics()
        assert sorted(metrics) == shared_cluster.shard_ids()
        for snapshot in metrics.values():
            assert "metrics" in snapshot and "views" in snapshot

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
    test_save_load_round_trip = Checkpoints.test_save_load_is_bit_identical
    test_chain_round_trip_and_cross_backend = Checkpoints.test_chain_restores_on_either_backend
    test_incremental_requires_base = Checkpoints.test_incremental_needs_a_base

    def test_thread_snapshot_restores_as_process_cluster(self, tmp_path):
        Checkpoints.test_chain_restores_on_either_backend(self, "thread", tmp_path)


class TestWorkerLifecycle:
    def test_detect_failures_empty_when_healthy(self, shared_cluster):
        assert shared_cluster.detect_failures(timeout=5.0) == []

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
