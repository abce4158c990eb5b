"""Degradation drills: the cluster under injected faults and overload.

Each drill arms a deterministic fault (stall, transient, burst) and
asserts the *shape* of the degradation: typed errors for shed work,
deadlines honoured for healthy work, breakers trading timeouts for
fail-fast, and bit-parity for everything that was actually admitted.
"""

import time

import numpy as np
import pytest

import repro.obs as obs
from repro.cluster import (
    ClusterSpec,
    ServiceSpec,
    build_cluster,
    compare_cluster_to_unsharded,
    replay_cluster,
)
from repro.config import ModelConfig
from repro.errors import CircuitOpen, DeadlineExceeded, Overloaded, TransientWireError
from repro.serving import AdmissionPolicy, ForecastService
from repro.streaming import StreamingForecaster
from repro.testing import faults

INPUT_LENGTH = 16
HORIZON = 4
CHANNELS = 2

CONFIG = ModelConfig(
    input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=CHANNELS,
    patch_length=4, hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1, seed=11,
)

SPEC = ServiceSpec(config=CONFIG, max_batch_size=16)

FAST_CLUSTER = ClusterSpec(
    n_shards=2, backend="process", request_timeout=30.0, heartbeat_timeout=2.0,
    retry_attempts=3, retry_base=0.01, retry_cap=0.05,
    breaker_threshold=2, breaker_reset=0.4,
)


def make_streams(n_tenants, rows, seed=0):
    rng = np.random.default_rng(seed)
    return {
        f"tenant-{i}": rng.normal(size=(rows, CHANNELS)).astype(np.float32)
        for i in range(n_tenants)
    }


@pytest.fixture
def cluster():
    built = build_cluster(SPEC, cluster=FAST_CLUSTER)
    rng = np.random.default_rng(5)
    for i in range(6):
        built.ingest(f"tenant-{i}", rng.normal(size=(INPUT_LENGTH, CHANNELS)))
    yield built
    built.close()


def split_by_shard(cluster, tenants):
    victim = cluster.shard_for(tenants[0])
    on_victim = [t for t in tenants if cluster.shard_for(t) == victim]
    elsewhere = [t for t in tenants if cluster.shard_for(t) != victim]
    return victim, on_victim, elsewhere


def outcome(handle):
    try:
        handle.result()
        return "ok"
    except Exception as error:
        return type(error).__name__


class TestShedUnderBurst:
    """A burst beyond queue capacity sheds typed, never silently."""

    def test_local_burst_sheds_worst_class_first(self, rng):
        service = ForecastService(
            SPEC.build().model, max_batch_size=64,
            admission=AdmissionPolicy(queue_limit=8),
        )
        history = rng.normal(size=(INPUT_LENGTH, CHANNELS)).astype(np.float32)
        handles, refused = [], 0
        for i in range(20):
            priority = ("best_effort", "batch", "interactive")[i % 3]
            try:
                handles.append(service.submit(history + i, priority=priority))
            except Overloaded:
                refused += 1
        service.flush()
        outcomes = [outcome(h) for h in handles]
        shed = outcomes.count("Overloaded")
        assert refused + shed == 20 - 8  # burst minus capacity, all typed
        assert outcomes.count("ok") == 8
        assert service.stats.shed_overloaded == refused + shed
        # Every interactive submission survived: only lower classes paid.
        assert all(
            outcome(h) == "ok"
            for i, h in zip(range(20), handles)
            if ("best_effort", "batch", "interactive")[i % 3] == "interactive"
        ) or shed == 0

    def test_worker_side_shed_crosses_the_wire_typed(self):
        spec = ServiceSpec(config=CONFIG, max_batch_size=16, queue_limit=2)
        built = build_cluster(spec, cluster=FAST_CLUSTER)
        try:
            rng = np.random.default_rng(5)
            built.ingest("t", rng.normal(size=(INPUT_LENGTH, CHANNELS)))
            built.forecast("t")
            built.forecast("t")
            with pytest.raises(Overloaded, match="queue full"):
                built.forecast("t")  # shed in the worker process, typed here
            assert built.flush() == 2
        finally:
            built.close()


class TestStalledShard:
    def test_healthy_shards_complete_within_caller_deadline(self, cluster):
        tenants = [f"tenant-{i}" for i in range(6)]
        victim, on_victim, elsewhere = split_by_shard(cluster, tenants)
        assert elsewhere, "hash ring put every tenant on one shard"
        cluster.inject_stall(victim, seconds=2.0, count=4)
        started = obs.now()
        handles = cluster.forecast_all(tenants, timeout=0.8)
        elapsed = obs.now() - started
        assert elapsed < 1.6, "fan-out must not wait out the stall"
        for tenant in elsewhere:
            assert handles[tenant].result().shape == (HORIZON, CHANNELS)
        for tenant in on_victim:
            with pytest.raises(DeadlineExceeded):
                handles[tenant].result()

    def test_late_block_of_a_stalled_forecast_lands_nowhere(self, cluster):
        """A stalled flush=False frame's block outlives its deadline in the
        worker and rides the next flush reply; the coordinator already
        failed it, so none of its values reach another handle."""
        tenants = [f"tenant-{i}" for i in range(6)]
        victim, on_victim, _ = split_by_shard(cluster, tenants)
        assert len(on_victim) >= 2, "hash ring left the victim one tenant"
        t0, t1 = on_victim[:2]
        expected = {t: h.result() for t, h in cluster.forecast_all(tenants).items()}
        # Undisturbed: t0's and t1's blocks flushed together, as below.
        first, second = cluster.forecast(t0), cluster.forecast(t1)
        undisturbed = {t1: second.result(), t0: first.result()}
        assert not np.array_equal(undisturbed[t0], undisturbed[t1])
        cluster.inject_stall(victim, seconds=1.0, count=1)
        with pytest.raises(DeadlineExceeded):
            cluster.forecast(t0, timeout=0.2).result()
        time.sleep(1.2)  # the stall drains; t0's block is still pending worker-side
        late = cluster.forecast(t1).result()
        np.testing.assert_array_equal(late, undisturbed[t1])
        assert not np.array_equal(late, undisturbed[t0])
        assert cluster._shards[victim]._blocks == {}
        after = {t: h.result() for t, h in cluster.forecast_all(tenants).items()}
        for tenant in tenants:
            np.testing.assert_array_equal(after[tenant], expected[tenant])

    def test_detect_failures_timeout_override_bounds_the_probe(self, cluster):
        tenants = [f"tenant-{i}" for i in range(6)]
        victim, _, _ = split_by_shard(cluster, tenants)
        cluster.inject_stall(victim, seconds=1.5, count=2)
        started = obs.now()
        suspects = cluster.detect_failures(timeout=0.2)
        elapsed = obs.now() - started
        assert suspects == [victim]
        assert elapsed < 1.0, "override must bound the probe below the stall"
        time.sleep(1.8)  # stall drains; stale replies are seq-drained
        time.sleep(FAST_CLUSTER.breaker_reset)
        assert cluster.detect_failures() == []


class TestBreakerTripAndRecover:
    def test_consecutive_stalls_trip_then_probe_recovers(self, cluster):
        tenants = [f"tenant-{i}" for i in range(6)]
        victim, on_victim, elsewhere = split_by_shard(cluster, tenants)
        cluster.inject_stall(victim, seconds=1.2, count=4)
        # Two deadline-bounded fan-outs time the victim out twice: trip.
        for _ in range(FAST_CLUSTER.breaker_threshold):
            cluster.forecast_all(on_victim[:1], timeout=0.15)
        state = cluster.breaker_states()[victim]
        assert state["state"] == "open"
        assert state["trips"] == 1
        # Open circuit: the victim's work sheds typed with zero wire I/O,
        # healthy shards keep serving.
        handles = cluster.forecast_all(tenants, timeout=0.5)
        for tenant in elsewhere:
            assert handles[tenant].result().shape == (HORIZON, CHANNELS)
        assert all(outcome(handles[t]) == "Overloaded" for t in on_victim)
        # Wait out the stall and the reset window: the half-open probe
        # succeeds and the breaker closes.
        time.sleep(1.5 + FAST_CLUSTER.breaker_reset)
        handles = cluster.forecast_all(tenants, timeout=10.0)
        assert all(outcome(h) == "ok" for h in handles.values())
        state = cluster.breaker_states()[victim]
        assert state["state"] == "closed"
        assert state["consecutive_failures"] == 0


class TestRetryMasksTransients:
    def test_send_transient_is_retried_invisibly(self, cluster):
        schedule = faults.FaultSchedule(seed=2).add(
            "shard.send", "transient_eof", times=1
        )
        with faults.inject(schedule):
            handle = cluster.forecast("tenant-0")
            cluster.flush()
        assert handle.result().shape == (HORIZON, CHANNELS)
        assert [kind for _, kind, _ in schedule.fired] == ["transient_eof"]
        assert schedule.pending() == 0

    def test_recv_transient_is_retried_invisibly(self, cluster):
        schedule = faults.FaultSchedule(seed=2).add(
            "shard.recv", "transient_eof", times=1
        )
        with faults.inject(schedule):
            handle = cluster.forecast("tenant-1")
            cluster.flush()
        assert handle.result().shape == (HORIZON, CHANNELS)
        assert schedule.pending() == 0

    def test_recv_transient_during_forecast_all_loses_nothing(self, cluster):
        """The fan-out's collect leg retries a failed receive: the reply
        was never consumed, so every handle still resolves exactly."""
        tenants = [f"tenant-{i}" for i in range(6)]
        _, on_victim, elsewhere = split_by_shard(cluster, tenants)
        assert on_victim and elsewhere, "the drill needs both shards busy"
        expected = {t: h.result() for t, h in cluster.forecast_all(tenants).items()}
        schedule = faults.FaultSchedule(seed=2).add("shard.recv", "transient_eof", times=1)
        with faults.inject(schedule):
            handles = cluster.forecast_all(tenants)
        assert schedule.pending() == 0
        assert sorted(handles) == sorted(tenants)
        for tenant in tenants:
            np.testing.assert_array_equal(handles[tenant].result(), expected[tenant])

    def test_recv_transient_during_flush_loses_nothing(self, cluster):
        tenants = [f"tenant-{i}" for i in range(6)]
        _, on_victim, elsewhere = split_by_shard(cluster, tenants)
        assert on_victim and elsewhere, "the drill needs both shards busy"
        expected = {t: h.result() for t, h in cluster.forecast_all(tenants).items()}
        handles = {tenant: cluster.forecast(tenant) for tenant in tenants}
        schedule = faults.FaultSchedule(seed=2).add("shard.recv", "transient_eof", times=1)
        with faults.inject(schedule):
            assert cluster.flush() == len(tenants)
        assert schedule.pending() == 0
        assert all(handle.done() for handle in handles.values())
        for tenant in tenants:
            np.testing.assert_array_equal(handles[tenant].result(), expected[tenant])

    def test_exhausted_retries_surface_the_transient(self, cluster):
        schedule = faults.FaultSchedule(seed=2).add(
            "shard.send", "transient_eof", times=FAST_CLUSTER.retry_attempts
        )
        with faults.inject(schedule):
            with pytest.raises(TransientWireError):
                cluster.forecast("tenant-0")
        # The stream itself was never touched: traffic flows afterwards.
        assert cluster.forecast("tenant-0").result().shape == (HORIZON, CHANNELS)

    def test_exhausted_send_retries_leave_no_pending_handles(self, cluster):
        """A sweep frame that never went out fails its handles at once:
        none waits in the shard for a reply that cannot come."""
        tenants = [f"tenant-{i}" for i in range(6)]
        victim, on_victim, _ = split_by_shard(cluster, tenants)
        expected = {t: h.result() for t, h in cluster.forecast_all(tenants).items()}
        schedule = faults.FaultSchedule(seed=2).add(
            "shard.send", "transient_eof", match={"shard": victim},
            times=FAST_CLUSTER.retry_attempts,
        )
        with faults.inject(schedule):
            with pytest.raises(TransientWireError):
                cluster.forecast_all(tenants)
        assert schedule.pending() == 0
        assert cluster._shards[victim]._blocks == {}
        handles = cluster.forecast_all(tenants)
        for tenant in tenants:
            np.testing.assert_array_equal(handles[tenant].result(), expected[tenant])

    def test_workers_keep_bit_parity_after_masked_transients(self, cluster):
        rng = np.random.default_rng(9)
        history_row = rng.normal(size=(1, CHANNELS)).astype(np.float32)
        baseline = cluster.forecast("tenant-2").result()
        schedule = faults.FaultSchedule(seed=4).add(
            "shard.send", "transient_eof", times=1
        ).add("shard.recv", "transient_eof", times=1)
        with faults.inject(schedule):
            retried = cluster.forecast("tenant-2").result()
        np.testing.assert_array_equal(baseline, retried)
        del history_row


class TestAdmittedTrafficParity:
    def test_admission_enabled_cluster_matches_unsharded_oracle(self):
        """Admission control must be invisible to admitted traffic: a
        bounded, deadline-defaulted process cluster forecasts bitwise what
        one uninterrupted in-process forecaster produces."""
        spec = ServiceSpec(
            config=CONFIG, max_batch_size=16, queue_limit=32, default_timeout=60.0
        )
        streams = make_streams(4, rows=INPUT_LENGTH + 4, seed=21)
        built = build_cluster(spec, cluster=FAST_CLUSTER)
        try:
            produced = replay_cluster(built, streams, warmup=INPUT_LENGTH)
        finally:
            built.close()
        reference = StreamingForecaster(spec.build())
        expected = replay_cluster(reference, streams, warmup=INPUT_LENGTH)
        report = compare_cluster_to_unsharded(produced, expected)
        assert report.bit_identical, report


class TestBufferedRows:
    """Write-behind ingest: a row accepted by ``ingest()`` waits on the
    coordinator for the next frame to its worker.  Unsent frames keep it
    buffered; only the worker's death loses it, and failover says so."""

    @pytest.fixture
    def pair(self):
        """A process cluster and a thread cluster with the same history."""
        process = build_cluster(SPEC, cluster=FAST_CLUSTER)
        thread = build_cluster(SPEC, n_shards=2, backend="thread")
        for tenant, values in make_streams(6, INPUT_LENGTH, seed=31).items():
            process.ingest(tenant, values)
            thread.ingest(tenant, values)
        yield process, thread
        process.close()

    @staticmethod
    def ingest_both(pair, tenants, rows, seed):
        rng = np.random.default_rng(seed)
        for tenant in tenants:
            block = rng.normal(size=(rows, CHANNELS)).astype(np.float32)
            for cluster in pair:
                cluster.ingest(tenant, block)

    @staticmethod
    def assert_parity(pair):
        process, thread = pair
        expected = {t: h.result() for t, h in thread.forecast_all().items()}
        produced = {t: h.result() for t, h in process.forecast_all().items()}
        assert sorted(produced) == sorted(expected)
        for tenant in expected:
            np.testing.assert_array_equal(produced[tenant], expected[tenant])

    def test_exhausted_transients_leave_rows_for_the_next_frame(self, pair):
        process, _ = pair
        tenants = [f"tenant-{i}" for i in range(6)]
        victim, on_victim, _ = split_by_shard(process, tenants)
        self.ingest_both(pair, tenants, rows=3, seed=1)
        schedule = faults.FaultSchedule(seed=2).add(
            "shard.send", "transient_eof", match={"shard": victim},
            times=FAST_CLUSTER.retry_attempts,
        )
        with faults.inject(schedule):
            with pytest.raises(TransientWireError):
                process.forecast(on_victim[0])
        assert schedule.pending() == 0
        self.assert_parity(pair)

    def test_open_breaker_refuses_new_rows_and_keeps_buffered_ones(self, pair):
        process, thread = pair
        tenants = [f"tenant-{i}" for i in range(6)]
        victim, on_victim, elsewhere = split_by_shard(process, tenants)
        self.ingest_both(pair, tenants, rows=2, seed=2)
        breaker = process._shards[victim].breaker
        for _ in range(FAST_CLUSTER.breaker_threshold):
            breaker.record_failure()
        # The sweep sheds the victim's rows typed; its frame never left.
        handles = process.forecast_all(tenants, timeout=5.0)
        assert all(outcome(handles[t]) == "Overloaded" for t in on_victim)
        assert all(outcome(handles[t]) == "ok" for t in elsewhere)
        with pytest.raises(CircuitOpen):
            process.ingest(on_victim[0], np.zeros((1, CHANNELS), dtype=np.float32))
        time.sleep(FAST_CLUSTER.breaker_reset + 0.05)
        # Past the reset window ingest accepts rows again without taking
        # the half-open probe: the next frame is the probe.
        self.ingest_both(pair, on_victim, rows=1, seed=3)
        assert breaker.state == "open"
        self.assert_parity(pair)
        assert breaker.state == "closed"

    def test_kill_with_rows_buffered_reports_them_stale_or_lost(self, pair, tmp_path):
        process, _ = pair
        tenants = [f"tenant-{i}" for i in range(6)]
        victim, on_victim, _ = split_by_shard(process, tenants)
        process.save(str(tmp_path / "ckpt"))
        shard = process._shards[victim]
        sent = []
        send = shard.send

        def counted(command, **fields):
            sent.append(command)
            return send(command, **fields)

        shard.send = counted
        rng = np.random.default_rng(4)
        process.ingest(on_victim[0], rng.normal(size=(3, CHANNELS)))
        process.ingest(on_victim[0], rng.normal(size=(2, CHANNELS)))
        newborn = next(
            f"late-{i}" for i in range(1000) if process.shard_for(f"late-{i}") == victim
        )
        process.ingest(newborn, rng.normal(size=(4, CHANNELS)))
        assert sent == [], "the drill needs every post-checkpoint row still buffered"
        process.kill_worker(victim)
        report = process.failover(victim)
        assert report.stale == {on_victim[0]: 5}
        assert report.lost == [newborn]
        assert sorted(report.restored) == sorted(on_victim)
