"""Tests for the sharded forecasting cluster (routing, rebalance, parity)."""

import numpy as np
import pytest

from repro.cluster import (
    ShardedForecaster,
    compare_cluster_to_unsharded,
    replay_cluster,
)
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import ForecastService
from repro.streaming import StreamingForecaster

INPUT_LENGTH = 32
HORIZON = 8


@pytest.fixture
def config():
    return ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=2, patch_length=8,
        hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1,
    )


@pytest.fixture
def service_factory(config):
    def factory():
        # Model construction is deterministic from config.seed, so every
        # shard is a true replica (identical weights).
        return ForecastService(LiPFormer(config), max_batch_size=16)
    return factory


@pytest.fixture
def cluster(service_factory):
    return ShardedForecaster(service_factory, n_shards=2)


def make_streams(rng, n_tenants, steps, channels=2):
    t = np.arange(steps, dtype=np.float32)
    streams = {}
    for i in range(n_tenants):
        seasonal = np.sin(2 * np.pi * (t / 24.0 + i / max(n_tenants, 1)))[:, None]
        noise = rng.normal(scale=0.3, size=(steps, channels))
        streams[f"tenant-{i}"] = ((i + 1) * seasonal + noise).astype(np.float32)
    return streams


class TestRouting:
    def test_ingest_lands_on_the_assigned_shard(self, cluster, rng):
        for i in range(8):
            cluster.ingest(f"tenant-{i}", rng.normal(size=(5, 2)))
        for i in range(8):
            tenant = f"tenant-{i}"
            owner = cluster.shard_for(tenant)
            assert tenant in cluster.shard(owner).store
            for other in cluster.shard_ids():
                if other != owner:
                    assert tenant not in cluster.shard(other).store

    def test_forecast_matches_direct_model_predict(self, cluster, service_factory, rng):
        values = rng.normal(size=(40, 2)).astype(np.float32)
        cluster.ingest("a", values)
        reference = service_factory().model.predict(values[-INPUT_LENGTH:][None])[0]
        np.testing.assert_array_equal(cluster.forecast("a").result(), reference)

    def test_tenants_listed_across_shards(self, cluster, rng):
        for i in range(6):
            cluster.ingest(f"tenant-{i}", rng.normal(size=(3, 2)))
        assert sorted(cluster.tenants()) == [f"tenant-{i}" for i in range(6)]
        assert cluster.tenant_count() == 6

    def test_drop_is_routed(self, cluster, rng):
        cluster.ingest("a", rng.normal(size=(4, 2)))
        cluster.drop("a")
        assert cluster.tenant_count() == 0

    def test_unknown_shard_raises(self, cluster):
        with pytest.raises(KeyError, match="unknown shard"):
            cluster.shard("nope")

    def test_replicas_must_share_geometry(self, service_factory, config):
        cluster = ShardedForecaster(service_factory, n_shards=1)
        other = ModelConfig(
            input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=3, patch_length=8,
            hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1,
        )
        with pytest.raises(ValueError, match="n_channels"):
            cluster.add_shard(service=ForecastService(LiPFormer(other)))

    def test_needs_at_least_one_shard(self, service_factory):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedForecaster(service_factory, n_shards=0)


class TestFanOut:
    def test_forecast_all_coalesces_per_shard(self, cluster, rng):
        for i in range(10):
            cluster.ingest(f"tenant-{i}", rng.normal(size=(40, 2)))
        handles = cluster.forecast_all()
        assert len(handles) == 10
        assert all(h.done() for h in handles.values())
        merged = cluster.service_stats()
        # One flush per shard, not one pass per tenant.
        assert merged.requests == 10
        assert merged.forward_passes == len(cluster)
        assert merged.mean_batch_size == pytest.approx(10 / len(cluster))

    def test_ingest_and_forecast_tick(self, cluster, rng):
        arrivals = {f"tenant-{i}": rng.normal(size=(40, 2)).astype(np.float32) for i in range(4)}
        handles = cluster.ingest_and_forecast(arrivals)
        assert set(handles) == set(arrivals)
        assert all(h.result().shape == (HORIZON, 2) for h in handles.values())

    def test_stats_aggregate_cluster_wide(self, cluster, rng):
        for i in range(6):
            cluster.ingest(f"tenant-{i}", rng.normal(size=(12, 2)))
        cluster.forecast_all()
        assert cluster.store_stats().tenants == 6
        assert cluster.store_stats().observations == 72
        assert cluster.streaming_stats().forecasts == 6
        payload = cluster.as_dict()
        assert payload["shards"] == 2
        assert payload["tenants"] == 6
        assert sum(payload["tenants_per_shard"].values()) == 6

    def test_reset_service_stats_between_phases(self, cluster, rng):
        cluster.ingest("a", rng.normal(size=(40, 2)))
        cluster.forecast_all()
        assert cluster.service_stats().requests > 0
        cluster.reset_service_stats()
        assert cluster.service_stats().requests == 0
        assert cluster.service_stats().forward_passes == 0


class TestRebalancing:
    def test_add_shard_migrates_exactly_the_reassigned_tenants(self, cluster, rng):
        tenants = [f"tenant-{i}" for i in range(30)]
        for tenant in tenants:
            cluster.ingest(tenant, rng.normal(size=(10, 2)))
        before = cluster.ring.assignments(tenants)
        moved = cluster.add_shard("shard-2")
        after = cluster.ring.assignments(tenants)
        expected = {t for t in tenants if before[t] != after[t]}
        assert set(moved) == expected
        assert all(after[t] == "shard-2" for t in moved)
        # Routing table and physical placement agree after the move.
        for tenant in tenants:
            assert tenant in cluster.shard(after[tenant]).store
        assert cluster.tenants_migrated == len(moved)
        assert cluster.rebalances == 1

    def test_remove_shard_rehomes_only_its_tenants(self, cluster, rng):
        tenants = [f"tenant-{i}" for i in range(30)]
        for tenant in tenants:
            cluster.ingest(tenant, rng.normal(size=(10, 2)))
        before = cluster.ring.assignments(tenants)
        victims = [t for t in tenants if before[t] == "shard-1"]
        moved = cluster.remove_shard("shard-1")
        assert set(moved) == set(victims)
        after = cluster.ring.assignments(tenants)
        for tenant in tenants:
            if tenant not in victims:
                assert after[tenant] == before[tenant]
            assert tenant in cluster.shard(after[tenant]).store

    def test_migration_carries_scaler_state(self, service_factory, rng):
        cluster = ShardedForecaster(service_factory, n_shards=2, normalization="rolling")
        tenants = [f"tenant-{i}" for i in range(12)]
        for i, tenant in enumerate(tenants):
            cluster.ingest(tenant, rng.normal(size=(40, 2)).astype(np.float32) * (i + 1) + 100.0)
        means = {t: cluster.shard(cluster.shard_for(t)).scaler(t).mean_ for t in tenants}
        moved = cluster.add_shard()
        assert moved, "expected at least one tenant to move"
        for tenant in moved:
            scaler = cluster.shard(cluster.shard_for(tenant)).scaler(tenant)
            np.testing.assert_array_equal(scaler.mean_, means[tenant])

    def test_migration_does_not_inflate_cluster_store_stats(self, cluster, rng):
        for i in range(20):
            cluster.ingest(f"tenant-{i}", rng.normal(size=(10, 2)))
        before = cluster.store_stats()
        assert before.observations == 200 and before.tenants == 20
        moved = cluster.add_shard()
        assert moved
        after_grow = cluster.store_stats()
        assert after_grow.observations == 200, "migration must not re-count history"
        assert after_grow.tenants == 20
        cluster.remove_shard("shard-0")
        after_shrink = cluster.store_stats()
        assert after_shrink.observations == 200, "retired shard history must survive"
        assert after_shrink.ingests == after_grow.ingests

    def test_failed_add_shard_leaves_routing_intact(self, cluster, service_factory, rng):
        tenants = [f"tenant-{i}" for i in range(20)]
        for tenant in tenants:
            cluster.ingest(tenant, rng.normal(size=(10, 2)))
        before = cluster.ring.assignments(tenants)
        # Crash the rebalance after two tenants migrated INTO the incoming
        # shard (imports back into existing shards — the rollback path —
        # keep working, as they would for a broken new replica).
        calls = {"n": 0}
        original_import = StreamingForecaster.import_tenant
        existing = [cluster.shard(shard_id) for shard_id in cluster.shard_ids()]

        def explode(self, tenant, state):
            if not any(self is forecaster for forecaster in existing):
                if calls["n"] >= 2:
                    raise RuntimeError("mid-migration crash")
                calls["n"] += 1
            return original_import(self, tenant, state)

        StreamingForecaster.import_tenant = explode
        try:
            with pytest.raises(RuntimeError, match="mid-migration"):
                cluster.add_shard("shard-2")
        finally:
            StreamingForecaster.import_tenant = original_import
        # Topology rolled back: no phantom node, every tenant still served.
        assert "shard-2" not in cluster.ring
        assert cluster.ring.assignments(tenants) == before
        assert sorted(cluster.tenants()) == sorted(tenants)
        for tenant in tenants:
            assert cluster.forecast(tenant).result().shape == (HORIZON, 2)

    def test_concurrent_ingest_during_rebalance_loses_nothing(self, cluster, rng):
        """Live traffic during add/remove_shard: no KeyError, no lost rows."""
        import threading

        tenants = [f"tenant-{i}" for i in range(16)]
        counts = {}
        for tenant in tenants:
            cluster.ingest(tenant, rng.normal(size=(5, 2)))
            counts[tenant] = 5
        errors = []
        stop = threading.Event()

        def traffic():
            local = np.random.default_rng(1)
            while not stop.is_set():
                for tenant in tenants:
                    try:
                        cluster.ingest(tenant, local.normal(size=(1, 2)).astype(np.float32))
                        counts[tenant] += 1
                    except Exception as error:  # noqa: BLE001 - recorded for the assert
                        errors.append(error)
                        return

        thread = threading.Thread(target=traffic)
        thread.start()
        try:
            for _ in range(3):
                cluster.add_shard()
            cluster.remove_shard(cluster.shard_ids()[-1])
        finally:
            stop.set()
            thread.join()
        assert not errors, f"routed traffic failed during rebalance: {errors[:1]}"
        for tenant in tenants:
            owner = cluster.shard(cluster.shard_for(tenant))
            assert owner.store.observed(tenant) == counts[tenant], (
                f"{tenant} lost rows during migration"
            )

    def test_restored_cluster_can_still_rebalance(self, service_factory, rng, tmp_path):
        """Restore must keep the saved store geometry or add_shard breaks."""
        cluster = ShardedForecaster(service_factory, n_shards=2, window_capacity=200)
        for i in range(12):
            cluster.ingest(f"tenant-{i}", rng.normal(size=(10, 2)))
        path = str(tmp_path / "cluster.npz")
        cluster.save(path)
        revived = ShardedForecaster.load(service_factory, path)
        assert revived.window_capacity == 200
        moved = revived.add_shard()
        assert moved, "restored cluster must accept new shards"
        for tenant in moved:
            assert tenant in revived.shard(revived.shard_for(tenant)).store

    def test_cannot_remove_last_shard(self, service_factory, rng):
        cluster = ShardedForecaster(service_factory, n_shards=1)
        with pytest.raises(ValueError, match="last shard"):
            cluster.remove_shard("shard-0")

    def test_duplicate_shard_id_rejected(self, cluster):
        with pytest.raises(ValueError, match="already exists"):
            cluster.add_shard("shard-0")


class TestParity:
    """The PR's acceptance criterion, end to end."""

    def test_rebalanced_cluster_and_restored_forecaster_match_uninterrupted(
        self, service_factory, rng, tmp_path
    ):
        from repro.cluster import load_forecaster, save_forecaster

        streams = make_streams(rng, n_tenants=8, steps=56)
        rebalance_tick = 44
        snapshot_tick = 40
        path = str(tmp_path / "single.npz")

        # Reference: one uninterrupted, unsharded forecaster.
        reference = StreamingForecaster(service_factory())
        expected = replay_cluster(reference, streams, warmup=INPUT_LENGTH)

        # Candidate 1: a 2-shard cluster rebalanced to 3 shards mid-stream.
        cluster = ShardedForecaster(service_factory, n_shards=2)
        moves = {}

        def rebalance(step):
            if step == rebalance_tick:
                before = cluster.ring.assignments(list(streams))
                moves["moved"] = cluster.add_shard("shard-2")
                moves["expected"] = [
                    t for t in streams if cluster.ring.assign(t) != before[t]
                ]

        sharded = replay_cluster(cluster, streams, warmup=INPUT_LENGTH, on_tick=rebalance)
        assert moves["moved"], "rebalance must move some tenants for a real test"
        assert set(moves["moved"]) == set(moves["expected"]), (
            "rebalance must move exactly the tenants whose ring assignment changed"
        )
        report = compare_cluster_to_unsharded(sharded, expected)
        assert report.bit_identical, f"max |Δ| = {report.max_abs_error}"
        assert report.windows_compared == 8 * (56 - INPUT_LENGTH + 1)

        # Candidate 2: a single forecaster snapshotted to disk mid-stream
        # and restored into a fresh process (new service replica).
        survivor = {"fc": StreamingForecaster(service_factory())}

        def restart(step):
            if step == snapshot_tick:
                save_forecaster(survivor["fc"], path)
                survivor["fc"] = load_forecaster(service_factory(), path)

        class Restartable:
            """Route through whichever incarnation is currently alive."""

            def ingest(self, tenant, values):
                return survivor["fc"].ingest(tenant, values)

            def forecast(self, tenant):
                return survivor["fc"].forecast(tenant)

            def flush(self):
                return survivor["fc"].flush()

        restored = replay_cluster(Restartable(), streams, warmup=INPUT_LENGTH, on_tick=restart)
        report = compare_cluster_to_unsharded(restored, expected)
        assert report.bit_identical, f"max |Δ| = {report.max_abs_error}"

    def test_shard_count_never_changes_forecasts(self, service_factory, rng):
        streams = make_streams(rng, n_tenants=6, steps=44)
        reference = StreamingForecaster(service_factory())
        expected = replay_cluster(reference, streams, warmup=INPUT_LENGTH)
        for n_shards in (1, 3):
            cluster = ShardedForecaster(service_factory, n_shards=n_shards)
            produced = replay_cluster(cluster, streams, warmup=INPUT_LENGTH)
            report = compare_cluster_to_unsharded(produced, expected)
            assert report.bit_identical, (
                f"{n_shards} shards diverged: max |Δ| = {report.max_abs_error}"
            )

    def test_cluster_snapshot_restore_is_bit_identical(self, cluster, service_factory, rng, tmp_path):
        streams = make_streams(rng, n_tenants=5, steps=40)
        for tenant, values in streams.items():
            cluster.ingest(tenant, values)
        path = str(tmp_path / "cluster.npz")
        cluster.save(path)
        revived = ShardedForecaster.load(service_factory, path)
        assert revived.shard_ids() == cluster.shard_ids()
        assert sorted(revived.tenants()) == sorted(cluster.tenants())
        want = {t: h.result() for t, h in cluster.forecast_all().items()}
        got = {t: h.result() for t, h in revived.forecast_all().items()}
        for tenant in want:
            np.testing.assert_array_equal(got[tenant], want[tenant])

    def test_retired_shard_stats_survive_save_load(self, cluster, service_factory, rng, tmp_path):
        for i in range(10):
            cluster.ingest(f"tenant-{i}", rng.normal(size=(40, 2)))
        cluster.forecast_all()
        cluster.remove_shard("shard-1")   # folds its history into retired stats
        want_service = cluster.service_stats()
        want_store = cluster.store_stats()
        path = str(tmp_path / "cluster.npz")
        cluster.save(path)
        revived = ShardedForecaster.load(service_factory, path)
        assert revived.service_stats() == want_service
        assert revived.store_stats() == want_store
        assert revived.streaming_stats() == cluster.streaming_stats()
        assert revived.rebalances == cluster.rebalances
        assert revived.tenants_migrated == cluster.tenants_migrated

    def test_parity_report_rejects_mismatched_tenants(self):
        with pytest.raises(ValueError, match="different tenants"):
            compare_cluster_to_unsharded({"a": np.zeros((1, 2, 2))}, {"b": np.zeros((1, 2, 2))})
