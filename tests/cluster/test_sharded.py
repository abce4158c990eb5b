"""Thread-backend specifics of the sharded cluster.

Every contract both backends share (routing, fan-out, rebalancing,
failover, persistence, parity) is written once, in
``test_conformance.py``.  What is left here needs in-process replicas:
the replica geometry check and pre-built replicas for
``add_shard(service=...)``, the ``shard()`` accessor, and ingest racing
a rebalance on another thread.  The other names in this module bind a
conformance case on the thread backend, so the names it has always
reported keep reporting the same guarantee.
"""

import threading

import numpy as np
import pytest

from repro.cluster import ShardedForecaster
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import ForecastService

import test_conformance as conformance
from test_conformance import TestCheckpoints as Checkpoints
from test_conformance import TestFanOut as FanOut
from test_conformance import TestParity as Parity
from test_conformance import TestRebalance as Rebalance
from test_conformance import TestRouting as Routing

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
def fresh_cluster(service_factory):
    return ShardedForecaster(service_factory, n_shards=2)


cluster = conformance.cluster


@pytest.fixture
def backend():
    return "thread"


class TestRouting:
    test_ingest_lands_on_the_assigned_shard = Routing.test_ingest_lands_on_the_ring_assigned_shard
    test_forecast_matches_direct_model_predict = Routing.test_forecast_matches_direct_model_predict
    test_tenants_listed_across_shards = Routing.test_tenants_are_listed_and_counted_across_shards
    test_drop_is_routed = Routing.test_drop_forgets_the_tenant
    test_needs_at_least_one_shard = Rebalance.test_needs_at_least_one_shard

    def test_unknown_shard_raises(self, fresh_cluster):
        with pytest.raises(KeyError, match="unknown shard"):
            fresh_cluster.shard("nope")

    def test_replicas_must_share_geometry(self, service_factory, config):
        cluster = ShardedForecaster(service_factory, n_shards=1)
        replica = service_factory()
        cluster.add_shard(service=replica)
        assert cluster.shard("shard-1").service is replica
        other = config.with_overrides(n_channels=3)
        with pytest.raises(ValueError, match="n_channels"):
            cluster.add_shard(service=ForecastService(LiPFormer(other)))
        assert cluster.shard_ids() == ["shard-0", "shard-1"]


class TestFanOut:
    test_forecast_all_coalesces_per_shard = FanOut.test_forecast_all_coalesces_per_shard
    test_ingest_and_forecast_tick = FanOut.test_ingest_and_forecast_is_one_tick
    test_stats_aggregate_cluster_wide = FanOut.test_stats_aggregate_cluster_wide
    test_reset_service_stats_between_phases = FanOut.test_reset_service_stats_between_phases


class TestRebalancing:
    test_add_shard_migrates_exactly_the_reassigned_tenants = (
        Rebalance.test_add_then_remove_moves_exactly_the_reassigned_tenants
    )
    test_remove_shard_rehomes_only_its_tenants = (
        Rebalance.test_remove_shard_rehomes_only_its_tenants
    )
    test_migration_carries_scaler_state = Rebalance.test_migration_carries_scaler_state
    test_migration_does_not_inflate_cluster_store_stats = (
        Rebalance.test_migration_does_not_recount_store_stats
    )
    test_failed_add_shard_leaves_routing_intact = Rebalance.test_failed_add_shard_unwinds
    test_restored_cluster_can_still_rebalance = (
        Checkpoints.test_restored_cluster_rebalances_both_ways
    )
    test_cannot_remove_last_shard = Rebalance.test_last_or_unknown_shard_cannot_be_removed
    test_duplicate_shard_id_rejected = Rebalance.test_duplicate_shard_id_changes_nothing

    def test_concurrent_ingest_during_rebalance_loses_nothing(self, fresh_cluster, rng):
        """Live traffic during add/remove_shard: no KeyError, no lost rows."""
        tenants = [f"tenant-{i}" for i in range(16)]
        counts = {}
        for tenant in tenants:
            fresh_cluster.ingest(tenant, rng.normal(size=(5, 2)))
            counts[tenant] = 5
        errors = []
        stop = threading.Event()

        def traffic():
            local = np.random.default_rng(1)
            while not stop.is_set():
                for tenant in tenants:
                    try:
                        fresh_cluster.ingest(tenant, local.normal(size=(1, 2)).astype(np.float32))
                        counts[tenant] += 1
                    except Exception as error:  # noqa: BLE001 - recorded for the assert
                        errors.append(error)
                        return

        thread = threading.Thread(target=traffic)
        thread.start()
        try:
            for _ in range(3):
                fresh_cluster.add_shard()
            fresh_cluster.remove_shard(fresh_cluster.shard_ids()[-1])
        finally:
            stop.set()
            thread.join()
        assert not errors, f"routed traffic failed during rebalance: {errors[:1]}"
        for tenant in tenants:
            owner = fresh_cluster.shard(fresh_cluster.shard_for(tenant))
            assert owner.store.observed(tenant) == counts[tenant], (
                f"{tenant} lost rows during migration"
            )


class TestParity:
    test_rebalanced_cluster_and_restored_forecaster_match_uninterrupted = (
        Parity.test_rebalance_mid_stream_matches_unsharded_replay
    )
    test_shard_count_never_changes_forecasts = Parity.test_shard_count_never_changes_forecasts
    test_cluster_snapshot_restore_is_bit_identical = Checkpoints.test_save_load_is_bit_identical
    test_retired_shard_stats_survive_save_load = Checkpoints.test_retired_stats_survive_save_load
    test_parity_report_rejects_mismatched_tenants = (
        Parity.test_parity_report_rejects_mismatched_tenants
    )
