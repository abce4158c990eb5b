"""Mid-migration failures during rebalancing must stay observable.

The broad ``except Exception`` handlers in ``add_shard``/``remove_shard``
exist to unwind a half-done migration — not to swallow the error.  These
tests pin the contract: the original exception propagates unchanged, the
topology and every tenant's placement roll back, and the failure is
counted on ``rebalance_failures`` (and surfaces through ``as_dict``).
"""

import numpy as np
import pytest

from repro.cluster import ShardedForecaster
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import ForecastService

INPUT_LENGTH = 32
HORIZON = 8


@pytest.fixture
def config():
    return ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=2, patch_length=8,
        hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1,
    )


@pytest.fixture
def cluster(config):
    return ShardedForecaster(
        lambda: ForecastService(LiPFormer(config), max_batch_size=16), n_shards=2
    )


def populate(cluster, rng, n_tenants=16):
    for i in range(n_tenants):
        cluster.ingest(f"tenant-{i}", rng.normal(size=(6, 2)).astype(np.float32))
    return [f"tenant-{i}" for i in range(n_tenants)]


def tenants_that_would_move(cluster, new_shard_id):
    """Simulate the ring growth to find the migration set (deterministic)."""
    cluster.ring.add(new_shard_id)
    try:
        return [t for t in cluster.tenants() if cluster.ring.assign(t) == new_shard_id]
    finally:
        cluster.ring.remove(new_shard_id)


def arm_export_failure(cluster, trip):
    """Make every existing shard's ``export_tenant`` raise while armed."""
    for shard_id in cluster.shard_ids():
        shard = cluster.shard(shard_id)

        def failing_export(tenant, _orig=shard.export_tenant):
            if trip["armed"]:
                raise RuntimeError("injected migration failure")
            return _orig(tenant)

        shard.export_tenant = failing_export


class TestAddShardFailure:
    def test_failure_propagates_and_is_counted(self, cluster, rng):
        tenants = populate(cluster, rng)
        assert tenants_that_would_move(cluster, "shard-2"), (
            "fixture must place at least one tenant on the incoming shard"
        )
        before = {t: cluster.shard_for(t) for t in tenants}
        trip = {"armed": True}
        arm_export_failure(cluster, trip)

        with pytest.raises(RuntimeError, match="injected migration failure"):
            cluster.add_shard("shard-2")

        # Observable, not swallowed:
        assert cluster.rebalance_failures == 1
        assert cluster.as_dict()["rebalance_failures"] == 1
        assert cluster.rebalances == 0

        # Fully rolled back: no phantom shard, no tenant moved or lost.
        assert sorted(cluster.shard_ids()) == ["shard-0", "shard-1"]
        assert cluster.tenant_count() == len(tenants)
        for tenant in tenants:
            assert cluster.shard_for(tenant) == before[tenant]
            assert tenant in cluster.shard(before[tenant]).store

    def test_cluster_recovers_after_failed_rebalance(self, cluster, rng):
        tenants = populate(cluster, rng)
        trip = {"armed": True}
        arm_export_failure(cluster, trip)
        with pytest.raises(RuntimeError):
            cluster.add_shard("shard-2")
        trip["armed"] = False

        moved = cluster.add_shard("shard-2")
        assert sorted(cluster.shard_ids()) == ["shard-0", "shard-1", "shard-2"]
        assert cluster.tenant_count() == len(tenants)
        assert cluster.rebalances == 1
        assert cluster.rebalance_failures == 1
        for tenant in moved:
            assert cluster.shard_for(tenant) == "shard-2"


class TestRemoveShardFailure:
    def test_failure_restores_the_departing_shard(self, cluster, rng):
        tenants = populate(cluster, rng)
        victim = cluster.shard_for(tenants[0])
        before = {t: cluster.shard_for(t) for t in tenants}

        # Every surviving shard refuses the incoming tenants.
        for shard_id in cluster.shard_ids():
            if shard_id == victim:
                continue
            shard = cluster.shard(shard_id)

            def failing_import(tenant, state):
                raise RuntimeError("injected import failure")

            shard.import_tenant = failing_import

        with pytest.raises(RuntimeError, match="injected import failure"):
            cluster.remove_shard(victim)

        assert cluster.rebalance_failures == 1
        assert cluster.as_dict()["rebalance_failures"] == 1
        assert cluster.rebalances == 0
        assert victim in cluster.shard_ids()
        assert cluster.tenant_count() == len(tenants)
        for tenant in tenants:
            assert cluster.shard_for(tenant) == before[tenant]
            assert tenant in cluster.shard(before[tenant]).store
        # The restored shard keeps its named lock (still routable).
        assert cluster._shards[victim].lock.name == f"shard:{victim}"
