"""Tests for O(churn) incremental checkpoints and the manifest chain."""

import os

import numpy as np
import pytest

from repro.cluster import ShardedForecaster, read_snapshot, resolve_chain, write_snapshot
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
def service_factory(config):
    def factory():
        return ForecastService(LiPFormer(config), max_batch_size=16)
    return factory


@pytest.fixture
def cluster(service_factory, rng):
    cluster = ShardedForecaster(service_factory, n_shards=2, normalization="rolling")
    for i in range(20):
        cluster.ingest(f"tenant-{i}", rng.normal(size=(40, 2)).astype(np.float32) * (i + 1))
    return cluster


def forecast_map(target):
    return {t: h.result() for t, h in target.forecast_all().items()}


class TestDeltaContents:
    def test_delta_holds_only_churned_tenants(self, cluster, rng, tmp_path):
        cluster.save(str(tmp_path / "base"))
        churned = ["tenant-3", "tenant-11"]
        for tenant in churned:
            cluster.ingest(tenant, rng.normal(size=(2, 2)).astype(np.float32))
        cluster.save_incremental(str(tmp_path / "d1"))
        delta = read_snapshot(str(tmp_path / "d1"))
        assert delta["kind"] == "delta"
        tenants = [shard["tenants"] for shard in delta["shards"].values()]
        dirty = [t for shard in tenants for t, payload in shard.items() if payload is not None]
        assert sorted(dirty) == sorted(churned)
        # ... while the tenant maps still cover the whole fleet (names are
        # the deletion record, so they must be complete).
        listed = [t for shard in tenants for t in shard]
        assert sorted(listed) == sorted(cluster.tenants())

    def test_delta_is_much_smaller_than_full_at_low_churn(self, cluster, rng, tmp_path):
        """Acceptance: 10% churn must checkpoint in <50% of full bytes."""
        base = str(tmp_path / "base.npz")
        cluster.save(base)
        for tenant in ["tenant-0", "tenant-1"]:   # 2 of 20 = 10% churn
            cluster.ingest(tenant, rng.normal(size=(2, 2)).astype(np.float32))
        delta = str(tmp_path / "d1.npz")
        cluster.save_incremental(delta)
        full, incremental = os.path.getsize(base), os.path.getsize(delta)
        assert incremental < 0.5 * full, (
            f"incremental checkpoint wrote {incremental} bytes vs {full} full"
        )

    def test_checkpoint_clears_dirty_tracking(self, cluster, rng, tmp_path):
        cluster.save(str(tmp_path / "base"))
        cluster.ingest("tenant-0", rng.normal(size=(1, 2)).astype(np.float32))
        cluster.save_incremental(str(tmp_path / "d1"))
        # Nothing churned since d1 → the next delta carries no payloads.
        cluster.save_incremental(str(tmp_path / "d2"))
        delta = read_snapshot(str(tmp_path / "d2"))
        assert all(
            payload is None
            for shard in delta["shards"].values()
            for payload in shard["tenants"].values()
        )

    def test_save_incremental_requires_a_base(self, cluster, tmp_path):
        with pytest.raises(RuntimeError, match="full"):
            cluster.save_incremental(str(tmp_path / "orphan"))

    def test_chained_paths_cannot_be_overwritten(self, cluster, rng, tmp_path):
        """Re-using a link's path ('latest.npz' habits) would destroy the
        only copy of that checkpoint — refuse, whatever the suffix."""
        base = str(tmp_path / "base")
        cluster.save(base)
        delta = str(tmp_path / "delta.npz")
        cluster.save_incremental(delta)
        for clash in (delta, str(tmp_path / "delta"), base, base + ".npz"):
            with pytest.raises(ValueError, match="fresh path"):
                cluster.save_incremental(clash)
        # The refused calls burned nothing: the chain still extends.
        cluster.save_incremental(str(tmp_path / "d2"))
        revived = ShardedForecaster.load_chain(
            cluster.service_factory, cluster.checkpoint_chain()
        )
        assert revived.tenants() == cluster.tenants()


class TestChainRestore:
    def test_chain_restore_is_bit_identical(self, cluster, service_factory, rng, tmp_path):
        """Full + deltas (with churn, a new tenant, a drop and a rebalance
        in between) must revive the exact live cluster."""
        paths = [str(tmp_path / "base")]
        cluster.save(paths[0])

        cluster.ingest("tenant-0", rng.normal(size=(3, 2)).astype(np.float32))
        cluster.ingest("fresh", rng.normal(size=(40, 2)).astype(np.float32))
        cluster.drop("tenant-7")
        paths.append(str(tmp_path / "d1"))
        cluster.save_incremental(paths[-1])

        assert cluster.add_shard(), "rebalance should move some tenants"
        cluster.ingest("tenant-1", rng.normal(size=(2, 2)).astype(np.float32))
        paths.append(str(tmp_path / "d2"))
        cluster.save_incremental(paths[-1])

        revived = ShardedForecaster.load_chain(service_factory, paths)
        assert revived.shard_ids() == cluster.shard_ids()
        # Placement, iteration order and stats all reproduce exactly.
        assert revived.tenants() == cluster.tenants()
        for tenant in cluster.tenants():
            assert revived.shard_for(tenant) == cluster.shard_for(tenant)
            assert tenant in revived.shard(revived.shard_for(tenant)).store
        assert revived.store_stats() == cluster.store_stats()
        assert revived.service_stats() == cluster.service_stats()
        assert "tenant-7" not in revived.tenants()
        want, got = forecast_map(cluster), forecast_map(revived)
        for tenant in want:
            np.testing.assert_array_equal(got[tenant], want[tenant])

    def test_restored_chain_keeps_extending(self, cluster, service_factory, rng, tmp_path):
        """load_chain → save_incremental → load_chain again stays exact."""
        paths = [str(tmp_path / "base")]
        cluster.save(paths[0])
        cluster.ingest("tenant-2", rng.normal(size=(2, 2)).astype(np.float32))
        paths.append(str(tmp_path / "d1"))
        cluster.save_incremental(paths[-1])

        revived = ShardedForecaster.load_chain(service_factory, paths)
        assert revived.checkpoint_chain() == paths
        arrival = rng.normal(size=(2, 2)).astype(np.float32)
        cluster.ingest("tenant-3", arrival)
        revived.ingest("tenant-3", arrival)
        extended = str(tmp_path / "d2")
        revived.save_incremental(extended)

        third = ShardedForecaster.load_chain(service_factory, paths + [extended])
        want, got = forecast_map(cluster), forecast_map(third)
        for tenant in want:
            np.testing.assert_array_equal(got[tenant], want[tenant])

    def test_load_after_plain_save_continues_the_chain(
        self, cluster, service_factory, rng, tmp_path
    ):
        base = str(tmp_path / "base")
        cluster.save(base)
        revived = ShardedForecaster.load(service_factory, base)
        assert revived.checkpoint_chain() == [base]
        revived.ingest("tenant-0", rng.normal(size=(1, 2)).astype(np.float32))
        revived.save_incremental(str(tmp_path / "d1"))   # must not raise

    def test_resolve_chain_of_base_only_matches_full_state(self, cluster, tmp_path):
        base = str(tmp_path / "base")
        cluster.save(base)
        state = resolve_chain([base])
        assert sorted(state["shards"]) == sorted(cluster.shard_ids())


class TestChainValidation:
    def make_chain(self, cluster, rng, tmp_path, deltas=2):
        paths = [str(tmp_path / "base")]
        cluster.save(paths[0])
        for index in range(deltas):
            cluster.ingest("tenant-0", rng.normal(size=(1, 2)).astype(np.float32))
            paths.append(str(tmp_path / f"d{index + 1}"))
            cluster.save_incremental(paths[-1])
        return paths

    def test_missing_link_is_rejected(self, cluster, rng, tmp_path):
        base, d1, d2 = self.make_chain(cluster, rng, tmp_path)
        with pytest.raises(ValueError, match="out of order|missing a link"):
            resolve_chain([base, d2])

    def test_reordered_links_are_rejected(self, cluster, rng, tmp_path):
        base, d1, d2 = self.make_chain(cluster, rng, tmp_path)
        with pytest.raises(ValueError, match="out of order|missing a link"):
            resolve_chain([base, d2, d1])

    def test_foreign_delta_is_rejected(self, cluster, service_factory, rng, tmp_path):
        base, d1, _ = self.make_chain(cluster, rng, tmp_path)
        other = ShardedForecaster(service_factory, n_shards=2, normalization="rolling")
        other.ingest("tenant-0", rng.normal(size=(40, 2)).astype(np.float32))
        other.save(str(tmp_path / "other-base"))
        other.ingest("tenant-0", rng.normal(size=(1, 2)).astype(np.float32))
        other.save_incremental(str(tmp_path / "other-d1"))
        with pytest.raises(ValueError, match="chain"):
            resolve_chain([base, str(tmp_path / "other-d1")])

    def test_delta_cannot_be_a_base(self, cluster, rng, tmp_path):
        _, d1, _ = self.make_chain(cluster, rng, tmp_path)
        with pytest.raises(ValueError, match="first link"):
            resolve_chain([d1])

    def test_full_snapshot_cannot_be_a_link(self, cluster, rng, tmp_path):
        base, _, _ = self.make_chain(cluster, rng, tmp_path)
        with pytest.raises(ValueError, match="not a delta"):
            resolve_chain([base, base])

    def test_clean_tenant_no_earlier_link_holds_is_chain_corruption(
        self, cluster, rng, tmp_path
    ):
        base, d1 = self.make_chain(cluster, rng, tmp_path, deltas=1)
        tampered = read_snapshot(d1)
        next(iter(tampered["shards"].values()))["tenants"]["ghost"] = None
        write_snapshot(tampered, d1)
        with pytest.raises(ValueError, match="chain corruption.*'ghost'"):
            resolve_chain([base, d1])

    def test_empty_chain_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            resolve_chain([])

    def test_new_full_save_starts_a_new_chain(self, cluster, rng, tmp_path):
        """Deltas from the old chain must not graft onto a new base."""
        base, d1, _ = self.make_chain(cluster, rng, tmp_path)
        rebase = str(tmp_path / "rebase")
        cluster.save(rebase)
        with pytest.raises(ValueError, match="chain"):
            resolve_chain([rebase, d1])
