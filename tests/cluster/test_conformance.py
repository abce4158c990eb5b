"""Backend conformance: every coordinator guarantee, on both shard classes.

One :class:`~repro.cluster.coordinator.Coordinator` drives two shard
transports — :class:`~repro.cluster.sharded.LocalShard` and
:class:`~repro.cluster.process.ProcessShard` — so each control-plane
contract is checked once here, parametrized over the backend: routing,
fan-out coalescing and stats, migration sets and their unwind, failover
accounting and its resurrection guards, checkpoint round trips,
retired-stat folding, replay parity, sweep equivalence and single
forecasts (a sweep of one).  On the process backend a shard "dies" by a
real ``kill -9``; on the thread backend the dead replica is simply
abandoned.  Forecasts from a model with seeded live weights must also
agree bit for bit across the backends, tick after tick.

What only one transport has is tested beside it: ``test_sharded.py``
(replica geometry, pre-built replicas, ingest racing a rebalance),
``test_process_shard.py`` (frames, write-behind cap, spans, worker
metrics, reaping) and ``test_crash_drill.py`` (detection and in-flight
work around a ``kill -9``).  Those modules, and ``test_failover.py``,
also bind cases of this one on their own backend under the test names
they have always reported; no case is written out twice.
"""

import copy
import gc
from contextlib import contextmanager

import numpy as np
import pytest

import repro.obs as obs
import repro.obs.metrics
from repro.baselines.registry import create_model
from repro.cluster import (
    HashRing,
    ProcessCoordinator,
    ServiceSpec,
    ShardedForecaster,
    build_cluster,
    compare_cluster_to_unsharded,
    replay_cluster,
    write_snapshot,
)
from repro.config import ModelConfig
from repro.errors import DeadlineExceeded, Overloaded
from repro.serving import ForecastService
from repro.stats import counters_dict
from repro.streaming import StreamingForecaster

from live_weights import perturb, write_live_weights

INPUT_LENGTH = 16
HORIZON = 4
CHANNELS = 2
#: rows each of the fixture's twelve tenants holds
TENANT_ROWS = INPUT_LENGTH + 2

SPEC = ServiceSpec(
    config=ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=CHANNELS,
        patch_length=4, hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1, seed=11,
    ),
    max_batch_size=16,
)

BACKENDS = ["thread", "process"]


@contextmanager
def running(cluster):
    """Yield the cluster; reap its workers on the way out."""
    try:
        yield cluster
    finally:
        if cluster.BACKEND == "process":
            cluster.close()


def populate(cluster):
    rng = np.random.default_rng(3)
    for i in range(12):
        cluster.ingest(f"tenant-{i}", rng.normal(size=(TENANT_ROWS, CHANNELS)))


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def cluster(backend):
    with running(build_cluster(SPEC, n_shards=2, backend=backend)) as built:
        populate(built)
        yield built


def forecasts(cluster, tenants=None):
    return {t: h.result() for t, h in cluster.forecast_all(tenants).items()}


def assert_same(left, right):
    assert sorted(left) == sorted(right)
    for tenant in left:
        np.testing.assert_array_equal(left[tenant], right[tenant])


def kill(cluster, shard_id):
    """Make the shard's replica unreachable the way its backend dies."""
    if cluster.BACKEND == "process":
        cluster.kill_worker(shard_id)


def victims_of(cluster, shard_id):
    return [t for t in cluster.tenants() if cluster.shard_for(t) == shard_id]


def censuses(cluster):
    # The coordinator keeps no public accessor for its shard handles.
    return {shard_id: shard.census() for shard_id, shard in cluster._shards.items()}


def scaler_of(cluster, tenant):
    """The tenant's rolling moments, as its owner would export them."""
    return cluster._shards[cluster.shard_for(tenant)].export_tenant(tenant)["scaler"]


@contextmanager
def lone_shard(backend, tmp_path):
    """A checkpointed one-shard cluster holding tenant ``a``."""
    with running(build_cluster(SPEC, n_shards=1, backend=backend)) as cluster:
        cluster.ingest("a", np.zeros((4, CHANNELS)))
        cluster.save(str(tmp_path / "ckpt"))
        yield cluster


def assert_untouched(lone):
    assert lone.shard_ids() == ["shard-0"]
    assert lone.tenants() == ["a"]


def plan_counters(cluster, shard_id):
    """(traces, fallbacks, hits) of one replica's compiled-plan cache."""
    if cluster.BACKEND == "thread":
        predictor = cluster.shard(shard_id).service.model.compiled_predictor()
        return predictor.traces, predictor.fallbacks, predictor.hits
    views = cluster.worker_metrics()[shard_id]["views"]
    return tuple(
        int(views.get(f"repro_plan_cache_{name}", 0)) for name in ("traces", "fallbacks", "hits")
    )


def born_on(cluster, shard_id):
    """A tenant name the ring places on ``shard_id``."""
    return next(f"late-{i}" for i in range(1000) if cluster.shard_for(f"late-{i}") == shard_id)


def lost_and_stale_drill(cluster, tmp_path):
    """Checkpoint, then on one shard: three rows past the checkpoint for
    one tenant, two tenants dropped and re-created (fewer and more rows
    than the checkpoint holds) and one tenant born; kill that shard and
    fail it over.  Returns the report and those tenants, then the rest."""
    rng = np.random.default_rng(8)
    cluster.save(str(tmp_path / "ckpt"))
    victim = cluster.shard_for("tenant-0")
    stale, shrunk, regrown, *restored = victims_of(cluster, victim)
    cluster.ingest(stale, rng.normal(size=(3, CHANNELS)))
    for tenant, rows in ((shrunk, 2), (regrown, TENANT_ROWS + 3)):
        cluster.drop(tenant)
        cluster.ingest(tenant, rng.normal(size=(rows, CHANNELS)))
    newborn = born_on(cluster, victim)
    cluster.ingest(newborn, rng.normal(size=(4, CHANNELS)))
    kill(cluster, victim)
    return cluster.failover(victim), (stale, shrunk, regrown, newborn, restored)


def recreated_is_lost(cluster, tmp_path, rows):
    """A checkpoint taken before a drop must not bring deleted history
    back: the re-created incarnation was never checkpointed, so it is lost."""
    cluster.save(str(tmp_path / "ckpt"))
    victim = cluster.shard_for("tenant-0")
    cluster.drop("tenant-0")
    cluster.ingest("tenant-0", np.ones((rows, CHANNELS)))
    kill(cluster, victim)
    report = cluster.failover(victim)
    assert "tenant-0" in report.lost
    assert "tenant-0" not in report.restored
    assert not report.complete
    assert "tenant-0" not in cluster.tenants(), "deleted history resurrected"


class TestRouting:
    def test_ingest_lands_on_the_ring_assigned_shard(self, cluster):
        ring = HashRing(cluster.shard_ids())
        census = censuses(cluster)
        for tenant in cluster.tenants():
            owner = cluster.shard_for(tenant)
            assert owner == ring.assign(tenant)
            assert [sid for sid, held in census.items() if tenant in held] == [owner]

    def test_tenants_are_listed_and_counted_across_shards(self, cluster):
        assert sorted(cluster.tenants()) == sorted(f"tenant-{i}" for i in range(12))
        assert cluster.tenant_count() == 12
        # ingest answers with the tenant's total observed rows
        assert cluster.ingest("tenant-0", np.zeros((2, CHANNELS))) == TENANT_ROWS + 2

    def test_forecast_matches_direct_model_predict(self, cluster):
        values = np.random.default_rng(5).normal(size=(40, CHANNELS)).astype(np.float32)
        cluster.ingest("direct", values)
        reference = SPEC.build().model.predict(values[-INPUT_LENGTH:][None])[0]
        np.testing.assert_array_equal(cluster.forecast("direct").result(), reference)

    def test_drop_forgets_the_tenant(self, cluster):
        cluster.drop("tenant-1")
        assert "tenant-1" not in cluster.tenants()
        assert cluster.tenant_count() == 11
        assert all("tenant-1" not in held for held in censuses(cluster).values())


class TestFanOut:
    def test_forecast_all_coalesces_per_shard(self, cluster):
        handles = cluster.forecast_all()
        assert sorted(handles) == sorted(cluster.tenants())
        assert all(handle.done() for handle in handles.values())
        assert all(handle.result().shape == (HORIZON, CHANNELS) for handle in handles.values())
        service = cluster.service_stats()
        # One flush per shard, not one pass per tenant.
        assert service.requests == 12
        assert service.forward_passes == len(cluster)
        assert service.mean_batch_size == pytest.approx(12 / len(cluster))

    def test_stats_aggregate_cluster_wide(self, cluster):
        forecasts(cluster)
        service = cluster.service_stats()
        assert (service.requests, service.padded_requests) == (12, 0)
        store = cluster.store_stats()
        assert (store.tenants, store.observations) == (12, 12 * TENANT_ROWS)

    def test_as_dict_reports_the_topology(self, cluster, backend):
        payload = cluster.as_dict()
        assert (payload["backend"], payload["shards"], payload["tenants"]) == (backend, 2, 12)
        assert sum(payload["tenants_per_shard"].values()) == 12

    def test_reset_service_stats_between_phases(self, cluster):
        forecasts(cluster)
        cluster.reset_service_stats()
        stats = cluster.service_stats()
        assert (stats.requests, stats.forward_passes) == (0, 0)
        forecasts(cluster)
        assert cluster.service_stats().requests == 12

    def test_ingest_and_forecast_is_one_tick(self, cluster):
        rng = np.random.default_rng(6)
        arrivals = {f"tenant-{i}": rng.normal(size=(1, CHANNELS)) for i in range(3)}
        arrivals["newcomer"] = rng.normal(size=(INPUT_LENGTH, CHANNELS))
        handles = cluster.ingest_and_forecast(arrivals)
        assert list(handles) == list(arrivals)
        produced = {tenant: handle.result() for tenant, handle in handles.items()}
        assert_same(produced, forecasts(cluster, list(arrivals)))


class TestRebalance:
    def test_add_then_remove_moves_exactly_the_reassigned_tenants(self, cluster):
        before = {t: cluster.shard_for(t) for t in cluster.tenants()}
        expected = forecasts(cluster)
        moved = cluster.add_shard()
        assert moved, "the new shard must adopt part of the ring"
        for tenant, owner in before.items():
            assert cluster.shard_for(tenant) == ("shard-2" if tenant in moved else owner)
        census = censuses(cluster)
        assert sorted(census["shard-2"]) == sorted(moved)
        assert all(tenant in census[cluster.shard_for(tenant)] for tenant in before)
        assert_same(forecasts(cluster), expected)
        assert sorted(cluster.remove_shard("shard-2")) == sorted(moved)
        assert {t: cluster.shard_for(t) for t in cluster.tenants()} == before
        assert_same(forecasts(cluster), expected)
        assert cluster.rebalances == 2
        assert cluster.tenants_migrated == 2 * len(moved)

    def test_added_shard_is_warm_before_its_first_sweep(self, cluster):
        """add_shard() traces the new replica's compiled plan before it
        takes traffic, so the first sweep of its adopted tenants replays:
        no trace on the request path, no eager fallback."""
        moved = cluster.add_shard()
        assert moved, "the new shard must adopt part of the ring"
        traces, fallbacks, hits = plan_counters(cluster, "shard-2")
        assert traces >= 1, "shard-2 was not warmed"
        forecasts(cluster, moved)
        now = plan_counters(cluster, "shard-2")
        assert now[0] == traces, "shard-2 traced on the request path"
        assert now[1] == fallbacks, "shard-2 fell back to eager"
        assert now[2] > hits, "shard-2 never replayed its warm plan"

    def test_remove_shard_rehomes_only_its_tenants(self, cluster):
        cluster.add_shard()
        before = {t: cluster.shard_for(t) for t in cluster.tenants()}
        expected = forecasts(cluster)
        victims = victims_of(cluster, "shard-0")
        assert sorted(cluster.remove_shard("shard-0")) == sorted(victims)
        ring = HashRing(cluster.shard_ids())
        census = censuses(cluster)
        for tenant, owner in before.items():
            now = cluster.shard_for(tenant)
            assert now == (ring.assign(tenant) if tenant in victims else owner)
            assert tenant in census[now]
        assert_same(forecasts(cluster), expected)

    def test_failed_add_shard_unwinds(self, cluster, monkeypatch):
        """A crash after two tenants moved onto the new shard moves them
        back: no phantom ring node, routing and forecasts unchanged."""
        before = {t: cluster.shard_for(t) for t in cluster.tenants()}
        expected = forecasts(cluster)
        budget = {"exports": 2}
        for shard in list(cluster._shards.values()):
            def failing_export(tenant, _export=shard.export_tenant):
                budget["exports"] -= 1
                if budget["exports"] < 0:
                    raise RuntimeError("injected migration failure")
                return _export(tenant)

            monkeypatch.setattr(shard, "export_tenant", failing_export)
        with pytest.raises(RuntimeError, match="injected migration failure"):
            cluster.add_shard()
        assert cluster.rebalance_failures == 1
        assert cluster.as_dict()["rebalance_failures"] == 1
        assert cluster.rebalances == 0
        assert cluster.shard_ids() == ["shard-0", "shard-1"]
        assert "shard-2" not in cluster.ring
        assert {t: cluster.shard_for(t) for t in cluster.tenants()} == before
        assert_same(forecasts(cluster), expected)
        budget["exports"] = len(before)
        moved = cluster.add_shard()
        assert len(moved) > 2, "the injected failure must have come mid-migration"
        assert all(cluster.shard_for(t) == "shard-2" for t in moved)
        assert_same(forecasts(cluster), expected)

    def test_failed_remove_shard_unwinds(self, cluster, monkeypatch):
        expected = forecasts(cluster)
        victim = cluster.shard_for("tenant-0")
        for shard_id in cluster.shard_ids():
            if shard_id != victim:
                def failing_import(tenant, payload):
                    raise RuntimeError("injected import failure")

                monkeypatch.setattr(cluster._shards[shard_id], "import_tenant", failing_import)
        with pytest.raises(RuntimeError, match="injected import failure"):
            cluster.remove_shard(victim)
        assert cluster.rebalance_failures == 1
        assert victim in cluster.shard_ids()
        assert cluster.tenant_count() == 12
        assert_same(forecasts(cluster), expected)

    def test_migration_carries_scaler_state(self, backend):
        cluster = build_cluster(SPEC, n_shards=2, backend=backend, normalization="rolling")
        with running(cluster):
            rng = np.random.default_rng(10)
            for i in range(12):
                values = rng.normal(size=(TENANT_ROWS, CHANNELS)) * (i + 1) + 100.0
                cluster.ingest(f"tenant-{i}", values)
            scalers = {tenant: scaler_of(cluster, tenant) for tenant in cluster.tenants()}
            expected = forecasts(cluster)
            moved = cluster.add_shard()
            assert moved, "the new shard must adopt part of the ring"
            for tenant in moved:
                np.testing.assert_equal(scaler_of(cluster, tenant), scalers[tenant])
            assert_same(forecasts(cluster), expected)

    def test_migration_does_not_recount_store_stats(self, cluster):
        assert cluster.add_shard(), "the new shard must adopt part of the ring"
        grown = cluster.store_stats()
        assert grown.observations == 12 * TENANT_ROWS, "migration must not re-count history"
        assert grown.tenants == 12
        cluster.remove_shard("shard-0")
        shrunk = cluster.store_stats()
        assert shrunk.observations == 12 * TENANT_ROWS, "retired shard history must survive"
        assert shrunk.ingests == grown.ingests

    def test_needs_at_least_one_shard(self, backend):
        with pytest.raises(ValueError, match="n_shards"):
            build_cluster(SPEC, n_shards=0, backend=backend)

    def test_duplicate_shard_id_changes_nothing(self, backend, tmp_path):
        with lone_shard(backend, tmp_path) as cluster:
            with pytest.raises(ValueError, match="already exists"):
                cluster.add_shard("shard-0")
            assert_untouched(cluster)

    def test_last_or_unknown_shard_cannot_be_removed(self, backend, tmp_path):
        with lone_shard(backend, tmp_path) as cluster:
            with pytest.raises(ValueError, match="last shard"):
                cluster.remove_shard("shard-0")
            with pytest.raises(KeyError, match="unknown shard"):
                cluster.remove_shard("nope")
            assert_untouched(cluster)

    def test_last_or_unknown_shard_cannot_fail_over(self, backend, tmp_path):
        with lone_shard(backend, tmp_path) as cluster:
            with pytest.raises(ValueError, match="last shard"):
                cluster.failover("shard-0")
            with pytest.raises(KeyError, match="unknown shard"):
                cluster.failover("nope")
            assert_untouched(cluster)


class TestFailover:
    def test_checkpointed_shard_recovers_bit_identically(self, cluster, tmp_path):
        expected = forecasts(cluster)
        cluster.save(str(tmp_path / "ckpt"))
        victim = cluster.shard_for("tenant-0")
        victims = victims_of(cluster, victim)
        kill(cluster, victim)
        report = cluster.failover(victim)
        assert report.complete, report
        assert report.shard_id == victim
        assert sorted(report.restored) == sorted(victims)
        assert victim not in cluster.shard_ids()
        assert victim not in cluster.ring
        census = censuses(cluster)
        for tenant, owner in report.restored.items():
            assert cluster.shard_for(tenant) == owner
            assert tenant in census[owner]
        assert_same(forecasts(cluster), expected)

    def test_report_accounts_for_lost_and_stale_rows(self, cluster, tmp_path):
        """Rows past the checkpoint are stale.  A tenant born since it, or
        dropped and re-created since it (with fewer or more rows than it
        holds), is lost, never resurrected."""
        report, (stale, shrunk, regrown, newborn, restored) = lost_and_stale_drill(
            cluster, tmp_path
        )
        assert report.stale == {stale: 3}
        assert sorted(report.lost) == sorted([shrunk, regrown, newborn])
        assert sorted(report.restored) == sorted([stale] + restored)
        assert not report.complete
        for tenant in (shrunk, regrown, newborn):
            assert tenant not in cluster.tenants(), "deleted history resurrected"
        # The stale tenant survives, minus exactly its rolled-back rows.
        assert censuses(cluster)[cluster.shard_for(stale)][stale][0] == TENANT_ROWS

    def test_reports_agree_across_backends(self, tmp_path):
        reports = []
        for backend in BACKENDS:
            with running(build_cluster(SPEC, n_shards=2, backend=backend)) as cluster:
                populate(cluster)
                (tmp_path / backend).mkdir()
                report, _ = lost_and_stale_drill(cluster, tmp_path / backend)
                survivors = forecasts(cluster)
            reports.append((report.restored, sorted(report.lost), report.stale, survivors))
        thread, process = reports
        assert thread[:3] == process[:3]
        assert_same(thread[3], process[3])

    def test_uncheckpointed_arrivals_are_reported_stale(self, cluster, tmp_path):
        cluster.save(str(tmp_path / "ckpt"))
        victim = cluster.shard_for("tenant-0")
        cluster.ingest("tenant-0", np.ones((5, CHANNELS)))
        kill(cluster, victim)
        report = cluster.failover(victim)
        assert report.stale == {"tenant-0": 5}
        assert not report.lost
        assert censuses(cluster)[cluster.shard_for("tenant-0")]["tenant-0"][0] == TENANT_ROWS

    def test_never_checkpointed_tenant_is_reported_lost(self, cluster, tmp_path):
        cluster.save(str(tmp_path / "ckpt"))
        victim = cluster.shard_for("tenant-0")
        newborn = born_on(cluster, victim)
        cluster.ingest(newborn, np.ones((4, CHANNELS)))
        kill(cluster, victim)
        report = cluster.failover(victim)
        assert report.lost == [newborn]
        assert not report.complete
        assert newborn not in cluster.tenants()

    def test_recreated_tenant_with_fewer_rows_is_not_resurrected(self, cluster, tmp_path):
        recreated_is_lost(cluster, tmp_path, rows=2)

    def test_recreated_tenant_with_more_rows_is_not_resurrected(self, cluster, tmp_path):
        """Row counts alone cannot tell the incarnations apart when the new
        one out-ingested the deleted one; the generation can."""
        recreated_is_lost(cluster, tmp_path, rows=TENANT_ROWS + 3)

    def test_dropped_tenant_is_neither_restored_nor_lost(self, cluster, tmp_path):
        cluster.save(str(tmp_path / "ckpt"))
        victim = cluster.shard_for("tenant-0")
        cluster.drop("tenant-0")
        kill(cluster, victim)
        report = cluster.failover(victim)
        assert "tenant-0" not in report.lost
        assert "tenant-0" not in report.restored
        assert "tenant-0" not in cluster.tenants()

    def test_recreated_tenant_on_a_different_shard_is_not_resurrected(self, cluster, tmp_path):
        """Per-store tombstones cannot follow a key across a rebalance; the
        cluster's dropped-since-checkpoint record must.  The tenant is one
        the new shard adopts, so its new incarnation starts in a store that
        never saw the old one, with the old generation and more rows."""
        cluster.save(str(tmp_path / "ckpt"))
        grown = HashRing([*cluster.shard_ids(), "shard-2"])
        tenant = next(t for t in sorted(cluster.tenants()) if grown.assign(t) == "shard-2")
        before = cluster.shard_for(tenant)
        cluster.drop(tenant)
        cluster.add_shard()                      # ring changes after the drop
        assert cluster.shard_for(tenant) == "shard-2" != before
        cluster.ingest(tenant, np.ones((TENANT_ROWS + 3, CHANNELS)))
        kill(cluster, "shard-2")
        report = cluster.failover("shard-2")
        assert tenant in report.lost
        assert tenant not in cluster.tenants(), "deleted history resurrected"

    def test_failover_restores_from_the_newest_chain_link(self, cluster, tmp_path):
        """Arrivals a delta checkpoint captured are not rolled back."""
        cluster.save(str(tmp_path / "base"))
        victim = cluster.shard_for("tenant-0")
        cluster.ingest("tenant-0", np.ones((3, CHANNELS)))
        cluster.save_incremental(str(tmp_path / "d1"))
        kill(cluster, victim)
        report = cluster.failover(victim)
        assert report.complete, report
        assert censuses(cluster)[cluster.shard_for("tenant-0")]["tenant-0"][0] == TENANT_ROWS + 3

    def test_explicit_checkpoint_paths_override_the_chain(self, cluster, tmp_path):
        old = str(tmp_path / "old")
        cluster.save(old)
        victim = cluster.shard_for("tenant-0")
        cluster.ingest("tenant-0", np.ones((2, CHANNELS)))
        cluster.save(str(tmp_path / "new"))     # the chain now starts at "new"
        kill(cluster, victim)
        report = cluster.failover(victim, checkpoint_paths=[old])
        # Restoring from the old snapshot rolls those two rows back.
        assert report.stale == {"tenant-0": 2}

    def test_failover_without_checkpoint_refuses(self, cluster):
        victim = cluster.shard_for("tenant-0")
        kill(cluster, victim)
        with pytest.raises(RuntimeError, match="checkpoint"):
            cluster.failover(victim)
        assert victim in cluster.shard_ids()

    def test_failover_warms_the_adopting_shards(self, cluster, tmp_path):
        """failover() runs every adopter's compiled plan before returning,
        so the first forecast after it replays: no trace on the request
        path, no eager fallback."""
        cluster.save(str(tmp_path / "ckpt"))
        victim = cluster.shard_for("tenant-0")
        before = {sid: plan_counters(cluster, sid) for sid in cluster.shard_ids() if sid != victim}
        kill(cluster, victim)
        report = cluster.failover(victim)
        adopters = sorted(set(report.restored.values()))
        assert adopters, "need adopting shards for a meaningful warmup check"
        warmed = {sid: plan_counters(cluster, sid) for sid in adopters}
        for sid, (traces, _, hits) in warmed.items():
            assert traces >= 1
            assert traces + hits > before[sid][0] + before[sid][2], f"{sid} was not warmed"
        forecasts(cluster, sorted(report.restored))
        for sid, (traces, fallbacks, hits) in warmed.items():
            now = plan_counters(cluster, sid)
            assert now[0] == traces, f"{sid} traced on the request path"
            assert now[1] == fallbacks, f"{sid} fell back to eager"
            assert now[2] > hits, f"{sid} never replayed its warm plan"

    def test_failed_over_cluster_keeps_checkpointing(self, cluster, tmp_path):
        """The chain survives a failover: a delta extends it and captures
        the re-homed placement."""
        paths = [str(tmp_path / "base"), str(tmp_path / "d1")]
        cluster.save(paths[0])
        victim = cluster.shard_for("tenant-0")
        kill(cluster, victim)
        report = cluster.failover(victim)
        cluster.save_incremental(paths[1])
        expected = forecasts(cluster)
        with running(type(cluster).load_chain(SPEC, paths)) as revived:
            assert revived.shard_ids() == cluster.shard_ids()
            assert sorted(revived.tenants()) == sorted(cluster.tenants())
            for tenant, owner in report.restored.items():
                assert revived.shard_for(tenant) == owner
            assert_same(forecasts(revived), expected)


class TestCheckpoints:
    def test_save_load_is_bit_identical(self, cluster, tmp_path):
        expected = forecasts(cluster)
        cluster.save(str(tmp_path / "ckpt"))
        with running(type(cluster).load(SPEC, str(tmp_path / "ckpt"))) as revived:
            assert revived.shard_ids() == cluster.shard_ids()
            assert sorted(revived.tenants()) == sorted(cluster.tenants())
            assert_same(forecasts(revived), expected)

    def test_retired_stats_survive_save_load(self, cluster, tmp_path):
        forecasts(cluster)
        cluster.remove_shard("shard-1")   # folds its history into retired stats
        expected = forecasts(cluster)
        stats = (cluster.service_stats(), cluster.store_stats())
        cluster.save(str(tmp_path / "ckpt"))
        with running(type(cluster).load(SPEC, str(tmp_path / "ckpt"))) as revived:
            assert (revived.service_stats(), revived.store_stats()) == stats
            assert revived.rebalances == cluster.rebalances
            assert revived.tenants_migrated == cluster.tenants_migrated
            assert revived.shard_ids() == cluster.shard_ids()
            assert_same(forecasts(revived), expected)

    def test_state_with_streaming_counters_still_loads(self, cluster, tmp_path):
        """States written while the forecaster kept its own forecast
        counters carry them per shard (``stats``) and in the retired record
        (``retired.streaming``); they load, and those keys are ignored."""
        forecasts(cluster)
        cluster.remove_shard("shard-1")
        expected = forecasts(cluster)
        state = cluster.to_state()
        state["retired"]["streaming"] = {"forecasts": 12, "cold_start_forecasts": 0}
        for shard_state in state["shards"].values():
            shard_state["stats"] = {"forecasts": 12, "cold_start_forecasts": 0}
        write_snapshot(state, str(tmp_path / "ckpt"))
        with running(type(cluster).load(SPEC, str(tmp_path / "ckpt"))) as revived:
            assert revived.service_stats() == cluster.service_stats()
            assert revived.store_stats() == cluster.store_stats()
            assert_same(forecasts(revived), expected)

    def test_chain_restores_on_either_backend(self, backend, tmp_path):
        """One snapshot format, two deployments: a chain saved by either
        backend restores bit-identically on both, with the saved store
        geometry, so the revived cluster can still rebalance."""
        with running(build_cluster(SPEC, n_shards=2, backend=backend, window_capacity=200)) as cluster:
            populate(cluster)
            cluster.save(str(tmp_path / "base"))
            cluster.ingest("tenant-0", np.ones((2, CHANNELS)))
            cluster.save_incremental(str(tmp_path / "d1"))
            chain = cluster.checkpoint_chain()
            expected = forecasts(cluster)
        for loader in (ShardedForecaster, ProcessCoordinator):
            with running(loader.load_chain(SPEC, chain)) as revived:
                assert revived.window_capacity == 200
                assert_same(forecasts(revived), expected)
                moved = revived.add_shard()
                assert moved, "a restored cluster must accept new shards"
                assert all(revived.shard_for(t) == "shard-2" for t in moved)
                assert_same(forecasts(revived), expected)

    def test_restored_cluster_rebalances_both_ways(self, cluster, tmp_path):
        """A revived cluster grows and shrinks like the one that saved it:
        the same tenants move, and forecasts do not change."""
        expected = forecasts(cluster)
        cluster.save(str(tmp_path / "ckpt"))
        with running(type(cluster).load(SPEC, str(tmp_path / "ckpt"))) as revived:
            grown = revived.add_shard()
            assert sorted(grown) == sorted(cluster.add_shard())
            assert_same(forecasts(revived), expected)
            shrunk = revived.remove_shard("shard-0")
            assert sorted(shrunk) == sorted(cluster.remove_shard("shard-0"))
            assert {t: revived.shard_for(t) for t in expected} == {
                t: cluster.shard_for(t) for t in expected
            }
            assert_same(forecasts(revived), expected)

    def test_chain_and_compaction_round_trip(self, cluster, backend, tmp_path):
        rng = np.random.default_rng(12)
        cluster.save(str(tmp_path / "base"))
        cluster.ingest("tenant-1", rng.normal(size=(2, CHANNELS)))
        cluster.save_incremental(str(tmp_path / "d1"))
        cluster.drop("tenant-2")
        cluster.ingest("fresh", rng.normal(size=(INPUT_LENGTH, CHANNELS)))
        cluster.save_incremental(str(tmp_path / "d2"))
        chain = cluster.checkpoint_chain()
        assert len(chain) == 3
        expected = forecasts(cluster)
        loader = type(cluster)
        with running(loader.load_chain(SPEC, chain)) as revived:
            assert sorted(revived.tenants()) == sorted(cluster.tenants())
            assert_same(forecasts(revived), expected)
        compacted = cluster.compact(str(tmp_path / "compacted"))
        assert cluster.checkpoint_chain() == [compacted]
        with running(loader.load(SPEC, compacted)) as revived:
            assert_same(forecasts(revived), expected)
            # The compacted base keeps extending as a chain.
            revived.ingest("tenant-3", rng.normal(size=(1, CHANNELS)))
            revived.save_incremental(str(tmp_path / "d3"))
            assert len(revived.checkpoint_chain()) == 2

    def test_parent_layout_archive_is_refused_typed(self, cluster, tmp_path):
        """An archive from before the one-payload format raises ValueError,
        and failover against it leaves the topology alone."""
        old = str(tmp_path / "old.npz")
        shard = {
            "normalization": "none",
            "store": {
                "capacity": 4 * INPUT_LENGTH, "n_channels": CHANNELS, "dtype": "float32",
                "buffers": {}, "last_timestamps": {}, "generations": {}, "stats": {},
            },
            "scalers": {},
            "stats": {},
        }
        write_snapshot(dict(cluster.to_state(), shards={"shard-0": shard}), old)
        with pytest.raises(ValueError, match="predates the format change"):
            type(cluster).load(SPEC, old)
        with pytest.raises(ValueError, match="predates the format change"):
            cluster.failover("shard-0", checkpoint_paths=[old])
        assert cluster.shard_ids() == ["shard-0", "shard-1"]
        assert len(cluster.tenants()) == 12

    def test_incremental_needs_a_base(self, cluster, tmp_path):
        with pytest.raises(RuntimeError, match="call save"):
            cluster.save_incremental(str(tmp_path / "orphan"))


class TestRetiredStats:
    def test_history_survives_remove_and_failover(self, cluster, tmp_path):
        forecasts(cluster)
        cluster.add_shard()
        forecasts(cluster)
        want_service = cluster.service_stats()
        want_store = cluster.store_stats()
        cluster.remove_shard("shard-2")
        assert cluster.service_stats() == want_service
        assert cluster.store_stats().observations == want_store.observations
        cluster.save(str(tmp_path / "ckpt"))
        # Poll right before the crash: a killed worker's counters fold
        # from its last poll.
        want_service = cluster.service_stats()
        want_store = cluster.store_stats()
        victim = cluster.shard_for("tenant-0")
        kill(cluster, victim)
        cluster.failover(victim)
        assert cluster.service_stats() == want_service
        assert cluster.store_stats() == want_store


class TestRegistryViews:
    """The metrics registry exports what ``service_stats()`` and
    ``store_stats()`` return: the live replicas' counters (a process
    cluster's as of its last poll) plus the retired record."""

    @staticmethod
    def assert_views_match(cluster, registry):
        # A stats call polls the workers; a retired thread replica's own
        # views go when it is collected.
        stats = {"repro_serving": cluster.service_stats(), "repro_store": cluster.store_stats()}
        gc.collect()
        views = registry.views_snapshot()
        for prefix, counters in stats.items():
            for name, value in counters_dict(counters).items():
                assert views[f"{prefix}_{name}"] == value, f"{prefix}_{name}"

    def test_views_match_stats_through_remove_and_failover(self, backend, tmp_path, monkeypatch):
        registry = obs.MetricsRegistry()
        monkeypatch.setattr(repro.obs.metrics, "_DEFAULT_REGISTRY", registry)
        with running(build_cluster(SPEC, n_shards=3, backend=backend)) as cluster:
            populate(cluster)
            forecasts(cluster)
            self.assert_views_match(cluster, registry)
            cluster.remove_shard("shard-1")
            self.assert_views_match(cluster, registry)
            forecasts(cluster)
            cluster.save(str(tmp_path / "ckpt"))
            victim = cluster.shard_for("tenant-0")
            kill(cluster, victim)
            cluster.failover(victim)
            self.assert_views_match(cluster, registry)
            forecasts(cluster)
            cluster.reset_service_stats()
            self.assert_views_match(cluster, registry)
            assert registry.views_snapshot()["repro_store_observations"] == 12 * TENANT_ROWS


class TestSweeps:
    def test_implicit_sweep_equals_explicit_sweep(self, cluster):
        rng = np.random.default_rng(4)
        cluster.drop("tenant-3")
        cluster.ingest("tenant-3", rng.normal(size=(2, CHANNELS)))
        cluster.drop("tenant-5")
        implicit = forecasts(cluster)
        assert sorted(implicit) == sorted(cluster.tenants())
        assert "tenant-5" not in implicit
        assert_same(forecasts(cluster, sorted(implicit)), implicit)

    def test_a_restored_tenant_without_rows_sits_out_implicit_sweeps(self, cluster, tmp_path):
        """A zero-row payload (as snapshots of older builds can hold) is
        skipped by an implicit sweep; naming it explicitly still raises."""
        expected = forecasts(cluster)
        state = cluster.to_state()
        owner = state["shards"][cluster.shard_for("tenant-0")]
        ghost = copy.deepcopy(owner["tenants"]["tenant-0"])
        ghost["series"]["buffer"].update(
            data=np.zeros((0, CHANNELS), np.float32), total_appended=0
        )
        state["shards"][cluster.shard_for("ghost")]["tenants"]["ghost"] = ghost
        write_snapshot(state, str(tmp_path / "ckpt"))
        with running(type(cluster).load(SPEC, str(tmp_path / "ckpt"))) as revived:
            assert "ghost" in revived.tenants()
            assert_same(forecasts(revived), expected)
            with pytest.raises(ValueError, match="no observations"):
                revived.forecast_all(["tenant-0", "ghost"])

    def test_explicit_unknown_tenant_raises_and_settles_the_rest(self, cluster):
        handle = cluster.forecast("tenant-1")
        with pytest.raises(KeyError):
            cluster.forecast_all(["tenant-0", "never-ingested"])
        assert handle.result().shape == (HORIZON, CHANNELS)


def make_streams(n_tenants, steps, seed):
    rng = np.random.default_rng(seed)
    return {
        f"tenant-{i}": rng.normal(size=(steps, CHANNELS)).astype(np.float32)
        for i in range(n_tenants)
    }


def unsharded_replay(streams):
    return replay_cluster(StreamingForecaster(SPEC.build()), streams, warmup=INPUT_LENGTH)


class TestParity:
    """Sharding, rebalancing and failover never show in the forecasts:
    replayed tick by tick, a cluster matches one unsharded forecaster."""

    def test_shard_count_never_changes_forecasts(self, backend):
        streams = make_streams(6, INPUT_LENGTH + 6, seed=42)
        expected = unsharded_replay(streams)
        for n_shards in (1, 3):
            with running(build_cluster(SPEC, n_shards=n_shards, backend=backend)) as cluster:
                produced = replay_cluster(cluster, streams, warmup=INPUT_LENGTH)
            report = compare_cluster_to_unsharded(produced, expected)
            assert report.bit_identical, (
                f"{n_shards} shards diverged: max |Δ| = {report.max_abs_error}"
            )
            assert report.windows_compared == 6 * 7

    def test_rebalance_mid_stream_matches_unsharded_replay(self, backend):
        steps = INPUT_LENGTH + 8
        streams = make_streams(9, steps, seed=7)
        expected = unsharded_replay(streams)
        events = {}
        with running(build_cluster(SPEC, n_shards=2, backend=backend)) as cluster:
            def on_tick(step):
                if step == INPUT_LENGTH + 4:
                    before = {t: cluster.shard_for(t) for t in streams}
                    events["moved"] = cluster.add_shard()
                    events["reassigned"] = [t for t in streams if cluster.shard_for(t) != before[t]]

            produced = replay_cluster(cluster, streams, warmup=INPUT_LENGTH, on_tick=on_tick)
        assert events["moved"], "the rebalance must move some tenants for a real test"
        assert sorted(events["moved"]) == sorted(events["reassigned"])
        report = compare_cluster_to_unsharded(produced, expected)
        assert report.bit_identical, f"max |Δ| = {report.max_abs_error}"
        assert report.windows_compared == 9 * (steps - INPUT_LENGTH + 1)

    def test_failover_mid_stream_matches_unsharded_replay(self, backend, tmp_path):
        """A rebalance, then a failover, in one stream."""
        steps = INPUT_LENGTH + 16
        streams = make_streams(9, steps, seed=7)
        expected = unsharded_replay(streams)
        events = {}
        with running(build_cluster(SPEC, n_shards=2, backend=backend)) as cluster:
            def on_tick(step):
                if step == INPUT_LENGTH + 4:
                    events["moved"] = cluster.add_shard()
                elif step == INPUT_LENGTH + 10:
                    # Checkpoint, then the shard dies before any new arrival:
                    # nothing to lose, so recovery must be invisible.
                    cluster.save(str(tmp_path / "ckpt"))
                    victim = cluster.shard_for("tenant-0")
                    kill(cluster, victim)
                    events["failover"] = cluster.failover(victim)

            produced = replay_cluster(cluster, streams, warmup=INPUT_LENGTH, on_tick=on_tick)
        assert events["moved"], "the rebalance must move some tenants for a real test"
        assert events["failover"].restored and events["failover"].complete
        report = compare_cluster_to_unsharded(produced, expected)
        assert report.bit_identical, f"max |Δ| = {report.max_abs_error}"
        assert report.windows_compared == 9 * (steps - INPUT_LENGTH + 1)

    def test_parity_report_rejects_mismatched_tenants(self):
        with pytest.raises(ValueError, match="different tenants"):
            compare_cluster_to_unsharded({"a": np.zeros((1, 2, 2))}, {"b": np.zeros((1, 2, 2))})


BOUNDED = ServiceSpec(config=SPEC.config, max_batch_size=16, queue_limit=2)
QUEUE_FULL = "pending queue full (2) with no lower-priority work to displace for a 'batch' arrival"


TENANTS = [f"tenant-{i}" for i in range(4)]


def bounded_cluster(backend):
    """A cluster whose replicas queue at most two rows."""
    built = build_cluster(BOUNDED, n_shards=2, backend=backend)
    rng = np.random.default_rng(8)
    for tenant in TENANTS:
        built.ingest(tenant, rng.normal(size=(INPUT_LENGTH, CHANNELS)))
    return built


def single_forecast_calls(cluster):
    """Single forecasts that serve, overflow the queue or fail validation.

    Returns the two served values, in order.
    """
    served = [cluster.forecast("tenant-0"), cluster.forecast("tenant-0")]
    with pytest.raises(Overloaded) as refused:
        cluster.forecast("tenant-0")
    assert str(refused.value) == QUEUE_FULL
    with pytest.raises(KeyError) as unknown:
        cluster.forecast("ghost")
    assert str(unknown.value) == str(KeyError("unknown tenant 'ghost'"))
    for timeout in (0, -1):
        with pytest.raises(ValueError, match="timeout must be > 0"):
            cluster.forecast("tenant-1", timeout=timeout)
    with pytest.raises(ValueError, match="not both"):
        cluster.forecast("tenant-1", timeout=1.0, deadline=obs.now() + 1.0)
    assert not any(handle.done() for handle in served)
    cluster.flush()
    return [handle.result() for handle in served]


class TestSingleForecast:
    """A single forecast is a one-tenant sweep that leaves the queue unflushed."""

    def test_bits_equal_the_one_tenant_sweep(self, cluster):
        for tenant in ("tenant-0", "tenant-7"):
            handle = cluster.forecast(tenant)
            assert not handle.done()
            value = handle.result()
            np.testing.assert_array_equal(value, forecasts(cluster, [tenant])[tenant])

    def test_refusals_and_bad_calls_raise_at_the_call(self, backend):
        with running(bounded_cluster(backend)) as cluster:
            single_forecast_calls(cluster)
            with pytest.raises(DeadlineExceeded):
                cluster.forecast("tenant-1", deadline=obs.now() - 1.0)
            # Nothing queued is left behind by the refused calls.
            assert cluster.flush() == 0

    def test_stats_and_bits_agree_across_backends(self):
        outcomes = {}
        for backend in BACKENDS:
            with running(bounded_cluster(backend)) as cluster:
                values = single_forecast_calls(cluster)
                with pytest.raises(DeadlineExceeded):
                    cluster.forecast("tenant-1", deadline=obs.now() - 1.0)
                # A one-nanosecond budget is spent before any shard admits.
                expired = cluster.forecast_all(TENANTS, timeout=1e-9)
                assert list(expired) == TENANTS
                for handle in expired.values():
                    with pytest.raises(DeadlineExceeded):
                        handle.result()
                outcomes[backend] = (values, cluster.service_stats())
        (thread_values, thread_stats), (process_values, process_stats) = outcomes.values()
        for thread_value, process_value in zip(thread_values, process_values):
            np.testing.assert_array_equal(thread_value, process_value)
        assert thread_stats == process_stats
        assert thread_stats.shed_overloaded == 1
        assert thread_stats.shed_expired == 1 + len(TENANTS)
        assert thread_stats.requests == 2


BAD_INGESTS = {
    "channel-count": ("phantom", np.zeros((2, CHANNELS + 1)), None),
    "three-d": ("phantom", np.zeros((1, 2, CHANNELS)), None),
    "non-numeric": ("tenant-0", np.array([["a", "b"]]), None),
    "stale-timestamp": ("stamped", np.zeros((1, CHANNELS)), 5),
}


class TestIngestValidation:
    @pytest.mark.parametrize("case", sorted(BAD_INGESTS))
    def test_bad_ingest_raises_typed_and_changes_nothing(self, cluster, case):
        rng = np.random.default_rng(6)
        cluster.ingest("stamped", rng.normal(size=(INPUT_LENGTH, CHANNELS)), timestamp=5)
        tenants, census = cluster.tenants(), censuses(cluster)
        expected = forecasts(cluster)
        tenant, values, timestamp = BAD_INGESTS[case]
        with pytest.raises(ValueError) as info:
            cluster.ingest(tenant, values, timestamp=timestamp)
        assert type(info.value) is ValueError
        assert cluster.tenants() == tenants
        assert censuses(cluster) == census
        assert_same(forecasts(cluster), expected)

    def test_zero_rows_of_an_unknown_tenant_create_nothing(self, cluster):
        """An empty tenant would fail every implicit sweep with "no observations"."""
        tenants, census = cluster.tenants(), censuses(cluster)
        expected = forecasts(cluster)
        assert cluster.ingest("ghost", np.zeros((0, CHANNELS)), timestamp=5) == 0
        assert cluster.tenants() == tenants
        assert censuses(cluster) == census
        assert_same(forecasts(cluster), expected)
        # Nothing was created, so no watermark either: an earlier stamp is fine.
        cluster.ingest("ghost", np.ones((1, CHANNELS)), timestamp=1)
        assert "ghost" in forecasts(cluster)

    def test_unencodable_timestamp_raises_type_error_at_ingest(self):
        with running(build_cluster(SPEC, n_shards=2, backend="process")) as cluster:
            row = np.zeros((1, CHANNELS))
            with pytest.raises(TypeError, match="cannot snapshot"):
                cluster.ingest("t", row, timestamp=object())
            assert cluster.tenants() == []
            cluster.ingest("t", np.zeros((INPUT_LENGTH, CHANNELS)), timestamp=1)
            assert forecasts(cluster)["t"].shape == (HORIZON, CHANNELS)

    def test_timestamp_watermarks_follow_migration_and_restore(self, cluster, tmp_path):
        rng = np.random.default_rng(7)
        tenants = [f"tenant-{i}" for i in range(12)]
        for tenant in tenants:
            cluster.ingest(tenant, rng.normal(size=(1, CHANNELS)), timestamp=10)
        moved = cluster.add_shard()
        assert moved, "the new shard must adopt part of the ring"
        cluster.save(str(tmp_path / "ckpt"))
        with running(type(cluster).load(SPEC, str(tmp_path / "ckpt"))) as revived:
            for tenant in tenants:
                row = rng.normal(size=(1, CHANNELS))
                for target in (cluster, revived):
                    with pytest.raises(ValueError, match="not after"):
                        target.ingest(tenant, row, timestamp=10)
                    target.ingest(tenant, row, timestamp=11)
            assert_same(forecasts(revived), forecasts(cluster))


class TestCensus:
    def test_census_counts_accepted_rows_before_any_frame(self, cluster):
        rng = np.random.default_rng(9)
        cluster.drop("tenant-3")
        cluster.ingest("tenant-3", rng.normal(size=(2, CHANNELS)))
        cluster.ingest("tenant-4", rng.normal(size=(3, CHANNELS)))
        cluster.ingest("newcomer", rng.normal(size=(1, CHANNELS)))
        accepted = censuses(cluster)
        assert accepted[cluster.shard_for("tenant-3")]["tenant-3"] == (2, 1)
        assert accepted[cluster.shard_for("tenant-4")]["tenant-4"] == (INPUT_LENGTH + 5, 0)
        assert accepted[cluster.shard_for("newcomer")]["newcomer"] == (1, 0)
        cluster.flush()  # one frame per shard: the replicas now hold every row
        assert censuses(cluster) == accepted


# ---------------------------------------------------------------------- #
# Live-head parity: with seeded live weights every window step, every
# covariate and the denormalisation reach the output bits.
# ---------------------------------------------------------------------- #
def live_config(**fields):
    return ModelConfig(
        input_length=24, horizon=6, patch_length=6, hidden_dim=16, dropout=0.0,
        n_heads=2, n_layers=1, seed=11, **fields,
    )


#: shape -> (config, normalization): a fleet-like shape (one channel,
#: rolling normalisation) and an enriched-like one (seven channels plus
#: numerical and calendar covariates, no normalisation)
LIVE_SHAPES = {
    "fleet": (live_config(n_channels=1), "rolling"),
    "enriched": (
        live_config(
            n_channels=7, covariate_numerical_dim=4, covariate_categorical_cardinalities=(7, 24)
        ),
        "none",
    ),
}
LIVE_TENANTS = 10
LIVE_TICKS = 4


def live_ticks(cluster, config, seed=5):
    """Uneven histories (cold starts included), then ticks of one row per
    tenant and one sweep; returns every tick's forecasts."""
    rng = np.random.default_rng(seed)
    channels, horizon = config.n_channels, config.horizon
    covariates = config.covariate_numerical_dim > 0
    tenants = [f"tenant-{i}" for i in range(LIVE_TENANTS)]
    for i, tenant in enumerate(tenants):
        cluster.ingest(tenant, rng.normal(3.0, 2.0, size=(5 + 4 * i, channels)))
    ticks = []
    for _ in range(LIVE_TICKS):
        for tenant in tenants:
            cluster.ingest(tenant, rng.normal(3.0, 2.0, size=(1, channels)))
        numerical = categorical = None
        if covariates:
            numerical = {
                tenant: rng.normal(size=(horizon, config.covariate_numerical_dim)).astype(np.float32)
                for tenant in tenants
            }
            categorical = {
                tenant: np.stack(
                    [rng.integers(0, cardinality, horizon)
                     for cardinality in config.covariate_categorical_cardinalities],
                    axis=1,
                )
                for tenant in tenants
            }
        handles = cluster.forecast_all(
            tenants, future_numerical=numerical, future_categorical=categorical
        )
        ticks.append({tenant: handle.result() for tenant, handle in handles.items()})
    return ticks


class TestLiveHeadParity:
    def test_live_weights_reach_the_oldest_window_step(self):
        config, _ = LIVE_SHAPES["fleet"]
        service = ForecastService(
            perturb(create_model("LiPFormer", config), seed=1), compiled=False
        )
        window = np.random.default_rng(0).normal(size=(1, config.input_length, 1))
        shifted = window.copy()
        shifted[0, 0] += 1.0
        assert not np.array_equal(service.predict_many(window), service.predict_many(shifted))

    @pytest.mark.parametrize("shape", sorted(LIVE_SHAPES))
    def test_backends_agree_bit_for_bit(self, shape, tmp_path):
        config, normalization = LIVE_SHAPES[shape]
        spec = ServiceSpec(
            config=config,
            # Smaller than a shard's share of the sweep: every tick takes
            # more than one forward pass per shard.
            max_batch_size=4,
            weights_path=write_live_weights(config, tmp_path / "live.npz", seed=1),
        )
        outcomes = {}
        for backend in BACKENDS:
            cluster = build_cluster(spec, n_shards=2, backend=backend, normalization=normalization)
            with running(cluster):
                outcomes[backend] = live_ticks(cluster, config)
        for thread_tick, process_tick in zip(outcomes["thread"], outcomes["process"]):
            assert_same(thread_tick, process_tick)


# ---------------------------------------------------------------------- #
# Handle contract: one handle class on both backends.  A row whose forward
# pass fails raises its own error, on the process backend after crossing
# the wire, while the rest of its block still serves.
# ---------------------------------------------------------------------- #
def handle_contract(cluster, config):
    """Serve eight enriched tenants, three with an out-of-range calendar
    covariate; returns the five good rows' forecasts, plus the first
    tenant's single forecast as ``"single"``."""
    by_shard = {}
    for tenant in (f"tenant-{i}" for i in range(64)):
        by_shard.setdefault(cluster.shard_for(tenant), []).append(tenant)
    crowded, lone = sorted(by_shard.values(), key=len, reverse=True)
    # Seven rows on one shard: a clean forward pass of four, then the
    # three bad rows in a pass of their own (max_batch_size=4), so one
    # block mixes values and errors.  One clean row on the other shard.
    tenants = crowded[:7] + lone[:1]
    bad = set(crowded[4:7])
    rng = np.random.default_rng(7)
    horizon = config.horizon
    numerical, categorical = {}, {}
    for tenant in tenants:
        cluster.ingest(tenant, rng.normal(3.0, 2.0, size=(config.input_length, config.n_channels)))
        numerical[tenant] = rng.normal(
            size=(horizon, config.covariate_numerical_dim)
        ).astype(np.float32)
        categorical[tenant] = np.stack(
            [rng.integers(0, cardinality, horizon)
             for cardinality in config.covariate_categorical_cardinalities],
            axis=1,
        )
    for tenant in bad:
        categorical[tenant][:, 0] = 99  # cardinality 7
    handles = cluster.forecast_all(
        tenants, future_numerical=numerical, future_categorical=categorical
    )
    assert list(handles) == tenants
    good = {}
    for tenant, handle in handles.items():
        assert handle.done()
        assert handle.admission_error is None
        if tenant in bad:
            for _ in range(2):  # a repeated result() re-raises
                with pytest.raises(IndexError):
                    handle.result()
        else:
            good[tenant] = handle.result()
    assert sorted(good) == sorted(set(tenants) - bad)
    first = tenants[0]
    single = cluster.forecast(
        first, future_numerical=numerical[first], future_categorical=categorical[first]
    )
    assert not single.done()
    good["single"] = single.result()
    assert single.done()
    return good


class TestHandleContract:
    def test_forward_errors_fail_only_their_rows(self, tmp_path):
        config, normalization = LIVE_SHAPES["enriched"]
        spec = ServiceSpec(
            config=config,
            max_batch_size=4,
            weights_path=write_live_weights(config, tmp_path / "live.npz", seed=1),
        )
        outcomes = {}
        for backend in BACKENDS:
            cluster = build_cluster(spec, n_shards=2, backend=backend, normalization=normalization)
            with running(cluster):
                outcomes[backend] = handle_contract(cluster, config)
        assert_same(outcomes["thread"], outcomes["process"])
