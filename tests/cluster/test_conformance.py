"""Backend conformance: every coordinator guarantee, on both shard classes.

One :class:`~repro.cluster.coordinator.Coordinator` drives two shard
transports — :class:`~repro.cluster.sharded.LocalShard` and
:class:`~repro.cluster.process.ProcessShard` — so each control-plane
contract is checked once here, parametrized over the backend: migration
sets and their unwind, failover accounting, checkpoint round trips,
retired-stat folding, sweep equivalence and single forecasts (a sweep
of one).  On the process backend a shard "dies" by a real ``kill -9``;
on the thread backend the dead replica is simply abandoned.  Forecasts
from a model with seeded live weights must also agree bit for bit across
the backends, tick after tick.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.baselines.registry import create_model
from repro.cluster import ServiceSpec, build_cluster, write_snapshot
from repro.config import ModelConfig
from repro.errors import DeadlineExceeded, Overloaded
from repro.serving import ForecastService

from live_weights import perturb, write_live_weights

INPUT_LENGTH = 16
HORIZON = 4
CHANNELS = 2

SPEC = ServiceSpec(
    config=ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=CHANNELS,
        patch_length=4, hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1, seed=11,
    ),
    max_batch_size=16,
)

BACKENDS = ["thread", "process"]


def close(cluster):
    if cluster.BACKEND == "process":
        cluster.close()


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def cluster(backend):
    built = build_cluster(SPEC, n_shards=2, backend=backend)
    rng = np.random.default_rng(3)
    for i in range(12):
        built.ingest(f"tenant-{i}", rng.normal(size=(INPUT_LENGTH + 2, CHANNELS)))
    yield built
    close(built)


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


class TestRebalance:
    def test_add_then_remove_moves_exactly_the_reassigned_tenants(self, cluster):
        before = {t: cluster.shard_for(t) for t in cluster.tenants()}
        expected = forecasts(cluster)
        moved = cluster.add_shard()
        assert moved, "the new shard must adopt part of the ring"
        for tenant, owner in before.items():
            assert cluster.shard_for(tenant) == ("shard-2" if tenant in moved else owner)
        assert sorted(victims_of(cluster, "shard-2")) == sorted(moved)
        assert_same(forecasts(cluster), expected)
        assert sorted(cluster.remove_shard("shard-2")) == sorted(moved)
        assert {t: cluster.shard_for(t) for t in cluster.tenants()} == before
        assert_same(forecasts(cluster), expected)
        assert cluster.rebalances == 2
        assert cluster.tenants_migrated == 2 * len(moved)

    def test_failed_add_shard_unwinds(self, cluster, monkeypatch):
        before = {t: cluster.shard_for(t) for t in cluster.tenants()}
        expected = forecasts(cluster)
        armed = {"on": True}
        for shard in list(cluster._shards.values()):
            def failing_export(tenant, _export=shard.export_tenant):
                if armed["on"]:
                    raise RuntimeError("injected migration failure")
                return _export(tenant)

            monkeypatch.setattr(shard, "export_tenant", failing_export)
        with pytest.raises(RuntimeError, match="injected migration failure"):
            cluster.add_shard()
        assert cluster.rebalance_failures == 1
        assert cluster.as_dict()["rebalance_failures"] == 1
        assert cluster.rebalances == 0
        assert cluster.shard_ids() == ["shard-0", "shard-1"]
        assert {t: cluster.shard_for(t) for t in cluster.tenants()} == before
        assert_same(forecasts(cluster), expected)
        armed["on"] = False
        moved = cluster.add_shard()
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


class TestFailover:
    def test_checkpointed_shard_recovers_bit_identically(self, cluster, tmp_path):
        expected = forecasts(cluster)
        cluster.save(str(tmp_path / "ckpt"))
        victim = cluster.shard_for("tenant-0")
        victims = victims_of(cluster, victim)
        kill(cluster, victim)
        report = cluster.failover(victim)
        assert report.complete, report
        assert sorted(report.restored) == sorted(victims)
        assert victim not in cluster.shard_ids()
        assert_same(forecasts(cluster), expected)

    def test_report_accounts_for_lost_and_stale_rows(self, cluster, tmp_path):
        rng = np.random.default_rng(8)
        cluster.save(str(tmp_path / "ckpt"))
        victim = cluster.shard_for("tenant-0")
        stale, recreated, *restored = victims_of(cluster, victim)
        cluster.ingest(stale, rng.normal(size=(3, CHANNELS)))
        cluster.drop(recreated)
        cluster.ingest(recreated, rng.normal(size=(INPUT_LENGTH + 5, CHANNELS)))
        newborn = next(
            f"late-{i}" for i in range(1000) if cluster.shard_for(f"late-{i}") == victim
        )
        cluster.ingest(newborn, rng.normal(size=(4, CHANNELS)))
        kill(cluster, victim)
        report = cluster.failover(victim)
        assert report.stale == {stale: 3}
        assert sorted(report.lost) == sorted([recreated, newborn])
        assert sorted(report.restored) == sorted([stale] + restored)
        assert recreated not in cluster.tenants()
        assert newborn not in cluster.tenants()

    def test_dropped_tenant_is_neither_restored_nor_lost(self, cluster, tmp_path):
        cluster.save(str(tmp_path / "ckpt"))
        victim = cluster.shard_for("tenant-0")
        cluster.drop("tenant-0")
        kill(cluster, victim)
        report = cluster.failover(victim)
        assert "tenant-0" not in report.lost
        assert "tenant-0" not in report.restored
        assert "tenant-0" not in cluster.tenants()


class TestCheckpoints:
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
        revived = loader.load_chain(SPEC, chain)
        try:
            assert sorted(revived.tenants()) == sorted(cluster.tenants())
            assert_same(forecasts(revived), expected)
        finally:
            close(revived)
        compacted = cluster.compact(str(tmp_path / "compacted"))
        assert cluster.checkpoint_chain() == [compacted]
        revived = loader.load(SPEC, compacted)
        try:
            assert_same(forecasts(revived), expected)
            # The compacted base keeps extending as a chain.
            revived.ingest("tenant-3", rng.normal(size=(1, CHANNELS)))
            revived.save_incremental(str(tmp_path / "d3"))
            assert len(revived.checkpoint_chain()) == 2
        finally:
            close(revived)

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

    def test_explicit_unknown_tenant_raises_and_settles_the_rest(self, cluster):
        handle = cluster.forecast("tenant-1")
        with pytest.raises(KeyError):
            cluster.forecast_all(["tenant-0", "never-ingested"])
        assert handle.result().shape == (HORIZON, CHANNELS)


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
        cluster = bounded_cluster(backend)
        try:
            single_forecast_calls(cluster)
            with pytest.raises(DeadlineExceeded):
                cluster.forecast("tenant-1", deadline=obs.now() - 1.0)
            # Nothing queued is left behind by the refused calls.
            assert cluster.flush() == 0
        finally:
            close(cluster)

    def test_stats_and_bits_agree_across_backends(self):
        outcomes = {}
        for backend in BACKENDS:
            cluster = bounded_cluster(backend)
            try:
                values = single_forecast_calls(cluster)
                with pytest.raises(DeadlineExceeded):
                    cluster.forecast("tenant-1", deadline=obs.now() - 1.0)
                # A one-nanosecond budget is spent before any shard admits.
                expired = cluster.forecast_all(TENANTS, timeout=1e-9)
                assert list(expired) == TENANTS
                for handle in expired.values():
                    with pytest.raises(DeadlineExceeded):
                        handle.result()
                outcomes[backend] = (values, cluster.service_stats(), cluster.streaming_stats())
            finally:
                close(cluster)
        (thread_values, *thread_stats), (process_values, *process_stats) = outcomes.values()
        for thread_value, process_value in zip(thread_values, process_values):
            np.testing.assert_array_equal(thread_value, process_value)
        assert thread_stats == process_stats
        assert thread_stats[0].shed_overloaded == 1
        assert thread_stats[0].shed_expired == 1 + len(TENANTS)
        assert thread_stats[1].forecasts == 2


def censuses(cluster):
    # The coordinator keeps no public accessor for its shard handles.
    return {shard_id: shard.census() for shard_id, shard in cluster._shards.items()}


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

    def test_unencodable_timestamp_raises_type_error_at_ingest(self):
        cluster = build_cluster(SPEC, n_shards=2, backend="process")
        try:
            row = np.zeros((1, CHANNELS))
            with pytest.raises(TypeError, match="cannot snapshot"):
                cluster.ingest("t", row, timestamp=object())
            assert cluster.tenants() == []
            cluster.ingest("t", np.zeros((INPUT_LENGTH, CHANNELS)), timestamp=1)
            assert forecasts(cluster)["t"].shape == (HORIZON, CHANNELS)
        finally:
            close(cluster)

    def test_timestamp_watermarks_follow_migration_and_restore(self, cluster, tmp_path):
        rng = np.random.default_rng(7)
        tenants = [f"tenant-{i}" for i in range(12)]
        for tenant in tenants:
            cluster.ingest(tenant, rng.normal(size=(1, CHANNELS)), timestamp=10)
        moved = cluster.add_shard()
        assert moved, "the new shard must adopt part of the ring"
        cluster.save(str(tmp_path / "ckpt"))
        revived = type(cluster).load(SPEC, str(tmp_path / "ckpt"))
        try:
            for tenant in tenants:
                row = rng.normal(size=(1, CHANNELS))
                for target in (cluster, revived):
                    with pytest.raises(ValueError, match="not after"):
                        target.ingest(tenant, row, timestamp=10)
                    target.ingest(tenant, row, timestamp=11)
            assert_same(forecasts(revived), forecasts(cluster))
        finally:
            close(revived)


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
            try:
                outcomes[backend] = live_ticks(cluster, config)
            finally:
                close(cluster)
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
            try:
                outcomes[backend] = handle_contract(cluster, config)
            finally:
                close(cluster)
        assert_same(outcomes["thread"], outcomes["process"])
