"""Property-style snapshot round-trips: ``to_state → from_state`` is identity.

Every codec the cluster's persistence and migration ride on is checked in
the states that historically break ring-style containers: partially
filled, exactly full, and wrapped-many-times buffers; Welford scalers
frozen mid-stream; and a whole forecaster whose restored incarnation must
keep forecasting bit-identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.data.incremental import RollingScaler
from repro.serving import ForecastService
from repro.streaming import SeriesStore, StreamingForecaster

_settings = settings(max_examples=40, deadline=None)


def empty_tenant_state(capacity, channels):
    """A zero-row payload: the only way to hold a tenant with no rows, since
    a zero-row ingest creates no tenant."""
    buffer = {
        "capacity": capacity,
        "n_channels": channels,
        "dtype": "float32",
        "data": np.zeros((0, channels), np.float32),
        "total_appended": 0,
    }
    return {"series": {"buffer": buffer, "last_timestamp": None, "generation": 0}, "scaler": None}


def filled_store(capacity, n_rows, channels=2, seed=0, moments=False):
    rng = np.random.default_rng(seed)
    store = SeriesStore(capacity, channels, moments=moments)
    rows = rng.normal(size=(n_rows, channels)).astype(np.float32)
    if n_rows:
        store.ingest("a", rows)
    else:
        store.restore_tenant("a", empty_tenant_state(capacity, channels))
    return store, rows


class TestTenantStateRoundTrip:
    @_settings
    @given(
        capacity=st.integers(min_value=1, max_value=32),
        n_rows=st.integers(min_value=0, max_value=100),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_roundtrip_identity_for_partial_full_and_wrapped(self, capacity, n_rows, seed):
        store, _ = filled_store(capacity, n_rows, seed=seed)
        clone = SeriesStore(capacity, 2)
        clone.restore_tenant("a", store.tenant_state("a"))
        assert clone.observed("a") == store.observed("a")
        for n in (0, 1, capacity // 2, capacity, capacity + 3):
            np.testing.assert_array_equal(clone.latest("a", n), store.latest("a", n))

    @_settings
    @given(
        capacity=st.integers(min_value=2, max_value=24),
        n_rows=st.integers(min_value=0, max_value=60),
        extra=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_restored_tenant_keeps_ingesting_identically(self, capacity, n_rows, extra, seed):
        """A snapshot must be invisible: append-after-restore == never-snapshotted."""
        store, _ = filled_store(capacity, n_rows, seed=seed, moments=True)
        clone = SeriesStore(capacity, 2, moments=True)
        clone.restore_tenant("a", store.tenant_state("a"))
        more = np.random.default_rng(seed + 1).normal(size=(extra, 2)).astype(np.float32)
        store.ingest("a", more)
        clone.ingest("a", more)
        np.testing.assert_array_equal(clone.latest("a", capacity), store.latest("a", capacity))
        assert clone.observed("a") == store.observed("a")
        want, got = store.scaler_state("a"), clone.scaler_state("a")
        assert got["count"] == want["count"]
        np.testing.assert_array_equal(got["mean"], want["mean"])
        np.testing.assert_array_equal(got["m2"], want["m2"])

    def test_state_normalises_to_logical_order(self):
        store, rows = filled_store(capacity=4, n_rows=7)
        buffer = store.tenant_state("a")["series"]["buffer"]
        np.testing.assert_array_equal(buffer["data"], rows[-4:])
        assert buffer["total_appended"] == 7

    def test_invalid_states_rejected(self):
        store, _ = filled_store(capacity=4, n_rows=3)
        state = store.tenant_state("a")
        buffer = state["series"]["buffer"]

        def with_buffer(**changes):
            return dict(state, series=dict(state["series"], buffer=dict(buffer, **changes)))

        target = SeriesStore(capacity=4, n_channels=2)
        with pytest.raises(ValueError, match="capacity"):
            target.restore_tenant("a", with_buffer(capacity=2))          # held rows > capacity
        with pytest.raises(ValueError, match="capacity"):
            target.restore_tenant("a", with_buffer(data=np.zeros((5, 2))))
        with pytest.raises(ValueError, match="total_appended"):
            target.restore_tenant("a", with_buffer(total_appended=1))    # total < held
        with pytest.raises(ValueError, match="store is"):
            target.restore_tenant("a", with_buffer(capacity=8))          # geometry mismatch
        with pytest.raises(ValueError, match="store is"):
            target.restore_tenant("a", with_buffer(n_channels=3))
        with pytest.raises(ValueError, match="shape"):
            target.restore_tenant("a", with_buffer(data=np.zeros((3, 3))))
        assert target.tenants() == [], "a refused payload leaves nothing behind"

    def test_invalid_moments_rejected(self):
        store, _ = filled_store(capacity=4, n_rows=3, moments=True)
        state = store.tenant_state("a")
        target = SeriesStore(capacity=4, n_channels=2, moments=True)
        for bad in (
            dict(state["scaler"], count=-1),
            dict(state["scaler"], mean=None),
            dict(state["scaler"], m2=np.zeros(3)),
        ):
            with pytest.raises(ValueError, match="scaler"):
                target.restore_tenant("a", dict(state, scaler=bad))
        with pytest.raises(ValueError, match="keeps none"):
            SeriesStore(capacity=4, n_channels=2).restore_tenant("a", state)
        assert target.tenants() == []


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_VECTORS = st.one_of(
    st.none(),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3), elements=_FLOATS),
    st.lists(_FLOATS, max_size=3),
    st.text(max_size=2),
)
#: what each field of a tenant's scaler state may be replaced with
_SCALER_FIELDS = {
    "eps": st.one_of(_FLOATS, st.integers(-2, 2), st.none(), st.text(max_size=2)),
    "count": st.one_of(st.integers(-3, 6), st.floats(-1, 6), st.none()),
    "mean": _VECTORS,
    "m2": _VECTORS,
}


@st.composite
def scaler_states(draw):
    """A well-formed two-channel scaler state with each field kept,
    dropped or replaced by an arbitrary value."""
    state = {"eps": 1e-8, "count": 3, "mean": np.array([0.5, -1.0]), "m2": np.array([2.0, 0.25])}
    for key, values in _SCALER_FIELDS.items():
        choice = draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
        if choice == "drop":
            del state[key]
        elif choice == "replace":
            state[key] = draw(values)
    return state


def assert_same_scaler_state(got, want):
    """Exact equality, bit for bit, of a scaler state and the one it was read from."""
    assert (got["eps"], got["count"]) == (want["eps"], want["count"])
    for key in ("mean", "m2"):
        if want[key] is None:
            assert got[key] is None
        else:
            expected = np.asarray(want[key], dtype=np.float64)
            assert got[key].shape == expected.shape
            assert got[key].tobytes() == expected.tobytes()


class TestRestoredMomentsFuzz:
    @settings(max_examples=300, deadline=None)
    @given(scaler=scaler_states())
    def test_malformed_moments_raise_or_round_trip_exactly(self, scaler):
        """A tenant payload's scaler state crosses a trust boundary: the
        accumulator and the store each refuse it with ValueError, or
        restore exactly the moments it carries, and only well-formed ones."""
        try:
            accepted = RollingScaler.from_state(scaler)
        except ValueError:
            accepted = None
        else:
            state = accepted.to_state()
            assert_same_scaler_state(state, scaler)
            assert state["count"] >= 0 and 0 <= state["eps"] < float("inf")
            assert (state["mean"] is None) == (state["count"] == 0)
        store, _ = filled_store(capacity=4, n_rows=3, moments=True)
        target = SeriesStore(capacity=4, n_channels=2, moments=True)
        try:
            target.restore_tenant("a", dict(store.tenant_state("a"), scaler=scaler))
        except ValueError:
            assert target.tenants() == [], "a refused payload leaves nothing behind"
            return
        assert accepted is not None, "the store accepted a state the accumulator refuses"
        assert_same_scaler_state(target.scaler_state("a"), scaler)


class TestRollingScalerRoundTrip:
    @_settings
    @given(
        n_chunks=st.integers(min_value=0, max_value=6),
        chunk_rows=st.integers(min_value=1, max_value=20),
        channels=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_midstream_welford_moments_roundtrip_exactly(self, n_chunks, chunk_rows, channels, seed):
        rng = np.random.default_rng(seed)
        scaler = RollingScaler()
        for _ in range(n_chunks):
            scaler.update(rng.normal(size=(chunk_rows, channels)) * 10.0 + 5.0)
        clone = RollingScaler.from_state(scaler.to_state())
        assert clone.n_seen == scaler.n_seen
        if scaler.n_seen == 0:
            with pytest.raises(RuntimeError, match="no data"):
                clone.std_
            return
        np.testing.assert_array_equal(clone.mean_, scaler.mean_)
        np.testing.assert_array_equal(clone.std_, scaler.std_)

    @_settings
    @given(seed=st.integers(min_value=0, max_value=999))
    def test_restored_scaler_continues_identically(self, seed):
        """update-after-restore must equal an uninterrupted scaler, bitwise."""
        rng = np.random.default_rng(seed)
        scaler = RollingScaler().update(rng.normal(size=(17, 3)) * 4.0)
        clone = RollingScaler.from_state(scaler.to_state())
        more = rng.normal(size=(9, 3)) * 40.0 + 100.0
        scaler.update(more)
        clone.update(more)
        np.testing.assert_array_equal(clone.mean_, scaler.mean_)
        np.testing.assert_array_equal(clone.std_, scaler.std_)
        probe = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(clone.transform(probe), scaler.transform(probe))

    def test_state_is_a_defensive_copy(self):
        scaler = RollingScaler().update(np.ones((3, 2)))
        state = scaler.to_state()
        state["mean"][:] = 999.0
        assert float(scaler.mean_[0]) == 1.0


class TestSeriesStoreRoundTrip:
    def test_restore_tenant_rejects_geometry_mismatch_and_duplicates(self, rng):
        source = SeriesStore(capacity=8, n_channels=2)
        source.ingest("a", rng.normal(size=(4, 2)))
        state = source.tenant_state("a")
        narrow = SeriesStore(capacity=8, n_channels=1)
        with pytest.raises(ValueError, match="store is"):
            narrow.restore_tenant("a", state)
        target = SeriesStore(capacity=8, n_channels=2)
        target.restore_tenant("a", state)
        with pytest.raises(ValueError, match="already exists"):
            target.restore_tenant("a", state)


class TestForecasterRoundTrip:
    @pytest.fixture
    def service_factory(self):
        config = ModelConfig(
            input_length=16, horizon=4, n_channels=2, patch_length=4,
            hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1,
        )
        return lambda: ForecastService(LiPFormer(config), max_batch_size=8)

    @pytest.mark.parametrize("normalization", ["none", "rolling"])
    def test_restored_forecaster_is_bit_identical_per_mode(
        self, service_factory, normalization, rng
    ):
        original = StreamingForecaster(service_factory(), normalization=normalization)
        for i in range(4):
            original.ingest(
                f"tenant-{i}", rng.normal(size=(20 + 13 * i, 2)).astype(np.float32) * (i + 1)
            )
        clone = StreamingForecaster.from_state(service_factory(), original.to_state())
        # Shared follow-up traffic, then every forecast must match bitwise
        # (windows, watermarks AND normalisation statistics travelled).
        for i in range(4):
            arrival = rng.normal(size=(2, 2)).astype(np.float32)
            original.ingest(f"tenant-{i}", arrival)
            clone.ingest(f"tenant-{i}", arrival)
        want = {t: h.result() for t, h in original.forecast_all().items()}
        got = {t: h.result() for t, h in clone.forecast_all().items()}
        assert set(got) == set(want)
        for tenant in want:
            np.testing.assert_array_equal(got[tenant], want[tenant])

    def test_roundtrip_preserves_order_stats_watermarks_and_generations(
        self, service_factory, rng
    ):
        original = StreamingForecaster(service_factory(), normalization="rolling")
        for i, tenant in enumerate(["b", "a", "c"]):   # deliberately not sorted
            original.ingest(tenant, rng.normal(size=(3 * i + 1, 2)), timestamp=i)
        original.drop("a")
        original.ingest("a", rng.normal(size=(2, 2)), timestamp=9)   # generation 1
        original.forecast_all()
        clone = StreamingForecaster.from_state(service_factory(), original.to_state())
        store, restored = original.store, clone.store
        assert restored.tenants() == store.tenants() == ["b", "c", "a"]
        assert restored.stats == store.stats
        assert restored.generation("a") == 1
        for tenant in store.tenants():
            np.testing.assert_array_equal(restored.latest(tenant, 64), store.latest(tenant, 64))
            assert restored.last_timestamp(tenant) == store.last_timestamp(tenant)
            assert restored.generation(tenant) == store.generation(tenant)

    def test_restored_forecaster_starts_clean(self, service_factory, rng):
        original = StreamingForecaster(service_factory())
        original.ingest("a", rng.normal(size=(2, 2)))
        clone = StreamingForecaster.from_state(service_factory(), original.to_state())
        assert clone.store.dirty_tenants() == []
        assert clone.to_state(delta=True)["tenants"] == {"a": None}

    def test_delta_state_lists_every_tenant_and_carries_only_churn(self, service_factory, rng):
        original = StreamingForecaster(service_factory(), normalization="rolling")
        for tenant in ("a", "b", "c"):
            original.ingest(tenant, rng.normal(size=(3, 2)))
        original.clear_dirty()
        original.ingest("b", rng.normal(size=(1, 2)))
        original.drop("c")
        delta = original.to_state(delta=True)
        assert list(delta["tenants"]) == ["a", "b"]
        assert delta["tenants"]["a"] is None
        assert delta["tenants"]["b"]["series"]["buffer"]["total_appended"] == 4
        with pytest.raises(ValueError, match="no payload"):
            StreamingForecaster.from_state(service_factory(), delta)

    def test_export_import_moves_one_tenant_exactly(self, service_factory, rng):
        source = StreamingForecaster(service_factory(), normalization="rolling")
        values = rng.normal(size=(30, 2)).astype(np.float32) * 7.0 + 3.0
        source.ingest("mover", values)
        target = StreamingForecaster(service_factory(), normalization="rolling")
        target.import_tenant("mover", source.export_tenant("mover"))
        np.testing.assert_array_equal(
            target.store.latest("mover", 16), source.store.latest("mover", 16)
        )
        np.testing.assert_array_equal(
            target.scaler("mover").mean_, source.scaler("mover").mean_
        )
        np.testing.assert_array_equal(
            target.forecast("mover").result(), source.forecast("mover").result()
        )
