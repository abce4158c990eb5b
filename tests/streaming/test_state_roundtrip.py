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

from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.data.incremental import RollingScaler
from repro.serving import ForecastService
from repro.streaming import RingBuffer, SeriesStore, StreamingForecaster

_settings = settings(max_examples=40, deadline=None)


def filled_buffer(capacity, n_rows, channels=2, seed=0):
    rng = np.random.default_rng(seed)
    buffer = RingBuffer(capacity, channels)
    rows = rng.normal(size=(n_rows, channels)).astype(np.float32)
    buffer.extend(rows)
    return buffer, rows


class TestRingBufferRoundTrip:
    @_settings
    @given(
        capacity=st.integers(min_value=1, max_value=32),
        n_rows=st.integers(min_value=0, max_value=100),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_roundtrip_identity_for_partial_full_and_wrapped(self, capacity, n_rows, seed):
        buffer, _ = filled_buffer(capacity, n_rows, seed=seed)
        clone = RingBuffer.from_state(buffer.to_state())
        assert len(clone) == len(buffer)
        assert clone.capacity == buffer.capacity
        assert clone.total_appended == buffer.total_appended
        for n in (0, 1, capacity // 2, capacity, capacity + 3):
            np.testing.assert_array_equal(clone.latest(n), buffer.latest(n))

    @_settings
    @given(
        capacity=st.integers(min_value=2, max_value=24),
        n_rows=st.integers(min_value=0, max_value=60),
        extra=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_restored_buffer_keeps_ingesting_identically(self, capacity, n_rows, extra, seed):
        """A snapshot must be invisible: append-after-restore == never-snapshotted."""
        buffer, _ = filled_buffer(capacity, n_rows, seed=seed)
        clone = RingBuffer.from_state(buffer.to_state())
        more = np.random.default_rng(seed + 1).normal(size=(extra, 2)).astype(np.float32)
        buffer.extend(more)
        clone.extend(more)
        np.testing.assert_array_equal(clone.latest(capacity), buffer.latest(capacity))
        assert clone.total_appended == buffer.total_appended

    def test_state_normalises_to_logical_order(self):
        buffer, rows = filled_buffer(capacity=4, n_rows=7)
        state = buffer.to_state()
        np.testing.assert_array_equal(state["data"], rows[-4:])
        assert state["total_appended"] == 7

    def test_invalid_states_rejected(self):
        buffer, _ = filled_buffer(capacity=4, n_rows=3)
        state = buffer.to_state()
        too_big = dict(state, capacity=2)
        with pytest.raises(ValueError, match="capacity"):
            RingBuffer.from_state(too_big)
        negative_total = dict(state, total_appended=1)
        with pytest.raises(ValueError, match="total_appended"):
            RingBuffer.from_state(negative_total)


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

    @pytest.mark.parametrize("normalization", ["none", "rolling", "last_value"])
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
        assert clone.stats == original.stats
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
