"""Tests for the multi-tenant slab series store."""

import numpy as np
import pytest

from repro.streaming import SeriesStore


def rows(start, count, channels=2):
    """Distinct, recognisable [count, channels] rows."""
    base = np.arange(start, start + count, dtype=np.float32)
    return np.stack([base + 100 * c for c in range(channels)], axis=1)


class TestSlotRing:
    """One tenant's ring inside the slab, through the store's public reads."""

    def test_fill_and_latest_chronological(self):
        store = SeriesStore(capacity=8, n_channels=2)
        store.ingest("a", rows(0, 5))
        assert len(store.latest("a", 8)) == 5
        np.testing.assert_array_equal(store.latest("a", 3), rows(2, 3))

    def test_wraparound_keeps_newest(self):
        store = SeriesStore(capacity=8, n_channels=2)
        for start in range(0, 20, 3):          # chunks of 3 across the wrap point
            store.ingest("a", rows(start, 3))
        assert len(store.latest("a", 64)) == 8
        assert store.observed("a") == 21
        np.testing.assert_array_equal(store.latest("a", 8), rows(13, 8))

    def test_chunk_larger_than_capacity_keeps_tail(self):
        store = SeriesStore(capacity=4, n_channels=2)
        store.ingest("a", rows(0, 2))
        store.ingest("a", rows(2, 10))
        np.testing.assert_array_equal(store.latest("a", 4), rows(8, 4))
        assert store.observed("a") == 12

    def test_no_reallocation_across_appends(self):
        store = SeriesStore(capacity=6, n_channels=1)
        store.ingest("a", rows(0, 1, channels=1))
        backing = store._slab
        for start in range(1, 100):
            store.ingest("a", rows(start, 1, channels=1))
        assert store._slab is backing, "a known tenant's appends must never reallocate the slab"

    def test_slab_grows_for_new_tenants_and_reuses_dropped_slots(self):
        store = SeriesStore(capacity=3, n_channels=2)
        for t in range(20):
            store.ingest(f"t{t}", rows(10 * t, 2 + t % 3))
        for t in range(0, 20, 2):
            store.drop(f"t{t}")
        backing = store._slab
        for t in range(0, 20, 2):
            store.ingest(f"new{t}", rows(500 + t, 1))
        assert store._slab is backing, "re-created tenants reuse dropped slots"
        for t in range(1, 20, 2):
            held = min(3, 2 + t % 3)
            np.testing.assert_array_equal(store.latest(f"t{t}", 3), rows(10 * t + 2 + t % 3 - held, held))
        for t in range(0, 20, 2):
            np.testing.assert_array_equal(store.latest(f"new{t}", 3), rows(500 + t, 1))

    def test_latest_clamps_to_size_and_copies(self):
        store = SeriesStore(capacity=8, n_channels=2)
        store.ingest("a", rows(0, 3))
        window = store.latest("a", 10)
        assert window.shape == (3, 2)
        window[:] = -1                       # mutating the copy ...
        np.testing.assert_array_equal(store.latest("a", 3), rows(0, 3))  # ... leaves the ring intact

    def test_single_row_and_empty_append(self):
        store = SeriesStore(capacity=4, n_channels=3)
        store.ingest("a", np.arange(3, dtype=np.float32))     # 1-D row
        store.ingest("a", np.zeros((0, 3), dtype=np.float32))
        assert len(store.latest("a", 4)) == 1 and store.observed("a") == 1

    def test_rejects_bad_shapes_and_sizes(self):
        with pytest.raises(ValueError):
            SeriesStore(capacity=0, n_channels=1)
        store = SeriesStore(capacity=4, n_channels=2)
        with pytest.raises(ValueError):
            store.ingest("a", np.zeros((3, 5)))
        store.ingest("a", rows(0, 1))
        with pytest.raises(ValueError):
            store.latest("a", -1)


class TestSeriesStore:
    def test_lazy_tenant_creation_and_isolation(self):
        store = SeriesStore(capacity=8, n_channels=2)
        store.ingest("a", rows(0, 4))
        store.ingest("b", rows(50, 2))
        assert store.tenants() == ["a", "b"]
        np.testing.assert_array_equal(store.latest("a", 4), rows(0, 4))
        np.testing.assert_array_equal(store.latest("b", 4), rows(50, 2))

    def test_ingest_returns_running_total(self):
        store = SeriesStore(capacity=4, n_channels=2)
        assert store.ingest("a", rows(0, 3)) == 3
        assert store.ingest("a", rows(3, 3)) == 6
        assert store.observed("a") == 6
        assert store.observed("missing") == 0

    def test_timestamps_must_increase_per_tenant(self):
        store = SeriesStore(capacity=8, n_channels=1)
        store.ingest("a", rows(0, 1, channels=1), timestamp=10)
        store.ingest("b", rows(0, 1, channels=1), timestamp=5)   # other tenant: fine
        store.ingest("a", rows(1, 1, channels=1), timestamp=11)
        with pytest.raises(ValueError, match="not after"):
            store.ingest("a", rows(2, 1, channels=1), timestamp=11)
        assert store.last_timestamp("a") == 11
        assert store.observed("a") == 2  # rejected rows were not appended
        np.testing.assert_array_equal(store.latest("a", 4), rows(0, 2, channels=1))

    def test_stats_track_evictions(self):
        store = SeriesStore(capacity=4, n_channels=1)
        store.ingest("a", rows(0, 3, channels=1))
        store.ingest("a", rows(3, 3, channels=1))
        assert store.stats.observations == 6
        assert store.stats.evicted == 2
        assert store.stats.tenants == 1
        assert store.stats.ingests == 2

    def test_drop_forgets_tenant(self):
        store = SeriesStore(capacity=4, n_channels=1)
        store.ingest("a", rows(0, 2, channels=1), timestamp=1)
        store.drop("a")
        assert "a" not in store
        assert store.last_timestamp("a") is None
        assert store.observed("a") == 0
        with pytest.raises(KeyError):
            store.latest("a", 1)
        store.ingest("a", rows(0, 1, channels=1), timestamp=0)  # watermark reset too

    def test_unknown_tenant_latest_raises(self):
        store = SeriesStore(capacity=4, n_channels=1)
        with pytest.raises(KeyError, match="unknown tenant"):
            store.latest("ghost", 2)

    def test_rejected_ingest_leaves_no_phantom_tenant(self):
        store = SeriesStore(capacity=4, n_channels=2)
        with pytest.raises(ValueError):
            store.ingest("bad", np.zeros((3, 5)))
        assert "bad" not in store
        assert store.tenants() == []
        assert store.stats.tenants == 0


class TestDirtyTracking:
    """Churn bookkeeping that incremental checkpoints ride on."""

    def test_ingest_marks_dirty_in_first_seen_order(self):
        store = SeriesStore(capacity=4, n_channels=1)
        store.ingest("b", rows(0, 1, channels=1))
        store.ingest("a", rows(0, 1, channels=1))
        store.ingest("b", rows(1, 1, channels=1))
        assert store.dirty_tenants() == ["b", "a"]

    def test_mark_clean_resets_until_next_mutation(self):
        store = SeriesStore(capacity=4, n_channels=1)
        store.ingest("a", rows(0, 2, channels=1))
        store.mark_clean()
        assert store.dirty_tenants() == []
        store.ingest("a", rows(2, 1, channels=1))
        assert store.dirty_tenants() == ["a"]

    def test_drop_removes_from_dirty_set(self):
        store = SeriesStore(capacity=4, n_channels=1)
        store.ingest("a", rows(0, 1, channels=1))
        store.drop("a")
        assert store.dirty_tenants() == []

    def test_adopted_tenant_is_dirty(self):
        source = SeriesStore(capacity=4, n_channels=1)
        source.ingest("a", rows(0, 2, channels=1))
        target = SeriesStore(capacity=4, n_channels=1)
        target.restore_tenant("a", source.tenant_state("a"))
        assert target.dirty_tenants() == ["a"]

    def test_stats_snapshot_is_a_detached_copy(self):
        store = SeriesStore(capacity=4, n_channels=1)
        store.ingest("a", rows(0, 2, channels=1))
        snapshot = store.stats_snapshot()
        assert snapshot == store.stats
        store.ingest("a", rows(2, 1, channels=1))
        assert snapshot.observations == 2
        assert store.stats.observations == 3

    def test_generation_bumps_on_recreation_and_travels(self):
        store = SeriesStore(capacity=4, n_channels=1)
        store.ingest("a", rows(0, 2, channels=1))
        assert store.generation("a") == 0
        store.drop("a")
        store.ingest("a", rows(0, 2, channels=1))
        assert store.generation("a") == 1
        # The incarnation number rides the tenant codec, which migration
        # and snapshots share (the snapshot side is covered in
        # test_state_roundtrip.py).
        target = SeriesStore(capacity=4, n_channels=1)
        target.restore_tenant("a", store.tenant_state("a"))
        assert target.generation("a") == 1


class TestGather:
    """The batched store gather against per-tenant ``latest`` and against
    the raw appended history (randomized shapes)."""

    @pytest.mark.parametrize("channels", [1, 7])
    def test_gather_matches_latest_per_tenant(self, channels):
        rng = np.random.default_rng(channels)
        for _ in range(100):
            capacity = int(rng.integers(1, 12))
            n = int(rng.integers(1, capacity + 1))     # input_length <= capacity
            store = SeriesStore(capacity=capacity, n_channels=channels)
            history = {}
            for t in range(int(rng.integers(1, 6))):
                tenant = f"t{t}"
                # Chunk sizes cover cold starts (< n), exactly-full rings,
                # wraps, and single chunks at least as long as capacity.
                chunks = [
                    rng.normal(size=(int(rng.integers(1, 2 * capacity + 2)), channels))
                    for _ in range(int(rng.integers(1, 4)))
                ]
                if rng.random() < 0.2:
                    chunks = [rng.normal(size=(capacity, channels))]
                for chunk in chunks:
                    store.ingest(tenant, chunk)
                history[tenant] = np.concatenate(chunks).astype(np.float32)
            tenants = list(rng.permutation(list(history)))
            found, windows, lengths, moments = store.gather(tenants, n)
            assert moments is None
            assert found == list(range(len(tenants)))
            assert windows.shape == (len(tenants), n, channels)
            assert windows.dtype == np.float32
            for row, tenant in enumerate(tenants):
                expected = history[tenant][-min(n, capacity, len(history[tenant])):]
                reference = store.latest(tenant, n)
                np.testing.assert_array_equal(reference, expected)
                assert lengths[row] == len(expected)
                np.testing.assert_array_equal(windows[row, n - len(expected):], expected)
                assert not windows[row, : n - len(expected)].any()

    def test_unknown_tenant_raises_or_is_skipped(self):
        store = SeriesStore(capacity=4, n_channels=2)
        store.ingest("a", rows(0, 3))
        store.ingest("b", rows(10, 5))
        with pytest.raises(KeyError, match="ghost"):
            store.gather(["a", "ghost", "b"], 4)
        found, windows, lengths, _ = store.gather(["a", "ghost", "b"], 4, skip_missing=True)
        assert found == [0, 2]
        assert lengths.tolist() == [3, 4]
        np.testing.assert_array_equal(windows[1], rows(11, 4))

    def test_duplicate_tenants_get_one_row_each(self):
        store = SeriesStore(capacity=4, n_channels=2)
        store.ingest("a", rows(0, 2))
        _, windows, lengths, _ = store.gather(["a", "a"], 3)
        assert lengths.tolist() == [2, 2]
        np.testing.assert_array_equal(windows[0], windows[1])
