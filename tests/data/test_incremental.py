"""Tests for the incremental RollingScaler against the offline StandardScaler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data import RollingScaler, StandardScaler


class TestWelfordMatchesOfflineFit:
    def test_chunked_ingest_matches_fit(self, rng):
        data = rng.standard_normal((400, 3)) * 7 + 42
        offline = StandardScaler().fit(data)
        rolling = RollingScaler()
        for start in range(0, len(data), 37):      # ragged chunk sizes
            rolling.update(data[start:start + 37])
        np.testing.assert_allclose(rolling.mean_, offline.mean_, rtol=1e-12)
        np.testing.assert_allclose(rolling.std_, offline.std_, rtol=1e-10)
        assert rolling.n_seen == 400

    def test_row_at_a_time_matches_fit(self, rng):
        data = rng.standard_normal((100, 2)) * 3 - 5
        rolling = RollingScaler()
        for row in data:
            rolling.update(row)                    # 1-D single observations
        offline = StandardScaler().fit(data)
        np.testing.assert_allclose(rolling.mean_, offline.mean_, rtol=1e-12)
        np.testing.assert_allclose(rolling.std_, offline.std_, rtol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        data=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(2, 60), st.integers(1, 4)),
            # Quantised to 1e-3 so per-channel spreads are either exactly 0
            # (both scalers floor the std) or far above the 1e-8 eps floor —
            # a spread straddling eps would flake on round-off alone.
            elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).map(
                lambda v: float(np.round(v, 3))
            ),
        ),
        n_chunks=st.integers(1, 5),
    )
    def test_property_any_chunking_matches_fit(self, data, n_chunks):
        """Statistics are invariant to how the stream was chunked."""
        rolling = RollingScaler()
        for chunk in np.array_split(data, n_chunks):
            rolling.update(chunk)
        offline = StandardScaler().fit(data)
        np.testing.assert_allclose(rolling.mean_, offline.mean_, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(rolling.std_, offline.std_, rtol=1e-7, atol=1e-9)

    def test_constant_channel_floors_std_like_standard_scaler(self):
        data = np.ones((30, 2))
        rolling = RollingScaler().update(data)
        offline = StandardScaler().fit(data)
        np.testing.assert_array_equal(rolling.std_, offline.std_)
        assert np.all(np.isfinite(rolling.transform(data)))


def _chunk_update(count, mean, m2, values):
    """The chunk (Chan et al.) update as ``update`` runs it for T >= 2 rows —
    the reference the single-row fast path must match bit for bit."""
    chunk_count = len(values)
    chunk_mean = values.mean(axis=0)
    chunk_m2 = ((values - chunk_mean) ** 2).sum(axis=0)
    total = count + chunk_count
    delta = chunk_mean - mean
    mean = mean + delta * (chunk_count / total)
    m2 = m2 + chunk_m2 + delta**2 * (count * chunk_count / total)
    return total, mean, m2


class TestSingleRowFastPath:
    @settings(max_examples=60, deadline=None)
    @given(
        channels=st.sampled_from([1, 7]),
        prefix_rows=st.integers(0, 40),
        magnitude=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 12),
    )
    def test_single_rows_match_the_chunk_formula_bitwise(
        self, channels, prefix_rows, magnitude, seed, rows
    ):
        rng = np.random.default_rng(seed)
        prefix = rng.standard_normal((prefix_rows, channels)) * magnitude + magnitude
        scaler = RollingScaler()
        count, mean, m2 = 0, np.zeros(channels), np.zeros(channels)
        if prefix_rows:
            scaler.update(prefix)
            count, mean, m2 = _chunk_update(count, mean, m2, prefix)
        for _ in range(rows):
            row = rng.standard_normal(channels) * magnitude
            # Alternate the two single-row shapes update() accepts.
            scaler.update(row if rng.integers(2) else row[None, :])
            count, mean, m2 = _chunk_update(count, mean, m2, row[None, :])
        state = scaler.to_state()
        assert state["count"] == count
        assert np.array_equal(state["mean"], mean)
        assert np.array_equal(state["m2"], m2)


class TestTransformContract:
    def test_transform_matches_standard_scaler(self, rng):
        data = rng.standard_normal((200, 3)) * 11 + 2
        rolling = RollingScaler().update(data)
        offline = StandardScaler().fit(data)
        np.testing.assert_allclose(rolling.transform(data), offline.transform(data),
                                   rtol=1e-6, atol=1e-6)
        assert rolling.transform(data).dtype == np.float32

    def test_inverse_round_trip_keeps_float64_precision(self, rng):
        data = rng.standard_normal((150, 2)) * 4 + 1e8   # large-magnitude channel
        rolling = RollingScaler().update(data)
        restored = rolling.inverse_transform(rolling.transform(data))
        assert restored.dtype == np.float64
        np.testing.assert_allclose(restored, data, rtol=1e-6)

    def test_to_standard_scaler_freezes_statistics(self, rng):
        data = rng.standard_normal((80, 2)) * 2 + 9
        rolling = RollingScaler().update(data)
        frozen = rolling.to_standard_scaler()
        probe = rng.standard_normal((10, 2))
        np.testing.assert_array_equal(frozen.transform(probe), rolling.transform(probe))
        rolling.update(rng.standard_normal((80, 2)) + 100)   # drift the live scaler
        assert not np.allclose(frozen.mean_, rolling.mean_)
        np.testing.assert_array_equal(frozen.transform(probe), frozen.transform(probe))


class TestValidation:
    def test_unfitted_access_raises(self):
        scaler = RollingScaler()
        with pytest.raises(RuntimeError):
            scaler.transform(np.ones((3, 2)))
        with pytest.raises(RuntimeError):
            _ = scaler.mean_
        assert scaler.n_channels is None

    def test_channel_mismatch_raises(self):
        scaler = RollingScaler().update(np.ones((4, 2)))
        with pytest.raises(ValueError, match="channels"):
            scaler.update(np.ones((4, 3)))

    def test_bad_ndim_raises(self):
        with pytest.raises(ValueError):
            RollingScaler().update(np.ones((2, 2, 2)))

    def test_empty_update_is_a_noop(self):
        scaler = RollingScaler()
        scaler.update(np.zeros((0, 3)))
        assert scaler.n_seen == 0
