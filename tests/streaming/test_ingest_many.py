"""Columnar ingest parity: ``ingest_many`` against one ``ingest`` per entry.

A batch applies each entry on its own (ring append, watermark, counters,
Welford fold), so for any batch — repeated tenants, ring wraps, empty
entries, timestamps — the store and scaler state must come out bit for
bit what the per-call loop leaves behind.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import ForecastService
from repro.streaming import SeriesStore, StreamingForecaster

CONFIG = ModelConfig(
    input_length=8, horizon=2, n_channels=3, patch_length=4, hidden_dim=8,
    dropout=0.0, n_heads=2, n_layers=1, seed=3,
)
MODEL = LiPFormer(CONFIG)


def forecaster(normalization):
    return StreamingForecaster(
        ForecastService(MODEL), normalization=normalization, window_capacity=10
    )


@st.composite
def batches(draw):
    """A history of batches: each entry (tenant, row count)."""
    return [
        draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 14)), min_size=1, max_size=8))
        for _ in range(draw(st.integers(1, 4)))
    ]


def assert_same_state(left, right):
    a, b = left.to_state(), right.to_state()
    assert a["store_stats"] == b["store_stats"]
    assert list(a["tenants"]) == list(b["tenants"])
    for tenant, payload in a["tenants"].items():
        series, other = payload["series"], b["tenants"][tenant]["series"]
        assert series["buffer"]["total_appended"] == other["buffer"]["total_appended"]
        assert np.array_equal(series["buffer"]["data"], other["buffer"]["data"])
        assert series["last_timestamp"] == other["last_timestamp"]
        assert series["generation"] == other["generation"]
        scaler, other = payload["scaler"], b["tenants"][tenant]["scaler"]
        assert (scaler is None) == (other is None)
        if scaler is not None:
            assert scaler["count"] == other["count"]
            assert np.array_equal(scaler["mean"], other["mean"])
            assert np.array_equal(scaler["m2"], other["m2"])


class TestParityWithPerCallIngest:
    @settings(max_examples=40, deadline=None)
    @given(
        history=batches(),
        normalization=st.sampled_from(["none", "rolling"]),
        stamped=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_batches_match_one_ingest_per_entry(self, history, normalization, stamped, seed):
        rng = np.random.default_rng(seed)
        batched, looped = forecaster(normalization), forecaster(normalization)
        clock = 0
        for batch in history:
            tenants = [f"t{tenant}" for tenant, _ in batch]
            counts = [count for _, count in batch]
            values = (rng.standard_normal((sum(counts), CONFIG.n_channels)) * 50).astype(
                np.float32
            )
            timestamps = None
            if stamped:
                timestamps = list(range(clock, clock + len(batch)))
                clock += len(batch)
            totals, generations = batched.ingest_many(tenants, counts, values, timestamps)
            start = 0
            for index, (tenant, count) in enumerate(zip(tenants, counts)):
                stamp = None if timestamps is None else timestamps[index]
                total = looped.ingest(tenant, values[start:start + count], timestamp=stamp)
                assert totals[index] == total
                assert generations[index] == looped.store.generation(tenant)
                start += count
        assert_same_state(batched, looped)


class TestValidation:
    def test_out_of_order_entry_rejects_the_whole_batch(self):
        store = SeriesStore(capacity=8, n_channels=2)
        store.ingest("a", np.zeros((1, 2)), timestamp=5)
        with pytest.raises(ValueError, match="not after"):
            store.ingest_many(
                ["b", "a", "a"], [1, 1, 1], np.ones((3, 2)), timestamps=[1, 6, 6]
            )
        assert store.tenants() == ["a"]
        assert store.observed("a") == 1
        assert store.last_timestamp("a") == 5
        assert store.stats.ingests == 1

    @pytest.mark.parametrize(
        "counts, values",
        [([1, 1], np.zeros((3, 2))), ([2, -1], np.zeros((1, 2))), ([1], np.zeros((1, 3)))],
    )
    def test_malformed_batches_raise_before_any_append(self, counts, values):
        store = SeriesStore(capacity=8, n_channels=2)
        with pytest.raises(ValueError):
            store.ingest_many(["a"] * len(counts), counts, values)
        assert store.tenants() == []
