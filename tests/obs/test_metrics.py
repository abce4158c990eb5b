"""Unit and property tests for the ``repro.obs`` metrics primitives."""

import dataclasses
import gc
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    metrics_enabled,
    observability,
)
from repro.serving import ServiceStats
from repro.streaming import StoreStats


def counter_stats(kind):
    """Random instances of a ``CounterStats`` dataclass, every field drawn."""
    return st.builds(
        kind, **{field.name: st.integers(0, 10**9) for field in dataclasses.fields(kind)}
    )


# The default serving buckets: 1µs..60s at 5 buckets per decade, so the
# growth factor (== worst-case percentile relative error) is 10**0.2.
BUCKETS = log_buckets(1e-6, 60.0, per_decade=5)
GROWTH = 10.0 ** (1.0 / 5.0)


class TestSwitch:
    def test_disabled_instruments_record_nothing(self):
        counter, gauge, histogram = Counter("c"), Gauge("g"), Histogram("h", buckets=BUCKETS)
        with observability(metrics=False):
            assert not metrics_enabled()
            counter.inc()
            gauge.set(5.0)
            histogram.observe(1.0)
        assert metrics_enabled()
        assert counter.value == 0
        assert gauge.value == 0
        assert histogram.count == 0

    def test_observability_restores_previous_state(self):
        with observability(metrics=False):
            with observability(metrics=True):
                assert metrics_enabled()
            assert not metrics_enabled()
        assert metrics_enabled()


class TestInstruments:
    def test_counter_and_gauge_basics(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        gauge = Gauge("g")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3
        assert gauge.max_value == 7  # high-watermark survives the lower set
        gauge.reset()
        assert gauge.max_value == 0

    def test_histogram_tracks_count_sum_min_max(self):
        histogram = Histogram("h", buckets=BUCKETS)
        for value in (0.001, 0.01, 0.1):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.111)
        snapshot = histogram.snapshot()
        assert snapshot["min"] == pytest.approx(0.001)
        assert snapshot["max"] == pytest.approx(0.1)

    def test_empty_histogram_percentile_is_nan(self):
        assert math.isnan(Histogram("h", buckets=BUCKETS).percentile(50))

    def test_single_observation_percentiles_are_exact(self):
        histogram = Histogram("h", buckets=BUCKETS)
        histogram.observe(0.042)
        for q in (0, 50, 99, 100):
            # Clamping to [min, max] pins every percentile to the sample.
            assert histogram.percentile(q) == pytest.approx(0.042)

    def test_log_buckets_validation(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 0.5)


class TestPercentileProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=1e-5, max_value=50.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=400,
        ),
        q=st.floats(min_value=1.0, max_value=100.0),
    )
    # A sample just above a bucket's lower bound: the estimate is the upper
    # bound, which must not exceed exact * GROWTH by rounding.
    @example(samples=[1.0, 0.0001], q=1.0)
    def test_estimate_within_one_bucket_of_exact(self, samples, q):
        """Bucket interpolation lands within one bucket's relative error.

        The reference is ``np.percentile(..., method="inverted_cdf")``,
        whose rank convention the histogram mirrors: the exact value is
        then an order statistic guaranteed to lie in the same bucket as
        the estimate, so estimate/exact stays within the bucket growth
        factor ``10 ** (1/per_decade)``.
        """
        histogram = Histogram("h", buckets=BUCKETS)
        for sample in samples:
            histogram.observe(sample)
        estimate = histogram.percentile(q)
        exact = float(np.percentile(samples, q, method="inverted_cdf"))
        assert exact / GROWTH <= estimate <= exact * GROWTH

    @settings(max_examples=30, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=1e-5, max_value=50.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=200,
        )
    )
    def test_percentiles_monotone_and_bounded(self, samples):
        histogram = Histogram("h", buckets=BUCKETS)
        for sample in samples:
            histogram.observe(sample)
        estimates = [histogram.percentile(q) for q in (1, 25, 50, 75, 95, 99, 100)]
        assert estimates == sorted(estimates)
        assert min(samples) <= estimates[0]
        assert estimates[-1] <= max(samples)

    @settings(max_examples=60, deadline=None)
    @given(
        observations=st.lists(
            st.tuples(
                st.floats(min_value=1e-7, max_value=100.0, allow_nan=False, allow_infinity=False),
                st.integers(1, 64),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_weighted_observe_equals_repeated_observes(self, observations):
        """``observe(v, count=n)`` records what n single observes record."""
        weighted = Histogram("w", buckets=BUCKETS)
        repeated = Histogram("r", buckets=BUCKETS)
        with observability(metrics=True):
            for value, count in observations:
                weighted.observe(value, count=count)
                for _ in range(count):
                    repeated.observe(value)
        assert weighted.count == repeated.count
        assert weighted.bucket_counts() == repeated.bucket_counts()
        # n additions and one multiply round differently in the last bits.
        assert weighted.sum == pytest.approx(repeated.sum, rel=1e-12)
        for q in (0, 1, 25, 50, 75, 95, 99, 100):
            assert weighted.percentile(q) == repeated.percentile(q)
        snapshot_w, snapshot_r = weighted.snapshot(), repeated.snapshot()
        assert (snapshot_w["min"], snapshot_w["max"]) == (snapshot_r["min"], snapshot_r["max"])


class TestConcurrency:
    THREADS = 8
    PER_THREAD = 10_000

    def test_no_lost_counter_increments(self):
        counter = Counter("c")

        def worker():
            for _ in range(self.PER_THREAD):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == self.THREADS * self.PER_THREAD

    def test_no_lost_histogram_observations(self):
        histogram = Histogram("h", buckets=BUCKETS)
        values = [10 ** (-5 + (i % 50) / 10) for i in range(self.PER_THREAD)]

        def worker():
            for value in values:
                histogram.observe(value)

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == self.THREADS * self.PER_THREAD
        assert sum(histogram.bucket_counts()) == self.THREADS * self.PER_THREAD
        assert histogram.sum == pytest.approx(self.THREADS * sum(values), rel=1e-6)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h", labels=("op",)) is registry.histogram("h", labels=("op",))

    def test_kind_or_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("metric")
        with pytest.raises(ValueError):
            registry.gauge("metric")
        registry.histogram("labeled", labels=("op",))
        with pytest.raises(ValueError):
            registry.histogram("labeled", labels=("shard",))

    def test_labels_fan_out_to_independent_children(self):
        registry = MetricsRegistry()
        family = registry.counter("ops", labels=("op",))
        family.labels(op="add").inc(3)
        family.labels(op="remove").inc(1)
        assert family.labels(op="add").value == 3
        assert family.labels(op="remove").value == 1
        with pytest.raises(ValueError):
            family.labels(shard="x")

    def test_stats_view_merges_sum_and_max(self):
        registry = MetricsRegistry()
        first = ServiceStats(requests=3, largest_batch=8)
        second = ServiceStats(requests=5, largest_batch=4)
        registry.register_stats("repro_serving", lambda: first)
        registry.register_stats("repro_serving", lambda: second)
        views = registry.views_snapshot()
        assert views["repro_serving_requests"] == 8
        assert views["repro_serving_largest_batch"] == 8

    @settings(max_examples=100, deadline=None)
    @given(
        services=st.lists(counter_stats(ServiceStats), max_size=5),
        stores=st.lists(counter_stats(StoreStats), max_size=5),
    )
    def test_views_merge_like_counter_stats(self, services, stores):
        """The export's one sum-or-max rule is ``CounterStats.merge``'s."""
        registry = MetricsRegistry()
        for prefix, instances in (("repro_serving", services), ("repro_store", stores)):
            for stats in instances:
                registry.register_stats(prefix, lambda stats=stats: stats)
        views = registry.views_snapshot()
        for prefix, kind, instances in (
            ("repro_serving", ServiceStats, services),
            ("repro_store", StoreStats, stores),
        ):
            merged = kind.merge(instances)
            for field in dataclasses.fields(kind):
                key = f"{prefix}_{field.name}"
                if instances:
                    assert views[key] == getattr(merged, field.name)
                else:
                    assert key not in views
        if services:
            assert views["repro_serving_largest_batch"] == max(s.largest_batch for s in services)

    def test_dead_weakly_bound_view_is_pruned(self):
        class Owner:
            def snapshot(self):
                return {"requests": 1}

        registry = MetricsRegistry()
        owner = Owner()
        registry.register_stats("repro_x", owner.snapshot)
        assert registry.views_snapshot() == {"repro_x_requests": 1.0}
        del owner
        gc.collect()
        assert registry.views_snapshot() == {}

    def test_json_snapshot_is_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("c", "a counter").inc()
        registry.histogram("h", "a histogram", buckets=BUCKETS).observe(0.01)
        document = json.loads(json.dumps(registry.snapshot()))
        assert document["metrics"]["c"]["type"] == "counter"
        assert document["metrics"]["c"]["series"][0]["value"] == 1
        histogram_series = document["metrics"]["h"]["series"][0]
        assert histogram_series["count"] == 1
        assert histogram_series["p50"] == pytest.approx(0.01)

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_total", "help text").inc(2)
        family = registry.histogram("repro_h", labels=("op",), buckets=(0.1, 1.0))
        family.labels(op="x").observe(0.05)
        family.labels(op="x").observe(0.5)
        registry.register_stats("repro_view", lambda: {"field": 7})
        text = registry.prometheus()
        assert "# TYPE repro_total counter" in text
        assert "repro_total 2" in text
        assert '# TYPE repro_h histogram' in text
        assert 'repro_h_bucket{op="x",le="0.1"} 1' in text
        assert 'repro_h_bucket{op="x",le="+Inf"} 2' in text
        assert 'repro_h_count{op="x"} 2' in text
        assert "repro_view_field 7" in text

    def test_reset_zeroes_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        histogram = registry.histogram("h", buckets=BUCKETS)
        counter.inc(5)
        histogram.observe(1.0)
        registry.reset()
        assert counter.value == 0
        assert histogram.count == 0
