"""Acceptance tests: traced cluster fan-out and stats/metrics agreement.

A traced :meth:`ShardedForecaster.forecast_all` over two shards, collected
inline or on a thread pool, must yield one coherent span tree — cluster →
shard → service flush → batch assembly → compiled plan replay — and the
Chrome trace-event export of that tree must be valid as-is.  Separately,
the registry-backed ``*Stats`` views must agree with ``stats_snapshot()``
so the JSON/Prometheus exports can never drift from the objects they
mirror.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.cluster import ShardedForecaster
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import ForecastService

INPUT_LENGTH = 32
HORIZON = 8


@pytest.fixture
def cluster():
    config = ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=1, patch_length=8,
        hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1,
    )
    return ShardedForecaster(
        lambda: ForecastService(LiPFormer(config), max_batch_size=8), n_shards=2
    )


def _populate(cluster, rng, n_tenants=12):
    for i in range(n_tenants):
        cluster.ingest(f"tenant-{i}", rng.normal(size=(INPUT_LENGTH, 1)).astype(np.float32))
    used = {cluster.shard_for(f"tenant-{i}") for i in range(n_tenants)}
    assert len(used) >= 2, "hash routing unexpectedly collapsed onto one shard"


def _index(spans):
    by_id, by_name = {}, {}
    for item in spans:
        by_id[item.span_id] = item
        by_name.setdefault(item.name, []).append(item)
    return by_id, by_name


class TestSpanTree:
    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pool"])
    def test_forecast_all_produces_nested_span_tree(self, cluster, rng, pooled):
        with ThreadPoolExecutor(2) as pool:
            cluster.executor = pool if pooled else None
            _populate(cluster, rng)
            cluster.forecast_all()  # warm the compiled plans outside the trace
            recorder = obs.default_recorder()
            recorder.clear()
            with obs.observability(tracing=True):
                results = cluster.forecast_all()
            assert len(results) == 12

            by_id, by_name = _index(recorder.spans())
            assert len(by_name["cluster.forecast_all"]) == 1
            root = by_name["cluster.forecast_all"][0]
            assert root.parent_id is None
            assert root.args["shards"] == 2 and root.args["tenants"] == 12

            shard_spans = by_name["shard.forecast"]
            assert {span.args["shard"] for span in shard_spans} == set(cluster.shard_ids())
            for span in shard_spans:
                assert span.parent_id == root.span_id
                # Pooled shard spans open on pool threads and still nest.
                assert (span.thread_id != root.thread_id) == pooled

            shard_ids = {span.span_id for span in shard_spans}
            flushes = by_name["service.flush"]
            assert flushes and all(span.parent_id in shard_ids for span in flushes)

            flush_ids = {span.span_id for span in flushes}
            for name in ("batch.assemble", "plan.replay"):
                children = by_name[name]
                assert children and all(span.parent_id in flush_ids for span in children)

            # Every child's interval is contained in its parent's.
            for span in recorder.spans():
                if span.parent_id is None:
                    continue
                parent = by_id[span.parent_id]
                assert parent.start <= span.start
                assert span.start + span.duration <= parent.start + parent.duration + 1e-9

    def test_chrome_export_round_trips(self, cluster, rng, tmp_path):
        _populate(cluster, rng)
        cluster.forecast_all()  # warm the compiled plans outside the trace
        recorder = obs.default_recorder()
        recorder.clear()
        with obs.observability(tracing=True):
            cluster.forecast_all()
        path = tmp_path / "forecast_all.json"
        recorder.export_chrome(path)
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        names = {event["name"] for event in events}
        assert {"cluster.forecast_all", "shard.forecast",
                "service.flush", "batch.assemble", "plan.replay"} <= names
        ids = {event["args"]["span_id"] for event in events}
        for event in events:
            assert event["ph"] == "X" and event["cat"] == "repro"
            parent = event["args"]["parent_id"]
            assert parent is None or parent in ids

    def test_untraced_forecast_all_records_nothing(self, cluster, rng):
        _populate(cluster, rng)
        recorder = obs.default_recorder()
        recorder.clear()
        cluster.forecast_all()
        assert len(recorder) == 0


class TestStatsViews:
    def test_service_view_agrees_with_stats_snapshot(self, cluster, rng):
        registry = obs.MetricsRegistry()
        service = cluster.shard(cluster.shard_ids()[0]).service
        registry.register_stats("repro_serving", service.stats_snapshot)
        _populate(cluster, rng)
        cluster.forecast_all()
        from repro.stats import counters_dict

        # Raw counter fields only: ``as_dict`` appends derived ratios
        # (``mean_batch_size``) that the registry view intentionally omits.
        snapshot = counters_dict(service.stats_snapshot())
        views = registry.views_snapshot()
        for field, value in snapshot.items():
            assert views[f"repro_serving_{field}"] == pytest.approx(value)
        # The same numbers flow into the Prometheus text export.
        text = registry.prometheus()
        assert f"repro_serving_requests {snapshot['requests']:g}" in text

    def test_default_registry_views_move_with_traffic(self, cluster, rng):
        registry = obs.default_registry()
        before = registry.views_snapshot().get("repro_serving_requests", 0.0)
        _populate(cluster, rng)
        cluster.forecast_all()
        after = registry.views_snapshot()["repro_serving_requests"]
        assert after >= before + 12

    def test_request_latency_histogram_fills_under_traffic(self, cluster, rng):
        histogram = obs.histogram("repro_serving_request_latency_seconds")
        before = histogram.count
        _populate(cluster, rng)
        cluster.forecast_all()
        assert histogram.count >= before + 12
        assert histogram.percentile(95) > 0
