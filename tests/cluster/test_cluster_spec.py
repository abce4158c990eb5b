"""Tests for ServiceSpec replicas, ClusterSpec validation and build_cluster."""

from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from repro import wire
from repro.baselines import create_model
from repro.cluster import (
    ClusterSpec,
    ProcessCoordinator,
    ShardedForecaster,
    build_cluster,
    validate_cluster_timeouts,
)
from repro.cluster.spec import ServiceSpec
from repro.config import ModelConfig
from repro.nn import save_module
from repro.serving import ForecastService

CONFIG = ModelConfig(
    input_length=16, horizon=4, n_channels=1, patch_length=4,
    hidden_dim=8, dropout=0.0, n_heads=2, n_layers=1, seed=1,
)


class TestServiceSpec:
    def test_replicas_are_bit_identical(self):
        spec = ServiceSpec(config=CONFIG)
        a, b = spec.build(), spec.build()
        window = np.random.default_rng(3).normal(
            size=(CONFIG.input_length, CONFIG.n_channels)
        ).astype(np.float32)
        first, second = a.submit(window), b.submit(window)
        a.flush()
        b.flush()
        np.testing.assert_array_equal(first.result(), second.result())

    def test_state_round_trip(self):
        spec = ServiceSpec(config=CONFIG, max_batch_size=16)
        assert ServiceSpec.from_state(spec.to_state()) == spec

    def test_spec_is_a_service_factory(self):
        # The thread backend takes any zero-arg callable; a spec qualifies.
        cluster = ShardedForecaster(ServiceSpec(config=CONFIG), n_shards=2)
        assert len(cluster) == 2

    def test_coordinator_rejects_closures(self):
        with pytest.raises(TypeError, match="ServiceSpec"):
            ProcessCoordinator(
                lambda: ForecastService(create_model("LiPFormer", CONFIG)), n_shards=1
            )

    @pytest.mark.parametrize(
        "knobs",
        [
            {"max_batch_size": 0},
            {"max_batch_size": -3},
            {"queue_limit": 0},
            {"queue_limit": -1},
            {"default_timeout": 0.0},
            {"default_timeout": -1.0},
        ],
    )
    def test_bad_knobs_raise_before_any_worker_spawns(self, knobs):
        with mock.patch.object(wire, "spawn_worker") as spawn:
            with pytest.raises(ValueError):
                build_cluster(ServiceSpec(config=CONFIG, **knobs), backend="process")
            with pytest.raises(ValueError):
                ServiceSpec.from_state({**ServiceSpec(config=CONFIG).to_state(), **knobs})
        assert spawn.call_count == 0


class TestServiceSpecReplica:
    @pytest.fixture
    def trained(self, tmp_path):
        """A model whose weights differ from a fresh build, saved to a file."""
        model = create_model("LiPFormer", CONFIG)
        rng = np.random.default_rng(11)
        for param in model.parameters():
            param.data = param.data + rng.normal(scale=0.5, size=param.data.shape).astype(
                param.data.dtype
            )
        path = tmp_path / "weights.npz"
        save_module(model, str(path))
        return model, str(path)

    def test_weights_path_reproduces_state_and_forecasts_bit_for_bit(self, trained):
        model, path = trained
        replica = ServiceSpec(config=CONFIG, weights_path=path).build()
        expected = model.state_dict()
        actual = replica.model.state_dict()
        assert actual.keys() == expected.keys()
        for name, value in actual.items():
            assert value.dtype == expected[name].dtype, name
            np.testing.assert_array_equal(value, expected[name], err_msg=name)
        histories = np.random.default_rng(12).normal(
            size=(3, CONFIG.input_length, CONFIG.n_channels)
        ).astype(np.float32)
        forecasts = replica.predict_many(histories)
        np.testing.assert_array_equal(forecasts, ForecastService(model).predict_many(histories))
        untrained = ServiceSpec(config=CONFIG).build().predict_many(histories)
        assert not np.array_equal(forecasts, untrained)

    def test_weights_path_survives_state_round_trip(self, trained):
        _, path = trained
        spec = ServiceSpec(config=CONFIG, compiled=False, weights_path=path, queue_limit=3)
        assert ServiceSpec.from_state(spec.to_state()) == spec
        over_wire = wire.unpack_message(wire.pack_message(spec.to_state()))
        restored = ServiceSpec.from_state(over_wire)
        assert restored == spec
        assert restored.weights_path == path

    def test_weights_of_another_config_fail_the_build(self, tmp_path):
        path = tmp_path / "wider.npz"
        save_module(create_model("LiPFormer", CONFIG.with_overrides(hidden_dim=16)), str(path))
        with pytest.raises(ValueError, match="shape mismatch"):
            ServiceSpec(config=CONFIG, weights_path=str(path)).build()



class TestTimeoutValidation:
    def test_accepts_sane_budgets(self):
        validate_cluster_timeouts(30.0, 2.0)

    @pytest.mark.parametrize(
        "request_timeout,heartbeat_timeout,message",
        [
            (0.0, 1.0, "request_timeout"),
            (-5.0, 1.0, "request_timeout"),
            (10.0, 0.0, "heartbeat_timeout"),
            (10.0, -1.0, "heartbeat_timeout"),
            (5.0, 5.0, "smaller than"),
            (5.0, 9.0, "smaller than"),
        ],
    )
    def test_rejects_bad_budgets(self, request_timeout, heartbeat_timeout, message):
        with pytest.raises(ValueError, match=message):
            validate_cluster_timeouts(request_timeout, heartbeat_timeout)


class TestClusterSpecValidation:
    def test_defaults_validate(self):
        spec = ClusterSpec()
        assert spec.backend == "thread"
        assert spec.heartbeat_timeout < spec.request_timeout

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_shards": 0},
            {"backend": "fiber"},
            {"normalization": "bogus"},
            {"normalization": "last_value"},
            {"request_timeout": 0.0},
            {"heartbeat_timeout": 0.0},
            {"request_timeout": 1.0, "heartbeat_timeout": 1.0},
            {"retry_attempts": 0},
            {"retry_base": 0.0},
            {"retry_base": 2.0, "retry_cap": 1.0},
            {"breaker_threshold": 0},
            {"breaker_reset": 0.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ClusterSpec(**kwargs)


class TestBuildCluster:
    def test_backend_selection(self):
        thread = build_cluster(ServiceSpec(config=CONFIG), n_shards=2, backend="thread")
        assert isinstance(thread, ShardedForecaster)
        with pytest.raises(ValueError, match="unknown backend"):
            build_cluster(ServiceSpec(config=CONFIG), backend="fibers")

    def test_process_backend_rejects_executor(self):
        with ThreadPoolExecutor(1) as pool, pytest.raises(ValueError, match="executor"):
            build_cluster(ServiceSpec(config=CONFIG), backend="process", executor=pool)


class TestBuildClusterIntegration:
    def test_thread_backend_honours_the_spec(self):
        spec = ClusterSpec(n_shards=3, backend="thread", vnodes=16)
        cluster = build_cluster(
            ServiceSpec(config=CONFIG, compiled=False), cluster=spec
        )
        assert len(cluster.shard_ids()) == 3

    def test_spec_and_loose_kwargs_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="either"):
            build_cluster(
                ServiceSpec(config=CONFIG, compiled=False),
                n_shards=2,
                cluster=ClusterSpec(),
            )

    def test_process_backend_carries_resilience_knobs(self):
        spec = ClusterSpec(
            n_shards=1, backend="process", request_timeout=17.0,
            heartbeat_timeout=3.0, retry_attempts=5, breaker_threshold=4,
            breaker_reset=1.5,
        )
        cluster = build_cluster(
            ServiceSpec(config=CONFIG, compiled=False), cluster=spec
        )
        try:
            assert cluster.request_timeout == 17.0
            assert cluster.heartbeat_timeout == 3.0
            shard = cluster._shards[cluster.shard_ids()[0]]
            assert shard.retry.max_attempts == 5
            assert shard.breaker.failure_threshold == 4
            assert shard.breaker.reset_timeout == 1.5
        finally:
            cluster.close()

    def test_coordinator_rejects_inverted_timeouts_directly(self):
        from repro.cluster import ProcessCoordinator

        with pytest.raises(ValueError, match="smaller than"):
            ProcessCoordinator(
                ServiceSpec(config=CONFIG, compiled=False),
                n_shards=1,
                request_timeout=1.0,
                heartbeat_timeout=2.0,
            )
