"""Compiled serving through the streaming stack: parity with eager replay."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import ForecastService
from repro.streaming import StreamingForecaster, compare_to_backfill, replay


@pytest.fixture
def config():
    return ModelConfig(
        input_length=32, horizon=8, n_channels=2, patch_length=8,
        hidden_dim=16, dropout=0.0, seed=21,
    )


def make_streams(rng, n_tenants, steps, channels=2):
    streams = {}
    t = np.arange(steps, dtype=np.float32)
    for i in range(n_tenants):
        seasonal = np.sin(2 * np.pi * (t / 20.0 + i / max(1, n_tenants)))[:, None]
        noise = rng.normal(scale=0.25, size=(steps, channels))
        streams[f"tenant-{i}"] = ((i + 1) * seasonal + noise).astype(np.float32)
    return streams


class TestCompiledStreamingParity:
    def test_compiled_replay_bit_identical_to_eager_replay(self, config, rng):
        """The full streaming stack produces identical forecasts whether the
        service runs compiled plans or eager autograd-free forwards."""
        model = LiPFormer(config)
        streams = make_streams(rng, 4, 56)
        results = {}
        for name, compiled in (("compiled", True), ("eager", False)):
            service = ForecastService(model, max_batch_size=8, compiled=compiled)
            forecaster = StreamingForecaster(service)
            results[name] = replay(forecaster, streams, warmup=config.input_length)
        for tenant in streams:
            assert np.array_equal(
                results["compiled"].forecasts[tenant], results["eager"].forecasts[tenant]
            )
        assert model.compiled_predictor().hits > 0  # plans actually served

    def test_compiled_replay_passes_backfill_parity_harness(self, config, rng):
        """The existing acceptance oracle, run with compiled serving on."""
        service = ForecastService(LiPFormer(config), max_batch_size=8, compiled=True)
        forecaster = StreamingForecaster(service)
        streams = make_streams(rng, 3, 52)
        result = replay(forecaster, streams, warmup=config.input_length)
        report = compare_to_backfill(forecaster, streams, result)
        report.raise_on_mismatch()
        assert report.bit_identical

    def test_warmup_removes_first_tick_tracing(self, config, rng):
        model = LiPFormer(config)
        service = ForecastService(model, max_batch_size=4, compiled=True)
        forecaster = StreamingForecaster(service)
        assert forecaster.warmup() == 1
        predictor = model.compiled_predictor()
        traced = predictor.traces
        streams = make_streams(rng, 3, config.input_length + 2)
        replay(forecaster, streams, warmup=config.input_length)
        # The plan traced at max_batch_size serves the 3-tenant flush on a
        # leading-dim slice: every tick was a plan hit.
        assert predictor.traces == traced
        assert predictor.hits > 0
