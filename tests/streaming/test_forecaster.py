"""Tests for the multi-tenant StreamingForecaster."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import ForecastService
from repro.streaming import StreamingForecaster


@pytest.fixture
def config():
    return ModelConfig(
        input_length=32, horizon=8, n_channels=2, patch_length=8,
        hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1,
    )


@pytest.fixture
def service(config):
    return ForecastService(LiPFormer(config), max_batch_size=8)


@pytest.fixture
def forecaster(service):
    return StreamingForecaster(service)


def stream(rng, steps, channels=2, scale=1.0, offset=0.0):
    return (rng.normal(size=(steps, channels)) * scale + offset).astype(np.float32)


class TestIngestAndForecast:
    def test_forecast_uses_latest_window(self, forecaster, service, rng):
        values = stream(rng, 50)
        forecaster.ingest("a", values)
        forecast = forecaster.forecast("a").result()
        expected = service.model.predict(values[-32:][None])[0]
        np.testing.assert_array_equal(forecast, expected)

    def test_incremental_ingest_matches_bulk(self, forecaster, service, rng):
        values = stream(rng, 40)
        for row in values:
            forecaster.ingest("a", row)
        np.testing.assert_array_equal(
            forecaster.forecast("a").result(),
            service.model.predict(values[-32:][None])[0],
        )

    def test_cold_start_is_left_padded(self, forecaster, rng):
        forecaster.ingest("new", stream(rng, 5))
        forecast = forecaster.forecast("new")
        assert forecast.result().shape == (8, 2)
        assert forecaster.service.stats.padded_requests == 1

    def test_forecast_unknown_tenant_raises(self, forecaster):
        with pytest.raises(KeyError):
            forecaster.forecast("ghost")

    def test_ingest_side_counters_live_on_the_store(self, forecaster, rng):
        forecaster.ingest("a", stream(rng, 10))
        forecaster.ingest("b", stream(rng, 3))
        forecaster.ingest("a", stream(rng, 2))
        assert forecaster.store.stats.tenants == 2
        assert forecaster.store.stats.observations == 15
        assert forecaster.store.stats.ingests == 3


class TestMicroBatching:
    def test_forecast_all_coalesces_tenants(self, forecaster, service, rng):
        for i in range(5):
            forecaster.ingest(f"t{i}", stream(rng, 40))
        passes_before = service.stats.forward_passes
        handles = forecaster.forecast_all()
        assert set(handles) == {f"t{i}" for i in range(5)}
        assert all(h.done() for h in handles.values())
        assert service.stats.forward_passes == passes_before + 1, (
            "five tenants must share one forward pass"
        )

    def test_forecast_all_without_flush_leaves_queue(self, forecaster, service, rng):
        for i in range(3):
            forecaster.ingest(f"t{i}", stream(rng, 40))
        handles = forecaster.forecast_all(flush=False)
        assert service.pending == 3
        assert not any(h.done() for h in handles.values())
        forecaster.flush()
        assert all(h.done() for h in handles.values())

    def test_ingest_and_forecast_tick(self, forecaster, rng):
        arrivals = {f"t{i}": stream(rng, 40) for i in range(3)}
        handles = forecaster.ingest_and_forecast(arrivals)
        assert all(h.done() for h in handles.values())
        assert all(h.result().shape == (8, 2) for h in handles.values())


class TestNormalization:
    def test_rolling_mode_standardises_and_denormalises(self, service, rng):
        forecaster = StreamingForecaster(service, normalization="rolling")
        values = stream(rng, 48, scale=50.0, offset=300.0)
        forecaster.ingest("a", values)
        forecast = forecaster.forecast("a").result()

        scaler = forecaster.scaler("a")
        np.testing.assert_allclose(scaler.mean_, values.astype(np.float64).mean(axis=0), rtol=1e-9)
        expected = scaler.inverse_transform(
            service.model.predict(scaler.transform(values[-32:])[None])[0]
        )
        np.testing.assert_allclose(forecast, expected, rtol=1e-12)
        # forecasts come back near the tenant's operating level, not near 0
        assert abs(float(forecast.mean()) - 300.0) < 150.0

    def test_rolling_denormalisation_frozen_at_submit_time(self, service, rng):
        """Later ingests must not change how a queued forecast resolves."""
        forecaster = StreamingForecaster(service, normalization="rolling")
        values = stream(rng, 40, scale=5.0, offset=10.0)
        forecaster.ingest("a", values)
        scaler_at_submit = forecaster.scaler("a").to_standard_scaler()
        handle = forecaster.forecast("a")
        forecaster.ingest("a", stream(rng, 30, scale=5.0, offset=5000.0))  # regime shift
        expected = scaler_at_submit.inverse_transform(
            service.model.predict(scaler_at_submit.transform(values[-32:])[None])[0]
        )
        np.testing.assert_allclose(handle.result(), expected, rtol=1e-12)

    def test_separate_tenants_keep_separate_statistics(self, service, rng):
        forecaster = StreamingForecaster(service, normalization="rolling")
        forecaster.ingest("low", stream(rng, 40, offset=1.0))
        forecaster.ingest("high", stream(rng, 40, offset=1000.0))
        assert forecaster.scaler("low").mean_[0] < 10
        assert forecaster.scaler("high").mean_[0] > 900

    def test_unknown_normalization_rejected(self, service):
        with pytest.raises(ValueError, match="normalization"):
            StreamingForecaster(service, normalization="zscore")


class TestDrop:
    def test_drop_clears_buffer_watermark_and_scaler(self, service, rng):
        forecaster = StreamingForecaster(service, normalization="rolling")
        forecaster.ingest("a", stream(rng, 40, offset=1000.0), timestamp=7)
        assert forecaster.scaler("a") is not None
        forecaster.drop("a")
        assert "a" not in forecaster.store
        assert forecaster.store.last_timestamp("a") is None
        assert forecaster.scaler("a") is None, "dropped tenants must not leak scaler state"

    def test_reingested_tenant_starts_with_fresh_statistics(self, service, rng):
        """A re-created tenant must not resume a dead tenant's statistics."""
        forecaster = StreamingForecaster(service, normalization="rolling")
        forecaster.ingest("a", stream(rng, 40, offset=1000.0))
        forecaster.drop("a")
        forecaster.ingest("a", stream(rng, 40, offset=1.0), timestamp=1)  # watermark reset too
        assert forecaster.scaler("a").n_seen == 40
        assert abs(float(forecaster.scaler("a").mean_[0])) < 10.0

    def test_drop_unknown_tenant_is_a_no_op(self, forecaster):
        forecaster.drop("ghost")


class TestFutureCovariates:
    @pytest.fixture
    def cov_service(self):
        config = ModelConfig(
            input_length=32, horizon=8, n_channels=2, patch_length=8,
            hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1,
            covariate_numerical_dim=3, covariate_categorical_cardinalities=(24, 7),
            covariate_embed_dim=2, covariate_hidden_dim=8,
        )
        model = LiPFormer(config)
        # The guidance head is zero-initialised (residual gating), so an
        # untrained model ignores covariates; nudge it so threading shows.
        model.vector_mapping.weight.data[...] = 0.05
        return ForecastService(model, max_batch_size=8)

    def covariates(self, rng, horizon=8):
        numerical = rng.normal(size=(horizon, 3)).astype(np.float32)
        categorical = np.stack(
            [rng.integers(0, 24, size=horizon), rng.integers(0, 7, size=horizon)], axis=1
        ).astype(np.int64)
        return numerical, categorical

    def test_forecast_threads_covariates_through_submit(self, cov_service, rng):
        forecaster = StreamingForecaster(cov_service)
        values = stream(rng, 40)
        forecaster.ingest("a", values)
        numerical, categorical = self.covariates(rng)
        produced = forecaster.forecast(
            "a", future_numerical=numerical, future_categorical=categorical
        ).result()
        expected = cov_service.model.predict(
            values[-32:][None],
            future_numerical=numerical[None],
            future_categorical=categorical[None],
        )[0]
        np.testing.assert_array_equal(produced, expected)
        # and covariates actually changed the forecast vs. history-only
        base = cov_service.model.predict(values[-32:][None])[0]
        assert not np.array_equal(produced, base)

    def test_forecast_all_per_tenant_covariate_mappings(self, cov_service, rng):
        forecaster = StreamingForecaster(cov_service)
        windows = {}
        for i in range(3):
            windows[f"t{i}"] = stream(rng, 40)
            forecaster.ingest(f"t{i}", windows[f"t{i}"])
        numerical, categorical = self.covariates(rng)
        handles = forecaster.forecast_all(
            future_numerical={"t1": numerical}, future_categorical={"t1": categorical}
        )
        expected = cov_service.model.predict(
            windows["t1"][-32:][None],
            future_numerical=numerical[None],
            future_categorical=categorical[None],
        )[0]
        np.testing.assert_array_equal(handles["t1"].result(), expected)
        # tenants absent from the mappings stay history-only
        history_only = cov_service.model.predict(windows["t0"][-32:][None])[0]
        np.testing.assert_array_equal(handles["t0"].result(), history_only)

    def test_covariates_compose_with_normalization(self, cov_service, rng):
        forecaster = StreamingForecaster(cov_service, normalization="rolling")
        values = stream(rng, 40, offset=25.0)
        forecaster.ingest("a", values)
        numerical, categorical = self.covariates(rng)
        produced = forecaster.forecast(
            "a", future_numerical=numerical, future_categorical=categorical
        ).result()
        # Only the history and the forecast are mapped; covariates pass as given.
        frozen = forecaster.scaler("a").to_standard_scaler()
        expected = frozen.inverse_transform(cov_service.model.predict(
            frozen.transform(values[-32:])[None],
            future_numerical=numerical[None],
            future_categorical=categorical[None],
        )[0])
        np.testing.assert_array_equal(produced, expected)

    def test_invalid_covariate_shape_raises_at_submit(self, cov_service, rng):
        forecaster = StreamingForecaster(cov_service)
        forecaster.ingest("a", stream(rng, 40))
        with pytest.raises(ValueError, match="future_numerical"):
            forecaster.forecast("a", future_numerical=np.zeros((8, 99), dtype=np.float32))


class TestConstruction:
    def test_capacity_must_hold_one_window(self, service):
        with pytest.raises(ValueError, match="window_capacity"):
            StreamingForecaster(service, window_capacity=8)
        with pytest.raises(ValueError, match="window_capacity"):
            StreamingForecaster(service, window_capacity=0)  # not the default

    def test_default_store_capacity(self, forecaster):
        assert forecaster.store.capacity == 4 * 32
