"""Tests for the micro-batched ForecastService."""

import numpy as np
import pytest

from repro.baselines import DLinear
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.data.windows import SlidingWindowDataset
from repro.serving import AdmissionPolicy, ForecastService, Overloaded, ServiceStats


def _config_for(data, hidden=16):
    return ModelConfig(
        input_length=data.input_length,
        horizon=data.horizon,
        n_channels=data.n_channels,
        patch_length=12,
        hidden_dim=hidden,
        dropout=0.0,
        covariate_numerical_dim=data.covariate_numerical_dim,
        covariate_categorical_cardinalities=data.covariate_categorical_cardinalities,
        covariate_embed_dim=2,
        covariate_hidden_dim=8,
    )


@pytest.fixture
def service(cycle_smoke_data):
    return ForecastService(LiPFormer(_config_for(cycle_smoke_data)), max_batch_size=4)


@pytest.fixture
def history(cycle_smoke_data, rng):
    data = cycle_smoke_data
    return rng.normal(size=(data.input_length, data.n_channels)).astype(np.float32)


class TestSubmitAndFlush:
    def test_submit_queues_and_result_flushes(self, service, history):
        handle = service.submit(history)
        assert not handle.done()
        assert service.pending == 1
        forecast = handle.result()
        assert handle.done()
        assert service.pending == 0
        assert forecast.shape == (service.config.horizon, service.config.n_channels)

    def test_queue_auto_flushes_at_max_batch_size(self, service, history):
        handles = [service.submit(history + i) for i in range(service.max_batch_size)]
        assert service.pending == 0, "full micro-batch must flush automatically"
        assert all(h.done() for h in handles)
        assert service.stats.flushes == 1

    def test_batched_results_match_individual_predict(self, service, cycle_smoke_data, rng):
        data = cycle_smoke_data
        histories = [
            rng.normal(size=(data.input_length, data.n_channels)).astype(np.float32)
            for _ in range(3)
        ]
        handles = [service.submit(h) for h in histories]
        service.flush()
        for h, handle in zip(histories, handles):
            expected = service.model.predict(h[None])[0]
            np.testing.assert_allclose(handle.result(), expected, atol=1e-5)

    def test_history_is_copied_at_submit(self, service, history):
        """Writing the caller's array after submit does not change the forecast."""
        owned = history.copy()
        expected = service.submit(history.copy()).result()
        handle = service.submit(owned)
        owned[:] = 0.0
        np.testing.assert_array_equal(handle.result(), expected)

    def test_short_history_is_padded_and_served(self, service, history):
        forecast = service.submit(history[-10:]).result()
        assert forecast.shape == (service.config.horizon, service.config.n_channels)
        assert service.stats.padded_requests == 1

    def test_mixed_covariate_requests_resolve_in_one_flush(self, service, cycle_smoke_data, rng):
        data = cycle_smoke_data
        horizon = data.horizon
        history = rng.normal(size=(data.input_length, data.n_channels)).astype(np.float32)
        fn = rng.normal(size=(horizon, data.covariate_numerical_dim)).astype(np.float32)
        fc = np.zeros((horizon, len(data.covariate_categorical_cardinalities)), dtype=np.int64)
        plain = service.submit(history)
        enriched = service.submit(history, future_numerical=fn, future_categorical=fc)
        service.flush()
        assert plain.done() and enriched.done()
        # covariate guidance changes the forecast (vector mapping is trained,
        # but even untrained the grouping must not cross-contaminate rows)
        np.testing.assert_allclose(
            plain.result(), service.model.predict(history[None])[0], atol=1e-5
        )
        np.testing.assert_allclose(
            enriched.result(),
            service.model.predict(history[None], future_numerical=fn[None], future_categorical=fc[None])[0],
            atol=1e-5,
        )

    def test_covariates_dropped_for_unsupporting_model(self, cycle_smoke_data, rng):
        data = cycle_smoke_data
        service = ForecastService(DLinear(_config_for(data)))
        history = rng.normal(size=(data.input_length, data.n_channels)).astype(np.float32)
        fn = rng.normal(size=(data.horizon, data.covariate_numerical_dim)).astype(np.float32)
        forecast = service.submit(history, future_numerical=fn).result()
        np.testing.assert_allclose(forecast, service.model.predict(history[None])[0], atol=1e-5)

    def test_bad_covariate_shape_raises(self, service, history):
        with pytest.raises(ValueError):
            service.submit(history, future_numerical=np.zeros((3, 2), dtype=np.float32))

    def test_partial_covariates_rejected_at_submit_time(self, service, cycle_smoke_data, rng):
        """A combination the encoder would reject must fail the submitter,
        not whoever triggers the flush."""
        data = cycle_smoke_data
        fn = rng.normal(size=(data.horizon, data.covariate_numerical_dim)).astype(np.float32)
        with pytest.raises(ValueError, match="future_categorical"):
            service.submit(
                rng.normal(size=(data.input_length, data.n_channels)), future_numerical=fn
            )
        assert service.pending == 0

    def test_wrong_covariate_width_rejected_at_submit_time(self, service, cycle_smoke_data, rng):
        data = cycle_smoke_data
        fn = rng.normal(size=(data.horizon, data.covariate_numerical_dim + 1)).astype(np.float32)
        fc = np.zeros((data.horizon, len(data.covariate_categorical_cardinalities)), dtype=np.int64)
        with pytest.raises(ValueError, match="future_numerical"):
            service.submit(
                rng.normal(size=(data.input_length, data.n_channels)),
                future_numerical=fn, future_categorical=fc,
            )

    def test_failing_group_does_not_drop_other_requests(self, service, cycle_smoke_data, rng):
        """A forward-pass failure is confined to its coalesced group."""
        data = cycle_smoke_data
        history = rng.normal(size=(data.input_length, data.n_channels)).astype(np.float32)
        fn = rng.normal(size=(data.horizon, data.covariate_numerical_dim)).astype(np.float32)
        fc = np.zeros((data.horizon, len(data.covariate_categorical_cardinalities)), dtype=np.int64)
        original = service.model.predict

        def flaky(x, future_numerical=None, future_categorical=None, **kwargs):
            if future_numerical is not None:
                raise RuntimeError("covariate branch down")
            return original(x, future_numerical=future_numerical,
                            future_categorical=future_categorical, **kwargs)

        service.model.predict = flaky
        plain = service.submit(history)
        failing = service.submit(history, future_numerical=fn, future_categorical=fc)
        service.flush()
        assert plain.done() and failing.done()
        assert plain.result().shape == (data.horizon, data.n_channels)
        with pytest.raises(RuntimeError, match="covariate branch down"):
            failing.result()
        with pytest.raises(RuntimeError):   # error sticks on repeated result()
            failing.result()

    def test_model_left_in_prior_mode(self, service, history):
        service.model.train()
        service.submit(history).result()
        assert service.model.training
        service.model.eval()
        service.submit(history).result()
        assert not service.model.training


class TestPredictManyAndBackfill:
    def test_predict_many_matches_model_predict(self, service, cycle_smoke_data, rng):
        data = cycle_smoke_data
        histories = rng.normal(size=(6, data.input_length, data.n_channels)).astype(np.float32)
        out = service.predict_many(list(histories))
        np.testing.assert_allclose(out, service.model.predict(histories), atol=1e-5)

    def test_predict_many_of_nothing_is_an_empty_block(self, service):
        out = service.predict_many([])
        assert out.shape == (0, service.config.horizon, service.config.n_channels)
        assert out.dtype == np.float32
        assert service.stats.requests == 0

    def test_backfill_covers_every_window(self, service, cycle_smoke_data):
        dataset = cycle_smoke_data.test
        predictions = service.backfill(dataset, batch_size=8)
        assert predictions.shape == (
            len(dataset), service.config.horizon, service.config.n_channels
        )
        batch = dataset.as_arrays(np.arange(len(dataset)))
        expected = service.model.predict(
            batch["x"],
            future_numerical=batch["future_numerical"],
            future_categorical=batch["future_categorical"],
        )
        np.testing.assert_allclose(predictions, expected, atol=1e-5)

    def test_backfill_rejects_mismatched_dataset(self, service, cycle_smoke_data):
        series = cycle_smoke_data.test.series
        wrong = SlidingWindowDataset(series, cycle_smoke_data.input_length // 2, 12)
        with pytest.raises(ValueError, match="input_length"):
            service.backfill(wrong)

    def test_backfill_uses_separate_counters(self, service, cycle_smoke_data, rng):
        """Backfill must not dilute the submit-path micro-batching stats."""
        data = cycle_smoke_data
        history = rng.normal(size=(data.input_length, data.n_channels)).astype(np.float32)
        for _ in range(3):
            service.submit(history)
        service.flush()
        passes_before = service.stats.forward_passes
        service.backfill(data.test, batch_size=8)
        assert service.stats.forward_passes == passes_before
        assert service.stats.backfill_windows == len(data.test)
        assert service.stats.backfill_batches == -(-len(data.test) // 8)
        assert service.stats.mean_batch_size == 3.0

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_backfill_rejects_a_batch_size_below_one(self, service, cycle_smoke_data, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            service.backfill(cycle_smoke_data.test, batch_size=batch_size)
        assert service.stats.backfill_batches == 0

    def test_backfill_rejects_mismatched_horizon(self, service, cycle_smoke_data):
        series = cycle_smoke_data.test.series
        wrong = SlidingWindowDataset(series, cycle_smoke_data.input_length,
                                     cycle_smoke_data.horizon * 2)
        with pytest.raises(ValueError, match="horizon"):
            service.backfill(wrong)


class TestStats:
    def test_as_dict_reports_counters_and_ratios(self, service, history):
        for _ in range(3):
            service.submit(history)
        service.flush()
        report = service.stats.as_dict()
        assert report["requests"] == 3
        assert report["forward_passes"] == 1
        assert report["mean_batch_size"] == 3.0
        assert set(report) >= {"flushes", "padded_requests", "largest_batch",
                               "backfill_batches", "backfill_windows"}

    def test_reset_zeroes_every_counter(self, service, history):
        for _ in range(3):
            service.submit(history)
        service.flush()
        service.stats.reset()
        assert service.stats.as_dict() == ServiceStats().as_dict()
        # Counters keep working after a reset (benchmark phase 2).
        service.submit(history)
        service.flush()
        assert service.stats.requests == 1

    def test_merge_aggregates_per_shard_stats(self):
        a = ServiceStats(requests=10, forward_passes=2, flushes=2,
                         padded_requests=1, largest_batch=6,
                         backfill_batches=1, backfill_windows=32)
        b = ServiceStats(requests=6, forward_passes=2, flushes=3,
                         padded_requests=0, largest_batch=4,
                         backfill_batches=0, backfill_windows=0)
        merged = ServiceStats.merge([a, b])
        assert merged.requests == 16
        assert merged.forward_passes == 4
        assert merged.flushes == 5
        assert merged.padded_requests == 1
        assert merged.largest_batch == 6          # max, not sum
        assert merged.backfill_windows == 32
        assert merged.mean_batch_size == 4.0      # derived fleet-wide
        # Merging nothing is the zero object; inputs are not mutated.
        assert ServiceStats.merge([]) == ServiceStats()
        assert a.requests == 10


class TestConstruction:
    def test_invalid_max_batch_size(self, cycle_smoke_data):
        with pytest.raises(ValueError):
            ForecastService(DLinear(_config_for(cycle_smoke_data)), max_batch_size=0)


class TestSubmitIsOneRowSubmitMany:
    """``submit`` gives what a one-row ``submit_many`` block of its tail gives."""

    @staticmethod
    def _pair(data, **kwargs):
        model = LiPFormer(_config_for(data))
        return ForecastService(model, **kwargs), ForecastService(model, **kwargs)

    @staticmethod
    def _block(history, input_length):
        observed = min(len(history), input_length)
        block = np.zeros((1, input_length, history.shape[1]), dtype=np.float32)
        block[0, input_length - observed:] = history[len(history) - observed:]
        return block, np.array([observed])

    @pytest.mark.parametrize("extra_steps", [-7, 0, 5], ids=["short", "full", "long"])
    def test_forecast_and_counters_match(self, cycle_smoke_data, rng, extra_steps):
        data = cycle_smoke_data
        single, many = self._pair(data)
        history = rng.normal(size=(data.input_length + extra_steps, data.n_channels))
        history = history.astype(np.float32)
        forecast = single.submit(history).result()
        rows = many.submit_many(*self._block(history, data.input_length))
        np.testing.assert_array_equal(forecast, rows.result(0))
        assert single.stats.as_dict() == many.stats.as_dict()
        assert single.stats.padded_requests == int(extra_steps < 0)

    def test_full_queue_refusal_matches_refused_row(self, cycle_smoke_data, history):
        data = cycle_smoke_data
        single, many = self._pair(data, admission=AdmissionPolicy(queue_limit=1))
        single.submit(history)
        with pytest.raises(Overloaded, match="pending queue full"):
            single.submit(history)
        block, observed = self._block(history, data.input_length)
        rows = many.submit_many(np.concatenate([block, block]), np.concatenate([observed] * 2))
        assert list(rows.refused) == [1]
        assert isinstance(rows.refused[1], Overloaded)
        assert single.stats.as_dict() == many.stats.as_dict()
        assert single.pending == many.pending == 1
