"""Compiled fast path through the serving layer: parity, warmup, staging."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import ForecastService
from repro.serving.batching import ForecastRequest, ForecastRows, group_requests, stage_group


@pytest.fixture
def config():
    return ModelConfig(
        input_length=48, horizon=12, n_channels=2, patch_length=12,
        hidden_dim=16, dropout=0.0, covariate_numerical_dim=3,
        covariate_categorical_cardinalities=(5,), covariate_embed_dim=2,
        covariate_hidden_dim=8, seed=11,
    )


@pytest.fixture
def model(config, rng):
    model = LiPFormer(config)
    # Give the zero-initialised vector mapping weight so covariates matter.
    model.vector_mapping.weight.data[...] = rng.normal(
        size=model.vector_mapping.weight.shape
    ).astype(np.float32)
    return model


def _histories(rng, n, config):
    return [
        rng.normal(size=(config.input_length, config.n_channels)).astype(np.float32)
        for _ in range(n)
    ]


class TestCompiledServiceParity:
    def test_submit_path_bit_identical_to_eager_service(self, model, config, rng):
        compiled = ForecastService(model, max_batch_size=8, compiled=True)
        eager = ForecastService(model, max_batch_size=8, compiled=False)
        histories = _histories(rng, 8, config)
        assert np.array_equal(
            compiled.predict_many(histories), eager.predict_many(histories)
        )
        predictor = model.compiled_predictor()
        assert predictor.traces >= 1

    def test_covariate_requests_bit_identical_to_eager(self, model, config, rng):
        compiled = ForecastService(model, max_batch_size=8, compiled=True)
        eager = ForecastService(model, max_batch_size=8, compiled=False)
        histories = _histories(rng, 4, config)
        fn = rng.normal(size=(4, config.horizon, 3)).astype(np.float32)
        fc = rng.integers(0, 5, size=(4, config.horizon, 1))
        a = compiled.predict_many(histories, future_numerical=fn, future_categorical=fc)
        b = eager.predict_many(histories, future_numerical=fn, future_categorical=fc)
        assert np.array_equal(a, b)

    def test_mixed_flush_groups_resolve_correctly_with_scratch_reuse(self, model, config, rng):
        """Two signature groups in one flush share the scratch buffers
        sequentially; every resolved row must match an eager service fed
        the identical submission pattern (same groups, same batches)."""
        compiled = ForecastService(model, max_batch_size=8, compiled=True)
        eager = ForecastService(model, max_batch_size=8, compiled=False)
        histories = _histories(rng, 6, config)
        fn = rng.normal(size=(config.horizon, 3)).astype(np.float32)
        fc = rng.integers(0, 5, size=(config.horizon, 1))
        handles = {}
        for name, service in (("compiled", compiled), ("eager", eager)):
            plain = [service.submit(h) for h in histories[:3]]
            with_cov = [
                service.submit(h, future_numerical=fn, future_categorical=fc)
                for h in histories[3:]
            ]
            service.flush()
            handles[name] = plain + with_cov
        for got, want in zip(handles["compiled"], handles["eager"]):
            assert np.array_equal(got.result(), want.result())

    def test_results_survive_later_flushes(self, model, config, rng):
        """Plan output buffers are reused across flushes; resolved handles
        must hold copies, not views into the arena."""
        service = ForecastService(model, max_batch_size=4)
        first_history = _histories(rng, 1, config)[0]
        first = service.submit(first_history)
        service.flush()
        snapshot = first.result().copy()
        for history in _histories(rng, 5, config):
            service.submit(history)
        service.flush()
        assert np.array_equal(first.result(), snapshot)

    def test_warmup_pretraces_one_polymorphic_plan(self, model, config):
        service = ForecastService(model, max_batch_size=8)
        assert service.warmup() == 1          # one plan serves every batch size
        predictor = model.compiled_predictor()
        traces_after_warmup = predictor.traces
        assert traces_after_warmup == 1
        rng = np.random.default_rng(0)
        for n in (8, 3, 1, 5):                # full batch and arbitrary tails
            service.predict_many(_histories(rng, n, config))
        assert predictor.traces == traces_after_warmup  # every size was warm
        assert predictor.hits >= 4

    def test_warmup_is_a_noop_for_eager_services(self, model):
        service = ForecastService(model, max_batch_size=8, compiled=False)
        assert service.warmup() == 0

    def test_backfill_compiled_matches_eager(self, model, config, rng):
        from repro.data.containers import MultivariateTimeSeries
        from repro.data.timefeatures import make_timestamps
        from repro.data.windows import SlidingWindowDataset

        values = rng.normal(size=(120, config.n_channels)).astype(np.float32)
        series = MultivariateTimeSeries(
            values=values, timestamps=make_timestamps(len(values), freq_minutes=60), name="bf"
        )
        dataset = SlidingWindowDataset(series, config.input_length, config.horizon)
        compiled = ForecastService(model, max_batch_size=16, compiled=True)
        eager = ForecastService(model, max_batch_size=16, compiled=False)
        assert np.array_equal(compiled.backfill(dataset), eager.backfill(dataset))


class TestStageGroup:
    def _request(self, rng, config, fn=None, fc=None):
        history = rng.normal(size=(1, config.input_length, config.n_channels)).astype(np.float32)
        return ForecastRequest(
            history=history,
            observed_length=np.array([config.input_length]),
            future_numerical=None if fn is None else fn[None],
            future_categorical=None if fc is None else fc[None],
            forecast=ForecastRows(None, 1),
        )

    def test_assemble_matches_np_stack(self, config, rng):
        """Multi-run groups, with and without covariates, stage exactly
        what ``np.concatenate`` gives, in the same dtypes."""
        fn = rng.normal(size=(config.horizon, 3)).astype(np.float32)
        fc = rng.integers(0, 5, size=(config.horizon, 1)).astype(np.int64)
        requests = [
            self._request(rng, config),
            self._request(rng, config, fn=fn, fc=fc),
            self._request(rng, config),
            self._request(rng, config, fn=fn, fc=fc),
        ]
        groups = group_requests(requests)
        assert [len(members) for members in groups] == [2, 2]
        for members in groups:
            batch = stage_group(members)
            expected = {
                key: None if getattr(members[0], field) is None
                else np.concatenate([getattr(m, field) for m in members])
                for key, field in (
                    ("x", "history"),
                    ("future_numerical", "future_numerical"),
                    ("future_categorical", "future_categorical"),
                )
            }
            for key in ("x", "future_numerical", "future_categorical"):
                if expected[key] is None:
                    assert batch[key] is None
                else:
                    assert np.array_equal(batch[key], expected[key])
                    assert batch[key].dtype == expected[key].dtype

    @pytest.mark.parametrize("compiled", [True, False])
    def test_one_run_flush_hands_the_model_the_queued_block(self, model, config, rng, compiled):
        """A one-run flush passes ``predict`` views of the queued block (no
        staging copy of its own), and the pass leaves the block's bytes as
        they were."""
        service = ForecastService(model, max_batch_size=8, compiled=compiled)
        n = 5
        histories = rng.normal(size=(n, config.input_length, config.n_channels)).astype(np.float32)
        fn = [rng.normal(size=(config.horizon, 3)).astype(np.float32) for _ in range(n)]
        fc = [rng.integers(0, 5, size=(config.horizon, 1)) for _ in range(n)]
        rows = service.submit_many(
            histories, np.full(n, config.input_length), future_numerical=fn, future_categorical=fc
        )
        (queued,) = service._pending
        before = {
            "x": histories.copy(),
            "future_numerical": queued.future_numerical.copy(),
            "future_categorical": queued.future_categorical.copy(),
        }
        seen = {}
        predict = model.predict

        def spy(x, **kwargs):
            seen.update(kwargs, x=x)
            return predict(x, **kwargs)

        model.predict = spy
        try:
            service.flush()
        finally:
            del model.predict
        assert rows.all_done() and not rows.errors
        assert np.shares_memory(seen["x"], histories)
        assert np.shares_memory(seen["future_numerical"], queued.future_numerical)
        assert np.shares_memory(seen["future_categorical"], queued.future_categorical)
        assert np.array_equal(histories, before["x"])
        for key in ("future_numerical", "future_categorical"):
            assert np.array_equal(getattr(queued, key), before[key])
        expected = model.predict(
            before["x"], future_numerical=before["future_numerical"],
            future_categorical=before["future_categorical"],
        )
        assert np.array_equal(rows.values, expected)
