"""Tests for compiled graph-free inference plans (``repro.nn.plan``)."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.core import BasePredictor, ForecastModel, LiPFormer
from repro.nn import AdamW, InferencePlan, PlanUnsupported, Tensor, no_grad
from repro.nn.plan import CompiledPredictor


@pytest.fixture
def plain_config():
    return ModelConfig(
        input_length=48, horizon=12, n_channels=3, patch_length=12,
        hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1, seed=3,
    )


@pytest.fixture
def covariate_config():
    return ModelConfig(
        input_length=48, horizon=12, n_channels=3, patch_length=12,
        hidden_dim=16, dropout=0.0, covariate_numerical_dim=4,
        covariate_categorical_cardinalities=(24, 7), covariate_embed_dim=2,
        covariate_hidden_dim=8, seed=3,
    )


def _covariates(rng, batch, config):
    fn = rng.normal(size=(batch, config.horizon, config.covariate_numerical_dim)).astype(np.float32)
    fc = np.stack(
        [
            rng.integers(0, card, size=(batch, config.horizon))
            for card in config.covariate_categorical_cardinalities
        ],
        axis=-1,
    )
    return fn, fc


class _BatchCoupled(ForecastModel):
    """A toy forward whose sample rows depend on other samples' rows."""

    supports_compiled_plan = True

    def __init__(self, config, couple):
        super().__init__(config)
        self.couple = couple

    def forward(self, x, future_numerical=None, future_categorical=None):
        return self.couple(x)[:, -self.config.horizon:, :]


# (batch coupling, the PlanUnsupported reason it must trace to)
BATCH_COUPLED = {
    # the mean buffer's leading dim is 1 at every batch
    "mean-keepdims": (lambda x: x - x.mean(axis=0, keepdims=True), "does not scale"),
    # (48, 3) looks batch-scaled, but its prefix slice breaks the kernel
    "mean": (lambda x: x - x.mean(axis=0), "replay failed at batch 1"),
    # a reversed view has no leading-dim prefix
    "reversed": (lambda x: x[::-1] * 1.0, "no prefix slice"),
}


class TestInferencePlan:
    def test_trace_replays_bit_identical_on_fresh_inputs(self, plain_config, rng):
        model = LiPFormer(plain_config).eval()
        x = rng.normal(size=(4, 48, 3)).astype(np.float32)
        plan = InferencePlan.trace(model, x)
        for _ in range(3):
            fresh = rng.normal(size=(4, 48, 3)).astype(np.float32)
            assert np.array_equal(plan.run(fresh), model.predict(fresh))

    def test_plan_output_buffer_is_reused_across_runs(self, plain_config, rng):
        model = LiPFormer(plain_config).eval()
        x = rng.normal(size=(2, 48, 3)).astype(np.float32)
        plan = InferencePlan.trace(model, x)
        first = plan.run(x, copy=False)
        second = plan.run(rng.normal(size=(2, 48, 3)).astype(np.float32), copy=False)
        assert first is second  # steady state: zero new output allocations
        assert plan.arena_nbytes > 0

    def test_run_rejects_wrong_shape_and_signature(self, plain_config, rng):
        model = LiPFormer(plain_config).eval()
        x = rng.normal(size=(2, 48, 3)).astype(np.float32)
        plan = InferencePlan.trace(model, x)
        with pytest.raises(ValueError, match="input shape"):
            plan.run(rng.normal(size=(3, 48, 3)).astype(np.float32))
        with pytest.raises(ValueError, match="covariate signature"):
            plan.run(x, future_numerical=np.zeros((2, 12, 4), dtype=np.float32))

    def test_covariate_plan_follows_fresh_categorical_indices(self, covariate_config, rng):
        """Embedding gathers must re-read the categorical input buffer."""
        model = LiPFormer(covariate_config).eval()
        # The vector mapping is zero-initialised (no guidance until trained);
        # give it weight so covariate values actually reach the forecast.
        model.vector_mapping.weight.data[...] = rng.normal(
            size=model.vector_mapping.weight.shape
        ).astype(np.float32)
        x = rng.normal(size=(4, 48, 3)).astype(np.float32)
        fn, fc = _covariates(rng, 4, covariate_config)
        plan = InferencePlan.trace(model, x, fn, fc)
        fn2, fc2 = _covariates(rng, 4, covariate_config)
        expected = model.predict(x, future_numerical=fn2, future_categorical=fc2)
        assert np.array_equal(plan.run(x, fn2, fc2), expected)
        # Covariates must actually matter, or the test proves nothing.
        assert not np.array_equal(expected, model.predict(x, future_numerical=fn, future_categorical=fc))

    def test_replay_rejects_out_of_range_categorical_indices(self, covariate_config, rng):
        """Eager raises for index sentinels like -1; a replayed plan must
        too, not silently gather wrapped embedding rows."""
        model = LiPFormer(covariate_config).eval()
        x = rng.normal(size=(2, 48, 3)).astype(np.float32)
        fn, fc = _covariates(rng, 2, covariate_config)
        plan = InferencePlan.trace(model, x, fn, fc)
        bad = fc.copy()
        bad[0, 0, 0] = -1
        with pytest.raises(IndexError, match="embedding index out of range"):
            model.predict(x, future_numerical=fn, future_categorical=bad)
        with pytest.raises(IndexError, match="embedding index out of range"):
            plan.run(x, fn, bad)
        # A valid follow-up request still replays correctly.
        assert np.array_equal(
            plan.run(x, fn, fc), model.predict(x, future_numerical=fn, future_categorical=fc)
        )

    def test_trace_requires_eval_mode(self, plain_config, rng):
        model = LiPFormer(plain_config)  # training=True
        with pytest.raises(PlanUnsupported, match="eval"):
            InferencePlan.trace(model, rng.normal(size=(2, 48, 3)).astype(np.float32))

    def test_plan_unsupported_is_the_shared_typed_error(self):
        import repro.errors
        import repro.nn.plan

        assert repro.errors.PlanUnsupported is PlanUnsupported
        assert repro.nn.plan.PlanUnsupported is PlanUnsupported
        assert issubclass(PlanUnsupported, RuntimeError)

    def test_base_predictor_traces_too(self, plain_config, rng):
        model = BasePredictor(plain_config).eval()
        x = rng.normal(size=(3, 48, 3)).astype(np.float32)
        plan = InferencePlan.trace(model, x)
        fresh = rng.normal(size=(3, 48, 3)).astype(np.float32)
        assert np.array_equal(plan.run(fresh), model.predict(fresh))

    def test_plan_is_stale_after_parameter_rebind(self, plain_config, rng):
        model = LiPFormer(plain_config).eval()
        x = rng.normal(size=(2, 48, 3)).astype(np.float32)
        plan = InferencePlan.trace(model, x)
        assert not plan.is_stale()
        param = model.parameters()[0]
        param.data = param.data * 2.0
        assert plan.is_stale()


class TestParameterVersion:
    def test_rebind_bumps_version_in_place_write_does_not(self, plain_config):
        model = LiPFormer(plain_config)
        param = model.parameters()[0]
        before = param.version
        param.data[...] = 0.5           # in-place: plans read through, no bump
        assert param.version == before
        param.data = param.data * 2.0   # rebind: bump
        assert param.version == before + 1

    def test_load_state_dict_bumps_every_parameter(self, plain_config):
        model = LiPFormer(plain_config)
        before = model.parameter_version()
        model.load_state_dict(model.state_dict())
        after = model.parameter_version()
        assert after == before + len(model.parameters())

    def test_optimizer_step_bumps_versions(self, plain_config, rng):
        model = LiPFormer(plain_config)
        optimizer = AdamW(model.parameters(), lr=1e-3)
        x = Tensor(rng.normal(size=(2, 48, 3)).astype(np.float32))
        loss = (model(x) * model(x)).mean()
        loss.backward()
        before = model.parameter_version()
        optimizer.step()
        assert model.parameter_version() > before


class TestCompiledPredictor:
    def test_predict_matches_eager_across_bucketed_batches(self, plain_config, rng):
        model = LiPFormer(plain_config).eval()
        predictor = CompiledPredictor(model)
        for batch in (1, 2, 4):
            x = rng.normal(size=(batch, 48, 3)).astype(np.float32)
            assert np.array_equal(predictor.predict(x), model.predict(x))   # trace
            assert np.array_equal(predictor.predict(x), model.predict(x))   # replay
        # Each ascending power-of-two batch traced its bucket, and each
        # bucket plan replaced the smaller one: one plan left.
        assert len(predictor) == 1
        assert predictor.traces == 3 and predictor.hits == 3
        # A batch strictly inside the warm bucket needs no new trace.
        x = rng.normal(size=(3, 48, 3)).astype(np.float32)
        assert np.array_equal(predictor.predict(x), model.predict(x))
        assert predictor.traces == 3 and predictor.hits == 4

    def test_warm_at_max_batch_serves_all_batches_from_one_plan(self, plain_config, rng):
        model = LiPFormer(plain_config).eval()
        predictor = CompiledPredictor(model)
        predictor.predict(rng.normal(size=(8, 48, 3)).astype(np.float32))
        for batch in range(1, 9):
            x = rng.normal(size=(batch, 48, 3)).astype(np.float32)
            assert np.array_equal(predictor.predict(x), model.predict(x))
        assert predictor.traces == 1 and len(predictor) == 1

    def test_lru_eviction_bounds_the_cache(self, covariate_config, rng):
        # The cache key is batch-free, so eviction is exercised through two
        # distinct covariate *signatures* on the same model.
        model = LiPFormer(covariate_config).eval()
        predictor = CompiledPredictor(model, capacity=1)
        x = rng.normal(size=(2, 48, 3)).astype(np.float32)
        fn, fc = _covariates(rng, 2, covariate_config)
        predictor.predict(x, fn, fc)
        predictor.predict(x)                       # plain signature evicts it
        assert len(predictor) == 1
        assert predictor.plan_for(x, fn, fc) is None
        assert predictor.plan_for(x) is not None

    def test_stale_plan_retraced_after_load_state(self, plain_config, rng):
        model = LiPFormer(plain_config).eval()
        predictor = CompiledPredictor(model)
        x = rng.normal(size=(2, 48, 3)).astype(np.float32)
        predictor.predict(x)
        state = {name: value * 1.5 for name, value in model.state_dict().items()}
        model.load_state_dict(state)
        assert np.array_equal(predictor.predict(x), model.predict(x))
        assert predictor.invalidations == 1 and predictor.traces == 2

    def test_training_mode_miss_does_not_poison_the_cache(self, plain_config, rng):
        model = LiPFormer(plain_config)  # training=True
        predictor = CompiledPredictor(model)
        x = rng.normal(size=(2, 48, 3)).astype(np.float32)
        assert predictor.predict(x) is None
        assert predictor.needs_eval_trace
        model.eval()
        assert predictor.predict(x) is not None

    def test_failed_trace_retried_after_weight_change(self, plain_config, rng):
        """A transient trace failure must not disable the compiled path
        forever: a parameter rebind retires the unsupported marker."""
        model = LiPFormer(plain_config).eval()
        predictor = CompiledPredictor(model)
        x = rng.normal(size=(2, 48, 3)).astype(np.float32)

        original_forward = model.forward
        model.forward = lambda *a, **k: original_forward(*a, **k).data  # not a Tensor
        assert predictor.predict(x) is None
        assert predictor.predict(x) is None       # marker hit, no re-trace
        assert predictor.fallbacks == 2 and predictor.traces == 0

        model.forward = original_forward
        assert predictor.predict(x) is None       # weights unchanged: still marked
        param = model.parameters()[0]
        param.data = param.data.copy()            # rebind retires the marker
        assert np.array_equal(predictor.predict(x), model.predict(x))
        assert predictor.traces == 1

    def test_unsupported_markers_do_not_evict_live_plans(self, plain_config, rng):
        model = LiPFormer(plain_config).eval()
        predictor = CompiledPredictor(model, capacity=2)
        good = [rng.normal(size=(n, 48, 3)).astype(np.float32) for n in (1, 2)]
        for x in good:
            predictor.predict(x)
        original_forward = model.forward
        model.forward = lambda *a, **k: original_forward(*a, **k).data
        for n in (3, 4, 5):
            assert predictor.predict(rng.normal(size=(n, 48, 3)).astype(np.float32)) is None
        model.forward = original_forward
        # The bucket-2 plan subsumed bucket 1, so one live plan remains —
        # and the markers consumed no plan slots.
        assert len(predictor) == 1
        for x in good:
            assert predictor.plan_for(x) is not None

    @pytest.mark.parametrize("coupling", sorted(BATCH_COUPLED))
    def test_batch_coupled_model_falls_back_to_eager(self, plain_config, rng, coupling):
        """A forward that couples samples has no prefix-sliced replay: the
        trace is unsupported and the signature serves eager."""
        couple, reason = BATCH_COUPLED[coupling]
        model = _BatchCoupled(plain_config, couple).eval()
        with pytest.raises(PlanUnsupported, match=reason):
            InferencePlan.trace(model, rng.normal(size=(4, 48, 3)).astype(np.float32))
        predictor = model.compiled_predictor()
        x = rng.normal(size=(3, 48, 3)).astype(np.float32)
        for _ in range(2):
            assert predictor.predict(x) is None
            assert np.array_equal(model.predict(x, compiled=True), model.predict(x))
        assert predictor.fallbacks == 4 and predictor.traces == 0
        assert predictor.plan_for(x) is None

    def test_run_rejects_wrong_covariate_shape(self, covariate_config, rng):
        model = LiPFormer(covariate_config).eval()
        x = rng.normal(size=(2, 48, 3)).astype(np.float32)
        fn, fc = _covariates(rng, 2, covariate_config)
        plan = InferencePlan.trace(model, x, fn, fc)
        with pytest.raises(ValueError, match="future_numerical shape"):
            plan.run(x, fn[..., :1], fc)          # would broadcast silently
        with pytest.raises(ValueError, match="future_categorical shape"):
            plan.run(x, fn, fc[:1])

    def test_unsupported_model_predict_falls_back_to_eager(self, plain_config, rng):
        model = BasePredictor(plain_config)
        model.supports_compiled_plan = False
        x = rng.normal(size=(2, 48, 3)).astype(np.float32)
        out = model.predict(x, compiled=True)
        assert out.shape == (2, 12, 3)
        assert getattr(model, "_compiled", None) is None  # never built a cache


class TestModelPredictCompiled:
    def test_predict_compiled_from_training_mode_restores_flag(self, plain_config, rng):
        model = LiPFormer(plain_config)
        assert model.training
        x = rng.normal(size=(2, 48, 3)).astype(np.float32)
        compiled = model.predict(x, compiled=True)
        assert model.training  # flag restored after the eval-mode trace
        assert np.array_equal(compiled, model.predict(x))

    def test_trainer_fit_invalidates_plans(self, etth1_smoke_data, training_config):
        from repro.training import Trainer

        config = ModelConfig(
            input_length=etth1_smoke_data.input_length,
            horizon=etth1_smoke_data.horizon,
            n_channels=etth1_smoke_data.n_channels,
            patch_length=12, hidden_dim=16, dropout=0.0,
        )
        model = LiPFormer(config)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, config.input_length, config.n_channels)).astype(np.float32)
        before = model.predict(x, compiled=True)
        predictor = model.compiled_predictor()
        assert predictor.traces == 1

        Trainer(model, training_config).fit(etth1_smoke_data)

        plan = predictor.plan_for(x)
        assert plan is not None and plan.is_stale()
        after_eager = model.predict(x)
        after_compiled = model.predict(x, compiled=True)
        assert np.array_equal(after_compiled, after_eager)
        assert not np.array_equal(after_compiled, before)
        assert predictor.invalidations == 1


class TestNoGradFastPath:
    def test_no_grad_ops_record_no_parents_or_backward(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with no_grad():
            for out in (a + b, a * b, a @ b.transpose(), a.exp(), a.sum(), (a - b), a.relu()):
                assert out._prev == ()
                assert out._backward is None
                assert not out.requires_grad

    def test_no_grad_results_retain_no_reference_to_operands(self, rng):
        """The fast path must not capture parents in closures (GC pressure
        and reference cycles in long-running services)."""
        import weakref

        a = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        with no_grad():
            out = a * 2.0 + 1.0
        # Tensors are slotted (no __weakref__); probe through the operand's
        # backing array, which dies with it unless a closure captured it.
        ref = weakref.ref(a.data)
        del a
        assert ref() is None, "no_grad result kept its operand alive"
        assert out.shape == (8, 8)

    def test_grad_path_still_records_graph(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = (a * a).sum()
        assert out._backward is not None and out._prev != ()
        out.backward()
        assert a.grad is not None
