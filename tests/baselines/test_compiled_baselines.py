"""Compiled-plan parity for the shape-determined baselines.

DLinear, NLinear, PatchTST and LightTS opted into ``supports_compiled_plan``:
their forwards are shape-determined, so one polymorphic plan traced at a
bucket batch must replay bit-identically to eager inference at every batch
size it serves.
"""

import numpy as np
import pytest

from repro.baselines import DLinear, LightTS, NLinear, PatchTST
from repro.nn.plan import CompiledPredictor, InferencePlan

COMPILED_BASELINES = [DLinear, NLinear, PatchTST, LightTS]


@pytest.fixture
def config(no_covariate_config):
    return no_covariate_config


@pytest.mark.parametrize("model_cls", COMPILED_BASELINES)
class TestCompiledBaselineParity:
    def test_opted_into_compiled_plans(self, model_cls, config):
        assert model_cls.supports_compiled_plan

    def test_plan_bit_identical_to_eager_across_batches(self, model_cls, config, rng):
        model = model_cls(config).eval()
        x = rng.normal(size=(8, config.input_length, config.n_channels)).astype(np.float32)
        plan = InferencePlan.trace(model, x)
        for batch in (1, 3, 5, 8):
            fresh = rng.normal(
                size=(batch, config.input_length, config.n_channels)
            ).astype(np.float32)
            assert np.array_equal(plan.run(fresh), model.predict(fresh))

    def test_liveness_arena_smaller_than_naive(self, model_cls, config, rng):
        model = model_cls(config).eval()
        x = rng.normal(size=(8, config.input_length, config.n_channels)).astype(np.float32)
        plan = InferencePlan.trace(model, x)
        assert 0 < plan.arena_nbytes < plan.naive_nbytes

    def test_predict_compiled_routes_through_one_bucket_plan(self, model_cls, config, rng):
        model = model_cls(config).eval()
        predictor = CompiledPredictor(model)
        warm = rng.normal(size=(8, config.input_length, config.n_channels)).astype(np.float32)
        assert np.array_equal(predictor.predict(warm), model.predict(warm))
        for batch in (1, 2, 5, 7):
            fresh = rng.normal(
                size=(batch, config.input_length, config.n_channels)
            ).astype(np.float32)
            assert np.array_equal(predictor.predict(fresh), model.predict(fresh))
        assert predictor.traces == 1 and len(predictor) == 1
