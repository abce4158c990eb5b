"""Tests for parameter counting, MAC measurement, timing and edge emulation."""

import os

import numpy as np
import pytest

from repro.baselines import DLinear, PatchTST, VanillaTransformer, create_model
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.profiling import (
    count_parameters,
    edge_inference_profile,
    human_readable_count,
    interleave,
    limit_blas_threads,
    measure_macs,
    parameter_breakdown,
    time_callable,
    time_inference,
    time_training_step,
)


class TestParameterCounting:
    def test_count_matches_module(self, small_config, rng):
        model = LiPFormer(small_config, rng=rng)
        assert count_parameters(model) == model.num_parameters()

    def test_breakdown_sums_to_total(self, small_config, rng):
        model = LiPFormer(small_config, rng=rng)
        breakdown = parameter_breakdown(model)
        assert sum(breakdown.values()) == model.num_parameters()
        assert "base_predictor" in breakdown
        assert "covariate_encoder" in breakdown

    def test_human_readable(self):
        assert human_readable_count(512) == "512"
        assert human_readable_count(66_000) == "66.0K"
        assert human_readable_count(6_400_000) == "6.40M"
        assert human_readable_count(1_420_000_000_000) == "1.42T"

    def test_human_readable_rejects_negative(self):
        with pytest.raises(ValueError):
            human_readable_count(-1)


class TestMacs:
    def test_macs_positive_and_scale_with_batch(self, no_covariate_config, rng):
        model = DLinear(no_covariate_config, rng=rng)
        small = measure_macs(model, batch_size=4)
        large = measure_macs(model, batch_size=8)
        assert small > 0
        assert large == pytest.approx(2 * small, rel=0.05)

    def test_lipformer_cheaper_than_point_wise_transformer(self, no_covariate_config, rng):
        """The headline efficiency claim: LiPFormer needs far fewer MACs."""
        config = no_covariate_config.with_overrides(hidden_dim=32)
        lipformer = LiPFormer(config, rng=rng)
        transformer = VanillaTransformer(config, rng=rng)
        assert measure_macs(lipformer, batch_size=4) < measure_macs(transformer, batch_size=4)

    def test_macs_with_covariates(self, small_config, rng):
        model = LiPFormer(small_config, rng=rng)
        assert measure_macs(model, batch_size=2) > 0

    @pytest.mark.parametrize(
        "model_cls, config, batch, expected",
        [
            pytest.param(
                LiPFormer,
                ModelConfig(
                    input_length=48, horizon=12, n_channels=1, patch_length=12,
                    hidden_dim=32, dropout=0.0,
                ),
                8,
                60_416,
                id="lipformer-fleet",
            ),
            pytest.param(
                LiPFormer,
                ModelConfig(
                    input_length=96, horizon=24, n_channels=7, patch_length=24,
                    hidden_dim=64, dropout=0.0, covariate_numerical_dim=4,
                    covariate_categorical_cardinalities=(7, 24),
                ),
                8,
                5_028_352,
                id="lipformer-enriched",
            ),
            pytest.param(
                VanillaTransformer,
                ModelConfig(
                    input_length=192, horizon=24, n_channels=3, patch_length=24,
                    hidden_dim=32, dropout=0.0, n_heads=2, n_layers=2,
                ),
                4,
                37_831_680,
                id="vanilla-transformer",
            ),
        ],
    )
    def test_macs_are_pinned(self, model_cls, config, batch, expected, rng):
        """Fused attention counts exactly the MACs of the two matmuls it
        replaced (``rows * Lk * (d + dv)``) and one-GEMM linear maps count
        the same products, so the efficiency tables keep their numbers."""
        assert measure_macs(model_cls(config, rng=rng), batch_size=batch) == expected


class TestTiming:
    def test_time_callable_positive(self):
        assert time_callable(lambda: sum(range(1000)), repeats=2) >= 0

    def test_time_callable_validates_repeats(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)

    def test_inference_and_training_step_timing(self, no_covariate_config, rng):
        model = DLinear(no_covariate_config, rng=rng)
        assert time_inference(model, batch_size=4, repeats=2) > 0
        assert time_training_step(model, batch_size=4, repeats=2) > 0

    def test_training_step_slower_than_inference(self, no_covariate_config, rng):
        model = PatchTST(no_covariate_config.with_overrides(hidden_dim=32), rng=rng)
        inference = time_inference(model, batch_size=16, repeats=3)
        training = time_training_step(model, batch_size=16, repeats=3)
        assert training > inference


class FakeClock:
    """Stands in for ``repro.obs.now``: every side call advances it by that
    side's own duration and records which side ran."""

    def __init__(self, durations):
        self.time = 0.0
        self.calls = []
        self.durations = durations

    def now(self):
        return self.time

    def side(self, name):
        def call():
            self.calls.append(name)
            self.time += self.durations[name][sum(1 for c in self.calls if c == name) - 1]
        return call


class TestInterleave:
    @pytest.fixture
    def clock(self, monkeypatch):
        # Per-call durations, indexed by call number: "a" is faster in
        # rounds 0, 1 and 3, "b" in round 2 (two calls per round, inner=2).
        fake = FakeClock({
            "a": [1.0, 1.0, 2.0, 2.0, 8.0, 8.0, 0.5, 1.5],
            "b": [4.0, 4.0, 3.0, 3.0, 2.0, 2.0, 4.0, 4.0],
        })
        monkeypatch.setattr("repro.profiling.timing.now", fake.now)
        return fake

    def test_order_alternates_and_inner_divides_each_sample(self, clock):
        timings = interleave({"a": clock.side("a"), "b": clock.side("b")}, rounds=4, inner=2)
        assert clock.calls == ["a", "a", "b", "b", "b", "b", "a", "a"] * 2
        assert timings["a"].values == (1.0, 2.0, 8.0, 1.0)
        assert timings["b"].values == (4.0, 3.0, 2.0, 4.0)
        assert timings["a"].min == 1.0
        assert timings["a"].median == 1.5
        # Quartiles of (1, 1, 2, 8) are 1 and 3.5: IQR / median = 2.5 / 1.5.
        assert timings["a"].spread == pytest.approx(2.5 / 1.5)

    def test_ratio_is_the_median_per_round_ratio_and_wins_count_rounds(self, clock):
        timings = interleave({"a": clock.side("a"), "b": clock.side("b")}, rounds=4, inner=2)
        # Per-round b / a: 4, 1.5, 0.25, 4; the ratio of the medians would
        # be 3.5 / 1.5 instead.
        assert timings.ratios("b", "a").values == (4.0, 1.5, 0.25, 4.0)
        assert timings.ratios("b", "a").median == pytest.approx(2.75)
        assert timings.wins("a", "b") == 3
        assert timings.wins("b", "a") == 1

    def test_each_side_gets_one_sample_per_round(self, clock):
        timings = interleave({"a": clock.side("a"), "b": clock.side("b")}, rounds=3)
        assert clock.calls == ["a", "b", "b", "a", "a", "b"]
        assert len(timings["a"].values) == len(timings["b"].values) == 3

    @pytest.mark.parametrize("rounds, inner, sides", [(0, 1, {"a": int}), (1, 0, {"a": int}), (1, 1, {})])
    def test_rejects_empty_measurements(self, rounds, inner, sides):
        with pytest.raises(ValueError):
            interleave(sides, rounds=rounds, inner=inner)


class TestEdgeEmulation:
    def test_thread_limiting_restores_environment(self):
        original = os.environ.get("OMP_NUM_THREADS")
        with limit_blas_threads(2):
            assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ.get("OMP_NUM_THREADS") == original

    def test_thread_limit_validation(self):
        with pytest.raises(ValueError):
            with limit_blas_threads(0):
                pass

    def test_edge_profile_keys_and_values(self, no_covariate_config, rng):
        profile = edge_inference_profile(
            model_factory=lambda config: DLinear(config, rng=rng),
            base_config=no_covariate_config,
            input_lengths=(24, 48),
            repeats=1,
            rng=rng,
        )
        assert set(profile) == {24, 48}
        assert all(value > 0 for value in profile.values())

    def test_edge_profile_adjusts_patch_length(self, no_covariate_config, rng):
        # input length 30 is not divisible by the preferred patch length 12;
        # the profile helper must still construct a valid model.
        profile = edge_inference_profile(
            model_factory=lambda config: create_model("LiPFormer", config),
            base_config=no_covariate_config,
            input_lengths=(30,),
            repeats=1,
            rng=rng,
        )
        assert 30 in profile
