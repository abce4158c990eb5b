"""Unit tests for serving request padding and coalescing."""

import numpy as np
import pytest

from repro.baselines import DLinear
from repro.config import ModelConfig
from repro.serving import ForecastService
from repro.serving.batching import (
    ForecastRequest,
    ForecastRows,
    group_requests,
    stage_group,
)

from padding_oracle import reference_pad


def _request(history, fn=None, fc=None):
    """A one-row queued run, as ``ForecastService.submit`` builds it."""
    return ForecastRequest(
        history=np.asarray(history, dtype=np.float32)[None],
        observed_length=np.array([len(history)]),
        future_numerical=None if fn is None else fn[None],
        future_categorical=None if fc is None else fc[None],
        forecast=ForecastRows(flush=None, n=1),
    )


def _assembled(requests):
    """``(batch, members)`` per forward-pass group, the way the flush loop
    builds them: ``group_requests`` then ``stage_group``."""
    return [(stage_group(members), members) for members in group_requests(requests)]


def _service(input_length, n_channels):
    config = ModelConfig(
        input_length=input_length, horizon=2, n_channels=n_channels,
        patch_length=1, hidden_dim=4, dropout=0.0,
    )
    return ForecastService(DLinear(config), compiled=False)


def _assert_submit_matches_reference(service, history):
    """``submit`` queues the row and observed length ``reference_pad`` gives."""
    config = service.config
    expected, observed = reference_pad(history, config.input_length, config.n_channels)
    service.submit(history)
    (request,) = service._pending
    assert request.history.dtype == np.float32
    np.testing.assert_array_equal(request.history[0], expected)
    assert request.observed_length.tolist() == [observed]
    assert service.stats.padded_requests == int(observed < config.input_length)
    return expected


class TestSubmitPadding:
    """``submit``'s truncation and padding, checked against ``reference_pad``."""

    def test_exact_length_passthrough(self):
        history = np.arange(12, dtype=np.float32).reshape(6, 2)
        padded = _assert_submit_matches_reference(_service(6, 2), history)
        np.testing.assert_array_equal(padded, history)

    def test_long_history_keeps_most_recent_steps(self):
        history = np.arange(20, dtype=np.float32).reshape(10, 2)
        padded = _assert_submit_matches_reference(_service(4, 2), history)
        np.testing.assert_array_equal(padded, history[-4:])

    def test_float64_history_is_cast_like_the_reference(self):
        history = np.random.default_rng(0).normal(size=(7, 2))
        _assert_submit_matches_reference(_service(4, 2), history)
        _assert_submit_matches_reference(_service(8, 2), history)

    def test_short_history_edge_padded_on_left(self):
        history = np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float32)
        padded = _assert_submit_matches_reference(_service(5, 2), history)
        np.testing.assert_array_equal(padded[:3], np.repeat(history[:1], 3, axis=0))
        np.testing.assert_array_equal(padded[3:], history)

    def test_one_dimensional_history_promoted_to_single_channel(self):
        padded = _assert_submit_matches_reference(_service(6, 1), np.arange(6.0))
        assert padded.shape == (6, 1)

    @pytest.mark.parametrize(
        "history, input_length, n_channels",
        [
            (np.ones((4, 3)), 4, 2),      # channel mismatch
            (np.ones((0, 2)), 4, 2),      # empty
            (np.ones((2, 2, 2)), 4, 2),   # bad rank
        ],
    )
    def test_invalid_inputs_raise(self, history, input_length, n_channels):
        with pytest.raises(ValueError):
            reference_pad(history, input_length, n_channels)
        service = _service(input_length, n_channels)
        with pytest.raises(ValueError):
            service.submit(history)
        assert service.pending == 0
        assert service.stats.requests == 0


class TestCoalesce:
    def test_homogeneous_requests_form_one_group(self):
        requests = [_request(np.full((4, 2), i)) for i in range(3)]
        groups = _assembled(requests)
        assert len(groups) == 1
        batch, members = groups[0]
        assert batch["x"].shape == (3, 4, 2)
        assert batch["future_numerical"] is None
        assert members == requests  # submission order preserved

    def test_mixed_covariates_split_into_groups(self):
        fn = np.ones((6, 2), dtype=np.float32)
        fc = np.zeros((6, 1), dtype=np.int64)
        requests = [
            _request(np.zeros((4, 2)), fn=fn, fc=fc),
            _request(np.ones((4, 2))),
            _request(np.full((4, 2), 2.0), fn=fn, fc=fc),
        ]
        groups = _assembled(requests)
        assert len(groups) == 2
        sizes = sorted(len(members) for _, members in groups)
        assert sizes == [1, 2]
        for batch, members in groups:
            if members[0].future_numerical is not None:
                assert batch["future_numerical"].shape == (2, 6, 2)
                assert batch["future_categorical"].shape == (2, 6, 1)
            else:
                assert batch["future_numerical"] is None

    def test_numerical_only_and_both_do_not_mix(self):
        fn = np.ones((6, 2), dtype=np.float32)
        fc = np.zeros((6, 1), dtype=np.int64)
        requests = [
            _request(np.zeros((4, 2)), fn=fn),
            _request(np.zeros((4, 2)), fn=fn, fc=fc),
        ]
        assert len(_assembled(requests)) == 2

    def test_empty_input(self):
        assert _assembled([]) == []
