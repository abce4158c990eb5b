"""Wall-clock timing of training and inference."""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from ..core.base import ForecastModel
from ..nn import Tensor, no_grad

__all__ = ["time_callable", "time_forward", "time_inference", "time_training_step"]


def time_callable(fn: Callable[[], object], repeats: int = 3) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeats`` runs."""
    if repeats < 1:
        raise ValueError("repeats must be positive")
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return float(np.median(timings))


def time_forward(model: ForecastModel, x: Tensor, repeats: int = 3, **covariates) -> float:
    """Median seconds for ``model(x, **covariates)`` in eval mode under
    ``no_grad``; the model's train/eval flag is restored afterwards."""

    def run() -> None:
        with no_grad():
            model(x, **covariates)

    was_training = model.training
    model.eval()
    try:
        return time_callable(run, repeats=repeats)
    finally:
        model.train(was_training)


def time_inference(
    model: ForecastModel,
    batch_size: int = 32,
    repeats: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Median seconds for one batched forward pass on random data."""
    generator = rng if rng is not None else np.random.default_rng(0)
    config = model.config
    x = Tensor(
        generator.standard_normal((batch_size, config.input_length, config.n_channels)).astype(np.float32)
    )
    return time_forward(model, x, repeats=repeats)


def time_training_step(
    model: ForecastModel,
    batch_size: int = 32,
    repeats: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Median seconds for one forward + backward pass on random data."""
    from ..nn import SmoothL1Loss

    generator = rng if rng is not None else np.random.default_rng(0)
    config = model.config
    x = Tensor(
        generator.standard_normal((batch_size, config.input_length, config.n_channels)).astype(np.float32)
    )
    y = generator.standard_normal((batch_size, config.horizon, config.n_channels)).astype(np.float32)
    loss_fn = SmoothL1Loss()

    def run() -> None:
        model.zero_grad()
        loss = loss_fn(model(x), y)
        loss.backward()

    return time_callable(run, repeats=repeats)
