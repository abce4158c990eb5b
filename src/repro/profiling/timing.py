"""Wall-clock timing of training and inference, all through :func:`interleave`.

Sides run in rounds with the order reversed every other round, so host load
lands on all of them alike (Kalibera & Jones, "Rigorous Benchmarking in
Reasonable Time", ISMM 2013).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from ..core.base import ForecastModel
from ..nn import Tensor, no_grad
from ..obs import now

__all__ = ["Interleaved", "Samples", "interleave", "time_callable", "time_forward", "time_inference", "time_training_step"]


@dataclass(frozen=True)
class Samples:
    """One value per round: per-call seconds, or a per-round ratio."""

    values: Tuple[float, ...]

    @property
    def median(self) -> float:
        return float(np.median(self.values))

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def spread(self) -> float:
        """Interquartile range as a share of the median."""
        q1, median, q3 = np.percentile(self.values, (25, 50, 75))
        return float((q3 - q1) / median) if median else 0.0


class Interleaved(Dict[Hashable, Samples]):
    """Each side's per-call :class:`Samples` from one :func:`interleave` run."""

    def ratios(self, numerator: Hashable, denominator: Hashable) -> Samples:
        """Per-round ``numerator / denominator``; its median is the paired estimate."""
        return Samples(tuple(a / b for a, b in zip(self[numerator].values, self[denominator].values)))

    def wins(self, side: Hashable, other: Hashable) -> int:
        """Rounds in which ``side`` took less time than ``other``."""
        return sum(a < b for a, b in zip(self[side].values, self[other].values))


def interleave(sides: Mapping[Hashable, Callable[[], object]], rounds: int, inner: int = 1) -> Interleaved:
    """Time each side once per round; a sample is ``inner`` calls' seconds / ``inner``.

    Even rounds run the sides in mapping order, odd rounds in reverse.
    """
    if rounds < 1 or inner < 1 or not sides:
        raise ValueError(f"interleave needs rounds >= 1, inner >= 1 and a side; got {rounds}, {inner}, {len(sides)}")
    order = list(sides)
    times: Dict[Hashable, list] = {side: [] for side in order}
    for round_index in range(rounds):
        for side in order if round_index % 2 == 0 else reversed(order):
            fn = sides[side]
            start = now()
            for _ in range(inner):
                fn()
            times[side].append((now() - start) / inner)
    return Interleaved((side, Samples(tuple(values))) for side, values in times.items())


def time_callable(fn: Callable[[], object], repeats: int = 3) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeats`` runs."""
    if repeats < 1:
        raise ValueError("repeats must be positive")
    return interleave({"fn": fn}, repeats)["fn"].median


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
