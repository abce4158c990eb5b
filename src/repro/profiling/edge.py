"""Edge-device (CPU-only) inference emulation (paper Table VII).

The paper deploys the trained models on a CPU-only edge box (16 GB RAM, 6
cores) and reports seconds per inference as the input length grows.  In this
repository every model already runs on the CPU, so the experiment reduces to
timing single-sample inference across input lengths — optionally capping the
BLAS thread count to emulate a weaker device.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..config import ModelConfig, fit_patch_length
from ..core.base import ForecastModel
from .timing import time_inference

__all__ = ["limit_blas_threads", "edge_inference_profile"]

_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@contextmanager
def limit_blas_threads(n_threads: int):
    """Best-effort cap on BLAS threads to emulate a low-power CPU.

    The environment variables only affect BLAS pools created afterwards, so
    this is a soft emulation; it is still useful for comparing models under
    identical conditions.
    """
    if n_threads < 1:
        raise ValueError("n_threads must be positive")
    previous = {name: os.environ.get(name) for name in _BLAS_ENV_VARS}
    for name in _BLAS_ENV_VARS:
        os.environ[name] = str(n_threads)
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def edge_inference_profile(
    model_factory: Callable[[ModelConfig], ForecastModel],
    base_config: ModelConfig,
    input_lengths: Iterable[int],
    batch_size: int = 1,
    repeats: int = 3,
    n_threads: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Dict[int, float]:
    """Seconds per inference for each input length (Table VII row).

    A fresh, untrained model is built per input length — inference cost does
    not depend on the weights' values, only on the architecture.  The
    ``repeats`` timings are interleaved: each round times every length
    once, so a burst of host load lands on all lengths alike instead of on
    one length's samples, and each length reports its median.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    generator = rng if rng is not None else np.random.default_rng(0)
    models: Dict[int, ForecastModel] = {}
    for input_length in input_lengths:
        patch_length = fit_patch_length(input_length, base_config.patch_length)
        config = base_config.with_overrides(input_length=input_length, patch_length=patch_length)
        models[input_length] = model_factory(config)
    samples: Dict[int, List[float]] = {length: [] for length in models}
    with limit_blas_threads(n_threads) if n_threads is not None else nullcontext():
        for _ in range(repeats):
            for length, model in models.items():
                samples[length].append(
                    time_inference(model, batch_size=batch_size, repeats=1, rng=generator)
                )
    return {length: float(np.median(times)) for length, times in samples.items()}

