"""An independent reference for the padding ``ForecastService.submit`` does.

The service pads in place: ``submit`` copies a history right-aligned into
a ``[1, input_length, C]`` block and ``ForecastService._pad_block`` fills
the rows to its left.  :func:`reference_pad` gets the same answer a
different way, by truncating and concatenating, so a fault in the
in-place code cannot hide behind a reference that shares it.
"""

from typing import Tuple

import numpy as np


def reference_pad(history: np.ndarray, input_length: int, n_channels: int) -> Tuple[np.ndarray, int]:
    """Normalise a single history to ``[input_length, n_channels]`` float32.

    Histories longer than ``input_length`` keep their most recent steps;
    shorter ones are left-padded with their first step.  Returns the
    padded history and the number of observed (un-padded) steps.
    """
    history = np.asarray(history, dtype=np.float32)
    if history.ndim == 1:
        history = history[:, None]
    if history.ndim != 2:
        raise ValueError(f"history must be [time, channels], got shape {history.shape}")
    if history.shape[1] != n_channels:
        raise ValueError(f"expected {n_channels} channels, got {history.shape[1]}")
    observed = history.shape[0]
    if observed == 0:
        raise ValueError("history must contain at least one time step")
    if observed >= input_length:
        return history[-input_length:], input_length
    pad = np.repeat(history[:1], input_length - observed, axis=0)
    return np.concatenate([pad, history], axis=0), observed
