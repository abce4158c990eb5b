"""Replay harness: drive synthetic tenants through the streaming stack.

``replay`` feeds per-tenant series into a :class:`StreamingForecaster` one
time step at a time — every global tick ingests one new observation per
live tenant and then forecasts *all* of them through one service flush, the
steady-state shape of multi-tenant online serving.  ``compare_to_backfill``
then checks the core correctness property of the subsystem: forecasts
produced incrementally from ring-buffer windows must be **bit-identical**
to :meth:`ForecastService.backfill` run offline over the same series
(window ``k`` of the stream is exactly window ``k`` of the offline
dataset, and model forward passes are row-deterministic regardless of
batch composition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..data.containers import MultivariateTimeSeries
from ..data.timefeatures import make_timestamps
from ..data.windows import SlidingWindowDataset
from .forecaster import StreamingForecaster

__all__ = [
    "ReplayResult",
    "ParityReport",
    "replay",
    "replay_ticks",
    "compare_to_backfill",
    "parity_report",
]


@dataclass
class ReplayResult:
    """Everything the replay produced, plus the batching it achieved."""

    forecasts: Dict[str, np.ndarray]     # tenant -> [n_forecasts, horizon, C]
    steps: int                           # global ticks driven
    requests: int                        # forecasts submitted during replay
    forward_passes: int                  # service passes those coalesced into
    warmup: int                          # observations before a tenant's first forecast

    @property
    def mean_batch_size(self) -> float:
        """Requests per forward pass — > 1 means tenants actually coalesced."""
        return self.requests / self.forward_passes if self.forward_passes else 0.0


def replay_ticks(
    target,
    streams: Mapping[str, np.ndarray],
    warmup: int,
    on_tick: Optional[Callable[[int], None]] = None,
    empty: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """The tick loop every replay shares, over any ingest/forecast/flush target.

    Every global tick ingests one row per live tenant, then forecasts
    every tenant past ``warmup`` through one flush.  ``on_tick(step)``
    runs *before* the tick's ingests — the hook parity tests use to
    rebalance (or snapshot/restore) mid-stream.  Returns ``tenant ->
    [n_forecasts, horizon, channels]``, or ``empty`` (default: a
    zero-length 1-D array) for a tenant that never forecast.
    """
    if warmup < 1:
        raise ValueError(f"warmup must be positive, got {warmup}")
    arrays = {tenant: np.asarray(values, dtype=np.float32) for tenant, values in streams.items()}
    steps = max((len(values) for values in arrays.values()), default=0)
    collected: Dict[str, List[np.ndarray]] = {tenant: [] for tenant in arrays}
    for step in range(steps):
        if on_tick is not None:
            on_tick(step)
        pending = []
        for tenant, values in arrays.items():
            if step >= len(values):
                continue
            target.ingest(tenant, values[step])
            if step + 1 >= warmup:
                pending.append((tenant, target.forecast(tenant)))
        target.flush()
        for tenant, handle in pending:
            collected[tenant].append(handle.result())
    if empty is None:
        empty = np.zeros((0,), dtype=np.float32)
    return {tenant: np.stack(rows) if rows else empty for tenant, rows in collected.items()}


def replay(
    forecaster: StreamingForecaster,
    streams: Mapping[str, np.ndarray],
    warmup: Optional[int] = None,
) -> ReplayResult:
    """Stream per-tenant series through the forecaster tick by tick.

    Parameters
    ----------
    forecaster:
        the streaming stack under test (its service queue is flushed once
        per tick, after every live tenant has submitted).
    streams:
        ``tenant -> [T, C]`` raw observations; lengths may differ.
    warmup:
        observations a tenant must have before its first forecast (default:
        the model's ``input_length``, i.e. no cold-start padding).  After
        warmup, tick ``t`` forecasts from the window ending at row ``t`` —
        so tenant forecasts align one-to-one with the offline sliding
        windows of the same series.
    """
    warmup = forecaster.config.input_length if warmup is None else warmup
    for tenant, values in streams.items():
        if np.ndim(values) != 2:
            raise ValueError(f"stream {tenant!r} must be [T, C], got shape {np.shape(values)}")
    config = forecaster.config
    stats = forecaster.service.stats
    requests_before = stats.requests
    passes_before = stats.forward_passes
    forecasts = replay_ticks(
        forecaster, streams, warmup,
        empty=np.zeros((0, config.horizon, config.n_channels), dtype=np.float32),
    )
    return ReplayResult(
        forecasts=forecasts,
        steps=max((len(values) for values in streams.values()), default=0),
        requests=stats.requests - requests_before,
        forward_passes=stats.forward_passes - passes_before,
        warmup=warmup,
    )


@dataclass
class ParityReport:
    """Streaming-vs-offline comparison over every checkable window."""

    tenants: int
    windows_compared: int
    bit_identical: bool
    max_abs_error: float

    def raise_on_mismatch(self) -> "ParityReport":
        if self.windows_compared == 0:
            raise AssertionError(
                "parity check compared zero windows (every stream shorter "
                "than input_length + horizon?) — nothing was verified"
            )
        if not self.bit_identical:
            raise AssertionError(
                f"streaming forecasts diverge from offline backfill: "
                f"max |Δ| = {self.max_abs_error:.3e} over "
                f"{self.windows_compared} windows"
            )
        return self


def compare_to_backfill(
    forecaster: StreamingForecaster,
    streams: Mapping[str, np.ndarray],
    result: ReplayResult,
) -> ParityReport:
    """Check replayed streaming forecasts against offline ``backfill``.

    For each tenant the raw stream is wrapped in a
    :class:`SlidingWindowDataset` and pushed through the *same* service's
    ``backfill``; streaming forecast ``k`` (full-window forecasts only) must
    equal backfill row ``k`` bit for bit.  Streaming keeps forecasting past
    the last window that has targets, so only the overlapping prefix is
    compared.  Only ``normalization="none"`` replays are directly
    comparable — offline backfill has no per-tenant scaling.
    """
    if forecaster.normalization != "none":
        raise ValueError(
            "backfill parity is only defined for normalization='none'; "
            f"got {forecaster.normalization!r}"
        )
    config = forecaster.config
    # Forecasts issued before a full window accumulated are cold-start
    # (left-padded) and have no offline counterpart; skip past them.
    offset = max(0, config.input_length - result.warmup)

    def pairs():
        for tenant, values in streams.items():
            values = np.asarray(values, dtype=np.float32)
            if len(values) < config.input_length + config.horizon:
                continue  # too short for any offline window
            series = MultivariateTimeSeries(
                values=values,
                timestamps=make_timestamps(len(values), freq_minutes=60),
                name=f"replay-{tenant}",
            )
            dataset = SlidingWindowDataset(series, config.input_length, config.horizon)
            offline = forecaster.service.backfill(dataset)
            produced = result.forecasts[tenant][offset:]
            n = min(len(offline), len(produced))
            yield produced[:n], offline[:n]

    return parity_report(pairs(), tenants=len(result.forecasts))


def parity_report(
    pairs: Iterable[Tuple[np.ndarray, np.ndarray]], tenants: int
) -> ParityReport:
    """The one bitwise diff: ``(produced, expected)`` forecast stacks, pair
    by pair.  Vacuous truth is not parity: with nothing compared, the
    report does not claim it."""
    compared = 0
    identical = True
    max_abs = 0.0
    for produced, expected in pairs:
        compared += len(produced)
        if len(produced) == 0:
            continue
        diff = np.abs(produced.astype(np.float64) - expected.astype(np.float64))
        max_abs = max(max_abs, float(diff.max()))
        identical = identical and np.array_equal(produced, expected)
    return ParityReport(
        tenants=tenants,
        windows_compared=compared,
        bit_identical=identical and compared > 0,
        max_abs_error=max_abs,
    )
