"""``repro.streaming`` — multi-tenant online forecasting.

PR 1's serving layer answers *"forecast this array"*; this subsystem
answers the workload the roadmap actually describes — observations arriving
continuously for many independent tenants, each wanting fresh forecasts:

* :class:`SeriesStore` — one ``[slots, capacity, channels]`` slab per
  store, a bounded ring per tenant slot (O(1) amortised append, no
  reallocation for a known tenant) holding just enough history to
  assemble forecast windows, plus, for rolling normalisation, the
  tenant's incremental per-channel Welford moments (the accumulators of a
  :class:`~repro.data.incremental.RollingScaler`), so new tenants never
  need an offline fit;
* :class:`StreamingForecaster` — gathers the tenants' latest
  ``input_length`` windows as one columnar block (a single forecast is a
  block of one), routes it through :meth:`ForecastService.submit_many`
  so concurrent tenants coalesce into micro-batches, and, under rolling
  normalisation, denormalises each tenant through its rolling stats;
* :func:`replay` / :func:`compare_to_backfill` — a harness that drives N
  synthetic tenants tick-by-tick and proves streaming output bit-identical
  to offline :meth:`ForecastService.backfill` over the same series.

See ``examples/streaming_quickstart.py`` for a tour and
``benchmarks/test_streaming_throughput.py`` for the measured coalescing win
over per-tenant sequential prediction.
"""

from .forecaster import StreamingForecaster
from .replay import ParityReport, ReplayResult, compare_to_backfill, replay
from .store import SeriesStore, StoreStats

__all__ = [
    "SeriesStore",
    "StoreStats",
    "StreamingForecaster",
    "ReplayResult",
    "ParityReport",
    "replay",
    "compare_to_backfill",
]
