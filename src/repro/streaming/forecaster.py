"""Multi-tenant online forecasting over the micro-batched serving layer.

:class:`StreamingForecaster` is the glue between arrivals and forecasts:
observations stream into a :class:`~repro.streaming.store.SeriesStore`
(``ingest``), and every forecast is a columnar sweep
(``forecast_many``): one store gather of the tenants' latest
``input_length`` windows, one vectorised normalisation and one
:meth:`~repro.serving.service.ForecastService.submit_many` per block, so
forecasts for concurrent tenants queue on the service and coalesce into
one padded forward pass.  Short histories (cold-start tenants) lean on
the service's left-padding.  ``forecast`` is a sweep of one tenant, and
``forecast_all`` a sweep of many plus a flush.

Two normalisation modes handle the distribution-shift story at the
serving boundary (the paper's Section III-C1 last-value normalisation
needs no mode here: LiPFormer applies it inside every forward pass):

* ``"none"``      — values are already in model space (e.g. replaying an
  offline-scaled series); forecasts come back untouched.  This is the mode
  under which streaming output is bit-identical to offline ``backfill``.
* ``"rolling"``   — the store keeps per-tenant Welford moments (the
  accumulators of a :class:`~repro.data.incremental.RollingScaler`),
  updated in the same locked call that appends the rows; the window is
  standardised with the tenant's current statistics, read under the same
  lock as the window, and the forecast is mapped back through the same
  statistics.  New tenants never need an offline fit.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..config import ModelConfig
from ..data.incremental import RollingScaler
from ..serving.admission import DEFAULT_PRIORITY
from ..serving.batching import Forecast, ForecastRows
from ..serving.service import ForecastService
from .store import SeriesStore, StoreStats

__all__ = [
    "StreamingForecaster",
    "check_state_header",
    "payload_census",
    "state_tenants",
]

_NORMALIZATIONS = ("none", "rolling")


class StreamingForecaster:
    """Append observations per tenant; serve micro-batched fresh forecasts.

    Parameters
    ----------
    service:
        the :class:`ForecastService` forecasts are routed through.  Sharing
        one service across forecasters (or with request-path traffic) is
        fine — coalescing happens in the service queue.
    normalization:
        ``"none"`` | ``"rolling"`` (see module docstring); a ``"rolling"``
        forecaster's store keeps per-tenant moments.
    window_capacity:
        rows each tenant's ring holds, at least ``input_length`` (default
        ``4 * input_length``).
    """

    def __init__(
        self,
        service: ForecastService,
        normalization: str = "none",
        window_capacity: Optional[int] = None,
    ) -> None:
        self.service = service
        self.config = service.config
        capacity = 4 * self.config.input_length if window_capacity is None else window_capacity
        _check_geometry(normalization, capacity, self.config)
        self.store = SeriesStore(capacity, self.config.n_channels, moments=normalization == "rolling")
        self.normalization = normalization

    # ------------------------------------------------------------------ #
    def scaler(self, tenant: str) -> Optional[RollingScaler]:
        """A snapshot of the tenant's rolling statistics as a
        :class:`RollingScaler` (``None`` outside ``"rolling"`` mode or for
        an unknown tenant).  Updating the snapshot changes nothing here."""
        state = self.store.scaler_state(tenant)
        return None if state is None else RollingScaler.from_state(state)

    def ingest(self, tenant: str, values: np.ndarray, timestamp=None) -> int:
        """Append raw observations for a tenant; returns its total observed.

        One store call: in ``"rolling"`` mode the store folds the new rows
        into the tenant's moments under the same lock as the ring append,
        so no forecast can see a window and statistics that disagree.
        """
        return self.store.ingest(tenant, values, timestamp=timestamp)

    def ingest_many(
        self,
        tenants: Sequence[str],
        counts: Sequence[int],
        values: np.ndarray,
        timestamps: Optional[Sequence] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Append a columnar batch under one store-lock acquisition.

        The batch layout is :meth:`SeriesStore.ingest_many`'s (entry ``i``
        is ``counts[i]`` rows of ``values`` for ``tenants[i]``).  Each
        entry updates the ring and, in ``"rolling"`` mode, the tenant's
        moments on its own, so the state is bit-identical to one
        :meth:`ingest` call per entry.  Returns each entry's total and
        its tenant's generation, as two arrays.
        """
        return self.store.ingest_many(tenants, counts, values, timestamps)

    # ------------------------------------------------------------------ #
    def forecast(
        self,
        tenant: str,
        future_numerical: Optional[np.ndarray] = None,
        future_categorical: Optional[np.ndarray] = None,
        priority: str = DEFAULT_PRIORITY,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> Forecast:
        """Queue a forecast from the tenant's latest window; non-blocking.

        A :meth:`forecast_many` sweep of one tenant.  The returned handle
        resolves when the service flushes (queue full, explicit
        :meth:`flush`, or ``result()`` on any handle) — submitting for
        many tenants before flushing is what turns concurrent-tenant
        traffic into micro-batches.

        ``future_numerical`` / ``future_categorical`` are this tenant's
        known-future covariates over the model horizon (``[horizon, c]``),
        untouched by the tenant's normalisation mode (covariates live in
        their own scale — only the history window and the returned
        forecast are mapped).

        ``priority`` / ``timeout`` / ``deadline`` ride through to the
        service's admission control unchanged — an over-capacity or
        expired submit raises :class:`~repro.serving.Overloaded` /
        :class:`~repro.serving.DeadlineExceeded` here, and the refused
        row is not counted as a request.
        """
        ((_, handle),) = self.forecast_many(
            [tenant], [future_numerical], [future_categorical],
            priority=priority, timeout=timeout, deadline=deadline,
        )
        refused = handle.admission_error
        if refused is not None:
            raise refused
        return handle

    def forecast_many(
        self,
        tenants: Sequence[str],
        future_numerical: Optional[Sequence[Optional[np.ndarray]]] = None,
        future_categorical: Optional[Sequence[Optional[np.ndarray]]] = None,
        priority: str = DEFAULT_PRIORITY,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        skip_missing: bool = False,
    ) -> List[Tuple[str, Forecast]]:
        """Queue one forecast per listed tenant as one columnar block.

        :meth:`forecast_block` queues the block; this wraps each of its
        rows in a :class:`~repro.serving.Forecast` handle whose ``result()``
        is the row's forecast in the tenant's scale.  Returns
        ``(tenant, handle)`` per row, in order (a listed-twice tenant gets
        two rows).

        Every row gets the admission outcome one ``submit`` per row would
        give it — except that a row refused by
        admission control does not raise here: its handle raises the
        typed :class:`~repro.serving.Overloaded` /
        :class:`~repro.serving.DeadlineExceeded` from ``result()`` (and
        reports it as ``admission_error``), and the rest of the block
        proceeds.
        """
        positions, sweep = self.forecast_block(
            tenants,
            future_numerical=future_numerical,
            future_categorical=future_categorical,
            priority=priority,
            timeout=timeout,
            deadline=deadline,
            skip_missing=skip_missing,
        )
        return [
            (tenants[position], Forecast(sweep, row))
            for row, position in enumerate(positions)
        ]

    def forecast_block(
        self,
        tenants: Sequence[str],
        future_numerical: Optional[Sequence[Optional[np.ndarray]]] = None,
        future_categorical: Optional[Sequence[Optional[np.ndarray]]] = None,
        priority: str = DEFAULT_PRIORITY,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        skip_missing: bool = False,
    ) -> Tuple[List[int], Optional[_Sweep]]:
        """Queue one forecast per listed tenant; return the block, no handles.

        One store gather for every window, one vectorised normalisation and
        one :meth:`~repro.serving.service.ForecastService.submit_many` for
        the block.  Returns ``(positions, sweep)``: block row ``i`` is the
        tenant at ``tenants[positions[i]]``, and ``sweep.rows.refused``
        maps each row admission control refused to its typed error.  Once
        every row has settled, :meth:`_Sweep.settled` is the whole block
        denormalised in one vectorised pass.  ``(positions, sweep)`` is
        ``([], None)`` when no tenant was gathered.

        ``timeout`` is anchored once, so the block shares one deadline.
        Covariates are per-row sequences aligned with ``tenants``.  An
        unknown tenant raises ``KeyError`` and a tenant with no
        observations raises ``ValueError``, before any row is queued; with
        ``skip_missing`` both drop out of the block instead.
        """
        positions, windows, lengths, moments = self.store.gather(
            tenants, self.config.input_length, skip_missing=skip_missing
        )
        if not positions:
            return [], None
        if len(positions) != len(tenants):
            future_numerical = _take(future_numerical, positions)
            future_categorical = _take(future_categorical, positions)
        empty = np.flatnonzero(lengths == 0)
        if len(empty):
            raise ValueError(
                f"tenant {tenants[positions[empty[0]]]!r} has no observations to forecast from"
            )
        if moments is not None:
            # "rolling": the (mean, std) the gather froze with the windows;
            # _Sweep maps the forecasts back through the same pair.
            mean, std = moments
            windows = ((windows.astype(np.float64) - mean[:, None, :]) / std[:, None, :]).astype(
                np.float32
            )
        rows = self.service.submit_many(
            windows,
            lengths,
            future_numerical=future_numerical,
            future_categorical=future_categorical,
            priority=priority,
            timeout=timeout,
            deadline=deadline,
        )
        return positions, _Sweep(rows, moments)

    def forecast_all(
        self,
        tenants: Optional[Sequence[str]] = None,
        flush: bool = True,
        future_numerical: Optional[Mapping[str, np.ndarray]] = None,
        future_categorical: Optional[Mapping[str, np.ndarray]] = None,
        priority: str = DEFAULT_PRIORITY,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        skip_missing: bool = False,
    ) -> Dict[str, Forecast]:
        """Queue one forecast per tenant, then (by default) flush once.

        This is the steady-state serving shape: N live tenants produce one
        columnar block (:meth:`forecast_many`) that the service coalesces
        into ``ceil(N / max_batch_size)`` forward passes instead of N model
        calls.

        Per-tenant future covariates are passed as ``tenant -> [horizon, c]``
        mappings; tenants absent from a mapping submit history-only.
        ``priority`` applies to every tenant in the sweep, and the sweep
        shares one deadline: ``timeout`` is anchored once, not per tenant.
        A tenant refused by admission control gets a handle that raises the
        typed error from ``result()``.  With ``tenants=None`` (every live
        tenant) or ``skip_missing``, a tenant dropped concurrently is
        skipped instead of raising ``KeyError``, and one that holds no
        rows instead of raising ``ValueError``.
        """
        keys: List[str] = list(tenants) if tenants is not None else self.store.tenants()
        rows = self.forecast_many(
            keys,
            future_numerical=_per_row(future_numerical, keys),
            future_categorical=_per_row(future_categorical, keys),
            priority=priority,
            timeout=timeout,
            deadline=deadline,
            skip_missing=skip_missing or tenants is None,
        )
        if flush:
            self.service.flush()
        return dict(rows)

    def ingest_and_forecast(
        self, arrivals: Dict[str, np.ndarray], timestamp=None
    ) -> Dict[str, Forecast]:
        """One streaming tick: ingest a batch of arrivals, forecast each tenant."""
        for tenant, values in arrivals.items():
            self.ingest(tenant, values, timestamp=timestamp)
        return self.forecast_all(list(arrivals))

    def flush(self) -> int:
        """Flush the underlying service queue; returns requests resolved."""
        return self.service.flush()

    def warmup(self) -> int:
        """Pre-trace the service's compiled plan (see
        :meth:`~repro.serving.service.ForecastService.warmup`).

        Useful right after building or restoring a forecaster, so the
        first live tick doesn't pay the plan-tracing latency.
        """
        return self.service.warmup()

    def drop(self, tenant: str) -> None:
        """Forget a tenant entirely: ring, timestamp watermark AND moments
        (one store slot), so a re-ingested tenant of the same name is never
        normalised with a dead tenant's history."""
        self.store.drop(tenant)

    # ------------------------------------------------------------------ #
    # State codec.  One tenant's state is one payload (export_tenant), and
    # a forecaster's state is a map of payloads: migration, failover,
    # snapshots and full or delta checkpoints all carry that one layout.
    # ------------------------------------------------------------------ #
    def clear_dirty(self) -> None:
        """Reset churn tracking after a checkpoint captured this shard."""
        self.store.mark_clean()

    def export_tenant(self, tenant: str) -> dict:
        """One tenant's complete streaming state (window + scaler), portable
        (:meth:`SeriesStore.tenant_state`)."""
        return self.store.tenant_state(tenant)

    def import_tenant(self, tenant: str, state: dict) -> None:
        """Adopt a tenant exported from another forecaster (same geometry)."""
        self.store.restore_tenant(tenant, state)

    def to_state(self, delta: bool = False) -> dict:
        """Serialisable snapshot: every tenant's payload, in store order.

        Covers everything a restarted process needs to keep forecasting
        bit-identically: ring contents in logical order, timestamp
        watermarks, generations, Welford moments, counters and the
        normalisation mode.  With ``delta`` a tenant that is clean since
        the last :meth:`clear_dirty` maps to ``None`` instead of its
        payload; the key list stays complete, so it doubles as the
        deletion record.  The store's churn set covers the moments too:
        they live in the tenant's slot and only move on ingest or
        adoption.  The model itself is *not* included —
        weights already have a persistence story
        (:mod:`repro.nn.serialization` / ``ServiceSpec(weights_path=...)``).
        """
        dirty = set(self.store.dirty_tenants()) if delta else None
        return {
            "normalization": self.normalization,
            "store": {
                "capacity": int(self.store.capacity),
                "n_channels": int(self.store.n_channels),
                "dtype": "float32",
            },
            "store_stats": asdict(self.store.stats_snapshot()),
            "tenants": {
                tenant: self.export_tenant(tenant) if dirty is None or tenant in dirty else None
                for tenant in self.store.tenants()
            },
        }

    @classmethod
    def from_state(cls, service: ForecastService, state: dict) -> "StreamingForecaster":
        """Rebuild a forecaster around ``service`` from full :meth:`to_state` output.

        A header :func:`check_state_header` refuses raises ``ValueError``
        before any tenant is adopted.  Every tenant comes back through
        :meth:`import_tenant`; the store then starts clean (its next delta
        is O(churn), not O(fleet)), with the saved
        :class:`~repro.streaming.store.StoreStats`.
        """
        normalization, capacity = check_state_header(state, service.config)
        forecaster = cls(service, normalization=normalization, window_capacity=capacity)
        for tenant, payload in state_tenants(state).items():
            if payload is None:
                raise ValueError(
                    f"tenant {tenant!r} has no payload: a delta state loads only "
                    "once its chain is resolved"
                )
            forecaster.import_tenant(tenant, payload)
        forecaster.store.mark_clean()
        forecaster.store.stats = StoreStats(**state["store_stats"])
        return forecaster


def _check_geometry(normalization: str, capacity: int, config: Optional[ModelConfig]) -> None:
    if normalization not in _NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}; use one of {_NORMALIZATIONS}")
    if config is not None and capacity < config.input_length:
        raise ValueError(
            f"window_capacity {capacity} cannot hold one input window "
            f"of {config.input_length} steps"
        )


def check_state_header(state: dict, config: Optional[ModelConfig] = None) -> Tuple[str, int]:
    """A forecaster state's ``(normalization, capacity)``, once no tenant
    payload is needed to see that a model with ``config`` can serve it.

    Refuses (``ValueError``) a state without a payload map, a store of
    anything but float32 rows and an unknown normalisation; given
    ``config``, also a channel count the model does not take and a
    capacity below one input window.
    """
    state_tenants(state)
    geometry = state["store"]
    normalization, capacity = str(state["normalization"]), int(geometry["capacity"])
    channels = int(geometry["n_channels"]) if config is None else config.n_channels
    if (str(geometry["dtype"]), int(geometry["n_channels"])) != ("float32", channels):
        raise ValueError(
            f"store holds {geometry['dtype']} rows of {geometry['n_channels']} channels; "
            f"the model takes float32 rows of {channels}"
        )
    _check_geometry(normalization, capacity, config)
    return normalization, capacity


def _per_row(mapping: Optional[Mapping[str, np.ndarray]], keys: List[str]):
    """A tenant-keyed covariate mapping as a row-aligned list (or ``None``)."""
    if not mapping:
        return None
    return [mapping.get(tenant) for tenant in keys]


def _take(rows: Optional[Sequence], positions: List[int]):
    return None if rows is None else [rows[position] for position in positions]


def state_tenants(state: dict) -> Dict[str, Optional[dict]]:
    """A forecaster state's ``tenant -> payload | None`` map.

    States from before the one-payload format kept each field in its own
    per-tenant dict and have no ``tenants`` map; they raise ``ValueError``.
    """
    tenants = state.get("tenants") if isinstance(state, dict) else None
    if not isinstance(tenants, dict):
        raise ValueError(
            "streaming state has no per-tenant payload map: it predates the "
            "format change to one payload per tenant, and cannot be loaded"
        )
    return tenants


def payload_census(payload: dict) -> Tuple[int, int]:
    """A tenant payload's (observed rows, generation), for census checks."""
    series = payload["series"]
    return int(series["buffer"]["total_appended"]), int(series.get("generation", 0))


class _Sweep:
    """One :meth:`StreamingForecaster.forecast_block` block's way back out.

    Holds the block's service rows and the stacked ``[N, C]`` rolling
    ``(mean, std)`` they were standardised with (``None``: the way back is
    the identity), and denormalises the whole ``[N, H, C]`` block once
    (:meth:`settled`), when it is first read after every row has settled.
    It is the block behind a streaming :class:`~repro.serving.Forecast`
    handle, so its rows are returned in the tenants' scale.
    """

    __slots__ = ("rows", "done", "refused", "moments", "_values")

    def __init__(self, rows: ForecastRows, moments: Optional[Tuple[np.ndarray, np.ndarray]]) -> None:
        self.rows = rows
        # What a Forecast handle reads besides result(), straight off the rows.
        self.done, self.refused = rows.done, rows.refused
        self.moments = moments
        self._values: Optional[np.ndarray] = None

    def denormalize(self, values: np.ndarray, index=slice(None)) -> np.ndarray:
        """Rows ``index`` of the block, mapped back to the tenants' scale."""
        if self.moments is None:
            return values
        mean, std = self.moments
        return values.astype(np.float64) * std[index, None, :] + mean[index, None, :]

    def settled(self) -> np.ndarray:
        """The whole ``[N, horizon, C]`` block in the tenants' scale.

        Denormalised once, the first time it is asked for; every row must
        have settled by then, and at least one must have a forecast.  A
        failed row's entry holds no forecast: its error is in
        ``rows.errors``.
        """
        if self._values is None:
            if not self.rows.all_done():
                raise RuntimeError("sweep block read before every row settled")
            self._values = self.denormalize(self.rows.values)
        return self._values

    def result(self, index: int) -> np.ndarray:
        if self._values is None or index in self.rows.errors:
            value = self.rows.result(index)   # flushes if queued; raises the row's error
            if not self.rows.all_done():
                # A sibling row is still queued (a flush=False sweep that a
                # mid-block flush split): map this row alone, flush nothing.
                return self.denormalize(value, index)
        return self.settled()[index]

