"""Bounded per-tenant observation storage for online forecasting.

A streaming forecaster only ever needs the most recent ``input_length``
steps per tenant, so holding full histories (or calling ``np.append``,
which reallocates the whole array on every arrival) would defeat the
point of online serving.  :class:`SeriesStore` keeps one
``[slots, capacity, channels]`` slab for all of its tenants: each tenant
owns one slot, a fixed-capacity ring written at a wrapping cursor with at
most two slice assignments — O(rows) per ingest, O(1) amortised per
observation, and no reallocation for a known tenant (the slab only grows,
by doubling, when a new tenant finds no free slot).

A store built with ``moments=True`` (what a ``"rolling"``
:class:`~repro.streaming.forecaster.StreamingForecaster` builds) also
keeps each tenant's Welford moments in its slot, as a
:class:`~repro.data.incremental.RollingScaler` folded in the same locked
call that writes the ring, so a window and the statistics it is
normalised with can never disagree.

The store has no whole-store codec.  One tenant's state travels as
:meth:`SeriesStore.tenant_state` — ``{series: {buffer, last_timestamp,
generation}, scaler}``, ring rows in logical order plus the
``RollingScaler`` state of its moments — which
:meth:`~repro.streaming.forecaster.StreamingForecaster.export_tenant`
returns as is.  That payload is the only layout of a tenant's streaming
state, on the wire and on disk: migration, failover and full and delta
checkpoints all carry it.  The store's part in checkpoints is the churn
set (:meth:`SeriesStore.dirty_tenants`).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..data.incremental import RollingScaler
from ..runtime.annotations import guarded_by, requires_lock
from ..stats import CounterStats

__all__ = ["SeriesStore", "StoreStats", "check_timestamp_order"]

#: slots in a new store's slab (it doubles when a new tenant finds none free)
_INITIAL_SLOTS = 8


@dataclass
class StoreStats(CounterStats):
    """Ingest-side counters for the whole store.

    ``reset``/``merge``/``as_dict`` come from
    :class:`repro.stats.CounterStats` (all fields sum on merge).
    """

    tenants: int = 0
    ingests: int = 0            # ingest() calls
    observations: int = 0       # rows appended across all tenants
    evicted: int = 0            # rows that have fallen off a ring


def check_timestamp_order(tenant: str, timestamp, last) -> None:
    """Per-tenant timestamps must strictly increase."""
    if last is not None and not timestamp > last:
        raise ValueError(
            f"tenant {tenant!r}: timestamp {timestamp!r} is not after "
            f"the last ingested timestamp {last!r}"
        )


class _Slot:
    """Everything the store keeps for one tenant, reached only under its lock.

    ``head`` is the next write position in slab row ``index``, ``size``
    the rows held (``<= capacity``) and ``total`` the rows ever appended.
    ``moments`` is the tenant's Welford accumulator, or ``None`` for a
    tenant that keeps no moments.  ``last`` is the timestamp watermark,
    ``generation`` the incarnation of the key and ``dirty`` the churn mark
    incremental checkpoints read.
    """

    __slots__ = ("index", "head", "size", "total", "moments", "last", "generation", "dirty")

    def __init__(self, index: int, moments: bool, generation: int) -> None:
        self.index = index
        self.head = 0
        self.size = 0
        self.total = 0
        self.moments: Optional[RollingScaler] = RollingScaler() if moments else None
        self.last = None
        self.generation = generation
        self.dirty = True


@guarded_by("_slots", "_slab", "_free", "stats", "_tombstones", lock="_lock")
class SeriesStore:
    """Bounded per-tenant float32 rings in one slab, plus optional rolling moments.

    ``ingest`` lazily gives a new tenant a slot with its first rows, so
    tenants need no registration step.  When timestamps are supplied they must be
    strictly increasing per tenant — out-of-order arrivals would silently
    corrupt the window a forecast is assembled from.  With ``moments``
    every tenant also keeps Welford moments of everything it ingested,
    updated under the same lock acquisition as its ring.
    """

    def __init__(self, capacity: int, n_channels: int, moments: bool = False) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if n_channels < 1:
            raise ValueError(f"n_channels must be positive, got {n_channels}")
        self.capacity = capacity
        self.n_channels = n_channels
        self.moments = bool(moments)
        # Tenant -> slot, in first-seen order; freed slab rows are reused.
        self._slots: Dict[str, _Slot] = {}
        self._slab = np.zeros((_INITIAL_SLOTS, capacity, n_channels), dtype=np.float32)
        self._free: List[int] = list(range(_INITIAL_SLOTS - 1, -1, -1))
        self._lock = threading.Lock()
        self.stats = StoreStats()
        # Checkpoint bookkeeping.  An incremental snapshot is O(churn) only
        # if someone remembers the churn: every mutation a delta would need
        # to re-capture (ingest, adoption) marks the tenant's slot dirty; a
        # dropped tenant has no slot (absence from the next checkpoint's
        # tenant list is the deletion record).  Generations disambiguate
        # incarnations of a reused tenant key: a drop tombstones the key so
        # a re-created tenant gets generation + 1, and failover can refuse
        # to resurrect a deleted incarnation from an older checkpoint.
        # Tombstones are in-memory only — they bridge drop → re-create
        # within a process lifetime, which is the window checkpoints can
        # confuse.
        self._tombstones: Dict[str, int] = {}
        # Weakly bound metrics-registry view over the ingest counters.
        obs.register_stats("repro_store", self.stats_snapshot)

    # ------------------------------------------------------------------ #
    def __contains__(self, tenant: str) -> bool:
        with self._lock:
            return tenant in self._slots

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)

    def tenants(self) -> List[str]:
        """Tenant keys in first-seen order."""
        with self._lock:
            return list(self._slots)

    @requires_lock("_lock")
    def _slot_locked(self, tenant: str) -> _Slot:
        try:
            return self._slots[tenant]
        except KeyError:
            raise KeyError(f"unknown tenant {tenant!r}") from None

    def observed(self, tenant: str) -> int:
        """Total observations ever ingested for a tenant (0 if unknown)."""
        with self._lock:
            slot = self._slots.get(tenant)
            return 0 if slot is None else slot.total

    # ------------------------------------------------------------------ #
    def ingest(self, tenant: str, values: np.ndarray, timestamp=None) -> int:
        """Append observations for a tenant; returns its total observed rows."""
        # Validate before touching any state, and give zero rows of an
        # unknown tenant no slot: a phantom empty tenant would fail every
        # healthy tenant's forecast_all tick over store.tenants().
        values = self._rows(values)
        with self._lock:
            slot = self._slots.get(tenant)
            if slot is None:
                if not len(values):
                    return 0
            elif timestamp is not None:
                check_timestamp_order(tenant, timestamp, slot.last)
            return self._append_locked(tenant, slot, values, timestamp).total

    def ingest_many(
        self,
        tenants: Sequence[str],
        counts: Sequence[int],
        values: np.ndarray,
        timestamps: Optional[Sequence] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Append a columnar batch under one lock acquisition.

        Entry ``i`` is ``counts[i]`` consecutive rows of the ``[sum(counts),
        C]`` block for ``tenants[i]``, stamped ``timestamps[i]`` (or
        unstamped when ``timestamps`` is ``None``).  Entries apply in
        order, each exactly as one :meth:`ingest` call would, so a tenant
        listed twice sees both appends.  Every entry is validated before
        any is applied: a batch that raises leaves the store untouched.
        Returns ``(totals, generations)``: each entry's total observed rows
        and its tenant's generation right after it applied, read under the
        same lock.
        """
        values = self._rows(values)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (len(tenants),) or (counts < 0).any():
            raise ValueError(f"expected {len(tenants)} non-negative row counts, got {counts!r}")
        if int(counts.sum()) != len(values):
            raise ValueError(f"row counts sum to {int(counts.sum())}, values hold {len(values)}")
        if timestamps is not None and len(timestamps) != len(tenants):
            raise ValueError(f"expected {len(tenants)} timestamps, got {len(timestamps)}")
        totals = np.empty(len(tenants), dtype=np.int64)
        generations = np.empty(len(tenants), dtype=np.int64)
        stops = np.cumsum(counts).tolist()
        with self._lock:
            slots = self._slots
            if timestamps is not None:
                watermarks: Dict[str, object] = {}
                # Each tenant's watermark as the batch moves it, from the
                # first entry that finds or creates the tenant on.
                for tenant, count, timestamp in zip(tenants, counts.tolist(), timestamps):
                    if tenant in watermarks:
                        last = watermarks[tenant]
                    else:
                        slot = slots.get(tenant)
                        if slot is None and not count:
                            continue  # creates no tenant, so sets no watermark
                        last = None if slot is None else slot.last
                    if timestamp is not None:
                        check_timestamp_order(tenant, timestamp, last)
                        last = timestamp
                    watermarks[tenant] = last
            start = 0
            for index, tenant in enumerate(tenants):
                stop = stops[index]
                slot = slots.get(tenant)
                if slot is None and start == stop:
                    # A zero-row entry of an unknown tenant creates nothing.
                    totals[index] = generations[index] = 0
                    continue
                slot = self._append_locked(
                    tenant,
                    slot,
                    values[start:stop],
                    None if timestamps is None else timestamps[index],
                )
                totals[index] = slot.total
                generations[index] = slot.generation
                start = stop
        return totals, generations

    def _rows(self, values: np.ndarray) -> np.ndarray:
        """``values`` as float32 ``[T, C]`` rows, or ``ValueError``."""
        values = np.asarray(values, dtype=np.float32)
        if values.ndim == 1:
            values = values[None, :]
        if values.ndim != 2 or values.shape[1] != self.n_channels:
            raise ValueError(
                f"expected [T, {self.n_channels}] rows, got shape {values.shape}"
            )
        return values

    @requires_lock("_lock")
    def _new_slot_locked(self, tenant: str, generation: int) -> _Slot:
        """Give ``tenant`` a free slab row, doubling the slab if none is left."""
        if not self._free:
            slots = len(self._slab)
            grown = np.zeros((2 * slots,) + self._slab.shape[1:], dtype=np.float32)
            grown[:slots] = self._slab
            self._slab = grown
            self._free = list(range(2 * slots - 1, slots - 1, -1))
        slot = _Slot(self._free.pop(), self.moments, generation)
        self._slots[tenant] = slot
        return slot

    @requires_lock("_lock")
    def _append_locked(
        self, tenant: str, slot: Optional[_Slot], values: np.ndarray, timestamp
    ) -> _Slot:
        """One validated append to ``tenant`` (whose slot, if any, is
        ``slot``): ring, moments, watermark, counters, churn mark.
        Returns the tenant's slot."""
        if slot is None:
            slot = self._new_slot_locked(tenant, self._tombstones.pop(tenant, 0))
            self.stats.tenants += 1
        rows, held_before, head = len(values), slot.size, slot.head
        capacity = self.capacity
        if rows == 1:
            self._slab[slot.index, head] = values
            slot.head = head + 1 if head + 1 < capacity else 0
            if held_before < capacity:
                slot.size = held_before + 1
        elif rows >= capacity:
            # Only the newest `capacity` rows survive; restart the cursor.
            self._slab[slot.index] = values[-capacity:]
            slot.head = 0
            slot.size = capacity
        elif rows:
            ring = self._slab[slot.index]
            first = min(rows, capacity - head)
            ring[head:head + first] = values[:first]
            if rows > first:
                ring[:rows - first] = values[first:]
            slot.head = (head + rows) % capacity
            slot.size = min(held_before + rows, capacity)
        slot.total += rows
        moments = slot.moments
        if moments is not None:
            if rows == 1:
                moments.update_row(values.tolist()[0])
            elif rows:
                moments.update_chunk(values)
        if timestamp is not None:
            slot.last = timestamp
        slot.dirty = True
        stats = self.stats
        stats.ingests += 1
        stats.observations += rows
        # Every appended row is held, or pushed an older one off the ring.
        stats.evicted += rows - (slot.size - held_before)
        return slot

    @requires_lock("_lock")
    def _copy_latest_locked(self, slot: _Slot, out: np.ndarray) -> int:
        """Copy the slot's most recent ``min(len(out), size)`` rows into the
        *tail* of ``out`` (oldest→newest); returns how many were copied."""
        want = len(out)
        n = want if want < slot.size else slot.size
        if n == 0:
            return 0
        slab, index, head = self._slab, slot.index, slot.head
        skip = want - n
        start = head - n
        if start >= 0:
            out[skip:] = slab[index, start:head]
        else:
            # Wrapped: the oldest -start rows sit at the end of the ring.
            out[skip:skip - start] = slab[index, start:]
            out[skip - start:] = slab[index, :head]
        return n

    def latest(self, tenant: str, n: int) -> np.ndarray:
        """The tenant's most recent ``min(n, held)`` rows, chronological.

        Taken under the store lock: a window copied while a concurrent
        ``ingest`` is mid-way through its (up to two) slice writes could
        otherwise mix old and new rows out of order.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        with self._lock:
            slot = self._slot_locked(tenant)
            out = np.empty((min(n, slot.size), self.n_channels), dtype=np.float32)
            self._copy_latest_locked(slot, out)
            return out

    def gather(
        self, tenants: Sequence[str], n: int, skip_missing: bool = False
    ) -> Tuple[List[int], np.ndarray, np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]]]:
        """Every tenant's latest window, stacked, under one lock acquisition.

        Returns ``(found, windows, lengths, moments)``: ``found`` lists the
        positions in ``tenants`` that were gathered, and ``windows[i]`` is
        the ``[n, channels]`` window of ``tenants[found[i]]`` — its most
        recent ``lengths[i] = min(n, held)`` rows right-aligned (what
        :meth:`latest` returns, at the end of the row), zeros before them.
        An unknown tenant raises ``KeyError``, or with ``skip_missing`` is
        left out, as is a tenant that holds no rows.

        ``moments`` is ``None`` unless the store keeps moments; then it is
        the float64 ``(mean, std)``, each ``[len(found), channels]``, that
        ``RollingScaler.to_standard_scaler()`` would freeze for each row,
        read under the same lock as the windows, so every window is
        normalised with statistics over exactly the rows it has seen.  A
        tenant with no moments raises ``RuntimeError`` (``ValueError`` if
        it holds no rows either).
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        windows = np.empty((len(tenants), n, self.n_channels), dtype=np.float32)
        lengths = np.empty(len(tenants), dtype=np.int64)
        found: List[int] = []
        # Moments are copied out under the lock (folds update them in
        # place) as flat Python lists: one np.array per list afterwards.
        counts: List[int] = []
        epss: List[float] = []
        means: List[float] = []
        m2s: List[float] = []
        moments = self.moments
        with self._lock:
            slots = self._slots
            for position, tenant in enumerate(tenants):
                slot = slots.get(tenant)
                if slot is None or (skip_missing and not slot.size):
                    if skip_missing:
                        continue
                    raise KeyError(f"unknown tenant {tenant!r}")
                row = len(found)
                window = windows[row]
                copied = self._copy_latest_locked(slot, window)
                if copied < n:
                    window[:n - copied] = 0
                lengths[row] = copied
                found.append(position)
                if moments:
                    scaler = slot.moments
                    if not scaler.count:
                        if not slot.size:
                            raise ValueError(
                                f"tenant {tenant!r} has no observations to forecast from"
                            )
                        raise RuntimeError(f"tenant {tenant!r} has no rolling statistics yet")
                    counts.append(scaler.count)
                    epss.append(scaler.eps)
                    means += scaler.mean
                    m2s += scaler.m2
        rows = len(found)
        if not moments:
            return found, windows[:rows], lengths[:rows], None
        # Exactly the mean_ / std_ each slot's RollingScaler would freeze:
        # population std, floored to 1.0 below eps.
        shape = (rows, self.n_channels)
        mean = np.array(means, dtype=np.float64).reshape(shape)
        std = np.sqrt(
            np.array(m2s, dtype=np.float64).reshape(shape)
            / np.array(counts, dtype=np.float64)[:, None]
        )
        std = np.where(std < np.array(epss, dtype=np.float64)[:, None], 1.0, std)
        return found, windows[:rows], lengths[:rows], (mean, std)

    def last_timestamp(self, tenant: str):
        """The last ingested timestamp for a tenant, or ``None``."""
        with self._lock:
            slot = self._slots.get(tenant)
            return None if slot is None else slot.last

    def drop(self, tenant: str) -> None:
        """Forget a tenant entirely (ring, moments and timestamp watermark)."""
        with self._lock:
            slot = self._slots.pop(tenant, None)
            if slot is not None:
                self._free.append(slot.index)
                self._tombstones[tenant] = slot.generation + 1

    def generation(self, tenant: str) -> int:
        """Which incarnation of the key this tenant is (0 for the first).

        Bumped each time a key is re-created after :meth:`drop`; travels
        with the tenant's state, so a checkpoint of a *deleted*
        incarnation can be told apart from the live one however many rows
        either has.
        """
        with self._lock:
            slot = self._slots.get(tenant)
            return 0 if slot is None else slot.generation

    def scaler_state(self, tenant: str) -> Optional[dict]:
        """The tenant's moments as ``RollingScaler`` state (``None`` if the
        tenant is unknown or keeps no moments)."""
        with self._lock:
            slot = self._slots.get(tenant)
            return None if slot is None or slot.moments is None else slot.moments.to_state()

    # ------------------------------------------------------------------ #
    # Checkpoint bookkeeping — incremental snapshots ride on it.
    # ------------------------------------------------------------------ #
    def dirty_tenants(self) -> List[str]:
        """Tenants mutated since :meth:`mark_clean`, in first-seen order."""
        with self._lock:
            return [tenant for tenant, slot in self._slots.items() if slot.dirty]

    def mark_clean(self) -> None:
        """Reset churn tracking (called when a checkpoint captures state)."""
        with self._lock:
            for slot in self._slots.values():
                slot.dirty = False

    def stats_snapshot(self) -> StoreStats:
        """A consistent copy of the counters, taken under the store lock.

        Cluster-wide aggregation merges many stores while their traffic is
        still running; copying under the lock keeps each store's counters
        internally consistent (no torn ``ingests``/``observations`` pairs).
        """
        with self._lock:
            return StoreStats(**asdict(self.stats))

    # ------------------------------------------------------------------ #
    # Tenant codec — snapshot/restore and shard migration all ride on it.
    # ------------------------------------------------------------------ #
    def tenant_state(self, tenant: str) -> dict:
        """One tenant's portable payload, read under one lock acquisition.

        ``{"series": {"buffer", "last_timestamp", "generation"},
        "scaler"}``: the ring's held rows in logical (oldest→newest)
        order with the lifetime row count, the watermark, the incarnation
        and the moments as ``RollingScaler`` state (``None`` without
        moments).  The cursor position is *not* part of the state — a
        ring holding rows ``[a, b, c]`` answers every window query the
        same wherever its head sits, so restore re-seats it at ``size``.
        """
        with self._lock:
            slot = self._slot_locked(tenant)
            data = np.empty((slot.size, self.n_channels), dtype=np.float32)
            self._copy_latest_locked(slot, data)
            return {
                "series": {
                    "buffer": {
                        "capacity": int(self.capacity),
                        "n_channels": int(self.n_channels),
                        "dtype": "float32",
                        "data": data,
                        "total_appended": int(slot.total),
                    },
                    "last_timestamp": slot.last,
                    "generation": slot.generation,
                },
                "scaler": None if slot.moments is None else slot.moments.to_state(),
            }

    def restore_tenant(self, tenant: str, payload: dict) -> None:
        """Adopt a :meth:`tenant_state` payload from another store.

        The payload crosses a trust boundary (another process, a file on
        disk), so it is checked before anything changes: the held rows
        must fit the declared capacity, the lifetime total cannot be below
        the held rows, the ring must match this store's geometry —
        silently re-bucketing rows across capacities could drop the very
        window the next forecast needs — and the moments must be
        well-formed.  A store that keeps moments gives a payload without
        them fresh ones; a store that keeps none refuses a payload that
        carries them.  The tenant must not already exist here.

        ``StoreStats`` counters are deliberately untouched: they record what
        *this* store ingested, and the tenant's history was already counted
        once on the store that ingested it — bumping them again would
        double-count every migration in cluster-wide aggregation.
        """
        series = payload["series"]
        buffer = series["buffer"]
        capacity, n_channels = int(buffer["capacity"]), int(buffer["n_channels"])
        data = np.asarray(buffer["data"], dtype=np.float32)
        size, total = len(data), int(buffer["total_appended"])
        if size > capacity:
            raise ValueError(f"state holds {size} rows but capacity is {capacity}")
        if total < size:
            raise ValueError(f"total_appended {total} is smaller than held rows {size}")
        if (capacity, n_channels) != (self.capacity, self.n_channels):
            raise ValueError(
                f"tenant state is [{capacity}, {n_channels}], "
                f"store is [{self.capacity}, {self.n_channels}]"
            )
        if data.shape != (size, n_channels):
            raise ValueError(f"tenant rows have shape {data.shape}, expected [{size}, {n_channels}]")
        scaler = payload.get("scaler")
        if scaler is not None and not self.moments:
            raise ValueError(
                f"tenant {tenant!r} carries rolling statistics, but this store keeps none"
            )
        restored = None if scaler is None else RollingScaler.from_state(scaler)
        if restored is not None and restored.n_channels not in (None, self.n_channels):
            raise ValueError(
                f"scaler moments are [{restored.n_channels}], store has {self.n_channels} channels"
            )
        generation = int(series.get("generation", 0))
        with self._lock:
            if tenant in self._slots:
                raise ValueError(f"tenant {tenant!r} already exists in this store")
            # A new slot is dirty: adoption is churn, and the next
            # incremental checkpoint must record the tenant's new placement.
            slot = self._new_slot_locked(tenant, generation)
            self._slab[slot.index, :size] = data
            slot.head = size % self.capacity
            slot.size = size
            slot.total = total
            slot.last = series.get("last_timestamp")
            if restored is not None:
                slot.moments = restored
