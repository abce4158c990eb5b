"""Bounded per-tenant observation storage for online forecasting.

A streaming forecaster only ever needs the most recent ``input_length``
steps per tenant, so holding full histories (or calling ``np.append``,
which reallocates the whole array on every arrival) would defeat the
point of online serving.  :class:`RingBuffer` keeps a fixed-capacity
``[capacity, channels]`` array and writes arrivals with at most two slice
assignments — O(rows) per ingest, O(1) amortised per observation, zero
reallocation after construction.  :class:`SeriesStore` maps tenant keys to
ring buffers and enforces per-tenant timestamp monotonicity.

The store has no whole-store codec.  One tenant's series travels as
:meth:`SeriesStore.tenant_state` (ring rows in logical order, watermark,
generation), which
:meth:`~repro.streaming.forecaster.StreamingForecaster.export_tenant`
wraps with the tenant's scaler.  That payload is the only layout of a
tenant's streaming state, on the wire and on disk: migration, failover
and full and delta checkpoints all carry it.  The store's part in
checkpoints is the churn set (:meth:`SeriesStore.dirty_tenants`).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..runtime.annotations import guarded_by, requires_lock
from ..stats import CounterStats

__all__ = ["RingBuffer", "SeriesStore", "StoreStats", "check_timestamp_order"]


class RingBuffer:
    """Fixed-capacity chronological buffer of ``[capacity, channels]`` rows.

    ``extend`` never reallocates: rows are written into the preallocated
    array at a wrapping cursor, and chunks longer than the capacity keep
    only their most recent ``capacity`` rows (the older ones could never be
    read back anyway).

    Not thread-safe on its own — :class:`SeriesStore` serialises ``extend``
    and ``latest`` under its lock.
    """

    def __init__(self, capacity: int, n_channels: int, dtype=np.float32) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if n_channels < 1:
            raise ValueError(f"n_channels must be positive, got {n_channels}")
        self.capacity = capacity
        self.n_channels = n_channels
        self._data = np.zeros((capacity, n_channels), dtype=dtype)
        self._write = 0          # next write position
        self._size = 0           # rows currently held (<= capacity)
        self._total = 0          # rows ever appended

    def __len__(self) -> int:
        return self._size

    @property
    def total_appended(self) -> int:
        """Rows ever appended, including those already overwritten."""
        return self._total

    def extend(self, values: np.ndarray) -> None:
        """Append ``[T, C]`` rows (or one ``[C]`` row), oldest first."""
        values = np.asarray(values, dtype=self._data.dtype)
        if values.ndim == 1:
            values = values[None, :]
        if values.ndim != 2 or values.shape[1] != self.n_channels:
            raise ValueError(
                f"expected [T, {self.n_channels}] rows, got shape {values.shape}"
            )
        rows = len(values)
        if rows == 0:
            return
        self._total += rows
        if rows >= self.capacity:
            # Only the newest `capacity` rows survive; restart the cursor.
            self._data[:] = values[-self.capacity:]
            self._write = 0
            self._size = self.capacity
            return
        first = min(rows, self.capacity - self._write)
        self._data[self._write:self._write + first] = values[:first]
        if rows > first:
            self._data[:rows - first] = values[first:]
        self._write = (self._write + rows) % self.capacity
        self._size = min(self._size + rows, self.capacity)

    def latest(self, n: int) -> np.ndarray:
        """The most recent ``min(n, len(self))`` rows, oldest→newest, as a copy."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        out = np.empty((min(n, self._size), self.n_channels), dtype=self._data.dtype)
        self.copy_latest(out)
        return out

    def copy_latest(self, out: np.ndarray) -> int:
        """Copy the most recent ``min(len(out), len(self))`` rows into the
        *tail* of ``out`` (oldest→newest); returns how many were copied."""
        want = len(out)
        n = want if want < self._size else self._size
        if n == 0:
            return 0
        head = want - n
        start = self._write - n
        if start >= 0:
            out[head:] = self._data[start:self._write]
        else:
            # Wrapped: the oldest -start rows sit at the end of the array.
            out[head:head - start] = self._data[start:]
            out[head - start:] = self._data[:self._write]
        return n

    # ------------------------------------------------------------------ #
    def to_state(self) -> dict:
        """Serialisable snapshot: held rows in logical (oldest→newest) order.

        The cursor position is *not* part of the state — a ring holding rows
        ``[a, b, c]`` answers every ``latest`` query identically wherever
        its write head happens to sit, so the snapshot normalises to
        logical order and restore re-seats the cursor at ``size``.
        """
        return {
            "capacity": int(self.capacity),
            "n_channels": int(self.n_channels),
            "dtype": self._data.dtype.name,
            "data": self.latest(self._size),
            "total_appended": int(self._total),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RingBuffer":
        """Rebuild a buffer from :meth:`to_state` output (logical order)."""
        buffer = cls(
            int(state["capacity"]),
            int(state["n_channels"]),
            dtype=np.dtype(str(state["dtype"])),
        )
        data = np.asarray(state["data"], dtype=buffer._data.dtype)
        size = len(data)
        total = int(state["total_appended"])
        if size > buffer.capacity:
            raise ValueError(
                f"state holds {size} rows but capacity is {buffer.capacity}"
            )
        if total < size:
            raise ValueError(
                f"total_appended {total} is smaller than held rows {size}"
            )
        buffer._data[:size] = data
        buffer._write = size % buffer.capacity
        buffer._size = size
        buffer._total = total
        return buffer


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


@guarded_by(
    "_buffers", "_last_timestamp", "stats", "_dirty", "_generations",
    "_tombstones", lock="_lock",
)
class SeriesStore:
    """One bounded :class:`RingBuffer` per tenant/series.

    ``ingest`` lazily creates the tenant's buffer on first sight, so new
    tenants need no registration step.  When timestamps are supplied they
    must be strictly increasing per tenant — out-of-order arrivals would
    silently corrupt the window a forecast is assembled from.
    """

    def __init__(self, capacity: int, n_channels: int, dtype=np.float32) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.n_channels = n_channels
        self._dtype = dtype
        self._buffers: Dict[str, RingBuffer] = {}
        self._last_timestamp: Dict[str, object] = {}
        self._lock = threading.Lock()
        self.stats = StoreStats()
        # Checkpoint bookkeeping.  An incremental snapshot is O(churn) only
        # if someone remembers the churn: every mutation a delta would need
        # to re-capture (ingest, adoption) marks the tenant dirty; drop
        # unmarks it (absence from the next checkpoint's tenant list is the
        # deletion record).  Generations disambiguate incarnations of a
        # reused tenant key: a drop tombstones the key so a re-created
        # tenant gets generation + 1, and failover can refuse to resurrect
        # a deleted incarnation from an older checkpoint.  Tombstones are
        # in-memory only — they bridge drop → re-create within a process
        # lifetime, which is the window checkpoints can confuse.
        self._dirty: Set[str] = set()
        self._generations: Dict[str, int] = {}
        self._tombstones: Dict[str, int] = {}
        # Weakly bound metrics-registry view over the ingest counters.
        obs.register_stats("repro_store", self.stats_snapshot)

    # ------------------------------------------------------------------ #
    def __contains__(self, tenant: str) -> bool:
        with self._lock:
            return tenant in self._buffers

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffers)

    def tenants(self) -> List[str]:
        """Tenant keys in first-seen order."""
        with self._lock:
            return list(self._buffers)

    @property
    def dtype(self) -> np.dtype:
        """The stored row dtype (every tenant buffer shares it)."""
        return np.dtype(self._dtype)

    def buffer(self, tenant: str) -> RingBuffer:
        """The tenant's ring (the lookup is locked; the ring itself is
        not thread-safe — callers mutating it hold no protection)."""
        with self._lock:
            return self._buffer_locked(tenant)

    @requires_lock("_lock")
    def _buffer_locked(self, tenant: str) -> RingBuffer:
        # The store's internal locked paths (latest, tenant_state) resolve
        # buffers through this: self._lock is a plain non-reentrant mutex,
        # so calling the public buffer() from under it would self-deadlock.
        try:
            return self._buffers[tenant]
        except KeyError:
            raise KeyError(f"unknown tenant {tenant!r}") from None

    def observed(self, tenant: str) -> int:
        """Total observations ever ingested for a tenant (0 if unknown)."""
        with self._lock:
            buffer = self._buffers.get(tenant)
        return 0 if buffer is None else buffer.total_appended

    # ------------------------------------------------------------------ #
    def ingest(self, tenant: str, values: np.ndarray, timestamp=None) -> int:
        """Append observations for a tenant; returns its total observed rows."""
        # Validate before touching any state: a rejected ingest must not
        # leave a phantom empty tenant behind (forecast_all over
        # store.tenants() would then fail every healthy tenant's tick).
        values = self._rows(values)
        with self._lock:
            if timestamp is not None:
                check_timestamp_order(tenant, timestamp, self._last_timestamp.get(tenant))
            return self._append_locked(tenant, values, timestamp)

    def ingest_many(
        self,
        tenants: Sequence[str],
        counts: Sequence[int],
        values: np.ndarray,
        timestamps: Optional[Sequence] = None,
    ) -> np.ndarray:
        """Append a columnar batch under one lock acquisition.

        Entry ``i`` is ``counts[i]`` consecutive rows of the ``[sum(counts),
        C]`` block for ``tenants[i]``, stamped ``timestamps[i]`` (or
        unstamped when ``timestamps`` is ``None``).  Entries apply in
        order, each exactly as one :meth:`ingest` call would, so a tenant
        listed twice sees both appends.  Every entry is validated before
        any is applied: a batch that raises leaves the store untouched.
        Returns each entry's total observed rows after it applied.
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
        stops = np.cumsum(counts).tolist()
        with self._lock:
            if timestamps is not None:
                watermarks: Dict[str, object] = {}
                for tenant, timestamp in zip(tenants, timestamps):
                    if timestamp is None:
                        continue
                    last = watermarks.get(tenant, self._last_timestamp.get(tenant))
                    check_timestamp_order(tenant, timestamp, last)
                    watermarks[tenant] = timestamp
            start = 0
            for index, tenant in enumerate(tenants):
                stop = stops[index]
                totals[index] = self._append_locked(
                    tenant,
                    values[start:stop],
                    None if timestamps is None else timestamps[index],
                )
                start = stop
        return totals

    def _rows(self, values: np.ndarray) -> np.ndarray:
        """``values`` as store-dtype ``[T, C]`` rows, or ``ValueError``."""
        values = np.asarray(values, dtype=self._dtype)
        if values.ndim == 1:
            values = values[None, :]
        if values.ndim != 2 or values.shape[1] != self.n_channels:
            raise ValueError(
                f"expected [T, {self.n_channels}] rows, got shape {values.shape}"
            )
        return values

    @requires_lock("_lock")
    def _append_locked(self, tenant: str, values: np.ndarray, timestamp) -> int:
        """One validated append: ring, watermark, counters and churn mark."""
        buffer = self._buffers.get(tenant)
        if buffer is None:
            buffer = RingBuffer(self.capacity, self.n_channels, dtype=self._dtype)
            self._buffers[tenant] = buffer
            self._generations[tenant] = self._tombstones.pop(tenant, 0)
            self.stats.tenants += 1
        rows, held_before = len(values), buffer._size
        buffer.extend(values)
        if timestamp is not None:
            self._last_timestamp[tenant] = timestamp
        stats = self.stats
        stats.ingests += 1
        stats.observations += rows
        # Every appended row is held, or pushed an older one off the ring.
        stats.evicted += rows - (buffer._size - held_before)
        self._dirty.add(tenant)
        return buffer._total

    def latest(self, tenant: str, n: int) -> np.ndarray:
        """The tenant's most recent ``min(n, held)`` rows, chronological.

        Taken under the store lock: a window copied while a concurrent
        ``ingest`` is mid-way through its (up to two) slice writes could
        otherwise mix old and new rows out of order.
        """
        with self._lock:
            return self._buffer_locked(tenant).latest(n)

    def gather(
        self, tenants: Sequence[str], n: int, skip_missing: bool = False
    ) -> Tuple[List[int], np.ndarray, np.ndarray]:
        """Every tenant's latest window, stacked, under one lock acquisition.

        Returns ``(found, windows, lengths)``: ``found`` lists the
        positions in ``tenants`` that were gathered, and ``windows[i]`` is
        the ``[n, channels]`` window of ``tenants[found[i]]`` — its most
        recent ``lengths[i] = min(n, held)`` rows right-aligned (what
        :meth:`latest` returns, at the end of the row), zeros before them.
        An unknown tenant raises ``KeyError``, or with ``skip_missing`` is
        left out.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        windows = np.empty((len(tenants), n, self.n_channels), dtype=self._dtype)
        lengths = np.empty(len(tenants), dtype=np.int64)
        found: List[int] = []
        with self._lock:
            buffers = self._buffers
            for position, tenant in enumerate(tenants):
                buffer = buffers.get(tenant)
                if buffer is None:
                    if skip_missing:
                        continue
                    raise KeyError(f"unknown tenant {tenant!r}")
                row = len(found)
                window = windows[row]
                copied = buffer.copy_latest(window)
                if copied < n:
                    window[:n - copied] = 0
                lengths[row] = copied
                found.append(position)
        return found, windows[:len(found)], lengths[:len(found)]

    def last_timestamp(self, tenant: str):
        """The last ingested timestamp for a tenant, or ``None``."""
        with self._lock:
            return self._last_timestamp.get(tenant)

    def drop(self, tenant: str) -> None:
        """Forget a tenant entirely (buffer and timestamp watermark)."""
        with self._lock:
            self._buffers.pop(tenant, None)
            self._last_timestamp.pop(tenant, None)
            # A dropped tenant needs no delta payload — its absence from the
            # next checkpoint's tenant list is the deletion record.
            self._dirty.discard(tenant)
            generation = self._generations.pop(tenant, None)
            if generation is not None:
                self._tombstones[tenant] = generation + 1

    def generation(self, tenant: str) -> int:
        """Which incarnation of the key this tenant is (0 for the first).

        Bumped each time a key is re-created after :meth:`drop`; travels
        with the tenant's state, so a checkpoint of a *deleted*
        incarnation can be told apart from the live one however many rows
        either has.
        """
        with self._lock:
            return self._generations.get(tenant, 0)

    # ------------------------------------------------------------------ #
    # Checkpoint bookkeeping — incremental snapshots ride on it.
    # ------------------------------------------------------------------ #
    def dirty_tenants(self) -> List[str]:
        """Tenants mutated since :meth:`mark_clean`, in first-seen order."""
        with self._lock:
            return [tenant for tenant in self._buffers if tenant in self._dirty]

    def mark_clean(self) -> None:
        """Reset churn tracking (called when a checkpoint captures state)."""
        with self._lock:
            self._dirty.clear()

    def generations(self) -> Dict[str, int]:
        """Per-tenant incarnation numbers (live tenants only)."""
        with self._lock:
            return dict(self._generations)

    def stats_snapshot(self) -> StoreStats:
        """A consistent copy of the counters, taken under the store lock.

        Cluster-wide aggregation merges many stores while their traffic is
        still running; copying under the lock keeps each store's counters
        internally consistent (no torn ``ingests``/``observations`` pairs).
        """
        with self._lock:
            return StoreStats(**asdict(self.stats))

    # ------------------------------------------------------------------ #
    # State codec — snapshot/restore and shard migration both ride on it.
    # ------------------------------------------------------------------ #
    def tenant_state(self, tenant: str) -> dict:
        """One tenant's full state (ring contents, watermark, incarnation)."""
        with self._lock:
            return {
                "buffer": self._buffer_locked(tenant).to_state(),
                "last_timestamp": self._last_timestamp.get(tenant),
                "generation": self._generations.get(tenant, 0),
            }

    def restore_tenant(self, tenant: str, state: dict) -> None:
        """Adopt a tenant exported from another store (shard migration).

        The tenant must not already exist here, and the incoming buffer must
        match this store's geometry — silently re-bucketing rows across
        capacities could drop the very window the next forecast needs.

        ``StoreStats`` counters are deliberately untouched: they record what
        *this* store ingested, and the tenant's history was already counted
        once on the store that ingested it — bumping them again would
        double-count every migration in cluster-wide aggregation.
        """
        buffer = RingBuffer.from_state(state["buffer"])
        if buffer.capacity != self.capacity or buffer.n_channels != self.n_channels:
            raise ValueError(
                f"tenant state is [{buffer.capacity}, {buffer.n_channels}], "
                f"store is [{self.capacity}, {self.n_channels}]"
            )
        with self._lock:
            if tenant in self._buffers:
                raise ValueError(f"tenant {tenant!r} already exists in this store")
            self._buffers[tenant] = buffer
            if state.get("last_timestamp") is not None:
                self._last_timestamp[tenant] = state["last_timestamp"]
            self._generations[tenant] = int(state.get("generation", 0))
            # Adoption is churn: the next incremental checkpoint must record
            # this tenant's new placement and contents.
            self._dirty.add(tenant)
