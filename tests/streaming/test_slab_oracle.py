"""The slab store against a reference: one ring and one scaler per tenant.

``SeriesStore`` keeps every tenant's ring in one ``[slots, capacity, C]``
slab and, with ``moments``, folds each tenant's Welford moments as Python
floats in the same locked call.  The reference below is the layout it
replaced — one :class:`RingBuffer` object and one
:class:`~repro.data.incremental.RollingScaler` per tenant, with the
bookkeeping the store and the forecaster used to split between them.
Hypothesis schedules drive both through the same steps (chunks of every
size, ring wraps, rejected timestamps, drop and re-create, export and
import, columnar batches listing a tenant twice) and compare gathered
windows, lengths, payloads (dtypes and key order included) and moments
bit for bit after every step.
"""

from typing import Dict, List, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.incremental import RollingScaler
from repro.streaming import SeriesStore, StoreStats
from repro.streaming.store import check_timestamp_order


class RingBuffer:
    """Fixed-capacity chronological buffer of ``[capacity, channels]`` rows.

    The per-tenant ring the slab replaced: rows land in a preallocated
    array at a wrapping cursor, and a chunk at least as long as the
    capacity keeps only its newest ``capacity`` rows.
    """

    def __init__(self, capacity: int, n_channels: int, dtype=np.float32) -> None:
        self.capacity = capacity
        self.n_channels = n_channels
        self._data = np.zeros((capacity, n_channels), dtype=dtype)
        self._write = 0
        self._size = 0
        self._total = 0

    def __len__(self) -> int:
        return self._size

    def extend(self, values: np.ndarray) -> None:
        rows = len(values)
        if rows == 0:
            return
        self._total += rows
        if rows >= self.capacity:
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
        n = min(n, self._size)
        if n == 0:
            return self._data[:0].copy()
        return np.concatenate([self._data[self._write:], self._data[:self._write]])[-n:]

    def to_state(self) -> dict:
        return {
            "capacity": int(self.capacity),
            "n_channels": int(self.n_channels),
            "dtype": self._data.dtype.name,
            "data": self.latest(self._size),
            "total_appended": int(self._total),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RingBuffer":
        buffer = cls(int(state["capacity"]), int(state["n_channels"]), np.dtype(state["dtype"]))
        data = np.asarray(state["data"], dtype=buffer._data.dtype)
        buffer._data[:len(data)] = data
        buffer._write = len(data) % buffer.capacity
        buffer._size = len(data)
        buffer._total = int(state["total_appended"])
        return buffer


class ReferenceStore:
    """Per-tenant rings and scalers, kept as the store and forecaster did."""

    def __init__(self, capacity: int, n_channels: int, moments: bool) -> None:
        self.capacity, self.n_channels, self.moments = capacity, n_channels, moments
        self.buffers: Dict[str, RingBuffer] = {}
        self.scalers: Dict[str, RollingScaler] = {}
        self.last: Dict[str, object] = {}
        self.generations: Dict[str, int] = {}
        self.tombstones: Dict[str, int] = {}
        self.dirty: Set[str] = set()
        self.stats = StoreStats()

    def ingest(self, tenant: str, values: np.ndarray, timestamp=None) -> int:
        if tenant not in self.buffers and not len(values):
            return 0                                  # zero rows create no tenant
        if timestamp is not None:
            check_timestamp_order(tenant, timestamp, self.last.get(tenant))
        return self._append(tenant, values, timestamp)

    def ingest_many(self, tenants, counts, values, timestamps=None) -> Tuple[List[int], List[int]]:
        if timestamps is not None:
            live, watermarks = set(self.buffers), {}
            for tenant, count, timestamp in zip(tenants, counts, timestamps):
                if tenant not in live and not count:
                    continue
                live.add(tenant)
                check_timestamp_order(tenant, timestamp, watermarks.get(tenant, self.last.get(tenant)))
                watermarks[tenant] = timestamp
        totals, generations, start = [], [], 0
        for index, (tenant, count) in enumerate(zip(tenants, counts)):
            if tenant not in self.buffers and not count:
                totals.append(0)
                generations.append(0)
                continue
            stamp = None if timestamps is None else timestamps[index]
            totals.append(self._append(tenant, values[start:start + count], stamp))
            generations.append(self.generations[tenant])
            start += count
        return totals, generations

    def _append(self, tenant: str, values: np.ndarray, timestamp) -> int:
        buffer = self.buffers.get(tenant)
        if buffer is None:
            buffer = self.buffers[tenant] = RingBuffer(self.capacity, self.n_channels)
            self.generations[tenant] = self.tombstones.pop(tenant, 0)
            self.stats.tenants += 1
        held_before = len(buffer)
        buffer.extend(values)
        if timestamp is not None:
            self.last[tenant] = timestamp
        if self.moments:
            self.scalers.setdefault(tenant, RollingScaler()).update(values)
        self.stats.ingests += 1
        self.stats.observations += len(values)
        self.stats.evicted += len(values) - (len(buffer) - held_before)
        self.dirty.add(tenant)
        return buffer._total

    def drop(self, tenant: str) -> None:
        self.buffers.pop(tenant, None)
        self.scalers.pop(tenant, None)
        self.last.pop(tenant, None)
        self.dirty.discard(tenant)
        generation = self.generations.pop(tenant, None)
        if generation is not None:
            self.tombstones[tenant] = generation + 1

    def tenant_state(self, tenant: str) -> dict:
        scaler = self.scalers.get(tenant)
        return {
            "series": {
                "buffer": self.buffers[tenant].to_state(),
                "last_timestamp": self.last.get(tenant),
                "generation": self.generations.get(tenant, 0),
            },
            "scaler": None if scaler is None else scaler.to_state(),
        }

    def restore_tenant(self, tenant: str, payload: dict) -> None:
        series = payload["series"]
        self.buffers[tenant] = RingBuffer.from_state(series["buffer"])
        if series["last_timestamp"] is not None:
            self.last[tenant] = series["last_timestamp"]
        self.generations[tenant] = int(series["generation"])
        if payload["scaler"] is not None:
            self.scalers[tenant] = RollingScaler.from_state(payload["scaler"])
        self.dirty.add(tenant)


def assert_bitwise_equal(got, want, path="payload") -> None:
    """Equal values, types, dtypes, shapes and dict key order, bit for bit."""
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_bitwise_equal(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, f"{path}: dtype {got.dtype} != {want.dtype}"
        assert got.shape == want.shape, f"{path}: shape {got.shape} != {want.shape}"
        assert got.tobytes() == want.tobytes(), f"{path}: values differ"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def assert_same(store: SeriesStore, reference: ReferenceStore, n: int) -> None:
    tenants = list(reference.buffers)
    assert store.tenants() == tenants
    assert store.stats_snapshot() == reference.stats
    assert store.dirty_tenants() == [t for t in tenants if t in reference.dirty]
    assert {t: store.generation(t) for t in tenants} == reference.generations
    for tenant in tenants:
        assert_bitwise_equal(store.tenant_state(tenant), reference.tenant_state(tenant))
        assert store.observed(tenant) == reference.buffers[tenant]._total
    gatherable = [t for t in tenants if not reference.moments or reference.scalers[t].n_seen]
    found, windows, lengths, moments = store.gather(gatherable, n)
    assert found == list(range(len(gatherable)))
    for row, tenant in enumerate(gatherable):
        latest = reference.buffers[tenant].latest(n)
        assert lengths[row] == len(latest)
        assert windows[row, n - len(latest):].tobytes() == latest.tobytes()
        assert not windows[row, :n - len(latest)].any()
    if not reference.moments:
        assert moments is None
        return
    mean, std = moments
    for row, tenant in enumerate(gatherable):
        scaler = reference.scalers[tenant]
        assert mean[row].tobytes() == scaler.mean_.tobytes()
        assert std[row].tobytes() == scaler.std_.tobytes()


TENANTS = ("a", "b", "c")
tenant = st.sampled_from(TENANTS)
# Capacities run 1..10, so chunks >= capacity are common; single rows
# (the streaming tick) get their own weight.
chunk = st.one_of(st.just(1), st.integers(0, 25))
step = st.one_of(
    st.tuples(st.just("ingest"), tenant, chunk, st.booleans()),
    st.tuples(
        st.just("ingest_many"),
        st.lists(st.tuples(tenant, chunk), min_size=1, max_size=4),
        st.booleans(),
    ),
    st.tuples(st.just("drop"), tenant),
    st.tuples(st.just("move"), tenant),
    st.tuples(st.just("mark_clean")),
)


@pytest.mark.parametrize("moments", [True, False])
@pytest.mark.parametrize("channels", [1, 7])
@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, 10),
    steps=st.lists(step, min_size=1, max_size=25),
    stale=st.lists(st.booleans(), min_size=25, max_size=25),
    seed=st.integers(0, 2**16),
)
def test_slab_matches_per_tenant_reference(channels, moments, capacity, steps, stale, seed):
    rng = np.random.default_rng(seed)
    store = SeriesStore(capacity, channels, moments=moments)
    reference = ReferenceStore(capacity, channels, moments)
    n = int(rng.integers(1, capacity + 1))
    clock = 0

    def rows(count):
        scale = rng.choice([1e-3, 1.0, 50.0], size=channels)
        offset = rng.choice([0.0, 7.0, -300.0], size=channels)
        values = rng.standard_normal((count, channels)) * scale + offset
        if channels > 1:
            values[:, 0] = 4.0      # a constant channel: std floored to 1.0
        return values.astype(np.float32)

    for index, op in enumerate(steps):
        kind = op[0]
        if kind == "ingest":
            _, key, count, stamped = op
            values = rows(count)
            stamp = None
            if stamped:
                clock += 1
                # A stale stamp repeats the tenant's watermark: refused.
                stamp = reference.last.get(key, clock) if stale[index] else clock
            outcomes = []
            for target in (store, reference):
                try:
                    outcomes.append(target.ingest(key, values, timestamp=stamp))
                except ValueError as error:
                    outcomes.append(type(error))
            assert outcomes[0] == outcomes[1]
        elif kind == "ingest_many":
            _, entries, stamped = op
            entries = entries + entries[:1]          # the first tenant is listed twice
            keys = [key for key, _ in entries]
            counts = [count for _, count in entries]
            values = rows(sum(counts))
            stamps = None
            if stamped:
                stamps = list(range(clock + 1, clock + 1 + len(entries)))
                clock += len(entries)
                if stale[index]:
                    stamps[-1] = stamps[0]            # the repeat goes back in time
            outcomes = []
            for target in (store, reference):
                try:
                    totals, generations = target.ingest_many(keys, counts, values, stamps)
                    outcomes.append((list(totals), list(generations)))
                except ValueError as error:
                    outcomes.append(type(error))
            assert outcomes[0] == outcomes[1]
        elif kind == "drop":
            store.drop(op[1])
            reference.drop(op[1])
        elif kind == "mark_clean":
            store.mark_clean()
            reference.dirty.clear()
        else:
            key = op[1]
            if key in reference.buffers:
                payload = store.tenant_state(key)
                assert_bitwise_equal(payload, reference.tenant_state(key))
                store.drop(key)
                reference.drop(key)
                store.restore_tenant(key, payload)
                reference.restore_tenant(key, payload)
        assert_same(store, reference, n)

    # The whole store round-trips through its payloads into a fresh slab
    # (adoption is churn and counts no ingest).
    clone = SeriesStore(capacity, channels, moments=moments)
    for key in store.tenants():
        clone.restore_tenant(key, store.tenant_state(key))
    reference.stats = StoreStats()
    reference.dirty = set(reference.buffers)
    assert_same(clone, reference, n)


def test_gather_refuses_a_tenant_without_statistics():
    store = SeriesStore(4, 2, moments=True)
    source = SeriesStore(4, 2)
    source.ingest("bare", np.ones((3, 2)))
    # A zero-row ingest creates no tenant; a zero-row payload adopts one.
    empty = source.tenant_state("bare")
    empty["series"]["buffer"].update(data=np.zeros((0, 2), np.float32), total_appended=0)
    store.restore_tenant("empty", empty)
    with pytest.raises(ValueError, match="no observations"):
        store.gather(["empty"], 2)
    store.restore_tenant("bare", source.tenant_state("bare"))   # fresh moments
    with pytest.raises(RuntimeError, match="no rolling statistics"):
        store.gather(["bare"], 2)
    store.ingest("bare", np.ones((1, 2)))
    assert store.scaler_state("bare")["count"] == 1
