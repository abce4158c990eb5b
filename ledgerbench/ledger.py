"""Span ledger: per-layer busy and self time from wrappers around layer calls.

The traced run records spans only here, in the benchmark: each wrapper
replaces one public method on one live object (or one ``repro.wire``
function) for the duration of the traced phase, and times the call.  The
program's own ``repro.obs`` tracing stays off.  A span's self time is its
duration minus the time its child spans cover; the tick loop is single-threaded,
so children never overlap and the covered time is the sum of their
durations.

Totals are aggregated as spans close, so a long run keeps O(span names)
memory.  The first ``KEEP_SPANS`` spans are also retained whole, so their
nesting can be checked against their timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from repro import wire

__all__ = ["Ledger", "Span", "check_nesting", "instrument"]


@dataclass
class Span:
    """One retained span; ``parent`` indexes ``Ledger.spans`` (-1 for a root)."""

    name: str
    parent: int
    start: float = 0.0
    end: float = -1.0


#: spans retained whole, for the nesting check
KEEP_SPANS = 4096


class Ledger:
    """Aggregates span counts, total time and self time by span name."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: free-form counters (bytes moved and the like)
        self.counts: Dict[str, float] = {}
        # Open spans: [name, start, seconds covered by children, retained index]
        self._stack: List[list] = []

    def enter(self, name: str) -> None:
        index = -1
        if len(self.spans) < KEEP_SPANS:
            index = len(self.spans)
            self.spans.append(Span(name, self._stack[-1][3] if self._stack else -1))
        self._stack.append([name, perf_counter(), 0.0, index])

    def exit(self) -> None:
        end = perf_counter()
        name, start, covered, index = self._stack.pop()
        duration = end - start
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            span = self.spans[index]
            span.start, span.end = start, end

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as one span named ``name`` per call."""
        enter, exit_ = self.enter, self.exit

        def timed(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return timed

    def calls(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total(self, *names: str) -> float:
        return sum(self.totals.get(name, (0, 0.0, 0.0))[1] for name in names)

    def self_time(self, *names: str) -> float:
        return sum(self.totals.get(name, (0, 0.0, 0.0))[2] for name in names)


def check_nesting(spans: Sequence[Span]) -> List[str]:
    """Problems with the retained spans: unclosed, or outside their parent."""
    problems = []
    for index, span in enumerate(spans):
        if span.end < span.start:
            problems.append(f"span {index} ({span.name}) never closed")
            continue
        if span.parent >= 0:
            parent = spans[span.parent]
            if not parent.start <= span.start <= span.end <= parent.end:
                problems.append(
                    f"span {index} ({span.name}) lies outside its parent "
                    f"{span.parent} ({parent.name})"
                )
    return problems


# Public methods wrapped per object kind, with the span name each records.
THREAD_CLUSTER = (("ingest", "cluster.ingest"), ("forecast_all", "cluster.forecast_all"))
STREAMING = (
    ("ingest", "streaming.ingest"),
    ("forecast", "streaming.forecast"),
    ("flush", "streaming.flush"),
)
STORE = (("ingest", "store.ingest"), ("latest", "store.latest"), ("tenants", "store.tenants"))
SERVICE = (("submit", "service.submit"), ("flush", "service.flush"))
MODEL = (("predict", "model.predict"),)
SCALER = (("update", "scaler.update"),)
PROCESS_CLUSTER = (("ingest", "coord.ingest"), ("forecast_all", "coord.forecast_all"))
PROCESS_SHARD = (("send", "shard.send"), ("receive", "shard.receive"))


def instrument(ledger: Ledger, cluster, backend: str) -> Callable[[], None]:
    """Install the wrappers on a live cluster; returns the function removing them."""
    patched: List[Tuple[object, str]] = []

    def patch(target, methods) -> None:
        for attr, name in methods:
            setattr(target, attr, ledger.wrap(name, getattr(target, attr)))
            patched.append((target, attr))

    restore_wire = None
    patch(cluster, THREAD_CLUSTER if backend == "thread" else PROCESS_CLUSTER)
    if backend == "thread":
        for shard_id in cluster.shard_ids():
            forecaster = cluster.shard(shard_id)
            for tenant in forecaster.store.tenants():
                scaler = forecaster.scaler(tenant)
                if scaler is not None:
                    patch(scaler, SCALER)
            patch(forecaster, STREAMING)
            patch(forecaster.store, STORE)
            patch(forecaster.service, SERVICE)
            patch(forecaster.service.model, MODEL)
    else:
        # ProcessCoordinator exposes no public accessor for its shard
        # handles; the benchmark reads the mapping it keeps them in.
        for shard in cluster._shards.values():
            patch(shard, PROCESS_SHARD)
        restore_wire = _instrument_wire(ledger)

    def remove() -> None:
        for target, attr in reversed(patched):
            delattr(target, attr)
        if restore_wire is not None:
            restore_wire()

    return remove


def _instrument_wire(ledger: Ledger) -> Callable[[], None]:
    """Time the coordinator's codec calls and count the frames and bytes."""
    pack, unpack = wire.pack_message, wire.unpack_message

    def counted_pack(message):
        ledger.enter("wire.pack")
        try:
            blob = pack(message)
        finally:
            ledger.exit()
        ledger.count("wire.bytes", len(blob))
        return blob

    def counted_unpack(payload):
        ledger.count("wire.bytes", len(payload))
        ledger.enter("wire.unpack")
        try:
            return unpack(payload)
        finally:
            ledger.exit()

    wire.pack_message, wire.unpack_message = counted_pack, counted_unpack

    def restore() -> None:
        wire.pack_message, wire.unpack_message = pack, unpack

    return restore
