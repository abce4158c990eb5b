"""A sharded, rebalanceable, *parallel* cluster of streaming forecasters.

One :class:`~repro.streaming.forecaster.StreamingForecaster` scales until a
single model replica saturates; past that point tenants must be
partitioned.  :class:`ShardedForecaster` owns N shards — each a full
streaming stack with its own :class:`~repro.serving.service.ForecastService`
(model replica), ring-buffer store and per-tenant scalers — and routes
every call by consistent-hash lookup on the tenant key:

* ``ingest`` / ``forecast`` go to exactly one shard (tenants never
  straddle shards, so per-shard micro-batching still coalesces);
* ``forecast_all`` / ``flush`` fan out, one service flush per shard,
  driven through a pluggable :class:`~repro.runtime.Executor` — with a
  :class:`~repro.runtime.PoolExecutor`, S shards use S cores (forward
  passes are NumPy-bound and release the GIL in BLAS);
* stats aggregate cluster-wide through ``ServiceStats.merge`` over
  lock-consistent per-shard snapshots.

Locking is two-level (see ``ARCHITECTURE.md``):

* a writer-preferring :class:`~repro.runtime.RWLock` guards the
  **topology** — routed traffic holds the shared read side, so calls for
  different tenants proceed concurrently; ``add_shard`` / ``remove_shard``
  / ``failover`` and checkpoints take the exclusive write side, so no
  caller ever observes a half-done rebalance;
* one lock **per shard** serialises that shard's compound operations
  (window read → normalise → submit, and the submit-group + flush unit of
  a fan-out), exactly what PR 3's single global lock guaranteed — but now
  only per shard, not cluster-wide.

Tenant → shard lookups are memoised per topology version, so the hot
ingest path stops re-hashing MD5 on every call.

Persistence goes beyond whole-cluster ``save``/``load``:
:meth:`ShardedForecaster.save_incremental` writes a **delta** checkpoint
holding only the tenants that churned since the previous checkpoint
(O(churn), not O(fleet)), chained to its parent by id + sequence number;
:func:`~repro.cluster.snapshot.resolve_chain` (via :meth:`load_chain`)
replays a chain deterministically.  :meth:`failover` re-routes a dead
shard's ring arc to the survivors and restores its tenants from the last
checkpoint chain, reporting exactly which tenants lost un-checkpointed
arrivals.

The shard services are expected to be *replicas*: ``service_factory`` must
build services around models with identical weights (model construction is
deterministic from ``config.seed``, so a plain
``lambda: ForecastService(LiPFormer(config))`` qualifies, as does loading
one trained state dict into each replica).
"""

from __future__ import annotations

import os
import uuid
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..config import ModelConfig
from ..runtime import Executor, SerialExecutor, map_shards
from ..runtime.annotations import guarded_by, requires_lock, unguarded
from ..runtime.locks import RWLock, TrackedRLock
from ..serving.admission import DEFAULT_PRIORITY, resolve_deadline
from ..serving.service import ForecastService, ServiceStats
from ..streaming.forecaster import StreamingForecast, StreamingForecaster, StreamingStats
from ..streaming.store import StoreStats
from .ring import HashRing
from .snapshot import (
    _npz_path,
    compact_chain,
    read_snapshot,
    resolve_chain,
    resolve_tenant_payloads,
    write_snapshot,
)

__all__ = ["ShardedForecaster", "FailoverReport"]

# Module-level instruments shared by every cluster in the process; the
# per-shard histogram fans out by label instead of per-instance state.
_REBALANCE_SECONDS = obs.histogram(
    "repro_cluster_rebalance_seconds",
    "wall time of a successful topology change or failover",
    labels=("op",),
)
_SHARD_FORECAST_SECONDS = obs.histogram(
    "repro_cluster_shard_forecast_seconds",
    "per-shard submit+flush time inside one forecast_all fan-out",
    labels=("shard",),
)


@dataclass
class FailoverReport:
    """What :meth:`ShardedForecaster.failover` recovered — and what it couldn't.

    ``restored`` maps each recovered tenant to the surviving shard now
    serving it.  ``lost`` tenants existed only in the dead replica's memory
    (never checkpointed) and are gone.  ``stale`` tenants were restored
    from the checkpoint but had ingested arrivals since it was taken; the
    value is exactly how many rows of history the failover rolled back.
    """

    shard_id: str
    restored: Dict[str, str] = field(default_factory=dict)
    lost: List[str] = field(default_factory=list)
    stale: Dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every tenant came back with zero rolled-back rows."""
        return not self.lost and not self.stale


@guarded_by(
    "_shards", "ring", "_shard_locks", "_assign_cache", "_topology_version",
    "_chain", "_chain_id", "_seq", "_dropped_since_checkpoint",
    "_retired_service", "_retired_store", "_retired_streaming",
    "rebalances", "tenants_migrated", "rebalance_failures",
    lock="_topology",
)
class ShardedForecaster:
    """Consistent-hash partitioned multi-replica streaming cluster.

    Parameters
    ----------
    service_factory:
        zero-argument callable building one :class:`ForecastService` per
        shard; replicas must share weights and configuration.
    n_shards:
        initial shard count (named ``shard-0 .. shard-{n-1}``).
    normalization / window_capacity:
        forwarded to every shard's :class:`StreamingForecaster`.
    vnodes:
        virtual points per shard on the :class:`HashRing`.
    executor:
        fan-out strategy for per-shard work (``forecast_all`` / ``flush`` /
        checkpoint collection).  Defaults to
        :class:`~repro.runtime.SerialExecutor`; pass a
        :class:`~repro.runtime.PoolExecutor` to drive S shards on S cores.
    """

    def __init__(
        self,
        service_factory: Callable[[], ForecastService],
        n_shards: int = 2,
        normalization: str = "none",
        window_capacity: Optional[int] = None,
        vnodes: int = 64,
        executor: Optional[Executor] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.service_factory = service_factory
        self.normalization = normalization
        self.window_capacity = window_capacity
        self.executor: Executor = executor if executor is not None else SerialExecutor()
        self.ring = HashRing(vnodes=vnodes)
        self._shards: Dict[str, StreamingForecaster] = {}
        self.config: Optional[ModelConfig] = None
        self.rebalances = 0
        self.tenants_migrated = 0
        self._retired_service = ServiceStats()
        self._retired_store = StoreStats()
        self._retired_streaming = StreamingStats()
        self._init_runtime()
        for index in range(n_shards):
            shard_id = f"shard-{index}"
            self.ring.add(shard_id)
            self._shards[shard_id] = self._build_shard(None)
            self._shard_locks[shard_id] = TrackedRLock(f"shard:{shard_id}")

    @unguarded("constructor phase: the cluster is not visible to other threads yet")
    def _init_runtime(self) -> None:
        """Locks, caches and chain bookkeeping shared by every constructor."""
        # Reader/writer topology lock: routed traffic shares the read side
        # (an arrival can still never land on a shard mid-migration and
        # vanish), topology changes and checkpoints take the write side.
        # Named so the debug-mode lock-order monitor can place it in the
        # global acquisition graph (every cluster shares the one ordering
        # class: topology before shard locks, never the reverse).
        self._topology = RWLock(name="cluster-topology")
        # Per-shard locks serialise a shard's compound operations (window
        # read → submit, submit-group → flush) against each other, which is
        # all the old cluster-wide mutex guaranteed *within* one shard.
        self._shard_locks: Dict[str, TrackedRLock] = {}
        # tenant -> (topology_version, shard_id); entries from older
        # versions are ignored, so a stale write racing a rebalance can
        # never poison routing.
        self._assign_cache: Dict[str, Tuple[int, str]] = {}
        self._topology_version = 0
        # Incremental checkpointing: the chain of snapshot paths this
        # cluster would restore from (one full save + following deltas).
        self._chain: List[str] = []
        self._chain_id: Optional[str] = None
        self._seq = 0
        # Tenant keys dropped since the last checkpoint link.  The chain
        # still holds those tenants' payloads, and per-store generation
        # tombstones don't follow a key that is re-created on a *different*
        # shard after a rebalance — this cluster-level set does, so
        # failover() can refuse to resurrect deleted history in every
        # topology.  Cleared on each checkpoint (whose tenant lists then
        # record the deletions durably).
        self._dropped_since_checkpoint: set = set()
        # Rebalances that failed and rolled back (add/remove_shard unwind
        # paths).  Runtime-only observability — not persisted: a restored
        # cluster starts with a clean failure ledger, like process restart
        # clears a crash counter.
        self.rebalance_failures = 0

    @requires_lock("_topology")
    def _bump_topology_locked(self) -> None:
        """Invalidate memoised ring lookups (held under the write lock)."""
        self._topology.assert_held("write")
        self._topology_version += 1
        self._assign_cache = {}

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._topology.read():
            return len(self._shards)

    def shard_ids(self) -> List[str]:
        """Shard names in creation order."""
        with self._topology.read():
            return list(self._shards)

    def shard(self, shard_id: str) -> StreamingForecaster:
        """The shard's underlying streaming forecaster."""
        with self._topology.read():
            try:
                return self._shards[shard_id]
            except KeyError:
                raise KeyError(f"unknown shard {shard_id!r}") from None

    def shard_for(self, tenant: str) -> str:
        """Which shard serves a tenant (memoised ring lookup).

        The MD5 ring hash is stable but not free; on the hot ingest path it
        is paid once per tenant per topology, not once per call.  Entries
        are tagged with the topology version they were computed under and
        ignored after any ``add_shard`` / ``remove_shard`` / ``failover``.

        Self-acquires the shared topology lock (reentrant for the routed
        paths that already hold it), so external callers — tests, admin
        tooling — get a consistent version/ring pair too.
        """
        with self._topology.read():
            return self._assign_locked(tenant)

    @requires_lock("_topology")
    def _assign_locked(self, tenant: str) -> str:
        version = self._topology_version
        cached = self._assign_cache.get(tenant)
        if cached is not None and cached[0] == version:
            return cached[1]
        shard_id = self.ring.assign(tenant)
        self._assign_cache[tenant] = (version, shard_id)
        return shard_id

    def tenants(self) -> List[str]:
        """Every tenant across the cluster (shard order, then first-seen)."""
        with self._topology.read():
            keys: List[str] = []
            for forecaster in self._shards.values():
                keys.extend(forecaster.store.tenants())
            return keys

    def tenant_count(self) -> int:
        with self._topology.read():
            return sum(len(fc.store) for fc in self._shards.values())

    # ------------------------------------------------------------------ #
    # Rebalancing
    # ------------------------------------------------------------------ #
    def add_shard(
        self, shard_id: Optional[str] = None, service: Optional[ForecastService] = None
    ) -> List[str]:
        """Grow the ring by one shard; migrate only tenants it now owns.

        Returns the migrated tenant keys.  Consistent hashing guarantees
        the moved set is exactly the tenants whose assignment changed —
        every one of them lands on the new shard, and in expectation they
        are ``1/N`` of the cluster, not a full reshuffle.
        """
        with self._topology.write():
            # Timed from inside the write lock: lock *wait* is reported
            # separately by the RWLock's repro_lock_wait_seconds metric.
            started = obs.now() if obs.metrics_enabled() else 0.0
            if shard_id is None:
                index = len(self._shards)
                while f"shard-{index}" in self._shards:
                    index += 1
                shard_id = f"shard-{index}"
            if shard_id in self._shards:
                raise ValueError(f"shard {shard_id!r} already exists")
            incoming = self._build_shard(service)
            self.ring.add(shard_id)
            moved: List[Tuple[str, StreamingForecaster]] = []
            try:
                for source in self._shards.values():
                    for tenant in source.store.tenants():
                        if self.ring.assign(tenant) != shard_id:
                            continue
                        incoming.import_tenant(tenant, source.export_tenant(tenant))
                        source.drop(tenant)
                        moved.append((tenant, source))
            except Exception:
                # Deliberately broad: *whatever* failed mid-migration, a
                # half-done rebalance must not leave a phantom ring node
                # routing ~1/N of tenants to a shard that never registered.
                # Unwind the ring, send migrated tenants home, count the
                # failure (observable via as_dict / rebalance_failures),
                # and re-raise the original error unchanged.
                self.rebalance_failures += 1
                self.ring.remove(shard_id)
                for tenant, source in moved:
                    source.import_tenant(tenant, incoming.export_tenant(tenant))
                raise
            self._shards[shard_id] = incoming
            self._shard_locks[shard_id] = TrackedRLock(f"shard:{shard_id}")
            self._bump_topology_locked()
            self.rebalances += 1
            self.tenants_migrated += len(moved)
            if started:
                _REBALANCE_SECONDS.labels(op="add_shard").observe(obs.now() - started)
            return [tenant for tenant, _ in moved]

    def remove_shard(self, shard_id: str) -> List[str]:
        """Retire a shard; its tenants (and only its tenants) re-home.

        The departing shard's service queue is flushed first so every
        already-submitted forecast resolves against the state it was
        assembled from.  Returns the migrated tenant keys.
        """
        with self._topology.write():
            started = obs.now() if obs.metrics_enabled() else 0.0
            if shard_id not in self._shards:
                raise KeyError(f"unknown shard {shard_id!r}")
            if len(self._shards) == 1:
                raise ValueError("cannot remove the last shard of a cluster")
            source = self._shards.pop(shard_id)
            source_lock = self._shard_locks.pop(shard_id)
            source.flush()
            self.ring.remove(shard_id)
            moved: List[str] = []
            try:
                for tenant in source.store.tenants():
                    destination = self._shards[self.ring.assign(tenant)]
                    destination.import_tenant(tenant, source.export_tenant(tenant))
                    moved.append(tenant)
            except Exception:
                # Deliberately broad, same contract as add_shard: unwind —
                # the source still holds every tenant (export copies), so
                # drop the partial imports and restore the topology — then
                # count the failure and re-raise unchanged.
                self.rebalance_failures += 1
                for tenant in moved:
                    self._shards[self.ring.assign(tenant)].drop(tenant)
                self.ring.add(shard_id)
                self._shards[shard_id] = source
                self._shard_locks[shard_id] = source_lock
                raise
            # The retired shard's history must not vanish from cluster-wide
            # aggregation (its tenants' observations were very much served).
            self._fold_retired_stats(source)
            self._bump_topology_locked()
            self.rebalances += 1
            self.tenants_migrated += len(moved)
            if started:
                _REBALANCE_SECONDS.labels(op="remove_shard").observe(obs.now() - started)
            return moved

    # ------------------------------------------------------------------ #
    # Failover
    # ------------------------------------------------------------------ #
    def failover(
        self, shard_id: str, checkpoint_paths: Optional[Sequence[str]] = None
    ) -> FailoverReport:
        """Recover from a dead shard: re-route its arc, restore its tenants.

        The shard's replica is presumed crashed — its in-memory state
        (buffers, scalers, queued requests) is unrecoverable.  Its virtual
        points leave the ring, so the consistent-hash arc it owned falls to
        the surviving shards, and every tenant it served is restored onto
        its new owner from the last checkpoint chain (``checkpoint_paths``
        overrides the chain recorded by ``save`` / ``save_incremental`` /
        ``load_chain``) via the per-tenant codec.

        Recovery is *honest about data loss*: the returned
        :class:`FailoverReport` names each tenant that was never
        checkpointed (gone entirely) and each tenant whose checkpoint
        lags its live history, with the exact number of rolled-back rows —
        the cluster still knows the dead shard's ingest watermarks, only
        the replica's payload memory is lost.

        The dead shard's serving/store counters fold into the retired
        accumulators, like :meth:`remove_shard` — its traffic was served
        and stays counted.
        """
        with self._topology.write():
            started = obs.now() if obs.metrics_enabled() else 0.0
            if shard_id not in self._shards:
                raise KeyError(f"unknown shard {shard_id!r}")
            if len(self._shards) == 1:
                raise ValueError("cannot fail over the last shard of a cluster")
            paths = list(checkpoint_paths) if checkpoint_paths is not None else list(self._chain)
            if not paths:
                raise RuntimeError(
                    "failover needs a checkpoint to restore from; call save() "
                    "(and save_incremental()) before shards can die safely"
                )
            checkpointed = self._checkpoint_tenant_states(paths)
            dead = self._shards.pop(shard_id)
            self._shard_locks.pop(shard_id)
            self.ring.remove(shard_id)
            self._bump_topology_locked()
            report = FailoverReport(shard_id=shard_id)
            for tenant in dead.store.tenants():
                payload = checkpointed.get(tenant)
                if payload is None:
                    # Born after the last checkpoint, died with the replica.
                    report.lost.append(tenant)
                    continue
                live_rows = dead.store.observed(tenant)
                checkpoint_rows = int(payload["series"]["buffer"]["total_appended"])
                checkpoint_generation = int(payload["series"].get("generation", 0))
                if (
                    tenant in self._dropped_since_checkpoint
                    or dead.store.generation(tenant) != checkpoint_generation
                    or live_rows < checkpoint_rows
                ):
                    # The payload belongs to a *different incarnation* of
                    # this key: the tenant was dropped and re-created since
                    # the checkpoint (generation mismatch, or — for
                    # pre-generation snapshots — a live ingest total below
                    # the checkpoint's, which a single incarnation's
                    # monotonic counter cannot produce).  Restoring it would
                    # silently resurrect history the operator deleted; the
                    # re-created incarnation was never checkpointed, so it
                    # is honestly lost.
                    report.lost.append(tenant)
                    continue
                target = self.ring.assign(tenant)
                self._shards[target].import_tenant(tenant, payload)
                report.restored[tenant] = target
                if live_rows > checkpoint_rows:
                    report.stale[tenant] = live_rows - checkpoint_rows
            self._fold_retired_stats(dead)
            self.rebalances += 1
            self.tenants_migrated += len(report.restored)
            # Auto-warm every shard that adopted tenants: the first
            # post-failover forecast must replay a compiled plan, not pay
            # an eager fallback (or a trace) on the request path.  Shard
            # warmup touches only the shard's own service lock, so it is
            # safe under the topology write lock held here.
            for target in sorted(set(report.restored.values())):
                self._shards[target].warmup()
            if started:
                _REBALANCE_SECONDS.labels(op="failover").observe(obs.now() - started)
            return report

    @staticmethod
    def _checkpoint_tenant_states(paths: Sequence[str]) -> Dict[str, dict]:
        """tenant → ``export_tenant``-shaped payload from a resolved chain."""
        return resolve_tenant_payloads(resolve_chain(paths))

    # ------------------------------------------------------------------ #
    # Routed traffic
    # ------------------------------------------------------------------ #
    def ingest(self, tenant: str, values: np.ndarray, timestamp=None) -> int:
        """Append observations on the tenant's shard; returns its total.

        Holds the topology read lock (shared — arrivals for different
        shards proceed concurrently) plus the owning shard's lock, so an
        arrival can never land on a shard mid-migration and vanish with
        the tenant's pre-migration buffer.
        """
        with self._topology.read():
            shard_id = self.shard_for(tenant)
            with self._shard_locks[shard_id]:
                return self._shards[shard_id].ingest(tenant, values, timestamp=timestamp)

    def forecast(
        self,
        tenant: str,
        future_numerical: Optional[np.ndarray] = None,
        future_categorical: Optional[np.ndarray] = None,
        priority: str = DEFAULT_PRIORITY,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> StreamingForecast:
        """Queue a forecast on the tenant's shard; non-blocking handle.

        ``priority`` / ``timeout`` / ``deadline`` pass through to the
        shard service's admission control (see
        :mod:`repro.serving.admission`).
        """
        with self._topology.read():
            shard_id = self.shard_for(tenant)
            with self._shard_locks[shard_id]:
                return self._shards[shard_id].forecast(
                    tenant,
                    future_numerical=future_numerical,
                    future_categorical=future_categorical,
                    priority=priority,
                    timeout=timeout,
                    deadline=deadline,
                )

    def forecast_all(
        self,
        tenants: Optional[Sequence[str]] = None,
        flush: bool = True,
        future_numerical: Optional[Mapping[str, np.ndarray]] = None,
        future_categorical: Optional[Mapping[str, np.ndarray]] = None,
        priority: str = DEFAULT_PRIORITY,
        timeout: Optional[float] = None,
    ) -> Dict[str, StreamingForecast]:
        """Queue one forecast per tenant, fanned out shard by shard.

        Routing resolves every tenant's shard in one pass under the
        topology read lock, and each shard receives its tenants as one
        columnar :meth:`StreamingForecaster.forecast_all` block, so its
        tenants coalesce into that replica's micro-batches — N tenants on
        S shards cost ``ceil(N/S / max_batch_size)`` passes per shard, not
        N model calls.  Shard groups run through the cluster's executor:
        with a :class:`~repro.runtime.PoolExecutor`, the S per-shard
        forward passes overlap across cores.  Each group's submit+flush is
        one unit under its shard lock, so concurrent fan-outs never split
        each other's micro-batches.

        The sweep shares one deadline: ``timeout`` is anchored once, when
        the fan-out starts, for every shard.  A tenant refused by its
        shard's admission control gets a handle that raises the typed
        error from ``result()``.
        """
        future_numerical = future_numerical or {}
        future_categorical = future_categorical or {}
        deadline = None if timeout is None else resolve_deadline(obs.now(), timeout)
        with self._topology.read():
            # Tenant enumeration and the per-shard fan-out are two steps
            # under the *shared* lock, so a concurrent drop() (also a
            # reader) can land between them.  When the caller asked for
            # "everything live" the vanished tenant is simply skipped — the
            # same outcome as the drop serialising before enumeration; an
            # explicit tenant list keeps strict errors.
            implicit = tenants is None
            keys = self.tenants() if implicit else list(tenants)
            by_shard: Dict[str, List[str]] = {}
            for tenant in keys:
                by_shard.setdefault(self._assign_locked(tenant), []).append(tenant)

            def run_shard(shard_id: str) -> Dict[str, StreamingForecast]:
                members = by_shard[shard_id]
                # map_shards carried the cluster.forecast_all span onto this
                # (possibly pool-worker) thread, so the shard span nests
                # under it even when the fan-out crosses threads.
                with obs.span("shard.forecast", shard=shard_id, tenants=len(members)):
                    shard_started = obs.now() if obs.metrics_enabled() else 0.0
                    with self._shard_locks[shard_id]:
                        shard_handles = self._shards[shard_id].forecast_all(
                            members,
                            flush=flush,
                            future_numerical=future_numerical,
                            future_categorical=future_categorical,
                            priority=priority,
                            deadline=deadline,
                            skip_missing=implicit,
                        )
                    if shard_started:
                        _SHARD_FORECAST_SECONDS.labels(shard=shard_id).observe(
                            obs.now() - shard_started
                        )
                return shard_handles

            with obs.span("cluster.forecast_all", tenants=len(keys), shards=len(by_shard)):
                collected = map_shards(self.executor, run_shard, list(by_shard))
        merged: Dict[str, StreamingForecast] = {}
        for shard_handles in collected.values():
            merged.update(shard_handles)
        # Handles come back in the caller's tenant order, whatever order
        # the executor finished the shard groups in.
        return {tenant: merged[tenant] for tenant in keys if tenant in merged}

    def ingest_and_forecast(
        self, arrivals: Mapping[str, np.ndarray], timestamp=None
    ) -> Dict[str, StreamingForecast]:
        """One cluster tick: ingest a batch of arrivals, forecast each tenant."""
        for tenant, values in arrivals.items():
            self.ingest(tenant, values, timestamp=timestamp)
        return self.forecast_all(list(arrivals))

    def flush(self) -> int:
        """Flush every shard's service queue (in parallel under a pool
        executor); returns requests resolved."""
        with self._topology.read():

            def run_shard(shard_id: str) -> int:
                with self._shard_locks[shard_id]:
                    return self._shards[shard_id].flush()

            return sum(map_shards(self.executor, run_shard, self.shard_ids()).values())

    def warmup(self, batch_sizes: Optional[Sequence[int]] = None) -> int:
        """Pre-trace one polymorphic compiled plan per shard (in parallel
        under a pool executor); returns the total plans traced.

        Run after building a cluster so the first fan-out doesn't pay
        per-shard plan-tracing latency; :meth:`load`, :meth:`load_chain`
        and :meth:`failover` already warm their restored shards.
        """
        with self._topology.read():

            def run_shard(shard_id: str) -> int:
                with self._shard_locks[shard_id]:
                    return self._shards[shard_id].warmup(batch_sizes)

            return sum(map_shards(self.executor, run_shard, self.shard_ids()).values())

    def drop(self, tenant: str) -> None:
        """Forget a tenant cluster-wide (buffer, watermark and scaler)."""
        with self._topology.read():
            shard_id = self.shard_for(tenant)
            with self._shard_locks[shard_id]:
                self._shards[shard_id].drop(tenant)
            # Evict the memoised ring lookup too: under tenant churn the
            # cache must track the live population, not every key ever seen.
            self._assign_cache.pop(tenant, None)
            self._dropped_since_checkpoint.add(tenant)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def service_stats(self) -> ServiceStats:
        """Cluster-wide serving counters (``ServiceStats.merge`` of shards).

        Merges lock-consistent per-shard snapshots, so totals are exact
        even while other threads keep submitting.  Includes the history of
        shards retired by :meth:`remove_shard` / :meth:`failover` — their
        traffic was served, so it stays counted.
        """
        with self._topology.read():
            return ServiceStats.merge(
                [self._retired_service]
                + [fc.service.stats_snapshot() for fc in self._shards.values()]
            )

    def streaming_stats(self) -> StreamingStats:
        with self._topology.read():
            return StreamingStats.merge(
                [self._retired_streaming]
                + [fc.stats_snapshot() for fc in self._shards.values()]
            )

    def store_stats(self) -> StoreStats:
        with self._topology.read():
            return StoreStats.merge(
                [self._retired_store]
                + [fc.store.stats_snapshot() for fc in self._shards.values()]
            )

    def reset_service_stats(self) -> None:
        """Zero every shard's serving counters (between benchmark phases).

        Exclusive topology lock plus each service's own lock: routed
        traffic is excluded for the (rare) duration, and flushes triggered
        directly on a handle (``Forecast.result()`` bypasses the cluster
        façade) can't interleave their field-by-field increments with the
        reset either.
        """
        with self._topology.write():
            self._retired_service.reset()
            for forecaster in self._shards.values():
                forecaster.service.reset_stats()

    @requires_lock("_topology")
    def _fold_retired_stats(self, source: StreamingForecaster) -> None:
        self._topology.assert_held("write")
        self._retired_service = ServiceStats.merge(
            [self._retired_service, source.service.stats_snapshot()]
        )
        self._retired_streaming = StreamingStats.merge(
            [self._retired_streaming, source.stats_snapshot()]
        )
        self._retired_store = StoreStats.merge(
            [self._retired_store, source.store.stats_snapshot()]
        )

    def as_dict(self) -> dict:
        """One observability payload: topology, balance and merged stats."""
        with self._topology.read():
            return {
                "shards": len(self._shards),
                "tenants": self.tenant_count(),
                "tenants_per_shard": {
                    shard_id: len(fc.store) for shard_id, fc in self._shards.items()
                },
                "rebalances": self.rebalances,
                "tenants_migrated": self.tenants_migrated,
                "rebalance_failures": self.rebalance_failures,
                "service": self.service_stats().as_dict(),
            }

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict:
        """Serialisable snapshot of the whole cluster (ring + every shard).

        Taken under the exclusive topology lock so the cut is consistent:
        no arrival lands between two shards' captures.  Rebalance counters
        and the retired-shard stat accumulators travel too —
        ``service_stats()`` promises retired traffic stays counted, and
        that promise must hold across a restart.
        """
        with self._topology.write():
            return self._to_state_locked()

    @requires_lock("_topology")
    def _to_state_locked(self) -> dict:
        self._topology.assert_held("write")
        shard_states = map_shards(
            self.executor,
            lambda shard_id: self._shards[shard_id].to_state(),
            self.shard_ids(),
        )
        return {
            "kind": "full",
            "chain_id": self._chain_id,
            "seq": int(self._seq),
            "vnodes": int(self.ring.vnodes),
            "normalization": self.normalization,
            "rebalances": int(self.rebalances),
            "tenants_migrated": int(self.tenants_migrated),
            "retired": {
                # Per-tenant streaming/store stats travel inside each
                # shard's own state; service stats live on the service
                # objects, which restore *fresh* from the factory — so the
                # cluster-wide total is snapshotted here and becomes the
                # revived cluster's retired baseline.
                "service": asdict(self.service_stats()),
                "store": asdict(self._retired_store),
                "streaming": asdict(self._retired_streaming),
            },
            "shards": shard_states,
        }

    @requires_lock("_topology")
    def _delta_state_locked(self, seq: int) -> dict:
        """A delta checkpoint: churned tenants' payloads + each shard's order.

        Per shard the delta records the full tenant *key list* (names are
        cheap; they double as the deletion record — a tenant absent from
        every list was dropped) and full per-tenant payloads only for
        tenants dirtied since the last checkpoint.  Stats are tiny and
        travel wholesale.  Collection fans out per shard through the
        executor, same as a full save.
        """
        self._topology.assert_held("write")
        first = next(iter(self._shards.values()))

        def collect(shard_id: str) -> dict:
            forecaster = self._shards[shard_id]
            dirty = set(forecaster.dirty_tenants())
            order = forecaster.store.tenants()
            return {
                "order": order,
                "dirty": {
                    tenant: forecaster.export_tenant(tenant)
                    for tenant in order
                    if tenant in dirty
                },
                "stats": asdict(forecaster.stats_snapshot()),
                "store_stats": asdict(forecaster.store.stats_snapshot()),
            }

        return {
            "kind": "delta",
            "chain_id": self._chain_id,
            "seq": int(seq),
            "parent_seq": int(self._seq),
            "vnodes": int(self.ring.vnodes),
            "normalization": self.normalization,
            "store": {
                "capacity": int(first.store.capacity),
                "n_channels": int(first.store.n_channels),
                "dtype": first.store.dtype.name,
            },
            "rebalances": int(self.rebalances),
            "tenants_migrated": int(self.tenants_migrated),
            "retired": {
                "service": asdict(self.service_stats()),
                "store": asdict(self._retired_store),
                "streaming": asdict(self._retired_streaming),
            },
            "shards": map_shards(self.executor, collect, self.shard_ids()),
        }

    @classmethod
    def from_state(
        cls,
        service_factory: Callable[[], ForecastService],
        state: dict,
        executor: Optional[Executor] = None,
    ) -> "ShardedForecaster":
        """Rebuild a cluster from :meth:`to_state` output.

        Shard services come fresh from ``service_factory`` (weights have
        their own persistence path); shard names, ring layout, tenant
        placement and all per-tenant streaming state are restored exactly,
        so the revived cluster routes and forecasts bit-identically.
        """
        if not state["shards"]:
            raise ValueError("cluster state holds no shards")
        cluster = cls.__new__(cls)
        cluster.service_factory = service_factory
        cluster.normalization = str(state["normalization"])
        cluster.executor = executor if executor is not None else SerialExecutor()
        # Shards built by a later add_shard must match the restored stores'
        # geometry, or migration into them would be rejected — recover the
        # capacity from the saved state rather than falling back to the
        # constructor default.
        first_shard = next(iter(state["shards"].values()))
        cluster.window_capacity = int(first_shard["store"]["capacity"])
        cluster.ring = HashRing(vnodes=int(state["vnodes"]))
        cluster._shards = {}
        cluster.config = None
        cluster.rebalances = int(state["rebalances"])
        cluster.tenants_migrated = int(state["tenants_migrated"])
        cluster._retired_service = ServiceStats(**state["retired"]["service"])
        cluster._retired_store = StoreStats(**state["retired"]["store"])
        cluster._retired_streaming = StreamingStats(**state["retired"]["streaming"])
        cluster._init_runtime()
        chain_id = state.get("chain_id")
        cluster._chain_id = None if chain_id is None else str(chain_id)
        cluster._seq = int(state.get("seq", 0))
        for shard_id, shard_state in state["shards"].items():
            service = service_factory()
            cluster._check_replica(service)
            cluster.ring.add(shard_id)
            cluster._shards[shard_id] = StreamingForecaster.from_state(
                service, shard_state
            )
            cluster._shard_locks[shard_id] = TrackedRLock(f"shard:{shard_id}")
        return cluster

    def save(self, path: str) -> None:
        """Write a full cluster snapshot; starts a new checkpoint chain.

        Atomic on disk (temp file + ``os.replace``), stop-the-world in
        process (exclusive topology lock — the captured cut and the
        dirty-reset below must observe the same arrivals), but per-shard
        state collection still fans out through the executor.  After a
        full save every tenant is clean: the next
        :meth:`save_incremental` captures only churn from this point.
        """
        with self._topology.write():
            previous = (self._chain_id, self._seq)
            self._chain_id = uuid.uuid4().hex
            self._seq = 0
            try:
                write_snapshot(self._to_state_locked(), path)
            except BaseException:
                # A failed write must not orphan the in-memory chain head:
                # the old chain (if any) is still the restorable one.
                self._chain_id, self._seq = previous
                raise
            for forecaster in self._shards.values():
                forecaster.clear_dirty()
            self._dropped_since_checkpoint.clear()
            self._chain = [path]

    def save_incremental(self, path: str) -> None:
        """Write a delta checkpoint: only tenants touched since the last one.

        O(churn) instead of O(fleet): a fleet of 10k tenants where 100
        moved since the last checkpoint writes 100 tenants' buffers, not
        10k.  The delta chains to its parent (id + sequence number);
        restore the full chain with :meth:`load_chain`.  Raises if no
        chain base exists yet — call :meth:`save` first.
        """
        with self._topology.write():
            if not self._chain:
                raise RuntimeError(
                    "no checkpoint chain to extend: call save() for a full "
                    "base snapshot before save_incremental()"
                )
            # Every link must be a distinct file: re-using a chained path
            # ("latest.npz" habits, or the base itself) would overwrite a
            # link the chain still needs and destroy the only copy of that
            # checkpoint's data.
            if self._resolve_snapshot_file(path) in {
                self._resolve_snapshot_file(link) for link in self._chain
            }:
                raise ValueError(
                    f"{path!r} is already a link of the current checkpoint "
                    "chain; each incremental snapshot needs a fresh path"
                )
            delta = self._delta_state_locked(seq=self._seq + 1)
            write_snapshot(delta, path)
            for forecaster in self._shards.values():
                forecaster.clear_dirty()
            self._dropped_since_checkpoint.clear()
            self._seq += 1
            self._chain.append(path)

    @staticmethod
    def _resolve_snapshot_file(path: str) -> str:
        """The actual archive file a snapshot path maps to (npz suffixing)."""
        return os.path.abspath(_npz_path(path))

    def compact(self, path: Optional[str] = None) -> str:
        """Fold the recorded checkpoint chain into one full snapshot.

        Delegates to :func:`~repro.cluster.snapshot.compact_chain` (which
        garbage-collects the superseded links) and re-points the live
        chain at the compacted base, so the next :meth:`save_incremental`
        chains onto it and the next :meth:`failover` replays one file
        instead of the whole history.  ``path`` defaults to overwriting
        the chain base in place.  Returns the compacted snapshot path.
        """
        with self._topology.write():
            if not self._chain:
                raise RuntimeError(
                    "no checkpoint chain to compact: call save() first"
                )
            output = compact_chain(self._chain, output=path)
            self._chain = [output]
            return output

    def checkpoint_chain(self) -> List[str]:
        """The snapshot paths a restore (or :meth:`failover`) would replay."""
        with self._topology.read():
            return list(self._chain)

    @classmethod
    def load(
        cls,
        service_factory: Callable[[], ForecastService],
        path: str,
        executor: Optional[Executor] = None,
    ) -> "ShardedForecaster":
        """Restore a :meth:`save` archive around fresh service replicas.

        Replicas come back pre-warmed: every restored shard traces its
        polymorphic compiled plan before the cluster is returned, so the
        first post-restore forecasts replay instead of falling back eager.
        """
        cluster = cls.from_state(service_factory, read_snapshot(path), executor=executor)
        if cluster._chain_id is not None:
            # The revived cluster can keep extending the chain (and fail
            # over) without re-writing a full base first.
            cluster._chain = [path]
        cluster.warmup()
        return cluster

    @classmethod
    def load_chain(
        cls,
        service_factory: Callable[[], ForecastService],
        paths: Sequence[str],
        executor: Optional[Executor] = None,
    ) -> "ShardedForecaster":
        """Restore a full + incremental snapshot chain, deterministically.

        Replays ``[full, delta, ...]`` through
        :func:`~repro.cluster.snapshot.resolve_chain` (validating chain id
        and sequence linkage) and revives the resulting state; the cluster
        continues the same chain on subsequent :meth:`save_incremental`
        calls.  Restored replicas are auto-warmed, like :meth:`load`.
        """
        paths = list(paths)
        cluster = cls.from_state(service_factory, resolve_chain(paths), executor=executor)
        if cluster._chain_id is not None:
            cluster._chain = paths
        cluster.warmup()
        return cluster

    # ------------------------------------------------------------------ #
    def _build_shard(self, service: Optional[ForecastService]) -> StreamingForecaster:
        service = self.service_factory() if service is None else service
        self._check_replica(service)
        return StreamingForecaster(
            service,
            normalization=self.normalization,
            window_capacity=self.window_capacity,
        )

    def _check_replica(self, service: ForecastService) -> None:
        """All shards must share one model geometry or routing is nonsense."""
        if self.config is None:
            self.config = service.config
            return
        for field_name in ("input_length", "horizon", "n_channels"):
            expected = getattr(self.config, field_name)
            actual = getattr(service.config, field_name)
            if actual != expected:
                raise ValueError(
                    f"shard service {field_name} {actual} does not match the "
                    f"cluster's {field_name} {expected}"
                )
