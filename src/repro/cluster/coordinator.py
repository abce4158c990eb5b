"""One cluster coordinator over pluggable shard transports.

A cluster partitions tenants across N shards — each a full streaming
stack (model replica → :class:`~repro.serving.service.ForecastService`
micro-batching → :class:`~repro.streaming.forecaster.StreamingForecaster`
ring-buffer store) — and routes every call by consistent-hash lookup on
the tenant key.  :class:`Coordinator` is the one implementation of
everything above the shards:

* the :class:`~repro.cluster.ring.HashRing` and the per-topology-version
  assignment cache;
* the topology :class:`~repro.runtime.RWLock` — routed traffic shares the
  read side, ``add_shard`` / ``remove_shard`` / ``failover`` and
  checkpoints take the write side; the lock order is always topology
  before shard;
* rebalancing with unwind, failover with :class:`FailoverReport`
  accounting, and the one retired stats record;
* persistence: full and delta checkpoints chained under
  :func:`~repro.cluster.snapshot.resolve_chain`, compaction, restore;
* one split-phase fan-out (:func:`fan_out`) behind every multi-shard
  operation.

It reaches shards only through a small interface (see :class:`Shard`),
implemented twice: :class:`~repro.cluster.sharded.LocalShard` calls an
in-process :class:`StreamingForecaster` directly, and
:class:`~repro.cluster.process.ProcessShard` speaks the wire codec to a
worker process.  :class:`~repro.cluster.sharded.ShardedForecaster` and
:class:`~repro.cluster.process.ProcessCoordinator` are constructors that
pick the shard class.
"""

from __future__ import annotations

import os
import uuid
from concurrent.futures import Executor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple,
)

import numpy as np

from .. import obs
from ..config import ModelConfig
from ..runtime.annotations import guarded_by, requires_lock, unguarded
from ..runtime.locks import RWLock, TrackedRLock
from ..serving.admission import DEFAULT_PRIORITY, resolve_deadline
from ..serving.service import ServiceStats
from ..streaming.forecaster import check_state_header, payload_census
from ..streaming.store import StoreStats
from .ring import HashRing
from .snapshot import (
    _npz_path,
    compact_chain,
    resolve_chain,
    resolve_tenant_payloads,
    write_snapshot,
)
from .spec import ClusterSpec

__all__ = ["Coordinator", "FailoverReport", "Shard", "fan_out"]

# Module-level instruments shared by every cluster in the process.
_REBALANCE_SECONDS = obs.histogram(
    "repro_cluster_rebalance_seconds",
    "wall time of a successful topology change or failover",
    labels=("op",),
)

Stats = Tuple[ServiceStats, StoreStats]


def merge_stats(parts: Iterable[Stats]) -> Stats:
    """Many shards' counters as one ``Stats`` (``CounterStats.merge`` per kind)."""
    parts = list(parts)
    return ServiceStats.merge(p[0] for p in parts), StoreStats.merge(p[1] for p in parts)


class Shard(Protocol):
    """The interface a coordinator drives; one class per transport.

    Routed calls run under the topology read lock.  ``ingest`` takes
    only the locks its own state needs (a thread shard's store lock, a
    process shard's ``lock``); ``drop`` and the fan-out legs run under
    ``lock`` as well.  Control-plane calls run under the topology write
    lock.  ``census``
    maps tenant → (observed rows, generation) and counts every row
    ``ingest`` accepted, including rows a transport still holds for
    later delivery (a process shard's write-behind buffer).  It must
    still answer after the shard died: failover reads it to account for
    every tenant the dead replica held, so a row that died undelivered
    shows up as ``stale`` (or its tenant as ``lost``) like any row
    ingested after the last checkpoint.  ``stats`` is the shard's
    (service, store) counters and also answers after a death (a process
    shard's last poll).  ``start(op, **fields)`` /
    ``collect()`` are the two halves of :func:`fan_out`, for the ops
    ``forecast_all``, ``flush``, ``warmup``, ``to_state`` (full, or
    with ``delta``), ``clear_dirty`` and ``restore``; states and tenant
    payloads are opaque to the coordinator.  There is no
    single-forecast call: a forecast is a ``forecast_all`` job of one
    tenant, whose handles expose ``admission_error``.
    """

    shard_id: str
    lock: TrackedRLock

    def ingest(self, tenant: str, values: np.ndarray, timestamp) -> int: ...
    def drop(self, tenant: str) -> None: ...
    def tenants(self) -> List[str]: ...
    def census(self) -> Dict[str, Tuple[int, int]]: ...
    def export_tenant(self, tenant: str) -> dict: ...
    def import_tenant(self, tenant: str, payload: dict) -> None: ...
    def stats(self) -> Stats: ...
    def reset_stats(self) -> None: ...
    def close(self, graceful: bool = True) -> None: ...
    def start(self, op: str, **fields) -> None: ...
    def collect(self) -> Any: ...


def fan_out(
    shards: Mapping[str, Shard],
    op: str,
    jobs: Mapping[str, dict],
    executor: Optional[Executor] = None,
) -> Dict[str, Any]:
    """Run one split-phase operation: start every shard, then collect every one.

    ``jobs`` maps shard id → keyword fields for that shard's ``start``.
    Every involved shard lock is held from the first start to the last
    collect, acquired in sorted id order so concurrent fan-outs cannot
    deadlock.  Shards start in ``jobs`` order; their collects run inline,
    or on ``executor`` when more than one shard started (thread shards do
    their work inside ``collect``, so a pool overlaps them).  A pooled
    collect carries the caller's span, and a pool that refuses work (shut
    down) leaves its collect inline.  Every collect settles before the
    first error (in start, then collect order) is raised; only an
    interrupt during an inline collect, with nothing else in flight,
    propagates at once.  Returns ``{shard_id: result}`` in ``jobs`` order.
    """
    with ExitStack() as held:
        for shard_id in sorted(jobs):
            held.enter_context(shards[shard_id].lock)
        started: List[str] = []
        first_error: Optional[BaseException] = None
        for shard_id, fields in jobs.items():
            try:
                shards[shard_id].start(op, **fields)
            except Exception as error:
                first_error = first_error if first_error is not None else error
            else:
                started.append(shard_id)
        collects = [shards[shard_id].collect for shard_id in started]
        pooled = executor is not None and len(started) > 1
        if pooled:
            collects = [_submitted(executor, collect) for collect in collects]
        results: Dict[str, Any] = {}
        for shard_id, collect in zip(started, collects):
            try:
                results[shard_id] = collect()
            # Once every collect is in flight, even an interrupt waits for the rest.
            except (BaseException if pooled else Exception) as error:
                first_error = first_error if first_error is not None else error
        if first_error is not None:
            raise first_error
        return results


def _submitted(executor: Executor, collect: Callable[[], Any]) -> Callable[[], Any]:
    """``collect`` submitted to ``executor``, as a call that waits for it."""
    try:
        return executor.submit(obs.carry_current_span(collect)).result
    except RuntimeError:
        return collect


@dataclass
class FailoverReport:
    """What :meth:`Coordinator.failover` recovered — and what it couldn't.

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
    "_shards", "ring", "_assign_cache", "_topology_version",
    "_chain", "_chain_id", "_seq", "_dropped_since_checkpoint", "_retired",
    "rebalances", "tenants_migrated", "rebalance_failures",
    lock="_topology",
)
class Coordinator:
    """Consistent-hash partitioned multi-replica streaming cluster.

    Subclasses pick the shard transport by implementing ``_configure``
    (keep the replica recipe and transport options) and ``_open_shards``
    (build shards for new ids); everything else is shared.
    """

    #: reported by :meth:`as_dict`
    BACKEND = "?"
    #: where a fan-out's collects run (see :func:`fan_out`); ``None`` is inline
    executor: Optional[Executor] = None
    #: the replicas' model config, once known (restores check headers against it)
    config: Optional[ModelConfig] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def _deploy(cls, replica, deployment: ClusterSpec, **transport) -> "Coordinator":
        """Build a cluster from a validated :class:`ClusterSpec`."""
        deployed = cls.__new__(cls)
        deployed._configure(replica, **transport)
        deployed._start(deployment)
        return deployed

    def _configure(self, replica, **transport) -> None:
        raise NotImplementedError

    def _open_shards(self, shard_ids: Sequence[str], warmup: bool, service=None) -> Dict[str, Shard]:
        raise NotImplementedError

    @unguarded("constructor phase: the cluster is not visible to other threads yet")
    def _start(self, cluster: ClusterSpec, warmup: bool = True) -> None:
        self._init_runtime(cluster.normalization, cluster.window_capacity, cluster.vnodes)
        shard_ids = [f"shard-{index}" for index in range(cluster.n_shards)]
        self._shards = self._open_shards(shard_ids, warmup=warmup)
        for shard_id in shard_ids:
            self.ring.add(shard_id)

    @unguarded("constructor phase: the cluster is not visible to other threads yet")
    def _init_runtime(
        self, normalization: str, window_capacity: Optional[int], vnodes: int
    ) -> None:
        """Topology, locks, caches, counters and chain bookkeeping."""
        self.normalization = normalization
        self.window_capacity = window_capacity
        self.ring = HashRing(vnodes=vnodes)
        self._shards: Dict[str, Shard] = {}
        # Named so the lock-order monitor places it in the global graph:
        # every cluster shares one ordering, topology before shard locks.
        self._topology = RWLock(name="cluster-topology")
        # tenant -> (topology_version, shard_id); entries from older
        # versions are ignored, so a stale write racing a rebalance can
        # never poison routing.
        self._assign_cache: Dict[str, Tuple[int, str]] = {}
        self._topology_version = 0
        self.rebalances = 0
        self.tenants_migrated = 0
        # Rebalances that failed and rolled back.  Runtime-only: a
        # restored cluster starts with a clean failure ledger.
        self.rebalance_failures = 0
        # Counters of shards retired by remove_shard / failover; the
        # registry views beside the live replicas' (or, on the process
        # backend, the live workers' last polls) make an export count
        # them exactly as service_stats() / store_stats() do.
        self._retired: Stats = (ServiceStats(), StoreStats())
        obs.register_stats("repro_serving", self._retired_service)
        obs.register_stats("repro_store", self._retired_store)
        # The checkpoint chain this cluster would restore from (one full
        # save + following deltas).
        self._chain: List[str] = []
        self._chain_id: Optional[str] = None
        self._seq = 0
        # Tenant keys dropped since the last checkpoint link.  Per-store
        # generation tombstones don't follow a key re-created on a
        # *different* shard after a rebalance; this set does, so failover
        # never resurrects deleted history.  Cleared on each checkpoint.
        self._dropped_since_checkpoint: set = set()

    @requires_lock("_topology")
    def _bump_topology_locked(self) -> None:
        """Invalidate memoised ring lookups (held under the write lock)."""
        self._topology.assert_held("write")
        self._topology_version += 1
        self._assign_cache = {}

    @requires_lock("_topology")
    def _fan_out(self, op: str, jobs: Mapping[str, dict]) -> Dict[str, Any]:
        return fan_out(self._shards, op, jobs, self.executor)

    @requires_lock("_topology")
    def _all(self, **fields) -> Dict[str, dict]:
        """One identical job per shard, for :meth:`_fan_out`."""
        return {shard_id: fields for shard_id in self._shards}

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

    @requires_lock("_topology")
    def _require_shard(self, shard_id: str) -> Shard:
        try:
            return self._shards[shard_id]
        except KeyError:
            raise KeyError(f"unknown shard {shard_id!r}") from None

    def shard_for(self, tenant: str) -> str:
        """Which shard serves a tenant (memoised ring lookup).

        The MD5 ring hash is paid once per tenant per topology, not once
        per call: entries are tagged with the topology version they were
        computed under and ignored after any topology change.
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
            return [tenant for shard in self._shards.values() for tenant in shard.tenants()]

    def tenant_count(self) -> int:
        with self._topology.read():
            return sum(len(shard.tenants()) for shard in self._shards.values())

    # ------------------------------------------------------------------ #
    # Rebalancing
    # ------------------------------------------------------------------ #
    def add_shard(self, shard_id: Optional[str] = None, service=None) -> List[str]:
        """Grow the ring by one shard; migrate only tenants it now owns.

        Returns the migrated tenant keys: exactly the tenants whose ring
        assignment changed, every one of them onto the new shard.
        ``service`` is a pre-built replica (thread shards only).  A
        failure mid-migration unwinds — the ring, every moved tenant and
        the new shard — counts on ``rebalance_failures`` and re-raises.
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
            incoming = self._open_shards([shard_id], warmup=True, service=service)[shard_id]
            self.ring.add(shard_id)
            moved: List[Tuple[str, Shard]] = []
            try:
                for source in self._shards.values():
                    for tenant in source.tenants():
                        if self.ring.assign(tenant) != shard_id:
                            continue
                        incoming.import_tenant(tenant, source.export_tenant(tenant))
                        source.drop(tenant)
                        moved.append((tenant, source))
            except Exception:
                # Deliberately broad: whatever failed, a half-done
                # rebalance must not leave a phantom ring node.  Unwind,
                # count the failure, re-raise the original error unchanged.
                self.rebalance_failures += 1
                self.ring.remove(shard_id)
                for tenant, source in moved:
                    source.import_tenant(tenant, incoming.export_tenant(tenant))
                incoming.close()
                raise
            self._shards[shard_id] = incoming
            self._bump_topology_locked()
            self.rebalances += 1
            self.tenants_migrated += len(moved)
            if started:
                _REBALANCE_SECONDS.labels(op="add_shard").observe(obs.now() - started)
            return [tenant for tenant, _ in moved]

    def remove_shard(self, shard_id: str) -> List[str]:
        """Retire a shard; its tenants (and only its tenants) re-home.

        The departing shard's queue is flushed first so every
        already-submitted forecast resolves against the state it was
        assembled from.  Returns the migrated tenant keys.
        """
        with self._topology.write():
            started = obs.now() if obs.metrics_enabled() else 0.0
            source = self._require_shard(shard_id)
            if len(self._shards) == 1:
                raise ValueError("cannot remove the last shard of a cluster")
            self._fan_out("flush", {shard_id: {}})
            del self._shards[shard_id]
            self.ring.remove(shard_id)
            moved: List[str] = []
            try:
                for tenant in source.tenants():
                    destination = self._shards[self.ring.assign(tenant)]
                    destination.import_tenant(tenant, source.export_tenant(tenant))
                    moved.append(tenant)
            except Exception:
                # Same unwind contract as add_shard: the source still holds
                # every tenant (export copies), so drop the partial imports
                # and restore the topology, then re-raise unchanged.
                self.rebalance_failures += 1
                for tenant in moved:
                    self._shards[self.ring.assign(tenant)].drop(tenant)
                self.ring.add(shard_id)
                self._shards[shard_id] = source
                raise
            self._retire_locked(source, graceful=True)
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

        The shard's replica is presumed crashed.  Its virtual points leave
        the ring, so its arc falls to the survivors, and every tenant it
        served is restored onto its new owner from the last checkpoint
        chain (``checkpoint_paths`` overrides the recorded chain).

        Recovery is honest about data loss, from the dead shard's
        ``census()`` (which outlives the replica):

        * never checkpointed → **lost**;
        * dropped since the checkpoint, generation mismatch, or live
          watermark below the checkpoint's (a different incarnation of
          the key) → **lost**, never silently resurrected;
        * otherwise restored, with ``live − checkpoint`` rows reported
          **stale** (rolled back).

        The dead shard's counters fold into the retired record, and
        every shard that adopted tenants is re-warmed before returning.
        """
        with self._topology.write():
            started = obs.now() if obs.metrics_enabled() else 0.0
            dead = self._require_shard(shard_id)
            if len(self._shards) == 1:
                raise ValueError("cannot fail over the last shard of a cluster")
            paths = list(checkpoint_paths) if checkpoint_paths is not None else list(self._chain)
            if not paths:
                raise RuntimeError(
                    "failover needs a checkpoint to restore from; call save() "
                    "(and save_incremental()) before shards can die safely"
                )
            checkpointed = resolve_tenant_payloads(resolve_chain(paths))
            census = dead.census()
            del self._shards[shard_id]
            self._retire_locked(dead, graceful=False)
            self.ring.remove(shard_id)
            self._bump_topology_locked()
            report = FailoverReport(shard_id=shard_id)
            for tenant, (live_rows, generation) in census.items():
                payload = checkpointed.get(tenant)
                if payload is None:
                    # Born after the last checkpoint, died with the replica.
                    report.lost.append(tenant)
                    continue
                checkpoint_rows, checkpoint_generation = payload_census(payload)
                if (
                    tenant in self._dropped_since_checkpoint
                    or generation != checkpoint_generation
                    or live_rows < checkpoint_rows
                ):
                    # The payload belongs to a different incarnation of this
                    # key: restoring it would resurrect deleted history.
                    report.lost.append(tenant)
                    continue
                target = self._assign_locked(tenant)
                self._shards[target].import_tenant(tenant, payload)
                report.restored[tenant] = target
                if live_rows > checkpoint_rows:
                    report.stale[tenant] = live_rows - checkpoint_rows
            self.rebalances += 1
            self.tenants_migrated += len(report.restored)
            # The first post-failover forecast must replay a compiled plan,
            # not trace or fall back eager on the request path.
            adopters = sorted(set(report.restored.values()))
            self._fan_out("warmup", {target: {} for target in adopters})
            if started:
                _REBALANCE_SECONDS.labels(op="failover").observe(obs.now() - started)
            return report

    @requires_lock("_topology")
    def _retire_locked(self, shard: Shard, graceful: bool) -> None:
        """Fold a departing shard's counters into the retired record
        (its traffic was served and stays counted), then close it."""
        self._topology.assert_held("write")
        self._retired = merge_stats([self._retired, shard.stats()])
        shard.close(graceful=graceful)

    # ------------------------------------------------------------------ #
    # Routed traffic
    # ------------------------------------------------------------------ #
    def ingest(self, tenant: str, values: np.ndarray, timestamp=None) -> int:
        """Append observations on the tenant's shard; returns its total.

        Holds the topology read lock, so an arrival can never land on a
        shard mid-migration or mid-restore and vanish, and makes one
        routing lookup.  The shard takes only the lock its own state
        needs: a thread shard's store lock orders the append against a
        gather, and a process shard's ``lock`` guards its write-behind
        buffer, census and watermarks.  A process shard validates and
        buffers the rows; the next frame to its worker, whatever its
        command, applies them first.
        """
        with self._topology.read():
            return self._shards[self._assign_locked(tenant)].ingest(tenant, values, timestamp)

    def forecast(
        self,
        tenant: str,
        future_numerical: Optional[np.ndarray] = None,
        future_categorical: Optional[np.ndarray] = None,
        priority: str = DEFAULT_PRIORITY,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ):
        """Queue a forecast on the tenant's shard; non-blocking handle.

        A one-tenant :meth:`forecast_all` job that leaves the queue
        unflushed.  ``timeout`` / ``deadline`` resolve to one absolute
        deadline here, and ``priority`` passes through to the shard
        service's admission control (see :mod:`repro.serving.admission`).
        A refusal — by admission control, or by a process shard shedding
        the frame before dispatch — raises here, typed.
        """
        job = dict(
            tenants=[tenant], flush=False, priority=priority, skip_missing=False,
            future_numerical={tenant: future_numerical},
            future_categorical={tenant: future_categorical},
            deadline=resolve_deadline(obs.now(), timeout, deadline),
        )
        with self._topology.read():
            shard_id = self._assign_locked(tenant)
            with obs.span("cluster.forecast_all", tenants=1, shards=1, backend=self.BACKEND):
                handle = self._fan_out("forecast_all", {shard_id: job})[shard_id][tenant]
        refused = handle.admission_error
        if refused is not None:
            raise refused
        return handle

    def forecast_all(
        self,
        tenants: Optional[Sequence[str]] = None,
        flush: bool = True,
        future_numerical: Optional[Mapping[str, np.ndarray]] = None,
        future_categorical: Optional[Mapping[str, np.ndarray]] = None,
        priority: str = DEFAULT_PRIORITY,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Queue one forecast per tenant, fanned out shard by shard.

        Routing resolves every tenant's shard in one pass under the
        topology read lock, and each shard receives its tenants as one
        columnar block, so they coalesce into that replica's
        micro-batches.  With ``tenants=None`` each shard sweeps its own
        live tenants (no enumeration round trip), skipping any dropped
        concurrently or holding no rows; an explicit list keeps strict
        errors.

        The sweep shares one deadline: ``timeout`` is anchored once, when
        the fan-out starts.  A tenant refused by admission control gets a
        handle that raises the typed error from ``result()``.
        """
        future_numerical = future_numerical or {}
        future_categorical = future_categorical or {}
        deadline = None if timeout is None else resolve_deadline(obs.now(), timeout)
        with self._topology.read():
            implicit = tenants is None
            by_shard: Dict[str, List[str]] = {}
            if implicit:
                for shard_id, shard in self._shards.items():
                    members = shard.tenants()
                    if members:
                        by_shard[shard_id] = members
                keys = [tenant for members in by_shard.values() for tenant in members]
            else:
                keys = list(tenants)
                for tenant in keys:
                    by_shard.setdefault(self._assign_locked(tenant), []).append(tenant)
            job = {
                "flush": flush,
                "future_numerical": future_numerical,
                "future_categorical": future_categorical,
                "priority": priority,
                "deadline": deadline,
                "skip_missing": implicit,
            }
            jobs = {shard_id: dict(job, tenants=members) for shard_id, members in by_shard.items()}
            with obs.span(
                "cluster.forecast_all", tenants=len(keys), shards=len(by_shard),
                backend=self.BACKEND,
            ):
                collected = self._fan_out("forecast_all", jobs)
        merged: Dict[str, Any] = {}
        for shard_handles in collected.values():
            merged.update(shard_handles)
        # Handles come back in the caller's tenant order.
        return {tenant: merged[tenant] for tenant in keys if tenant in merged}

    def ingest_and_forecast(
        self, arrivals: Mapping[str, np.ndarray], timestamp=None
    ) -> Dict[str, Any]:
        """One cluster tick: ingest a batch of arrivals, forecast each tenant."""
        for tenant, values in arrivals.items():
            self.ingest(tenant, values, timestamp=timestamp)
        return self.forecast_all(list(arrivals))

    def flush(self) -> int:
        """Flush every shard's service queue; returns requests resolved."""
        with self._topology.read():
            return sum(self._fan_out("flush", self._all()).values())

    def warmup(self) -> int:
        """Pre-trace one polymorphic compiled plan per shard; returns the
        total plans traced.  :meth:`load`, :meth:`load_chain` and
        :meth:`failover` already warm their restored shards."""
        with self._topology.read():
            return sum(self._fan_out("warmup", self._all()).values())

    def drop(self, tenant: str) -> None:
        """Forget a tenant cluster-wide (ring, watermark and rolling moments)."""
        with self._topology.read():
            shard = self._shards[self._assign_locked(tenant)]
            with shard.lock:
                shard.drop(tenant)
            # Under tenant churn the cache must track the live population.
            self._assign_cache.pop(tenant, None)
            self._dropped_since_checkpoint.add(tenant)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def _collect_stats(self) -> Stats:
        """Merge live shard counters with the retired record."""
        with self._topology.read():
            live = [self._retired]
            for shard in self._shards.values():
                with shard.lock:
                    live.append(shard.stats())
            return merge_stats(live)

    def service_stats(self) -> ServiceStats:
        """Cluster-wide serving counters, including the history of shards
        retired by :meth:`remove_shard` / :meth:`failover`."""
        return self._collect_stats()[0]

    def store_stats(self) -> StoreStats:
        return self._collect_stats()[1]

    @unguarded("registry view: reads one tuple reference, never blocks an export")
    def _retired_service(self) -> ServiceStats:
        return self._retired[0]

    @unguarded("registry view: reads one tuple reference, never blocks an export")
    def _retired_store(self) -> StoreStats:
        return self._retired[1]

    def reset_service_stats(self) -> None:
        """Zero every shard's serving counters (between benchmark phases)."""
        with self._topology.write():
            self._retired = (ServiceStats(), self._retired[1])
            for shard in self._shards.values():
                shard.reset_stats()
            # Re-poll, so a process cluster's registry views read zeros too.
            self._collect_stats()

    def as_dict(self) -> dict:
        """One observability payload: topology, balance and merged stats."""
        with self._topology.read():
            per_shard = {
                shard_id: len(shard.tenants()) for shard_id, shard in self._shards.items()
            }
            return {
                "backend": self.BACKEND,
                "shards": len(self._shards),
                "tenants": sum(per_shard.values()),
                "tenants_per_shard": per_shard,
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

        Taken under the exclusive topology lock so the cut is consistent.
        Rebalance counters and the retired stats record travel
        too, so retired traffic stays counted across a restart.  Both
        backends write this one format.
        """
        with self._topology.write():
            return self._state_locked(self._seq)

    @requires_lock("_topology")
    def _state_locked(self, seq: int, delta: bool = False) -> dict:
        """A full checkpoint, or with ``delta`` one chained to the current
        link, whose shard states map each clean tenant to ``None``."""
        self._topology.assert_held("write")
        state = {
            "kind": "delta" if delta else "full",
            "chain_id": self._chain_id,
            "seq": int(seq),
            "vnodes": int(self.ring.vnodes),
            "normalization": self.normalization,
            "rebalances": int(self.rebalances),
            "tenants_migrated": int(self.tenants_migrated),
            "retired": {
                # Service stats live on the replicas, which restore fresh,
                # so the cluster-wide total becomes the revived cluster's
                # retired baseline.
                "service": asdict(self.service_stats()),
                "store": asdict(self._retired[1]),
            },
            "shards": self._fan_out("to_state", self._all(delta=delta)),
        }
        if delta:
            state["parent_seq"] = int(self._seq)
        return state

    @requires_lock("_topology")
    def _mark_checkpointed_locked(self) -> None:
        self._fan_out("clear_dirty", self._all())
        self._dropped_since_checkpoint.clear()

    def save(self, path: str) -> None:
        """Write a full cluster snapshot; starts a new checkpoint chain.

        Atomic on disk, stop-the-world in process (the captured cut and
        the dirty-reset must observe the same arrivals).  After a full
        save every tenant is clean: the next :meth:`save_incremental`
        captures only churn from this point.
        """
        with self._topology.write():
            previous = (self._chain_id, self._seq)
            self._chain_id = uuid.uuid4().hex
            self._seq = 0
            try:
                write_snapshot(self._state_locked(0), path)
            except BaseException:
                # A failed write must not orphan the in-memory chain head.
                self._chain_id, self._seq = previous
                raise
            self._mark_checkpointed_locked()
            self._chain = [path]

    def save_incremental(self, path: str) -> None:
        """Write a delta checkpoint: only tenants touched since the last one.

        O(churn) instead of O(fleet).  The delta chains to its parent (id
        + sequence number); restore the chain with :meth:`load_chain`.
        Raises if no chain base exists yet — call :meth:`save` first.
        """
        with self._topology.write():
            if not self._chain:
                raise RuntimeError(
                    "no checkpoint chain to extend: call save() for a full "
                    "base snapshot before save_incremental()"
                )
            # Re-using a chained path would overwrite a link the chain
            # still needs.
            if _snapshot_file(path) in {_snapshot_file(link) for link in self._chain}:
                raise ValueError(
                    f"{path!r} is already a link of the current checkpoint "
                    "chain; each incremental snapshot needs a fresh path"
                )
            write_snapshot(self._state_locked(self._seq + 1, delta=True), path)
            self._mark_checkpointed_locked()
            self._seq += 1
            self._chain.append(path)

    def compact(self, path: Optional[str] = None) -> str:
        """Fold the recorded checkpoint chain into one full snapshot.

        Delegates to :func:`~repro.cluster.snapshot.compact_chain` (which
        garbage-collects the superseded links) and re-points the live
        chain at the compacted base.  ``path`` defaults to overwriting the
        chain base in place.  Returns the compacted snapshot path.
        """
        with self._topology.write():
            if not self._chain:
                raise RuntimeError("no checkpoint chain to compact: call save() first")
            output = compact_chain(self._chain, output=path)
            self._chain = [output]
            return output

    def checkpoint_chain(self) -> List[str]:
        """The snapshot paths a restore (or :meth:`failover`) would replay."""
        with self._topology.read():
            return list(self._chain)

    @classmethod
    def from_state(cls, replica, state: dict, **transport) -> "Coordinator":
        """Rebuild a cluster from :meth:`to_state` output (either backend's).

        Shards come up with fresh replicas from ``replica`` (a service
        factory or :class:`~repro.cluster.spec.ServiceSpec`); shard names,
        ring layout, tenant placement and all per-tenant streaming state
        are restored exactly, so the revived cluster routes and forecasts
        bit-identically.  ``transport`` takes the backend's options.
        """
        if not state["shards"]:
            raise ValueError("cluster state holds no shards")
        cluster = cls.__new__(cls)
        cluster._configure(replica, **transport)
        cluster._restore(state)
        return cluster

    @unguarded("constructor phase: the cluster is not visible to other threads yet")
    def _restore(self, state: dict) -> None:
        # Every shard header is checked before any shard opens (so before
        # any worker spawns), against the replicas' config where it is
        # known up front.  Shards built by a later add_shard must match
        # the restored stores' geometry, so the capacity comes from there.
        headers = {check_state_header(shard, self.config) for shard in state["shards"].values()}
        normalization = str(state["normalization"])
        if len(headers) != 1 or next(iter(headers))[0] != normalization:
            raise ValueError(
                f"shard (normalization, capacity) headers {sorted(headers)} must agree "
                f"with each other and with the cluster's normalization {normalization!r}"
            )
        ((_, capacity),) = headers
        self._init_runtime(normalization, capacity, int(state["vnodes"]))
        self.rebalances = int(state["rebalances"])
        self.tenants_migrated = int(state["tenants_migrated"])
        retired = state["retired"]
        self._retired = (ServiceStats(**retired["service"]), StoreStats(**retired["store"]))
        chain_id = state.get("chain_id")
        self._chain_id = None if chain_id is None else str(chain_id)
        self._seq = int(state.get("seq", 0))
        shard_ids = list(state["shards"])
        self._shards = self._open_shards(shard_ids, warmup=False)
        try:
            fan_out(
                self._shards,
                "restore",
                {shard_id: {"state": state["shards"][shard_id]} for shard_id in shard_ids},
            )
        except BaseException:
            for shard in self._shards.values():
                shard.close(graceful=False)
            raise
        for shard_id in shard_ids:
            self.ring.add(shard_id)

    @classmethod
    def load(cls, replica, path: str, **transport) -> "Coordinator":
        """Restore a :meth:`save` archive (a one-link chain); shards come
        back pre-warmed."""
        return cls.load_chain(replica, [path], **transport)

    @classmethod
    def load_chain(cls, replica, paths: Sequence[str], **transport) -> "Coordinator":
        """Restore a full + incremental snapshot chain, deterministically.

        Replays ``[full, delta, ...]`` through
        :func:`~repro.cluster.snapshot.resolve_chain` (validating chain id
        and sequence linkage); the revived cluster continues the same
        chain on later :meth:`save_incremental` calls.
        """
        paths = list(paths)
        cluster = cls.from_state(replica, resolve_chain(paths), **transport)
        with cluster._topology.write():
            if cluster._chain_id is not None:
                # The revived cluster can keep extending the chain (and
                # fail over) without re-writing a full base first.
                cluster._chain = paths
        cluster.warmup()
        return cluster


def _snapshot_file(path: str) -> str:
    """The actual archive file a snapshot path maps to (npz suffixing)."""
    return os.path.abspath(_npz_path(path))
