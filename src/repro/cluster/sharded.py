"""Thread-backed cluster: shards as in-process streaming stacks.

:class:`LocalShard` is the in-process shard transport: it wraps one
:class:`~repro.streaming.forecaster.StreamingForecaster` (its own
:class:`~repro.serving.service.ForecastService` replica and slab store,
rings and rolling moments per tenant) plus the shard's lock, and calls
them directly.
:class:`ShardedForecaster` is the :class:`~repro.cluster.coordinator.Coordinator`
over local shards; routing, rebalancing, failover and persistence all
live in the coordinator.

Fan-outs (``forecast_all`` / ``flush`` / checkpoint collection) do their
per-shard work in :meth:`LocalShard.collect`, which
:func:`~repro.cluster.coordinator.fan_out` runs inline or on the
cluster's ``executor`` — with a :class:`concurrent.futures.ThreadPoolExecutor`
of S workers, S shards use S cores (forward passes are NumPy-bound and
release the GIL in BLAS).

The shard services are expected to be *replicas*: ``service_factory`` must
build services around models with identical weights (model construction is
deterministic from ``config.seed``, so a plain
``lambda: ForecastService(LiPFormer(config))`` qualifies, as does a
:class:`~repro.cluster.spec.ServiceSpec`).
"""

from __future__ import annotations

from concurrent.futures import Executor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..runtime.locks import TrackedRLock
from ..serving.service import ForecastService
from ..streaming.forecaster import StreamingForecaster
from .coordinator import Coordinator, Stats
from .spec import ClusterSpec

__all__ = ["LocalShard", "ShardedForecaster"]

_SHARD_FORECAST_SECONDS = obs.histogram(
    "repro_cluster_shard_forecast_seconds",
    "per-shard submit+flush time inside one forecast_all fan-out",
    labels=("shard",),
)


class LocalShard:
    """An in-process shard: a :class:`StreamingForecaster` behind its lock.

    Every call goes straight to the forecaster.  The split-phase pair
    records the operation in :meth:`start` and runs it in :meth:`collect`,
    so the fan-out decides which thread does the work; an op other
    than ``forecast_all`` and ``flush`` is the method of that name.  A
    process shard's worker (:mod:`repro.cluster.worker`) hosts one too and
    serves its control-plane commands through the same methods.
    """

    def __init__(self, shard_id: str, forecaster: StreamingForecaster) -> None:
        self.shard_id = shard_id
        self.forecaster = forecaster
        self.lock = TrackedRLock(f"shard:{shard_id}")
        self._job: Optional[Tuple[str, dict]] = None

    # routed
    def ingest(self, tenant: str, values: np.ndarray, timestamp) -> int:
        """One store call and no shard lock: the store lock orders the
        append against a gather, and the coordinator's topology read
        guard excludes migrations and :meth:`restore`."""
        return self.forecaster.ingest(tenant, values, timestamp=timestamp)

    def drop(self, tenant: str) -> None:
        self.forecaster.drop(tenant)

    # control plane
    def tenants(self) -> List[str]:
        return self.forecaster.store.tenants()

    def census(self) -> Dict[str, Tuple[int, int]]:
        store = self.forecaster.store
        return {
            tenant: (store.observed(tenant), store.generation(tenant))
            for tenant in store.tenants()
        }

    def export_tenant(self, tenant: str) -> dict:
        return self.forecaster.export_tenant(tenant)

    def import_tenant(self, tenant: str, payload: dict) -> None:
        self.forecaster.import_tenant(tenant, payload)

    def stats(self) -> Stats:
        return self.forecaster.service.stats_snapshot(), self.forecaster.store.stats_snapshot()

    def reset_stats(self) -> None:
        self.forecaster.service.reset_stats()

    def warmup(self) -> int:
        return self.forecaster.warmup()

    def to_state(self, delta: bool) -> dict:
        return self.forecaster.to_state(delta=delta)

    def clear_dirty(self) -> None:
        self.forecaster.clear_dirty()

    def restore(self, state: dict) -> None:
        """Replace the streaming state, keeping the already-built replica."""
        self.forecaster = StreamingForecaster.from_state(self.forecaster.service, state)

    def close(self, graceful: bool = True) -> None:
        """Nothing to release: a retired replica is garbage once unreferenced."""

    # split phase
    def start(self, op: str, **fields) -> None:
        self._job = (op, fields)

    def collect(self):
        op, fields = self._job
        self._job = None
        if op == "forecast_all":
            return self._forecast_all(**fields)
        if op == "flush":
            return self.forecaster.flush()
        return getattr(self, op)(**fields)

    def _forecast_all(self, **fields):
        # The fan-out carried the cluster.forecast_all span onto this
        # (possibly pool-worker) thread, so this span nests under it.
        with obs.span("shard.forecast", shard=self.shard_id, tenants=len(fields["tenants"])):
            started = obs.now() if obs.metrics_enabled() else 0.0
            handles = self.forecaster.forecast_all(**fields)
            if started:
                _SHARD_FORECAST_SECONDS.labels(shard=self.shard_id).observe(obs.now() - started)
        return handles


class ShardedForecaster(Coordinator):
    """Consistent-hash cluster whose shards live in this process.

    Parameters
    ----------
    service_factory:
        zero-argument callable building one :class:`ForecastService` per
        shard; replicas must share weights and configuration.
    executor:
        a :class:`concurrent.futures.Executor` for per-shard fan-out work.
        ``None`` (the default) runs it inline on the calling thread; a
        ``ThreadPoolExecutor(S)`` drives S shards on S cores.  The caller
        owns the pool and shuts it down.
    knobs:
        :class:`~repro.cluster.spec.ClusterSpec` fields (``n_shards``,
        ``normalization``, ``window_capacity``, ``vnodes``), with its
        defaults and its validation.
    """

    BACKEND = "thread"

    def __init__(
        self,
        service_factory: Callable[[], ForecastService],
        *,
        executor: Optional[Executor] = None,
        **knobs,
    ) -> None:
        self._configure(service_factory, executor)
        self._start(ClusterSpec(backend="thread", **knobs))

    def _configure(
        self,
        service_factory: Callable[[], ForecastService],
        executor: Optional[Executor] = None,
    ) -> None:
        self.service_factory = service_factory
        self.executor = executor

    def _start(self, cluster: ClusterSpec, warmup: bool = True) -> None:
        # A new cluster's replicas trace their plans lazily: on the first
        # sweep, or on warmup().
        super()._start(cluster, warmup=False)

    def _open_shards(
        self, shard_ids: Sequence[str], warmup: bool, service: Optional[ForecastService] = None
    ) -> Dict[str, LocalShard]:
        shards = {}
        for shard_id in shard_ids:
            replica = self.service_factory() if service is None else service
            self._check_replica(replica)
            forecaster = StreamingForecaster(
                replica, normalization=self.normalization, window_capacity=self.window_capacity
            )
            if warmup:
                forecaster.warmup()
            shards[shard_id] = LocalShard(shard_id, forecaster)
        return shards

    def shard(self, shard_id: str) -> StreamingForecaster:
        """The shard's underlying streaming forecaster."""
        with self._topology.read():
            return self._require_shard(shard_id).forecaster

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
