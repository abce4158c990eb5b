"""``repro.cluster`` — sharded, persistent multi-replica serving.

The streaming subsystem (:mod:`repro.streaming`) serves many tenants
through *one* model replica in *one* process; this subsystem is the step
past both limits:

* :class:`HashRing` — consistent hashing with virtual nodes: a
  deterministic (MD5-based, process-independent) tenant → shard map where
  changing the shard count reassigns only ≈ ``1/N`` of tenants;
* :class:`Coordinator` — the one cluster coordinator: routing under a
  reader/writer topology lock (topology before shard locks), live
  ``add_shard`` / ``remove_shard`` rebalancing that migrates exactly the
  tenants whose ring assignment changed, ``failover`` with an honest
  :class:`FailoverReport`, merged stats, full and O(churn) delta
  checkpoints chained under :func:`resolve_chain`, and one split-phase
  fan-out (start every shard, then collect every shard) behind
  ``forecast`` (a one-tenant sweep) / ``forecast_all`` / ``flush`` /
  ``warmup`` / checkpoint collection;
* two shard transports behind that coordinator:
  :class:`LocalShard` (an in-process
  :class:`~repro.streaming.forecaster.StreamingForecaster`, fan-outs
  inline or overlapped on a ``concurrent.futures`` pool) and
  :class:`ProcessShard` (a worker OS process behind the pickle-free wire
  codec, :mod:`repro.wire`, with retries, a circuit breaker and a census
  of acknowledged ingests that outlives a ``kill -9``);
* :class:`ShardedForecaster` / :class:`ProcessCoordinator` — the two
  public constructors, picking the shard class; :func:`build_cluster`
  picks between them from a :class:`ClusterSpec`, and
  :class:`ServiceSpec` is the replica recipe both share;
* :mod:`~repro.cluster.snapshot` — a pickle-free nested-state ↔ ``.npz``
  codec, one snapshot format for both backends, and
  :func:`compact_chain`;
* :mod:`~repro.cluster.parity` — the correctness harness: sharded,
  rebalanced, failed-over and snapshot/restored deployments must forecast
  **bit-identically** to an uninterrupted single forecaster.

See ``examples/cluster_quickstart.py`` and
``examples/cluster_process_quickstart.py`` for tours and
``benchmarks/test_cluster_scaling.py`` for throughput-vs-shards,
backend-vs-backend and rebalance-cost measurements.
"""

from ..errors import WorkerDied, WorkerStalled
from .coordinator import Coordinator, FailoverReport, Shard
from .parity import compare_cluster_to_unsharded, replay_cluster
from .process import ProcessCoordinator, ProcessShard, build_cluster
from .ring import HashRing, stable_hash
from .sharded import LocalShard, ShardedForecaster
from .snapshot import (
    compact_chain,
    decode_state,
    encode_state,
    load_forecaster,
    read_snapshot,
    resolve_chain,
    save_forecaster,
    write_snapshot,
)
from .spec import ClusterSpec, ServiceSpec, validate_cluster_timeouts

__all__ = [
    "HashRing",
    "stable_hash",
    "Coordinator",
    "Shard",
    "LocalShard",
    "ShardedForecaster",
    "FailoverReport",
    "ServiceSpec",
    "ClusterSpec",
    "validate_cluster_timeouts",
    "ProcessCoordinator",
    "ProcessShard",
    "WorkerDied",
    "WorkerStalled",
    "build_cluster",
    "encode_state",
    "decode_state",
    "write_snapshot",
    "read_snapshot",
    "resolve_chain",
    "compact_chain",
    "save_forecaster",
    "load_forecaster",
    "replay_cluster",
    "compare_cluster_to_unsharded",
]
