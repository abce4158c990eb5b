"""``repro.runtime`` — the parallel execution layer under the cluster.

PR 3's :class:`~repro.cluster.sharded.ShardedForecaster` gave the system N
model replicas but one global lock, so N shards still used one core.  This
package holds the concurrency primitives that fix that, kept separate from
the cluster so they stay reusable (and testable) on their own:

* :class:`RWLock` — writer-preferring reentrant reader/writer lock: routed
  traffic shares the topology read-side, rebalances/checkpoints take the
  exclusive write-side — with owner tracking (``assert_held`` /
  ``assert_not_held``) so lock-sensitive internals fail fast when called
  without their lock;
* :class:`TrackedRLock` / :class:`LockOrderMonitor` — named locks feeding
  a debug-mode acquisition-order graph that raises
  :class:`PotentialDeadlock` on order inversions (enable with
  :func:`enable_lock_ordering` or ``REPRO_LOCK_ORDER=1``);
* :func:`guarded_by` / :func:`requires_lock` / :func:`unguarded` — no-op
  annotations the static analyzer (``python -m repro.analysis``) enforces;
* :class:`Executor` / :class:`SerialExecutor` / :class:`PoolExecutor` —
  pluggable fan-out strategies for per-shard work (inline or thread
  pool; threads reach S cores while the work is NumPy-bound);
* :func:`map_shards` — the one fan-out idiom: ``fn(shard_id)`` per shard,
  results keyed and ordered by shard id;
* :class:`RetryPolicy` / :class:`CircuitBreaker` — resilience primitives
  for calls that cross a process gap: decorrelated-jitter retries with a
  deadline-capped budget, and a per-dependency breaker that fails fast
  while a worker is sick (see :mod:`repro.runtime.resilience`).

See ``ARCHITECTURE.md`` for how these compose with the per-shard locks in
the cluster layer, and ``benchmarks/test_parallel_scaling.py`` for the
measured speedup.
"""

from .annotations import guarded_by, requires_lock, unguarded
from .executor import Executor, PoolExecutor, SerialExecutor, map_shards
from .resilience import CircuitBreaker, RetryPolicy
from .locks import (
    LockOrderMonitor,
    PotentialDeadlock,
    RWLock,
    TrackedRLock,
    disable_lock_ordering,
    enable_lock_ordering,
    lock_order_monitor,
    lock_ordering,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "map_shards",
    "RWLock",
    "TrackedRLock",
    "LockOrderMonitor",
    "PotentialDeadlock",
    "lock_order_monitor",
    "enable_lock_ordering",
    "disable_lock_ordering",
    "lock_ordering",
    "guarded_by",
    "requires_lock",
    "unguarded",
    "CircuitBreaker",
    "RetryPolicy",
]
