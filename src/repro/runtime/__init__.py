"""``repro.runtime`` — the concurrency primitives under the cluster.

Kept separate from the cluster so they stay reusable (and testable) on
their own:

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
* :class:`RetryPolicy` / :class:`CircuitBreaker` — resilience primitives
  for calls that cross a process gap: decorrelated-jitter retries with a
  deadline-capped budget, and a per-dependency breaker that fails fast
  while a worker is sick (see :mod:`repro.runtime.resilience`).

See ``ARCHITECTURE.md`` for how these compose with the per-shard locks
in the cluster layer, whose one fan-out (``fan_out``) collects inline or
on a caller-supplied :class:`concurrent.futures.Executor`.
"""

from .annotations import guarded_by, requires_lock, unguarded
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
