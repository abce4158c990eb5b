"""Reader/writer synchronisation for the parallel execution layer.

The cluster façade has two very different kinds of critical section:

* **routed traffic** (``ingest`` / ``forecast`` / the per-shard fan-outs) —
  frequent, short, and mutually compatible as long as the *topology* (ring
  layout, shard map) stays put; per-shard state is guarded by per-shard
  locks one level down;
* **topology changes** (``add_shard`` / ``remove_shard`` / ``failover`` /
  checkpoints) — rare, and incompatible with everything: a reader that
  observes a half-done rebalance routes a tenant into the void.

A single mutex (PR 3's design) serialises both kinds and caps the whole
cluster at one core.  :class:`RWLock` splits them: any number of readers
proceed concurrently, one writer excludes everyone.  The lock is

* **writer-preferring** — once a writer is waiting, *new* readers queue
  behind it, so a steady stream of traffic cannot starve a rebalance;
* **reentrant** — a thread already holding a read lock may re-enter
  ``read()`` even while a writer waits (blocking it there would deadlock),
  and a thread holding the write lock may nest both ``write()`` and
  ``read()`` sections.  Upgrading (``write()`` while holding only a read
  lock) deadlocks by construction and raises instead.

Owner tracking (:meth:`RWLock.assert_held` / :meth:`RWLock.assert_not_held`)
lets lock-sensitive internals fail fast when called without their lock,
instead of corrupting state silently — the runtime companion to the
``@requires_lock`` annotations the static analyzer checks.

Debug-mode lock-order detection (:class:`LockOrderMonitor`) builds a global
acquisition-order graph from per-thread lock stacks and raises
:class:`PotentialDeadlock` the moment two code paths disagree on ordering —
even when the interleaving that would actually deadlock never happens in
the test run.  Enable it with :func:`enable_lock_ordering` (or the
``REPRO_LOCK_ORDER=1`` environment variable, which the cluster stress
tests use in CI); it is off — a single attribute check per acquisition —
by default.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Set

from ..obs import histogram as _obs_histogram
from ..obs import metrics_enabled as _obs_metrics_enabled
from ..obs import now as _obs_now

__all__ = [
    "RWLock",
    "TrackedRLock",
    "PotentialDeadlock",
    "LockOrderMonitor",
    "lock_order_monitor",
    "enable_lock_ordering",
    "disable_lock_ordering",
    "lock_ordering",
]


# Wait time blocked on a named lock, labeled by lock name and mode
# (read / write / mutex).  Observed only on the *contended* path: an
# uncontended acquisition never reads the clock.
_LOCK_WAIT_SECONDS = _obs_histogram(
    "repro_lock_wait_seconds",
    "time spent blocked acquiring a named lock",
    labels=("lock", "mode"),
)


class PotentialDeadlock(RuntimeError):
    """Two code paths acquire the same locks in incompatible orders.

    Raised by the :class:`LockOrderMonitor` at *acquisition-order* level:
    the offending interleaving does not have to occur — one thread taking
    ``A`` then ``B`` while another (ever, anywhere) took ``B`` then ``A``
    is already a latent deadlock, and the monitor reports it on the second
    acquisition with the inverted cycle.
    """


class LockOrderMonitor:
    """Global acquisition-order graph over named locks.

    Participating locks (:class:`RWLock`, :class:`TrackedRLock`) report
    each acquisition attempt.  The monitor keeps a per-thread stack of
    held lock names; acquiring ``B`` while holding ``A`` records the edge
    ``A -> B``.  If the new edge closes a cycle (``B`` can already reach
    ``A``), :class:`PotentialDeadlock` is raised *before* the lock is
    taken, so the offending ``with`` block never runs.

    Reentrant acquisitions (the lock's name is already on the thread's
    stack) record no edges — re-entering a held lock cannot deadlock.
    Edges are keyed by lock *name*, so locks sharing a role (e.g. every
    ``shard:*`` lock under one cluster ordering class) can be given the
    same name deliberately, and unrelated subsystems distinct ones.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._mutex = threading.Lock()
        self._edges: Dict[str, Set[str]] = {}
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self) -> None:
        """Forget every recorded edge (between tests)."""
        with self._mutex:
            self._edges.clear()

    def edges(self) -> Dict[str, Set[str]]:
        """A copy of the observed order graph (``held -> then-acquired``)."""
        with self._mutex:
            return {name: set(successors) for name, successors in self._edges.items()}

    def held_by_current_thread(self) -> List[str]:
        """The current thread's lock stack, outermost first."""
        return list(self._stack())

    # ------------------------------------------------------------------ #
    def acquiring(self, name: str) -> None:
        """Record an acquisition attempt; raise on an order inversion.

        Called by participating locks *before* blocking on the physical
        lock, so a detected inversion surfaces as an exception instead of
        an actual (possibly intermittent) deadlock.
        """
        stack = self._stack()
        if name in stack:
            stack.append(name)  # reentrant: no new ordering information
            return
        held = [h for h in dict.fromkeys(stack) if h != name]
        if held:
            with self._mutex:
                for previous in held:
                    self._edges.setdefault(previous, set()).add(name)
                cycle = self._find_path(name, set(held))
                if cycle is not None:
                    raise PotentialDeadlock(
                        "lock-order inversion: acquiring "
                        f"{name!r} while holding {stack!r}, but the recorded "
                        f"order already requires {' -> '.join(cycle)} before "
                        f"{name!r}"
                    )
        stack.append(name)

    def released(self, name: str) -> None:
        """Pop the most recent acquisition of ``name`` off the thread stack."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    def _find_path(self, start: str, targets: Set[str]) -> Optional[List[str]]:
        """DFS for a path ``start -> ... -> t`` for any held ``t`` (a cycle)."""
        seen = {start}
        frontier: List[List[str]] = [[start]]
        while frontier:
            path = frontier.pop()
            for successor in self._edges.get(path[-1], ()):
                if successor in targets:
                    return path + [successor]
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(path + [successor])
        return None


_monitor = LockOrderMonitor()
if os.environ.get("REPRO_LOCK_ORDER", "").lower() in ("1", "true", "yes"):
    _monitor.enabled = True


def lock_order_monitor() -> LockOrderMonitor:
    """The process-wide lock-order monitor."""
    return _monitor


def enable_lock_ordering() -> None:
    """Turn on lock-order detection (fresh graph)."""
    _monitor.reset()
    _monitor.enabled = True


def disable_lock_ordering() -> None:
    """Turn off lock-order detection and drop the recorded graph."""
    _monitor.enabled = False
    _monitor.reset()


@contextmanager
def lock_ordering():
    """Scoped lock-order detection (the shape tests want)."""
    previously = _monitor.enabled
    enable_lock_ordering()
    try:
        yield _monitor
    finally:
        _monitor.enabled = previously
        _monitor.reset()


_anonymous = itertools.count()


class TrackedRLock:
    """A named re-entrant mutex that participates in lock-order detection.

    Drop-in for the ``threading.RLock`` uses in the cluster (context
    manager plus ``acquire``/``release``); when the monitor is disabled the
    overhead is one attribute check per acquisition.
    """

    __slots__ = ("name", "_inner")

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name if name is not None else f"rlock-{next(_anonymous)}"
        self._inner = threading.RLock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if blocking and timeout == -1:
            self.__enter__()
            return True
        if _monitor.enabled:
            _monitor.acquiring(self.name)
        acquired = self._inner.acquire(blocking, timeout)
        if not acquired and _monitor.enabled:
            _monitor.released(self.name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        if _monitor.enabled:
            _monitor.released(self.name)

    def __enter__(self) -> "TrackedRLock":
        # A blocking acquisition, which cannot fail.  Try without blocking
        # first so the uncontended path never reads the clock; only an
        # actual wait is timed.
        if _monitor.enabled:
            _monitor.acquiring(self.name)
        inner = self._inner
        if not inner.acquire(False):
            waited_from = _obs_now() if _obs_metrics_enabled() else 0.0
            inner.acquire()
            if waited_from:
                _LOCK_WAIT_SECONDS.labels(lock=self.name, mode="mutex").observe(
                    _obs_now() - waited_from
                )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._inner.release()
        if _monitor.enabled:
            _monitor.released(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TrackedRLock({self.name!r})"


class _ReadGuard:
    """The context manager :meth:`RWLock.read` returns, one per lock.

    It keeps no per-section state (that lives on the lock and in the
    calling thread's read depth), so one instance serves every reader.
    """

    __slots__ = ("_lock",)

    def __init__(self, lock: "RWLock") -> None:
        self._lock = lock

    def __enter__(self) -> "RWLock":
        lock = self._lock
        me = threading.get_ident()
        track = _monitor.enabled
        if track:
            _monitor.acquiring(lock.name)
        try:
            with lock._mutex:
                if lock._writer == me:
                    # Reading inside one's own write section: already
                    # exclusive, just extend the write hold.
                    lock._writer_depth += 1
                    return lock
                local = lock._local
                depth = getattr(local, "depth", 0)
                if depth == 0:
                    # New readers queue behind waiting writers (preference),
                    # but re-entrant readers pass — they already hold the
                    # lock, and parking them behind the writer they block
                    # would deadlock both.  The clock is read only when
                    # this reader will actually wait.
                    if lock._writer is not None or lock._waiting_writers:
                        waited_from = _obs_now() if _obs_metrics_enabled() else 0.0
                        while lock._writer is not None or lock._waiting_writers:
                            lock._cond.wait()
                        if waited_from:
                            _LOCK_WAIT_SECONDS.labels(lock=lock.name, mode="read").observe(
                                _obs_now() - waited_from
                            )
                    lock._active_readers += 1
                local.depth = depth + 1
        except BaseException:
            if track:
                _monitor.released(lock.name)
            raise
        return lock

    def __exit__(self, exc_type, exc, tb) -> None:
        lock = self._lock
        with lock._mutex:
            if lock._writer == threading.get_ident():
                # The read section nested in this thread's write section
                # (a thread holding only a read lock can never be the writer).
                lock._writer_depth -= 1
            else:
                local = lock._local
                depth = local.depth - 1
                local.depth = depth
                if depth == 0:
                    lock._active_readers -= 1
                    # Only writers wait for readers to leave; queued
                    # readers wait on writers, who notify when they go.
                    if lock._active_readers == 0 and lock._waiting_writers:
                        lock._cond.notify_all()
        if _monitor.enabled:
            _monitor.released(lock.name)


class RWLock:
    """Writer-preferring, reentrant reader/writer lock.

    Usage::

        lock = RWLock()
        with lock.read():     # shared: many readers at once
            ...
        with lock.write():    # exclusive: no readers, no other writer
            ...

    ``name`` feeds the lock-order monitor; locks playing the same role
    (e.g. every cluster's topology lock) may share one deliberately.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name if name is not None else f"rwlock-{next(_anonymous)}"
        # A plain mutex under the condition: nothing re-enters it, and a
        # Lock is cheaper to take than an RLock on every routed call.  The
        # read path takes the mutex directly (entering the condition only
        # takes it, one Python frame later); waits and notifies go through
        # the condition with the mutex held.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._active_readers = 0      # threads currently inside read()
        self._waiting_writers = 0     # threads blocked entering write()
        self._writer: int | None = None   # ident of the thread holding write
        self._writer_depth = 0
        self._local = threading.local()   # per-thread read re-entrancy depth
        self._read_guard = _ReadGuard(self)

    def _read_depth(self) -> int:
        return getattr(self._local, "depth", 0)

    # ------------------------------------------------------------------ #
    # Owner tracking — the runtime side of @requires_lock annotations.
    # ------------------------------------------------------------------ #
    def held_write(self) -> bool:
        """Whether the calling thread holds the exclusive write side."""
        return self._writer == threading.get_ident()

    def held_read(self) -> bool:
        """Whether the calling thread holds a read section (or the write
        side, which is strictly stronger)."""
        return self._read_depth() > 0 or self.held_write()

    def assert_held(self, mode: str = "any") -> None:
        """Fail fast when the calling thread does not hold the lock.

        ``mode``: ``"write"`` requires the exclusive side, ``"read"``
        accepts a read section (or the write side, which subsumes it),
        ``"any"`` accepts either.  Lock-sensitive internals call this at
        entry so a caller that forgot the lock raises here, deterministic
        and attributable, instead of corrupting state on some interleaving.
        """
        if mode not in ("any", "read", "write"):
            raise ValueError(f"unknown mode {mode!r}; use 'any', 'read' or 'write'")
        if mode == "write":
            satisfied = self.held_write()
        elif mode == "read":
            satisfied = self.held_read()
        else:
            satisfied = self.held_read() or self.held_write()
        if not satisfied:
            raise RuntimeError(
                f"lock {self.name!r} must be held ({mode}) by the calling "
                "thread; this method is internal to a locked section"
            )

    def assert_not_held(self) -> None:
        """Fail fast when the calling thread *does* hold the lock.

        Guards entry points that acquire the lock in a non-reentrant
        pattern (e.g. an upgrade-prone helper) against self-deadlock.
        """
        if self.held_read() or self.held_write():
            raise RuntimeError(
                f"lock {self.name!r} is already held by the calling thread"
            )

    # ------------------------------------------------------------------ #
    def read(self) -> "_ReadGuard":
        """Shared access; blocks while a writer holds or waits for the lock.

        Returns the lock's one reusable guard (``with lock.read():``): all
        per-section state lives on the lock and the calling thread, so a
        routed call pays no generator or context-manager allocation.
        """
        return self._read_guard

    @contextmanager
    def write(self):
        """Exclusive access; reentrant for the thread already writing."""
        me = threading.get_ident()
        track = _monitor.enabled
        if track:
            _monitor.acquiring(self.name)
        try:
            with self._cond:
                if self._writer == me:
                    self._writer_depth += 1
                else:
                    if self._read_depth():
                        raise RuntimeError(
                            "cannot upgrade a read lock to a write lock "
                            "(release the read section first)"
                        )
                    self._waiting_writers += 1
                    waited_from = 0.0
                    if (
                        self._writer is not None or self._active_readers
                    ) and _obs_metrics_enabled():
                        waited_from = _obs_now()
                    try:
                        while self._writer is not None or self._active_readers:
                            self._cond.wait()
                    except BaseException:
                        # Readers queued behind this writer may go now.
                        self._cond.notify_all()
                        raise
                    finally:
                        self._waiting_writers -= 1
                    if waited_from:
                        _LOCK_WAIT_SECONDS.labels(lock=self.name, mode="write").observe(
                            _obs_now() - waited_from
                        )
                    self._writer = me
                    self._writer_depth = 1
        except BaseException:
            if track:
                _monitor.released(self.name)
            raise
        try:
            yield self
        finally:
            with self._cond:
                self._writer_depth -= 1
                if self._writer_depth == 0:
                    self._writer = None
                    self._cond.notify_all()
            if track:
                _monitor.released(self.name)
