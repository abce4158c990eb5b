"""Retry backoff and circuit breaking for calls that cross a process gap.

An RPC to a worker process can fail three ways, and each wants a
different reaction:

* **transient** (a dropped frame, an injected hiccup) — retry over the
  same stream, with jittered backoff so a thundering herd of callers
  doesn't resynchronise onto the struggling worker;
* **stalled** (no reply within budget) — fail *this* call fast, and if
  it keeps happening stop paying the timeout at all: trip a breaker and
  fail subsequent calls instantly until a probe shows recovery;
* **dead** (pipe EOF from an exited process) — no retry helps; the
  caller escalates to failover.

This module owns the first two as model-free primitives:

* :class:`RetryPolicy` — decorrelated-jitter backoff (each sleep drawn
  uniformly from ``[base, 3 * previous]``, capped), seeded so drills are
  reproducible, with the total budget capped by the caller's deadline —
  a retry loop never outlives the request it serves.
* :class:`CircuitBreaker` — the classic three-state machine: **closed**
  (healthy) → **open** after ``failure_threshold`` *consecutive*
  failures (calls fail fast with :class:`~repro.errors.CircuitOpen`,
  zero I/O) → **half-open** after ``reset_timeout`` (exactly one probe
  call goes through; success closes, failure reopens).

Both are deliberately transport-agnostic — :class:`ProcessShard` wires
them to the cluster's sockets, but nothing here knows about sockets.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional, Tuple, Type, TypeVar

from .. import obs
from ..errors import CircuitOpen, DeadlineExceeded, TransientWireError

__all__ = ["CircuitBreaker", "RetryPolicy"]

T = TypeVar("T")

_BREAKER_TRANSITIONS = obs.counter(
    "repro_resilience_breaker_transitions_total",
    "circuit breaker state transitions",
    labels=("breaker", "to"),
)


class CircuitBreaker:
    """Per-dependency failure gate: fail fast instead of paying timeouts.

    Thread-safe; every state transition is also counted in the
    ``repro_resilience_breaker_transitions_total{breaker,to}`` metric so
    a drill (or an operator) can watch trips and recoveries.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be > 0, got {reset_timeout}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    @property
    def trips(self) -> int:
        """How many times the breaker has transitioned closed/half-open → open."""
        with self._lock:
            return self._trips

    def _transition(self, to: str) -> None:
        self._state = to
        _BREAKER_TRANSITIONS.labels(breaker=self.name, to=to).inc()

    def allow(self) -> None:
        """Gate one call: pass through, or raise :class:`CircuitOpen`.

        While open, raises until ``reset_timeout`` has elapsed since the
        trip; the first caller after that is admitted as the half-open
        probe.  While half-open, further callers are rejected until the
        probe reports — one probe at a time keeps a recovering worker
        from being dogpiled.
        """
        with self._lock:
            if self._gate_locked():
                self._transition(self.HALF_OPEN)  # this caller is the probe

    def check(self) -> None:
        """Raise :class:`CircuitOpen` exactly where :meth:`allow` would,
        without admitting a half-open probe: for work that is accepted
        now and delivered by a later gated call.

        A closed breaker returns without taking the lock (one attribute
        read).  A check that races a trip may pass, which costs nothing:
        the work it admits still waits for that later gated call."""
        if self._state == self.CLOSED:
            return
        with self._lock:
            self._gate_locked()

    def _gate_locked(self) -> bool:
        """Raise if the gate is shut; True when the caller would be the probe."""
        if self._state == self.CLOSED:
            return False
        if self._state == self.OPEN:
            remaining = self._opened_at + self.reset_timeout - obs.now()
            if remaining > 0:
                raise CircuitOpen(self.name, remaining)
            return True
        # Half-open with a probe already in flight.
        raise CircuitOpen(self.name, 0.0)

    def record_success(self) -> None:
        """A gated call completed: close (probe succeeded) / stay closed."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state != self.CLOSED:
                self._transition(self.CLOSED)

    def record_failure(self) -> None:
        """A gated call failed: count toward the trip threshold, or reopen."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN:
                # The probe failed — the worker is still sick.
                self._trips += 1
                self._opened_at = obs.now()
                self._transition(self.OPEN)
            elif (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trips += 1
                self._opened_at = obs.now()
                self._transition(self.OPEN)


class RetryPolicy:
    """Decorrelated-jitter retries with a deadline-capped budget.

    ``max_attempts`` counts *total* attempts (1 = no retries).  Sleeps
    follow the decorrelated-jitter recipe: the first backoff is ``base``,
    each subsequent one is drawn uniformly from ``[base, 3 * previous]``
    and clamped to ``cap`` — jitter de-synchronises competing callers
    while the expected backoff still grows geometrically.  A ``seed``
    makes the whole sleep sequence reproducible for drills.

    When the caller passes a ``deadline`` (absolute, on the
    :func:`repro.obs.now` clock), no sleep may cross it: once the budget
    is spent the loop raises :class:`~repro.errors.DeadlineExceeded`
    (chaining the last transport error) instead of retrying past the
    point where the answer could still matter.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base: float = 0.05,
        cap: float = 2.0,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base <= 0 or cap < base:
            raise ValueError(f"need 0 < base <= cap, got base={base} cap={cap}")
        self.max_attempts = max_attempts
        self.base = base
        self.cap = cap
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def next_delay(self, previous: Optional[float]) -> float:
        """The next backoff sleep given the previous one (``None`` = first)."""
        if previous is None:
            return self.base
        with self._lock:
            return min(self.cap, self._rng.uniform(self.base, previous * 3.0))

    def run(
        self,
        fn: Callable[[], T],
        retryable: Tuple[Type[BaseException], ...] = (TransientWireError,),
        deadline: Optional[float] = None,
        on_retry: Optional[Callable[[int, float, BaseException], None]] = None,
    ) -> T:
        """Call ``fn`` until it succeeds, retries run out, or the deadline does.

        Only ``retryable`` errors are retried; everything else propagates
        on the first occurrence.  ``on_retry(attempt, delay, error)`` is
        invoked before each backoff sleep (metrics hooks live there, not
        here).
        """
        attempt = 1
        delay: Optional[float] = None
        while True:
            try:
                return fn()
            except retryable as error:
                if attempt >= self.max_attempts:
                    raise
                delay = self.next_delay(delay)
                if deadline is not None:
                    remaining = deadline - obs.now()
                    if remaining <= 0:
                        raise DeadlineExceeded(
                            f"retry budget exhausted by deadline after "
                            f"{attempt} attempt(s): {error}"
                        ) from error
                    delay = min(delay, remaining)
                if on_retry is not None:
                    on_retry(attempt, delay, error)
                time.sleep(delay)
                attempt += 1
