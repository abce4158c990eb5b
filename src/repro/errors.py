"""Typed failure vocabulary shared across layers.

Overload protection only works end to end if every layer sheds with the
*same* typed errors: the serving admission gate, the streaming facade,
the cluster coordinator and the wire protocol all need to agree on what
"too busy" and "too late" look like, and the wire's re-raise whitelist
(:func:`repro.wire.raise_remote`) must be able to rematerialise them on
the coordinator side without importing the serving stack.  This module
is that shared vocabulary — stdlib-only, importable from anywhere
without cycles.

Base classes are chosen so existing narrow handlers keep working:

* :class:`DeadlineExceeded` *is a* ``TimeoutError`` — code that treats
  timeouts generically still catches it, but the type records that the
  budget was the *caller's*, not a transport default;
* :class:`Overloaded` *is a* ``RuntimeError`` — a capacity decision, not
  a transport failure;
* :class:`PlanUnsupported` *is a* ``RuntimeError`` — a model the compiled
  tier cannot trace, served eager instead;
* :class:`CircuitOpen`, :class:`TransientWireError`,
  :class:`EndOfStream`, :class:`WorkerDied` and :class:`WorkerStalled`
  are ``ConnectionError`` subclasses — all describe the health of a
  connection to a worker: one synthesised locally (fail-fast), one a
  retryable transport hiccup, one a stream the peer closed, one a worker
  gone for good and one a worker past its reply budget.
"""

from __future__ import annotations

__all__ = [
    "Overloaded",
    "DeadlineExceeded",
    "CircuitOpen",
    "TransientWireError",
    "EndOfStream",
    "WorkerDied",
    "WorkerStalled",
    "PlanUnsupported",
]


class Overloaded(RuntimeError):
    """Request rejected (or evicted) by admission control: queue at capacity.

    Raised on the *submitting* caller when the pending queue is full and
    the request cannot displace lower-priority work, or from a shed
    victim's ``result()`` when a higher-priority arrival evicted it.
    Typed load-shedding: the caller knows the system chose to refuse
    work, rather than hitting an opaque timeout on an unbounded queue.
    """


class DeadlineExceeded(TimeoutError):
    """The request's deadline budget expired before a forward pass ran.

    Raised at submit time for work that arrives already expired, from a
    handle's ``result()`` when the deadline lapsed while queued (the
    flush sheds dead work instead of computing it), or from an RPC whose
    retry/receive budget was capped by the caller's deadline.
    """


class CircuitOpen(ConnectionError):
    """A circuit breaker is open: the call failed fast without any I/O.

    Raised instead of talking to a worker whose breaker tripped after
    consecutive failures; carries no transport state because no transport
    was touched.  Half-open probes re-test the worker after the breaker's
    reset timeout.
    """

    def __init__(self, name: str, retry_after: float) -> None:
        super().__init__(
            f"circuit {name!r} is open (probe allowed in {retry_after:.3f}s)"
        )
        self.name = name
        self.retry_after = retry_after


class TransientWireError(ConnectionError):
    """A retryable transport hiccup: the stream itself is still usable.

    Distinct from :class:`EndOfStream` (peer gone for good):
    a transient error is raised *before* any frame bytes were consumed,
    so a retry over the same socket is sound.  The fault-injection
    harness raises it to exercise retry paths deterministically.
    """


class EndOfStream(ConnectionError):
    """The peer closed its end of the stream (process exit or crash).

    Raised by :func:`repro.wire.recv_message` when the socket reaches EOF
    mid-frame or before one: the stream cannot carry another message.
    """


class WorkerDied(ConnectionError):
    """A worker process stopped answering (crash, kill -9, or hang)."""

    def __init__(self, shard_id: str, reason: str) -> None:
        super().__init__(f"worker {shard_id!r} died: {reason}")
        self.shard_id = shard_id
        self.reason = reason


class WorkerStalled(WorkerDied):
    """A worker missed its reply budget but the stream is still intact.

    Raised instead of permanently marking the shard dead: every frame
    carries a sequence number and the worker echoes it back, so when the
    overdue reply eventually arrives it is recognised as stale and
    drained — the request/reply stream resynchronises without tearing
    the worker down.  Subclasses :class:`WorkerDied` so "this call
    failed, settle and move on" handlers keep working; the shard's
    circuit breaker is what escalates *repeated* stalls into fail-fast
    rejection.
    """


class PlanUnsupported(RuntimeError):
    """The model (or environment) cannot be traced into a plan.

    Raised during tracing only; callers fall back to eager inference.
    """
