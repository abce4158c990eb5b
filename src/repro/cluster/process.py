"""Process-backed cluster: shards as OS processes behind the wire codec.

Thread-backed shards escape the GIL only inside BLAS — the compiled-plan
replay loop, window assembly and normalisation all serialise on one
interpreter.  :class:`ProcessCoordinator` removes that ceiling: each shard
is a :class:`ProcessShard` — a real OS process running a full streaming
stack (:mod:`repro.cluster.worker`) behind a length-prefixed, pickle-free
message protocol (:mod:`repro.wire`) over a socketpair.  The coordinator
itself is the shared :class:`~repro.cluster.coordinator.Coordinator`; its
split-phase fan-out sends every shard its frame *before* collecting any
reply, so N shards compute on N cores with zero coordinator threads.

What is genuinely different about real processes:

* **Replicas are specs, not closures.**  A ``service_factory`` cannot
  cross a process boundary without pickling it; a
  :class:`~repro.cluster.spec.ServiceSpec` is plain data, and replica
  weight parity falls out of seeded model construction.
* **Death is a signal, not a simulation.**  A ``kill -9``'d worker is
  detected by pipe-EOF / heartbeat timeout (:meth:`detect_failures`,
  :class:`~repro.errors.WorkerDied`), never by a hang.
* **A round trip per row would dominate.**  Ingest is write-behind:
  :class:`ProcessShard` validates and buffers rows, and every frame to
  the worker carries them ahead of its command as one columnar batch,
  so a tick of ingests plus a sweep is one frame per worker.
* **The dead shard's memory is actually gone.**  Each
  :class:`ProcessShard` therefore keeps a per-tenant **census** —
  (observed rows, generation), buffered rows included, confirmed by
  every ack — which survives the worker and keeps failover accounting
  exact.
* **Serving counters die with the replica.**  Stats polled from workers
  are cached per shard; at failover the last-polled snapshot folds into
  the retired record.
* **Spans cross the boundary explicitly.**  When tracing is on, each
  request carries a trace flag; the worker returns its span subtree and
  the shard grafts it under the live span via
  :func:`repro.obs.import_spans`, rebased onto the local clock.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
from concurrent.futures import Executor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs, wire
from ..errors import (
    CircuitOpen,
    DeadlineExceeded,
    EndOfStream,
    TransientWireError,
    WorkerDied,
    WorkerStalled,
)
from ..runtime.annotations import guarded_by, requires_lock
from ..runtime.locks import TrackedRLock
from ..runtime.resilience import CircuitBreaker, RetryPolicy
from ..serving.batching import Forecast, ForecastRows
from ..serving.service import ServiceStats
from ..streaming.forecaster import _per_row, payload_census, state_tenants
from ..streaming.store import StoreStats, check_timestamp_order
from ..testing import faults as _faults
from .coordinator import Coordinator, Stats, fan_out, merge_stats
from .sharded import ShardedForecaster
from .spec import ClusterSpec, ServiceSpec

__all__ = [
    "ProcessShard",
    "ProcessCoordinator",
    "WorkerDied",
    "WorkerStalled",
    "build_cluster",
]

_SHARD_RETRIES = obs.counter(
    "repro_cluster_shard_retries_total",
    "transient-fault retries per process shard",
    labels=("shard",),
)

#: write-behind cap: once a shard holds this many buffered rows, the
#: ingest that reached it ships them on a frame of their own instead of
#: waiting for the next command
BUFFER_ROWS = 4096


@guarded_by(
    "_buffer", "_buffered_rows", "_in_flight", "_census", "_watermarks", "_tombstones",
    "_blocks", "_shed_expired", lock="lock",
)
class ProcessShard:
    """One worker process plus its request/reply socket.

    The protocol is strictly one reply per request, which is what makes
    the coordinator's send-all-then-collect fan-out safe without any
    coordinator-side threading: between a shard's ``send`` and its
    ``receive`` the worker is computing while the coordinator talks to
    other shards.  The socket is only touched under ``lock``:
    :meth:`request` takes it, and a fan-out holds it from ``start`` to
    ``collect``.

    Ingest is **write-behind**: :meth:`ingest` validates rows against
    what the worker would accept and buffers them, and every frame
    :meth:`send` writes carries the buffer ahead of its command, so the
    worker applies the rows first.  A tick of ingests plus one sweep is
    one frame per worker.  Rows leave the buffer only once their frame
    is written, so a send that never happened (transient fault, open
    breaker) leaves them for the next frame; they are lost only with the
    worker, and the census (which counts them) reports that at failover.

    Failure handling is graduated:

    * **EOF / reset** — the process is gone; the shard is marked dead
      permanently and every later call raises :class:`WorkerDied`.
    * **Reply timeout** — :class:`WorkerStalled`: the stream survives.
      Frames are sequence-stamped and echoed, so a late reply is drained
      as stale on the next receive instead of being mis-delivered.
    * **Transient wire hiccups** — retried under the shard's
      :class:`~repro.runtime.RetryPolicy`, by :meth:`request` and by both
      fan-out legs (a failed send never reached the worker, a failed
      receive never consumed the reply, so neither retry can
      double-execute a command).
    * **Repeated failures** — the shard's
      :class:`~repro.runtime.CircuitBreaker` trips and subsequent sends
      fail fast with :class:`~repro.errors.CircuitOpen` (zero I/O) until
      a half-open probe succeeds.
    """

    def __init__(
        self,
        shard_id: str,
        n_channels: int,
        request_timeout: float,
        retry: RetryPolicy,
        breaker: CircuitBreaker,
    ) -> None:
        self.shard_id = shard_id
        self.n_channels = n_channels
        self.request_timeout = request_timeout
        self.retry = retry
        self.breaker = breaker
        self.lock = TrackedRLock(f"shard:{shard_id}")
        self._sock, self.process = wire.spawn_worker("repro.cluster.worker")
        self._dead: Optional[str] = None
        self._closed = False
        self._sent_parent: Optional[int] = None
        self._sent_at = 0.0
        self._seq_ids = itertools.count(1)
        self._pending_seq: Optional[int] = None
        # Accepted rows no frame has carried yet: (tenant, [T, C] float32
        # rows, timestamp) per ingest() call, in arrival order.
        self._buffer: List[Tuple[str, np.ndarray, object]] = []
        self._buffered_rows = 0
        # Tenants of the batch the last written frame carried, aligned with
        # the census acks its reply brings back.
        self._in_flight: List[str] = []
        # tenant -> (observed rows, generation), buffered rows included.
        # Projected at ingest and confirmed by every ack; after a kill -9
        # the worker's store is unreadable, and this is what failover reads.
        self._census: Dict[str, Tuple[int, int]] = {}
        # What the worker's store would check a new row against: the last
        # accepted timestamp per tenant, and the generation a dropped key
        # comes back with.
        self._watermarks: Dict[str, object] = {}
        self._tombstones: Dict[str, int] = {}
        # Sweep blocks awaiting their values, keyed by the seq stamp of the
        # frame that carried them: (tenants, rows) per block.
        self._blocks: Dict[int, Tuple[List[str], ForecastRows]] = {}
        # Last stats poll: the fold-in source when the worker dies, and
        # what the coordinator's registry views read.
        self.last_stats: Stats = (ServiceStats(), StoreStats())
        # Sweep rows shed here because their deadline had passed before
        # dispatch: the worker never sees them, so stats() adds them to
        # its shed_expired, as the thread backend's service counts them.
        self._shed_expired = 0
        # The fan-out leg in flight: (op, sweep seq, sweep handles or op fields,
        # deadline); op is None when start() already settled it unsent.
        self._leg: Tuple[Optional[str], Optional[int], Optional[dict], Optional[float]] = (
            None, None, None, None
        )

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        """Process running and stream not yet marked dead."""
        return self._dead is None and self.process.poll() is None

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    @requires_lock("lock")
    def send(self, command: str, seq: Optional[int] = None, **fields) -> None:
        """Write one sequence-stamped request frame (no reply collected yet).

        The frame carries every buffered row ahead of the command.  Gated
        by the shard's circuit breaker: while the breaker is open this
        raises :class:`~repro.errors.CircuitOpen` with zero I/O.  A sweep
        passes the ``seq`` stamp it keyed its block by.
        """
        if self._dead is not None:
            raise WorkerDied(self.shard_id, self._dead)
        self.breaker.allow()
        if _faults._STATE.schedule is not None:
            _faults.check("shard.send", shard=self.shard_id, cmd=command)
        message = dict(fields)
        message["cmd"] = command
        if seq is None:
            seq = next(self._seq_ids)
        message["seq"] = seq
        if self._buffer:
            message["rows"] = self._batch()
        if obs.tracing_enabled():
            message["trace"] = True
            parent = obs.current_span()
            self._sent_parent = parent.span_id if parent is not None else None
            self._sent_at = obs.now()
        try:
            wire.send_message(self._sock, message)
        except TransientWireError:
            # Pre-write hiccup: nothing reached the worker, so a retry of
            # this send is sound, no reply is pending and the rows stay.
            raise
        except TimeoutError:
            self.breaker.record_failure()
            self._mark_dead(f"send timed out ({command})")
        except (ConnectionError, OSError) as error:
            self.breaker.record_failure()
            self._mark_dead(f"send failed ({command}): {error}")
        self._pending_seq = seq
        self._in_flight = [entry[0] for entry in self._buffer]
        self._buffer = []
        self._buffered_rows = 0

    @requires_lock("lock")
    def _batch(self) -> dict:
        """The buffer as one columnar batch (the worker's ``ingest_many``)."""
        buffer = self._buffer
        timestamps = [entry[2] for entry in buffer]
        return {
            "tenants": [entry[0] for entry in buffer],
            "counts": np.array([len(entry[1]) for entry in buffer], dtype=np.int64),
            "values": np.concatenate([entry[1] for entry in buffer]),
            "timestamps": None if all(t is None for t in timestamps) else timestamps,
        }

    @requires_lock("lock")
    def receive(self, timeout: Optional[float] = None) -> dict:
        """Collect the pending reply frame; re-raises worker errors typed.

        Replies whose echoed ``seq`` predates the pending request are
        stale remnants of a timed-out call — drained and discarded, which
        is what lets a stalled shard resynchronise instead of staying
        dead forever.  A reply's census acks (one per row entry its frame
        carried) refresh the census before any error is raised.
        """
        if self._dead is not None:
            raise WorkerDied(self.shard_id, self._dead)
        if _faults._STATE.schedule is not None:
            _faults.check("shard.recv", shard=self.shard_id)
        budget = self.request_timeout if timeout is None else timeout
        deadline = obs.now() + budget
        while True:
            remaining = deadline - obs.now()
            if remaining <= 0:
                self.breaker.record_failure()
                raise WorkerStalled(self.shard_id, f"no reply within {budget:.1f}s")
            try:
                reply = wire.recv_message(self._sock, timeout=remaining)
            except EndOfStream:
                self.breaker.record_failure()
                self._mark_dead("pipe EOF (worker process exited)")
            except TransientWireError:
                # Pre-read hiccup: the reply is still in the pipe, so the
                # caller may simply receive again.
                raise
            except TimeoutError:
                self.breaker.record_failure()
                raise WorkerStalled(self.shard_id, f"no reply within {budget:.1f}s")
            except (ConnectionError, OSError) as error:
                self.breaker.record_failure()
                self._mark_dead(f"receive failed: {error}")
            reply_seq = reply.get("seq") if isinstance(reply, dict) else None
            if (
                self._pending_seq is not None
                and reply_seq is not None
                and reply_seq != self._pending_seq
            ):
                continue  # stale reply of a stalled earlier request — drain it
            break
        self._pending_seq = None
        acks = reply.pop("acks", None)
        if acks is not None:
            census = self._census
            for tenant, observed, generation in zip(
                self._in_flight, acks["observed"].tolist(), acks["generation"].tolist()
            ):
                census[tenant] = (observed, generation)
        spans = reply.pop("spans", None)
        if spans:
            rebase = 0.0
            for record in spans:
                if record.get("parent_id") is None:
                    rebase = self._sent_at - float(record.get("start", 0.0))
                    break
            obs.import_spans(spans, parent_id=self._sent_parent, rebase=rebase)
        self.breaker.record_success()
        if "error" in reply:
            wire.raise_remote(reply["error"])
        return reply

    def _retrying(self, call, deadline: Optional[float] = None):
        """``call()`` with transient faults retried under the shard's policy;
        ``deadline`` caps the whole retry budget."""
        return self.retry.run(call, deadline=deadline, on_retry=self._count_retry)

    def request(
        self,
        command: str,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        **fields,
    ) -> dict:
        """One full round trip, with send and receive retried independently."""
        with self.lock:
            self._retrying(lambda: self.send(command, **fields), deadline)
            return self._retrying(lambda: self.receive(timeout=timeout), deadline)

    def _count_retry(self, attempt: int, delay: float, error: BaseException) -> None:
        _SHARD_RETRIES.labels(shard=self.shard_id).inc()

    def _mark_dead(self, reason: str) -> None:
        self._dead = reason
        raise WorkerDied(self.shard_id, reason)

    # ------------------------------------------------------------------ #
    # Routed traffic
    # ------------------------------------------------------------------ #
    def ingest(self, tenant: str, values: np.ndarray, timestamp) -> int:
        """Accept rows into the write-behind buffer; returns the tenant's
        total observed rows, buffered ones included.

        Everything the worker's store would reject is rejected here, with
        the thread backend's exception types, before the row is buffered:
        the shape against the replica's channel count, and the timestamp
        against the tenant's watermark.  A timestamp the wire codec cannot
        encode raises ``TypeError`` now rather than failing a later frame.
        A worker already marked dead or reaped (:meth:`kill`,
        :meth:`alive`, :meth:`close`) raises :class:`WorkerDied`, and an
        open breaker :class:`~repro.errors.CircuitOpen` (without taking
        the half-open probe, which belongs to the frame that will carry
        the row).  Ingest makes no syscall: a death nobody has observed
        yet accepts the row like any buffered one, the next frame finds
        the death, and the census reports the row at failover.
        """
        with self.lock:
            if self._dead is None and self.process.returncode is not None:
                self._dead = "worker process exited"
            if self._dead is not None:
                raise WorkerDied(self.shard_id, self._dead)
            self.breaker.check()
            # A copy: the caller may reuse its array before the frame goes out.
            values = np.array(values, dtype=np.float32)
            if values.ndim == 1:
                values = values[None, :]
            if values.ndim != 2 or values.shape[1] != self.n_channels:
                raise ValueError(f"expected [T, {self.n_channels}] rows, got shape {values.shape}")
            entry = self._census.get(tenant)
            if entry is None and not len(values):
                return 0  # as in the store: zero rows create no tenant
            if timestamp is not None:
                wire.encode_state(timestamp)
                check_timestamp_order(tenant, timestamp, self._watermarks.get(tenant))
                self._watermarks[tenant] = timestamp
            if entry is None:
                entry = (0, self._tombstones.pop(tenant, 0))
            total = entry[0] + len(values)
            self._census[tenant] = (total, entry[1])
            self._buffer.append((tenant, values, timestamp))
            self._buffered_rows += len(values)
            if self._buffered_rows >= BUFFER_ROWS:
                try:
                    self.request("ping")
                except (ConnectionError, ValueError):
                    # The row is accepted either way: an unsent frame (a
                    # corrupt one included) left it buffered for the next
                    # one, and a dead worker's census reports it at failover.
                    pass
            return total

    def drop(self, tenant: str) -> None:
        with self.lock:
            self.request("drop", tenant=tenant)
            self._watermarks.pop(tenant, None)
            entry = self._census.pop(tenant, None)
            if entry is not None:
                self._tombstones[tenant] = entry[1] + 1

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #
    def tenants(self) -> List[str]:
        with self.lock:
            return list(self._census)

    def census(self) -> Dict[str, Tuple[int, int]]:
        with self.lock:
            return dict(self._census)

    def export_tenant(self, tenant: str) -> dict:
        return self.request("export_tenant", tenant=tenant)["result"]

    def import_tenant(self, tenant: str, payload: dict) -> None:
        with self.lock:
            self.request("import_tenant", tenant=tenant, payload=payload)
            self._adopt(tenant, payload)

    @requires_lock("lock")
    def _adopt(self, tenant: str, payload: dict) -> None:
        """Mirror a tenant the worker adopted from ``payload``: its rows,
        generation and the watermark new rows must follow."""
        self._census[tenant] = payload_census(payload)
        watermark = payload["series"].get("last_timestamp")
        if watermark is not None:
            self._watermarks[tenant] = watermark

    def stats(self) -> Stats:
        """Poll the worker's counters; a sick worker contributes its last
        polled snapshot instead, so stats reads keep working during an
        incident (counters accrued after that poll died with it)."""
        with self.lock:
            try:
                reply = self.request("stats")
            except (WorkerDied, CircuitOpen):
                return self.last_stats
            service, store = reply["result"]
            service = ServiceStats(**service)
            service.shed_expired += self._shed_expired
            self.last_stats = (service, StoreStats(**store))
            return self.last_stats

    def reset_stats(self) -> None:
        with self.lock:
            self.request("reset_stats")
            self._shed_expired = 0

    # ------------------------------------------------------------------ #
    # Split-phase fan-out legs
    # ------------------------------------------------------------------ #
    @requires_lock("lock")
    def start(self, op: str, **fields) -> None:
        """Send this shard's frame of a fan-out; :meth:`collect` reads the reply."""
        if op == "forecast_all":
            self._start_sweep(**fields)
            return
        self._leg = (op, None, fields, None)
        try:
            self._retrying(lambda: self.send(op, **fields))
        except WorkerDied as error:
            self._fail_pending(str(error))
            raise

    @requires_lock("lock")
    def _start_sweep(
        self, tenants, flush, future_numerical, future_categorical, priority, deadline, skip_missing
    ) -> None:
        if skip_missing:
            # The census is exact under the shard lock (buffered tenants
            # included: their rows ride this frame ahead of the sweep), so
            # a tenant dropped since the caller enumerated it drops out,
            # as does one that holds no rows.
            tenants = [tenant for tenant in tenants if self._census.get(tenant, (0,))[0]]
        budget = None if deadline is None else deadline - obs.now()
        # The frame's seq keys its block, here and in the worker; a
        # retried send reuses it (a failed attempt never reached the worker).
        seq = next(self._seq_ids)
        rows = ForecastRows(self.resolve_pending, len(tenants))
        if tenants:
            self._blocks[seq] = (tenants, rows)
        handles = {tenant: Forecast(rows, index) for index, tenant in enumerate(tenants)}
        frame = {
            "tenants": tenants,
            "fn": _per_row(future_numerical, tenants),
            "fc": _per_row(future_categorical, tenants),
            "priority": priority,
            "budget": budget,
            "flush": flush,
        }
        self._leg = (None, None, handles, deadline)
        if budget is not None and budget <= 0:
            # The deadline burned before this frame went out: shed
            # locally, typed, without any wire I/O.
            self._shed_expired += len(tenants)
            self._fail_pending(
                "fan-out deadline exhausted before dispatch", "DeadlineExceeded", seq,
                refused=True,
            )
            return
        try:
            self._retrying(lambda: self.send("forecast_many", seq=seq, **frame), deadline)
        except CircuitOpen as error:
            if deadline is None:
                self._fail_pending(str(error), only=seq)
                raise
            # Under a deadline a tripped breaker is typed load-shedding:
            # this shard's handles fail Overloaded, the fan-out proceeds.
            self._fail_pending(str(error), "Overloaded", seq, refused=True)
            return
        except DeadlineExceeded as error:
            self._fail_pending(str(error), "DeadlineExceeded", seq, refused=True)
            return
        except WorkerDied as error:
            self._fail_pending(str(error))
            raise
        except Exception as error:
            # The frame never went out (e.g. exhausted transients): no
            # reply will ever resolve this sweep's handles.
            self._fail_pending(str(error), type(error).__name__, seq)
            raise
        self._leg = ("forecast_all", seq, handles, deadline)

    @requires_lock("lock")
    def collect(self):
        """Receive this shard's reply (transients retried) and apply it.

        In a deadline-bounded sweep, a stalled worker's handles fail
        :class:`~repro.errors.DeadlineExceeded` instead of raising, so the
        healthy shards' results still return; the late reply drains as
        stale on the next receive.
        """
        op, seq, carried, deadline = self._leg
        self._leg = (None, None, None, None)
        if op is None:
            return carried
        budget = None
        if deadline is not None:
            # Floor at a drain epsilon: replies a healthy worker already
            # computed should resolve even when a slow sibling spent the
            # deadline.
            budget = min(self.request_timeout, max(deadline - obs.now(), 0.05))
        try:
            reply = self._retrying(lambda: self.receive(timeout=budget), deadline)
        except (WorkerDied, DeadlineExceeded, TransientWireError) as error:
            # The reply went unread (it drains as stale later) or the
            # worker is gone: pending results it would have carried are lost.
            shed = isinstance(error, (WorkerStalled, DeadlineExceeded)) and deadline is not None
            if op in ("flush", "forecast_all") or self._dead is not None:
                self._fail_pending(str(error), "DeadlineExceeded" if shed else "RuntimeError")
            if shed and op == "forecast_all":
                return carried
            raise
        except Exception as error:
            # A command error: nothing of this sweep was queued.
            if seq is not None:
                self._fail_pending(str(error), type(error).__name__, seq)
            raise
        if op == "forecast_all":
            self._apply(reply)
            return carried
        if op == "flush":
            return self._apply(reply)
        if op == "restore":
            # The restored store's census and watermarks replace the old
            # ones; tombstones are in-memory only and do not survive.
            self._census, self._watermarks, self._tombstones = {}, {}, {}
            for tenant, payload in state_tenants(carried["state"]).items():
                self._adopt(tenant, payload)
        return reply.get("result")

    @requires_lock("lock")
    def _apply(self, reply: dict) -> int:
        """Settle pending blocks from a flush reply; returns the count.

        Errors come keyed by ``(seq, row)``, and values as one
        ``[N, horizon, channels]`` array per settled block, which lands
        in that block with one slice assignment.  A block this shard
        already failed (the late block of a stalled frame) is no longer
        pending, and its part of the reply is ignored.
        """
        blocks = self._blocks
        for seq, row, payload in reply["errors"]:
            pending = blocks.get(seq)
            if pending is not None:
                rows = pending[1]
                rows._fail(row, 1, wire.remote_error(payload), bool(payload.get("refused")))
                if rows.all_done():
                    del blocks[seq]
        for seq, values in zip(reply["seqs"], reply["values"]):
            pending = blocks.pop(seq, None)
            if pending is not None:
                pending[1]._resolve(0, values)
        return int(reply["flushed"])

    @requires_lock("lock")
    def _fail_pending(
        self, reason: str, error_type: str = "RuntimeError", only: Optional[int] = None,
        refused: bool = False,
    ) -> None:
        """Fail the unsettled rows of every pending block (or of block
        ``only``) with a typed error; ``refused`` marks a shed at dispatch
        (the handles' ``admission_error``)."""
        verb = {
            "DeadlineExceeded": "missed its deadline",
            "Overloaded": "shed its queue",
            "RuntimeError": "died",
        }.get(error_type, "failed")
        if only is None:
            victims, self._blocks = list(self._blocks.values()), {}
        else:
            victim = self._blocks.pop(only, None)
            victims = [] if victim is None else [victim]
        for tenants, rows in victims:
            for index, tenant in enumerate(tenants):
                if not rows.done(index):
                    message = (
                        f"shard {self.shard_id!r} {verb} before the forecast for "
                        f"{tenant!r} resolved: {reason}"
                    )
                    error = wire.remote_error({"type": error_type, "message": message})
                    rows._fail(index, 1, error, refused)

    def resolve_pending(self) -> None:
        """Flush the worker so pending handles resolve (``result()`` pulls this)."""
        with self.lock:
            if not self._closed:
                self.start("flush")
                self.collect()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def kill(self) -> None:
        """SIGKILL the worker — the crash-drill primitive — and reap it."""
        if self.process.poll() is None:
            os.kill(self.process.pid, signal.SIGKILL)
        self.process.wait()

    def close(self, graceful: bool = True) -> None:
        """Tear the worker down: polite shutdown, then reap, then release.

        Still-pending handles fail typed.  Closing the socket alone
        already terminates a healthy worker (its recv loop exits on EOF);
        SIGTERM/SIGKILL only back that up, and ``wait`` always runs so no
        zombie outlives the shard.
        """
        with self.lock:
            self._closed = True
            self._fail_pending("worker shut down")
            if graceful and self._dead is None and self.process.poll() is None:
                try:
                    self.send("shutdown")
                    self.receive(timeout=5.0)
                except (WorkerDied, CircuitOpen, TransientWireError, ValueError):
                    pass  # already gone, breaker open, or stream garbage — reaped below
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            if self.process.poll() is None:
                self.process.terminate()
                try:
                    self.process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                    self.process.kill()
            self.process.wait()


class ProcessCoordinator(Coordinator):
    """Consistent-hash cluster whose shards are worker processes.

    Parameters
    ----------
    spec:
        the :class:`~repro.cluster.spec.ServiceSpec` every worker builds
        its replica from (weights deterministic in ``config.seed``).
    warmup:
        trace compiled plans in every worker right after spawn, so the
        first fan-out replays instead of tracing on the request path.
    knobs:
        :class:`~repro.cluster.spec.ClusterSpec` fields (``n_shards``,
        ``normalization``, ``window_capacity``, ``vnodes`` and the
        timeout, retry and breaker knobs), with its defaults and its
        validation; the spec is kept as ``cluster_spec``.
    """

    BACKEND = "process"

    def __init__(self, spec: ServiceSpec, *, warmup: bool = True, **knobs) -> None:
        cluster = ClusterSpec(backend="process", **knobs)
        self._configure(spec, cluster)
        self._start(cluster, warmup)

    def _configure(self, spec: ServiceSpec, cluster: Optional[ClusterSpec] = None) -> None:
        if not isinstance(spec, ServiceSpec):
            raise TypeError(
                "ProcessCoordinator needs a ServiceSpec (a factory closure "
                "cannot cross a process boundary without pickling it)"
            )
        self.spec = spec
        self.config = spec.config
        self.cluster_spec = cluster if cluster is not None else ClusterSpec(backend="process")
        # The live workers' last polls as registry views, beside the
        # retired record's (weakly bound: they die with the coordinator).
        # Poll-backed, not RPC-backed, so a metrics export never hangs on
        # a dead worker; every stats call re-polls.
        obs.register_stats("repro_serving", self._polled_service_stats)
        obs.register_stats("repro_store", self._polled_store_stats)

    def _polled_stats(self) -> Stats:
        return merge_stats(shard.last_stats for shard in list(self._shards.values()))

    def _polled_service_stats(self) -> ServiceStats:
        return self._polled_stats()[0]

    def _polled_store_stats(self) -> StoreStats:
        return self._polled_stats()[1]

    @property
    def request_timeout(self) -> float:
        return self.cluster_spec.request_timeout

    @property
    def heartbeat_timeout(self) -> float:
        return self.cluster_spec.heartbeat_timeout

    def _open_shards(
        self, shard_ids: Sequence[str], warmup: bool, service=None
    ) -> Dict[str, ProcessShard]:
        """Spawn workers, then init them all before collecting any ack, so
        N replicas build (and warm) concurrently."""
        if service is not None:
            raise TypeError("process shards build their replica from the ServiceSpec")
        cluster = self.cluster_spec
        spawned: Dict[str, ProcessShard] = {}
        try:
            for shard_id in shard_ids:
                spawned[shard_id] = ProcessShard(
                    shard_id,
                    self.spec.config.n_channels,
                    request_timeout=cluster.request_timeout,
                    retry=RetryPolicy(
                        max_attempts=cluster.retry_attempts,
                        base=cluster.retry_base,
                        cap=cluster.retry_cap,
                    ),
                    breaker=CircuitBreaker(
                        shard_id,
                        failure_threshold=cluster.breaker_threshold,
                        reset_timeout=cluster.breaker_reset,
                    ),
                )
            init = {
                "spec": self.spec.to_state(),
                "normalization": self.normalization,
                "window_capacity": self.window_capacity,
                "warmup": warmup,
            }
            fan_out(spawned, "init", {sid: dict(init, shard_id=sid) for sid in spawned})
        except BaseException:
            for shard in spawned.values():
                shard.close(graceful=False)
            raise
        return spawned

    # ------------------------------------------------------------------ #
    # Worker lifecycle and drills
    # ------------------------------------------------------------------ #
    def detect_failures(self, timeout: Optional[float] = None) -> List[str]:
        """Heartbeat sweep: shard ids whose workers are dead or unresponsive.

        Never hangs: an exited process is caught by ``poll``/pipe-EOF
        immediately, and a live-but-wedged one by the ping budget
        (``heartbeat_timeout`` unless overridden).  Detected shards stay
        in the topology until :meth:`failover` disposes of them.  A shard
        whose breaker is open is reported without any probe I/O.
        """
        budget = self.heartbeat_timeout if timeout is None else timeout
        with self._topology.read():
            dead: List[str] = []
            for shard_id, shard in self._shards.items():
                with shard.lock:
                    if not shard.alive():
                        dead.append(shard_id)
                        continue
                    try:
                        shard.send("ping")
                        shard.receive(timeout=budget)
                    except (WorkerDied, CircuitOpen):
                        dead.append(shard_id)
            return dead

    def worker_pid(self, shard_id: str) -> int:
        """The worker's OS pid (so a drill can ``kill -9`` it for real)."""
        with self._topology.read():
            return self._require_shard(shard_id).pid

    def kill_worker(self, shard_id: str) -> int:
        """SIGKILL a worker in place; returns its pid.  The shard stays in
        the topology for :meth:`detect_failures` / :meth:`failover`."""
        with self._topology.read():
            shard = self._require_shard(shard_id)
            shard.kill()
            return shard.pid

    def inject_stall(self, shard_id: str, seconds: float, count: int = 1) -> None:
        """Arm a worker-side stall: the next ``count`` commands sleep first,
        so the coordinator's receive genuinely times out.  The arming
        request itself replies immediately."""
        with self._topology.read():
            self._require_shard(shard_id).request("fault", stall=float(seconds), count=int(count))

    def breaker_states(self) -> Dict[str, dict]:
        """Each shard's circuit-breaker snapshot (state, failures, trips)."""
        with self._topology.read():
            return {
                shard_id: {
                    "state": shard.breaker.state,
                    "consecutive_failures": shard.breaker.consecutive_failures,
                    "trips": shard.breaker.trips,
                }
                for shard_id, shard in self._shards.items()
            }

    def worker_metrics(self) -> Dict[str, dict]:
        """Each worker's full metrics-registry snapshot, by shard id."""
        with self._topology.read():
            return {
                shard_id: shard.request("metrics")["snapshot"]
                for shard_id, shard in self._shards.items()
            }

    def close(self) -> None:
        """Shut every worker down and reap it.  Idempotent."""
        with self._topology.write():
            for shard in self._shards.values():
                shard.close()
            self._shards.clear()

    def __enter__(self) -> "ProcessCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


# ---------------------------------------------------------------------- #
def build_cluster(
    spec: ServiceSpec,
    executor: Optional[Executor] = None,
    cluster: Optional[ClusterSpec] = None,
    **knobs,
) -> Coordinator:
    """One replica recipe, two deployments.

    ``backend="thread"`` builds a :class:`ShardedForecaster` (pass a
    :class:`concurrent.futures.Executor` as ``executor`` to parallelise
    fan-outs across threads);
    ``backend="process"`` builds a :class:`ProcessCoordinator` with one
    OS process per shard.  Both expose the same API and produce
    bit-identical forecasts, so the choice is purely operational.

    The deployment shape comes from ``cluster`` (a
    :class:`~repro.cluster.spec.ClusterSpec`) or from loose keywords,
    which construct one — validation runs once, in the spec.
    """
    if cluster is not None and knobs:
        raise ValueError(
            "pass deployment knobs either through ClusterSpec or as "
            f"keywords, not both: unexpected {sorted(knobs)}"
        )
    if cluster is None:
        cluster = ClusterSpec(**knobs)
    if cluster.backend == "thread":
        return ShardedForecaster._deploy(spec, cluster, executor=executor)
    if executor is not None:
        raise ValueError(
            "the process backend manages its own workers; "
            "executor applies to the thread backend only"
        )
    return ProcessCoordinator._deploy(spec, cluster, cluster=cluster)
