"""Process-backed cluster: shards as OS processes behind the wire codec.

Thread-backed shards (:class:`~repro.cluster.sharded.ShardedForecaster`)
escape the GIL only inside BLAS — the compiled-plan replay loop, window
assembly and normalisation all serialise on one interpreter.
:class:`ProcessCoordinator` removes that ceiling: each shard is a
:class:`ProcessShard` — a real OS process running a full streaming stack
(:mod:`repro.cluster.worker`) behind a length-prefixed, pickle-free
message protocol (:mod:`repro.wire`) over a socketpair.  ``forecast_all``
fans out by sending every shard its batch *before* collecting any reply,
so N shards compute on N cores with zero coordinator threads.

The coordinator keeps the same public surface as the thread backend
(routing on a :class:`~repro.cluster.ring.HashRing`, checkpoint chains,
``failover`` with exact lost/stale accounting, merged stats), so the
bit-parity harness (:mod:`repro.cluster.parity`) drives both unchanged.

What is genuinely different about real processes:

* **Replicas are specs, not closures.**  A ``service_factory`` cannot
  cross a process boundary without pickling it; a
  :class:`~repro.cluster.spec.ServiceSpec` is plain data, and replica
  weight parity falls out of seeded model construction.
* **Death is a signal, not a simulation.**  A ``kill -9``'d worker is
  detected by pipe-EOF / heartbeat timeout (:meth:`detect_failures`,
  :class:`WorkerDied`), never by a hang.
* **The dead shard's memory is actually gone.**  Thread-backend
  ``failover`` reads the dead shard's live watermarks to report exactly
  which rows were rolled back; a killed process can't be read.  The
  coordinator therefore mirrors a per-tenant **census** — (observed
  rows, generation) from every ingest/import ack — which survives the
  worker and keeps the :class:`~repro.cluster.sharded.FailoverReport`
  accounting exact.
* **Serving counters die with the replica.**  Stats polled from workers
  are cached; at failover the last-polled snapshot folds into the
  retired accumulators — counters accrued after the final poll are
  honestly lost (the thread backend loses nothing because "dead" shards
  are still readable objects).
* **Spans cross the boundary explicitly.**  When tracing is on, each
  request carries a trace flag; the worker returns its span subtree and
  the coordinator grafts it under the live span via
  :func:`repro.obs.import_spans`, rebased onto the local clock.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import uuid
from dataclasses import asdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs, wire
from ..errors import CircuitOpen, DeadlineExceeded, TransientWireError
from ..runtime.annotations import guarded_by, requires_lock, unguarded
from ..runtime.locks import TrackedRLock
from ..runtime.resilience import CircuitBreaker, RetryPolicy
from ..serving.admission import DEFAULT_PRIORITY
from ..serving.service import ServiceStats
from ..testing import faults as _faults
from ..streaming.forecaster import StreamingStats
from ..streaming.store import StoreStats
from .ring import HashRing
from .sharded import _REBALANCE_SECONDS, FailoverReport, ShardedForecaster
from .snapshot import (
    _npz_path,
    compact_chain,
    read_snapshot,
    resolve_chain,
    resolve_tenant_payloads,
    write_snapshot,
)
from .spec import ClusterSpec, ServiceSpec, validate_cluster_timeouts

__all__ = [
    "ProcessShard",
    "ProcessCoordinator",
    "PendingForecast",
    "WorkerDied",
    "WorkerStalled",
    "build_cluster",
]

_SHARD_RETRIES = obs.counter(
    "repro_cluster_shard_retries_total",
    "transient-fault retries per process shard",
    labels=("shard",),
)


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
    the worker down.  Subclasses :class:`WorkerDied` so existing
    "this call failed, settle and move on" handlers keep working; the
    shard's circuit breaker is what escalates *repeated* stalls into
    fail-fast rejection.
    """


class ProcessShard:
    """One worker process plus its request/reply socket.

    The protocol is strictly one reply per request, which is what makes
    the coordinator's send-all-then-collect fan-out safe without any
    coordinator-side threading: between a shard's ``send`` and its
    ``receive`` the worker is computing while the coordinator talks to
    other shards.

    Failure handling is graduated:

    * **EOF / reset** — the process is gone; the shard is marked dead
      permanently and every later call raises :class:`WorkerDied`.
    * **Reply timeout** — :class:`WorkerStalled`: the stream survives.
      Frames are sequence-stamped and echoed, so a late reply is drained
      as stale on the next receive instead of being mis-delivered.
    * **Transient wire hiccups** — :meth:`request` retries them under
      the shard's :class:`~repro.runtime.RetryPolicy` (send and receive
      are retried *separately*: a failed send never reached the worker,
      a failed receive never consumed the reply, so neither retry can
      double-execute a command).
    * **Repeated failures** — the shard's
      :class:`~repro.runtime.CircuitBreaker` trips and subsequent sends
      fail fast with :class:`~repro.errors.CircuitOpen` (zero I/O) until
      a half-open probe succeeds.
    """

    def __init__(
        self,
        shard_id: str,
        request_timeout: float = 120.0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if request_timeout <= 0:
            raise ValueError(f"request_timeout must be > 0, got {request_timeout}")
        self.shard_id = shard_id
        self.request_timeout = request_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker(shard_id)
        self._sock, self.process = wire.spawn_worker("repro.cluster.worker")
        self._dead: Optional[str] = None
        self._sent_parent: Optional[int] = None
        self._sent_at = 0.0
        self._seq_ids = itertools.count(1)
        self._pending_seq: Optional[int] = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        """Process running and stream not yet marked dead."""
        return self._dead is None and self.process.poll() is None

    # ------------------------------------------------------------------ #
    def send(self, command: str, **fields) -> None:
        """Write one sequence-stamped request frame (no reply collected yet).

        Gated by the shard's circuit breaker: while the breaker is open
        this raises :class:`~repro.errors.CircuitOpen` with zero I/O —
        a sick worker costs nothing per call instead of a timeout each.
        """
        if self._dead is not None:
            raise WorkerDied(self.shard_id, self._dead)
        self.breaker.allow()
        if _faults._STATE.schedule is not None:
            _faults.check("shard.send", shard=self.shard_id, cmd=command)
        message = dict(fields)
        message["cmd"] = command
        seq = next(self._seq_ids)
        message["seq"] = seq
        if obs.tracing_enabled():
            message["trace"] = True
            parent = obs.current_span()
            self._sent_parent = parent.span_id if parent is not None else None
            self._sent_at = obs.now()
        try:
            wire.send_message(self._sock, message)
        except TransientWireError:
            # Injected pre-write hiccup: nothing reached the worker, so a
            # retry of this send is sound and no reply is pending.
            raise
        except TimeoutError:
            self.breaker.record_failure()
            self._mark_dead(f"send timed out ({command})")
        except (ConnectionError, OSError) as error:
            self.breaker.record_failure()
            self._mark_dead(f"send failed ({command}): {error}")
        self._pending_seq = seq

    def receive(self, timeout: Optional[float] = None) -> dict:
        """Collect the pending reply frame; re-raises worker errors typed.

        Replies whose echoed ``seq`` predates the pending request are
        stale remnants of a timed-out call — drained and discarded, which
        is what lets a stalled shard resynchronise instead of staying
        dead forever.
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
            except wire.EndOfStream:
                self.breaker.record_failure()
                self._mark_dead("pipe EOF (worker process exited)")
            except TransientWireError:
                # Pre-read hiccup: the reply is still in the pipe, so the
                # caller may simply receive again — no resend, no
                # double-execution.
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

    def request(
        self,
        command: str,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        **fields,
    ) -> dict:
        """One full round trip, with transient faults retried under backoff.

        Send and receive retry *independently*: a transiently failed send
        wrote nothing (safe to resend, with a fresh seq), a transiently
        failed receive read nothing (safe to re-receive the same reply).
        ``deadline`` caps the whole retry budget — past it the policy
        raises :class:`~repro.errors.DeadlineExceeded` instead of backing
        off further.
        """
        self.retry.run(
            lambda: self.send(command, **fields),
            deadline=deadline,
            on_retry=self._count_retry,
        )
        return self.retry.run(
            lambda: self.receive(timeout=timeout),
            deadline=deadline,
            on_retry=self._count_retry,
        )

    def _count_retry(self, attempt: int, delay: float, error: BaseException) -> None:
        _SHARD_RETRIES.labels(shard=self.shard_id).inc()

    def _mark_dead(self, reason: str) -> None:
        self._dead = reason
        raise WorkerDied(self.shard_id, reason)

    # ------------------------------------------------------------------ #
    def kill(self) -> None:
        """SIGKILL the worker — the crash-drill primitive — and reap it."""
        if self.process.poll() is None:
            os.kill(self.process.pid, signal.SIGKILL)
        self.process.wait()

    def close(self, graceful: bool = True) -> None:
        """Tear the worker down: polite shutdown, then reap, then release.

        Closing the socket alone already terminates a healthy worker
        (its recv loop exits on EOF); SIGTERM/SIGKILL only back that up,
        and ``wait`` always runs so no zombie outlives the shard.
        """
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


class PendingForecast:
    """Coordinator-side handle for a forecast queued on a process shard.

    Mirrors :class:`~repro.streaming.forecaster.StreamingForecast`:
    ``result()`` flushes the owning shard if the value has not arrived
    yet, then returns the forecast (already denormalised worker-side) or
    re-raises the worker's error for this request.
    """

    __slots__ = ("tenant", "_coordinator", "_shard_id", "_request_id", "_value", "_error", "_resolved")

    def __init__(self, coordinator: "ProcessCoordinator", shard_id: str, request_id: str, tenant: str) -> None:
        self.tenant = tenant
        self._coordinator = coordinator
        self._shard_id = shard_id
        self._request_id = request_id
        self._value: Optional[np.ndarray] = None
        self._error: Optional[dict] = None
        self._resolved = False

    def done(self) -> bool:
        return self._resolved

    def result(self) -> np.ndarray:
        if not self._resolved:
            self._coordinator._flush_shard(self._shard_id)
        if not self._resolved:
            raise RuntimeError(
                f"forecast for {self.tenant!r} did not resolve on flush"
            )
        if self._error is not None:
            wire.raise_remote(self._error)
        return self._value

    def _resolve(self, value: np.ndarray) -> None:
        self._value = value
        self._resolved = True

    def _fail(self, payload: dict) -> None:
        self._error = payload
        self._resolved = True


@guarded_by(
    "_shards", "ring", "_assign_cache", "_topology_version",
    "_census", "_pending", "_last_stats", "_stats_cache",
    "_chain", "_chain_id", "_seq", "_dropped_since_checkpoint",
    "_retired_service", "_retired_store", "_retired_streaming",
    "rebalances", "tenants_migrated", "rebalance_failures",
    lock="_lock",
)
class ProcessCoordinator:
    """Consistent-hash cluster whose shards are worker processes.

    Parameters
    ----------
    spec:
        the :class:`~repro.cluster.spec.ServiceSpec` every worker builds
        its replica from (weights deterministic in ``config.seed``).
    n_shards:
        initial worker count (named ``shard-0 .. shard-{n-1}``).
    normalization / window_capacity / vnodes:
        as on the thread backend, forwarded to every worker's stack.
    request_timeout:
        seconds a single request may take before the worker is declared
        stalled (generous: covers spawn + model build + plan warmup).
        Validated against ``heartbeat_timeout``
        (:func:`~repro.cluster.spec.validate_cluster_timeouts`).
    heartbeat_timeout:
        default ping budget for :meth:`detect_failures`; must be
        strictly smaller than ``request_timeout``.
    retry_attempts / retry_base / retry_cap:
        per-shard :class:`~repro.runtime.RetryPolicy` knobs — transient
        wire faults are retried under decorrelated-jitter backoff.
    breaker_threshold / breaker_reset:
        per-shard :class:`~repro.runtime.CircuitBreaker` knobs — after
        ``breaker_threshold`` consecutive failures a shard fails fast
        with :class:`~repro.errors.CircuitOpen` until a probe succeeds
        ``breaker_reset`` seconds later.
    warmup:
        trace compiled plans in every worker right after spawn, so the
        first fan-out replays instead of tracing on the request path.
    """

    def __init__(
        self,
        spec: ServiceSpec,
        n_shards: int = 2,
        normalization: str = "none",
        window_capacity: Optional[int] = None,
        vnodes: int = 64,
        request_timeout: float = 120.0,
        heartbeat_timeout: float = 5.0,
        retry_attempts: int = 3,
        retry_base: float = 0.05,
        retry_cap: float = 2.0,
        breaker_threshold: int = 3,
        breaker_reset: float = 5.0,
        warmup: bool = True,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if not isinstance(spec, ServiceSpec):
            raise TypeError(
                "ProcessCoordinator needs a ServiceSpec (a factory closure "
                "cannot cross a process boundary without pickling it)"
            )
        validate_cluster_timeouts(request_timeout, heartbeat_timeout)
        self.spec = spec
        self.normalization = normalization
        self.window_capacity = window_capacity
        self.request_timeout = request_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.retry_attempts = retry_attempts
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset
        self._init_runtime()
        self.ring = HashRing(vnodes=vnodes)
        shard_ids = [f"shard-{index}" for index in range(n_shards)]
        self._shards = self._spawn_and_init(shard_ids, warmup=warmup)
        for shard_id in shard_ids:
            self.ring.add(shard_id)

    @unguarded("constructor phase: the cluster is not visible to other threads yet")
    def _init_runtime(self) -> None:
        self._lock = TrackedRLock("process-cluster")
        self._shards: Dict[str, ProcessShard] = {}
        self._assign_cache: Dict[str, Tuple[int, str]] = {}
        self._topology_version = 0
        # The coordinator-side census: tenant -> (observed rows,
        # generation), refreshed from every ingest/import acknowledgement.
        # This is the failover ledger — after a kill -9 the dead worker's
        # store is unreadable, and the census is what keeps lost/stale
        # accounting exact.
        self._census: Dict[str, Tuple[int, int]] = {}
        # Unresolved forecast handles per shard, keyed by request id.
        self._pending: Dict[str, Dict[str, PendingForecast]] = {}
        self._request_ids = itertools.count(1)
        # Last stats reply per shard — the fold-in source when a worker
        # dies without a final poll.
        self._last_stats: Dict[str, dict] = {}
        self._stats_cache: Tuple[ServiceStats, StreamingStats, StoreStats] = (
            ServiceStats(),
            StreamingStats(),
            StoreStats(),
        )
        self.rebalances = 0
        self.tenants_migrated = 0
        self.rebalance_failures = 0
        self._retired_service = ServiceStats()
        self._retired_store = StoreStats()
        self._retired_streaming = StreamingStats()
        self._chain: List[str] = []
        self._chain_id: Optional[str] = None
        self._seq = 0
        self._dropped_since_checkpoint: set = set()
        # Merged per-worker metrics, coordinator-side: registry views over
        # the cached stats (weakly bound — they die with the coordinator).
        # Cache-backed, not RPC-backed, so a metrics export can never hang
        # on (or crash with) a dead worker; the cache refreshes on every
        # stats poll.
        obs.register_stats("repro_serving", self._cached_service_stats, maxed=ServiceStats.MAXED)
        obs.register_stats("repro_streaming", self._cached_streaming_stats)
        obs.register_stats("repro_store", self._cached_store_stats)

    @unguarded("reads one tuple slot: the cache is replaced wholesale, never mutated")
    def _cached_service_stats(self) -> ServiceStats:
        return self._stats_cache[0]

    @unguarded("reads one tuple slot: the cache is replaced wholesale, never mutated")
    def _cached_streaming_stats(self) -> StreamingStats:
        return self._stats_cache[1]

    @unguarded("reads one tuple slot: the cache is replaced wholesale, never mutated")
    def _cached_store_stats(self) -> StoreStats:
        return self._stats_cache[2]

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn_and_init(self, shard_ids: Sequence[str], warmup: bool) -> Dict[str, ProcessShard]:
        """Spawn workers, then init them all before collecting any ack.

        Spawning first and initialising in a send-all/recv-all sweep means
        N interpreters start (and N replicas build + warm) concurrently —
        cluster construction costs one worker's startup, not N.
        """
        spawned: Dict[str, ProcessShard] = {}
        try:
            for shard_id in shard_ids:
                spawned[shard_id] = ProcessShard(
                    shard_id,
                    request_timeout=self.request_timeout,
                    retry=RetryPolicy(
                        max_attempts=self.retry_attempts,
                        base=self.retry_base,
                        cap=self.retry_cap,
                    ),
                    breaker=CircuitBreaker(
                        shard_id,
                        failure_threshold=self.breaker_threshold,
                        reset_timeout=self.breaker_reset,
                    ),
                )
            spec_state = self.spec.to_state()
            for shard_id, shard in spawned.items():
                shard.send(
                    "init",
                    spec=spec_state,
                    shard_id=shard_id,
                    normalization=self.normalization,
                    window_capacity=self.window_capacity,
                    warmup=warmup,
                )
            for shard in spawned.values():
                shard.receive()
        except BaseException:
            for shard in spawned.values():
                shard.close(graceful=False)
            raise
        return spawned

    def detect_failures(self, timeout: Optional[float] = None) -> List[str]:
        """Heartbeat sweep: shard ids whose workers are dead or unresponsive.

        Never hangs: an exited process is caught by ``poll``/pipe-EOF
        immediately, and a live-but-wedged one by the ping budget
        (``heartbeat_timeout`` unless overridden).  Detected shards stay
        in the topology — marked dead or stalled — until :meth:`failover`
        disposes of them, so detection and recovery remain separate
        decisions.  A shard whose breaker is open is reported without
        paying any probe I/O at all.
        """
        with self._lock:
            budget = self.heartbeat_timeout if timeout is None else timeout
            dead: List[str] = []
            for shard_id, shard in self._shards.items():
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
        with self._lock:
            return self._require_shard(shard_id).pid

    def kill_worker(self, shard_id: str) -> int:
        """SIGKILL a worker in place; returns its pid.  Drill convenience —
        the shard stays in the topology for :meth:`detect_failures` /
        :meth:`failover` to find, exactly as an external ``kill -9`` would
        leave it."""
        with self._lock:
            shard = self._require_shard(shard_id)
            shard.kill()
            return shard.pid

    def inject_stall(self, shard_id: str, seconds: float, count: int = 1) -> None:
        """Arm a worker-side stall: the next ``count`` commands sleep first.

        Drill convenience for degradation tests — the stall happens in the
        worker process (deterministically, before dispatch), so the
        coordinator's receive genuinely times out the way a wedged worker
        would make it.  The arming request itself replies immediately.
        """
        with self._lock:
            self._require_shard(shard_id).request(
                "fault", stall=float(seconds), count=int(count)
            )

    def breaker_states(self) -> Dict[str, dict]:
        """Each shard's circuit-breaker snapshot (state, failures, trips)."""
        with self._lock:
            return {
                shard_id: {
                    "state": shard.breaker.state,
                    "consecutive_failures": shard.breaker.consecutive_failures,
                    "trips": shard.breaker.trips,
                }
                for shard_id, shard in self._shards.items()
            }

    def close(self) -> None:
        """Shut every worker down and reap it.  Idempotent."""
        with self._lock:
            for shard_id, shard in list(self._shards.items()):
                self._fail_pending_locked(shard_id, "cluster closed")
                shard.close()
            self._shards.clear()

    def __enter__(self) -> "ProcessCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._shards)

    def shard_ids(self) -> List[str]:
        with self._lock:
            return list(self._shards)

    def shard_for(self, tenant: str) -> str:
        """Which shard serves a tenant (memoised ring lookup)."""
        with self._lock:
            return self._assign_locked(tenant)

    @requires_lock("_lock")
    def _assign_locked(self, tenant: str) -> str:
        cached = self._assign_cache.get(tenant)
        if cached is not None and cached[0] == self._topology_version:
            return cached[1]
        shard_id = self.ring.assign(tenant)
        self._assign_cache[tenant] = (self._topology_version, shard_id)
        return shard_id

    @requires_lock("_lock")
    def _bump_topology_locked(self) -> None:
        self._topology_version += 1
        self._assign_cache = {}

    @requires_lock("_lock")
    def _require_shard(self, shard_id: str) -> ProcessShard:
        try:
            return self._shards[shard_id]
        except KeyError:
            raise KeyError(f"unknown shard {shard_id!r}") from None

    def tenants(self) -> List[str]:
        """Every tenant across the cluster (shard order, then first-seen)."""
        with self._lock:
            keys: List[str] = []
            for shard in self._shards.values():
                keys.extend(shard.request("tenants")["tenants"])
            return keys

    def tenant_count(self) -> int:
        with self._lock:
            return len(self._census)

    # ------------------------------------------------------------------ #
    # Routed traffic
    # ------------------------------------------------------------------ #
    def ingest(self, tenant: str, values: np.ndarray, timestamp=None) -> int:
        """Append observations on the tenant's worker; returns its total.

        The acknowledgement carries the worker's (total, generation)
        watermark, which updates the census — every successfully ingested
        row is accounted for even if the worker later dies taking the
        rows with it.
        """
        with self._lock:
            shard = self._shards[self._assign_locked(tenant)]
            reply = shard.request(
                "ingest", tenant=tenant, values=np.asarray(values), timestamp=timestamp
            )
            self._census[tenant] = (int(reply["total"]), int(reply["generation"]))
            return int(reply["total"])

    def forecast(
        self,
        tenant: str,
        future_numerical: Optional[np.ndarray] = None,
        future_categorical: Optional[np.ndarray] = None,
        priority: str = DEFAULT_PRIORITY,
        timeout: Optional[float] = None,
    ) -> PendingForecast:
        """Queue a forecast on the tenant's worker; non-blocking handle.

        ``priority`` and ``timeout`` cross the wire as a class name plus
        a *relative* budget — absolute deadlines cannot cross a process
        boundary (each process has its own monotonic clock), so the
        worker re-anchors the budget on its own clock at admission.  A
        worker-side shed comes back typed (:class:`Overloaded` /
        :class:`DeadlineExceeded`) and raises here.
        """
        with self._lock:
            shard_id = self._assign_locked(tenant)
            request_id = str(next(self._request_ids))
            self._shards[shard_id].request(
                "submit",
                id=request_id,
                tenant=tenant,
                future_numerical=future_numerical,
                future_categorical=future_categorical,
                priority=priority,
                budget=timeout,
            )
            handle = PendingForecast(self, shard_id, request_id, tenant)
            self._pending.setdefault(shard_id, {})[request_id] = handle
            return handle

    def forecast_all(
        self,
        tenants: Optional[Sequence[str]] = None,
        flush: bool = True,
        future_numerical: Optional[Mapping[str, np.ndarray]] = None,
        future_categorical: Optional[Mapping[str, np.ndarray]] = None,
        priority: str = DEFAULT_PRIORITY,
        timeout: Optional[float] = None,
    ) -> Dict[str, PendingForecast]:
        """Queue one forecast per tenant, fanned out worker by worker.

        The truly-parallel path: every shard receives its whole batch in
        one ``forecast_many`` frame before any reply is collected, so S
        workers assemble windows, replay compiled plans and denormalise
        simultaneously on S cores — no GIL, no coordinator threads.
        Failures settle before raising: every healthy shard's results are
        applied (its handles resolve) even when another shard died, was
        breaker-rejected, or stalled mid-fan-out.

        ``timeout`` bounds the *whole* fan-out on the caller's clock:
        each entry carries the remaining budget (relative — monotonic
        clocks don't cross process boundaries), and each collect leg's
        receive budget is clamped to what is left, floored at a small
        epsilon so already-computed replies from healthy shards still
        drain after a stalled shard burned the deadline.
        """
        future_numerical = future_numerical or {}
        future_categorical = future_categorical or {}
        with self._lock:
            deadline = None if timeout is None else obs.now() + timeout
            by_shard: Dict[str, List[str]] = {}
            if tenants is None:
                # "Every live tenant" comes from the census — kept current
                # by every ingest ack, drop, restore and failover — so an
                # implicit sweep costs no per-worker enumeration RPC.
                grouped: Dict[str, List[str]] = {shard_id: [] for shard_id in self._shards}
                for tenant in self._census:
                    grouped[self._assign_locked(tenant)].append(tenant)
                by_shard = {shard_id: members for shard_id, members in grouped.items() if members}
                keys = [tenant for members in by_shard.values() for tenant in members]
            else:
                keys = list(tenants)
                for tenant in keys:
                    by_shard.setdefault(self._assign_locked(tenant), []).append(tenant)
            handles: Dict[str, PendingForecast] = {}
            first_error: Optional[BaseException] = None
            with obs.span(
                "cluster.forecast_all",
                tenants=len(keys),
                shards=len(by_shard),
                backend="process",
            ):
                sent: List[str] = []
                for shard_id, members in by_shard.items():
                    budget = None if deadline is None else deadline - obs.now()
                    entries = []
                    for tenant in members:
                        request_id = str(next(self._request_ids))
                        entries.append(
                            {
                                "id": request_id,
                                "tenant": tenant,
                                "fn": future_numerical.get(tenant),
                                "fc": future_categorical.get(tenant),
                                "priority": priority,
                                "budget": budget,
                            }
                        )
                        handle = PendingForecast(self, shard_id, request_id, tenant)
                        self._pending.setdefault(shard_id, {})[request_id] = handle
                        handles[tenant] = handle
                    if budget is not None and budget <= 0:
                        # The deadline burned before this shard's frame went
                        # out — shed locally, typed, without any wire I/O.
                        self._fail_pending_locked(
                            shard_id, "fan-out deadline exhausted before dispatch",
                            error_type="DeadlineExceeded",
                        )
                        continue
                    try:
                        self._shards[shard_id].send(
                            "forecast_many", entries=entries, flush=flush
                        )
                        sent.append(shard_id)
                    except CircuitOpen as error:
                        if deadline is not None:
                            # A tripped breaker under a deadline is typed
                            # load-shedding, not a cluster failure: the sick
                            # shard's handles fail Overloaded and the rest of
                            # the fan-out proceeds.
                            self._fail_pending_locked(
                                shard_id, str(error), error_type="Overloaded"
                            )
                            continue
                        self._fail_pending_locked(shard_id, str(error))
                        first_error = first_error if first_error is not None else error
                    except WorkerDied as error:
                        self._fail_pending_locked(shard_id, str(error))
                        first_error = first_error if first_error is not None else error
                for shard_id in sent:
                    receive_budget: Optional[float] = None
                    if deadline is not None:
                        # Floor at a drain epsilon: replies a healthy worker
                        # already computed should resolve even when a slow
                        # sibling spent the deadline.
                        receive_budget = min(
                            self.request_timeout, max(deadline - obs.now(), 0.05)
                        )
                    try:
                        reply = self._shards[shard_id].receive(timeout=receive_budget)
                    except WorkerStalled as error:
                        if deadline is not None:
                            # Graceful degradation, not cluster failure: the
                            # slow shard's handles fail typed while the
                            # healthy shards' results still return.  Its late
                            # reply drains on the next seq-stamped receive.
                            self._fail_pending_locked(
                                shard_id, str(error), error_type="DeadlineExceeded"
                            )
                            continue
                        self._fail_pending_locked(shard_id, str(error))
                        first_error = first_error if first_error is not None else error
                        continue
                    except WorkerDied as error:
                        self._fail_pending_locked(shard_id, str(error))
                        first_error = first_error if first_error is not None else error
                        continue
                    except Exception as error:
                        # Remote command error (e.g. unknown tenant) —
                        # recorded and re-raised after the fan-out settles,
                        # keeping thread-backend exception parity.
                        first_error = first_error if first_error is not None else error
                        continue
                    self._apply_flush_reply_locked(shard_id, reply)
            if first_error is not None:
                raise first_error
            return {tenant: handles[tenant] for tenant in keys if tenant in handles}

    def ingest_and_forecast(
        self, arrivals: Mapping[str, np.ndarray], timestamp=None
    ) -> Dict[str, PendingForecast]:
        """One cluster tick: ingest a batch of arrivals, forecast each tenant."""
        for tenant, values in arrivals.items():
            self.ingest(tenant, values, timestamp=timestamp)
        return self.forecast_all(list(arrivals))

    def flush(self) -> int:
        """Flush every worker's service queue (concurrently); returns
        requests resolved.  Settles all shards before raising a failure."""
        with self._lock:
            sent: List[str] = []
            first_error: Optional[BaseException] = None
            for shard_id, shard in self._shards.items():
                try:
                    shard.send("flush")
                    sent.append(shard_id)
                except (WorkerDied, CircuitOpen) as error:
                    self._fail_pending_locked(shard_id, str(error))
                    first_error = first_error if first_error is not None else error
            total = 0
            for shard_id in sent:
                try:
                    reply = self._shards[shard_id].receive()
                except WorkerDied as error:
                    self._fail_pending_locked(shard_id, str(error))
                    first_error = first_error if first_error is not None else error
                    continue
                total += self._apply_flush_reply_locked(shard_id, reply)
            if first_error is not None:
                raise first_error
            return total

    def _flush_shard(self, shard_id: str) -> int:
        """Flush one shard (a handle's ``result()`` pulls this)."""
        with self._lock:
            shard = self._shards.get(shard_id)
            if shard is None:
                return 0  # shard retired; its handles were settled then
            try:
                reply = shard.request("flush")
            except (WorkerDied, CircuitOpen) as error:
                self._fail_pending_locked(shard_id, str(error))
                raise
            return self._apply_flush_reply_locked(shard_id, reply)

    @requires_lock("_lock")
    def _apply_flush_reply_locked(self, shard_id: str, reply: dict) -> int:
        pending = self._pending.get(shard_id, {})
        for request_id, value in reply["results"].items():
            handle = pending.pop(request_id, None)
            if handle is not None:
                handle._resolve(value)
        for request_id, payload in reply["errors"].items():
            handle = pending.pop(request_id, None)
            if handle is not None:
                handle._fail(payload)
        return int(reply["flushed"])

    @requires_lock("_lock")
    def _fail_pending_locked(
        self, shard_id: str, reason: str, error_type: str = "RuntimeError"
    ) -> None:
        verb = {
            "DeadlineExceeded": "missed its deadline",
            "Overloaded": "shed its queue",
        }.get(error_type, "died")
        for handle in self._pending.pop(shard_id, {}).values():
            handle._fail(
                {
                    "type": error_type,
                    "message": (
                        f"shard {shard_id!r} {verb} before the forecast for "
                        f"{handle.tenant!r} resolved: {reason}"
                    ),
                }
            )

    def warmup(self, batch_sizes: Optional[Sequence[int]] = None) -> int:
        """Pre-trace compiled plans in every worker (concurrently)."""
        with self._lock:
            return self._warmup_locked(list(self._shards), batch_sizes)

    @requires_lock("_lock")
    def _warmup_locked(
        self, shard_ids: Sequence[str], batch_sizes: Optional[Sequence[int]] = None
    ) -> int:
        for shard_id in shard_ids:
            self._shards[shard_id].send(
                "warmup",
                batch_sizes=None if batch_sizes is None else [int(s) for s in batch_sizes],
            )
        total = 0
        first_error: Optional[BaseException] = None
        for shard_id in shard_ids:
            try:
                total += int(self._shards[shard_id].receive()["traced"])
            except Exception as error:
                # Settle every shard's reply before raising: an unread
                # reply would desynchronise the request/reply stream.
                first_error = first_error if first_error is not None else error
        if first_error is not None:
            raise first_error
        return total

    def drop(self, tenant: str) -> None:
        """Forget a tenant cluster-wide (buffer, watermark and scaler)."""
        with self._lock:
            shard = self._shards[self._assign_locked(tenant)]
            shard.request("drop", tenant=tenant)
            self._census.pop(tenant, None)
            self._assign_cache.pop(tenant, None)
            self._dropped_since_checkpoint.add(tenant)

    # ------------------------------------------------------------------ #
    # Rebalancing & failover
    # ------------------------------------------------------------------ #
    def add_shard(self, shard_id: Optional[str] = None) -> List[str]:
        """Grow the ring by one worker; migrate only tenants it now owns."""
        with self._lock:
            started = obs.now() if obs.metrics_enabled() else 0.0
            if shard_id is None:
                index = len(self._shards)
                while f"shard-{index}" in self._shards:
                    index += 1
                shard_id = f"shard-{index}"
            if shard_id in self._shards:
                raise ValueError(f"shard {shard_id!r} already exists")
            incoming = self._spawn_and_init([shard_id], warmup=True)[shard_id]
            owners = {tenant: self._assign_locked(tenant) for tenant in self._census}
            self.ring.add(shard_id)
            moved: List[Tuple[str, str]] = []
            try:
                for tenant, source_id in owners.items():
                    if self.ring.assign(tenant) != shard_id:
                        continue
                    payload = self._shards[source_id].request(
                        "export_tenant", tenant=tenant
                    )["payload"]
                    reply = incoming.request("import_tenant", tenant=tenant, payload=payload)
                    self._shards[source_id].request("drop", tenant=tenant)
                    self._census[tenant] = (int(reply["observed"]), int(reply["generation"]))
                    moved.append((tenant, source_id))
            except Exception:
                # Deliberately broad, mirroring the thread backend: a
                # half-done rebalance must not leave a phantom ring node.
                # Unwind, count the failure, re-raise unchanged.
                self.rebalance_failures += 1
                self.ring.remove(shard_id)
                for tenant, source_id in moved:
                    payload = incoming.request("export_tenant", tenant=tenant)["payload"]
                    reply = self._shards[source_id].request(
                        "import_tenant", tenant=tenant, payload=payload
                    )
                    self._census[tenant] = (int(reply["observed"]), int(reply["generation"]))
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
        """Retire a worker gracefully; its tenants (and only its) re-home."""
        with self._lock:
            started = obs.now() if obs.metrics_enabled() else 0.0
            source = self._require_shard(shard_id)
            if len(self._shards) == 1:
                raise ValueError("cannot remove the last shard of a cluster")
            # Flush its queue first so already-submitted forecasts resolve
            # against the state they were assembled from.
            self._apply_flush_reply_locked(shard_id, source.request("flush"))
            del self._shards[shard_id]
            self.ring.remove(shard_id)
            tenants = source.request("tenants")["tenants"]
            moved: List[str] = []
            try:
                for tenant in tenants:
                    payload = source.request("export_tenant", tenant=tenant)["payload"]
                    target = self._shards[self.ring.assign(tenant)]
                    reply = target.request("import_tenant", tenant=tenant, payload=payload)
                    self._census[tenant] = (int(reply["observed"]), int(reply["generation"]))
                    moved.append(tenant)
            except Exception:
                # Deliberately broad, same unwind contract as add_shard:
                # the source still holds every tenant (export copies), so
                # drop the partial imports, restore the topology, count
                # the failure and re-raise unchanged.
                self.rebalance_failures += 1
                for tenant in moved:
                    self._shards[self.ring.assign(tenant)].request("drop", tenant=tenant)
                self.ring.add(shard_id)
                self._shards[shard_id] = source
                raise
            self._fold_shard_stats_locked(shard_id, source)
            source.close()
            self._bump_topology_locked()
            self.rebalances += 1
            self.tenants_migrated += len(moved)
            if started:
                _REBALANCE_SECONDS.labels(op="remove_shard").observe(obs.now() - started)
            return moved

    def failover(
        self, shard_id: str, checkpoint_paths: Optional[Sequence[str]] = None
    ) -> FailoverReport:
        """Recover from a dead worker: re-route its arc, restore its tenants.

        The semantic twin of the thread backend's ``failover`` — same
        refusal rules, same :class:`FailoverReport` accounting — driven
        from the census instead of the (gone) replica memory:

        * never checkpointed → **lost**;
        * dropped since the checkpoint, generation mismatch, or census
          watermark below the checkpoint's (a different incarnation of
          the key) → **lost**, never silently resurrected;
        * otherwise restored onto its new ring owner, with
          ``census − checkpoint`` rows reported **stale** (rolled back).

        Restored tenants' census entries roll back to the checkpoint
        watermark, and adopting workers are re-warmed.  Works equally on
        a ``kill -9``'d worker and a politely simulated death.
        """
        with self._lock:
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
            victims = [
                tenant
                for tenant in self._census
                if self._assign_locked(tenant) == shard_id
            ]
            del self._shards[shard_id]
            self._fold_shard_stats_locked(shard_id, dead)
            self._fail_pending_locked(shard_id, "shard failed over")
            dead.close(graceful=False)
            self.ring.remove(shard_id)
            self._bump_topology_locked()
            report = FailoverReport(shard_id=shard_id)
            for tenant in victims:
                payload = checkpointed.get(tenant)
                if payload is None:
                    # Born after the last checkpoint, died with the worker.
                    report.lost.append(tenant)
                    self._census.pop(tenant, None)
                    continue
                observed, generation = self._census[tenant]
                checkpoint_rows = int(payload["series"]["buffer"]["total_appended"])
                checkpoint_generation = int(payload["series"].get("generation", 0))
                if (
                    tenant in self._dropped_since_checkpoint
                    or generation != checkpoint_generation
                    or observed < checkpoint_rows
                ):
                    # A different incarnation of this key (dropped and
                    # re-created since the checkpoint): restoring would
                    # resurrect deleted history, so it is honestly lost.
                    report.lost.append(tenant)
                    self._census.pop(tenant, None)
                    continue
                target_id = self._assign_locked(tenant)
                reply = self._shards[target_id].request(
                    "import_tenant", tenant=tenant, payload=payload
                )
                report.restored[tenant] = target_id
                if observed > checkpoint_rows:
                    report.stale[tenant] = observed - checkpoint_rows
                self._census[tenant] = (int(reply["observed"]), int(reply["generation"]))
            self.rebalances += 1
            self.tenants_migrated += len(report.restored)
            self._warmup_locked(sorted(set(report.restored.values())))
            if started:
                _REBALANCE_SECONDS.labels(op="failover").observe(obs.now() - started)
            return report

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    @requires_lock("_lock")
    def _collect_stats_locked(self) -> Tuple[ServiceStats, StreamingStats, StoreStats]:
        for shard_id, shard in self._shards.items():
            try:
                self._last_stats[shard_id] = shard.request("stats")
            except (WorkerDied, CircuitOpen):
                # Graceful degradation: a sick shard contributes its last
                # polled snapshot instead of failing the whole merge —
                # stats reads must keep working *during* an incident.
                continue
        live = [
            self._last_stats[shard_id]
            for shard_id in self._shards
            if shard_id in self._last_stats
        ]
        service = ServiceStats.merge(
            [self._retired_service] + [ServiceStats(**s["service"]) for s in live]
        )
        streaming = StreamingStats.merge(
            [self._retired_streaming] + [StreamingStats(**s["streaming"]) for s in live]
        )
        store = StoreStats.merge(
            [self._retired_store] + [StoreStats(**s["store"]) for s in live]
        )
        self._stats_cache = (service, streaming, store)
        return service, streaming, store

    @requires_lock("_lock")
    def _fold_shard_stats_locked(self, shard_id: str, shard: ProcessShard) -> None:
        """Fold a departing worker's counters into the retired accumulators.

        Polls live workers for their final numbers; for a crashed worker
        the last cached poll is folded instead — counters accrued between
        the final poll and the crash died with the process (the honest
        cost of real processes; the thread backend can still read its
        "dead" objects).
        """
        try:
            stats = shard.request("stats")
        except (WorkerDied, CircuitOpen):
            stats = self._last_stats.get(shard_id)
        self._last_stats.pop(shard_id, None)
        if stats is None:
            return
        self._retired_service = ServiceStats.merge(
            [self._retired_service, ServiceStats(**stats["service"])]
        )
        self._retired_streaming = StreamingStats.merge(
            [self._retired_streaming, StreamingStats(**stats["streaming"])]
        )
        self._retired_store = StoreStats.merge(
            [self._retired_store, StoreStats(**stats["store"])]
        )

    def service_stats(self) -> ServiceStats:
        """Cluster-wide serving counters (merged live polls + retired)."""
        with self._lock:
            return self._collect_stats_locked()[0]

    def streaming_stats(self) -> StreamingStats:
        with self._lock:
            return self._collect_stats_locked()[1]

    def store_stats(self) -> StoreStats:
        with self._lock:
            return self._collect_stats_locked()[2]

    def reset_service_stats(self) -> None:
        """Zero every worker's serving counters (between benchmark phases)."""
        with self._lock:
            self._retired_service.reset()
            for shard in self._shards.values():
                shard.request("reset_stats")
            self._collect_stats_locked()

    def worker_metrics(self) -> Dict[str, dict]:
        """Each worker's full metrics-registry snapshot, by shard id."""
        with self._lock:
            return {
                shard_id: shard.request("metrics")["snapshot"]
                for shard_id, shard in self._shards.items()
            }

    def as_dict(self) -> dict:
        """One observability payload: topology, balance and merged stats."""
        with self._lock:
            per_shard: Dict[str, int] = {shard_id: 0 for shard_id in self._shards}
            for tenant in self._census:
                per_shard[self._assign_locked(tenant)] += 1
            return {
                "backend": "process",
                "shards": len(self._shards),
                "tenants": len(self._census),
                "tenants_per_shard": per_shard,
                "rebalances": self.rebalances,
                "tenants_migrated": self.tenants_migrated,
                "rebalance_failures": self.rebalance_failures,
                "service": self._collect_stats_locked()[0].as_dict(),
            }

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict:
        """Serialisable snapshot of the whole cluster (ring + every shard).

        Same shape as the thread backend's ``to_state`` — the two
        deployments share one snapshot format, one chain resolver, one
        ``from_state`` each way.
        """
        with self._lock:
            return self._to_state_locked()

    @requires_lock("_lock")
    def _to_state_locked(self) -> dict:
        for shard in self._shards.values():
            shard.send("state")
        shard_states = {
            shard_id: shard.receive()["state"]
            for shard_id, shard in self._shards.items()
        }
        service = self._collect_stats_locked()[0]
        return {
            "kind": "full",
            "chain_id": self._chain_id,
            "seq": int(self._seq),
            "vnodes": int(self.ring.vnodes),
            "normalization": self.normalization,
            "rebalances": int(self.rebalances),
            "tenants_migrated": int(self.tenants_migrated),
            "retired": {
                "service": asdict(service),
                "store": asdict(self._retired_store),
                "streaming": asdict(self._retired_streaming),
            },
            "shards": shard_states,
        }

    @requires_lock("_lock")
    def _delta_state_locked(self, seq: int) -> dict:
        for shard in self._shards.values():
            shard.send("delta")
        collected = {
            shard_id: shard.receive()
            for shard_id, shard in self._shards.items()
        }
        first = next(iter(collected.values()))
        service = self._collect_stats_locked()[0]
        return {
            "kind": "delta",
            "chain_id": self._chain_id,
            "seq": int(seq),
            "parent_seq": int(self._seq),
            "vnodes": int(self.ring.vnodes),
            "normalization": self.normalization,
            "store": first["store"],
            "rebalances": int(self.rebalances),
            "tenants_migrated": int(self.tenants_migrated),
            "retired": {
                "service": asdict(service),
                "store": asdict(self._retired_store),
                "streaming": asdict(self._retired_streaming),
            },
            "shards": {
                shard_id: {
                    "order": entry["order"],
                    "dirty": entry["dirty"],
                    "stats": entry["stats"],
                    "store_stats": entry["store_stats"],
                }
                for shard_id, entry in collected.items()
            },
        }

    @requires_lock("_lock")
    def _clear_dirty_locked(self) -> None:
        for shard in self._shards.values():
            shard.send("clear_dirty")
        for shard in self._shards.values():
            shard.receive()

    def save(self, path: str) -> None:
        """Write a full cluster snapshot; starts a new checkpoint chain."""
        with self._lock:
            previous = (self._chain_id, self._seq)
            self._chain_id = uuid.uuid4().hex
            self._seq = 0
            try:
                write_snapshot(self._to_state_locked(), path)
            except BaseException:
                self._chain_id, self._seq = previous
                raise
            self._clear_dirty_locked()
            self._dropped_since_checkpoint.clear()
            self._chain = [path]

    def save_incremental(self, path: str) -> None:
        """Write a delta checkpoint: only tenants touched since the last one."""
        with self._lock:
            if not self._chain:
                raise RuntimeError(
                    "no checkpoint chain to extend: call save() for a full "
                    "base snapshot before save_incremental()"
                )
            if self._resolve_snapshot_file(path) in {
                self._resolve_snapshot_file(link) for link in self._chain
            }:
                raise ValueError(
                    f"{path!r} is already a link of the current checkpoint "
                    "chain; each incremental snapshot needs a fresh path"
                )
            delta = self._delta_state_locked(seq=self._seq + 1)
            write_snapshot(delta, path)
            self._clear_dirty_locked()
            self._dropped_since_checkpoint.clear()
            self._seq += 1
            self._chain.append(path)

    @staticmethod
    def _resolve_snapshot_file(path: str) -> str:
        return os.path.abspath(_npz_path(path))

    def checkpoint_chain(self) -> List[str]:
        """The snapshot paths a restore (or :meth:`failover`) would replay."""
        with self._lock:
            return list(self._chain)

    def compact(self, path: Optional[str] = None) -> str:
        """Fold the recorded checkpoint chain into one full snapshot
        (see :meth:`ShardedForecaster.compact` — identical semantics)."""
        with self._lock:
            if not self._chain:
                raise RuntimeError("no checkpoint chain to compact: call save() first")
            output = compact_chain(self._chain, output=path)
            self._chain = [output]
            return output

    @classmethod
    def from_state(
        cls,
        spec: ServiceSpec,
        state: dict,
        request_timeout: float = 120.0,
        heartbeat_timeout: float = 5.0,
        retry_attempts: int = 3,
        retry_base: float = 0.05,
        retry_cap: float = 2.0,
        breaker_threshold: int = 3,
        breaker_reset: float = 5.0,
    ) -> "ProcessCoordinator":
        """Rebuild a cluster from :meth:`to_state` output (either backend's).

        Workers spawn with fresh replicas from ``spec``, then each
        restores its shard's streaming state over the wire; the census
        seeds from every worker's restore acknowledgement.
        """
        if not state["shards"]:
            raise ValueError("cluster state holds no shards")
        validate_cluster_timeouts(request_timeout, heartbeat_timeout)
        cluster = cls.__new__(cls)
        cluster.spec = spec
        cluster.normalization = str(state["normalization"])
        first_shard = next(iter(state["shards"].values()))
        cluster.window_capacity = int(first_shard["store"]["capacity"])
        cluster.request_timeout = request_timeout
        cluster.heartbeat_timeout = heartbeat_timeout
        cluster.retry_attempts = retry_attempts
        cluster.retry_base = retry_base
        cluster.retry_cap = retry_cap
        cluster.breaker_threshold = breaker_threshold
        cluster.breaker_reset = breaker_reset
        cluster._init_runtime()
        cluster.ring = HashRing(vnodes=int(state["vnodes"]))
        cluster.rebalances = int(state["rebalances"])
        cluster.tenants_migrated = int(state["tenants_migrated"])
        cluster._retired_service = ServiceStats(**state["retired"]["service"])
        cluster._retired_store = StoreStats(**state["retired"]["store"])
        cluster._retired_streaming = StreamingStats(**state["retired"]["streaming"])
        chain_id = state.get("chain_id")
        cluster._chain_id = None if chain_id is None else str(chain_id)
        cluster._seq = int(state.get("seq", 0))
        shard_ids = list(state["shards"])
        cluster._shards = cluster._spawn_and_init(shard_ids, warmup=False)
        try:
            for shard_id in shard_ids:
                cluster.ring.add(shard_id)
                cluster._shards[shard_id].send("restore", state=state["shards"][shard_id])
            for shard_id in shard_ids:
                census = cluster._shards[shard_id].receive()["census"]
                for tenant, entry in census.items():
                    cluster._census[tenant] = (
                        int(entry["observed"]),
                        int(entry["generation"]),
                    )
        except BaseException:
            for shard in cluster._shards.values():
                shard.close(graceful=False)
            raise
        return cluster

    @classmethod
    def load(
        cls, spec: ServiceSpec, path: str, **kwargs
    ) -> "ProcessCoordinator":
        """Restore a :meth:`save` archive; workers come back pre-warmed."""
        cluster = cls.from_state(spec, read_snapshot(path), **kwargs)
        if cluster._chain_id is not None:
            cluster._chain = [path]
        cluster.warmup()
        return cluster

    @classmethod
    def load_chain(
        cls, spec: ServiceSpec, paths: Sequence[str], **kwargs
    ) -> "ProcessCoordinator":
        """Restore a full + incremental snapshot chain, deterministically."""
        paths = list(paths)
        cluster = cls.from_state(spec, resolve_chain(paths), **kwargs)
        if cluster._chain_id is not None:
            cluster._chain = paths
        cluster.warmup()
        return cluster


# ---------------------------------------------------------------------- #
_UNSET = object()


def build_cluster(
    spec: ServiceSpec,
    n_shards=_UNSET,
    backend=_UNSET,
    normalization=_UNSET,
    window_capacity=_UNSET,
    vnodes=_UNSET,
    executor=None,
    cluster: Optional[ClusterSpec] = None,
    **kwargs,
):
    """One replica recipe, two deployments.

    ``backend="thread"`` builds the in-process
    :class:`~repro.cluster.sharded.ShardedForecaster` (the spec is its
    service factory; pass ``executor`` to parallelise fan-outs across
    threads); ``backend="process"`` builds a :class:`ProcessCoordinator`
    with one OS process per shard.  Both expose the same API and produce
    bit-identical forecasts, so the choice is purely operational:
    threads for cheap shards sharing one heap, processes to escape the
    GIL and survive real crashes.

    Passing a validated :class:`~repro.cluster.spec.ClusterSpec` as
    ``cluster`` takes the deployment shape — shard count, backend,
    timeouts and the process backend's retry/breaker knobs — from one
    object instead of loose keyword arguments (which must not be mixed
    in alongside it).
    """
    explicit = {
        name
        for name, value in (
            ("n_shards", n_shards),
            ("backend", backend),
            ("normalization", normalization),
            ("window_capacity", window_capacity),
            ("vnodes", vnodes),
        )
        if value is not _UNSET
    }
    if cluster is not None:
        if kwargs or explicit:
            raise ValueError(
                "pass deployment knobs either through ClusterSpec or as "
                f"keywords, not both: unexpected {sorted(kwargs) + sorted(explicit)}"
            )
        n_shards = cluster.n_shards
        backend = cluster.backend
        normalization = cluster.normalization
        window_capacity = cluster.window_capacity
        vnodes = cluster.vnodes
        if backend == "process":
            kwargs = {
                "request_timeout": cluster.request_timeout,
                "heartbeat_timeout": cluster.heartbeat_timeout,
                "retry_attempts": cluster.retry_attempts,
                "retry_base": cluster.retry_base,
                "retry_cap": cluster.retry_cap,
                "breaker_threshold": cluster.breaker_threshold,
                "breaker_reset": cluster.breaker_reset,
            }
    else:
        n_shards = 2 if n_shards is _UNSET else n_shards
        backend = "thread" if backend is _UNSET else backend
        normalization = "none" if normalization is _UNSET else normalization
        window_capacity = None if window_capacity is _UNSET else window_capacity
        vnodes = 64 if vnodes is _UNSET else vnodes
    if backend == "thread":
        return ShardedForecaster(
            spec,
            n_shards=n_shards,
            normalization=normalization,
            window_capacity=window_capacity,
            vnodes=vnodes,
            executor=executor,
        )
    if backend == "process":
        if executor is not None:
            raise ValueError(
                "the process backend manages its own workers; "
                "executor applies to the thread backend only"
            )
        return ProcessCoordinator(
            spec,
            n_shards=n_shards,
            normalization=normalization,
            window_capacity=window_capacity,
            vnodes=vnodes,
            **kwargs,
        )
    raise ValueError(f"unknown backend {backend!r}; use 'thread' or 'process'")
