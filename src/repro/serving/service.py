"""Micro-batched forecast serving.

:class:`ForecastService` is the request-level inference entry point the
scaling roadmap builds on.  Callers queue rows — a whole sweep's block at
once (:meth:`ForecastService.submit_many`) or one history at a time
(:meth:`ForecastService.submit`, a one-row block on the same path) — and
get back deferred handles; the service coalesces pending rows into a
single padded forward pass under ``no_grad`` once the micro-batch fills
(or on an explicit / handle-triggered :meth:`flush`).  Amortising the
per-call Python and dispatch overhead across the batch is what makes the
paper's lightweight-inference story (Table VII) hold up under
request-at-a-time traffic rather than pre-shaped arrays.

The service also exposes:

* :meth:`predict_many` — synchronous convenience over submit+flush;
* :meth:`backfill` — batched inference over every window of a historical
  series, using the vectorised ``SlidingWindowDataset.as_arrays`` fast path.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import ClassVar, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..config import ModelConfig
from ..stats import CounterStats, counters_dict
from ..core.base import ForecastModel
from ..data.windows import SlidingWindowDataset
from ..runtime.annotations import guarded_by, requires_lock
from .admission import (
    DEFAULT_PRIORITY,
    AdmissionPolicy,
    DeadlineExceeded,
    Overloaded,
    priority_rank,
    resolve_deadline,
)
from .batching import (
    Forecast,
    ForecastRequest,
    ForecastRows,
    group_requests,
    stage_group,
)

__all__ = ["ServiceStats", "ForecastService"]

# Module-level instruments, shared by every service instance in the process
# (per-instance counters live in ServiceStats and export as registry views).
_FLUSH_SECONDS = obs.histogram(
    "repro_serving_flush_seconds", "wall time of one ForecastService flush"
)
_REQUEST_LATENCY_SECONDS = obs.histogram(
    "repro_serving_request_latency_seconds", "submit-to-resolve latency per request"
)
_QUEUE_DEPTH = obs.gauge(
    "repro_serving_queue_depth", "pending requests at the moment a flush started"
)
_FLUSH_OCCUPANCY = obs.histogram(
    "repro_serving_flush_occupancy",
    "fraction of max_batch_size filled per forward pass",
    buckets=tuple((i + 1) / 16 for i in range(16)),
)
_PRIORITY_LATENCY_SECONDS = obs.histogram(
    "repro_serving_priority_latency_seconds",
    "submit-to-resolve latency per request, split by priority class",
    labels=("priority",),
)


@dataclass
class ServiceStats(CounterStats):
    """Counters for observing batching behaviour.

    Submit-path and backfill counters are kept separate so that
    ``mean_batch_size`` — the micro-batching efficiency of the request API —
    is not diluted by bulk backfill passes.  ``reset``/``merge`` come from
    :class:`repro.stats.CounterStats`; ``largest_batch`` aggregates by max
    cluster-wide, so the fleet-level ``mean_batch_size`` stays meaningful.
    """

    MAXED: ClassVar[Tuple[str, ...]] = ("largest_batch",)

    requests: int = 0
    forward_passes: int = 0          # submit-path passes only
    flushes: int = 0
    padded_requests: int = 0
    largest_batch: int = 0
    backfill_batches: int = 0
    backfill_windows: int = 0
    shed_overloaded: int = 0         # refused/displaced at a full queue
    shed_expired: int = 0            # refused at submit: deadline already past
    deadline_misses: int = 0         # expired while queued, shed at flush
    timer_flushes: int = 0           # flushes fired by the deadline timer

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.forward_passes if self.forward_passes else 0.0

    def as_dict(self) -> dict:
        """Counters plus derived ratios, for reports and benchmarks."""
        return {**counters_dict(self), "mean_batch_size": self.mean_batch_size}


def check_max_batch_size(max_batch_size: int) -> None:
    if max_batch_size < 1:
        raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")


@guarded_by("_pending", "_rows", "stats", "_timer", "_timer_at", lock="_lock")
class ForecastService:
    """Serve a forecasting model behind a micro-batching request API.

    Construct around a live model::

        service = ForecastService(model)

    (a deployment builds its replicas from a
    :class:`~repro.cluster.spec.ServiceSpec`, whose ``weights_path``
    serves trained weights).

    Submitting never runs the model immediately: rows accumulate until
    ``max_batch_size`` of them are pending, then one padded batch is pushed
    through ``ForecastModel.predict`` (eval mode + ``no_grad``, training
    flag restored).  ``Forecast.result()`` flushes on demand, so a
    single-request caller still gets an answer synchronously.
    """

    def __init__(
        self,
        model: ForecastModel,
        max_batch_size: int = 32,
        compiled: bool = True,
        admission: Optional[AdmissionPolicy] = None,
    ) -> None:
        check_max_batch_size(max_batch_size)
        self.model = model
        self.config: ModelConfig = model.config
        self.max_batch_size = max_batch_size
        #: route batch forwards through the model's compiled inference plan
        #: (bit-identical to eager; models that never opted into
        #: ``supports_compiled_plan`` silently stay eager).
        self.compiled = bool(compiled)
        if self.compiled and getattr(model, "supports_compiled_plan", False):
            # Build the predictor (and its repro_plan_cache view) up front.
            model.compiled_predictor()
        #: admission policy; the default is inert (unbounded queue, no
        #: deadlines) so un-configured services behave exactly as before.
        self.admission = admission if admission is not None else AdmissionPolicy()
        self.stats = ServiceStats()
        # Queued runs of rows in admission order, and the rows they hold.
        self._pending: List[ForecastRequest] = []
        self._rows = 0
        self._timer: Optional[threading.Timer] = None
        self._timer_at = 0.0
        self._lock = threading.RLock()
        # Export the per-instance counters through the metrics registry;
        # the view holds the service weakly and dies with it.
        obs.register_stats("repro_serving", self.stats_snapshot)

    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Number of queued, not-yet-resolved rows."""
        with self._lock:
            return self._rows

    def submit(
        self,
        history: np.ndarray,
        future_numerical: Optional[np.ndarray] = None,
        future_categorical: Optional[np.ndarray] = None,
        priority: str = DEFAULT_PRIORITY,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> Forecast:
        """Queue one request; returns a handle that resolves on flush.

        ``history`` is a single ``[time, channels]`` series tail (``[time]``
        for one channel).  It is copied at submit time — changing the
        caller's array afterwards does not change the forecast — into a
        one-row :meth:`submit_many` block: the most recent ``input_length``
        steps, right-aligned, with shorter histories left-padded by
        repeating their oldest step.  Future covariates, when given, must cover the
        model horizon.

        ``priority`` is one of :data:`~repro.serving.admission.PRIORITIES`;
        ``timeout`` (relative seconds) or ``deadline`` (absolute, on the
        :func:`repro.obs.now` clock) bound how long the caller will wait.
        Under the service's :class:`AdmissionPolicy` an over-capacity or
        already-expired request raises :class:`Overloaded` /
        :class:`DeadlineExceeded` here instead of queueing unboundedly; a
        queued request whose deadline lapses before its flush fails its
        handle with :class:`DeadlineExceeded`.
        """
        rank = priority_rank(priority)
        input_length, n_channels = self.config.input_length, self.config.n_channels
        history = np.asarray(history)
        if history.ndim == 1:
            history = history[:, None]
        if history.ndim != 2:
            raise ValueError(f"history must be [time, channels], got shape {history.shape}")
        if history.shape[1] != n_channels:
            raise ValueError(f"expected {n_channels} channels, got {history.shape[1]}")
        observed = min(len(history), input_length)
        if observed == 0:
            raise ValueError("history must contain at least one time step")
        block = np.empty((1, input_length, n_channels), dtype=np.float32)
        block[0, input_length - observed:] = history[len(history) - observed:]
        observed_lengths = np.array([observed])
        self._pad_block(block, observed_lengths)
        runs = self._covariate_runs(1, [future_numerical], [future_categorical])
        rows = self._enqueue(block, observed_lengths, runs, priority, rank, timeout, deadline)
        refused = rows.refused.get(0)
        if refused is not None:
            raise refused
        return Forecast(rows, 0)

    def submit_many(
        self,
        histories: np.ndarray,
        observed_lengths: np.ndarray,
        future_numerical: Optional[Sequence[Optional[np.ndarray]]] = None,
        future_categorical: Optional[Sequence[Optional[np.ndarray]]] = None,
        priority: str = DEFAULT_PRIORITY,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> ForecastRows:
        """Queue a block of rows at once; returns their deferred results.

        ``histories`` is ``[n, input_length, channels]`` float32 with each
        row's ``observed_lengths[i]`` observed steps right-aligned; the
        service takes ownership and left-pads the rest in place with the
        row's oldest observed step.
        ``future_numerical`` / ``future_categorical`` are per-row sequences
        (``None`` entries, or ``None`` altogether, for rows without).

        Every row gets the admission outcome ``n`` successive ``submit``
        calls would give it — refusals, displacements, a flush each time
        the queue reaches ``max_batch_size`` — and the same counters move.
        Refused rows do not raise: they fail their row (listed in
        :attr:`ForecastRows.refused`) and the rest of the block proceeds.
        Unlike ``n`` submits, the block shares one clock read, so
        ``timeout`` yields one deadline for every row.  Malformed input
        raises ``ValueError`` before any row is admitted.
        """
        rank = priority_rank(priority)
        input_length, n_channels = self.config.input_length, self.config.n_channels
        if (
            not isinstance(histories, np.ndarray)
            or histories.dtype != np.float32
            or histories.shape[1:] != (input_length, n_channels)
        ):
            raise ValueError(
                f"histories must be float32 [n, {input_length}, {n_channels}], got "
                f"{getattr(histories, 'dtype', type(histories).__name__)} "
                f"{np.shape(histories)}"
            )
        n = len(histories)
        observed = np.asarray(observed_lengths, dtype=np.int64)
        if observed.shape != (n,) or (n and (observed.min() < 1 or observed.max() > input_length)):
            raise ValueError(
                f"observed_lengths must be {n} lengths in [1, {input_length}]"
            )
        self._pad_block(histories, observed)
        runs = self._covariate_runs(n, future_numerical, future_categorical)
        return self._enqueue(histories, observed, runs, priority, rank, timeout, deadline)

    def _pad_block(self, histories: np.ndarray, observed: np.ndarray) -> None:
        """Left-pad short rows of a right-aligned block in place by
        repeating each row's oldest observed step (edge padding).

        The one padding routine: ``submit`` and ``submit_many`` both pad here.
        """
        input_length = self.config.input_length
        for row, length in enumerate(observed.tolist()):
            if length < input_length:
                pad = input_length - length
                histories[row, :pad] = histories[row, pad]

    def _enqueue(
        self,
        histories: np.ndarray,
        observed: np.ndarray,
        runs: List[Tuple[int, int, Optional[np.ndarray], Optional[np.ndarray]]],
        priority: str,
        rank: int,
        timeout: Optional[float],
        deadline: Optional[float],
    ) -> ForecastRows:
        """Stamp a padded block and admit its covariate runs in row order."""
        # The scheduling clock is unconditional: deadlines and the flush
        # timer need real timestamps whether or not metrics are recording.
        now = obs.now()
        deadline = resolve_deadline(now, timeout, deadline, self.admission)
        rows = ForecastRows(self.flush, len(histories))
        requests = [
            ForecastRequest(
                histories[start:stop], observed[start:stop], numerical, categorical,
                rows, start, now, priority, deadline,
            )
            for start, stop, numerical, categorical in runs
        ]
        with self._lock:
            for request in requests:
                self._admit_locked(request, rank, now)
        return rows

    @requires_lock("_lock")
    def _admit_locked(self, request: ForecastRequest, rank: int, now: float) -> None:
        """Admit a run's rows in order, or shed them typed, row by row.

        Expired work is refused outright.  At a full queue each arriving
        row displaces the worst strictly-lower-priority queued row (whose
        handle fails :class:`Overloaded`); with nothing lower-priority to
        displace, the row — and so every later row of the run, which
        meets the same queue — is refused.  Rows between those decisions
        are admitted in one step, up to the next ``max_batch_size``
        flush, so the outcome matches one ``submit`` per row.
        """
        n = len(request)
        if request.deadline is not None and request.deadline <= now:
            self.stats.shed_expired += n
            request._fail(
                DeadlineExceeded(
                    f"deadline passed {now - request.deadline:.3f}s before admission"
                ),
                refused=True,
            )
            return
        limit = self.admission.queue_limit
        start = 0
        queued_from: Optional[int] = None   # first row of this run still queued
        while start < n:
            if limit is not None and self._rows >= limit:
                victim = self._evict_locked(rank)
                if victim is None:
                    rest = n - start
                    self.stats.shed_overloaded += rest
                    request.span(start, n)._fail(
                        Overloaded(
                            f"pending queue full ({limit}) with no lower-priority "
                            f"work to displace for a {request.priority!r} arrival"
                        ),
                        refused=True,
                    )
                    break
                self.stats.shed_overloaded += 1
                victim._fail(
                    Overloaded(
                        f"{victim.priority!r} request displaced from a full queue "
                        f"({limit}) by a {request.priority!r} arrival"
                    )
                )
                take = 1
            else:
                take = min(n - start, self.max_batch_size - self._rows)
                if limit is not None:
                    take = min(take, limit - self._rows)
            stop = start + take
            # This run is always the queue's last entry while it admits
            # (eviction only takes strictly lower classes, flush empties).
            if queued_from is None:
                queued_from = start
                self._pending.append(request.span(start, stop))
            else:
                self._pending[-1] = request.span(queued_from, stop)
            self._rows += take
            self.stats.requests += take
            self.stats.padded_requests += int(
                np.count_nonzero(request.observed_length[start:stop] < self.config.input_length)
            )
            start = stop
            if self._rows >= self.max_batch_size:
                self._flush_locked()
                queued_from = None
        if queued_from is not None and request.deadline is not None:
            self._arm_timer_locked(request)

    @requires_lock("_lock")
    def _evict_locked(self, incoming_rank: int) -> Optional[ForecastRequest]:
        """Pop the eviction victim: worst priority class, newest row within it.

        Returns the victim row (as a one-row run), or ``None`` when nothing
        queued ranks strictly below the arrival — equal-priority work is
        never displaced (FIFO fairness within a class).
        """
        victim_index = -1
        victim_rank = incoming_rank
        for index in range(len(self._pending) - 1, -1, -1):
            rank = priority_rank(self._pending[index].priority)
            if rank > victim_rank:
                victim_index = index
                victim_rank = rank
        if victim_index < 0:
            return None
        entry = self._pending[victim_index]
        last = len(entry) - 1
        if last:
            self._pending[victim_index] = entry.span(0, last)
        else:
            del self._pending[victim_index]
        self._rows -= 1
        return entry.span(last, last + 1)

    @requires_lock("_lock")
    def _arm_timer_locked(self, request: ForecastRequest) -> None:
        """Schedule a background flush at ``flush_fraction`` of the budget.

        A single timer tracks the earliest required firing; a new
        deadline only re-arms it when it needs the flush sooner than the
        timer already in flight.
        """
        budget = request.deadline - request.submitted_at
        fire_at = request.submitted_at + budget * self.admission.flush_fraction
        if self._timer is not None:
            if self._timer_at <= fire_at:
                return
            self._timer.cancel()
        timer = threading.Timer(max(fire_at - obs.now(), 0.0), self._deadline_flush)
        timer.daemon = True
        self._timer = timer
        self._timer_at = fire_at
        timer.start()

    @requires_lock("_lock")
    def _cancel_timer_locked(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self._timer_at = 0.0

    def _deadline_flush(self) -> None:
        """Timer callback: flush whatever is pending before deadlines lapse."""
        with self._lock:
            self._timer = None
            self._timer_at = 0.0
            if self._pending:
                self.stats.timer_flushes += 1
                self._flush_locked()

    def close(self) -> None:
        """Flush remaining work and stop the background flush timer."""
        with self._lock:
            self._flush_locked()
            self._cancel_timer_locked()

    def flush(self) -> int:
        """Run every pending request through the model; returns the count."""
        with self._lock:
            return self._flush_locked()

    def stats_snapshot(self) -> ServiceStats:
        """A consistent copy of the counters, taken under the service lock.

        ``self.stats`` is mutated field-by-field inside submit/flush;
        merging live objects across a cluster while shards keep serving
        could tear a ``requests``/``forward_passes`` pair mid-update.  The
        copy pins each service at one self-consistent point.
        """
        with self._lock:
            return ServiceStats(**asdict(self.stats))

    def reset_stats(self) -> None:
        """Zero the counters under the service lock (between benchmark
        phases), so an in-flight submit/flush can't interleave its
        field-by-field increments with the reset."""
        with self._lock:
            self.stats.reset()

    def predict_many(
        self,
        histories: Sequence[np.ndarray],
        future_numerical: Optional[np.ndarray] = None,
        future_categorical: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Submit a batch of histories and block for the stacked forecasts.

        ``future_numerical`` / ``future_categorical`` are per-request arrays
        aligned with ``histories`` (``[n, horizon, c]``) or ``None``.
        """
        if not len(histories):
            return np.empty((0, self.config.horizon, self.config.n_channels), dtype=np.float32)
        handles = [
            self.submit(
                history,
                future_numerical=None if future_numerical is None else future_numerical[i],
                future_categorical=None if future_categorical is None else future_categorical[i],
            )
            for i, history in enumerate(histories)
        ]
        self.flush()
        return np.stack([handle.result() for handle in handles])

    def backfill(
        self,
        dataset: SlidingWindowDataset,
        batch_size: Optional[int] = None,
    ) -> np.ndarray:
        """Forecast every window of a historical dataset, in batches.

        Uses the vectorised ``as_arrays`` fast path to materialise window
        batches without a per-sample Python loop, then runs them through the
        model under ``no_grad``.  Returns ``[n_windows, horizon, channels]``
        predictions aligned with the dataset's window indexing.
        ``batch_size`` defaults to ``max_batch_size``.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        for field in ("input_length", "horizon", "n_channels"):
            expected = getattr(self.config, field)
            actual = getattr(dataset, field)
            if actual != expected:
                raise ValueError(
                    f"dataset {field} {actual} does not match model {field} {expected}"
                )
        step = batch_size or self.max_batch_size
        outputs: List[np.ndarray] = []
        indices = np.arange(len(dataset))
        for start in range(0, len(indices), step):
            batch = dataset.as_arrays(indices[start : start + step])
            # The lock keeps stats updates and the model's train/eval flag
            # flips race-free against concurrent submit()/flush() callers.
            with self._lock:
                outputs.append(self._run_batch(batch))
                self.stats.backfill_batches += 1
                self.stats.backfill_windows += len(batch["x"])
        return np.concatenate(outputs, axis=0)

    # ------------------------------------------------------------------ #
    def _covariate_runs(
        self,
        n: int,
        future_numerical: Optional[Sequence[Optional[np.ndarray]]],
        future_categorical: Optional[Sequence[Optional[np.ndarray]]],
    ) -> List[Tuple[int, int, Optional[np.ndarray], Optional[np.ndarray]]]:
        """Validate per-row covariates in one pass; cut rows into runs.

        Covariates supplied to a model (or config) that does not consume
        them are silently dropped, mirroring the trainer's behaviour for
        covariate-agnostic baselines.  For models that *do* consume them,
        validation is strict at submit time: a combination the covariate
        encoder would reject mid-forward (missing half of a required pair,
        wrong channel width) raises here, on the submitting caller, instead
        of blowing up an entire micro-batch at flush time.  Rows with
        covariates stack into ``[k, horizon, c]`` arrays (one dtype cast and
        one shape check per kind), and the block is cut into maximal
        ``(start, stop, numerical, categorical)`` runs of one covariate
        signature, in row order.
        """
        if (
            not self.model.supports_covariates
            or not self.config.has_covariates
            or (future_numerical is None and future_categorical is None)
        ):
            return [(0, n, None, None)]
        numerical_rows = future_numerical if future_numerical is not None else [None] * n
        categorical_rows = future_categorical if future_categorical is not None else [None] * n
        if len(numerical_rows) != n or len(categorical_rows) != n:
            raise ValueError(f"per-row covariates must list {n} entries")
        present = [
            numerical is not None or categorical is not None
            for numerical, categorical in zip(numerical_rows, categorical_rows)
        ]
        with_covariates = [row for row in range(n) if present[row]]
        if not with_covariates:
            return [(0, n, None, None)]
        horizon = self.config.horizon
        stacked = []
        for name, values, dtype, width in (
            ("future_numerical", numerical_rows, np.float32, self.config.covariate_numerical_dim),
            (
                "future_categorical",
                categorical_rows,
                np.int64,
                len(self.config.covariate_categorical_cardinalities),
            ),
        ):
            if width == 0:
                stacked.append(None)
                continue
            rows = [values[row] for row in with_covariates]
            if any(value is None for value in rows):
                raise ValueError(
                    f"model requires {name} ([horizon={horizon}, {width}]) when "
                    "any covariates are supplied"
                )
            try:
                block = np.asarray(rows, dtype=dtype)
            except ValueError:   # rows of differing shapes
                block = None
            if block is None or block.shape[1:] != (horizon, width):
                got = "rows of differing shapes" if block is None else f"shape {block.shape[1:]}"
                raise ValueError(f"{name} must be [horizon={horizon}, {width}], got {got}")
            stacked.append(block)
        numerical, categorical = stacked
        if len(with_covariates) == n:
            return [(0, n, numerical, categorical)]
        runs = []
        start = 0
        position = 0   # index into the stacked covariate rows
        for row in range(1, n + 1):
            if row < n and present[row] == present[start]:
                continue
            if present[start]:
                end = position + row - start
                runs.append((
                    start, row,
                    None if numerical is None else numerical[position:end],
                    None if categorical is None else categorical[position:end],
                ))
                position = end
            else:
                runs.append((start, row, None, None))
            start = row
        return runs

    def warmup(self) -> int:
        """Pre-trace the compiled plan off the request path.

        First-request latency on a fresh service (cold start, failover
        replacement, restored snapshot) includes the plan trace; ``warmup``
        moves that cost up front.  One plan traced at ``max_batch_size``
        serves every smaller batch on leading-dim slices, so warming is one
        trace, not a shape sweep.  Returns the number of plans actually
        traced (0 when the model or the service runs eager, or when the
        model's trace is unsupported and it serves eager).
        """
        if not self.compiled or not getattr(self.model, "supports_compiled_plan", False):
            return 0
        predictor = self.model.compiled_predictor()
        template = np.zeros(
            (self.max_batch_size, self.config.input_length, self.config.n_channels),
            dtype=np.float32,
        )
        with self._lock:
            before = predictor.traces
            self.model.predict(template, compiled=True)
            return predictor.traces - before

    def _run_batch(self, batch) -> np.ndarray:
        """One padded forward pass (eval + ``no_grad`` via ``predict``).

        With ``compiled`` enabled the pass replays the model's traced
        inference plan for this batch shape — bit-identical output, no
        autograd bookkeeping, no per-op allocations.
        """
        kwargs = {}
        if self.model.supports_covariates:
            kwargs = {
                "future_numerical": batch.get("future_numerical"),
                "future_categorical": batch.get("future_categorical"),
            }
        return self.model.predict(batch["x"], compiled=self.compiled, **kwargs)

    @requires_lock("_lock")
    def _shed_expired_locked(self, pending: List[ForecastRequest]) -> List[ForecastRequest]:
        """Fail queued rows whose deadline lapsed; return the live runs.

        Running an expired request would spend forward-pass capacity on an
        answer nobody is waiting for — under overload exactly the spend
        that pushes the *next* request past its deadline too.
        """
        live: List[ForecastRequest] = []
        now = 0.0
        for request in pending:
            if request.deadline is not None:
                if not now:
                    now = obs.now()
                if request.deadline <= now:
                    self.stats.deadline_misses += len(request)
                    request._fail(
                        DeadlineExceeded(
                            f"{request.priority!r} request expired in queue "
                            f"({now - request.deadline:.3f}s past deadline)"
                        )
                    )
                    continue
            live.append(request)
        return live

    def _chunks(self, live: List[ForecastRequest]) -> Iterator[List[ForecastRequest]]:
        """Cut queued runs into consecutive ``max_batch_size``-row chunks."""
        chunk: List[ForecastRequest] = []
        room = self.max_batch_size
        for request in live:
            start, n = 0, len(request)
            while start < n:
                take = min(room, n - start)
                chunk.append(request.span(start, start + take))
                start += take
                room -= take
                if not room:
                    yield chunk
                    chunk, room = [], self.max_batch_size
        if chunk:
            yield chunk

    @requires_lock("_lock")
    def _flush_locked(self) -> int:
        if not self._pending:
            return 0
        self._cancel_timer_locked()
        started = obs.now() if obs.metrics_enabled() else 0.0
        pending, self._pending = self._pending, []
        queued, self._rows = self._rows, 0
        if started:
            _QUEUE_DEPTH.set(queued)
        self.stats.flushes += 1
        live = self._shed_expired_locked(pending)
        if not live:
            return queued
        if len(live) > 1:
            # Stable priority order: higher classes land in earlier forward
            # passes, FIFO preserved within a class.  Rows of a batch are
            # independent, so reordering across rows never changes any
            # row's bits — admitted traffic stays parity-clean.
            live.sort(key=lambda request: priority_rank(request.priority))
        with obs.span("service.flush", requests=sum(len(request) for request in live)):
            for chunk in self._chunks(live):
                for members in group_requests(chunk):
                    # A failing forward must not take unrelated requests down
                    # with it: the error is attached to the failing group's
                    # handles (raised from their result()), and the remaining
                    # groups still run.
                    size = sum(len(request) for request in members)
                    self.stats.forward_passes += 1
                    self.stats.largest_batch = max(self.stats.largest_batch, size)
                    if started:
                        _FLUSH_OCCUPANCY.observe(size / self.max_batch_size)
                    try:
                        with obs.span("batch.assemble", requests=size):
                            batch = stage_group(members)
                        output = self._run_batch(batch)
                    except Exception as error:  # noqa: BLE001 - routed to handles
                        for request in members:
                            request._fail(error)
                        continue
                    resolved_at = obs.now() if started else 0.0
                    row = 0
                    for request in members:
                        n = len(request)
                        request._resolve(output[row:row + n])
                        row += n
                        if resolved_at and request.submitted_at:
                            # Rows of a run share their submit stamp and
                            # this pass's resolve stamp: one latency, n rows.
                            latency = resolved_at - request.submitted_at
                            _REQUEST_LATENCY_SECONDS.observe(latency, count=n)
                            _PRIORITY_LATENCY_SECONDS.labels(
                                priority=request.priority
                            ).observe(latency, count=n)
        if started:
            _FLUSH_SECONDS.observe(obs.now() - started)
        return queued
