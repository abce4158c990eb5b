"""One benchmark run: set up, drive ticks, check against the oracle, report.

A run of ``workload`` with ``seed`` for ``seconds``:

1. generates the inputs of the first ticks from the seed
   (:mod:`ledgerbench.inputs`);
2. sets the cluster up at least ``SETUP_REPEATS`` times and until
   ``SETUP_BUDGET_S`` seconds were spent, each time from construction
   through worker spawn, history ingest and plan warm-up to the first warm
   sweep; the last one stays up.  The untraced run repeats this window
   after its measured ticks and reports the faster window's median as
   ``setup_s``;
3. drives ``WARMUP_TICKS`` untimed ticks, then ``CALIBRATION_TICKS`` ticks
   whose rate sizes the rest of the inputs, generated from the same seed
   before any measured tick (tick ``t``'s inputs do not depend on how many
   ticks are generated);
4. measures ticks for ``seconds`` (untraced run) or for ``seconds / 2``
   untraced plus ``seconds / 2`` under the span ledger (traced run).
   Throughput and the p95 tails count every measured tick; the p50 timings
   count the faster half of the run (:meth:`Phase.median_ms`);
5. replays the same inputs through an unsharded, eager
   ``StreamingForecaster`` and requires the last tick's forecasts to match
   bit for bit, with no failed forecast and no compiled-plan fallback.

``repro.obs`` stays at its shipped defaults (metrics on, tracing off) in
both runs; the traced run's spans come from :mod:`ledgerbench.ledger`.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.cluster import build_cluster
from repro.streaming import StreamingForecaster

from .host import peak_rss_mb, reset_peak_rss
from .inputs import WorkloadInputs, generate
from .ledger import Ledger, check_nesting, instrument
from .workloads import N_SHARDS, WORKLOADS, Workload

__all__ = ["END_TO_END", "PER_LAYER", "RunResult", "run_workload"]

#: set-up runs in two windows, before and after the measured ticks, each at
#: least SETUP_REPEATS times and until SETUP_BUDGET_S seconds were spent (at
#: most SETUP_MAX); setup_s is the faster window's median, because a window
#: can fall wholly inside one of the host's slow spells
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
SETUP_MAX = 100
WARMUP_TICKS = 10
CALIBRATION_TICKS = 20
#: inputs cover this many times the ticks the calibration rate predicts, so
#: a host that speeds up after calibration does not run out of them
TICK_HEADROOM = 4
#: the p50 timings come from the faster half of a phase's BLOCK_S-second
#: blocks (see Phase.median_ms)
BLOCK_S = 0.5
_MIB = float(1 << 20)

END_TO_END: Dict[str, str] = {
    "sweep_ms.p50": "ms",
    "ingest_ms.p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# The p95 tails and the throughput over every measured tick ride with the
# per-layer metrics, which carry no bound: on the benchmark host they spread
# between runs by nearly or more than the largest bound.
PER_LAYER: Dict[str, str] = {
    "sweep_ms.p95": "ms",
    "ingest_ms.p95": "ms",
    "forecasts_per_s": "1/s",
    "nn.replay_us_per_row": "us",
    "nn.passes_per_tick": "count",
    "nn.plan_traces": "count",
    "nn.plan_fallbacks": "count",
    "serving.submit_us_per_req": "us",
    "serving.flush_self_us_per_tick": "us",
    "serving.batch_rows_mean": "rows",
    "serving.shed_total": "count",
    "store.ingest_us_per_row": "us",
    "store.latest_us_per_req": "us",
    "streaming.scaler_us_per_row": "us",
    "streaming.ingest_self_us_per_row": "us",
    "streaming.forecast_self_us_per_req": "us",
    "cluster.ingest_self_us_per_row": "us",
    "cluster.sweep_self_us_per_tick": "us",
    "runtime.lock_wait_us_per_tick": "us",
    "process.rpcs_per_tick": "count",
    "process.coord_self_us_per_tick": "us",
    "process.send_self_us_per_tick": "us",
    "process.recv_wait_us_per_tick": "us",
    "wire.pack_us_per_tick": "us",
    "wire.unpack_us_per_tick": "us",
    "wire.bytes_per_tick": "B",
    "wire.frames_per_tick": "count",
    "ledger.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


@dataclass
class Phase:
    """Per-tick timings and outcomes of one measured phase."""

    at_s: List[float] = field(default_factory=list)      # tick start, from phase start
    ingest_s: List[float] = field(default_factory=list)
    sweep_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0     # from the phase's start to the end of its last tick
    delivered: int = 0      # forecasts resolved
    forecasts: int = 0
    failed: int = 0

    @property
    def ticks(self) -> int:
        return len(self.sweep_s)

    def ms(self, part: str, percentile: float) -> float:
        """A percentile of the per-tick ``"ingest"`` or ``"sweep"`` time."""
        return float(np.percentile(getattr(self, f"{part}_s"), percentile)) * 1e3

    def median_ms(self, part: str) -> float:
        """Median per-tick ``"ingest"`` or ``"sweep"`` time over the ticks of
        the faster half of the phase's ``BLOCK_S`` blocks.

        The benchmark host slows a CPU by up to 2x for seconds to minutes
        at a time (other tenants of its physical core), over a share of a
        run that varies from run to run.  Where that share passes one half,
        the median over every tick jumps to the slow speed.  Half the
        blocks, ranked by their median tick, keep that noise out while a
        cost the program adds to most blocks still shows.
        """
        block = (np.asarray(self.at_s) // BLOCK_S).astype(np.int64)
        busy = np.asarray(self.ingest_s) + np.asarray(self.sweep_s)
        ids = np.unique(block)
        medians = np.array([np.median(busy[block == i]) for i in ids])
        faster = ids[np.argsort(medians, kind="stable")[: math.ceil(len(ids) / 2)]]
        kept = np.asarray(getattr(self, f"{part}_s"))[np.isin(block, faster)]
        return float(np.median(kept)) * 1e3


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    samples: int                        # ticks behind the percentile metrics
    problems: List[str]
    ledger: Optional[Ledger] = None     # the traced run's span ledger

    def record(self) -> dict:
        """The benchmark's result line."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


class _TickLoop:
    """The closed-loop caller: one tick at a time, inputs by tick index."""

    def __init__(self, workload: Workload, inputs: WorkloadInputs, cluster) -> None:
        self.workload = workload
        self.inputs = inputs
        self.cluster = cluster
        self.ticks_done = 0
        self.last: Dict[str, np.ndarray] = {}
        self.first_error: Optional[str] = None
        # The handle layer a sweep's result() calls land in.
        self.result_span = "streaming.result" if workload.backend == "thread" else "coord.result"

    def run(self, seconds: float, ledger: Optional[Ledger] = None) -> Phase:
        phase = Phase()
        # A thread-backend tick runs on the caller's one thread.  It moves to
        # the next CPU every block, so a CPU slowed for minutes by another
        # tenant of its physical core slows only blocks the p50 timings drop.
        # The process backend keeps every CPU for its workers.
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed) if self.workload.backend == "thread" else []
        block = -1
        gc.collect()  # garbage left by set-up is not the measured ticks' to collect
        started = perf_counter()
        deadline = started + seconds
        try:
            while perf_counter() < deadline:
                if self.ticks_done >= self.inputs.max_ticks:
                    print("ledgerbench: generated ticks exhausted early", file=sys.stderr)
                    break
                now_block = int((perf_counter() - started) // BLOCK_S)
                if cpus and now_block != block:
                    block = now_block
                    os.sched_setaffinity(0, {cpus[block % len(cpus)]})
                self.tick(phase, ledger, started)
        finally:
            os.sched_setaffinity(0, allowed)
        phase.wall_s = perf_counter() - started
        return phase

    def tick(self, phase: Phase, ledger: Optional[Ledger], phase_start: float = 0.0) -> None:
        cluster, tenants = self.cluster, self.inputs.tenants
        rows = self.inputs.rows[self.ticks_done]
        covariates = self.inputs.covariates(self.ticks_done + 1)
        if ledger is not None:
            ledger.enter("tick")
        started = perf_counter()
        for tenant, row in zip(tenants, rows):
            cluster.ingest(tenant, row)
        ingested = perf_counter()
        results: Dict[str, np.ndarray] = {}
        try:
            handles = cluster.forecast_all(**covariates)
        except Exception as error:  # noqa: BLE001 - a failed sweep is counted, the run goes on
            self._failure(error)
            handles = {}
        if ledger is not None:
            ledger.enter(self.result_span)
        for tenant, handle in handles.items():
            try:
                results[tenant] = handle.result()
            except Exception as error:  # noqa: BLE001 - a failed forecast is counted
                self._failure(error)
        if ledger is not None:
            ledger.exit()
        finished = perf_counter()
        if ledger is not None:
            ledger.exit()
        self.ticks_done += 1
        phase.at_s.append(started - phase_start)
        phase.ingest_s.append(ingested - started)
        phase.sweep_s.append(finished - ingested)
        phase.delivered += len(results)
        phase.forecasts += len(tenants)
        phase.failed += len(tenants) - len(results)
        self.last = results

    def _failure(self, error: Exception) -> None:
        if self.first_error is None:
            self.first_error = f"{type(error).__name__}: {error}"
            print(f"ledgerbench: forecast failed: {self.first_error}", file=sys.stderr)


def _set_up(workload: Workload, inputs: WorkloadInputs) -> Tuple[object, float]:
    """Construction through history ingest and warm-up to the first warm sweep."""
    gc.collect()
    started = perf_counter()
    cluster = build_cluster(
        workload.spec,
        n_shards=N_SHARDS,
        backend=workload.backend,
        normalization=workload.normalization,
    )
    try:
        for tenant, history in zip(inputs.tenants, inputs.history):
            cluster.ingest(tenant, history)
        cluster.warmup()
        for handle in cluster.forecast_all(**inputs.covariates(0)).values():
            handle.result()
    except BaseException:
        _close(cluster, workload)
        raise
    return cluster, perf_counter() - started


def _close(cluster, workload: Workload) -> None:
    if workload.backend == "process":
        cluster.close()


def _plan_counters(cluster, workload: Workload) -> Tuple[int, int]:
    """(traces, fallbacks) summed over every replica's compiled predictor."""
    if workload.backend == "thread":
        predictors = [
            cluster.shard(shard_id).service.model.compiled_predictor()
            for shard_id in cluster.shard_ids()
        ]
        return (
            sum(p.traces for p in predictors),
            sum(p.fallbacks for p in predictors),
        )
    views = [snapshot["views"] for snapshot in cluster.worker_metrics().values()]
    return (
        int(sum(v.get("repro_plan_cache_traces", 0) for v in views)),
        int(sum(v.get("repro_plan_cache_fallbacks", 0) for v in views)),
    )


def _lock_wait_seconds() -> float:
    """Total of the ``repro_lock_wait_seconds`` histogram, all locks and modes."""
    family = obs.default_registry().snapshot()["metrics"].get("repro_lock_wait_seconds")
    return sum(series["sum"] for series in family["series"]) if family else 0.0


def _worker_pids(cluster, workload: Workload) -> List[int]:
    if workload.backend == "process":
        return [cluster.worker_pid(shard_id) for shard_id in cluster.shard_ids()]
    return []


def _own_peak_mb(inputs: WorkloadInputs) -> float:
    """This process's peak resident set less the benchmark's input arrays."""
    return peak_rss_mb([os.getpid()]) - inputs.nbytes / _MIB


def reference_forecasts(
    workload: Workload, inputs: WorkloadInputs, ticks_done: int
) -> Dict[str, np.ndarray]:
    """The oracle: the same ingests through one unsharded, eager forecaster."""
    service = replace(workload.spec, compiled=False).build()
    reference = StreamingForecaster(service, normalization=workload.normalization)
    for tenant, history in zip(inputs.tenants, inputs.history):
        reference.ingest(tenant, history)
    for rows in inputs.rows[:ticks_done]:
        for tenant, row in zip(inputs.tenants, rows):
            reference.ingest(tenant, row)
    handles = reference.forecast_all(list(inputs.tenants), **inputs.covariates(ticks_done))
    return {tenant: handle.result() for tenant, handle in handles.items()}


def _set_up_repeatedly(
    workload: Workload, inputs: WorkloadInputs, repeats: int, budget_s: float, keep: bool
) -> Tuple[Optional[object], List[float]]:
    """Set up ``repeats`` times and until ``budget_s`` was spent; ``keep``
    the last cluster up, or close it too."""
    cluster = None
    times: List[float] = []
    while len(times) < repeats or (sum(times) < budget_s and len(times) < SETUP_MAX):
        if cluster is not None:
            _close(cluster, workload)
            cluster = None
        cluster, elapsed = _set_up(workload, inputs)
        times.append(elapsed)
    if not keep:
        _close(cluster, workload)
        cluster = None
    return cluster, times


def _problems(
    inputs: WorkloadInputs, loop: _TickLoop, expected: Dict[str, np.ndarray],
    attempted: int, failed: int, fallbacks: int,
) -> List[str]:
    """Why the run's outputs are not correct; empty when they are."""
    problems = []
    mismatched = [
        tenant
        for tenant in inputs.tenants
        if tenant not in loop.last or not np.array_equal(loop.last[tenant], expected[tenant])
    ]
    if mismatched:
        problems.append(
            f"{len(mismatched)} of {len(inputs.tenants)} last-tick forecasts differ "
            f"from the unsharded eager oracle (first: {mismatched[0]})"
        )
    if failed:
        problems.append(f"{failed} of {attempted} forecasts failed ({loop.first_error})")
    if fallbacks:
        problems.append(f"{fallbacks} compiled-plan fallbacks after warm-up")
    return problems


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    setup_repeats: int = SETUP_REPEATS,
    setup_budget_s: float = SETUP_BUDGET_S,
) -> RunResult:
    """Run one workload end to end and return its metrics and verdict."""
    workload = WORKLOADS[name]
    lead_ticks = WARMUP_TICKS + CALIBRATION_TICKS
    inputs = generate(workload, seed, lead_ticks)
    gc.collect()
    reset_peak_rss()
    cluster, setup_before = _set_up_repeatedly(
        workload, inputs, setup_repeats, setup_budget_s, keep=True
    )
    ledger: Optional[Ledger] = None
    try:
        loop = _TickLoop(workload, inputs, cluster)
        for _ in range(WARMUP_TICKS):
            loop.tick(Phase(), None)
        calibration = perf_counter()
        for _ in range(CALIBRATION_TICKS):
            loop.tick(Phase(), None)
        tick_s = (perf_counter() - calibration) / CALIBRATION_TICKS
        # The program's peak so far; the full inputs' generator temporaries
        # are then kept out of the mark by resetting it.
        set_up_peak = _own_peak_mb(inputs)
        inputs = loop.inputs = generate(
            workload, seed, lead_ticks + math.ceil(TICK_HEADROOM * seconds / tick_s)
        )
        gc.collect()
        reset_peak_rss()
        traces_before, fallbacks_before = _plan_counters(cluster, workload)
        untraced = loop.run(seconds / 2 if trace else seconds)
        phases = [untraced]
        if trace:
            cluster.reset_service_stats()
            lock_wait_before = _lock_wait_seconds()
            ledger = Ledger()
            remove = instrument(ledger, cluster, workload.backend)
            try:
                phases.append(loop.run(seconds / 2, ledger))
            finally:
                remove()
            lock_wait = _lock_wait_seconds() - lock_wait_before
            stats = cluster.service_stats()
        traces, fallbacks = _plan_counters(cluster, workload)
        traces -= traces_before
        fallbacks -= fallbacks_before
        peak_rss = max(set_up_peak, _own_peak_mb(inputs)) + peak_rss_mb(
            _worker_pids(cluster, workload)
        )
    finally:
        _close(cluster, workload)
    if not trace:
        _, setup_after = _set_up_repeatedly(
            workload, inputs, setup_repeats, setup_budget_s, keep=False
        )

    attempted = sum(phase.forecasts for phase in phases)
    failed = sum(phase.failed for phase in phases)
    expected = reference_forecasts(workload, inputs, loop.ticks_done)
    problems = _problems(inputs, loop, expected, attempted, failed, fallbacks)
    if trace:
        problems += check_nesting(ledger.spans)
        metrics = _layer_metrics(workload, phases[1], untraced, ledger, stats, lock_wait)
        metrics["sweep_ms.p95"] = untraced.ms("sweep", 95)
        metrics["ingest_ms.p95"] = untraced.ms("ingest", 95)
        metrics["nn.plan_traces"] = float(traces)
        metrics["nn.plan_fallbacks"] = float(fallbacks)
        metrics["failed_ratio"] = failed / attempted
        metrics["forecasts_per_s"] = untraced.delivered / untraced.wall_s
        units = PER_LAYER
    else:
        metrics = {
            "sweep_ms.p50": untraced.median_ms("sweep"),
            "ingest_ms.p50": untraced.median_ms("ingest"),
            "setup_s": min(statistics.median(setup_before), statistics.median(setup_after)),
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END
    return RunResult(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics={name: metrics[name] for name in units},
        units=units,
        samples=untraced.ticks,
        problems=problems,
        ledger=ledger,
    )


def _layer_metrics(
    workload: Workload,
    traced: Phase,
    untraced: Phase,
    ledger: Ledger,
    stats,
    lock_wait: float,
) -> Dict[str, float]:
    """Per-layer metrics of the traced phase (worker-side layers read 0)."""
    ticks = traced.ticks
    requests = rows = ticks * workload.n_tenants
    us = 1e6
    layers = [name for name in ledger.totals if name != "tick"]
    return {
        "nn.replay_us_per_row": ledger.total("model.predict") * us / requests,
        "nn.passes_per_tick": stats.forward_passes / ticks,
        "serving.submit_us_per_req": ledger.total("service.submit") * us / requests,
        "serving.flush_self_us_per_tick": ledger.self_time("service.flush") * us / ticks,
        "serving.batch_rows_mean": stats.mean_batch_size,
        "serving.shed_total": float(
            stats.shed_overloaded + stats.shed_expired + stats.deadline_misses
        ),
        "store.ingest_us_per_row": ledger.total("store.ingest") * us / rows,
        "store.latest_us_per_req": ledger.total("store.latest") * us / requests,
        "streaming.scaler_us_per_row": ledger.total("scaler.update") * us / rows,
        "streaming.ingest_self_us_per_row": ledger.self_time("streaming.ingest") * us / rows,
        "streaming.forecast_self_us_per_req": ledger.self_time(
            "streaming.forecast", "streaming.flush", "streaming.result"
        ) * us / requests,
        "cluster.ingest_self_us_per_row": ledger.self_time("cluster.ingest") * us / rows,
        "cluster.sweep_self_us_per_tick": ledger.self_time("cluster.forecast_all") * us / ticks,
        "runtime.lock_wait_us_per_tick": lock_wait * us / ticks,
        "process.rpcs_per_tick": ledger.calls("shard.send") / ticks,
        "process.coord_self_us_per_tick": ledger.self_time(
            "coord.ingest", "coord.forecast_all", "coord.result"
        ) * us / ticks,
        "process.send_self_us_per_tick": ledger.self_time("shard.send") * us / ticks,
        "process.recv_wait_us_per_tick": ledger.self_time("shard.receive") * us / ticks,
        "wire.pack_us_per_tick": ledger.total("wire.pack") * us / ticks,
        "wire.unpack_us_per_tick": ledger.total("wire.unpack") * us / ticks,
        "wire.bytes_per_tick": ledger.counts.get("wire.bytes", 0.0) / ticks,
        "wire.frames_per_tick": (ledger.calls("wire.pack") + ledger.calls("wire.unpack")) / ticks,
        "ledger.coverage": ledger.self_time(*layers) / ledger.total("tick"),
        "trace.overhead_ratio": traced.median_ms("sweep") / untraced.median_ms("sweep"),
    }
