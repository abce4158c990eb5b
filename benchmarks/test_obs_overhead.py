"""Benchmark O1 — observability must be near-free when disabled.

Two gates protect the compiled single-request serving path:

* **disabled budget**: with metrics and tracing off, every instrument
  mutator degrades to one attribute check and an early return.  The
  summed cost of all touchpoints a single request crosses (counters,
  histograms, gauges, spans) must stay under 3% of the measured
  per-request latency.
* **enabled ratio**: turning metrics on may not blow up the serving
  path either — the enabled/disabled ratio of best-of-N latencies,
  measured in alternating pairs, stays small.

The per-op cost is measured directly (best of several 50k-iteration
loops on the real instruments) rather than by diffing two noisy end-to-end runs, so
the 3% gate is stable on shared CI runners.
"""

import time

import numpy as np

from repro import obs
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import ForecastService

# Upper bound on instrument touchpoints one request crosses on the
# submit → flush → resolve path: submit clock read, queue-depth gauge,
# flush histogram, occupancy histogram, request-latency histogram,
# plan-cache counters, lock-wait fast paths, span no-op checks, and
# headroom for the stats counters folded into the same flush.
TOUCHPOINTS = 16
GATE = 0.03  # disabled obs cost must stay under 3% of request latency


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _per_op_seconds(fn, iterations: int = 50_000, repeats: int = 5) -> float:
    # Best of several loops, like the request latency it is divided by: a
    # single long loop also times whatever preempted it, so on a loaded
    # runner the share rose with the load rather than with the instruments.
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


def _enabled_and_disabled_latency(one_request, repeats: int = 100):
    """Best-of latency with metrics on and off, measured in alternating
    pairs so a change in runner load between two phases cannot land on
    one side of the ratio only."""
    enabled = disabled = float("inf")
    for _ in range(repeats):
        enabled = min(enabled, _best_of(one_request, repeats=1))
        with obs.observability(metrics=False, tracing=False):
            disabled = min(disabled, _best_of(one_request, repeats=1))
    return enabled, disabled


def _single_request_latency(service, history) -> float:
    def one_request():
        service.submit(history).result()

    one_request()  # warm the compiled plan
    return _best_of(one_request, repeats=20)


def test_disabled_observability_is_near_free(bench_record_serving):
    config = ModelConfig(
        input_length=48, horizon=12, n_channels=1, patch_length=12,
        hidden_dim=32, dropout=0.0,
    )
    service = ForecastService(LiPFormer(config), max_batch_size=16)
    history = np.random.default_rng(7).normal(size=(48, 1)).astype(np.float32)

    request_latency = _single_request_latency(service, history)

    counter = obs.counter("bench_obs_counter")
    histogram = obs.histogram("bench_obs_histogram")
    gauge = obs.gauge("bench_obs_gauge")
    with obs.observability(metrics=False, tracing=False):
        per_op = max(
            _per_op_seconds(counter.inc),
            _per_op_seconds(lambda: histogram.observe(0.01)),
            _per_op_seconds(lambda: gauge.set(3.0)),
            _per_op_seconds(lambda: obs.span("bench").__enter__()),
        )
    enabled_latency, disabled_latency = _enabled_and_disabled_latency(
        lambda: service.submit(history).result()
    )

    budget = per_op * TOUCHPOINTS
    share = budget / request_latency
    ratio = enabled_latency / disabled_latency
    print(
        f"\nobs overhead: per-op {per_op * 1e9:.0f}ns, {TOUCHPOINTS} touchpoints = "
        f"{budget * 1e6:.2f}µs vs request {request_latency * 1e6:.0f}µs "
        f"({share * 100:.2f}%); enabled/disabled ratio {ratio:.3f}"
    )
    bench_record_serving("obs_overhead", {
        "per_op_ns": round(per_op * 1e9, 1),
        "touchpoints": TOUCHPOINTS,
        "disabled_share_of_request": round(share, 5),
        "gate": GATE,
        "enabled_over_disabled_ratio": round(ratio, 3),
        "request_latency_us": round(request_latency * 1e6, 1),
    })
    assert share <= GATE, (
        f"disabled observability costs {share * 100:.2f}% of a compiled "
        f"single-request pass (gate {GATE * 100:.0f}%)"
    )
    # Generous bound: absorbs CI noise while still catching an instrument
    # accidentally doing real work (locking, formatting) per request.
    assert ratio <= 1.25, f"enabling metrics slowed serving {ratio:.2f}x"
