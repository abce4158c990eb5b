"""Benchmark S1 — serving-layer throughput.

Quantifies the two serving fast paths introduced with ``repro.serving``:

* micro-batched :class:`ForecastService` vs. 32 sequential
  ``ForecastModel.predict`` calls (the paper's lightweight-inference story,
  Table VII, under request-at-a-time traffic);
* vectorised ``SlidingWindowDataset.as_arrays`` vs. the per-sample Python
  loop it replaced, on a 10k-step series — asserting the outputs stay
  bit-identical.
"""

import time

import numpy as np

from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.data import load_dataset
from repro.data.windows import SlidingWindowDataset
from repro.serving import ForecastService

BATCH_SIZE = 32


def _best_of(fn, repeats: int = 5) -> float:
    """Min-of-N wall-clock time; the minimum is the least noisy estimator."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_times(fast, slow, pairs: int = 5):
    """Median fast and slow wall-clock times and their median ratio.

    The two sides alternate (swapping order every pair), so a load spike
    on a shared host lands on both sides of a pair instead of on
    whichever side happened to be measured during it.
    """
    times = {fast: [], slow: []}
    ratios = []
    for i in range(pairs):
        for fn in (fast, slow) if i % 2 == 0 else (slow, fast):
            start = time.perf_counter()
            fn()
            times[fn].append(time.perf_counter() - start)
        ratios.append(times[slow][-1] / times[fast][-1])
    return float(np.median(times[fast])), float(np.median(times[slow])), float(np.median(ratios))


def _measure_service_speedup(n_channels: int, hidden_dim: int):
    config = ModelConfig(
        input_length=96, horizon=24, n_channels=n_channels,
        patch_length=24, hidden_dim=hidden_dim, dropout=0.0,
    )
    model = LiPFormer(config)
    rng = np.random.default_rng(7)
    histories = rng.normal(size=(BATCH_SIZE, 96, n_channels)).astype(np.float32)

    def sequential():
        for history in histories:
            model.predict(history[None])

    service = ForecastService(model, max_batch_size=BATCH_SIZE)

    def batched():
        handles = [service.submit(history) for history in histories]
        for handle in handles:
            handle.result()

    sequential()
    batched()  # warmup both paths
    t_sequential = _best_of(sequential)
    t_batched = _best_of(batched)
    return t_sequential, t_batched


def test_microbatched_service_beats_sequential_predict(bench_record):
    """Micro-batching must give >= 3x throughput at batch size 32."""
    t_sequential, t_batched = _measure_service_speedup(n_channels=1, hidden_dim=64)
    speedup = t_sequential / t_batched
    print(
        f"\nunivariate serving: sequential {BATCH_SIZE / t_sequential:,.0f} req/s, "
        f"micro-batched {BATCH_SIZE / t_batched:,.0f} req/s, speedup {speedup:.1f}x"
    )
    bench_record("serving_throughput_univariate", {
        "batch_size": BATCH_SIZE,
        "sequential_req_per_s": round(BATCH_SIZE / t_sequential),
        "microbatched_req_per_s": round(BATCH_SIZE / t_batched),
        "speedup": round(speedup, 2),
    })
    assert speedup >= 3.0, (
        f"micro-batched service only {speedup:.2f}x faster than sequential predict"
    )


def test_multivariate_service_speedup_recorded(bench_record):
    """Multivariate (7-channel) serving amortises less but must still win."""
    t_sequential, t_batched = _measure_service_speedup(n_channels=7, hidden_dim=64)
    speedup = t_sequential / t_batched
    print(
        f"\nmultivariate serving: sequential {BATCH_SIZE / t_sequential:,.0f} req/s, "
        f"micro-batched {BATCH_SIZE / t_batched:,.0f} req/s, speedup {speedup:.1f}x"
    )
    bench_record("serving_throughput_multivariate", {
        "batch_size": BATCH_SIZE,
        "n_channels": 7,
        "sequential_req_per_s": round(BATCH_SIZE / t_sequential),
        "microbatched_req_per_s": round(BATCH_SIZE / t_batched),
        "speedup": round(speedup, 2),
    })
    assert speedup >= 1.5


def test_vectorised_as_arrays_beats_loop_on_10k_series():
    """The sliding_window_view fast path: >= 5x on 10k steps, bit-identical.

    The gate reads the median of interleaved fast/loop pairs.
    """
    series = load_dataset("ETTh1", n_timestamps=10_000, include_covariates=True)
    dataset = SlidingWindowDataset(series, input_length=96, horizon=24)

    fast = dataset.as_arrays()
    slow = dataset._as_arrays_loop()
    for key in fast:
        if slow[key] is None:
            assert fast[key] is None
        else:
            np.testing.assert_array_equal(fast[key], slow[key])

    t_fast, t_slow, speedup = _paired_times(dataset.as_arrays, dataset._as_arrays_loop)
    print(
        f"\nas_arrays over {len(dataset)} windows: loop {t_slow * 1000:.1f}ms, "
        f"vectorised {t_fast * 1000:.1f}ms, median paired speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, f"vectorised as_arrays only {speedup:.2f}x faster than the loop"
