"""Benchmark S1 — serving-layer throughput.

Quantifies the two serving fast paths introduced with ``repro.serving``:

* micro-batched :class:`ForecastService` vs. 32 sequential
  ``ForecastModel.predict`` calls (the paper's lightweight-inference story,
  Table VII, under request-at-a-time traffic);
* vectorised ``SlidingWindowDataset.as_arrays`` vs. the per-sample Python
  loop it replaced, on a 10k-step series — asserting the outputs stay
  bit-identical.
"""

import numpy as np

from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.data import load_dataset
from repro.data.windows import SlidingWindowDataset
from repro.profiling import interleave
from repro.serving import ForecastService

BATCH_SIZE = 32


def _measure_service_speedup(bench_record, section: str, n_channels: int) -> float:
    """Best-of-5 sequential vs micro-batched time, the sides interleaved;
    records ``section`` and returns the speedup (ratio of the two mins)."""
    config = ModelConfig(
        input_length=96, horizon=24, n_channels=n_channels,
        patch_length=24, hidden_dim=64, dropout=0.0,
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
    timings = interleave({"sequential": sequential, "batched": batched}, rounds=5)
    t_sequential, t_batched = timings["sequential"].min, timings["batched"].min
    speedup = t_sequential / t_batched
    print(
        f"\n{n_channels}-channel serving: sequential {BATCH_SIZE / t_sequential:,.0f} req/s, "
        f"micro-batched {BATCH_SIZE / t_batched:,.0f} req/s, speedup {speedup:.1f}x"
    )
    bench_record("inference", section, {
        "batch_size": BATCH_SIZE,
        "n_channels": n_channels,
        "sequential_req_per_s": round(BATCH_SIZE / t_sequential),
        "microbatched_req_per_s": round(BATCH_SIZE / t_batched),
        "speedup": round(speedup, 2),
        "spread": {side: round(samples.spread, 3) for side, samples in timings.items()},
    })
    return speedup


def test_microbatched_service_beats_sequential_predict(bench_record):
    """Micro-batching must give >= 3x throughput at batch size 32."""
    speedup = _measure_service_speedup(bench_record, "serving_throughput_univariate", 1)
    assert speedup >= 3.0, (
        f"micro-batched service only {speedup:.2f}x faster than sequential predict"
    )


def test_multivariate_service_speedup_recorded(bench_record):
    """Multivariate (7-channel) serving amortises less but must still win."""
    assert _measure_service_speedup(bench_record, "serving_throughput_multivariate", 7) >= 1.5


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

    timings = interleave({"fast": dataset.as_arrays, "loop": dataset._as_arrays_loop}, rounds=5)
    speedup = timings.ratios("loop", "fast").median
    print(
        f"\nas_arrays over {len(dataset)} windows: loop {timings['loop'].median * 1000:.1f}ms, "
        f"vectorised {timings['fast'].median * 1000:.1f}ms, median paired speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, f"vectorised as_arrays only {speedup:.2f}x faster than the loop"
