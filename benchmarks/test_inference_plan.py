"""Benchmark S5 — compiled graph-free inference plans (``repro.nn.plan``).

Quantifies the three claims of the polymorphic compiled fast path:

* **speedup**: replaying a traced plan beats eager ``no_grad`` inference on
  the LiPFormer serving path, because the replay runs pure NumPy kernels
  over a preallocated arena — no ``Tensor`` wrapping, no grad-mode checks,
  no per-op allocations.  The gates are measured at **non-traced** batch
  sizes: the plan is traced once at ``max_batch`` and every smaller batch
  replays on leading-dim slices, so the speedup must survive the slicing
  path, not just the exact traced shape.  The acceptance bar is >= 2x on
  the single-request univariate serving shape when BLAS is pinned
  single-threaded (the CI configuration, following
  ``test_parallel_scaling``'s host-adaptive pattern); hosts with a
  multithreaded BLAS only have to clear a relaxed bar, since eager
  forwards then parallelise their kernels too.
* **bounded plan count**: a workload cycling batch sizes 1..max_batch must
  trace at most ``ceil(log2(max_batch)) + 1`` plans (the power-of-two
  bucket ladder) — and, because each bucket plan replaces the smaller
  one, settle on a single steady-state plan.
* **liveness compression**: the arena allocator (first/last-use liveness +
  offline greedy-by-size placement) must pack trace-time intermediates at
  least 3x tighter than keeping every recorded buffer alive.
* **allocation-free replay**: steady-state replay allocates no new arrays,
  on the univariate plan and on the enriched (covariate) plan.

Outputs are also asserted bit-identical to eager along the way — the
numbers would be meaningless if the fast path drifted.  The tests record
their measurements, and the enriched plan's per-op-kind replay profile, in
``BENCH_inference.json`` so re-anchors can see the perf trajectory.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.nn.plan import InferencePlan
from repro.profiling import interleave

INPUT_LENGTH = 96
HORIZON = 24
N_RUNS = 200

# One serving geometry per batching regime: a single request (the flush
# shape of request-at-a-time traffic), an odd mid-bucket batch, and the
# full micro-batch the plan was traced at.
SINGLE_BATCH = 1
ODD_BATCH = 17
MAX_BATCH = 32


# The weak-data-enriching serving shape: seven target channels plus four
# numerical and two calendar covariates, traced at a 16-row micro-batch.
ENRICHED_CONFIG = ModelConfig(
    input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=7, patch_length=24,
    hidden_dim=64, dropout=0.0, covariate_numerical_dim=4,
    covariate_categorical_cardinalities=(7, 24),
)
ENRICHED_BATCH = 16


def _enriched_plan():
    """A plan for the enriched LiPFormer traced at ``ENRICHED_BATCH``."""
    model = LiPFormer(ENRICHED_CONFIG).eval()
    rng = np.random.default_rng(23)
    x = rng.normal(size=(ENRICHED_BATCH, INPUT_LENGTH, 7)).astype(np.float32)
    numerical = rng.normal(size=(ENRICHED_BATCH, HORIZON, 4)).astype(np.float32)
    categorical = np.stack(
        [rng.integers(0, n, size=(ENRICHED_BATCH, HORIZON)) for n in (7, 24)], axis=-1
    )
    return InferencePlan.trace(model, x, numerical, categorical), (x, numerical, categorical)


def _model(n_channels=1, hidden=64):
    config = ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=n_channels,
        patch_length=24, hidden_dim=hidden, dropout=0.0,
    )
    return LiPFormer(config)


def _measure(model, batch):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(batch, INPUT_LENGTH, model.config.n_channels)).astype(np.float32)
    eager = model.predict(x)
    compiled = model.predict(x, compiled=True)
    assert np.array_equal(eager, compiled), "compiled replay diverged from eager"
    return interleave(
        {"eager": lambda: model.predict(x), "compiled": lambda: model.predict(x, compiled=True)},
        rounds=9, inner=N_RUNS // 2,
    )


def test_compiled_plan_speedup_over_eager(bench_record, blas_pinned):
    """Plan replay vs eager no-grad predict on the serving shapes.

    The plan is traced once at ``MAX_BATCH``; every other measured batch
    replays a leading-dim slice of that one plan, so the speedup gates
    hold at non-traced batch sizes — the polymorphic steady state, not the
    trace-shape best case.  Eager and compiled blocks are interleaved and
    each gate reads the median of the per-pair ratios, so one noisy block
    on a loaded host cannot decide the verdict.
    """
    model = _model()
    predictor = model.compiled_predictor()
    warm = np.zeros((MAX_BATCH, INPUT_LENGTH, 1), dtype=np.float32)
    model.predict(warm, compiled=True)                   # the only trace
    assert predictor.traces == 1

    timings, speedups = {}, {}
    for batch in (SINGLE_BATCH, ODD_BATCH, MAX_BATCH):
        timings[batch] = _measure(model, batch)
        speedups[batch] = timings[batch].ratios("eager", "compiled")
        print(
            f"\ncompiled plan (batch {batch}): eager {timings[batch]['eager'].median * 1e6:,.0f}us/call, "
            f"compiled {timings[batch]['compiled'].median * 1e6:,.0f}us/call, "
            f"median paired speedup {speedups[batch].median:.2f}x"
        )
    assert predictor.traces == 1, "measurement loop traced new plans"

    # The bar the host can clear deterministically: with BLAS pinned to one
    # thread (CI) the eager/compiled gap is pure Python overhead and the
    # single-request serving shape must be >= 2x; with a multithreaded BLAS
    # the eager baseline borrows cores and only a relaxed bar is demanded.
    required_single = 2.0 if blas_pinned else 1.4
    speedup_single = speedups[SINGLE_BATCH].median
    assert speedup_single >= required_single, (
        f"compiled plan gave {speedup_single:.2f}x over eager at non-traced "
        f"batch {SINGLE_BATCH}; expected at least {required_single:.2f}x"
    )
    # Larger batches are BLAS-bound; the plan must still never lose.
    for batch in (ODD_BATCH, MAX_BATCH):
        speedup = speedups[batch].median
        assert speedup >= 1.1, (
            f"compiled plan gave {speedup:.2f}x at batch {batch}; "
            "the fast path must not regress batched serving"
        )

    bench_record("inference", "compiled_plan_speedup", {
        "traced_at_batch": MAX_BATCH,
        "plans_traced": predictor.traces,
        "per_batch": {
            str(batch): {
                "eager_us": round(timing["eager"].median * 1e6, 1),
                "compiled_us": round(timing["compiled"].median * 1e6, 1),
                "speedup": round(speedups[batch].median, 2),
                "spread": round(speedups[batch].spread, 3),
                "compiled_wins": timing.wins("compiled", "eager"),
                "traced": batch == MAX_BATCH,
            }
            for batch, timing in timings.items()
        },
    })


def test_bucketed_workload_traces_logarithmic_plans(bench_record):
    """Cycling batch 1..max_batch must trace <= ceil(log2(max_batch)) + 1
    plans — the bucket ladder — and settle on one steady-state plan."""
    model = _model()
    predictor = model.compiled_predictor()
    rng = np.random.default_rng(5)
    x = rng.normal(size=(MAX_BATCH, INPUT_LENGTH, 1)).astype(np.float32)

    for batch in range(1, MAX_BATCH + 1):
        got = model.predict(x[:batch], compiled=True)
        assert np.array_equal(got, model.predict(x[:batch])), batch
    bound = math.ceil(math.log2(MAX_BATCH)) + 1
    assert predictor.traces <= bound, (
        f"cycling batches 1..{MAX_BATCH} traced {predictor.traces} plans; "
        f"the bucket ladder allows at most {bound}"
    )
    assert predictor.fallbacks == 0, "some batch fell back to eager"
    # Each bucket plan replaced the smaller one: the max_batch plan serves
    # every smaller bucket, so only one plan survives.
    assert len(predictor) == 1, f"steady state kept {len(predictor)} plans"

    traces_first_cycle = predictor.traces
    for batch in range(1, MAX_BATCH + 1):
        model.predict(x[:batch], compiled=True)
    assert predictor.traces == traces_first_cycle, "second cycle re-traced"

    print(
        f"\nworkload 2x(1..{MAX_BATCH}): {predictor.traces} plans traced "
        f"(bound {bound}), {len(predictor)} kept, {predictor.hits} replays"
    )
    bench_record("inference", "plans_per_workload", {
        "workload": f"two cycles of batch 1..{MAX_BATCH}",
        "max_batch": MAX_BATCH,
        "plans_traced": predictor.traces,
        "trace_bound": bound,
        "steady_state_plans": len(predictor),
        "replays": predictor.hits,
        "eager_fallbacks": predictor.fallbacks,
    })


def test_liveness_arena_reduces_plan_memory(bench_record):
    """The liveness pass must pack the arena >= 3x tighter than keeping
    every recorded intermediate alive (the pre-refactor allocator)."""
    model = _model().eval()
    rng = np.random.default_rng(11)
    x = rng.normal(size=(MAX_BATCH, INPUT_LENGTH, 1)).astype(np.float32)
    plan = InferencePlan.trace(model, x)

    ratio = plan.naive_nbytes / plan.arena_nbytes
    print(
        f"\nliveness arena: naive {plan.naive_nbytes / 1024:,.0f} KiB -> "
        f"arena {plan.arena_nbytes / 1024:,.0f} KiB ({ratio:.2f}x) "
        f"over {plan.n_steps} steps"
    )
    assert ratio >= 3.0, (
        f"liveness allocation only packed the arena {ratio:.2f}x tighter "
        "than keeping every intermediate alive; expected >= 3x"
    )
    bench_record("inference", "plan_memory", {
        "model": "LiPFormer",
        "traced_at_batch": MAX_BATCH,
        "n_steps": plan.n_steps,
        "naive_bytes": plan.naive_nbytes,
        "arena_bytes": plan.arena_nbytes,
        "compression": round(ratio, 2),
    })


def test_steady_state_replay_allocates_nothing_large(bench_record):
    """After warmup, ``plan.run`` must reuse its arena — at a non-traced
    batch size: sliced replay binds leading-dim views of the trace-time
    buffers, so repeated runs may allocate view headers but no new large
    blocks, and the output must stay a window into the plan's buffer."""
    model = _model(n_channels=8)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(MAX_BATCH, INPUT_LENGTH, 8)).astype(np.float32)
    model.predict(x, compiled=True)
    plan = model.compiled_predictor().plan_for(x)
    assert plan is not None

    fresh = rng.normal(size=(ODD_BATCH, INPUT_LENGTH, 8)).astype(np.float32)
    out_first = plan.run(fresh, copy=False)              # binds the slice set
    assert out_first.shape[0] == ODD_BATCH * (plan.output.shape[0] // MAX_BATCH)
    arena_before = plan.arena_nbytes

    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    for _ in range(50):
        out = plan.run(fresh, copy=False)
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()

    assert np.shares_memory(out, plan.output), "sliced output left the plan's buffer"
    assert (
        out.__array_interface__["data"][0]
        == out_first.__array_interface__["data"][0]
    ), "output storage was reallocated between runs"
    assert plan.arena_nbytes == arena_before, "arena grew during steady state"

    threshold = 64 * 1024
    large = [
        diff
        for diff in after.compare_to(before, "traceback")
        if diff.size_diff >= threshold
    ]
    for diff in large:  # pragma: no cover - diagnostic output on failure
        print(f"\nlarge allocation: {diff.size_diff:,} B at")
        for line in diff.traceback.format():
            print("   ", line)
    assert not large, (
        f"steady-state plan replay leaked {len(large)} block(s) >= {threshold} B"
    )
    print(
        f"\nsteady-state sliced replay at batch {ODD_BATCH} (traced at "
        f"{MAX_BATCH}) over {INPUT_LENGTH}x8: {plan.n_steps} steps, arena "
        f"{plan.arena_nbytes / 1024:,.0f} KiB, no large allocations in 50 runs"
    )
    bench_record("inference", "steady_state_allocation", {
        "traced_at_batch": MAX_BATCH,
        "replayed_at_batch": ODD_BATCH,
        "n_steps": plan.n_steps,
        "arena_bytes": plan.arena_nbytes,
        "large_block_threshold_bytes": threshold,
        "large_blocks_after_50_runs": len(large),
    })


@pytest.mark.parametrize("batch", [ENRICHED_BATCH, 11])
def test_covariate_plan_replay_peak_allocation(batch):
    """Replaying the enriched (covariate) plan must not allocate arrays:
    the ``tracemalloc`` peak over 20 replays stays under 64 KiB, at the
    traced batch and at a sliced one.  A kernel whose matmul quietly
    builds a scores-sized temporary (a strided ``out`` NumPy cannot write
    in place) blows through this bound."""
    plan, inputs = _enriched_plan()
    prefix = tuple(array[:batch] for array in inputs)
    plan.run(*prefix, copy=False)                          # binds the slice set

    tracemalloc.start()
    try:
        for _ in range(20):
            plan.run(*prefix, copy=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"\nenriched plan replay at batch {batch}: tracemalloc peak {peak:,} B")
    assert peak <= 64 * 1024, (
        f"20 replays of the covariate plan at batch {batch} peaked at {peak:,} B"
    )


def test_replay_profile_recorded(bench_record):
    """Where a replay of the enriched plan spends its time, by op kind.

    Not a gate on speed: the profile is recorded so the trajectory file
    shows which kernels dominate.  It must name the attention steps and
    leave the plan serving the same bits afterwards."""
    plan, inputs = _enriched_plan()
    expected = plan.run(*inputs)
    profile = plan.profile(repeats=50)
    assert {"matmul", "attention_scores", "attention_output", "add"} <= profile.keys()
    assert all(us >= 0.0 for us in profile.values())
    assert np.array_equal(plan.run(*inputs), expected)

    total = sum(profile.values())
    print(f"\nenriched replay profile at batch {ENRICHED_BATCH}: {total:,.0f}us/pass")
    for kind, us in profile.items():
        print(f"  {kind:<20} {us:8.1f}us  {us / total:6.1%}")
    bench_record("inference", "replay_profile", {
        "model": "LiPFormer",
        "shape": "enriched: 7 channels, 4 numerical + 2 categorical covariates",
        "batch": ENRICHED_BATCH,
        "n_steps": plan.n_steps,
        "repeats": 50,
        "us_per_pass": round(total, 1),
        "us_per_row": round(total / ENRICHED_BATCH, 1),
        "us_by_kind": {kind: round(us, 1) for kind, us in profile.items()},
    })
