"""The layer-ledger benchmark's own contract: inputs, names, oracle, spans."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from ledgerbench.bench import BLOCK_S, END_TO_END, PER_LAYER, Phase, run_workload
from ledgerbench.inputs import generate
from ledgerbench.ledger import Ledger, Span, check_nesting
from ledgerbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "ledgerbench", "run.py")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _arrays(inputs):
    return [inputs.history, inputs.rows, inputs.future_numerical, inputs.future_categorical]


@pytest.mark.parametrize("name", ["fleet-thread", "enriched-thread"])
def test_same_seed_same_arrays_other_seed_other_arrays(name):
    workload = WORKLOADS[name]
    first, again, other = (generate(workload, seed, 40) for seed in (7, 7, 8))
    assert first.tenants == again.tenants
    for a, b, c in zip(_arrays(first), _arrays(again), _arrays(other)):
        if a is None:
            assert b is None and c is None
            continue
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_early_ticks_do_not_depend_on_run_length():
    workload = WORKLOADS["enriched-thread"]
    short, long = generate(workload, 3, 20), generate(workload, 3, 60)
    assert np.array_equal(short.rows, long.rows[:20])
    assert np.array_equal(short.history, long.history)
    assert np.array_equal(
        short.covariates(20)["future_numerical"]["tenant-000"],
        long.covariates(20)["future_numerical"]["tenant-000"],
    )


def test_fleet_workloads_ingest_the_same_arrays():
    thread = generate(WORKLOADS["fleet-thread"], 5, 30)
    process = generate(WORKLOADS["fleet-process"], 5, 30)
    assert np.array_equal(thread.history, process.history)
    assert np.array_equal(thread.rows, process.rows)


def test_declared_names_match_the_benchmark():
    declared = _declared()
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    with open(os.path.join(ROOT, "ledgerbench", "metric_map.json"), encoding="utf-8") as handle:
        mapped = json.load(handle)["per_layer"]
    assert list(mapped) == list(PER_LAYER)
    for entry in mapped.values():
        for metric, workload in entry["moves"] + entry["barely_moves"]:
            assert (metric in END_TO_END or metric in PER_LAYER) and workload in WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_declared_metric_with_its_unit(trace):
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", "fleet-thread", "--seed", "1",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    record = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True and record["failed"] == 0 and record["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_cli_fails_without_the_program_sources(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "ledgerbench"), tmp_path / "ledgerbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "ledgerbench/run.py", "--workload", "fleet-thread",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_run_passes_the_oracle(name):
    result = run_workload(name, seed=11, seconds=0.3, setup_repeats=1, setup_budget_s=0)
    assert result.problems == []
    assert result.correct and result.failed == 0 and result.attempted > 0


@pytest.mark.parametrize("name", ["fleet-thread", "fleet-process"])
def test_coverage_comes_from_correctly_nested_spans(name):
    from repro import wire

    pack = wire.pack_message
    result = run_workload(name, seed=2, seconds=0.6, trace=True, setup_repeats=1, setup_budget_s=0)
    assert result.correct, result.problems
    assert wire.pack_message is pack  # wrappers removed after the traced phase
    spans = result.ledger.spans
    assert spans and check_nesting(spans) == []
    for span in spans:  # every layer span sits under a tick
        root = span
        while root.parent >= 0:
            root = spans[root.parent]
        assert root.name == "tick"
    assert 0.9 <= result.metrics["ledger.coverage"] <= 1.1


def test_p50_counts_the_faster_half_of_the_blocks():
    phase = Phase()
    for i in range(400):  # four blocks; every other one runs at a third of the speed
        at = i * BLOCK_S / 100
        seconds = 0.003 if int(at // BLOCK_S) % 2 else 0.001
        phase.at_s.append(at)
        phase.ingest_s.append(seconds)
        phase.sweep_s.append(seconds)
    assert phase.median_ms("sweep") == pytest.approx(1.0)
    assert phase.ms("sweep", 50) == pytest.approx(2.0)


def test_self_time_excludes_children_and_nesting_is_checked():
    ledger = Ledger()
    inner = ledger.wrap("inner", lambda: sum(range(20000)))
    outer = ledger.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert ledger.calls("inner") == 3 and ledger.calls("outer") == 1
    assert ledger.self_time("outer") == pytest.approx(
        ledger.total("outer") - ledger.total("inner"), abs=1e-9
    )
    assert check_nesting(ledger.spans) == []
    bad = [Span("outer", -1, 0.0, 1.0), Span("inner", 0, 0.5, 1.5)]
    assert check_nesting(bad) == ["span 1 (inner) lies outside its parent 0 (outer)"]
