"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one paper table or figure at the ``QUICK``
profile (small synthetic datasets, narrow models) so the whole harness runs
on a laptop CPU in minutes.  Swap in ``PAPER`` (``repro.experiments.PAPER``)
to run the full-scale configuration.

Each benchmark runs its experiment exactly once (``pedantic`` with one
round); the measured value is the wall-clock time of regenerating the
table, and the table itself is attached to ``benchmark.extra_info`` and
printed so the rows can be compared against the paper.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments import QUICK

# Machine-readable perf trajectories, merged section-by-section and
# asserted present by the CI smoke run.  ``BENCH_inference.json`` tracks
# model/plan latency; ``BENCH_serving.json`` tracks end-to-end serving
# percentiles, throughput and queue depth under load.  The files are
# tracked, so they are written only when ``REPRO_BENCH_RECORD=1`` (the CI
# benchmark smoke step sets it); a plain test run leaves them untouched.
RECORD_ENV = "REPRO_BENCH_RECORD"
_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_RESULTS_PATH = _REPO_ROOT / "BENCH_inference.json"
BENCH_SERVING_PATH = _REPO_ROOT / "BENCH_serving.json"
BENCH_CLUSTER_PATH = _REPO_ROOT / "BENCH_cluster.json"


def _record(path: Path, section: str, payload: dict) -> None:
    """Read-merge-write one section of a benchmark results file.

    Each benchmark owns a named section so the files can run in any order
    (or alone) without clobbering each other's numbers; the write goes
    through a temp file + rename so a crashed run never leaves a torn JSON.
    A no-op unless ``REPRO_BENCH_RECORD=1``.
    """
    if os.environ.get(RECORD_ENV) != "1":
        return
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data[section] = payload
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)


def record_bench(section: str, payload: dict) -> None:
    """Record one named section into ``BENCH_inference.json``."""
    _record(BENCH_RESULTS_PATH, section, payload)


def record_bench_serving(section: str, payload: dict) -> None:
    """Record one named section into ``BENCH_serving.json``."""
    _record(BENCH_SERVING_PATH, section, payload)


def record_bench_cluster(section: str, payload: dict) -> None:
    """Record one named section into ``BENCH_cluster.json``."""
    _record(BENCH_CLUSTER_PATH, section, payload)


@pytest.fixture
def bench_record():
    """Fixture: record one named section into ``BENCH_inference.json``."""
    return record_bench


@pytest.fixture
def bench_record_serving():
    """Fixture: record one named section into ``BENCH_serving.json``."""
    return record_bench_serving


@pytest.fixture
def bench_record_cluster():
    """Fixture: record one named section into ``BENCH_cluster.json``."""
    return record_bench_cluster


@pytest.fixture(scope="session")
def profile():
    """The experiment profile used by all benchmarks."""
    return QUICK


def _run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once():
    """Fixture: run a callable exactly once under pytest-benchmark."""
    return _run_once
