"""Shared fixtures for the benchmark harness.

Every paper benchmark regenerates one table or figure at the ``QUICK``
profile (small synthetic datasets, narrow models) so the whole harness runs
on a laptop CPU in minutes.  Swap in ``PAPER`` (``repro.experiments.PAPER``)
to run the full-scale configuration.  Each runs its experiment exactly once
(``pedantic`` with one round); the measured value is the wall-clock time of
regenerating the table, and the table is printed so its rows can be
compared against the paper.

Every comparative gate times its sides through
:func:`repro.profiling.interleave` (order-alternated rounds) and reads
either each side's min (a best-of gate) or the median per-round ratio (a
paired gate).  ``bench_record`` merges a gate's numbers into one named
section of a tracked ``BENCH_*.json`` file, with the host it ran on and the
spread of the statistic the gate reads.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from ledgerbench.host import BLAS_THREAD_VARS, fingerprint
from repro.experiments import QUICK

_REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_record():
    """Fixture: ``bench_record(file, section, payload)``.

    Read-merge-writes one section of ``BENCH_<file>.json`` (``inference``,
    ``serving`` or ``cluster``) with a ``host`` entry added.  Each benchmark
    owns its sections, so the files can run in any order (or alone); the
    write goes through a temp file + rename so a crashed run never leaves a
    torn JSON.  A no-op unless ``REPRO_BENCH_RECORD=1`` (CI's benchmark step
    sets it): the files are tracked, and a plain run leaves them untouched.
    """

    def record(file: str, section: str, payload: dict) -> None:
        if os.environ.get("REPRO_BENCH_RECORD") != "1":
            return
        path = _REPO_ROOT / f"BENCH_{file}.json"
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            data = {}
        caller_env = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
        data[section] = {**payload, "host": fingerprint(caller_env)}
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)

    return record


@pytest.fixture(scope="session")
def blas_pinned() -> bool:
    """Whether BLAS runs single-threaded (``OMP``/``OPENBLAS_NUM_THREADS=1``,
    as CI sets).  Only then do eager forwards and serial baselines stay on
    one core, so only then do the parallel and compiled gates demand their
    full bars."""
    return "1" in (os.environ.get("OMP_NUM_THREADS"), os.environ.get("OPENBLAS_NUM_THREADS"))


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
