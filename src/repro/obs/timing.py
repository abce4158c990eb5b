"""Centralised wall-clock access for the instrumented layers.

The ``timing-discipline`` lint rule bans raw ``time.perf_counter()`` /
``time.time()`` calls inside ``repro.{serving,streaming,cluster,runtime,profiling}``;
instrumentation clocks read :func:`now` instead, so latency metrics and
the profiling package's :func:`~repro.profiling.interleave` share one
monotonic clock.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter

__all__ = ["now"]


def now() -> float:
    """Monotonic seconds — the one sanctioned clock for instrumented code."""
    return _perf_counter()
