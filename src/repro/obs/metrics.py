"""Thread-safe metrics: labeled counters, gauges, and log-bucketed histograms.

Design constraints, in order of priority:

1. **Near-free when disabled.**  Every mutating entry point
   (``Counter.inc``, ``Gauge.set``, ``Histogram.observe``) starts with a
   single attribute read on the module-level :class:`_Switch` and returns
   immediately when metrics are off — no lock, no clock, no allocation.
   ``benchmarks/test_obs_overhead.py`` gates this path at <= 3% of the
   compiled single-request latency.
2. **O(1) memory.**  ``Histogram`` keeps only fixed log-spaced bucket
   counts (plus sum/count/min/max); percentiles come from within-bucket
   interpolation, never from retained samples.
3. **One source of truth.**  The per-layer ``*Stats`` counter
   dataclasses register themselves as *views*
   (:meth:`MetricsRegistry.register_stats`), so ``stats_snapshot()`` and
   the Prometheus/JSON exports read the same fields through the same
   snapshot methods, merged by the same sum-or-max rule
   (:func:`repro.stats.merge_counts`), and can never disagree.

Naming scheme: ``repro_<layer>_<what>_<unit>`` — e.g.
``repro_serving_flush_seconds``, ``repro_cluster_rebalance_seconds{op=...}``,
``repro_lock_wait_seconds{lock=...,mode=...}``.
"""

from __future__ import annotations

import os
import threading
import weakref
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import is_dataclass
from math import ceil, isnan
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..stats import counters_dict, merge_counts

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "log_buckets",
    "metrics_enabled",
    "tracing_enabled",
    "configure",
    "observability",
    "default_registry",
    "counter",
    "gauge",
    "histogram",
    "register_stats",
]


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off", "")


class _Switch:
    """Process-wide on/off state; a bare attribute read is the fast path."""

    __slots__ = ("metrics", "tracing")

    def __init__(self, metrics: bool, tracing: bool) -> None:
        self.metrics = metrics
        self.tracing = tracing


# Metrics default ON (cheap: one lock per touched instrument per event);
# tracing defaults OFF (it allocates a Span per event).
_STATE = _Switch(
    metrics=_env_flag("REPRO_OBS_METRICS", True),
    tracing=_env_flag("REPRO_OBS_TRACE", False),
)


def metrics_enabled() -> bool:
    """Whether metric instruments record events."""
    return _STATE.metrics


def tracing_enabled() -> bool:
    """Whether ``span()`` produces real spans."""
    return _STATE.tracing


def configure(metrics: Optional[bool] = None, tracing: Optional[bool] = None) -> None:
    """Flip the process-wide metrics/tracing switches (``None`` = leave as is)."""
    if metrics is not None:
        _STATE.metrics = bool(metrics)
    if tracing is not None:
        _STATE.tracing = bool(tracing)


@contextmanager
def observability(metrics: Optional[bool] = None, tracing: Optional[bool] = None) -> Iterator[None]:
    """Temporarily set the switches; restores the previous state on exit."""
    saved = (_STATE.metrics, _STATE.tracing)
    configure(metrics=metrics, tracing=tracing)
    try:
        yield
    finally:
        _STATE.metrics, _STATE.tracing = saved


def log_buckets(lo: float, hi: float, per_decade: int = 5) -> Tuple[float, ...]:
    """Log-spaced bucket upper bounds from ``lo`` up to (at least) ``hi``.

    Consecutive bounds grow by ``10 ** (1 / per_decade)``; that growth
    factor is exactly the worst-case relative error of
    :meth:`Histogram.percentile` (see the hypothesis property test).
    Each bound is the previous one times the rounded growth factor, so
    ``bounds[i] <= x * growth`` holds in floating point for every ``x``
    above ``bounds[i - 1]``.  Computing each bound as
    ``lo * 10 ** (i / per_decade)`` instead rounds the pair independently,
    and a bucket can then span a few ulp more than the growth factor.
    """
    if lo <= 0 or hi <= lo or per_decade < 1:
        raise ValueError("log_buckets needs 0 < lo < hi and per_decade >= 1")
    growth = 10.0 ** (1 / per_decade)
    bounds: List[float] = [float(lo)]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * growth)
    return tuple(bounds)


# 1 microsecond .. 1 minute, ~58% growth per bucket: covers everything from a
# disabled-path no-op to a full-cluster failover in 36 buckets.
DEFAULT_TIME_BUCKETS = log_buckets(1e-6, 60.0, per_decade=5)


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Mapping[str, str] = ()) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not _STATE.metrics:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}


class Gauge:
    """Last-set value, plus a high-watermark since the last reset."""

    __slots__ = ("name", "labels", "_lock", "_value", "_max")

    def __init__(self, name: str, labels: Mapping[str, str] = ()) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0
        self._max = 0.0

    def set(self, value: float) -> None:
        if not _STATE.metrics:
            return
        value = float(value)
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    def inc(self, amount: float = 1.0) -> None:
        if not _STATE.metrics:
            return
        with self._lock:
            self._value += amount
            if self._value > self._max:
                self._max = self._value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def max_value(self) -> float:
        """High-watermark of ``set``/``inc`` results since the last reset."""
        with self._lock:
            return self._max

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0
            self._max = 0.0

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {"value": self._value, "max": self._max}


class Histogram:
    """Fixed-bucket histogram with O(1) memory and interpolated percentiles.

    Bucket ``i`` covers ``(bounds[i-1], bounds[i]]``; one overflow bucket
    catches everything above the last bound.  ``percentile`` uses the
    ``inverted_cdf`` rank convention (rank ``ceil(q/100 * n)``, at least 1)
    so the exact order statistic provably falls inside the same bucket as
    the estimate, bounding the relative error by the bucket growth factor.
    """

    __slots__ = ("name", "labels", "_bounds", "_counts", "_lock", "_sum", "_count", "_min", "_max")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        if not buckets:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        self.name = name
        self.labels = dict(labels)
        self._bounds = tuple(sorted(float(b) for b in buckets))
        self._counts = [0] * (len(self._bounds) + 1)
        self._lock = threading.Lock()
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self._bounds

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times (one bucket search, one lock)."""
        if not _STATE.metrics:
            return
        value = float(value)
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += count
            self._count += count
            self._sum += value * count
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile from the bucket counts.

        Linear interpolation inside the bucket holding the rank
        ``ceil(q/100 * n)`` order statistic, clamped to the observed
        ``[min, max]`` so degenerate single-bucket cases stay tight.
        Returns ``nan`` when nothing has been observed.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        with self._lock:
            total = self._count
            if total == 0:
                return float("nan")
            counts = list(self._counts)
            seen_min, seen_max = self._min, self._max
        rank = max(1, ceil(q / 100.0 * total))
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if cumulative + bucket_count >= rank:
                lo = seen_min if index == 0 else self._bounds[index - 1]
                hi = seen_max if index == len(self._bounds) else self._bounds[index]
                fraction = (rank - cumulative) / bucket_count
                estimate = lo + (hi - lo) * fraction
                return min(max(estimate, seen_min), seen_max)
            cumulative += bucket_count
        return seen_max  # unreachable: rank <= total by construction

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self._bounds) + 1)
            self._sum = 0.0
            self._count = 0
            self._min = float("inf")
            self._max = float("-inf")

    def bucket_counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)

    def snapshot(self) -> Dict[str, float]:
        p50, p95, p99 = (self.percentile(q) for q in (50, 95, 99))
        with self._lock:
            count, total = self._count, self._sum
            seen_min = self._min if self._count else float("nan")
            seen_max = self._max if self._count else float("nan")
        return {
            "count": count,
            "sum": total,
            "min": seen_min,
            "max": seen_max,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric and its per-label-value children."""

    __slots__ = ("name", "help", "kind", "label_names", "buckets", "_children", "_lock")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Sequence[str],
        buckets: Optional[Sequence[float]],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, **labelvalues: object):
        """The child instrument for one label-value combination."""
        if set(labelvalues) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is None:
                label_map = dict(zip(self.label_names, key))
                if self.kind == "histogram":
                    child = Histogram(self.name, label_map, buckets=self.buckets or DEFAULT_TIME_BUCKETS)
                else:
                    child = _KINDS[self.kind](self.name, label_map)
                self._children[key] = child
        return child

    def children(self) -> List[object]:
        with self._lock:
            return list(self._children.values())


class _StatsView:
    """A registered ``*Stats`` snapshot provider, weakly bound to its owner."""

    __slots__ = ("prefix", "_ref", "_fn")

    def __init__(self, prefix: str, snapshot: Callable[[], object]) -> None:
        self.prefix = prefix
        owner = getattr(snapshot, "__self__", None)
        if owner is not None:
            # Bound method: hold the owner weakly so registering a view
            # never keeps a service/store/registry alive.
            self._ref: Optional[weakref.WeakMethod] = weakref.WeakMethod(snapshot)
            self._fn: Optional[Callable[[], object]] = None
        else:
            self._ref = None
            self._fn = snapshot

    def dead(self) -> bool:
        return self._ref is not None and self._ref() is None

    def read(self) -> Optional[Tuple[Dict[str, float], Tuple[str, ...]]]:
        """``(<prefix>_<field> -> value, the keys that merge by max)``, or
        ``None`` once the owner died.  A counter dataclass names its
        max-merged fields in ``MAXED``; a mapping has none."""
        fn = self._ref() if self._ref is not None else self._fn
        if fn is None:
            return None
        value = fn()
        if is_dataclass(value) and not isinstance(value, type):
            maxed, value = getattr(type(value), "MAXED", ()), counters_dict(value)
        else:
            maxed = ()
        values = {f"{self.prefix}_{k}": float(v) for k, v in dict(value).items()}
        return values, tuple(f"{self.prefix}_{name}" for name in maxed)


class MetricsRegistry:
    """Thread-safe home for metric families and ``*Stats`` views."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._views: List[_StatsView] = []

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help, labels, buckets)
                self._families[name] = family
                return family
        if family.kind != kind or family.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} with labels "
                f"{family.label_names}; cannot re-register as {kind} with {tuple(labels)}"
            )
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        family = self._family(name, "counter", help, labels)
        return family if family.label_names else family.labels()

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        family = self._family(name, "gauge", help, labels)
        return family if family.label_names else family.labels()

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ):
        family = self._family(name, "histogram", help, labels, buckets)
        return family if family.label_names else family.labels()

    def register_stats(self, prefix: str, snapshot: Callable[[], object]) -> None:
        """Register a ``*Stats`` snapshot callable as an exported view.

        ``snapshot`` returns a :class:`~repro.stats.CounterStats` dataclass
        or a mapping; each field exports as gauge ``<prefix>_<field>``.
        Views sharing a prefix aggregate like ``*Stats.merge``: summed,
        except the dataclass's ``MAXED`` fields, which take the maximum
        across instances.
        """
        view = _StatsView(prefix, snapshot)
        with self._lock:
            self._views = [v for v in self._views if not v.dead()]
            self._views.append(view)

    def views_snapshot(self) -> Dict[str, float]:
        """Merged ``<prefix>_<field> -> value`` across all live views."""
        with self._lock:
            self._views = [v for v in self._views if not v.dead()]
            views = list(self._views)
        rows, maxed = [], set()
        for view in views:
            read = view.read()
            if read is not None:
                rows.append(read[0])
                maxed.update(read[1])
        return merge_counts(rows, maxed)

    def families(self) -> List[_Family]:
        with self._lock:
            return list(self._families.values())

    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable export of every family and view."""
        metrics: Dict[str, object] = {}
        for family in self.families():
            series = [
                {"labels": child.labels, **child.snapshot()}
                for child in family.children()
            ]
            metrics[family.name] = {"type": family.kind, "help": family.help, "series": series}
        return {"metrics": metrics, "views": self.views_snapshot()}

    def prometheus(self) -> str:
        """Prometheus text exposition of every family and view."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in family.children():
                if isinstance(child, Histogram):
                    cumulative = 0
                    counts = child.bucket_counts()
                    for bound, bucket_count in zip(child.bounds, counts):
                        cumulative += bucket_count
                        labels = dict(child.labels, le=_format_number(bound))
                        lines.append(f"{family.name}_bucket{_format_labels(labels)} {cumulative}")
                    cumulative += counts[-1]
                    labels = dict(child.labels, le="+Inf")
                    lines.append(f"{family.name}_bucket{_format_labels(labels)} {cumulative}")
                    lines.append(f"{family.name}_sum{_format_labels(child.labels)} {_format_number(child.sum)}")
                    lines.append(f"{family.name}_count{_format_labels(child.labels)} {cumulative}")
                else:
                    value = child.value
                    lines.append(f"{family.name}{_format_labels(child.labels)} {_format_number(value)}")
        for name, value in sorted(self.views_snapshot().items()):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_number(value)}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every instrument (views reset through their owners)."""
        for family in self.families():
            for child in family.children():
                child.reset()


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    parts = []
    for key, value in labels.items():
        escaped = str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def _format_number(value: float) -> str:
    if isinstance(value, float):
        if isnan(value):
            return "NaN"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry all built-in instrumentation uses."""
    return _DEFAULT_REGISTRY


def counter(name: str, help: str = "", labels: Sequence[str] = ()):
    """Get-or-create a counter on the default registry."""
    return _DEFAULT_REGISTRY.counter(name, help, labels)


def gauge(name: str, help: str = "", labels: Sequence[str] = ()):
    """Get-or-create a gauge on the default registry."""
    return _DEFAULT_REGISTRY.gauge(name, help, labels)


def histogram(name: str, help: str = "", labels: Sequence[str] = (), buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
    """Get-or-create a histogram on the default registry."""
    return _DEFAULT_REGISTRY.histogram(name, help, labels, buckets)


def register_stats(prefix: str, snapshot: Callable[[], object]) -> None:
    """Register a ``*Stats`` view on the default registry."""
    _DEFAULT_REGISTRY.register_stats(prefix, snapshot)
