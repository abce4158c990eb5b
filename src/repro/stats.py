"""Shared helpers for counter dataclasses (the ``*Stats`` objects).

The serving and store layers each expose a small dataclass of monotonic
counters that must support the same three operations: zeroing between
benchmark phases, summing across shards/replicas, and exporting as a plain
dict.  Keeping the field loops in one place means a newly added counter
field participates in ``reset``/``merge``/``as_dict`` everywhere
automatically — the only per-class decision is which fields aggregate by
``max`` instead of ``+`` (gauges like ``largest_batch``), declared via
:attr:`CounterStats.MAXED`.

:func:`merge_counts` is the one sum-or-max rule: ``CounterStats.merge``
and the ``repro.obs`` metrics-registry views
(:func:`repro.obs.register_stats`) both fold through it, so a Prometheus
export and a merged ``stats_snapshot()`` can never disagree on a field.
"""

from __future__ import annotations

from dataclasses import fields
from typing import ClassVar, Collection, Dict, Iterable, Mapping, Tuple, Type, TypeVar

__all__ = ["merge_counts", "counters_dict", "CounterStats"]

T = TypeVar("T")


def merge_counts(rows: Iterable[Mapping[str, T]], maxed: Collection[str] = ()) -> Dict[str, T]:
    """Fold counter rows key by key into a new dict.

    Keys named in ``maxed`` take the maximum across rows; every other key
    is summed.  A key takes the value of the first row that has it, so
    ints stay ints and floats stay floats.  Inputs are never mutated.
    """
    merged: Dict[str, T] = {}
    for row in rows:
        for key, value in row.items():
            if key not in merged:
                merged[key] = value
            elif key in maxed:
                merged[key] = max(merged[key], value)
            else:
                merged[key] = merged[key] + value
    return merged


def counters_dict(stats) -> Dict[str, object]:
    """Field ``name -> value`` for a counter dataclass."""
    return {field_.name: getattr(stats, field_.name) for field_ in fields(stats)}


class CounterStats:
    """Mixin giving a counter dataclass uniform ``reset``/``merge``/``as_dict``.

    Subclasses are regular ``@dataclass``-decorated classes; fields that
    aggregate by ``max`` instead of ``+`` (high-watermark gauges) are named
    in the ``MAXED`` class variable.  Subclasses may extend ``as_dict`` to
    append derived ratios on top of the raw counters.
    """

    MAXED: ClassVar[Tuple[str, ...]] = ()

    def reset(self) -> None:
        """Zero every counter (e.g. between benchmark phases)."""
        for field_ in fields(self):
            setattr(self, field_.name, field_.default)

    @classmethod
    def merge(cls: Type[T], stats: Iterable[T]) -> T:
        """Aggregate many instances: counters add, ``MAXED`` fields max."""
        return cls(**merge_counts(map(counters_dict, stats), cls.MAXED))

    def as_dict(self) -> Dict[str, object]:
        """Raw counters as a plain dict (see :func:`counters_dict`)."""
        return counters_dict(self)
