"""Incremental (streaming) feature scaling.

:class:`RollingScaler` is the online counterpart of
:class:`~repro.data.scalers.StandardScaler`: it maintains per-channel mean
and (population) standard deviation with Welford's algorithm, so statistics
can be grown one observation — or one chunk — at a time without keeping the
history around.  It is also the streaming store's per-tenant accumulator
(one per :class:`~repro.streaming.store.SeriesStore` slot, folded under the
store lock), so the fold, the state layout and the restore checks exist
once.  The moments are per-channel Python floats: folding a row into
``[C]`` NumPy arrays costs several times the scalar recurrence.

After ingesting the same data, ``mean_`` / ``std_`` agree with
``StandardScaler.fit`` to float64 round-off (the batch formula and the
incremental recurrence accumulate in different orders), and the
``transform`` / ``inverse_transform`` dtype contract is identical: float32
out of ``transform`` (model input), float64 out of ``inverse_transform``
(original-scale metrics).
"""

from __future__ import annotations

import numbers
from typing import List, Optional

import numpy as np

from .scalers import StandardScaler

__all__ = ["RollingScaler"]


class RollingScaler:
    """Per-channel standardisation with incrementally maintained statistics.

    Chunks are folded in with the parallel variant of Welford's update
    (Chan et al.), which is numerically stable and costs one vectorised
    pass per chunk — no stored history, no re-fit.

    Statistics follow :class:`StandardScaler` exactly: population standard
    deviation (``ddof=0``) with near-zero channels floored to 1.0 via
    ``eps`` so constant channels never divide by zero.

    ``count`` rows have been folded into ``mean`` / ``m2`` (the running
    mean and sum of squared deviations, one Python float per channel);
    both are ``None`` exactly while ``count`` is 0.
    """

    def __init__(self, eps: float = 1e-8) -> None:
        self.eps = eps
        self.count = 0
        self.mean: Optional[List[float]] = None
        self.m2: Optional[List[float]] = None

    # ------------------------------------------------------------------ #
    @property
    def n_seen(self) -> int:
        """Number of time steps folded into the statistics so far."""
        return self.count

    @property
    def n_channels(self) -> Optional[int]:
        return None if self.mean is None else len(self.mean)

    @property
    def mean_(self) -> np.ndarray:
        self._check_fitted()
        return np.array(self.mean, dtype=np.float64)

    @property
    def std_(self) -> np.ndarray:
        """Population std with the same ``eps`` flooring as ``StandardScaler``."""
        self._check_fitted()
        std = np.sqrt(np.array(self.m2, dtype=np.float64) / self.count)
        return np.where(std < self.eps, 1.0, std)

    # ------------------------------------------------------------------ #
    def update(self, values: np.ndarray) -> "RollingScaler":
        """Fold a ``[T, C]`` chunk (or a single ``[C]`` row) into the stats."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[None, :]
        if values.ndim != 2:
            raise ValueError(f"expected a [T, C] array, got shape {values.shape}")
        if len(values) == 0:
            return self
        if self.mean is not None and values.shape[1] != len(self.mean):
            raise ValueError(f"expected {len(self.mean)} channels, got {values.shape[1]}")
        if len(values) == 1:
            self.update_row(values[0].tolist())
        else:
            self.update_chunk(values)
        return self

    def update_row(self, row: List[float]) -> None:
        """Fold one row of Python floats, unchecked: the chunk formula with
        ``chunk_mean = row`` and ``chunk_m2 = 0`` (M2 is never -0.0, so
        dropping ``+ 0`` changes no bit), minus the chunk's two reductions."""
        count = self.count
        if self.mean is None:
            self.mean, self.m2 = [0.0] * len(row), [0.0] * len(row)
        total = count + 1
        step, weight = 1 / total, count / total
        mean, m2 = self.mean, self.m2
        channel = 0
        for value in row:
            delta = value - mean[channel]
            mean[channel] += delta * step
            m2[channel] += delta * delta * weight
            channel += 1
        self.count = total

    def update_chunk(self, values: np.ndarray) -> None:
        """Fold ``[T, C]`` rows, ``T > 1``, unchecked: the chunk's mean and
        M2 come from NumPy in float64, the merge runs per channel."""
        rows = len(values)
        count = self.count
        if self.mean is None:
            self.mean, self.m2 = [0.0] * values.shape[1], [0.0] * values.shape[1]
        total = count + rows
        chunk = np.asarray(values, dtype=np.float64)
        chunk_mean = chunk.mean(axis=0)
        chunk_m2 = ((chunk - chunk_mean) ** 2).sum(axis=0)
        step, weight = rows / total, count * rows / total
        mean, m2 = self.mean, self.m2
        for channel, (part_mean, part_m2) in enumerate(zip(chunk_mean.tolist(), chunk_m2.tolist())):
            delta = part_mean - mean[channel]
            mean[channel] += delta * step
            m2[channel] = m2[channel] + part_m2 + delta * delta * weight
        self.count = total

    # ------------------------------------------------------------------ #
    def transform(self, values: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return ((np.asarray(values, dtype=np.float64) - self.mean_) / self.std_).astype(
            np.float32
        )

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        """Original-scale values in float64 (matching ``StandardScaler``)."""
        self._check_fitted()
        return np.asarray(values, dtype=np.float64) * self.std_ + self.mean_

    def to_state(self) -> dict:
        """Serialisable snapshot of the exact Welford accumulators.

        Captures ``count`` / ``mean`` / ``M2`` (not the derived ``std_``),
        so a restored scaler continues folding in chunks from precisely
        where this one stopped — statistics after restore+update are
        bit-identical to never having snapshotted at all.
        """
        return {
            "eps": float(self.eps),
            "count": int(self.count),
            "mean": None if self.mean is None else np.array(self.mean, dtype=np.float64),
            "m2": None if self.m2 is None else np.array(self.m2, dtype=np.float64),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RollingScaler":
        """Rebuild a scaler from :meth:`to_state` output.

        The state may come from another process or a file, so it is
        checked first: ``eps`` finite and non-negative, ``count`` a
        non-negative integer, and ``mean`` / ``m2`` two float vectors of
        one length exactly when ``count > 0``; anything else raises
        ``ValueError``.
        """
        if not isinstance(state, dict) or not {"eps", "count", "mean", "m2"} <= set(state):
            raise ValueError(f"scaler state needs eps, count, mean and m2, got {state!r}")
        eps, count, moments = state["eps"], state["count"], (state["mean"], state["m2"])
        if not isinstance(eps, numbers.Real) or not 0 <= eps < float("inf"):
            raise ValueError(f"scaler eps must be finite and non-negative, got {eps!r}")
        if not isinstance(count, numbers.Integral) or count < 0:
            raise ValueError(f"scaler count must be a non-negative integer, got {count!r}")
        try:
            mean, m2 = (None if m is None else np.asarray(m, dtype=np.float64) for m in moments)
        except (TypeError, ValueError):
            raise ValueError(f"scaler mean and m2 must be float vectors, got {moments!r}") from None
        if count == 0 and (mean is not None or m2 is not None):
            raise ValueError("scaler state holds moments of zero rows")
        if count and (mean is None or m2 is None or mean.ndim != 1 or m2.shape != mean.shape):
            raise ValueError(f"scaler mean and m2 must be two [C] vectors, got {moments!r}")
        scaler = cls(eps=float(eps))
        if count:
            scaler.count, scaler.mean, scaler.m2 = int(count), mean.tolist(), m2.tolist()
        return scaler

    def to_standard_scaler(self) -> StandardScaler:
        """Freeze the current statistics into an offline ``StandardScaler``."""
        self._check_fitted()
        frozen = StandardScaler(eps=self.eps)
        frozen.mean_ = self.mean_
        frozen.std_ = self.std_
        return frozen

    def _check_fitted(self) -> None:
        if self.count == 0:
            raise RuntimeError("RollingScaler has seen no data yet")
