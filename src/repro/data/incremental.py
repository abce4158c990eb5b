"""Incremental (streaming) feature scaling.

:class:`RollingScaler` is the online counterpart of
:class:`~repro.data.scalers.StandardScaler`: it maintains per-channel mean
and (population) standard deviation with Welford's algorithm, so statistics
can be grown one observation — or one chunk — at a time without keeping the
history around.  The streaming store keeps these accumulators per tenant
(in its slab slots, bit for bit this recurrence) and hands out a
``RollingScaler`` snapshot of them, so a brand-new tenant never needs an
offline ``fit`` pass before its first forecast.

After ingesting the same data, ``mean_`` / ``std_`` agree with
``StandardScaler.fit`` to float64 round-off (the batch formula and the
incremental recurrence accumulate in different orders), and the
``transform`` / ``inverse_transform`` dtype contract is identical: float32
out of ``transform`` (model input), float64 out of ``inverse_transform``
(original-scale metrics).
"""

from __future__ import annotations

from typing import Optional

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
    """

    def __init__(self, eps: float = 1e-8) -> None:
        self.eps = eps
        self._count: int = 0
        self._mean: Optional[np.ndarray] = None    # [C] float64 running mean
        self._m2: Optional[np.ndarray] = None      # [C] float64 sum of squared deviations

    # ------------------------------------------------------------------ #
    @property
    def n_seen(self) -> int:
        """Number of time steps folded into the statistics so far."""
        return self._count

    @property
    def n_channels(self) -> Optional[int]:
        return None if self._mean is None else int(self._mean.shape[0])

    @property
    def mean_(self) -> np.ndarray:
        self._check_fitted()
        return self._mean.copy()

    @property
    def std_(self) -> np.ndarray:
        """Population std with the same ``eps`` flooring as ``StandardScaler``."""
        self._check_fitted()
        std = np.sqrt(self._m2 / self._count)
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
        if self._mean is None:
            self._mean = np.zeros(values.shape[1], dtype=np.float64)
            self._m2 = np.zeros(values.shape[1], dtype=np.float64)
        elif values.shape[1] != self._mean.shape[0]:
            raise ValueError(
                f"expected {self._mean.shape[0]} channels, got {values.shape[1]}"
            )
        chunk_count = len(values)
        total = self._count + chunk_count
        if chunk_count == 1:
            # The chunk formula with chunk_mean = row and chunk_m2 = 0, term
            # for term, so a finite row gets the same bits (M2 is never
            # -0.0, so dropping "+ 0" changes nothing); skips the two
            # reductions a streaming tick's one row would otherwise pay.
            delta = values[0] - self._mean
            self._mean = self._mean + delta * (1 / total)
            self._m2 = self._m2 + delta**2 * (self._count / total)
            self._count = total
            return self
        chunk_mean = values.mean(axis=0)
        chunk_m2 = ((values - chunk_mean) ** 2).sum(axis=0)
        delta = chunk_mean - self._mean
        self._mean = self._mean + delta * (chunk_count / total)
        self._m2 = self._m2 + chunk_m2 + delta**2 * (self._count * chunk_count / total)
        self._count = total
        return self

    # ------------------------------------------------------------------ #
    def transform(self, values: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return ((np.asarray(values, dtype=np.float64) - self._mean) / self.std_).astype(
            np.float32
        )

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        """Original-scale values in float64 (matching ``StandardScaler``)."""
        self._check_fitted()
        return np.asarray(values, dtype=np.float64) * self.std_ + self._mean

    def to_state(self) -> dict:
        """Serialisable snapshot of the exact Welford accumulators.

        Captures ``count`` / ``mean`` / ``M2`` (not the derived ``std_``),
        so a restored scaler continues folding in chunks from precisely
        where this one stopped — statistics after restore+update are
        bit-identical to never having snapshotted at all.
        """
        return {
            "eps": float(self.eps),
            "count": int(self._count),
            "mean": None if self._mean is None else self._mean.copy(),
            "m2": None if self._m2 is None else self._m2.copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RollingScaler":
        """Rebuild a scaler from :meth:`to_state` output."""
        scaler = cls(eps=state["eps"])
        scaler._count = int(state["count"])
        if state["mean"] is not None:
            scaler._mean = np.asarray(state["mean"], dtype=np.float64).copy()
            scaler._m2 = np.asarray(state["m2"], dtype=np.float64).copy()
        return scaler

    def to_standard_scaler(self) -> StandardScaler:
        """Freeze the current statistics into an offline ``StandardScaler``."""
        self._check_fitted()
        frozen = StandardScaler(eps=self.eps)
        frozen.mean_ = self.mean_
        frozen.std_ = self.std_
        return frozen

    def _check_fitted(self) -> None:
        if self._count == 0:
            raise RuntimeError("RollingScaler has seen no data yet")
