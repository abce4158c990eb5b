"""Request handles and micro-batch coalescing for the serving layer.

The service accepts requests one at a time (:meth:`ForecastService.submit`)
or a whole sweep at once (:meth:`ForecastService.submit_many`), but the
model runs most efficiently over batches, so pending rows are queued and
coalesced into a single padded forward pass.  This module holds the pieces
that are independent of any model:

* :class:`ForecastRows` — the deferred results of the rows one submit call
  queued, and :class:`Forecast`, the one handle class on a row of a
  block (a service's, a streaming sweep's or a process shard's);
* :class:`ForecastRequest` — a run of queued rows sharing one submit
  call's timing, priority and covariate signature;
* :func:`group_requests` / :class:`BatchAssembler` — split queued runs by
  covariate signature and copy each group into one rectangular batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.plan import bucket_for

__all__ = [
    "Forecast",
    "ForecastRows",
    "ForecastRequest",
    "group_requests",
    "BatchAssembler",
]


class ForecastRows:
    """Deferred results of the ``n`` rows one submit call queued.

    Rows settle independently — a mid-sweep flush resolves the rows
    admitted before it, admission control refuses or displaces single
    rows — but land in one ``[n, horizon, channels]`` block, so a caller
    holding the whole sweep can post-process it in one vectorised pass.
    A failed row raises its error from :meth:`result`; rows refused at
    admission are also listed in :attr:`refused`.  ``flush`` is what
    :meth:`result` calls to settle a queued row: the owning service's
    ``flush``, or a process shard's ``resolve_pending``.
    """

    __slots__ = ("_flush", "values", "errors", "refused", "_settled")

    def __init__(self, flush, n: int) -> None:
        self._flush = flush
        #: ``[n, horizon, channels]`` model-space forecasts, allocated on the
        #: first resolve; rows that failed stay zero
        self.values: Optional[np.ndarray] = None
        #: row -> the error its result() raises
        self.errors: Dict[int, Exception] = {}
        #: row -> the typed error admission control refused it with
        self.refused: Dict[int, Exception] = {}
        self._settled = np.zeros(n, dtype=bool)

    def done(self, index: int) -> bool:
        """Whether row ``index`` has been computed (or failed)."""
        return bool(self._settled[index])

    def all_done(self) -> bool:
        """Whether every row has been computed (or failed)."""
        return bool(self._settled.all())

    def result(self, index: int) -> np.ndarray:
        """Row ``index``'s ``[horizon, channels]`` forecast; flushes if needed."""
        if not self._settled[index]:
            self._flush()
            if not self._settled[index]:
                raise RuntimeError("forecast not resolved by flush")
        error = self.errors.get(index)
        if error is not None:
            raise error
        return self.values[index]

    def _resolve(self, offset: int, values: np.ndarray) -> None:
        if self.values is None:
            self.values = np.zeros((len(self._settled),) + values.shape[1:], dtype=values.dtype)
        stop = offset + len(values)
        self.values[offset:stop] = values
        self._settled[offset:stop] = True

    def _fail(self, offset: int, count: int, error: Exception, refused: bool = False) -> None:
        for index in range(offset, offset + count):
            self.errors[index] = error
            if refused:
                self.refused[index] = error
        self._settled[offset:offset + count] = True


class Forecast:
    """Deferred result of row ``index`` of a block: the :class:`ForecastRows`
    of a ``submit`` call or a process shard's sweep frame, or a streaming
    sweep (which maps the row back to its tenant's scale).

    :meth:`result` flushes on demand, so callers can treat the handle as
    blocking; a failed row re-raises its error on this handle's caller
    rather than on whichever caller happened to trigger the flush.
    """

    __slots__ = ("_block", "_index")

    def __init__(self, block, index: int = 0) -> None:
        self._block = block
        self._index = index

    def done(self) -> bool:
        """Whether the forecast has been computed (or failed)."""
        return self._block.done(self._index)

    def result(self) -> np.ndarray:
        """The ``[horizon, channels]`` forecast; flushes the queue if needed."""
        return self._block.result(self._index)

    @property
    def admission_error(self) -> Optional[Exception]:
        """The typed error admission control refused this row with, if any."""
        return self._block.refused.get(self._index)


@dataclass(eq=False)
class ForecastRequest:
    """A run of queued rows: padded histories plus optional covariates.

    Every row of a run shares its submit call's clock stamp, priority and
    deadline, and its covariate signature, so the run moves through the
    queue — admission, eviction, expiry, priority order, batching — as
    one entry that :meth:`span` cuts where a row-level decision falls
    inside it.  Row ``i`` resolves into row ``offset + i`` of ``forecast``.
    """

    history: np.ndarray                        # [n, input_length, C], already padded
    observed_length: np.ndarray                # [n] un-padded history lengths
    future_numerical: Optional[np.ndarray]     # [n, horizon, cn] or None
    future_categorical: Optional[np.ndarray]   # [n, horizon, ct] or None
    forecast: ForecastRows
    offset: int = 0
    submitted_at: float = 0.0                  # obs clock at submit (always stamped)
    priority: str = "batch"                    # admission class; see serving.admission
    deadline: Optional[float] = None           # absolute obs-clock deadline, or None

    def __len__(self) -> int:
        return len(self.history)

    @property
    def has_covariates(self) -> bool:
        return self.future_numerical is not None or self.future_categorical is not None

    def span(self, start: int, stop: int) -> "ForecastRequest":
        """Rows ``[start, stop)`` of this run, as a run of their own (views)."""
        if start == 0 and stop == len(self):
            return self
        return ForecastRequest(
            self.history[start:stop],
            self.observed_length[start:stop],
            None if self.future_numerical is None else self.future_numerical[start:stop],
            None if self.future_categorical is None else self.future_categorical[start:stop],
            self.forecast,
            self.offset + start,
            self.submitted_at,
            self.priority,
            self.deadline,
        )

    def _resolve(self, values: np.ndarray) -> None:
        self.forecast._resolve(self.offset, values)

    def _fail(self, error: Exception, refused: bool = False) -> None:
        self.forecast._fail(self.offset, len(self), error, refused)


def _signature(request: ForecastRequest) -> Tuple:
    """Covariate signature; only identically-shaped rows can share a pass."""
    return (
        None if request.future_numerical is None else request.future_numerical.shape[1:],
        None if request.future_categorical is None else request.future_categorical.shape[1:],
    )


def group_requests(requests: Sequence[ForecastRequest]) -> List[List[ForecastRequest]]:
    """Split queued runs into per-forward-pass groups.

    Rows can only share a forward pass when their covariate signatures
    match (the covariate encoder needs full rectangular ``[b, L, c]``
    blocks) — typically one group with covariates and one without.
    Submission order is preserved within a group.
    """
    by_signature: Dict[Tuple, List[ForecastRequest]] = {}
    for request in requests:
        by_signature.setdefault(_signature(request), []).append(request)
    return list(by_signature.values())


class BatchAssembler:
    """Assemble request groups into padded batches over reusable scratch.

    ``np.stack`` per flush allocated a fresh batch block (plus per-row
    copies) every time; the assembler instead keeps one scratch buffer per
    input kind — history, numerical covariates, categorical covariates —
    already in the model's dtype, and copies each run's rows straight in
    with one slice assignment.  Steady-state flushing therefore performs
    no batch-sized allocations and no dtype casts (submit already copied
    every history into a float32 block).

    The returned batch views alias the scratch buffers: they are valid
    until the next :meth:`assemble` call, which is exactly the flush loop's
    assemble → forward → resolve cadence.
    """

    __slots__ = ("_x", "_fn", "_fc")

    def __init__(self) -> None:
        self._x: Optional[np.ndarray] = None
        self._fn: Optional[np.ndarray] = None
        self._fc: Optional[np.ndarray] = None

    @staticmethod
    def _fill(
        buffer: Optional[np.ndarray],
        blocks: List[np.ndarray],
        dtype: np.dtype,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Copy ``blocks`` into (a large-enough) ``buffer``; returns (buffer, view)."""
        n = sum(len(block) for block in blocks)
        row_shape = blocks[0].shape[1:]
        if buffer is None or buffer.shape[0] < n or buffer.shape[1:] != row_shape:
            # Clamp scratch capacity to the active power-of-two bucket —
            # the same bucketing the compiled-plan cache uses — so
            # fluctuating group sizes reallocate O(log max_batch) times
            # and then stabilise, instead of growing row by row.
            buffer = np.empty((bucket_for(n),) + row_shape, dtype=dtype)
        view = buffer[:n]
        start = 0
        for block in blocks:
            view[start:start + len(block)] = block
            start += len(block)
        return buffer, view

    def assemble(self, members: Sequence[ForecastRequest]) -> Dict[str, Optional[np.ndarray]]:
        """One batch dictionary (keys ``x`` / ``future_numerical`` /
        ``future_categorical``) for a signature-homogeneous group."""
        batch: Dict[str, Optional[np.ndarray]] = {
            "x": None,
            "future_numerical": None,
            "future_categorical": None,
        }
        self._x, batch["x"] = self._fill(
            self._x, [r.history for r in members], np.float32
        )
        first = members[0]
        if first.future_numerical is not None:
            self._fn, batch["future_numerical"] = self._fill(
                self._fn, [r.future_numerical for r in members], np.float32
            )
        if first.future_categorical is not None:
            self._fc, batch["future_categorical"] = self._fill(
                self._fc, [r.future_categorical for r in members], np.int64
            )
        return batch
