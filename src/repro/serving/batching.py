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
* :func:`group_requests` / :func:`stage_group` — split queued runs by
  covariate signature and hand each group to the model as one rectangular
  batch: a one-run group as the queued block's own views, several runs
  joined with ``np.concatenate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Forecast",
    "ForecastRows",
    "ForecastRequest",
    "group_requests",
    "stage_group",
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


def stage_group(members: Sequence[ForecastRequest]) -> Dict[str, Optional[np.ndarray]]:
    """The model inputs of one forward-pass group (keys ``x`` /
    ``future_numerical`` / ``future_categorical``).

    A one-run group hands over its run's own views of the queued block;
    several runs are joined with one ``np.concatenate`` per field.  Submit
    already cast every field to the model's dtype, and the compiled plan
    copies its inputs into its own buffers, so that copy is the only
    staging copy a one-run pass takes.
    """

    def join(field: str) -> Optional[np.ndarray]:
        blocks = [getattr(request, field) for request in members]
        if blocks[0] is None:
            return None
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    return {
        "x": join("history"),
        "future_numerical": join("future_numerical"),
        "future_categorical": join("future_categorical"),
    }
