"""``repro.serving`` — batched inference serving.

The serving subsystem turns the repo's train-time models into a
request-level inference stack:

* :class:`ForecastService` — ``submit_many`` for a whole sweep's block of
  rows (or ``submit(history, covariates) -> Forecast``, a one-row block on
  the same path) with a micro-batching queue that coalesces pending rows
  into single padded forward passes under ``no_grad``;
* batching helpers (:func:`group_requests`, :func:`stage_group`) and
  :class:`ServiceStats` for observing batching behaviour;
* :mod:`repro.serving.admission` — overload protection: priority classes
  (:data:`PRIORITIES`), per-request deadlines, and an
  :class:`AdmissionPolicy` that sheds over-capacity or expired work with
  typed :class:`Overloaded` / :class:`DeadlineExceeded` errors instead of
  queueing unboundedly.

See ``examples/serving_quickstart.py`` for an end-to-end tour and
``benchmarks/test_serving_throughput.py`` for the measured batched-vs-
sequential speedup.  The streaming subsystem (:mod:`repro.streaming`)
layers multi-tenant online ingestion on top of this request API — a
sweep's forecasts are one ``submit_many`` block, so they coalesce with
each other (and with any direct callers) in the same queue.
"""

from .admission import (
    DEFAULT_PRIORITY,
    PRIORITIES,
    AdmissionPolicy,
    DeadlineExceeded,
    Overloaded,
)
from .batching import (
    Forecast,
    ForecastRequest,
    ForecastRows,
    group_requests,
    stage_group,
)
from .service import ForecastService, ServiceStats

__all__ = [
    "Forecast",
    "ForecastRows",
    "ForecastRequest",
    "group_requests",
    "stage_group",
    "ForecastService",
    "ServiceStats",
    "PRIORITIES",
    "DEFAULT_PRIORITY",
    "AdmissionPolicy",
    "Overloaded",
    "DeadlineExceeded",
]
