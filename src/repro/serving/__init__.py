"""``repro.serving`` — batched inference serving.

The serving subsystem turns the repo's train-time models into a
request-level inference stack:

* :class:`ForecastService` — ``submit(history, covariates) -> Forecast``
  (or ``submit_many`` for a whole sweep) with a micro-batching queue that
  coalesces pending requests into single padded forward passes under
  ``no_grad``;
* :class:`ModelRegistry` — an LRU cache of live models keyed on
  ``(model_name, config_hash)``, spilling evicted weights through
  :mod:`repro.nn.serialization` so multiple scenarios share one process;
* batching helpers (:func:`pad_history`, :func:`group_requests`,
  :class:`BatchAssembler`) and stats
  objects for observing cache and batching behaviour;
* :mod:`repro.serving.admission` — overload protection: priority classes
  (:data:`PRIORITIES`), per-request deadlines, and an
  :class:`AdmissionPolicy` that sheds over-capacity or expired work with
  typed :class:`Overloaded` / :class:`DeadlineExceeded` errors instead of
  queueing unboundedly.

See ``examples/serving_quickstart.py`` for an end-to-end tour and
``benchmarks/test_serving_throughput.py`` for the measured batched-vs-
sequential speedup.  The streaming subsystem (:mod:`repro.streaming`)
layers multi-tenant online ingestion on top of this request API — its
per-tenant forecasts are ordinary ``submit`` traffic, so they coalesce
with each other (and with any direct callers) in the same queue.
"""

from .admission import (
    DEFAULT_PRIORITY,
    PRIORITIES,
    AdmissionPolicy,
    DeadlineExceeded,
    Overloaded,
)
from .batching import (
    BatchAssembler,
    Forecast,
    ForecastRequest,
    ForecastRows,
    group_requests,
    pad_history,
)
from .registry import ModelRegistry, RegistryStats, config_hash
from .service import ForecastService, ServiceStats

__all__ = [
    "Forecast",
    "ForecastRows",
    "ForecastRequest",
    "pad_history",
    "group_requests",
    "BatchAssembler",
    "ModelRegistry",
    "RegistryStats",
    "config_hash",
    "ForecastService",
    "ServiceStats",
    "PRIORITIES",
    "DEFAULT_PRIORITY",
    "AdmissionPolicy",
    "Overloaded",
    "DeadlineExceeded",
]
