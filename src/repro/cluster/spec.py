"""Declarative replica recipes: build identical model replicas anywhere.

Thread-backed shards take an arbitrary ``service_factory`` closure — fine
inside one process, but a closure cannot cross a process boundary without
pickling it, which the transport layer bans.  :class:`ServiceSpec` is the
declarative replacement: *data* describing how to build a replica (model
name, :class:`~repro.config.ModelConfig`, batching knobs, optional weights
path), codec-serialisable, with one :meth:`build` that produces the
:class:`~repro.serving.service.ForecastService`.

Replica parity across processes falls out of the registry's determinism:
``create_model`` seeds its RNG from ``config.seed`` when none is given, so
every process building the same spec holds bit-identical weights — the
property the cluster's bit-parity oracle rests on.  Training pipelines
pass ``weights_path`` to serve checkpointed weights instead.

A spec is also a valid ``service_factory`` for the thread backend (it is
callable), so one recipe drives both deployments.

:class:`ClusterSpec` is the operational counterpart: where
:class:`ServiceSpec` describes one replica, :class:`ClusterSpec`
describes the deployment around it — shard count, backend, timeouts and
the resilience knobs (retry/backoff, circuit breaker).  It is the one
place deployment knobs are validated: :func:`~repro.cluster.process.build_cluster`
and both cluster constructors turn loose keyword arguments into one, and
the process backend keeps it as ``cluster_spec``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from ..baselines.registry import create_model
from ..config import ModelConfig
from ..nn.serialization import load_module
from ..serving.admission import AdmissionPolicy
from ..serving.service import ForecastService, check_max_batch_size
from ..streaming.forecaster import _NORMALIZATIONS

__all__ = ["ServiceSpec", "ClusterSpec", "validate_cluster_timeouts"]


def validate_cluster_timeouts(request_timeout: float, heartbeat_timeout: float) -> None:
    """Shared timeout sanity: both positive, heartbeat strictly tighter.

    A heartbeat budget at or above the request budget would make
    ``detect_failures`` the *slowest* way to notice a wedged worker —
    the opposite of its job.
    """
    if request_timeout <= 0:
        raise ValueError(f"request_timeout must be > 0, got {request_timeout}")
    if heartbeat_timeout <= 0:
        raise ValueError(f"heartbeat_timeout must be > 0, got {heartbeat_timeout}")
    if heartbeat_timeout >= request_timeout:
        raise ValueError(
            f"heartbeat_timeout ({heartbeat_timeout}) must be smaller than "
            f"request_timeout ({request_timeout}): the liveness probe must "
            "fail faster than a full request"
        )


@dataclass(frozen=True)
class ServiceSpec:
    """Everything needed to construct one model replica, as plain data."""

    model: str = "LiPFormer"
    config: ModelConfig = field(default_factory=ModelConfig)
    max_batch_size: int = 32
    compiled: bool = True
    weights_path: Optional[str] = None
    #: admission knobs — forwarded into each replica's
    #: :class:`~repro.serving.admission.AdmissionPolicy`, so a worker
    #: process sheds over-capacity / expired work exactly like a local
    #: service would.  The defaults keep admission inert.
    queue_limit: Optional[int] = None
    default_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        check_max_batch_size(self.max_batch_size)   # the replica's checks, before any spawn
        self._admission()

    def _admission(self) -> Optional[AdmissionPolicy]:
        if self.queue_limit is None and self.default_timeout is None:
            return None
        return AdmissionPolicy(queue_limit=self.queue_limit, default_timeout=self.default_timeout)

    def build(self) -> ForecastService:
        """Construct the replica this spec describes.

        Weights are deterministic in ``config.seed`` unless a
        ``weights_path`` overrides them, so two processes building the
        same spec serve bit-identical forecasts.
        """
        model = create_model(self.model, self.config)
        if self.weights_path is not None:
            load_module(model, self.weights_path)
        return ForecastService(
            model,
            max_batch_size=self.max_batch_size,
            compiled=self.compiled,
            admission=self._admission(),
        )

    # Thread-backed shards accept any zero-arg service factory; a spec is
    # one, so ``ShardedForecaster(spec, ...)`` works unchanged.
    __call__ = build

    def to_state(self) -> dict:
        """Codec-compatible description (for the wire / snapshots)."""
        return {
            "model": self.model,
            "config": asdict(self.config),
            "max_batch_size": int(self.max_batch_size),
            "compiled": bool(self.compiled),
            "weights_path": self.weights_path,
            "queue_limit": None if self.queue_limit is None else int(self.queue_limit),
            "default_timeout": (
                None if self.default_timeout is None else float(self.default_timeout)
            ),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ServiceSpec":
        """Invert :meth:`to_state`."""
        config = dict(state["config"])
        # The codec renders tuples as lists; the config field is a tuple.
        config["covariate_categorical_cardinalities"] = tuple(
            int(c) for c in config.get("covariate_categorical_cardinalities", ())
        )
        queue_limit = state.get("queue_limit")
        default_timeout = state.get("default_timeout")
        return cls(
            model=str(state["model"]),
            config=ModelConfig(**{k: v for k, v in config.items()}),
            max_batch_size=int(state["max_batch_size"]),
            compiled=bool(state["compiled"]),
            weights_path=state.get("weights_path"),
            queue_limit=None if queue_limit is None else int(queue_limit),
            default_timeout=None if default_timeout is None else float(default_timeout),
        )


@dataclass(frozen=True)
class ClusterSpec:
    """Operational shape of a deployment: shards, timeouts, resilience.

    Validated at construction so a misconfigured cluster fails before any
    worker spawns:

    * ``normalization`` — one of the streaming forecaster's modes,
      ``"none"`` or ``"rolling"``;
    * ``request_timeout`` / ``heartbeat_timeout`` — both positive, with
      the heartbeat strictly tighter than a full request
      (:func:`validate_cluster_timeouts`);
    * ``retry_*`` — the :class:`~repro.runtime.CircuitBreaker` /
      :class:`~repro.runtime.RetryPolicy` knobs each
      :class:`~repro.cluster.process.ProcessShard` is built with.

    Thread-backend deployments ignore the process-only knobs (timeouts,
    retries, breakers) — there is no process gap to protect.  When a
    cluster is restored from a snapshot, the snapshot supplies the shape
    (shards, normalisation, capacity, vnodes) and the spec only the
    resilience knobs.
    """

    n_shards: int = 2
    backend: str = "thread"
    normalization: str = "none"
    window_capacity: Optional[int] = None
    vnodes: int = 64
    request_timeout: float = 120.0
    heartbeat_timeout: float = 5.0
    retry_attempts: int = 3
    retry_base: float = 0.05
    retry_cap: float = 2.0
    breaker_threshold: int = 3
    breaker_reset: float = 5.0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {self.n_shards}")
        if self.backend not in ("thread", "process"):
            raise ValueError(
                f"unknown backend {self.backend!r}; use 'thread' or 'process'"
            )
        if self.normalization not in _NORMALIZATIONS:
            raise ValueError(
                f"unknown normalization {self.normalization!r}; use one of {_NORMALIZATIONS}"
            )
        validate_cluster_timeouts(self.request_timeout, self.heartbeat_timeout)
        if self.retry_attempts < 1:
            raise ValueError(f"retry_attempts must be >= 1, got {self.retry_attempts}")
        if self.retry_base <= 0 or self.retry_cap < self.retry_base:
            raise ValueError(
                f"need 0 < retry_base <= retry_cap, got "
                f"base={self.retry_base} cap={self.retry_cap}"
            )
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_reset <= 0:
            raise ValueError(f"breaker_reset must be > 0, got {self.breaker_reset}")
