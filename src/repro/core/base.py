"""Common interface implemented by LiPFormer and every baseline model."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import ModelConfig
from ..nn import Module, Tensor, as_tensor

__all__ = ["ForecastModel"]


class ForecastModel(Module):
    """Base class for multivariate forecasters.

    Sub-classes implement :meth:`forward` taking a history tensor of shape
    ``[batch, input_length, channels]`` plus optional future covariates and
    returning a forecast of shape ``[batch, horizon, channels]``.

    ``supports_covariates`` advertises whether the model consumes the
    covariate arguments; the trainer passes them only when supported so that
    covariate-agnostic baselines (DLinear, PatchTST, ...) match the paper's
    protocol.
    """

    #: whether the model consumes explicit/implicit future covariates
    supports_covariates: bool = False

    #: whether ``predict(compiled=True)`` may trace this model into a
    #: graph-free :class:`~repro.nn.plan.InferencePlan`.  Opt-in: a model
    #: may only set this when its ``forward`` is shape-determined — no
    #: value-dependent raw-NumPy constants baked in mid-forward.
    supports_compiled_plan: bool = False

    def __init__(self, config: ModelConfig) -> None:
        super().__init__()
        self.config = config

    # ------------------------------------------------------------------ #
    def compiled_predictor(self):
        """The lazily created per-model plan cache (compiled fast path)."""
        from ..nn.plan import CompiledPredictor

        predictor = getattr(self, "_compiled", None)
        if predictor is None:
            predictor = self._compiled = CompiledPredictor(self)
        return predictor

    # ------------------------------------------------------------------ #
    def forward(
        self,
        x: Tensor,
        future_numerical: Optional[np.ndarray] = None,
        future_categorical: Optional[np.ndarray] = None,
    ) -> Tensor:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def predict(
        self,
        x: np.ndarray,
        future_numerical: Optional[np.ndarray] = None,
        future_categorical: Optional[np.ndarray] = None,
        compiled: bool = False,
    ) -> np.ndarray:
        """Inference helper: NumPy in, NumPy out, no gradient tracking.

        With ``compiled=True`` (and a model that opted into
        ``supports_compiled_plan``) the call routes through the per-model
        :class:`~repro.nn.plan.CompiledPredictor`: a graph-free replay of
        the traced forward over a preallocated arena, bit-identical to the
        eager path.  Unsupported models, failed traces and lock contention
        all fall back to eager transparently.
        """
        from ..nn import no_grad

        x = np.asarray(x, dtype=np.float32)
        if compiled and self.supports_compiled_plan:
            # Plan replay is independent of the train/eval flag (plans are
            # traced in eval mode; replay touches no stochastic layers), so
            # the hit path skips the module-tree eval()/train() walks.
            output = self._predict_compiled(x, future_numerical, future_categorical)
            if output is not None:
                return output
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                result = self.forward(
                    as_tensor(x),
                    future_numerical=future_numerical,
                    future_categorical=future_categorical,
                )
        finally:
            self.train(was_training)
        return result.data

    def _predict_compiled(
        self,
        x: np.ndarray,
        future_numerical: Optional[np.ndarray],
        future_categorical: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Compiled fast path; ``None`` means "run eager instead"."""
        predictor = self.compiled_predictor()
        output = predictor.predict(x, future_numerical, future_categorical)
        if output is None and predictor.needs_eval_trace:
            # First call for this signature arrived with the model in
            # training mode: flip to eval for the trace, exactly like the
            # eager path does, then retry once.
            was_training = self.training
            self.eval()
            try:
                output = predictor.predict(x, future_numerical, future_categorical)
            finally:
                self.train(was_training)
        return output

    def _validate_input(self, x: Tensor) -> None:
        if x.ndim != 3:
            raise ValueError(f"expected input of shape [batch, time, channels], got {x.shape}")
        if x.shape[1] != self.config.input_length:
            raise ValueError(
                f"expected input_length {self.config.input_length}, got {x.shape[1]}"
            )
        if x.shape[2] != self.config.n_channels:
            raise ValueError(
                f"expected {self.config.n_channels} channels, got {x.shape[2]}"
            )
