"""``repro.profiling`` — parameters, MACs, timing and edge-device emulation."""

from .edge import edge_inference_profile, limit_blas_threads
from .macs import measure_macs
from .params import count_parameters, human_readable_count, parameter_breakdown
from .summary import ModelCard, model_card, model_summary
from .timing import interleave, time_callable, time_forward, time_inference, time_training_step

__all__ = [
    "edge_inference_profile",
    "limit_blas_threads",
    "measure_macs",
    "count_parameters",
    "human_readable_count",
    "interleave",
    "parameter_breakdown",
    "ModelCard",
    "model_card",
    "model_summary",
    "time_callable",
    "time_forward",
    "time_inference",
    "time_training_step",
]
