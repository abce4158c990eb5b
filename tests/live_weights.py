"""Seeded live weights for parity oracles.

A freshly built predictor has a zero-initialised ``value_head``, so its
forecast does not depend on most of the input window: a fault in padding,
row alignment or denormalisation can give the same bits as the right
answer.  :func:`perturb` adds ``scale * N(0, 1)`` to every parameter from
a seeded generator, so every step of every window reaches the output;
:func:`write_live_weights` saves such a model for
``ServiceSpec(weights_path=...)``, which serves it on either backend.
"""

import numpy as np

from repro.baselines.registry import create_model
from repro.nn.serialization import save_module

SCALE = 0.5


def perturb(model, seed: int = 0, scale: float = SCALE):
    """Add ``scale * N(0, 1)`` to each of ``model``'s parameters, in place."""
    rng = np.random.default_rng(seed)
    model.load_state_dict(
        {
            name: value + scale * rng.standard_normal(value.shape)
            for name, value in model.state_dict().items()
        }
    )
    return model


def write_live_weights(config, path, seed: int = 0, model: str = "LiPFormer") -> str:
    """Build ``model`` from ``config``, perturb it and save it to ``path``."""
    save_module(perturb(create_model(model, config), seed), str(path))
    return str(path)
