"""Saving and loading model parameters as ``.npz`` archives."""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from .module import Module

__all__ = ["save_state", "load_state", "save_module", "load_module"]


def save_state(state: Dict[str, np.ndarray], path: str, compressed: bool = False) -> None:
    """Write a state dict to ``path`` (``.npz``).

    ``compressed=True`` trades write time for zipped entries — the right
    default for snapshot archives that hold many small per-tenant arrays
    (cluster/streaming state), while model weights stay uncompressed for
    fast replica loads (``ServiceSpec(weights_path=...)``).
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    writer = np.savez_compressed if compressed else np.savez
    writer(path, **state)


def load_state(path: str) -> Dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state`."""
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def save_module(module: Module, path: str) -> None:
    """Persist a module's parameters."""
    save_state(module.state_dict(), path)


def load_module(module: Module, path: str) -> Module:
    """Load parameters into ``module`` in place and return it."""
    module.load_state_dict(load_state(path))
    return module
