"""LiPFormer's two patch-wise attention mechanisms (paper Section III-C1).

Cross-Patch attention
    operates on the *trend sequences* — the ``pl`` series obtained by
    reading a fixed position of every patch in order.  Attention across
    those sequences captures global trend correlations and replaces
    Positional Encoding.  Its Q/K/V projections act on the patch-count axis
    (``n``), so the cost is ``O(n^2)`` parameters, tiny compared to a
    Transformer block.

Inter-Patch attention
    operates on patch tokens embedded into the hidden space.  To honour the
    paper's "FFN-less linear attention" parameter budget of ``O(hd · pl)``
    (instead of the standard ``O(hd^2)``), the query and key projections map
    the hidden dimension down to ``pl`` and the value path is the identity;
    attention weights computed over the compact ``pl``-dimensional space are
    applied directly to the hidden representation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Dropout, Linear, Module, Tensor
from ..nn import functional as F

__all__ = ["CrossPatchAttention", "InterPatchAttention"]


class CrossPatchAttention(Module):
    """Self-attention across trend sequences, with a residual connection.

    Input and output shape: ``[b*c, n, pl]``.
    """

    def __init__(
        self,
        n_patches: int,
        patch_length: int,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.n_patches = n_patches
        self.patch_length = patch_length
        self.query = Linear(n_patches, n_patches, rng=rng)
        self.key = Linear(n_patches, n_patches, rng=rng)
        self.value = Linear(n_patches, n_patches, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, patches: Tensor) -> Tensor:
        if patches.shape[-1] != self.patch_length or patches.shape[-2] != self.n_patches:
            raise ValueError(
                f"expected patches of shape [*, {self.n_patches}, {self.patch_length}], "
                f"got {patches.shape}"
            )
        trends = patches.transpose(0, 2, 1)  # [b*c, pl, n]: pl trend tokens of dim n
        attended = F.scaled_dot_product_attention(
            self.query(trends), self.key(trends), self.value(trends)
        )
        attended = self.dropout(attended).transpose(0, 2, 1)  # back to [b*c, n, pl]
        return attended + patches


class InterPatchAttention(Module):
    """Lightweight attention over patch tokens in the hidden space.

    Input and output shape: ``[b*c, n, hd]``.  Queries and keys are projected
    to ``pl`` dimensions (``O(hd · pl)`` parameters); values are the hidden
    representations themselves, so no value/output projection is needed.
    """

    def __init__(
        self,
        hidden_dim: int,
        attention_dim: int,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.hidden_dim = hidden_dim
        self.attention_dim = attention_dim
        self.query = Linear(hidden_dim, attention_dim, rng=rng)
        self.key = Linear(hidden_dim, attention_dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, tokens: Tensor) -> Tensor:
        if tokens.shape[-1] != self.hidden_dim:
            raise ValueError(
                f"expected hidden dimension {self.hidden_dim}, got {tokens.shape[-1]}"
            )
        attended = F.scaled_dot_product_attention(self.query(tokens), self.key(tokens), tokens)
        return self.dropout(attended) + tokens
