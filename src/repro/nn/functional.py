"""Functional building blocks used by layers and models.

These functions operate on :class:`repro.nn.tensor.Tensor` objects and are
fully differentiable through the autograd engine.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .tensor import (
    MacCounter,
    Tensor,
    _trace_state,
    _unbroadcast,
    as_tensor,
    concatenate,
    is_grad_enabled,
    stack,
    where_mask,
)

__all__ = [
    "relu",
    "gelu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "softmax_kernel",
    "log_softmax_kernel",
    "layer_norm_kernel",
    "gelu_kernel",
    "attention_scores_kernel",
    "attention_output_kernel",
    "dropout",
    "manual_seed",
    "default_generator",
    "linear",
    "layer_norm",
    "scaled_dot_product_attention",
    "one_hot",
    "concatenate",
    "stack",
]

# Shared fallback generator for stochastic ops (dropout) that are called
# without an explicit ``rng``.  A module-level generator — reseedable via
# :func:`manual_seed` — makes two identically-seeded training runs produce
# identical losses even when callers never thread a generator through.
_generator: np.random.Generator = np.random.default_rng()


def manual_seed(seed: int) -> None:
    """Reseed the shared fallback generator used by stochastic ops.

    Mirrors ``torch.manual_seed``: after calling this, any stochastic
    function invoked without an explicit ``rng`` draws from a generator
    seeded with ``seed``, so runs are reproducible end to end.
    """
    global _generator
    _generator = np.random.default_rng(seed)


def default_generator() -> np.random.Generator:
    """The shared generator used when no explicit ``rng`` is supplied."""
    return _generator


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


_GELU_C = 0.7978845608028654  # sqrt(2 / pi)
_GELU_A = 0.044715


def gelu_kernel(
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
    inner_buf: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fused GELU (tanh approximation) forward kernel (plain NumPy).

    The single source of truth shared by the eager autograd op below and by
    traced inference plans.  With ``out`` and ``inner_buf`` (both shaped
    like ``x``) the computation is allocation-free: ``inner_buf`` holds the
    tanh argument, ``out`` accumulates ``0.5 * x * (1 + tanh(...))``.  The
    operation order reproduces the former composite expression
    ``x * 0.5 * (((x + x^3 * a) * c).tanh() + 1)`` bit-for-bit.
    """
    inner = np.multiply(x, x, out=inner_buf)
    np.multiply(inner, x, out=inner)
    np.multiply(inner, _GELU_A, out=inner)
    np.add(x, inner, out=inner)
    np.multiply(inner, _GELU_C, out=inner)
    np.tanh(inner, out=inner)
    np.add(inner, 1.0, out=inner)
    result = np.multiply(x, 0.5, out=out)
    np.multiply(result, inner, out=result)
    return result


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, primitive op)."""
    x = as_tensor(x)
    a = x.data
    if is_grad_enabled() and x.requires_grad:
        u = (a + a * a * a * _GELU_A) * _GELU_C
        t = np.tanh(u)
        out_data = a * 0.5 * (t + 1.0)

        def backward(grad: np.ndarray) -> None:
            du = _GELU_C * (1.0 + 3.0 * _GELU_A * a * a)
            x._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * a * (1.0 - t * t) * du))

        return Tensor._node(out_data, (x,), backward)
    out_data = gelu_kernel(a)
    rec = _trace_state.recorder
    if rec is not None:
        inner_buf = np.empty_like(out_data)
        rec.add(
            lambda a, ib, o: gelu_kernel(a, out=o, inner_buf=ib),
            (a, inner_buf, out_data),
            out_data,
            scratch=(inner_buf,),
        )
    return Tensor._wrap(out_data)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def softmax_kernel(
    x: np.ndarray,
    axis: int = -1,
    out: Optional[np.ndarray] = None,
    reduce_buf: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Numerically stable softmax forward kernel (plain NumPy).

    The single source of truth shared by the eager autograd op below and by
    traced inference plans (:mod:`repro.nn.plan`).  When ``out`` (shaped
    like ``x``) and ``reduce_buf`` (shaped like ``x`` with ``axis`` reduced
    to 1) are given, the computation is allocation-free: ``reduce_buf``
    holds the row maximum and is then reused for the normalising sum.
    """
    mx = np.amax(x, axis=axis, keepdims=True, out=reduce_buf)
    shifted = np.subtract(x, mx, out=out)
    np.exp(shifted, out=shifted)
    total = np.sum(shifted, axis=axis, keepdims=True, out=reduce_buf)
    np.divide(shifted, total, out=shifted)
    return shifted


def log_softmax_kernel(
    x: np.ndarray,
    axis: int = -1,
    out: Optional[np.ndarray] = None,
    exp_buf: Optional[np.ndarray] = None,
    reduce_buf: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Numerically stable log-softmax forward kernel (plain NumPy).

    With ``out`` / ``exp_buf`` (shaped like ``x``) and ``reduce_buf``
    (``axis`` reduced to 1) the computation is allocation-free:
    ``reduce_buf`` holds the row maximum and is then reused for the
    normalising sum, exactly as in :func:`softmax_kernel`.
    """
    mx = np.amax(x, axis=axis, keepdims=True, out=reduce_buf)
    shifted = np.subtract(x, mx, out=out)
    exp = np.exp(shifted, out=exp_buf)
    total = np.sum(exp, axis=axis, keepdims=True, out=reduce_buf)
    np.log(total, out=total)
    np.subtract(shifted, total, out=shifted)
    return shifted


def layer_norm_kernel(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    eps: float = 1e-5,
    out: Optional[np.ndarray] = None,
    square_buf: Optional[np.ndarray] = None,
    reduce_buf: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Layer-normalisation forward kernel over the last dimension.

    Shared by the eager autograd op and traced plans; with ``out`` /
    ``square_buf`` (shaped like ``x``) and ``reduce_buf`` (last dim reduced
    to 1) the computation is allocation-free.  ``reduce_buf`` holds the mean
    until ``centered`` is formed, then the variance/denominator.
    """
    n = float(x.shape[-1])
    mean = np.sum(x, axis=-1, keepdims=True, out=reduce_buf)
    np.divide(mean, n, out=mean)
    centered = np.subtract(x, mean, out=out)
    squares = np.multiply(centered, centered, out=square_buf)
    denom = np.sum(squares, axis=-1, keepdims=True, out=reduce_buf)
    np.divide(denom, n, out=denom)
    np.add(denom, eps, out=denom)
    np.sqrt(denom, out=denom)
    np.divide(centered, denom, out=centered)
    np.multiply(centered, weight, out=centered)
    np.add(centered, bias, out=centered)
    return centered


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (primitive autograd op)."""
    x = as_tensor(x)
    a = x.data
    out_data = softmax_kernel(a, axis=axis)
    if is_grad_enabled() and x.requires_grad:

        def backward(grad: np.ndarray) -> None:
            inner = np.sum(grad * out_data, axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - inner))

        return Tensor._node(out_data, (x,), backward)
    rec = _trace_state.recorder
    if rec is not None:
        reduced = list(a.shape)
        reduced[axis] = 1
        reduce_buf = np.empty(tuple(reduced), dtype=out_data.dtype)
        rec.add(
            lambda a, rb, o, ax=axis: softmax_kernel(a, axis=ax, out=o, reduce_buf=rb),
            (a, reduce_buf, out_data),
            out_data,
            scratch=(reduce_buf,),
        )
    return Tensor._wrap(out_data)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log of the softmax along ``axis``, computed stably (primitive op)."""
    x = as_tensor(x)
    a = x.data
    out_data = log_softmax_kernel(a, axis=axis)
    if is_grad_enabled() and x.requires_grad:

        def backward(grad: np.ndarray) -> None:
            total = np.sum(grad, axis=axis, keepdims=True)
            x._accumulate(grad - np.exp(out_data) * total)

        return Tensor._node(out_data, (x,), backward)
    rec = _trace_state.recorder
    if rec is not None:
        reduced = list(a.shape)
        reduced[axis] = 1
        exp_buf = np.empty_like(out_data)
        reduce_buf = np.empty(tuple(reduced), dtype=out_data.dtype)
        rec.add(
            lambda a, eb, rb, o, ax=axis: log_softmax_kernel(
                a, axis=ax, out=o, exp_buf=eb, reduce_buf=rb
            ),
            (a, exp_buf, reduce_buf, out_data),
            out_data,
            scratch=(exp_buf, reduce_buf),
        )
    return Tensor._wrap(out_data)


def dropout(
    x: Tensor,
    p: float,
    training: bool,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout: zero entries with probability ``p`` during training.

    When ``rng`` is ``None`` the mask is drawn from the module-level
    generator (see :func:`manual_seed`) rather than a fresh unseeded
    ``np.random.default_rng()`` per call, so seeded runs are reproducible.
    """
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    generator = rng if rng is not None else _generator
    mask = (generator.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` matching ``torch.nn.functional.linear``.

    A C-contiguous input with more than two dims runs as one 2-D GEMM
    over its flattened leading dims instead of one GEMM per leading
    index; both reshapes are views, so a plan records no extra step.
    """
    x = as_tensor(x)
    lead = x.shape[:-1]
    flat = x.ndim > 2 and x.data.flags.c_contiguous
    if flat:
        x = x.reshape(-1, x.shape[-1])
    out = x @ weight.swapaxes(-1, -2)
    if bias is not None:
        out = out + bias
    return out.reshape(lead + out.shape[-1:]) if flat else out


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension (primitive autograd op)."""
    x = as_tensor(x)
    weight = as_tensor(weight)
    bias = as_tensor(bias)
    a, w, b = x.data, weight.data, bias.data
    if is_grad_enabled() and (x.requires_grad or weight.requires_grad or bias.requires_grad):
        n = float(a.shape[-1])
        mean = np.sum(a, axis=-1, keepdims=True) / n
        centered = a - mean
        sigma = np.sqrt(np.sum(centered * centered, axis=-1, keepdims=True) / n + eps)
        normalised = centered / sigma
        out_data = normalised * w + b

        def backward(grad: np.ndarray) -> None:
            if bias.requires_grad:
                bias._accumulate(_unbroadcast(grad, b.shape))
            if weight.requires_grad:
                weight._accumulate(_unbroadcast(grad * normalised, w.shape))
            if x.requires_grad:
                d_norm = grad * w
                m1 = np.mean(d_norm, axis=-1, keepdims=True)
                m2 = np.mean(d_norm * normalised, axis=-1, keepdims=True)
                x._accumulate((d_norm - m1 - normalised * m2) / sigma)

        return Tensor._node(out_data, (x, weight, bias), backward)
    out_data = layer_norm_kernel(a, w, b, eps=eps)
    rec = _trace_state.recorder
    if rec is not None:
        square_buf = np.empty_like(out_data)
        reduce_buf = np.empty(a.shape[:-1] + (1,), dtype=out_data.dtype)
        rec.add(
            lambda a, w, b, sq, rb, o, e=eps: layer_norm_kernel(
                a, w, b, eps=e, out=o, square_buf=sq, reduce_buf=rb
            ),
            (a, w, b, square_buf, reduce_buf, out_data),
            out_data,
            scratch=(square_buf, reduce_buf),
        )
    return Tensor._wrap(out_data)


def _query_major(scores: np.ndarray, n_key: int, lead: tuple, n_query: int) -> np.ndarray:
    """The flat key-major ``[Lk, rows]`` scores as a ``lead + (Lq, Lk)`` view."""
    by_key = scores.reshape((n_key,) + lead + (n_query,))
    return by_key.transpose(tuple(range(1, len(lead) + 2)) + (0,))


def attention_scores_kernel(query: np.ndarray, key: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Scaled scores ``Q K^T / sqrt(d)`` written key-major into ``out``.

    ``out`` is a flat buffer of ``Lk * rows`` entries, ``rows =
    prod(lead) * Lq``, read as ``[Lk, rows]``: every query row is a
    column, so the softmax that follows reduces over axis 0 with
    whole-row vector ops instead of one short inner loop per query.  The
    matmul ``K Q^T`` writes straight into that layout through a
    transposed view.  Shared by the eager op and plan replay; a plan
    rebinds ``out`` to a leading prefix, which is this same layout for
    the smaller batch.
    """
    by_query = _query_major(out, key.shape[-2], query.shape[:-2], query.shape[-2])
    np.matmul(key, np.swapaxes(query, -1, -2), out=np.swapaxes(by_query, -1, -2))
    np.divide(out, math.sqrt(query.shape[-1]), out=out)
    return out


def attention_output_kernel(
    value: np.ndarray,
    scores: np.ndarray,
    reduce_buf: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Softmax over the keys of the key-major ``scores``, then ``weights @ V``.

    ``scores`` comes from :func:`attention_scores_kernel` and is turned
    into the attention weights in place; ``reduce_buf`` (``rows``
    entries) holds the column maximum and then the normalising sum.  The
    matmul reads the weights through a transposed view, so nothing is
    copied.
    """
    weights = scores.reshape(value.shape[-2], reduce_buf.shape[0])
    np.amax(weights, axis=0, out=reduce_buf)
    np.subtract(weights, reduce_buf, out=weights)
    np.exp(weights, out=weights)
    np.sum(weights, axis=0, out=reduce_buf)
    np.divide(weights, reduce_buf, out=weights)
    by_query = _query_major(scores, value.shape[-2], out.shape[:-2], out.shape[-2])
    return np.matmul(by_query, value, out=out)


def scaled_dot_product_attention(query: Tensor, key: Tensor, value: Tensor) -> Tensor:
    """``softmax(Q K^T / sqrt(d)) V`` as one primitive autograd op.

    ``query``/``key``/``value`` share their leading dims; ``Lq`` may differ
    from ``Lk`` and ``d`` from ``dv``.  A plan records two steps — the
    scores, then softmax and ``weights @ V`` — so ``query`` and ``key``
    die before the softmax and the arena can reuse their storage.
    """
    query, key, value = as_tensor(query), as_tensor(key), as_tensor(value)
    q, k, v = query.data, key.data, value.data
    lead, (n_query, d), n_key = q.shape[:-2], q.shape[-2:], k.shape[-2]
    if (k.shape[:-2], v.shape[:-2], k.shape[-1], v.shape[-2]) != (lead, lead, d, n_key):
        raise ValueError(
            f"attention shapes do not match: query {q.shape}, key {k.shape}, value {v.shape}"
        )
    rows = math.prod(lead) * n_query
    if MacCounter.active is not None:
        MacCounter.active.add(rows * n_key * (d + v.shape[-1]))
    scores = np.empty(n_key * rows, dtype=np.result_type(q, k))
    reduce_buf = np.empty(rows, dtype=scores.dtype)
    out_data = np.empty(lead + (n_query, v.shape[-1]), dtype=np.result_type(scores, v))
    attention_scores_kernel(q, k, scores)
    attention_output_kernel(v, scores, reduce_buf, out_data)
    if is_grad_enabled() and (query.requires_grad or key.requires_grad or value.requires_grad):
        weights = _query_major(scores, n_key, lead, n_query)
        scale = math.sqrt(d)

        def backward(grad: np.ndarray) -> None:
            if value.requires_grad:
                value._accumulate(np.swapaxes(weights, -1, -2) @ grad)
            if query.requires_grad or key.requires_grad:
                grad_weights = grad @ np.swapaxes(v, -1, -2)
                inner = np.sum(grad_weights * weights, axis=-1, keepdims=True)
                grad_scores = weights * (grad_weights - inner) / scale
                if query.requires_grad:
                    query._accumulate(grad_scores @ k)
                if key.requires_grad:
                    key._accumulate(np.swapaxes(grad_scores, -1, -2) @ q)

        return Tensor._node(out_data, (query, key, value), backward)
    rec = _trace_state.recorder
    if rec is not None:
        rec.add(attention_scores_kernel, (q, k, scores), scores)
        rec.add(
            attention_output_kernel,
            (v, scores, reduce_buf, out_data),
            out_data,
            scratch=(reduce_buf,),
        )
    return Tensor._wrap(out_data)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer array (plain NumPy, no gradient)."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float32)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def smooth_l1(prediction: Tensor, target: Tensor, beta: float = 1.0) -> Tensor:
    """Smooth L1 (Huber-style) loss used by the paper's Base Predictor."""
    diff = prediction - as_tensor(target)
    abs_diff = diff.abs()
    quadratic = (diff * diff) * (0.5 / beta)
    linear_branch = abs_diff - 0.5 * beta
    mask = (abs_diff.data < beta).astype(diff.dtype)
    return where_mask(mask, quadratic, linear_branch).mean()
