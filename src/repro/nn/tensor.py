"""Reverse-mode automatic differentiation on top of NumPy.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` substrate.  A ``Tensor`` wraps a ``numpy.ndarray`` and records
the operations applied to it so that gradients can be computed with a single
call to :meth:`Tensor.backward`.

The design mirrors the familiar PyTorch semantics at a much smaller scale:

* every differentiable operation returns a new ``Tensor`` whose
  ``_backward`` closure knows how to propagate gradients to its parents;
* ``backward()`` performs a topological sort of the recorded graph and runs
  the closures in reverse order;
* broadcasting is fully supported — gradients are "unbroadcast" (summed)
  back to the shape of each parent.

Every operation has two code paths, selected once per call:

* **grad path** — builds the ``_backward`` closure and wires the graph
  (:meth:`Tensor._node`);
* **no-grad fast path** — wraps the result with :meth:`Tensor._wrap`
  without creating the backward closure, parent references or graph
  bookkeeping at all.  Long-running inference services therefore carry no
  closure cells, no reference cycles, and no GC pressure from the graph.

The fast path is also where plan tracing hooks in: when a
:class:`repro.nn.plan.PlanRecorder` is installed (thread-locally), each
no-grad operation registers a replay kernel that recomputes its output
*into the very array produced at trace time*, which is what lets
:class:`repro.nn.plan.InferencePlan` re-execute a whole forward pass with
zero Python graph overhead and zero steady-state allocations.

Only operations required by the forecasting models in this repository are
implemented, which keeps the engine small, auditable and easy to verify with
numerical gradient checking (see :mod:`repro.nn.gradcheck`).
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "zeros",
    "ones",
    "randn",
    "arange",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
]

Number = Union[int, float]
ArrayLike = Union[Number, Sequence, np.ndarray, "Tensor"]

_DEFAULT_DTYPE = np.float32


def set_default_dtype(dtype) -> None:
    """Set the dtype used for newly created tensors.

    Float32 is the default for speed; gradient-checking tests switch to
    float64 for numerical precision.
    """
    global _DEFAULT_DTYPE
    _DEFAULT_DTYPE = np.dtype(dtype).type


def get_default_dtype():
    """Return the dtype used for newly created tensors."""
    return _DEFAULT_DTYPE


class _GradMode(threading.local):
    """Per-thread switch controlling whether operations record a graph.

    Thread-local, exactly like ``torch``'s grad mode: a thread cluster's
    fan-out on a thread pool runs ``no_grad`` inference on worker
    threads, and a process-wide flag would let two overlapping
    ``no_grad`` blocks restore each other's state — leaving gradients
    disabled for an unrelated training thread (or forever).  Each thread
    starts with gradients enabled via the class-attribute default.
    """

    enabled: bool = True


_grad_mode = _GradMode()


class _TraceState(threading.local):
    """Per-thread plan recorder installed by :mod:`repro.nn.plan`.

    ``None`` (the class-attribute default) outside plan tracing.  Checked
    only on the no-grad fast path, so the grad path pays nothing for it.
    """

    recorder = None


_trace_state = _TraceState()


class no_grad:
    """Context manager that disables gradient tracking.

    Used for inference and for optimizer parameter updates, exactly like
    ``torch.no_grad()``.  Affects only the current thread.
    """

    def __enter__(self) -> "no_grad":
        self._previous = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _grad_mode.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _grad_mode.enabled


class MacCounter:
    """Accumulates multiply-accumulate operations of matrix products.

    Used by :mod:`repro.profiling.macs` to measure a model's computational
    cost by running a single forward pass inside :func:`count_macs`.
    """

    active: Optional["MacCounter"] = None

    def __init__(self) -> None:
        self.total = 0

    def add(self, macs: int) -> None:
        self.total += int(macs)


class count_macs:
    """Context manager that records MACs of every matmul executed inside it."""

    def __init__(self) -> None:
        self.counter = MacCounter()

    def __enter__(self) -> MacCounter:
        self._previous = MacCounter.active
        MacCounter.active = self.counter
        return self.counter

    def __exit__(self, exc_type, exc, tb) -> None:
        MacCounter.active = self._previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it has ``shape``.

    NumPy broadcasting can expand a parent operand along new leading axes or
    along axes of size one; the gradient flowing back must be summed over
    those expanded axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over broadcast (size-1) dimensions.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward = None
        self._prev: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _wrap(data) -> "Tensor":
        """Fast no-grad result constructor: no closure, no parents, no graph.

        This is the whole point of the inference fast path — a tensor built
        here retains nothing but its array, so ``no_grad`` regions create no
        reference cycles and no ``_backward`` cells for the GC to chase.
        """
        if not isinstance(data, np.ndarray):
            data = np.asarray(data)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._prev = ()
        out.name = None
        return out

    @staticmethod
    def _node(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward,
    ) -> "Tensor":
        """Create a graph node (grad path only; caller checked grad mode)."""
        out = Tensor._wrap(data)
        out.requires_grad = True
        out._prev = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape)
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate gradients from this tensor through the graph.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective with respect to this tensor.
            Defaults to ``1`` which requires this tensor to be a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        out_data = a + b
        if _grad_mode.enabled and (self.requires_grad or other.requires_grad):

            def backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad, a.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(grad, b.shape))

            return Tensor._node(out_data, (self, other), backward)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(lambda a, b, o: np.add(a, b, out=o), (a, b, out_data), out_data)
        return Tensor._wrap(out_data)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self.data
        out_data = -a
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                self._accumulate(-grad)

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(lambda a, o: np.negative(a, out=o), (a, out_data), out_data)
        return Tensor._wrap(out_data)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        out_data = a * b
        if _grad_mode.enabled and (self.requires_grad or other.requires_grad):

            def backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad * b, a.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(grad * a, b.shape))

            return Tensor._node(out_data, (self, other), backward)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(lambda a, b, o: np.multiply(a, b, out=o), (a, b, out_data), out_data)
        return Tensor._wrap(out_data)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        out_data = a / b
        if _grad_mode.enabled and (self.requires_grad or other.requires_grad):

            def backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad / b, a.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(-grad * a / (b**2), b.shape))

            return Tensor._node(out_data, (self, other), backward)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(lambda a, b, o: np.divide(a, b, out=o), (a, b, out_data), out_data)
        return Tensor._wrap(out_data)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self.data
        out_data = a**exponent
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * exponent * a ** (exponent - 1))

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None:
            # ``ndarray.__pow__`` has value-specific fast paths, so replay
            # re-runs the operator itself (small temp) to stay bit-exact.
            rec.add(lambda a, o, e=exponent: np.copyto(o, a**e), (a, out_data), out_data)
        return Tensor._wrap(out_data)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        out_data = a @ b
        if MacCounter.active is not None:
            MacCounter.active.add(out_data.size * a.shape[-1])
        if _grad_mode.enabled and (self.requires_grad or other.requires_grad):

            def backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    grad_self = grad @ np.swapaxes(b, -1, -2)
                    self._accumulate(_unbroadcast(grad_self, a.shape))
                if other.requires_grad:
                    grad_other = np.swapaxes(a, -1, -2) @ grad
                    other._accumulate(_unbroadcast(grad_other, b.shape))

            return Tensor._node(out_data, (self, other), backward)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(lambda a, b, o: np.matmul(a, b, out=o), (a, b, out_data), out_data)
        return Tensor._wrap(out_data)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self.data
        out_data = np.asarray(a.sum(axis=axis, keepdims=keepdims))
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                g = grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                self._accumulate(np.broadcast_to(g, a.shape).astype(a.dtype))

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(
                lambda a, o, ax=axis, kd=keepdims: np.sum(a, axis=ax, keepdims=kd, out=o),
                (a, out_data),
                out_data,
            )
        return Tensor._wrap(out_data)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def var(self, axis=None, keepdims: bool = False, eps: float = 0.0) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        if eps:
            out = out + eps
        return out

    def std(self, axis=None, keepdims: bool = False, eps: float = 1e-5) -> "Tensor":
        return self.var(axis=axis, keepdims=keepdims, eps=eps).sqrt()

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum along ``axis``.  Gradient flows to the arg-max entries."""
        a = self.data
        out_data = np.asarray(a.max(axis=axis, keepdims=keepdims))
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                g = grad
                o = out_data
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                    o = np.expand_dims(o, axis=axis)
                mask = (a == o).astype(a.dtype)
                # Split gradient evenly among ties to stay consistent.
                denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                self._accumulate(mask * g / denom)

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(
                lambda a, o, ax=axis, kd=keepdims: np.amax(a, axis=ax, keepdims=kd, out=o),
                (a, out_data),
                out_data,
            )
        return Tensor._wrap(out_data)

    # ------------------------------------------------------------------ #
    # Element-wise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        a = self.data
        out_data = np.exp(a)
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * out_data)

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(lambda a, o: np.exp(a, out=o), (a, out_data), out_data)
        return Tensor._wrap(out_data)

    def log(self) -> "Tensor":
        a = self.data
        out_data = np.log(a)
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad / a)

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(lambda a, o: np.log(a, out=o), (a, out_data), out_data)
        return Tensor._wrap(out_data)

    def sqrt(self) -> "Tensor":
        a = self.data
        out_data = np.sqrt(a)
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-12))

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(lambda a, o: np.sqrt(a, out=o), (a, out_data), out_data)
        return Tensor._wrap(out_data)

    def abs(self) -> "Tensor":
        a = self.data
        out_data = np.abs(a)
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * np.sign(a))

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(lambda a, o: np.abs(a, out=o), (a, out_data), out_data)
        return Tensor._wrap(out_data)

    def tanh(self) -> "Tensor":
        a = self.data
        out_data = np.tanh(a)
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * (1.0 - out_data**2))

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(lambda a, o: np.tanh(a, out=o), (a, out_data), out_data)
        return Tensor._wrap(out_data)

    def sigmoid(self) -> "Tensor":
        a = self.data
        out_data = 1.0 / (1.0 + np.exp(-a))
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * out_data * (1.0 - out_data))

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None:

            def run(a, o):
                np.negative(a, out=o)
                np.exp(o, out=o)
                np.add(1.0, o, out=o)
                np.divide(1.0, o, out=o)

            rec.add(run, (a, out_data), out_data)
        return Tensor._wrap(out_data)

    def relu(self) -> "Tensor":
        a = self.data
        if _grad_mode.enabled and self.requires_grad:
            mask = (a > 0).astype(a.dtype)
            out_data = a * mask

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * mask)

            return Tensor._node(out_data, (self,), backward)
        out_data = np.maximum(a, 0.0)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(lambda a, o: np.maximum(a, 0.0, out=o), (a, out_data), out_data)
        return Tensor._wrap(out_data)

    def clip(self, minimum: Optional[float] = None, maximum: Optional[float] = None) -> "Tensor":
        a = self.data
        out_data = np.clip(a, minimum, maximum)
        if _grad_mode.enabled and self.requires_grad:
            mask = np.ones_like(a)
            if minimum is not None:
                mask = mask * (a >= minimum)
            if maximum is not None:
                mask = mask * (a <= maximum)
            mask = mask.astype(a.dtype)

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * mask)

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None:
            rec.add(
                lambda a, o, mn=minimum, mx=maximum: np.clip(a, mn, mx, out=o),
                (a, out_data),
                out_data,
            )
        return Tensor._wrap(out_data)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self.data
        out_data = a.reshape(shape)
        if _grad_mode.enabled and self.requires_grad:
            original_shape = a.shape

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad.reshape(original_shape))

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None and not _is_view_of(out_data, a):
            # Non-contiguous source: numpy reshape copied.  Replay refills
            # the traced copy through a flat view — no temporaries.  The
            # source shape is read off the bound array so sliced replay
            # regroups the right number of rows.
            def run(a, o):
                o.reshape(a.shape)[...] = a

            rec.add(run, (a, out_data), out_data)
        return Tensor._wrap(out_data)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        if _grad_mode.enabled and self.requires_grad:
            inverse = tuple(np.argsort(axes))

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad.transpose(inverse))

            return Tensor._node(out_data, (self,), backward)
        return Tensor._wrap(out_data)  # always a view: replay reads through

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        out_data = np.swapaxes(self.data, axis1, axis2)
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                self._accumulate(np.swapaxes(grad, axis1, axis2))

            return Tensor._node(out_data, (self,), backward)
        return Tensor._wrap(out_data)  # view

    def unsqueeze(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis=axis)
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                self._accumulate(np.squeeze(grad, axis=axis))

            return Tensor._node(out_data, (self,), backward)
        return Tensor._wrap(out_data)  # view

    def squeeze(self, axis: int) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                self._accumulate(np.expand_dims(grad, axis=axis))

            return Tensor._node(out_data, (self,), backward)
        return Tensor._wrap(out_data)  # view

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        a = self.data
        out_data = np.broadcast_to(a, shape).copy()
        if _grad_mode.enabled and self.requires_grad:
            original_shape = a.shape

            def backward(grad: np.ndarray) -> None:
                self._accumulate(_unbroadcast(grad, original_shape))

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None:
            # The target shape is read off the bound output, not baked in,
            # so sliced replay broadcasts into the prefix slice.
            rec.add(
                lambda a, o: np.copyto(o, np.broadcast_to(a, o.shape)),
                (a, out_data),
                out_data,
            )
        return Tensor._wrap(out_data)

    def repeat(self, repeats: int, axis: int) -> "Tensor":
        """Repeat the tensor ``repeats`` times along ``axis`` (tile-style)."""
        a = self.data
        # Normalise once: both the backward reshape-and-insert and the
        # replay reshape build shapes positionally, where a negative axis
        # would regroup the wrong elements.
        axis = axis % a.ndim
        out_data = np.repeat(a, repeats, axis=axis)
        if _grad_mode.enabled and self.requires_grad:
            original_dim = a.shape[axis]

            def backward(grad: np.ndarray) -> None:
                new_shape = list(grad.shape)
                new_shape[axis] = original_dim
                new_shape.insert(axis + 1, repeats)
                self._accumulate(grad.reshape(new_shape).sum(axis=axis + 1))

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None:

            def run(a, o, ax=axis, r=repeats):
                expanded = a.shape[: ax + 1] + (r,) + a.shape[ax + 1 :]
                o.reshape(expanded)[...] = np.expand_dims(a, ax + 1)

            rec.add(run, (a, out_data), out_data)
        return Tensor._wrap(out_data)

    def __getitem__(self, index) -> "Tensor":
        a = self.data
        raw = a[index]
        out_data = raw if isinstance(raw, np.ndarray) else np.asarray(raw)
        if _grad_mode.enabled and self.requires_grad:

            def backward(grad: np.ndarray) -> None:
                full = np.zeros_like(a)
                np.add.at(full, index, grad)
                self._accumulate(full)

            return Tensor._node(out_data, (self,), backward)
        rec = _trace_state.recorder
        if rec is not None and not _is_view_of(out_data, a):
            if isinstance(index, np.ndarray) and index.dtype.kind in "iu":
                # Integer-array gather (Embedding lookup): the index array is
                # read live at replay, so plans follow fresh covariate inputs.
                rec.add(
                    lambda a, idx, o: np.take(a, idx, axis=0, out=o),
                    (a, index, out_data),
                    out_data,
                )
            else:

                def run(a, o, idx=index):
                    o[...] = a[idx]

                rec.add(run, (a, out_data), out_data)
        return Tensor._wrap(out_data)

    # ------------------------------------------------------------------ #
    # Comparison helpers (no gradient)
    # ------------------------------------------------------------------ #
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > as_tensor(other).data

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < as_tensor(other).data

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= as_tensor(other).data

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= as_tensor(other).data


def _is_view_of(out: np.ndarray, source: np.ndarray) -> bool:
    """Whether ``out`` is a no-copy view into ``source``'s memory.

    View results need no replay step in a traced plan: once the plan writes
    fresh values into the source buffer, every view derived from it at trace
    time reads the new data automatically.
    """
    return out.base is not None and np.may_share_memory(out, source)


# ---------------------------------------------------------------------- #
# Free functions on tensors
# ---------------------------------------------------------------------- #
def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    arrays = [t.data for t in tensors]
    out_data = np.concatenate(arrays, axis=axis)
    if _grad_mode.enabled and any(t.requires_grad for t in tensors):
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if not tensor.requires_grad:
                    continue
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(int(start), int(stop))
                tensor._accumulate(grad[tuple(slicer)])

        return Tensor._node(out_data, tuple(tensors), backward)
    rec = _trace_state.recorder
    if rec is not None:
        rec.add(
            lambda *args, ax=axis: np.concatenate(args[:-1], axis=ax, out=args[-1]),
            (*arrays, out_data),
            out_data,
        )
    return Tensor._wrap(out_data)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    arrays = [t.data for t in tensors]
    out_data = np.stack(arrays, axis=axis)
    if _grad_mode.enabled and any(t.requires_grad for t in tensors):

        def backward(grad: np.ndarray) -> None:
            pieces = np.split(grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, pieces):
                if tensor.requires_grad:
                    tensor._accumulate(np.squeeze(piece, axis=axis))

        return Tensor._node(out_data, tuple(tensors), backward)
    rec = _trace_state.recorder
    if rec is not None:
        ax = axis % out_data.ndim

        def run(*args, ax=ax):
            o = args[-1]
            slicer = [slice(None)] * o.ndim
            for position, arr in enumerate(args[:-1]):
                slicer[ax] = position
                o[tuple(slicer)] = arr

        rec.add(run, (*arrays, out_data), out_data)
    return Tensor._wrap(out_data)


def where_mask(mask: np.ndarray, when_true: Tensor, when_false: Tensor) -> Tensor:
    """Differentiable selection with a constant boolean mask."""
    when_true = as_tensor(when_true)
    when_false = as_tensor(when_false)
    mask_arr = np.asarray(mask, dtype=when_true.dtype)
    return when_true * Tensor(mask_arr) + when_false * Tensor(1.0 - mask_arr)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def randn(*shape: int, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> Tensor:
    generator = rng if rng is not None else np.random.default_rng()
    return Tensor(generator.standard_normal(shape).astype(_DEFAULT_DTYPE), requires_grad=requires_grad)


def arange(stop: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.arange(stop, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)
