"""Compiled graph-free inference plans.

LiPFormer's pitch is *lightweight* inference, yet an eager forward pass
still pays per-op Python overhead on every call: ``Tensor`` wrapping,
grad-mode checks, and a fresh ndarray allocation for every intermediate.
This module removes all of it for the steady-state serving hot path with a
**two-stage compile pipeline**:

* :class:`PlanRecorder` — installed thread-locally while a model's
  ``forward`` runs once under ``no_grad``.  Every tensor operation on the
  no-grad fast path registers a *replay step*: a kernel function plus the
  explicit tuple of arrays it reads and writes (``kernel(*arrays)``
  recomputes the op's output in place).  View-producing ops (transpose,
  slicing, contiguous reshape) register nothing at all — once the plan
  refreshes a source buffer, every view derived from it reads the new data
  for free.

* **Stage one — liveness.**  The flat step list is analysed for first/last
  use of every recorded buffer (uses through views are attributed to the
  owning base), then an offline greedy-by-size pass packs the buffers into
  one shared byte arena: a dead intermediate's storage is reused by later
  buffers, so plan memory tracks *peak liveness*, not trace depth.  Scratch
  buffers of composite kernels participate.

* **Stage two — batch polymorphism.**  A plan is traced once at a bucket
  batch size ``B`` and replayed on *leading-dim slices* of the arena: every
  batch-scaled buffer (taint-propagated from the inputs) is bound to its
  ``[: b * rows_per_batch]`` prefix, so any ``batch <= B`` hits the same
  plan with zero re-tracing.  :class:`CompiledPredictor` keys its cache on
  the **batch-free signature** and keeps one plan per signature: a larger
  batch retraces at its power-of-two bucket and replaces it, so a workload
  cycling batch sizes ``1..B`` traces at most ``ceil(log2(B)) + 1`` plans
  and keeps one.

There is exactly one plan tier.  A trace that cannot become a sliceable,
arena-packed plan — a batch-scaled buffer whose leading dim does not scale
with the batch, a view with no prefix slice, a replay that differs from
eager at the full batch or at a prefix probe — raises
:class:`PlanUnsupported`, and the caller serves that signature eager.

Primitives: besides the elementwise, matmul, reduction and copying
reshape/slice ops of :class:`~repro.nn.tensor.Tensor`, ``repro.nn.functional``
records composite primitives whose kernels eager and replay share —
``softmax`` / ``log_softmax`` / ``layer_norm`` / ``gelu`` as one step each,
and ``scaled_dot_product_attention`` as two (scores written key-major into
a flat ``[Lk, rows]`` buffer, then softmax over its outer axis and
``weights @ V``).  ``linear`` on a contiguous input of more than two dims
is one 2-D GEMM between two view reshapes.  :meth:`InferencePlan.profile`
splits a replay's time by the op kind that recorded each step.

Correctness model: tracing assumes the forward's *structure* depends only
on input shapes, never on input values.  All ``repro.nn`` tensor ops and
the functional primitives above satisfy this; models
computing raw-NumPy, value-dependent constants inside ``forward`` must not
enable ``supports_compiled_plan``.  Every freshly traced plan is
self-checked by replaying it on the traced inputs (and on prefixes of
them) and requiring the output to match the eager result exactly before
it may serve traffic.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..errors import PlanUnsupported
from ..runtime.annotations import guarded_by, requires_lock
from .tensor import Tensor, _trace_state, no_grad

__all__ = [
    "PlanUnsupported",
    "PlanRecorder",
    "InferencePlan",
    "CompiledPredictor",
    "bucket_for",
]

# Arena offsets are aligned so relocated buffers keep whatever SIMD/BLAS
# alignment the original heap allocations had; misalignment is a bit-
# exactness risk, not just a speed one.
_ARENA_ALIGN = 64


def bucket_for(batch: int) -> int:
    """Smallest power of two >= ``batch`` — the plan bucket that serves it."""
    if batch < 1:
        raise ValueError(f"batch must be positive, got {batch}")
    return 1 << (batch - 1).bit_length()


class _Step:
    """One replay step: ``kernel(*arrays)`` recomputes ``out`` in place.

    ``arrays`` is the full positional binding — inputs, scratch and the
    output buffer — which is what lets the compile stage relocate buffers
    into the arena and rebind leading-dim slices without touching the
    kernel: nothing shape- or address-like is closed over.
    """

    __slots__ = ("kernel", "arrays", "out", "scratch")

    def __init__(
        self,
        kernel: Callable[..., object],
        arrays: Tuple[np.ndarray, ...],
        out: Optional[np.ndarray],
        scratch: Tuple[np.ndarray, ...],
    ) -> None:
        self.kernel = kernel
        self.arrays = arrays
        self.out = out
        self.scratch = scratch


class PlanRecorder:
    """Collects replay steps while a forward pass is being traced."""

    __slots__ = ("steps", "arena_nbytes")

    def __init__(self) -> None:
        self.steps: List[_Step] = []
        # Sum of every recorded buffer's bytes — what a plan would cost
        # *without* the liveness pass.  Kept as the baseline the arena
        # reduction is measured against.
        self.arena_nbytes = 0

    def add(
        self,
        kernel: Callable[..., object],
        arrays: Tuple[np.ndarray, ...] = (),
        out: Optional[np.ndarray] = None,
        scratch: Tuple[np.ndarray, ...] = (),
    ) -> None:
        """Register one replay step.

        ``kernel`` is invoked as ``kernel(*arrays)`` at replay; ``out`` is
        the buffer it (re)computes, ``scratch`` any same-step temporaries a
        composite kernel owns.  Both must appear in ``arrays`` so the
        compile stage can rebind them.
        """
        self.steps.append(_Step(kernel, tuple(arrays), out, tuple(scratch)))
        if out is not None:
            self.arena_nbytes += out.nbytes
        for array in scratch:
            self.arena_nbytes += array.nbytes

    def unsupported(self, reason: str) -> None:
        """Abort the trace (called from op sites that cannot replay)."""
        raise PlanUnsupported(reason)


class _recording:
    """Install ``recorder`` thread-locally for the duration of a trace."""

    def __init__(self, recorder: PlanRecorder) -> None:
        self._recorder = recorder

    def __enter__(self) -> PlanRecorder:
        if _trace_state.recorder is not None:
            raise PlanUnsupported("nested plan tracing is not supported")
        _trace_state.recorder = self._recorder
        return self._recorder

    def __exit__(self, exc_type, exc, tb) -> None:
        _trace_state.recorder = None


def _addr(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


class _Slot:
    """One array position in one step after compilation.

    ``array`` is the (possibly arena-relocated) full-batch array; ``axis``
    is the leading-dim slice axis for batch-polymorphic replay (``None``
    for batch-independent arrays) and ``rows`` the row count per unit of
    batch along that axis.
    """

    __slots__ = ("array", "axis", "rows")

    def __init__(self, array: np.ndarray, axis: Optional[int], rows: int) -> None:
        self.array = array
        self.axis = axis
        self.rows = rows

    def bind(self, batch: int) -> np.ndarray:
        if self.axis is None:
            return self.array
        n = batch * self.rows
        if n == self.array.shape[self.axis]:
            # The whole traced batch: the array itself, so a full-batch
            # replay hands back the very same output buffer every time.
            return self.array
        if self.axis == 0:
            return self.array[:n]
        slicer = [slice(None)] * self.array.ndim
        slicer[self.axis] = slice(0, n)
        return self.array[tuple(slicer)]


def _compile_steps(
    steps: List[_Step],
    inputs: List[np.ndarray],
    output: np.ndarray,
    max_batch: int,
) -> Tuple[tuple, tuple, _Slot, Optional[np.ndarray], int]:
    """Liveness + arena packing + batch-slice metadata over a raw trace.

    Returns ``(kernels, step_slots, out_slot, arena, arena_nbytes)``, the
    rebindable step table.  Raises :class:`PlanUnsupported` when some
    batch-scaled array has no leading-dim prefix slice.
    """
    owned: "OrderedDict[int, np.ndarray]" = OrderedDict()
    def_step: Dict[int, int] = {}
    for i, step in enumerate(steps):
        buffers = step.scratch if step.out is None else (step.out,) + step.scratch
        for buf in buffers:
            if id(buf) not in owned:
                owned[id(buf)] = buf
                def_step[id(buf)] = i
    input_ids = {id(buf) for buf in inputs}
    # NumPy collapses view chains to the *ultimate* base, which for a
    # buffer that was itself built as a view of a private temp (e.g. a
    # copying reshape) skips the owned array entirely.  The address-range
    # index catches those: any array whose memory falls inside an owned
    # buffer's range belongs to it.
    ranges = [
        (_addr(buf), _addr(buf) + buf.nbytes, buf)
        for buf in list(owned.values()) + inputs
        if buf.nbytes
    ]
    memo: Dict[int, Optional[np.ndarray]] = {}

    def resolve(array: np.ndarray) -> Optional[np.ndarray]:
        found = memo.get(id(array), False)
        if found is not False:
            return found
        root: Optional[np.ndarray] = None
        node = array
        while node is not None:
            if id(node) in owned or id(node) in input_ids:
                root = node
                break
            node = node.base
        if root is None and array.nbytes:
            addr = _addr(array)
            for start, end, buf in ranges:
                if start <= addr < end:
                    root = buf
                    break
        memo[id(array)] = root
        return root

    # ---- liveness: last use per owned buffer, views attributed to base --
    last_use = dict(def_step)
    for i, step in enumerate(steps):
        for array in step.arrays:
            root = resolve(array)
            if root is not None and id(root) in owned:
                last_use[id(root)] = i
    out_root = resolve(output)
    if out_root is not None and id(out_root) in owned:
        # The caller reads the output after the final step: pin it.
        last_use[id(out_root)] = len(steps)

    # ---- batch taint: which buffers scale with the leading batch dim ----
    # ``factor`` maps every batch-tainted buffer to its rows per sample.
    factor: Dict[int, int] = {ident: 1 for ident in input_ids}
    for i, step in enumerate(steps):
        own_here = {id(step.out)} | {id(s) for s in step.scratch}
        reads_tainted = False
        for array in step.arrays:
            root = resolve(array)
            if root is not None and id(root) in factor and id(root) not in own_here:
                reads_tainted = True
                break
        if not reads_tainted:
            continue
        buffers = step.scratch if step.out is None else (step.out,) + step.scratch
        for buf in buffers:
            if buf.ndim < 1 or buf.shape[0] == 0 or buf.shape[0] % max_batch:
                raise PlanUnsupported(
                    f"step {i} writes a batch-dependent buffer of shape {buf.shape} "
                    f"whose leading dim does not scale with batch {max_batch}"
                )
            factor[id(buf)] = buf.shape[0] // max_batch
    if out_root is None or id(out_root) not in factor:
        raise PlanUnsupported("the forecast does not scale with the batch")

    # ---- arena allocation over owned, C-contiguous buffers --------------
    # Offline greedy-by-size placement (the planner used by TFLite/XLA):
    # every lifetime interval is known before placement, so the largest
    # buffers are placed first at the lowest offset that avoids every
    # already-placed buffer with an overlapping lifetime.  Online first-fit
    # fragments around long-lived small buffers; this ordering reaches the
    # peak-liveness lower bound on the LiPFormer trace.
    intervals: List[Tuple[int, int, int, int]] = []  # (size, born, last, id)
    for ident, buf in owned.items():
        if not buf.flags.c_contiguous or buf.nbytes == 0:
            continue
        size = -(-buf.nbytes // _ARENA_ALIGN) * _ARENA_ALIGN
        # A buffer read at step i stays allocated through i: storage is
        # reusable only by buffers *defined strictly later*, which rules
        # out same-step aliasing (e.g. matmul out overlapping an input).
        intervals.append((size, def_step[ident], last_use[ident], ident))
    offsets: Dict[int, int] = {}
    arena_total = 0
    placed: List[Tuple[int, int, int, int]] = []  # (offset, size, born, last)
    for size, born, last, ident in sorted(
        intervals, key=lambda iv: (-iv[0], iv[1], iv[3])
    ):
        gaps = sorted(
            (off, used)
            for off, used, p_born, p_last in placed
            if born <= p_last and last >= p_born
        )
        cursor = 0
        offset = None
        for off, used in gaps:
            if off - cursor >= size:
                offset = cursor
                break
            cursor = max(cursor, off + used)
        if offset is None:
            offset = cursor
        offsets[ident] = offset
        placed.append((offset, size, born, last))
        arena_total = max(arena_total, offset + size)
    arena = np.empty(arena_total, dtype=np.uint8) if arena_total else None

    mapping: Dict[int, np.ndarray] = {}
    for ident, buf in owned.items():
        if ident in offsets:
            mapping[ident] = np.ndarray(
                buf.shape, dtype=buf.dtype, buffer=arena, offset=offsets[ident]
            )
        else:
            mapping[ident] = buf
            arena_total += buf.nbytes

    # ---- slot construction: relocation + slice metadata per array -------
    def make_slot(array: np.ndarray) -> _Slot:
        root = resolve(array)
        if root is None:
            return _Slot(array, None, 0)
        new_root = mapping.get(id(root), root)
        if array is root:
            new_array = new_root
        elif new_root is root:
            new_array = array  # root not relocated: the old view still reads it
        else:
            new_array = np.ndarray(
                array.shape,
                dtype=array.dtype,
                buffer=new_root,
                offset=_addr(array) - _addr(root),
                strides=array.strides,
            )
        if id(root) not in factor:
            return _Slot(new_array, None, 0)
        if array is root:
            return _Slot(new_array, 0, factor[id(root)])
        # A view axis j is the batch axis when its entries tile the root's
        # whole batch extent in order and everything else (other axes plus
        # the view's starting offset) stays inside a single j-step.  Then
        # slicing j to ``batch * shape[j] / max_batch`` entries confines the
        # view to exactly the first ``batch`` samples' bytes.
        root_extent = new_root.strides[0] * new_root.shape[0]
        start = _addr(array) - _addr(root)
        for j in range(new_array.ndim):
            step_bytes, n = new_array.strides[j], new_array.shape[j]
            if n <= 0 or n % max_batch or step_bytes <= 0:
                continue
            if step_bytes * n != root_extent:
                continue
            sub = sum(
                new_array.strides[k] * (new_array.shape[k] - 1)
                for k in range(new_array.ndim)
                if k != j and new_array.shape[k] > 1
            )
            if any(
                new_array.strides[k] < 0
                for k in range(new_array.ndim)
                if new_array.shape[k] > 1
            ):
                continue
            if start + sub + new_array.itemsize <= step_bytes:
                return _Slot(new_array, j, n // max_batch)
        raise PlanUnsupported(
            f"a view of shape {array.shape} collapses or reorders the batch dim: "
            "no prefix slice exists"
        )

    kernels = tuple(step.kernel for step in steps)
    step_slots = tuple(tuple(make_slot(array) for array in step.arrays) for step in steps)
    return kernels, step_slots, make_slot(output), arena, arena_total


class InferencePlan:
    """A traced forward pass: rebindable replay steps over a packed arena.

    One plan serves every batch size up to its trace-time ``max_batch``:
    each batch-scaled buffer is bound to a leading-dim prefix of the
    arena, and a full-batch replay binds the arrays themselves.
    """

    __slots__ = (
        "_kernels",
        "_step_slots",
        "_out_slot",
        "_x_slot",
        "_fn_slot",
        "_fc_slot",
        "_x_buf",
        "_fn_buf",
        "_fc_buf",
        "_arena",
        "_bound",
        "output",
        "_param_state",
        "max_batch",
        "naive_nbytes",
        "arena_nbytes",
    )

    def __init__(self) -> None:
        raise TypeError("use InferencePlan.trace() to build a plan")

    # ------------------------------------------------------------------ #
    @classmethod
    def trace(
        cls,
        model,
        x: np.ndarray,
        future_numerical: Optional[np.ndarray] = None,
        future_categorical: Optional[np.ndarray] = None,
    ) -> "InferencePlan":
        """Trace ``model.forward`` once under ``no_grad`` into a plan.

        ``model`` must be in eval mode (stochastic layers like dropout
        would otherwise bake one sampled mask into every replay).  The
        traced output becomes the plan's output buffer; replay must
        reproduce eager bit-for-bit before the plan is returned.
        """
        if getattr(model, "training", False):
            raise PlanUnsupported("plans are traced in eval mode only")
        x_buf = np.array(x, dtype=np.float32)
        wrapped = Tensor(x_buf)
        if wrapped.data is not x_buf:
            raise PlanUnsupported("default tensor dtype is not float32")
        fn_buf = None if future_numerical is None else np.array(future_numerical, dtype=np.float32)
        fc_buf = None if future_categorical is None else np.array(future_categorical, dtype=np.int64)

        recorder = PlanRecorder()
        with no_grad():
            with _recording(recorder):
                out = model.forward(
                    wrapped, future_numerical=fn_buf, future_categorical=fc_buf
                )
        if not isinstance(out, Tensor):
            raise PlanUnsupported(f"forward returned {type(out).__name__}, not a Tensor")
        if out.data.ndim < 1:
            raise PlanUnsupported("forward returned a scalar; plans need a batch dim")

        expected = out.data.copy()
        max_batch = x_buf.shape[0]
        inputs = [buf for buf in (x_buf, fn_buf, fc_buf) if buf is not None]
        kernels, step_slots, out_slot, arena, arena_nbytes = _compile_steps(
            recorder.steps, inputs, out.data, max_batch
        )
        plan = object.__new__(cls)
        plan._kernels = kernels
        plan._step_slots = step_slots
        plan._out_slot = out_slot
        plan._x_slot = _Slot(x_buf, 0, 1)
        plan._fn_slot = None if fn_buf is None else _Slot(fn_buf, 0, 1)
        plan._fc_slot = None if fc_buf is None else _Slot(fc_buf, 0, 1)
        plan._x_buf = x_buf
        plan._fn_buf = fn_buf
        plan._fc_buf = fc_buf
        plan._arena = arena
        plan._bound = {}
        plan.output = out_slot.array
        plan._param_state = tuple(
            (param, getattr(param, "_version", 0)) for param in model.parameters()
        )
        plan.max_batch = max_batch
        plan.naive_nbytes = recorder.arena_nbytes
        plan.arena_nbytes = arena_nbytes
        plan._self_check(model, expected)
        return plan

    def _self_check(self, model, expected: np.ndarray) -> None:
        """Require replay to reproduce eager exactly, or raise.

        Prefixes of the traced inputs (batch 1, B/2, B-1) must replay
        bit-identical to eager at that batch — a kernel that bakes the
        batch into a reduction diverges here — and the full batch must
        reproduce the traced output.  The full batch runs last, so the
        arena ends in the state it verified.
        """
        B = self.max_batch
        x, fn, fc = self._x_buf, self._fn_buf, self._fc_buf
        for b in sorted({1, B // 2, B - 1, B} - {0}):
            prefix = (
                x[:b],
                None if fn is None else fn[:b],
                None if fc is None else fc[:b],
            )
            if b == B:
                want = expected
            else:
                with no_grad():
                    want = model.forward(
                        Tensor(prefix[0].copy()),
                        future_numerical=None if fn is None else prefix[1].copy(),
                        future_categorical=None if fc is None else prefix[2].copy(),
                    ).data
            try:
                got = self._replay(*prefix, copy=False)
            except Exception as exc:
                raise PlanUnsupported(f"replay failed at batch {b}: {exc!r}") from exc
            if not np.array_equal(got, want):
                raise PlanUnsupported(f"replay diverged from eager at batch {b}")

    # ------------------------------------------------------------------ #
    def is_stale(self) -> bool:
        """Whether any captured parameter has been rebound since tracing."""
        return any(getattr(param, "_version", 0) != version for param, version in self._param_state)

    @property
    def n_steps(self) -> int:
        return len(self._kernels)

    def _bind(self, batch: int):
        bound = tuple(
            tuple(slot.bind(batch) for slot in slots) for slots in self._step_slots
        )
        self._bound[batch] = bound
        return bound

    def _check_shapes(self, x, future_numerical, future_categorical) -> None:
        batch = x.shape[0] if x.ndim else 0
        if x.shape[1:] != self._x_buf.shape[1:] or batch > self.max_batch or batch < 1:
            raise ValueError(f"plan expects input shape {self._x_buf.shape}, got {x.shape}")
        if (future_numerical is None) != (self._fn_buf is None) or (
            future_categorical is None
        ) != (self._fc_buf is None):
            raise ValueError("plan was traced with a different covariate signature")
        for name, value, buffer in (
            ("future_numerical", future_numerical, self._fn_buf),
            ("future_categorical", future_categorical, self._fc_buf),
        ):
            # Exact-shape check: np.copyto would happily broadcast a
            # narrower covariate block into the buffer and serve a wrong
            # forecast silently.
            if buffer is not None and np.shape(value) != (batch,) + buffer.shape[1:]:
                raise ValueError(
                    f"plan expects {name} shape {(batch,) + buffer.shape[1:]}, "
                    f"got {np.shape(value)}"
                )

    def run(
        self,
        x: np.ndarray,
        future_numerical: Optional[np.ndarray] = None,
        future_categorical: Optional[np.ndarray] = None,
        copy: bool = True,
    ) -> np.ndarray:
        """Execute the plan on fresh inputs of any batch up to ``max_batch``.

        With ``copy=False`` the internal output buffer is returned: valid
        only until the next ``run`` — callers that retain results (the
        serving layer resolving request handles) must take the copy.
        """
        self._check_shapes(x, future_numerical, future_categorical)
        return self._replay(x, future_numerical, future_categorical, copy)

    def _replay(self, x, future_numerical, future_categorical, copy) -> np.ndarray:
        batch = x.shape[0]
        bound = self._bound.get(batch)
        if bound is None:
            bound = self._bind(batch)
        np.copyto(self._x_slot.bind(batch), x)
        if self._fn_slot is not None:
            np.copyto(self._fn_slot.bind(batch), future_numerical)
        if self._fc_slot is not None:
            np.copyto(self._fc_slot.bind(batch), future_categorical)
        for kernel, arrays in zip(self._kernels, bound):
            kernel(*arrays)
        out = self._out_slot.bind(batch)
        return out.copy() if copy else out

    def profile(self, repeats: int = 20) -> Dict[str, float]:
        """Mean µs per full-batch replay, split by op kind.

        Re-runs the steps ``repeats`` times on whatever the input buffers
        hold and times each kernel on its own, in :meth:`_replay_timed`,
        so ``_replay`` stays untimed.  A step's kind is the name of the op
        that recorded it (``matmul``, ``add``, ``attention_scores``,
        ``gelu``, ...).  Like :meth:`run`, it must not overlap another
        call on the same plan.
        """
        if repeats < 1:
            raise ValueError(f"repeats must be positive, got {repeats}")
        bound = self._bound.get(self.max_batch)
        if bound is None:
            bound = self._bind(self.max_batch)
        kinds = [_op_kind(kernel) for kernel in self._kernels]
        totals = dict.fromkeys(kinds, 0.0)
        for _ in range(repeats):
            self._replay_timed(bound, kinds, totals)
        return {
            kind: total * 1e6 / repeats
            for kind, total in sorted(totals.items(), key=lambda item: -item[1])
        }

    def _replay_timed(self, bound, kinds: List[str], totals: Dict[str, float]) -> None:
        """One replay of ``bound`` adding each kernel's seconds to its kind."""
        clock = time.perf_counter
        for kind, kernel, arrays in zip(kinds, self._kernels, bound):
            start = clock()
            kernel(*arrays)
            totals[kind] += clock() - start


def _op_kind(kernel: Callable[..., object]) -> str:
    """The op a replay kernel belongs to, read off its recording site.

    ``Tensor.__matmul__.<locals>.<lambda>`` is ``matmul``,
    ``Embedding.forward.<locals>.<lambda>`` is ``Embedding.forward`` and a
    kernel registered by name, such as ``attention_scores_kernel``, is
    ``attention_scores``.
    """
    site = kernel.__qualname__.split(".<locals>")[0]
    if site.startswith("Tensor."):
        site = site[len("Tensor."):].strip("_")
    return site[: -len("_kernel")] if site.endswith("_kernel") else site


@guarded_by(
    "_plans", "_unsupported", "hits", "traces", "fallbacks", "invalidations",
    "capacity", lock="_lock",
)
class CompiledPredictor:
    """Per-model cache of :class:`InferencePlan` objects, one per signature.

    The key is **batch-free**: (trailing input shape, covariate signature).
    Its plan serves every batch up to the power-of-two bucket it was traced
    at; a larger batch retraces at ``bucket_for(batch)`` and replaces it.

    ``predict`` returns the forecast array, or ``None`` when the caller
    should run eager inference instead (unsupported model, lock contention
    from another thread sharing this model, or a failed trace).  Because a
    valid plan's output is bit-identical to eager ``no_grad`` inference,
    interleaving the two paths is invisible to callers.
    """

    def __init__(self, model, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.model = model
        self.capacity = capacity
        self._plans: "OrderedDict[Tuple, InferencePlan]" = OrderedDict()
        # Signatures whose trace failed, tagged with the model's parameter
        # version at failure time: a weight change retires the marker, so a
        # transient failure (bad weights, mid-swap state) never disables
        # the compiled path permanently.  Kept apart from the plan LRU so
        # markers neither consume plan capacity nor evict live plans.
        self._unsupported: "OrderedDict[Tuple, int]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.traces = 0
        self.fallbacks = 0
        self.invalidations = 0
        # Weakly bound metrics-registry view over the cache counters, so
        # hit/trace/fallback rates show up next to the serving
        # latency histograms without a second bookkeeping path.
        obs.register_stats("repro_plan_cache", self._stats_snapshot)

    def _stats_snapshot(self) -> Dict[str, int]:
        """Cache counters plus the live plan count, under the lock."""
        with self._lock:
            return {
                "hits": self.hits,
                "traces": self.traces,
                "fallbacks": self.fallbacks,
                "invalidations": self.invalidations,
                "plans": len(self._plans),
            }

    @staticmethod
    def _key(
        x: np.ndarray,
        future_numerical: Optional[np.ndarray],
        future_categorical: Optional[np.ndarray],
    ) -> Tuple:
        # Batch-free: the leading dim is served polymorphically by the
        # bucket plan, so it must not fragment the cache.
        return (
            x.shape[1:],
            None if future_numerical is None else np.shape(future_numerical)[1:],
            None if future_categorical is None else np.shape(future_categorical)[1:],
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def _parameter_version(self) -> int:
        version = getattr(self.model, "parameter_version", None)
        return int(version()) if callable(version) else 0

    @property
    def needs_eval_trace(self) -> bool:
        """Whether a miss just now requires eval mode to trace.

        Plans replay regardless of the train/eval flag, but *tracing* must
        happen in eval mode (dropout masks must not be baked in).  When the
        model is mid-training, ``predict`` declines to trace and the caller
        decides whether to flip to eval and retry.
        """
        return bool(getattr(self.model, "training", False))

    def plan_for(
        self,
        x: np.ndarray,
        future_numerical: Optional[np.ndarray] = None,
        future_categorical: Optional[np.ndarray] = None,
    ) -> Optional[InferencePlan]:
        """The cached plan that would serve this input, if any (test helper)."""
        with self._lock:
            plan = self._plans.get(self._key(x, future_numerical, future_categorical))
            return plan if plan is not None and x.shape[0] <= plan.max_batch else None

    @staticmethod
    def _padded(buf: Optional[np.ndarray], target: int) -> Optional[np.ndarray]:
        """Edge-replicate ``buf`` rows up to ``target`` (trace-time only)."""
        if buf is None:
            return None
        buf = np.asarray(buf)
        if buf.shape[0] == target:
            return buf
        out = np.empty((target,) + buf.shape[1:], dtype=buf.dtype)
        out[: buf.shape[0]] = buf
        out[buf.shape[0]:] = buf[-1:]
        return out

    def predict(
        self,
        x: np.ndarray,
        future_numerical: Optional[np.ndarray] = None,
        future_categorical: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        """Run (tracing on demand) the plan serving this input.

        Returns ``None`` when the caller must fall back to eager inference.
        Exceptions raised by the model's own ``forward`` (validation
        errors and the like) propagate unchanged, exactly as eager would.
        """
        if not self._lock.acquire(blocking=False):
            # Another thread is replaying over this model's arenas; eager
            # fallback keeps concurrent callers parallel instead of queued.
            return None
        try:
            return self._predict_locked(x, future_numerical, future_categorical)
        finally:
            self._lock.release()

    @requires_lock("_lock")
    def _predict_locked(
        self,
        x: np.ndarray,
        future_numerical: Optional[np.ndarray],
        future_categorical: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        # Split out of predict(): the non-blocking acquire/try/finally
        # above is not a lock shape the analyzer (or a reader) can see
        # through, and the guarded state is only touched here.
        key = self._key(x, future_numerical, future_categorical)
        marker = self._unsupported.get(key)
        if marker is not None:
            if marker == self._parameter_version():
                self.fallbacks += 1
                return None
            # Weights changed since the failed trace: retry below.
            del self._unsupported[key]
        batch = x.shape[0]
        plan = self._plans.get(key)
        if plan is not None and plan.is_stale():
            del self._plans[key]
            self.invalidations += 1
            plan = None
        if plan is not None and batch <= plan.max_batch:
            self._plans.move_to_end(key)
            self.hits += 1
            with obs.span("plan.replay", batch=batch, bucket=plan.max_batch):
                return plan.run(x, future_numerical, future_categorical, copy=True)
        if getattr(self.model, "training", False):
            # Tracing needs eval mode; don't poison the cache —
            # the caller may flip the flag and retry.
            return None
        # Trace at this batch's bucket; the new plan serves every smaller
        # batch too, so it replaces the signature's old one.
        target = bucket_for(batch)
        try:
            plan = InferencePlan.trace(
                self.model,
                self._padded(x, target),
                self._padded(future_numerical, target),
                self._padded(future_categorical, target),
            )
        except PlanUnsupported:
            self._unsupported[key] = self._parameter_version()
            while len(self._unsupported) > 4 * self.capacity:
                self._unsupported.popitem(last=False)
            self.fallbacks += 1
            return None
        self.traces += 1
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
        if target == batch:
            # The trace itself already computed this call's forecast.
            return plan.output.copy()
        with obs.span("plan.replay", batch=batch, bucket=target):
            return plan.run(x, future_numerical, future_categorical, copy=True)
