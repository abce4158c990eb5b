"""Oracle tests for the fused scaled dot-product attention primitive.

``F.scaled_dot_product_attention`` stores its scores key-major in one flat
buffer and runs the softmax over the outer axis.  These tests pin it to the
composite it replaced (matmul, divide by ``sqrt(d)``, ``softmax_kernel``,
matmul) on randomized shapes, to itself on leading-dim prefixes of its
buffers (the plan's batch-sliced replay), and to finite differences.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.nn.gradcheck import check_gradients
from repro.nn.plan import PlanRecorder, _recording
from repro.nn.tensor import count_macs


def _reference(q, k, v):
    """The composite attention the primitive replaced, in plain NumPy."""
    scores = (q @ np.swapaxes(k, -1, -2)) / float(np.sqrt(q.shape[-1]))
    return F.softmax_kernel(scores, axis=-1) @ v


def _kernels(q, k, v, scores=None, reduce_buf=None, out=None):
    """Run the two plan steps, allocating any buffer not supplied."""
    lead, n_query, n_key = q.shape[:-2], q.shape[-2], k.shape[-2]
    rows = int(np.prod(lead)) * n_query
    scores = np.empty(n_key * rows, np.float32) if scores is None else scores
    reduce_buf = np.empty(rows, np.float32) if reduce_buf is None else reduce_buf
    out = np.empty(lead + (n_query, v.shape[-1]), np.float32) if out is None else out
    F.attention_scores_kernel(q, k, scores)
    return F.attention_output_kernel(v, scores, reduce_buf, out)


def _random_shapes(gen):
    lead = tuple(int(n) for n in gen.integers(1, 5, size=gen.integers(1, 3)))
    n_query, n_key, d, dv = (int(n) for n in gen.integers(1, 9, size=4))
    return lead + (n_query, d), lead + (n_key, d), lead + (n_key, dv)


def _normal(gen, shape):
    return gen.standard_normal(shape).astype(np.float32)


class TestAgainstComposite:
    def test_randomized_shapes(self):
        gen = np.random.default_rng(0)
        for _ in range(100):
            q_shape, k_shape, v_shape = _random_shapes(gen)
            q, k, v = (_normal(gen, s) for s in (q_shape, k_shape, v_shape))
            got = F.scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v)).data
            assert got.shape == q_shape[:-1] + v_shape[-1:]
            np.testing.assert_allclose(got, _reference(q, k, v), rtol=1e-5, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_gufunc_signature(self, data):
        """Signature ``(...,lq,d),(...,lk,d),(...,lk,dv)->(...,lq,dv)``."""
        lead = data.draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4))
        n_query, n_key, d, dv = (data.draw(st.integers(1, 8)) for _ in range(4))
        elements = st.floats(-4.0, 4.0, allow_nan=False, width=32)
        q, k, v = (
            data.draw(hnp.arrays(np.float32, lead + core, elements=elements))
            for core in ((n_query, d), (n_key, d), (n_key, dv))
        )
        got = F.scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(got, _reference(q, k, v), rtol=1e-5, atol=1e-6)

    def test_non_contiguous_split_heads(self, rng):
        batch, length, heads, head_dim = 3, 7, 2, 4
        width = heads * head_dim
        qkv = _normal(rng, (batch, length, 3 * width))

        def split(i):
            block = qkv[:, :, i * width:(i + 1) * width]
            return block.reshape(batch, length, heads, head_dim).transpose(0, 2, 1, 3)

        q, k, v = split(0), split(1), split(2)
        assert not q.flags.c_contiguous and not k.flags.c_contiguous
        got = F.scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(got, _reference(q, k, v), rtol=1e-5, atol=1e-6)
        assert np.array_equal(got, _kernels(q.copy(), k.copy(), v.copy()))

    def test_rejects_mismatched_shapes(self, rng):
        q = Tensor(_normal(rng, (2, 3, 4)))
        with pytest.raises(ValueError):
            F.scaled_dot_product_attention(q, Tensor(_normal(rng, (3, 3, 4))), q)
        with pytest.raises(ValueError):
            F.scaled_dot_product_attention(q, Tensor(_normal(rng, (2, 5, 4))), q)


class TestPrefixReplay:
    def test_prefix_buffers_match_prefix_inputs_bit_for_bit(self):
        """A plan binds leading-dim prefixes of the full-batch buffers; the
        kernels there must equal the kernels on fresh prefix inputs and the
        eager op at that batch, and each sample's rows must not depend on
        the batch it was computed in."""
        gen = np.random.default_rng(1)
        for _ in range(30):
            q_shape, k_shape, v_shape = _random_shapes(gen)
            q, k, v = (_normal(gen, s) for s in (q_shape, k_shape, v_shape))
            batch = q_shape[0]
            rows_per_batch = int(np.prod(q_shape[1:-1]))  # lead[1:] x Lq
            scores = np.empty(batch * rows_per_batch * k_shape[-2], np.float32)
            reduce_buf = np.empty(batch * rows_per_batch, np.float32)
            out = np.empty(q_shape[:-1] + v_shape[-1:], np.float32)
            full = _kernels(q, k, v, scores, reduce_buf, out).copy()
            for b in range(1, batch + 1):
                sliced = _kernels(
                    q[:b], k[:b], v[:b],
                    scores[: b * rows_per_batch * k_shape[-2]],
                    reduce_buf[: b * rows_per_batch],
                    out[:b],
                )
                fresh = _kernels(q[:b].copy(), k[:b].copy(), v[:b].copy())
                eager = F.scaled_dot_product_attention(
                    Tensor(q[:b]), Tensor(k[:b]), Tensor(v[:b])
                ).data
                assert np.array_equal(sliced, fresh)
                assert np.array_equal(sliced, eager)
                assert np.array_equal(sliced, full[:b])


class TestGradients:
    @pytest.mark.parametrize(
        "shapes",
        [
            ((2, 3, 4), (2, 5, 4), (2, 5, 3)),
            ((2, 2, 3, 2), (2, 2, 4, 2), (2, 2, 4, 3)),
        ],
        ids=["3d", "4d"],
    )
    def test_gradcheck(self, rng, shapes):
        check_gradients(
            lambda t: (F.scaled_dot_product_attention(t[0], t[1], t[2]) ** 2).sum(),
            [rng.standard_normal(shape) for shape in shapes],
        )

    def test_grad_forward_matches_no_grad_forward(self, rng):
        q, k, v = (_normal(rng, (3, 5, 4)) for _ in range(3))
        tracked = F.scaled_dot_product_attention(
            Tensor(q, requires_grad=True), Tensor(k), Tensor(v)
        ).data
        with no_grad():
            untracked = F.scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v)).data
        assert np.array_equal(tracked, untracked)


class TestAccounting:
    def test_macs_equal_the_two_composite_matmuls(self, rng):
        q, k, v = _normal(rng, (2, 3, 5, 4)), _normal(rng, (2, 3, 6, 4)), _normal(rng, (2, 3, 6, 7))
        with no_grad(), count_macs() as counter:
            F.scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v))
        rows = 2 * 3 * 5
        assert counter.total == rows * 6 * (4 + 7)

    def test_records_two_plan_steps(self, rng):
        q, k, v = _normal(rng, (2, 5, 4)), _normal(rng, (2, 6, 4)), _normal(rng, (2, 6, 3))
        recorder = PlanRecorder()
        with no_grad(), _recording(recorder):
            out = F.scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v)).data
        scores_step, output_step = recorder.steps
        # Step one reads q and k only, so both die before the softmax.
        assert scores_step.arrays[0] is q and scores_step.arrays[1] is k
        assert scores_step.out.shape == (6 * 2 * 5,)
        assert output_step.arrays[0] is v and output_step.arrays[1] is scores_step.out
        assert output_step.out is out
        assert [buf.shape for buf in output_step.scratch] == [(2 * 5,)]
