import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from baitline.tensor.checkpoint import load_tensors, save_tensors
from baitline.tensor.core import (
    NonFiniteError,
    Tensor,
    _scatter_rows,
    add,
    backward,
    bilstm_sequence,
    concat,
    cosine_similarity,
    cross_entropy,
    dropout,
    embedding_lookup,
    l2_normalize,
    matmul,
    max_pool_over_time,
    mean_over_time,
    multiply,
    narrow,
    no_grad,
    pooled_encode,
    relu,
    reshape,
    sigmoid,
    softmax,
    stack_steps,
    sub,
    tanh,
    tmean,
)
from baitline.tensor.optim import GraphOptimizer
from bilstm_oracle import stored_states_bilstm
from gradcheck import check_gradients, tsum


class TestForwardExamples:
    def test_softmax_symmetry(self):
        out = softmax(Tensor([[0.0, 0.0]]))
        assert out.data.tolist() == [[0.5, 0.5]]

    def test_softmax_rows_simplex(self):
        rng = np.random.default_rng(0)
        out = softmax(Tensor(rng.normal(size=(40, 7)) * 10), axis=-1)
        assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) < 1e-9)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_max_pool_example(self):
        x = Tensor(np.array([[[1.0], [5.0]], [[3.0], [2.0]]]).reshape(2, 2, 1))
        # rows: [1,5] and [3,2] over time
        out = max_pool_over_time(x, np.ones((2, 2)))
        assert out.data.ravel().tolist() == [5.0, 3.0]

    def test_max_pool_empty_mask_rows_zero(self):
        x = Tensor(np.ones((2, 3, 4)))
        mask = np.array([[1, 1, 0], [0, 0, 0]])
        out = max_pool_over_time(x, mask)
        assert np.all(out.data[1] == 0.0)
        assert np.all(out.data[0] == 1.0)

    def test_mean_pool_masked(self):
        x = Tensor(np.arange(6, dtype=float).reshape(1, 3, 2))
        out = mean_over_time(x, np.array([[1, 1, 0]]))
        assert out.data.tolist() == [[1.0, 2.0]]

    def test_cosine_self_is_one(self):
        rng = np.random.default_rng(1)
        u = Tensor(rng.normal(size=(5, 8)))
        out = cosine_similarity(u, u)
        assert np.allclose(out.data, 1.0, atol=1e-12)

    def test_cosine_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(Tensor(np.zeros((1, 3))), Tensor(np.ones((1, 3))))

    def test_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(2)
        out = l2_normalize(Tensor(rng.normal(size=(6, 5))))
        assert np.allclose((out.data**2).sum(axis=-1), 1.0, atol=1e-12)

    def test_embedding_lookup_masks_pads(self):
        table = Tensor(np.arange(12, dtype=float).reshape(4, 3))
        ids = np.array([[1, 2, 0]])
        mask = np.array([[1, 1, 0]])
        out = embedding_lookup(table, ids, mask)
        assert np.array_equal(out.data[0, 0], table.data[1])
        assert np.all(out.data[0, 2] == 0.0)

    def test_matmul_shape_guard(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_nan_guard_trips(self):
        big = Tensor(np.array([1e308]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            multiply(big, big)

    def test_sigmoid_matches_two_branch_formula_bit_for_bit(self):
        edges = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 750.0, -750.0]
        x = np.concatenate([edges, np.linspace(-40.0, 40.0, 801)])
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        assert np.array_equal(sigmoid(Tensor(x)).data.view(np.int64), expected.view(np.int64))


class TestBackwardAnalytic:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]))
        backward(tsum(multiply(x, x)))
        assert np.allclose(x.grad, 2 * x.data)

    def test_sigmoid_at_zero(self):
        x = Tensor(np.array([0.0]))
        backward(tsum(sigmoid(x)))
        assert x.grad[0] == pytest.approx(0.25, abs=1e-12)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            backward(Tensor(np.ones(3)))

    def test_gradient_accumulates_on_shared_nodes(self):
        x = Tensor(np.array([2.0]))
        y = multiply(x, x)  # x used twice
        backward(tsum(y + y))
        assert x.grad[0] == pytest.approx(8.0)  # d/dx 2x^2 = 4x

    def test_parents_do_not_share_gradient_buffers(self):
        # add hands one view to both parents; accumulating into it must not
        # leak into the other parent or the child
        a = Tensor(np.array([1.0]))
        b = Tensor(np.array([1.0]))
        backward(tsum(add(add(a, b), a)))
        assert a.grad[0] == 2.0 and b.grad[0] == 1.0

    def test_no_two_nodes_share_a_gradient_buffer(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, -1.0]]))
        kept = dropout(x, 0.5, train=False)  # hands its own gradient on
        flat = reshape(kept, (4,))
        joined = concat([flat, flat], axis=0)
        square = multiply(x, x)
        nodes = [x, kept, flat, joined, square]
        backward(tsum(add(multiply(joined, joined), reshape(concat([square, square], axis=0), (8,)))))
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                assert not np.shares_memory(a.grad, b.grad)
        assert np.array_equal(x.grad, 8.0 * x.data)

    def test_a_graph_runs_backward_once(self):
        x = Tensor(np.array([1.0, -2.0]))
        y = multiply(x, x)
        loss = tsum(y)
        backward(loss)
        grad = x.grad
        assert y.parents == () and loss.parents == ()
        for again in (loss, tsum(y), add(tsum(x), tsum(y))):
            with pytest.raises(ValueError, match="earlier backward"):
                backward(again)
        assert x.grad is grad and np.array_equal(grad, 2 * x.data)  # a refusal changes nothing
        backward(tsum(multiply(x, x)))  # a new graph over the same leaf
        assert np.array_equal(x.grad, 2 * x.data)

    def test_node_without_contribution_gets_zeros(self):
        x = Tensor(np.array([1.0, 2.0]))
        y = Tensor(x.data * 2.0, (x,), lambda g: (None,), op="stop")
        backward(tsum(y))
        assert np.array_equal(x.grad, np.zeros(2))


def fd_check(forward, params, **kw):
    report = check_gradients(forward, params, **kw)
    assert report.passed, report.failures[:3]
    return report


class TestPrimitiveGradients:
    """Central finite differences against every primitive's backward rule."""

    rng = np.random.default_rng(42)

    def test_add_sub_multiply_broadcast(self):
        a = Tensor(self.rng.normal(size=(3, 4)))
        b = Tensor(self.rng.normal(size=(4,)))
        fd_check(lambda: tsum(multiply(a + b, a - b) * a), {"a": a, "b": b})

    def test_matmul(self):
        a = Tensor(self.rng.normal(size=(3, 4)))
        b = Tensor(self.rng.normal(size=(4, 2)))
        fd_check(lambda: tsum(matmul(a, b)), {"a": a, "b": b})

    def test_concat_narrow_reshape_stack(self):
        a = Tensor(self.rng.normal(size=(2, 3)))
        b = Tensor(self.rng.normal(size=(2, 2)))

        def forward():
            joined = concat([a, b], axis=1)
            piece = narrow(joined, 1, 1, 3)
            steps = stack_steps([piece, piece])
            return tmean(reshape(steps, (2 * 2 * 3,)))

        fd_check(forward, {"a": a, "b": b})

    def test_activations(self):
        x = Tensor(self.rng.normal(size=(4, 5)))
        fd_check(lambda: tsum(tanh(x) + sigmoid(x)), {"x": x})
        y = Tensor(self.rng.normal(size=(4, 5)) + 0.3)  # keep away from relu kink
        fd_check(lambda: tsum(relu(y)), {"y": y})

    def test_softmax_cross_entropy(self):
        logits = Tensor(self.rng.normal(size=(5, 3)))
        onehot = np.eye(3)[self.rng.integers(0, 3, size=5)]
        fd_check(lambda: cross_entropy(softmax(logits, axis=-1), onehot), {"logits": logits})

    def test_embedding_lookup(self):
        table = Tensor(self.rng.normal(size=(7, 4)))
        ids = self.rng.integers(0, 7, size=(3, 5))
        mask = (self.rng.random((3, 5)) > 0.3).astype(np.int64)
        mask[:, 0] = 1
        fd_check(
            lambda: tsum(tanh(embedding_lookup(table, ids, mask))), {"table": table}
        )

    def test_pools(self):
        x = Tensor(self.rng.normal(size=(3, 4, 5)))
        mask = np.array([[1, 1, 1, 0], [1, 0, 1, 1], [1, 1, 1, 1]])
        fd_check(lambda: tsum(max_pool_over_time(x, mask)), {"x": x})
        fd_check(lambda: tsum(multiply(mean_over_time(x, mask), mean_over_time(x, mask))), {"x": x})

    def test_l2_normalize_and_cosine(self):
        u = Tensor(self.rng.normal(size=(4, 6)))
        v = Tensor(self.rng.normal(size=(4, 6)))
        fd_check(lambda: tsum(l2_normalize(u) + l2_normalize(v)), {"u": u, "v": v})
        fd_check(lambda: tsum(cosine_similarity(u, v)), {"u": u, "v": v})

    def test_lstm_sequence(self):
        x = Tensor(self.rng.normal(size=(3, 4, 2)))
        fwd = [Tensor(self.rng.normal(size=shape)) for shape in ((2, 8), (2, 8), (8,))]
        rev = [Tensor(self.rng.normal(size=shape)) for shape in ((2, 8), (2, 8), (8,))]
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 0, 0]])
        params = {"x": x, **{f"fwd{i}": t for i, t in enumerate(fwd)},
                  **{f"rev{i}": t for i, t in enumerate(rev)}}
        fd_check(lambda: tsum(tanh(bilstm_sequence(x, fwd, rev, mask))), params)

    def test_dropout_frozen_mask_gradient(self):
        # dropout with train=False is the identity path
        x = Tensor(self.rng.normal(size=(3, 3)))
        fd_check(lambda: tsum(dropout(x, 0.5, train=False)), {"x": x})


def per_step_lstm(x, W, U, b, mask, reverse):
    """One direction of the per-step LSTM graph that ``bilstm_sequence`` fuses,
    from primitives."""
    batch, steps, in_dim = x.shape
    units = U.shape[0]
    h = Tensor(np.zeros((batch, units)))
    c = Tensor(np.zeros((batch, units)))
    outputs = [None] * steps
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        z = reshape(narrow(x, 1, t, 1), (batch, in_dim)) @ W + h @ U + b
        i = sigmoid(narrow(z, 1, 0, units))
        f = sigmoid(narrow(z, 1, units, units))
        g = tanh(narrow(z, 1, 2 * units, units))
        o = sigmoid(narrow(z, 1, 3 * units, units))
        c_new = f * c + i * g
        h_new = o * tanh(c_new)
        m = Tensor(mask[:, t : t + 1].astype(np.float64))
        keep = Tensor(1.0 - mask[:, t : t + 1].astype(np.float64))
        c = m * c_new + keep * c
        h = m * h_new + keep * h
        outputs[t] = h
    return stack_steps(outputs)


def per_step_bilstm(x, forward, reverse, mask):
    """Two per-step directions, concatenated: what ``bilstm_sequence`` computes."""
    return concat([per_step_lstm(x, *forward, mask, False),
                   per_step_lstm(x, *reverse, mask, True)], axis=2)


def lstm_results(layer, x, weights, mask, probe):
    """The output and the seven gradients (input, then each direction's W, U
    and b) of ``layer`` on fresh copies of the leaves; under ``no_grad``, with
    ``probe`` None, the output alone."""
    leaves = [Tensor(x.copy())] + [Tensor(w.copy()) for direction in weights for w in direction]
    if probe is None:
        with no_grad():
            return [layer(leaves[0], leaves[1:4], leaves[4:], mask).data]
    out = layer(leaves[0], leaves[1:4], leaves[4:], mask)
    backward(tsum(multiply(out, Tensor(probe))))
    return [out.data] + [t.grad for t in leaves]


lstm_masks = st.integers(1, 4).flatmap(lambda steps: st.lists(
    st.lists(st.integers(0, 1), min_size=steps, max_size=steps), min_size=1, max_size=4))
# one row of up to 40 steps: several projection blocks, maybe a one-step tail
one_long_row = st.lists(st.integers(0, 1), min_size=1, max_size=40).map(lambda row: [row])


class TestLstmSequence:
    rng = np.random.default_rng(12)
    # ragged rows, one all-padding row, one with a gap
    mask = np.array([[1, 1, 1, 1, 1, 1], [1, 1, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0], [1, 0, 1, 1, 0, 0]])

    def directions(self, in_dim=5, units=3):
        return [
            [Tensor(self.rng.uniform(-0.5, 0.5, size=shape))
             for shape in ((in_dim, 4 * units), (units, 4 * units), (4 * units,))]
            for _ in range(2)
        ]

    @pytest.mark.parametrize("stacked", [False, True])
    def test_matches_per_step_graph(self, stacked):
        """One layer, or two stacked so the input gradient of the upper layer
        (both directions summed) flows into the lower one."""
        x = Tensor(self.rng.normal(size=(4, 6, 5)))
        layers = [self.directions()] + ([self.directions(in_dim=6)] if stacked else [])
        leaves = [x] + [t for layer in layers for direction in layer for t in direction]
        probe = Tensor(self.rng.normal(size=(4, 6, 6)))
        results = []
        for run in (bilstm_sequence, per_step_bilstm):
            out = x
            for forward, reverse in layers:
                out = run(out, forward, reverse, self.mask)
            backward(tsum(multiply(out, probe)))
            results.append((out.data, [t.grad.copy() for t in leaves]))
        (fused, fused_grads), (oracle, oracle_grads) = results
        assert np.max(np.abs(fused - oracle)) <= 1e-12
        for got, want in zip(fused_grads, oracle_grads):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @given(mask=lstm_masks | one_long_row, in_dim=st.integers(1, 3), units=st.integers(1, 3),
           scale=st.sampled_from([0.5, 2.0, 40.0]), seed=st.integers(0, 2**32 - 1))
    @example(mask=[[1]], in_dim=2, units=2, scale=2.0, seed=0)
    @example(mask=[[1] * 17], in_dim=2, units=2, scale=2.0, seed=2)  # a one-step tail
    @example(mask=[[1, 0, 0, 1, 1]], in_dim=1, units=1, scale=2.0, seed=1)
    # -0.0 in the output and in the reverse direction's U gradient
    @example(mask=[[1, 1, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1]], in_dim=3, units=2, scale=40.0, seed=19)
    def test_matches_stored_states_oracle_bit_for_bit(self, mask, in_dim, units, scale, seed):
        """Ragged rows, all-padding rows, gaps, one row, one step, one row
        over several projection blocks; at scale 40 gates saturate to exact
        0s and 1s, and some results hold -0.0."""
        mask = np.array(mask)
        batch, steps = mask.shape
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, steps, in_dim)) * scale
        weights = [[rng.uniform(-scale, scale, size=shape)
                    for shape in ((in_dim, 4 * units), (units, 4 * units), (4 * units,))]
                   for _ in range(2)]
        for probe in (rng.normal(size=(batch, steps, 2 * units)), None):
            got = lstm_results(bilstm_sequence, x, weights, mask, probe)
            want = lstm_results(stored_states_bilstm, x, weights, mask, probe)
            for a, b in zip(got, want, strict=True):
                assert same_bits(a, b)

    @given(mask=lstm_masks | one_long_row, rows=st.integers(1, 6), in_dim=st.integers(1, 3),
           units=st.integers(1, 3), scale=st.sampled_from([0.5, 2.0, 40.0]),
           mask_type=st.sampled_from([bool, np.int64]), id_values=st.sampled_from([1, 2, None]),
           seed=st.integers(0, 2**32 - 1))
    @example(mask=[[1]], rows=2, in_dim=2, units=2, scale=2.0, mask_type=bool, id_values=None,
             seed=0)
    @example(mask=[[1, 0, 0, 1, 1]], rows=3, in_dim=1, units=1, scale=40.0, mask_type=bool,
             id_values=None, seed=1)
    @example(mask=[[1, 1, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1]], rows=4, in_dim=3, units=2,
             scale=40.0, mask_type=np.int64, id_values=None, seed=19)
    # one distinct (id, mask) pair: its row is projected twice
    @example(mask=[[1, 1, 1], [1, 1, 1]], rows=4, in_dim=2, units=2, scale=2.0, mask_type=bool,
             id_values=1, seed=3)
    # one row over two projection blocks and a one-step tail, which joins the second
    @example(mask=[[1] * 30 + [0] * 3], rows=5, in_dim=3, units=3, scale=2.0, mask_type=bool,
             id_values=None, seed=4)
    @example(mask=[[1] * 40], rows=5, in_dim=2, units=3, scale=2.0, mask_type=np.int64,
             id_values=2, seed=5)
    def test_reading_the_table_matches_embedding_lookup(self, mask, rows, in_dim, units, scale,
                                                         mask_type, id_values, seed):
        """Fed ``ids``, the layer gives the bits of ``embedding_lookup`` and
        then the layer: the output, the table's gradient and the six weight
        gradients.  Ids are drawn at padded positions too, where the table
        row is read but gets no gradient, from all rows or from one or two
        nonzero ids (so one distinct (id, mask) pair can remain), and one
        row can run for up to 40 steps, over several projection blocks."""
        mask = np.array(mask, dtype=mask_type)
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(rows, in_dim)) * scale
        if id_values is None:
            ids = rng.integers(0, rows, size=mask.shape)
        else:
            ids = rng.choice(rng.integers(1, rows, size=id_values, endpoint=True), size=mask.shape)
            table = np.concatenate([table, rng.normal(size=(1, in_dim)) * scale])
        weights = [[rng.uniform(-scale, scale, size=shape)
                    for shape in ((in_dim, 4 * units), (units, 4 * units), (4 * units,))]
                   for _ in range(2)]

        def fused(t, forward, reverse, m):
            return bilstm_sequence(t, forward, reverse, m, ids=ids)

        def graph(t, forward, reverse, m):
            return bilstm_sequence(embedding_lookup(t, ids, m), forward, reverse, m)

        for probe in (rng.normal(size=(*mask.shape, 2 * units)), None):
            got = lstm_results(fused, table, weights, mask, probe)
            want = lstm_results(graph, table, weights, mask, probe)
            for a, b in zip(got, want, strict=True):
                assert same_bits(a, b)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["real", "padded"])
    def test_non_finite_table_row_names_embedding_lookup(self, bad, where):
        """A non-finite row the ids read is refused as ``embedding_lookup``
        refuses it, also when only a padded position reads it."""
        table = Tensor(self.rng.normal(size=(6, 5)))
        ids = np.array([[1, 2, 3, 4, 5, 1]] * 4)
        mask = np.ones((4, 6), dtype=bool)
        mask[:, 4] = False  # id 5 sits only at padded positions
        table.data[3 if where == "real" else 5] = bad
        for read in (lambda: embedding_lookup(table, ids, mask),
                     lambda: bilstm_sequence(table, *self.directions(), mask, ids=ids)):
            with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="embedding_lookup"):
                read()

    def test_backward_frees_the_graph(self):
        """Once backward has run, a loss the caller holds keeps nothing of its
        graph alive: all that is still allocated, the leaves' gradients
        included, is less than one layer's gate block."""
        rng = np.random.default_rng(21)
        batch, steps, in_dim, units = 4, 64, 8, 8
        x = Tensor(rng.normal(size=(batch, steps, in_dim)))
        layers = [[[Tensor(rng.uniform(-0.5, 0.5, size=shape))
                    for shape in ((width, 4 * units), (units, 4 * units), (4 * units,))]
                   for _ in range(2)]
                  for width in (in_dim, 2 * units)]
        mask = np.ones((batch, steps))
        mask[1, 40:] = 0.0
        gate_block = steps * 2 * batch * 4 * units * 8  # bytes: the (2, B, T, 4H) float64 gates

        def two_layers():
            out = x
            for forward, reverse in layers:
                out = bilstm_sequence(out, forward, reverse, mask)
            return tmean(out)

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss = two_layers()
            held_at_loss = tracemalloc.get_traced_memory()[0] - start
            backward(loss)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert held_at_loss > 2 * gate_block  # both layers' gates were kept
        assert held < gate_block

    def test_padded_steps_repeat_the_state(self):
        x = Tensor(self.rng.normal(size=(4, 6, 5)))
        out = bilstm_sequence(x, *self.directions(), self.mask).data
        fwd, rev = out[..., :3], out[..., 3:]
        assert np.array_equal(fwd[1, 3:], np.repeat(fwd[1, 2:3], 3, axis=0))
        assert np.array_equal(rev[1, 3:], np.zeros((3, 3)))  # before its first real step
        assert np.array_equal(out[2], np.zeros((6, 6)))
        assert np.array_equal(fwd[3, 1], fwd[3, 0])
        assert np.array_equal(rev[3, 1], rev[3, 2])

    def test_non_finite_weight_raises(self):
        for direction in range(2):
            x = Tensor(np.full((4, 6, 5), 10.0))
            weights = self.directions()
            weights[direction][0].data[0, 0] = 1e308
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
                bilstm_sequence(x, *weights, self.mask)
        # the guard also covers padded steps, here the all-padding row only
        x = Tensor(np.zeros((4, 6, 5)))
        x.data[2, :, 0] = 1e308
        weights = self.directions()
        weights[0][0].data[0] = 4.0
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
            bilstm_sequence(x, *weights, self.mask)

    def test_no_grad_keeps_the_outputs(self):
        x = Tensor(self.rng.normal(size=(4, 6, 5)))
        weights = self.directions()
        with no_grad():
            light = bilstm_sequence(x, *weights, self.mask)
        assert light.parents == () and light.backward_rule is None
        assert np.array_equal(light.data, bilstm_sequence(x, *weights, self.mask).data)

    @pytest.mark.parametrize("batch,units", [(1, 32), (4, 64), (7, 16), (16, 32), (16, 64),
                                             (32, 32), (64, 32), (64, 64)])
    def test_stacked_matmul_matches_per_direction_gemm(self, batch, units):
        """The step loop's one matmul over both directions gives the bits of
        one GEMM per direction, forward (h @ U) and backward (dz @ U^T).  This
        depends on the BLAS build numpy uses."""
        rng = np.random.default_rng(batch * units)
        u = rng.uniform(-0.5, 0.5, size=(2, units, 4 * units))
        h = rng.normal(size=(2, batch, units))
        dz = rng.normal(size=(2, batch, 4 * units))
        stacked_h, stacked_dz = np.matmul(h, u), np.matmul(dz, u.swapaxes(1, 2))
        for d in range(2):
            assert np.array_equal(stacked_h[d], h[d] @ u[d])
            assert np.array_equal(stacked_dz[d], dz[d] @ u[d].T)

    # the shapes of the layers' input projections: K the input width, N four
    # times the units, M the rows of one GEMM
    @pytest.mark.parametrize("k", [300, 128, 64, 50])
    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_gemm_rows_do_not_depend_on_the_other_rows(self, k, n):
        """A GEMM row has the same bits whatever the other rows, for two
        rows or more: projecting distinct rows, or a block of steps, gives
        the bits of the GEMM over all rows.  (One row takes another kernel,
        which is why the layer never projects one row alone unless it has
        just one.)  This depends on the BLAS build numpy uses."""
        rng = np.random.default_rng(k * n)
        a = rng.normal(size=(264, k))
        w = rng.uniform(-0.1, 0.1, size=(k, n))
        whole = a @ w
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        for m in [*range(2, 40), 63, 64, 65, 127, 128, 129, 255, 256, 257]:
            for offset in range(8):
                rows = a[offset : offset + m] @ w
                assert np.array_equal(rows, whole[offset : offset + m]), (
                    f"M={m} rows at offset {offset}, K={k}, N={n}: the bits differ from the "
                    f"full GEMM's on {blas.get('name')} {blas.get('version')}")


def graph_pooled_encode(table, proj_w, ctx_w, proj_b, ids, mask):
    """The pooled text encoder as a graph of primitives: what ``pooled_encode``
    fuses."""
    batch, steps = ids.shape
    embed_dim, out_dim = proj_w.shape
    emb = embedding_lookup(table, ids, mask)
    center = mean_over_time(emb, mask)
    centered = sub(emb, reshape(center, (batch, 1, embed_dim)))
    centered = multiply(centered, Tensor(mask[:, :, None].astype(np.float64)))
    flat = reshape(centered, (batch * steps, embed_dim))
    token_part = reshape(flat @ proj_w, (batch, steps, out_dim))
    context = reshape(center @ ctx_w + proj_b, (batch, 1, out_dim))
    return mean_over_time(tanh(token_part + context), mask)


def encoder_weights(rng, rows=7, embed_dim=5, out_dim=4, scale=0.8):
    return [Tensor(rng.uniform(-scale, scale, size=shape))
            for shape in ((rows, embed_dim), (embed_dim, out_dim), (embed_dim, out_dim), (out_dim,))]


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestPooledEncode:
    rng = np.random.default_rng(31)
    MASKS = {
        "prefix": [[1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 1], [1, 1, 0, 0, 0, 0]],
        "gaps": [[1, 0, 1, 1, 0, 1], [0, 0, 1, 0, 0, 0], [0, 1, 0, 1, 1, 0]],
        "single-token rows": [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 1, 0, 0, 0]],
        "one row": [[0, 1, 1, 0, 1, 0]],
        "one step": [[1], [1]],
        "an all-padding row": [[1, 1, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0]],
    }

    def run_both(self, weights, ids, mask, probes):
        """Output and the four weight gradients of each encoder, with every
        probe's encoding sharing the weights, as titles and contents do."""
        results = []
        for encode in (pooled_encode, graph_pooled_encode):
            outs = [encode(*weights, ids, mask) for _ in probes]
            loss = outs[0] * Tensor(probes[0])
            for out, probe in zip(outs[1:], probes[1:]):
                loss = loss + out * Tensor(probe)
            backward(tsum(loss))
            results.append([outs[0].data] + [w.grad.copy() for w in weights])
        return results

    @pytest.mark.parametrize("case", MASKS)
    @pytest.mark.parametrize("encodings", [1, 2])
    def test_matches_graph_bit_for_bit(self, case, encodings):
        mask = np.array(self.MASKS[case])
        # repeated ids, real ids under padding, and pad id 0 at real tokens
        ids = self.rng.integers(0, 7, size=mask.shape)
        weights = encoder_weights(self.rng)
        probes = [self.rng.normal(size=(mask.shape[0], 4)) for _ in range(encodings)]
        probes[0][0, :2] = [0.0, -0.0]
        fused, graph = self.run_both(weights, ids, mask, probes)
        for got, want in zip(fused, graph):
            assert same_bits(got, want)

    def test_matches_graph_on_random_shapes(self):
        for _ in range(40):
            batch, steps = (int(n) for n in self.rng.integers(1, 9, size=2))
            embed_dim, out_dim, rows = (int(n) for n in self.rng.integers(1, 12, size=3))
            mask = (self.rng.random((batch, steps)) < self.rng.random()).astype(np.int64)
            ids = self.rng.integers(0, rows, size=(batch, steps))
            weights = encoder_weights(self.rng, rows, embed_dim, out_dim, scale=2.0)
            probes = [np.where(self.rng.random((batch, out_dim)) < 0.2, -0.0,
                               self.rng.normal(size=(batch, out_dim))) for _ in range(2)]
            fused, graph = self.run_both(weights, ids, mask, probes)
            for got, want in zip(fused, graph):
                assert same_bits(got, want)

    def test_finite_differences(self):
        mask = np.array(self.MASKS["gaps"])
        ids = self.rng.integers(0, 7, size=mask.shape)
        weights = encoder_weights(self.rng)
        probe = Tensor(self.rng.normal(size=(3, 4)))
        names = ("table", "proj_w", "ctx_w", "proj_b")
        fd_check(lambda: tsum(multiply(pooled_encode(*weights, ids, mask), probe)),
                 dict(zip(names, weights)))

    def test_non_finite_weight_raises(self):
        mask = np.array(self.MASKS["prefix"])
        ids = np.array([[1, 2, 3, 4, 4, 4], [1, 2, 3, 4, 5, 6], [6, 5, 4, 4, 4, 4]])
        # table row 1 is read by real tokens, row 4 by padding in the first and
        # last rows too; these raise without a numpy warning on the way
        for index, where, value in ((0, (1, 0), np.inf), (0, (1, 1), np.nan), (0, (4, 0), np.inf),
                                    (0, (4, 0), -np.inf), (1, (1, 0), np.nan), (3, 0, np.inf)):
            weights = encoder_weights(self.rng)
            weights[index].data[where] = value
            with pytest.raises(NonFiniteError):
                pooled_encode(*weights, ids, mask)
        # rows 1 and 2 of the table overflow the embedding sum of the first row,
        # which warns of the overflow first, as the graph's mean_over_time does
        weights = encoder_weights(self.rng)
        weights[0].data[[1, 2], 0] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
            pooled_encode(*weights, ids, mask)

    def test_no_grad_returns_a_leaf(self):
        mask = np.array(self.MASKS["gaps"])
        ids = self.rng.integers(0, 7, size=mask.shape)
        weights = encoder_weights(self.rng)
        with no_grad():
            light = pooled_encode(*weights, ids, mask)
        assert light.parents == () and light.backward_rule is None
        assert np.array_equal(light.data, pooled_encode(*weights, ids, mask).data)

    def test_scatter_rows_equals_add_at(self):
        """Repeated ids, -0.0 terms, a row that gets only -0.0 and one that
        gets nothing, and magnitudes far enough apart that order matters."""
        ids = self.rng.integers(0, 5, size=200)
        grads = self.rng.normal(size=(200, 3)) * 10.0 ** self.rng.integers(-12, 12, size=(200, 1))
        grads[self.rng.random((200, 3)) < 0.3] = -0.0
        grads[ids == 4] = -0.0
        want = np.zeros((6, 3))
        np.add.at(want, ids, grads)
        got = _scatter_rows(ids, grads, 6)
        assert same_bits(got, want)
        assert got.base is None  # so backward adopts it instead of copying
        assert same_bits(_scatter_rows(ids[:0], grads[:0], 6), np.zeros((6, 3)))


class TestNoGrad:
    def test_ops_return_leaves(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.ones((3, 2)))
        with no_grad():
            outs = [a + a, a - a, a * a, a @ b, concat([a, a]), narrow(a, 1, 0, 2),
                    reshape(a, (3, 2)), stack_steps([a, a]), tanh(a), sigmoid(a), relu(a),
                    softmax(a), tsum(a), tmean(a), dropout(a, 0.5, train=False)]
        for out in outs:
            assert out.parents == () and out.backward_rule is None
        assert (a + a).parents == (a, a)

    def test_mode_restored_after_exception(self):
        with pytest.raises(ZeroDivisionError), no_grad():
            1 / 0
        assert Tensor(1.0).parents == () and (Tensor(1.0) + Tensor(2.0)).backward_rule is not None
        with no_grad():
            with pytest.raises(NonFiniteError), no_grad():
                Tensor(np.inf)
            assert (Tensor(1.0) + Tensor(2.0)).backward_rule is None


class TestDropout:
    def test_inference_identity(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        out = dropout(x, 0.6, train=False)
        assert np.array_equal(out.data, x.data)

    def test_zero_rate_identity_in_training(self):
        x = Tensor(np.ones((2, 2)))
        out = dropout(x, 0.0, train=True, rng=np.random.default_rng(0))
        assert np.array_equal(out.data, x.data)

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.4, train=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)
        kept = out.data[out.data != 0.0]
        assert np.allclose(kept, 1.0 / 0.6)

    def test_training_needs_rng(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 0.5, train=True)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 1.0, train=True, rng=np.random.default_rng(0))


class AdamReference:
    """Reference bias-corrected Adam (betas 0.9 and 0.999, eps 1e-8); with a
    nonzero weight decay, lr * weight_decay * the pre-update parameter is then
    subtracted (AdamW)."""

    def __init__(self, lr, weight_decay):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        """The new parameter dict."""
        self.t += 1
        bias1 = 1.0 - 0.9**self.t
        bias2 = 1.0 - 0.999**self.t
        out = {}
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros(p.shape))
            v = self.v.setdefault(name, np.zeros(p.shape))
            m += (1.0 - 0.9) * (g - m)
            v += (1.0 - 0.999) * (g * g - v)
            update = (m / bias1) / (np.sqrt(v / bias2) + 1e-8)
            out[name] = p - self.lr * update
            if self.weight_decay:
                out[name] = out[name] - self.lr * self.weight_decay * p
        return out


def one_step(value, grad, **options):
    """The parameter after one ``GraphOptimizer`` step from ``value`` with ``grad``."""
    x = Tensor(np.array([value]))
    opt = GraphOptimizer({"x": x}, **options)
    x.grad = np.array([grad])
    opt.step()
    return x.data[0], opt


class TestOptimizers:
    def test_adam_first_step_hand_computed(self):
        value, opt = one_step(1.0, 1.0, lr=0.1)
        # bias-corrected ratio is 1 at step 1 up to eps
        assert value == pytest.approx(0.9, abs=1e-8)
        assert opt.step_count == 1

    def test_adam_zero_grad_no_change(self):
        value, _ = one_step(2.0, 0.0, lr=0.1)
        assert value == 2.0

    def test_adamw_decay_with_zero_grad(self):
        value, _ = one_step(2.0, 0.0, lr=0.1, weight_decay=0.5)
        assert value == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        x = Tensor(np.ones(3))
        opt = GraphOptimizer({"x": x}, lr=0.1)
        x.grad = np.ones(4)
        with pytest.raises(ValueError):
            opt.step()

    def test_graph_optimizer_descends(self):
        x = Tensor(np.array([3.0]))
        opt = GraphOptimizer({"x": x}, lr=0.1)
        for _ in range(200):
            loss = tsum(multiply(x, x))
            opt.zero_grad()
            backward(loss)
            opt.step()
        assert abs(x.data[0]) < 0.2

    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_graph_optimizer_equals_functional_step(self, weight_decay):
        rng = np.random.default_rng(3)
        # "table" spans more than one of the step's blocks
        start = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=(5,)),
                 "table": rng.normal(size=(3, GraphOptimizer.BLOCK // 2))}
        params = {name: Tensor(value.copy()) for name, value in start.items()}
        buffers = {name: p.data for name, p in params.items()}
        opt = GraphOptimizer(params, lr=0.05, weight_decay=weight_decay)
        reference = AdamReference(lr=0.05, weight_decay=weight_decay)
        expected = start
        for step in range(6):
            grads = {name: rng.normal(size=v.shape) for name, v in start.items()}
            if step == 2:
                grads = {name: np.zeros_like(g) for name, g in grads.items()}
            grads["w"][0] = 0.0
            for name, p in params.items():
                p.grad = grads[name].copy()
            opt.step()
            expected = reference.step(expected, grads)
            for name, p in params.items():
                assert p.data is buffers[name]  # updated in place
                assert np.array_equal(p.data, expected[name]), (step, name)

    def test_graph_optimizer_requires_backward(self):
        x = Tensor(np.array([1.0]))
        opt = GraphOptimizer({"x": x}, lr=0.1)
        with pytest.raises(ValueError):
            opt.step()


class TestCheckGradients:
    def test_negative_control_detects_corruption(self):
        x = Tensor(np.array([1.0, 2.0]))

        def forward():
            out = tsum(multiply(x, x))
            # corrupt the backward rule: claims gradient 3x instead of 2x
            def bad_rule(g):
                return (g * 3.0 * x.data,)
            return Tensor(out.data, (x,), bad_rule, op="corrupted")

        report = check_gradients(forward, {"x": x})
        assert not report.passed

    def test_empty_params_vacuous_pass(self):
        report = check_gradients(lambda: tsum(Tensor(np.ones(2))), {})
        assert report.passed
        assert report.n_checked == 0

    def test_coordinate_sampling(self):
        x = Tensor(np.random.default_rng(4).normal(size=(10, 10)))
        report = check_gradients(
            lambda: tsum(tanh(x)), {"x": x}, max_coords_per_param=17,
            rng=np.random.default_rng(5),
        )
        assert report.passed
        assert report.n_checked == 17


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        tensors = {
            "layer.w": rng.normal(size=(4, 3)),
            "layer.b": rng.normal(size=(3,)),
            "scalarish": np.array(2.5),
        }
        path = tmp_path / "model.tensors"
        save_tensors(path, tensors)
        loaded = load_tensors(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])

    def test_version_header_enforced(self, tmp_path):
        path = tmp_path / "bad.tensors"
        path.write_bytes(b'{"format": "baitline-tensors", "version": 99, "tensors": []}\n')
        with pytest.raises(ValueError):
            load_tensors(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\x01\x02junk")
        with pytest.raises(ValueError):
            load_tensors(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "model.tensors"
        save_tensors(path, {"w": np.ones((4, 4))})
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError):
            load_tensors(path)
