"""Dense float64 tensors with reverse-mode automatic differentiation.

Graphs are built eagerly by the op functions below, except inside
``no_grad()``; ``backward`` runs a reverse topological sweep and accumulates
gradients on every reachable node.  Any op that produces a NaN or Inf
raises immediately, so numerical blowups surface at their source instead of
as garbage metrics.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


def _ensure_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced non-finite values")


_grad_enabled = True


@contextmanager
def no_grad():
    """Build no graph inside: each op's result is a leaf with no parents and
    no backward rule, so nothing is kept for a backward pass.  The previous
    mode is restored on exit, also when the block raises."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """Graph node: value plus parents and a gradient propagation rule.

    ``backward_rule(grad_out)`` returns one gradient contribution per parent
    (None for parents that do not receive gradient).  Leaves have no parents;
    trainable parameters are just leaves the caller keeps references to.
    """

    __slots__ = ("data", "parents", "backward_rule", "grad")

    def __init__(
        self,
        data,
        parents: tuple["Tensor", ...] = (),
        backward_rule: Callable[[np.ndarray], tuple] | None = None,
        op: str = "leaf",
    ):
        arr = np.asarray(data, dtype=np.float64)
        _ensure_finite(arr, op)
        self.data = arr
        if _grad_enabled:
            self.parents = parents
            self.backward_rule = backward_rule
        else:
            self.parents = ()
            self.backward_rule = None
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return multiply(self, _wrap(other))

    def __rmul__(self, other):
        return multiply(_wrap(other), self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __neg__(self):
        return multiply(self, Tensor(-1.0))


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def rule(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor(out_data, (a, b), rule, op="add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def rule(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return Tensor(out_data, (a, b), rule, op="sub")


def multiply(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def rule(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return Tensor(out_data, (a, b), rule, op="multiply")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def rule(g):
        return g @ b.data.T, a.data.T @ g

    return Tensor(out_data, (a, b), rule, op="matmul")


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise ValueError("concat of zero tensors")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def rule(g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        return tuple(pieces)

    return Tensor(out_data, tuple(tensors), rule, op="concat")


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along ``axis``."""
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out_data = x.data[index].copy()

    def rule(g):
        gx = np.zeros_like(x.data)
        gx[index] = g
        return (gx,)

    return Tensor(out_data, (x,), rule, op="narrow")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = x.data.reshape(shape)

    def rule(g):
        return (g.reshape(x.data.shape),)

    return Tensor(out_data, (x,), rule, op="reshape")


def stack_steps(tensors: Sequence[Tensor]) -> Tensor:
    """Stack per-step (B, H) tensors into (B, T, H)."""
    out_data = np.stack([t.data for t in tensors], axis=1)

    def rule(g):
        return tuple(g[:, t, :] for t in range(len(tensors)))

    return Tensor(out_data, tuple(tensors), rule, op="stack_steps")


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def rule(g):
        return (g * (1.0 - out_data * out_data),)

    return Tensor(out_data, (x,), rule, op="tanh")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow or branches: with e = exp(-|x|),
    1/(1+e) where x >= 0 and e/(1+e) below, the same bits as evaluating each
    formula on its own half.  The numerator max(e, x >= 0) is exactly 1 or e,
    since e <= 1."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.maximum(e, x >= 0, out=e)
    np.divide(e, d, out=e)
    return e


def sigmoid(x: Tensor) -> Tensor:
    out_data = _sigmoid(x.data)

    def rule(g):
        return (g * out_data * (1.0 - out_data),)

    return Tensor(out_data, (x,), rule, op="sigmoid")


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def rule(g):
        return (g * (x.data > 0.0),)

    return Tensor(out_data, (x,), rule, op="relu")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def rule(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - inner),)

    return Tensor(out_data, (x,), rule, op="softmax")


def embedding_lookup(
    table: Tensor, ids: np.ndarray, mask: np.ndarray | None = None
) -> Tensor:
    """Gather rows of ``table`` for integer ``ids`` (B, T) -> (B, T, E).

    With a mask, embeddings at padded positions are zeroed and the pad rows
    of the table receive no gradient.
    """
    ids = np.asarray(ids, dtype=np.int64)
    out_data = table.data[ids]
    if mask is not None:
        mask = np.asarray(mask)
        out_data = out_data * mask[..., None]

    def rule(g):
        if mask is not None:
            g = g * mask[..., None]
        return (_scatter_rows(ids.reshape(-1), g.reshape(-1, g.shape[-1]), table.data.shape[0]),)

    return Tensor(out_data, (table,), rule, op="embedding_lookup")


def _scatter_rows(ids: np.ndarray, grads: np.ndarray, rows: int) -> np.ndarray:
    """(rows, E) table gradient: row ``ids[i]`` receives ``grads[i]`` (N, E).

    One ``np.bincount`` over the flat index ``id * E + col``.  Like
    ``np.add.at`` it adds each element's contributions in position order to
    a sum that starts at +0.0, so the bits are the same, sign of zero
    included; such a sum is never -0.0, and a +-0.0 term never changes it.
    """
    width = grads.shape[1]
    flat = (ids[:, None] * width + np.arange(width)).reshape(-1)
    summed = np.bincount(flat, weights=grads.reshape(-1), minlength=rows * width)
    # in place, as the size stays: a reshaped view would cost backward a copy
    # of the whole table
    summed.resize((rows, width))
    return summed


_MASKED_MIN = -1e30  # stand-in for -inf that keeps the finiteness guard usable


def max_pool_over_time(x: Tensor, mask: np.ndarray) -> Tensor:
    """Per-feature max over the time axis of (B, T, H), ignoring padding.

    Rows whose mask is entirely zero pool to the zero vector and propagate no
    gradient.
    """
    mask = np.asarray(mask)
    masked = np.where(mask[:, :, None] > 0, x.data, _MASKED_MIN)
    argmax = masked.argmax(axis=1)  # (B, H)
    out_data = np.take_along_axis(masked, argmax[:, None, :], axis=1)[:, 0, :]
    empty = mask.sum(axis=1) == 0
    if empty.any():
        out_data = out_data.copy()
        out_data[empty] = 0.0

    def rule(g):
        gx = np.zeros_like(x.data)
        batch, hidden = g.shape
        rows = np.repeat(np.arange(batch), hidden)
        cols = np.tile(np.arange(hidden), batch)
        times = argmax.reshape(-1)
        keep = ~empty[rows]
        np.add.at(gx, (rows[keep], times[keep], cols[keep]), g.reshape(-1)[keep])
        return (gx,)

    return Tensor(out_data, (x,), rule, op="max_pool_over_time")


def mean_over_time(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over real (unmasked) time steps of (B, T, H); empty rows -> zeros."""
    mask = np.asarray(mask, dtype=np.float64)
    counts = mask.sum(axis=1)  # (B,)
    safe_counts = np.where(counts == 0, 1.0, counts)
    out_data = (x.data * mask[:, :, None]).sum(axis=1) / safe_counts[:, None]

    def rule(g):
        return (g[:, None, :] * mask[:, :, None] / safe_counts[:, None, None],)

    return Tensor(out_data, (x,), rule, op="mean_over_time")


def pooled_encode(table: Tensor, proj_w: Tensor, ctx_w: Tensor, proj_b: Tensor,
                  ids: np.ndarray, mask: np.ndarray) -> Tensor:
    """Pooled text encoding of ids and a 0/1 mask (B, T) -> (B, O).

    With x the table rows of the ids (zero at padding) and c their mean over
    the real tokens, the output is the mean over real tokens of
    tanh((x - c) @ proj_w + c @ ctx_w + proj_b).  Output and gradients have
    the bits of the graph of ``embedding_lookup``, ``mean_over_time``, ``sub``,
    ``multiply``, ``matmul``, ``add`` and ``tanh``: the same operations in the
    same order, every GEMM over all B*T rows.  The backward skips what the
    graph does for nothing: the constant mask's gradient, re-masking masked
    arrays, the padded tokens' table terms (+-0.0 each, no-ops in
    ``_scatter_rows``) and per-node finiteness scans: one scan of the rows
    read and one of the tanh input catch every non-finite value.
    """
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    batch, steps = ids.shape
    embed_dim, out_dim = proj_w.data.shape
    mask3 = mask[:, :, None]
    counts = mask.sum(axis=1)
    safe_counts = np.where(counts == 0, 1.0, counts)[:, None]
    centered = table.data[ids]
    # as embedding_lookup does, before masking can turn an Inf into NaN
    _ensure_finite(centered, "pooled_encode")
    centered *= mask3
    center = centered.sum(axis=1) / safe_counts  # (B, E)
    centered -= center[:, None, :]
    centered *= mask3
    flat = centered.reshape(batch * steps, embed_dim)
    tokens = (flat @ proj_w.data).reshape(batch, steps, out_dim)
    tokens += (center @ ctx_w.data + proj_b.data)[:, None, :]
    _ensure_finite(tokens, "pooled_encode")
    np.tanh(tokens, out=tokens)
    out_data = (tokens * mask3).sum(axis=1) / safe_counts

    def rule(g):
        g_pre = (g / safe_counts)[:, None, :] * mask3  # (g * mask) / counts, bit for bit
        slope = tokens * tokens
        np.subtract(1.0, slope, out=slope)
        g_pre *= slope
        g_ctx = _unbroadcast(g_pre, (batch, 1, out_dim)).reshape(batch, out_dim)
        g_flat_pre = g_pre.reshape(batch * steps, out_dim)
        g_flat = g_flat_pre @ proj_w.data.T
        g_centered = g_flat.reshape(batch, steps, embed_dim)
        # The graph masks g_centered again and adds the sum of its negation.
        # Padded rows of g_flat are +-0.0 already, and the sum of g subtracted
        # differs only in the sign of a zero, which no table-gradient sum keeps.
        g_center = g_ctx @ ctx_w.data.T
        g_center -= g_centered.sum(axis=1)
        g_center /= safe_counts
        g_centered += g_center[:, None, :]  # the embeddings' gradient on real tokens
        real = np.flatnonzero(mask)
        return (
            _scatter_rows(ids.reshape(-1)[real], g_flat[real], table.data.shape[0]),
            flat.T @ g_flat_pre,
            center.T @ g_ctx,
            _unbroadcast(g_ctx, proj_b.data.shape),
        )

    return Tensor(out_data, (table, proj_w, ctx_w, proj_b), rule, op="pooled_encode")


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    norms = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True))
    out_data = x.data / norms  # zero rows raise via the finiteness guard

    def rule(g):
        inner = (g * x.data).sum(axis=axis, keepdims=True)
        return (g / norms - x.data * inner / norms**3,)

    return Tensor(out_data, (x,), rule, op="l2_normalize")


def cosine_similarity(u: Tensor, v: Tensor, axis: int = -1) -> Tensor:
    """Row-wise cosine similarity, clipped to [-1, 1] against rounding noise.

    Gradient is zero at clipped coordinates (they sit outside the reachable
    range only through floating-point error).
    """
    nu = np.sqrt((u.data * u.data).sum(axis=axis))
    nv = np.sqrt((v.data * v.data).sum(axis=axis))
    if np.any(nu == 0) or np.any(nv == 0):
        raise ValueError("cosine similarity of a zero vector")
    dots = (u.data * v.data).sum(axis=axis)
    raw = dots / (nu * nv)
    out_data = np.clip(raw, -1.0, 1.0)
    inside = np.abs(raw) <= 1.0

    def rule(g):
        g = g * inside
        scale = np.expand_dims(g / (nu * nv), axis)
        s_over_u2 = np.expand_dims(g * raw / (nu * nu), axis)
        s_over_v2 = np.expand_dims(g * raw / (nv * nv), axis)
        gu = scale * v.data - s_over_u2 * u.data
        gv = scale * u.data - s_over_v2 * v.data
        return gu, gv

    return Tensor(out_data, (u, v), rule, op="cosine_similarity")


def dropout(x: Tensor, rate: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: active only in training, identity at inference."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        def identity_rule(g):
            return (g,)
        return Tensor(x.data, (x,), identity_rule, op="dropout")
    if rng is None:
        raise ValueError("training-mode dropout needs the run RNG")
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)

    def rule(g):
        return (g * keep,)

    return Tensor(x.data * keep, (x,), rule, op="dropout")


_LOG_EPS = 1e-12


def cross_entropy(probs: Tensor, onehot: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of one-hot targets under ``probs`` rows."""
    onehot = np.asarray(onehot, dtype=np.float64)
    if onehot.shape != probs.data.shape:
        raise ValueError(f"targets {onehot.shape} do not match probs {probs.shape}")
    batch = probs.data.shape[0]
    out_data = -(onehot * np.log(probs.data + _LOG_EPS)).sum() / batch

    def rule(g):
        return (g * (-onehot / (probs.data + _LOG_EPS)) / batch,)

    return Tensor(out_data, (probs,), rule, op="cross_entropy")


def tsum(x: Tensor) -> Tensor:
    out_data = x.data.sum()

    def rule(g):
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return Tensor(out_data, (x,), rule, op="sum")


def tmean(x: Tensor) -> Tensor:
    size = x.data.size
    out_data = x.data.sum() / size

    def rule(g):
        return (np.broadcast_to(g / size, x.data.shape).copy(),)

    return Tensor(out_data, (x,), rule, op="mean")


# ---------------------------------------------------------------------------
# fused recurrence
# ---------------------------------------------------------------------------

def bilstm_sequence(
    x: Tensor, forward: Sequence[Tensor], reverse: Sequence[Tensor], mask: np.ndarray
) -> Tensor:
    """Both directions of a bidirectional LSTM layer: (B, T, D) -> (B, T, 2H),
    the forward direction's hidden states, then the reverse direction's.

    ``forward`` and ``reverse`` are each (W (D, 4H), U (H, 4H), b (4H,)),
    packing the input, forget, cell and output gates in that order.  A padded
    step (mask 0) carries the state through unchanged.  Loop step k is time k
    forward and time T-1-k in reverse, with the states stacked as (2, B, H),
    so a step is one matmul against the stacked U and one finiteness guard.
    Each input projection and each weight and input gradient is one GEMM
    over all B*T rows.  Under ``no_grad`` only the states are kept; otherwise
    the backward rule is backpropagation through time over the stored gates.
    """
    batch, steps, in_dim = x.data.shape
    (wf, uf, bf), (wr, ur, br) = ([t.data for t in ws] for ws in (forward, reverse))
    units = uf.shape[0]
    u, bias = np.stack([uf, ur]), np.stack([bf, br])[:, None, :]
    flat_x = x.data.reshape(batch * steps, in_dim)
    # step-major layout: [k, 0] is time k forward, [k, 1] time T-1-k reverse;
    # with a graph kept, step k's input projection is overwritten by its gates
    to_steps = (slice(None), slice(None, None, -1))
    gates = np.empty((steps, 2, batch, 4 * units))
    for d, w in enumerate((wf, wr)):
        gates[:, d] = (flat_x @ w).reshape(batch, steps, -1)[:, to_steps[d]].swapaxes(0, 1)
    carry_new = np.asarray(mask, dtype=np.float64).T[:, None, :, None]
    carry_new = np.concatenate([carry_new, carry_new[::-1]], axis=1)  # (T, 2, B, 1)
    carry_old = 1.0 - carry_new
    keep_graph = _grad_enabled
    if keep_graph:
        h_in, c_in, tanh_c = (np.empty((steps, 2, batch, units)) for _ in range(3))
    states = np.empty((steps, 2, batch, units))
    h = np.zeros((2, batch, units))
    c = np.zeros((2, batch, units))
    i_, f_, g_, o_ = (slice(k * units, (k + 1) * units) for k in range(4))
    for k in range(steps):
        z = gates[k] + np.matmul(h, u)
        z += bias
        _ensure_finite(z, "bilstm_sequence")
        act = _sigmoid(z)
        act[..., g_] = np.tanh(z[..., g_])
        c_new = act[..., f_] * c + act[..., i_] * act[..., g_]
        tc = np.tanh(c_new)
        m, keep = carry_new[k], carry_old[k]
        if keep_graph:
            gates[k], h_in[k], c_in[k], tanh_c[k] = act, h, c, tc
        c = m * c_new + keep * c
        h = m * (act[..., o_] * tc) + keep * h
        states[k] = h
    out = np.concatenate([states[to_steps[d], d].swapaxes(0, 1) for d in range(2)], axis=2)

    def rule(grad_out):
        # d gate / d pre-activation: s(1 - s) for the sigmoids, 1 - g^2 for g;
        # each step's slice then turns into that step's gradient in place
        grad_z = 1.0 - gates
        grad_z *= gates
        grad_z[..., g_] = 1.0 - gates[..., g_] * gates[..., g_]
        grad_steps = np.stack([grad_out[:, to_steps[d], d * units:(d + 1) * units].swapaxes(0, 1)
                               for d in range(2)], axis=1)
        dz = np.empty((2, batch, 4 * units))
        dh = np.zeros((2, batch, units))
        dc = np.zeros((2, batch, units))
        u_t = u.swapaxes(1, 2)
        for k in range(steps - 1, -1, -1):
            m, keep = carry_new[k], carry_old[k]
            dh = grad_steps[k] + dh
            dh_new = m * dh
            dc_new = m * dc
            dh *= keep
            dc *= keep
            act, tc = gates[k], tanh_c[k]
            dc_new += dh_new * act[..., o_] * (1.0 - tc * tc)
            dz[..., i_] = dc_new * act[..., g_]
            dz[..., f_] = dc_new * c_in[k]
            dz[..., g_] = dc_new * act[..., i_]
            dz[..., o_] = dh_new * tc
            step_z = grad_z[k]
            step_z *= dz
            dc += dc_new * act[..., f_]
            dh += np.matmul(step_z, u_t)
        # back to time order, one (B*T, n) block per direction
        flat_z, flat_h = ([a[to_steps[d], d].swapaxes(0, 1).reshape(batch * steps, -1)
                           for d in range(2)] for a in (grad_z, h_in))
        gx = np.empty((batch, steps, in_dim))
        flat_gx = gx.reshape(batch * steps, in_dim)
        np.matmul(flat_z[0], wf.T, out=flat_gx)
        flat_gx += flat_z[1] @ wr.T
        grads = [(flat_x.T @ gz, gh.T @ gz, gz.sum(axis=0)) for gz, gh in zip(flat_z, flat_h)]
        return (gx, *grads[0], *grads[1])

    return Tensor(out, (x, *forward, *reverse), rule, op="bilstm_sequence")


# ---------------------------------------------------------------------------
# backward sweep
# ---------------------------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order: parents precede children (no recursion limits)."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every node reachable from a scalar loss.

    A node's gradient is its first contribution: adopted when the rule made
    a fresh array for that parent alone (rules return arrays they do not
    keep), copied otherwise, since rules may hand the same view or their own
    incoming gradient to several parents.  A node that gets no contribution
    ends with zeros and propagates nothing.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node.grad is None:
            node.grad = np.zeros_like(node.data)
            continue
        if node.backward_rule is None:
            continue
        grads = node.backward_rule(node.grad)
        for parent, g in zip(node.parents, grads):
            if g is None:
                continue
            if parent.grad is not None:
                parent.grad += g
            elif (type(g) is np.ndarray and g.base is None and g is not node.grad
                  and g.dtype == np.float64 and g.shape == parent.data.shape
                  and sum(other is g for other in grads) == 1):
                parent.grad = g
            else:
                parent.grad = np.empty_like(parent.data)
                parent.grad[...] = g


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckFailure:
    param: str
    index: tuple[int, ...]
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    failures: list[GradCheckFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_gradients(
    forward: Callable[[], Tensor],
    params: dict[str, Tensor],
    rtol: float = 1e-4,
    atol: float = 1e-6,
    h: float = 1e-5,
    max_coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    ``forward`` must rebuild the loss from the current parameter values and
    be deterministic (dropout off or with a frozen mask).  The error of a
    coordinate is |analytic - numeric| / (atol/rtol + max(|analytic|,
    |numeric|)), i.e. relative error with an absolute floor that absorbs
    finite-difference noise around zero gradients; a coordinate fails when it
    exceeds rtol.  An empty parameter set passes vacuously.
    """
    loss = forward()
    backward(loss)
    analytic = {name: p.grad.copy() for name, p in params.items()}

    report = GradCheckReport(max_rel_error=0.0, n_checked=0)
    for name, param in params.items():
        flat = param.data.reshape(-1)
        n = flat.size
        if max_coords_per_param is None or max_coords_per_param >= n:
            coords = np.arange(n)
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        for c in coords:
            original = flat[c]
            flat[c] = original + h
            f_plus = forward().item()
            flat[c] = original - h
            f_minus = forward().item()
            flat[c] = original
            numeric = (f_plus - f_minus) / (2.0 * h)
            ad = float(analytic[name].reshape(-1)[c])
            diff = abs(ad - numeric)
            rel = diff / (atol / rtol + max(abs(ad), abs(numeric)))
            report.n_checked += 1
            report.max_rel_error = max(report.max_rel_error, rel)
            if rel > rtol:
                index = np.unravel_index(c, param.data.shape)
                report.failures.append(
                    GradCheckFailure(name, tuple(int(i) for i in index), ad, numeric, rel)
                )
    return report
