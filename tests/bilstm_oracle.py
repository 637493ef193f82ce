"""The fused BiLSTM layer as it stood before it streamed its backward pass:
every step's input state, cell state and output state kept in their own
arrays, the gate derivatives of all steps formed at once, and time-ordered
copies made for the weight GEMMs.  ``bilstm_sequence`` must give its bits,
output and gradients alike."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from baitline.tensor import core
from baitline.tensor.core import Tensor, _ensure_finite, _sigmoid


def stored_states_bilstm(
    x: Tensor, forward: Sequence[Tensor], reverse: Sequence[Tensor], mask: np.ndarray
) -> Tensor:
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
    keep_graph = core._grad_enabled
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
