"""Adam and AdamW (decoupled weight decay) on named parameter dicts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Tensor


@dataclass
class OptimizerState:
    """First/second moment estimates plus hyperparameters for one run."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def _moments(state: OptimizerState, name: str, shape) -> tuple[np.ndarray, np.ndarray]:
    if name not in state.m:
        state.m[name] = np.zeros(shape)
        state.v[name] = np.zeros(shape)
    return state.m[name], state.v[name]


class GraphOptimizer:
    """In-place optimizer over a dict of graph parameter tensors."""

    BLOCK = 16384  # elements updated per pass; keeps each block's arrays in cache

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        weight_decay: float = 0.0,
        decoupled: bool = False,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.decoupled = decoupled
        self.state = OptimizerState(
            lr=lr, beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay
        )
        self._scratch = np.empty((2, self.BLOCK))

    def step(self) -> None:
        """One bias-corrected Adam update in place, one cache-sized block at a
        time; ``decoupled`` then subtracts lr * weight_decay * the pre-update
        parameter (AdamW)."""
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient; run backward first")
            if p.grad.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {p.grad.shape} != param shape {p.data.shape} for {name!r}"
                )
        state = self.state
        state.step_count += 1
        t = state.step_count
        bias1 = 1.0 - state.beta1**t
        bias2 = 1.0 - state.beta2**t
        for name, p in self.params.items():
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
            m, v = _moments(state, name, p.data.shape)
            flat = (np.ascontiguousarray(p.grad).reshape(-1), m.reshape(-1),
                    v.reshape(-1), p.data.reshape(-1))
            for start in range(0, p.data.size, self.BLOCK):
                g, m_, v_, p_ = (a[start : start + self.BLOCK] for a in flat)
                tmp, update = self._scratch[:, : g.size]
                np.subtract(g, m_, out=tmp)
                tmp *= 1.0 - state.beta1
                m_ += tmp
                np.multiply(g, g, out=tmp)
                tmp -= v_
                tmp *= 1.0 - state.beta2
                v_ += tmp
                np.divide(v_, bias2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += state.eps
                np.divide(m_, bias1, out=update)
                update /= tmp
                update *= state.lr
                if self.decoupled:
                    np.multiply(p_, state.lr * state.weight_decay, out=tmp)
                    p_ -= update
                    p_ -= tmp
                else:
                    p_ -= update

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
