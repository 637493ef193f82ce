"""Adam, or AdamW (decoupled weight decay) when a weight decay is set, on
named parameter dicts."""

from __future__ import annotations

import numpy as np

from .core import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class GraphOptimizer:
    """In-place optimizer over a dict of graph parameter tensors."""

    BLOCK = 16384  # elements updated per pass; keeps each block's arrays in cache

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        # first and second moment estimates, allocated at a parameter's first step
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._scratch = np.empty((2, self.BLOCK))

    def step(self) -> None:
        """One bias-corrected Adam update in place, one cache-sized block at a
        time; a nonzero ``weight_decay`` then subtracts lr * weight_decay * the
        pre-update parameter (AdamW)."""
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient; run backward first")
            if p.grad.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {p.grad.shape} != param shape {p.data.shape} for {name!r}"
                )
        self.step_count += 1
        bias1 = 1.0 - BETA1**self.step_count
        bias2 = 1.0 - BETA2**self.step_count
        for name, p in self.params.items():
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
            if name not in self.moments:
                self.moments[name] = (np.zeros(p.data.shape), np.zeros(p.data.shape))
            m, v = self.moments[name]
            flat = (np.ascontiguousarray(p.grad).reshape(-1), m.reshape(-1),
                    v.reshape(-1), p.data.reshape(-1))
            for start in range(0, p.data.size, self.BLOCK):
                g, m_, v_, p_ = (a[start : start + self.BLOCK] for a in flat)
                tmp, update = self._scratch[:, : g.size]
                np.subtract(g, m_, out=tmp)
                tmp *= 1.0 - BETA1
                m_ += tmp
                np.multiply(g, g, out=tmp)
                tmp -= v_
                tmp *= 1.0 - BETA2
                v_ += tmp
                np.divide(v_, bias2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += EPS
                np.divide(m_, bias1, out=update)
                update /= tmp
                update *= self.lr
                if self.weight_decay:
                    np.multiply(p_, self.lr * self.weight_decay, out=tmp)
                    p_ -= update
                    p_ -= tmp
                else:
                    p_ -= update

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
