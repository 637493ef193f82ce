"""Test-only autodiff helpers: a sum reduction and a finite-difference
gradient check."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from baitline.tensor.core import Tensor, backward


def tsum(x: Tensor) -> Tensor:
    """The sum of all elements: a scalar loss for gradient checks."""
    out_data = x.data.sum()

    def rule(g):
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return Tensor(out_data, (x,), rule, op="sum")


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
