"""Linear SVM trained by epoch-shuffled subgradient descent, Platt-calibrated.

The primal objective is 0.5*||w||^2 + C * sum(hinge).  Updates follow the
schedule lr_t = 1/(lambda*t) with lambda = 1/(C*n), which makes the descent
equivalent to minimizing the per-sample scaled objective.  Class convention:
clickbait maps to +1, non-clickbait to -1, so positive decision values lean
clickbait.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..tensor.checkpoint import finite_array, is_finite_number
from ..tensor.core import _sigmoid


@dataclass
class SvmConfig:
    C: float = 1.0
    epochs: int = 200
    seed: int = 0


@dataclass(frozen=True)
class PlattScaler:
    """Sigmoid calibration p = 1/(1 + exp(A*decision + B)) for the +1 class."""

    A: float
    B: float

    def proba(self, decision: float | np.ndarray) -> np.ndarray:
        # ndmin=1: _sigmoid writes into its own arrays, which a 0-d input would not give it
        return _sigmoid(-(self.A * np.array(decision, dtype=np.float64, ndmin=1) + self.B))


@dataclass
class SvmModel:
    w: np.ndarray
    b: float
    calibrator: PlattScaler
    objective_by_epoch: list[float] = field(default_factory=list)  # at epoch ends

    def decision(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.w + self.b

    def predict_clickbait_proba(self, X: np.ndarray) -> np.ndarray:
        return self.calibrator.proba(self.decision(X))


def svm_objective(w: np.ndarray, b: float, X: np.ndarray, y_signed: np.ndarray, C: float) -> float:
    margins = y_signed * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins).sum()
    return float(0.5 * (w @ w) + C * hinge)


def train_svm(X: np.ndarray, y: np.ndarray, config: SvmConfig | None = None) -> SvmModel:
    """Deterministic subgradient training plus Platt fitting on train decisions."""
    if config is None:
        config = SvmConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    if len(y) != n:
        raise ValueError("X and y are misaligned")
    counts = np.bincount(y, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise ValueError("SVM training needs both classes present")
    y_signed = np.where(y == 0, 1.0, -1.0)
    lam = 1.0 / (config.C * n)

    # The bias rides in the weight vector as a constant-1 feature, so it is
    # regularized along with w; on standardized inputs the bias is small.  The
    # per-epoch objective is that of the augmented weights with no extra bias.
    Xa = np.hstack([X, np.ones((n, 1))])
    # Rows signed once: y*x is exact for y = +-1, and rounding is symmetric in
    # sign, so (y*x).v carries the bits of y*(x.v).
    rows = list(Xa * y_signed[:, None])
    rng = np.random.default_rng(config.seed)
    # Pegasos' scaled form (Shalev-Shwartz et al., 2007): under lr_t = 1/(lam*t)
    # the shrink is 1 - 1/t, so w_t = v/(lam*(t-1)) with v the sum of the
    # signed rows that violated before step t.  Step t violates iff
    # row.v < lam*(t-1), and then v += row; step 1 (w_1 = 0) always does.
    v = np.zeros(d + 1)
    objective_by_epoch: list[float] = []
    tail_sum = np.zeros(d + 1)
    # too large a C overflows the scaled weights: that raises below, not as a RuntimeWarning
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            steps = np.arange(epoch * n + 1, (epoch + 1) * n + 1, dtype=np.float64)
            thresholds = np.where(steps > 1.0, lam * (steps - 1.0), np.inf)
            last_epoch = epoch == config.epochs - 1
            for i, threshold, t in zip(order.tolist(), thresholds.tolist(), steps.tolist()):
                row = rows[i]
                if row.dot(v) < threshold:
                    v += row
                if last_epoch:
                    tail_sum += v / t  # lam * w_{t+1}
            w_end = v / (lam * ((epoch + 1) * n))
            objective_by_epoch.append(svm_objective(w_end, 0.0, Xa, y_signed, config.C))
        # suffix averaging over the final epoch removes the O(lr) oscillation
        # band of the last raw iterate
        wa = tail_sum / (lam * n)
        w, b = wa[:-1], float(wa[-1])
        calibrator = platt_fit(X @ w + b, y_signed)
    if not np.isfinite([*objective_by_epoch, *wa, calibrator.A, calibrator.B]).all():
        epoch = next((e for e, value in enumerate(objective_by_epoch, 1)
                      if not math.isfinite(value)), config.epochs)
        raise ArithmeticError(f"svm training is not finite at epoch {epoch}; "
                              f"C = {config.C!r} is too large")
    return SvmModel(w=w, b=b, calibrator=calibrator, objective_by_epoch=objective_by_epoch)


def platt_fit(decisions: np.ndarray, y_signed: np.ndarray, max_iter: int = 100) -> PlattScaler:
    """Newton fit of the Platt sigmoid on (decision value, label) pairs.

    Standard regularized-target formulation with a backtracking line search.
    """
    decisions = np.asarray(decisions, dtype=np.float64)
    y_signed = np.asarray(y_signed, dtype=np.float64)
    prior1 = float((y_signed > 0).sum())
    prior0 = float(len(y_signed) - prior1)
    hi = (prior1 + 1.0) / (prior1 + 2.0)
    lo = 1.0 / (prior0 + 2.0)
    targets = np.where(y_signed > 0, hi, lo)

    min_step = 1e-10
    sigma = 1e-12

    def nll(a: float, b: float) -> float:
        z = decisions * a + b
        # stable log(1 + exp(z)) split by sign
        out = np.where(z >= 0, targets * z + np.log1p(np.exp(-z)),
                       (targets - 1.0) * z + np.log1p(np.exp(z)))
        return float(out.sum())

    A = 0.0
    B = math.log((prior0 + 1.0) / (prior1 + 1.0))
    fval = nll(A, B)
    for _ in range(max_iter):
        p = _sigmoid(-(decisions * A + B))
        d2 = p * (1.0 - p)
        h11 = float((decisions * decisions * d2).sum()) + sigma
        h22 = float(d2.sum()) + sigma
        h21 = float((decisions * d2).sum())
        d1 = targets - p
        g1 = float((decisions * d1).sum())
        g2 = float(d1.sum())
        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            break
        det = h11 * h22 - h21 * h21
        dA = -(h22 * g1 - h21 * g2) / det
        dB = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * dA + g2 * dB
        stepsize = 1.0
        while stepsize >= min_step:
            new_a = A + stepsize * dA
            new_b = B + stepsize * dB
            new_f = nll(new_a, new_b)
            if new_f < fval + 1e-4 * stepsize * gd:
                A, B, fval = new_a, new_b, new_f
                break
            stepsize /= 2.0
        else:
            break
    return PlattScaler(A=A, B=B)


def svm_fields(model: SvmModel) -> dict:
    """The ``model.json`` fields of an svm model besides its config, which
    holds C, and its losses, the objective at each epoch's end."""
    return {"w": model.w.tolist(), "b": model.b,
            "platt": {"A": model.calibrator.A, "B": model.calibrator.B}}


def load_svm(path, model: dict, n_features: int) -> SvmModel:
    """The svm model in ``model``, the parsed ``model.json`` at ``path``, with
    one weight for each of ``n_features`` features."""
    platt = model["platt"]
    if not isinstance(platt, dict) or not {"A", "B"} <= platt.keys():
        raise ValueError(f"{path}: svm field 'platt' needs 'A' and 'B'")
    for name, value in (("b", model["b"]), ("platt.A", platt["A"]), ("platt.B", platt["B"])):
        if not is_finite_number(value):
            raise ValueError(f"{path}: svm field {name!r} is not a finite number")
    return SvmModel(w=finite_array(path, "svm field 'w'", model["w"], n_features),
                    b=float(model["b"]),
                    calibrator=PlattScaler(A=float(platt["A"]), B=float(platt["B"])),
                    objective_by_epoch=list(model["losses"]))
