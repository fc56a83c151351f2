"""Per-item frequency baseline and L2-regularized logistic regression.

The logistic loss is average binary cross-entropy plus (l2/2)*||w||^2;
the intercept is always fitted and never regularized.  Optimization uses
limited-memory BFGS (memory 10) with convergence on the gradient
max-norm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import scipy.optimize
import scipy.sparse as sp
from scipy.special import expit

from .errors import DataError, NumericError
from .features import FeatureConfig, FeatureMatrix
from .ingest import LabeledInteraction


@dataclass
class BaselineModel:
    """Training-set correctness frequency per item, with a global fallback."""

    item_probs: dict[str, float]
    global_mean: float

    def predict(self, question_id: str) -> float:
        return self.item_probs.get(question_id, self.global_mean)

    def to_json(self) -> str:
        return json.dumps(
            {"kind": "baseline", "global_mean": self.global_mean,
             "item_probs": self.item_probs},
            indent=2, sort_keys=True,
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "BaselineModel":
        payload = json.loads(text)
        return cls(item_probs=payload["item_probs"], global_mean=payload["global_mean"])


def fit_baseline(learners: Mapping[str, list[LabeledInteraction]]) -> BaselineModel:
    attempts: dict[str, int] = {}
    wins: dict[str, int] = {}
    total = 0
    correct = 0
    for inter in learners.values():
        for it in inter:
            attempts[it.question_id] = attempts.get(it.question_id, 0) + 1
            wins[it.question_id] = wins.get(it.question_id, 0) + int(it.correct)
            total += 1
            correct += int(it.correct)
    if total == 0:
        raise DataError("empty training set")
    return BaselineModel(
        item_probs={q: wins[q] / attempts[q] for q in attempts},
        global_mean=correct / total,
    )


@dataclass
class ConvergenceReport:
    n_iter: int
    final_grad_norm: float
    converged: bool
    loss_trace: list[float] = field(default_factory=list)


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    config: FeatureConfig | None = None
    report: ConvergenceReport | None = None

    def predict_matrix(self, X: sp.csr_matrix) -> np.ndarray:
        """Sigmoid of bias plus X @ weights, one probability per row."""
        if X.shape[1] != self.weights.shape[0]:
            raise DataError(
                f"feature width {X.shape[1]} does not match the model's "
                f"{self.weights.shape[0]} weights"
            )
        return expit(X @ self.weights + self.bias)

    def to_json(self) -> str:
        nz = np.flatnonzero(self.weights)
        payload = {
            "kind": "logistic",
            "dim": int(self.weights.shape[0]),
            "bias": float(self.bias),
            "weights": [[int(i), float(self.weights[i])] for i in nz],
            "config": self.config.to_jsonable() if self.config else None,
            "report": None
            if self.report is None
            else {
                "n_iter": self.report.n_iter,
                "final_grad_norm": self.report.final_grad_norm,
                "converged": self.report.converged,
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "LinearModel":
        payload = json.loads(text)
        w = np.zeros(payload["dim"])
        for i, v in payload["weights"]:
            w[i] = v
        config = (
            FeatureConfig.from_jsonable(payload["config"]) if payload["config"] else None
        )
        report = None
        if payload["report"]:
            report = ConvergenceReport(
                n_iter=payload["report"]["n_iter"],
                final_grad_norm=payload["report"]["final_grad_norm"],
                converged=payload["report"]["converged"],
            )
        return cls(weights=w, bias=payload["bias"], config=config, report=report)


def loss_and_grad(wb: np.ndarray, X: sp.csr_matrix, y: np.ndarray, l2: float):
    """Average BCE + (l2/2)||w||^2 and its gradient; bias is wb[-1]."""
    w = wb[:-1]
    b = wb[-1]
    n = X.shape[0]
    z = X @ w + b
    # log(1 + e^z) - y*z, numerically stable
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * np.dot(w, w))
    r = (expit(z) - y) / n
    gw = X.T @ r + l2 * w
    gb = float(np.sum(r))
    return loss, np.concatenate([gw, [gb]])


def fit_logistic(
    X: sp.csr_matrix,
    y: np.ndarray,
    l2: float = 1.0,
    max_iter: int = 100,
    tol: float = 1e-6,
    config: FeatureConfig | None = None,
) -> LinearModel:
    """Fit by L-BFGS (memory 10); deterministic for fixed inputs."""
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise DataError("empty training set")
    if l2 < 0:
        raise DataError(f"l2 must be non-negative, got {l2}")
    if l2 == 0 and (y.min() == y.max()):
        raise DataError("need both labels present when l2 = 0")

    trace: list[float] = []

    def fun(wb):
        loss, grad = loss_and_grad(wb, X, y, l2)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at evaluation {len(trace)}")
        return loss, grad

    def callback(intermediate_result):
        # scipy passes the iterate's loss, so the trace costs no evaluation
        trace.append(intermediate_result.fun)

    wb0 = np.zeros(X.shape[1] + 1)
    result = scipy.optimize.minimize(
        fun,
        wb0,
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={"maxiter": max_iter, "maxcor": 10, "gtol": tol, "ftol": 0.0},
    )
    grad_norm = float(np.max(np.abs(result.jac)))
    report = ConvergenceReport(
        n_iter=int(result.nit),
        final_grad_norm=grad_norm,
        converged=grad_norm <= tol or bool(result.success),
        loss_trace=trace,
    )
    return LinearModel(
        weights=result.x[:-1], bias=float(result.x[-1]), config=config, report=report
    )


def fit_logistic_matrix(matrix: FeatureMatrix, **kwargs) -> LinearModel:
    return fit_logistic(matrix.X, matrix.y, config=matrix.layout.config, **kwargs)
