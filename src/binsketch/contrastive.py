"""Bidirectional softmax contrastive loss over paired embeddings.

A batch holds N source embeddings and N pseudo embeddings paired by index.
Rows are unit-normalized, all-pairs cosine logits are scaled by a
temperature, and the loss is the symmetric cross entropy that asks row i
to pick column i and column i to pick row i. Analytic gradients are
provided for the raw (pre-normalization) embeddings and the temperature,
plus a finite-difference checker to keep them honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(eq=False)
class PairedBatch:
    """N source rows matched to N pseudo rows by index, plus a temperature."""

    source: np.ndarray
    pseudo: np.ndarray
    temperature: float

    def __post_init__(self):
        self.source = np.asarray(self.source, dtype=np.float64)
        self.pseudo = np.asarray(self.pseudo, dtype=np.float64)
        for name, M in (("source", self.source), ("pseudo", self.pseudo)):
            if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
                raise ValidationError(f"{name} must be a non-empty 2-D array, got {M.shape}")
            if not np.all(np.isfinite(M)):
                raise ValidationError(f"{name} has non-finite values")
            if np.any(np.linalg.norm(M, axis=1) == 0.0):
                raise ValidationError(f"{name} has zero-norm rows; cannot normalize")
        if self.source.shape != self.pseudo.shape:
            raise ValidationError(
                f"source and pseudo shapes differ: {self.source.shape} vs {self.pseudo.shape}"
            )
        if not np.isfinite(self.temperature) or self.temperature <= 0.0:
            raise ValidationError(f"temperature must be > 0, got {self.temperature}")

    @property
    def n(self) -> int:
        return self.source.shape[0]


@dataclass(eq=False)
class Gradients:
    d_source: np.ndarray
    d_pseudo: np.ndarray
    d_temperature: float


def _unit_rows(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # A row that finite_difference_check perturbs by a huge step may have a
    # norm beyond float64; it is inf, and the row comes out zero.
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(M, axis=1)
    return M / norms[:, np.newaxis], norms


# A temperature near the float64 limit scales the logits to +-inf, and the
# max shift then subtracts infinities: the NaN that gives is the answer (the
# check reports a failure), so numpy is not asked to warn about it.
def _logsumexp_rows(Z: np.ndarray) -> np.ndarray:
    peak = Z.max(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        return (peak + np.log(np.exp(Z - peak).sum(axis=1, keepdims=True)))[:, 0]


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = np.exp(Z - Z.max(axis=1, keepdims=True))
        return shifted / shifted.sum(axis=1, keepdims=True)


def loss(batch: PairedBatch) -> float:
    """Mean of the row-wise and column-wise cross entropies.

    Zero exactly when each row and column softmax puts all mass on the
    diagonal; for N=1 both softmaxes see a single logit, so the loss is 0.
    A temperature large enough to overflow the sum gives inf, silently.
    """
    X, _ = _unit_rows(batch.source)
    Y, _ = _unit_rows(batch.pseudo)
    tS = batch.temperature * (X @ Y.T)
    diag = np.diag(tS)
    with np.errstate(over="ignore", invalid="ignore"):
        row = _logsumexp_rows(tS) - diag
        col = _logsumexp_rows(tS.T) - diag
        return float((row.sum() + col.sum()) / (2 * batch.n))


def loss_grad(batch: PairedBatch) -> Gradients:
    """Analytic gradients of :func:`loss` w.r.t. raw inputs and temperature.

    With P/Q the row/column softmaxes of the scaled logits, the gradient
    through the logit matrix is (t/2N)(P + Q - 2I); the normalization of
    each input row then projects out the radial component.
    """
    n = batch.n
    X, x_norms = _unit_rows(batch.source)
    Y, y_norms = _unit_rows(batch.pseudo)
    S = X @ Y.T
    tS = batch.temperature * S
    P = _softmax_rows(tS)
    Q = _softmax_rows(tS.T).T
    G = (batch.temperature / (2 * n)) * (P + Q - 2 * np.eye(n))

    dX = G @ Y
    dY = G.T @ X
    d_source = (dX - (dX * X).sum(axis=1, keepdims=True) * X) / x_norms[:, np.newaxis]
    d_pseudo = (dY - (dY * Y).sum(axis=1, keepdims=True) * Y) / y_norms[:, np.newaxis]
    d_temperature = float(
        ((P * S).sum() + (Q * S).sum() - 2 * np.trace(S)) / (2 * n)
    )
    return Gradients(d_source=d_source, d_pseudo=d_pseudo, d_temperature=d_temperature)


def finite_difference_check(batch: PairedBatch, step: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    Every coordinate of both embedding matrices and the temperature is
    perturbed by +-step. Relative error divides by the larger magnitude,
    floored at 1e-6 so near-zero pairs do not explode the ratio. A NaN
    error (from an infinite loss, say) makes the result NaN.
    """
    if not (np.isfinite(step) and step > 0):
        raise ValidationError(f"step must be finite and > 0, got {step}")
    analytic = loss_grad(batch)
    worst = 0.0

    def _rel(a: float, n: float) -> float:
        return abs(a - n) / max(abs(a), abs(n), 1e-6)

    for M, dM in ((batch.source, analytic.d_source), (batch.pseudo, analytic.d_pseudo)):
        it = np.nditer(M, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = M[idx]
            M[idx] = saved + step
            up = loss(batch)
            M[idx] = saved - step
            down = loss(batch)
            M[idx] = saved
            # np.maximum keeps a NaN, where max() would drop it.
            worst = np.maximum(worst, _rel(float(dM[idx]), (up - down) / (2 * step)))

    t = batch.temperature
    batch.temperature = t + step
    up = loss(batch)
    batch.temperature = t - step
    down = loss(batch)
    batch.temperature = t
    worst = np.maximum(worst, _rel(analytic.d_temperature, (up - down) / (2 * step)))
    return float(worst)
