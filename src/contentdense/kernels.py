"""Objective/gradient kernels over CSR feature matrices.

Training a linear model means evaluating

    f(w, b) = 0.5 * w.w  +  c * sum_i loss(y_i * (x_i.w + b))

and its gradient many times per fit, across grid search, cross-validation
folds, and learning-curve points. These evaluations are the package's hot
path. They are vectorized numpy: the margin is a gather of ``w`` at the
stored column indices followed by an ``np.bincount`` sum per row, and the
weight gradient is an ``np.bincount`` scatter back onto the columns. Both
are bitwise deterministic run to run.

Supported losses (``y`` in {-1, +1}, margin ``m = y * (x.w + b)``):

* ``logistic``: log(1 + exp(-m)), evaluated in overflow-safe form.
* ``hinge``: the squared hinge max(0, 1 - m)^2, the differentiable
  surrogate used wherever a hinge-loss model is called for; its gradient
  is continuous, which the finite-difference checks rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError

LOSS_LOGISTIC = "logistic"
LOSS_HINGE = "hinge"
LOSSES = (LOSS_LOGISTIC, LOSS_HINGE)


def backend() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "numpy"


@dataclass
class CsrMatrix:
    """Minimal CSR container for a fixed-dimension sparse dataset."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    n_rows: int
    n_cols: int

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index per stored value, for the per-row gather and scatter."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         np.diff(self.indptr))


def build_csr(vectors: Sequence, dim: int) -> CsrMatrix:
    """Pack sparse feature vectors into CSR arrays.

    Entries are sorted by column index within each row, so the packed form
    is independent of dict insertion order. Raises ValidationError when an
    index falls outside [0, dim) and NumericError on non-finite values.
    """
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    chunks_idx: list[np.ndarray] = []
    chunks_val: list[np.ndarray] = []
    for r, vec in enumerate(vectors):
        items = sorted(vec.entries.items())
        idx = np.fromiter((i for i, _ in items), dtype=np.int64, count=len(items))
        val = np.fromiter((v for _, v in items), dtype=np.float64, count=len(items))
        if len(idx) and (idx[0] < 0 or idx[-1] >= dim):
            raise ValidationError(
                f"row {r}: feature index outside [0, {dim})"
            )
        if len(val) and not np.all(np.isfinite(val)):
            raise NumericError(f"row {r}: non-finite feature value")
        chunks_idx.append(idx)
        chunks_val.append(val)
        indptr[r + 1] = indptr[r] + len(idx)
    indices = np.concatenate(chunks_idx) if chunks_idx else np.zeros(0, np.int64)
    data = np.concatenate(chunks_val) if chunks_val else np.zeros(0, np.float64)
    return CsrMatrix(data=data, indices=indices, indptr=indptr,
                     n_rows=len(vectors), n_cols=dim)


def margins(X: CsrMatrix, w: np.ndarray, b: float) -> np.ndarray:
    """Decision values x_i.w + b for every row."""
    contrib = X.data * w[X.indices]
    return np.bincount(X.rows, weights=contrib, minlength=X.n_rows) + b


def objective_and_grad(w: np.ndarray, b: float, X: CsrMatrix, y: np.ndarray,
                       c: float, loss: str):
    """Objective value and (grad_w, grad_b) at (w, b)."""
    if loss not in LOSSES:
        raise ValidationError(f"unknown loss {loss!r}")
    z = margins(X, w, b)
    if loss == LOSS_LOGISTIC:
        m = y * z
        loss_sum = float(np.logaddexp(0.0, -m).sum())
        gz = -y * 0.5 * (1.0 - np.tanh(0.5 * m))
    else:
        slack = np.maximum(0.0, 1.0 - y * z)
        loss_sum = float((slack * slack).sum())
        gz = -2.0 * y * slack
    grad_w = w + c * np.bincount(X.indices, weights=X.data * gz[X.rows],
                                 minlength=X.n_cols)
    value = 0.5 * float(w @ w) + c * loss_sum
    if not math.isfinite(value):
        raise NumericError("objective evaluated to a non-finite value")
    return value, grad_w, c * float(gz.sum())
