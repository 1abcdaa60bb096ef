"""Objective, gradient and Hessian-vector kernels over CSR feature matrices.

Training a linear model means evaluating

    f(w, b) = 0.5 * w.w  +  c * sum_i loss(y_i * (x_i.w + b))

its gradient and its Hessian's products with vectors many times per fit,
across grid search, cross-validation folds, and learning-curve points.
These evaluations are the package's hot path. They are vectorized numpy:
the margin is a gather of ``w`` at the stored column indices followed by
an ``np.bincount`` sum per row, and the weight gradient is an
``np.bincount`` scatter back onto the columns; a Hessian-vector product
is one of each. Both are bitwise deterministic run to run.

``np.bincount`` adds its weights into their bins one after another, in the
order given. In CSR order a row's terms go into the same bin back to back,
so each add waits for the one before it. The margin sum therefore walks
the stored values interleaved (``CsrMatrix.interleaved``): every row's
k-th value comes before any row's (k+1)-th, so consecutive adds go to
different bins. Within a row the values keep their CSR order, so each
row's sum is the same sequence of float64 adds from 0.0 as a left-to-right
loop over the row, and gives the same bits. The gradient's column sums
stay in CSR order, so that each column's sum runs over its rows in
increasing row order.

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
from .optimize import _dot

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
    def row_lengths(self) -> np.ndarray:
        """Stored values per row."""
        return np.diff(self.indptr)

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index per stored value, for the per-row gather and scatter."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         self.row_lengths)

    @cached_property
    def interleaved(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, indices, data) of the stored values, every row's k-th
        value before any row's (k+1)-th and each row's values in CSR
        order: a stable sort by position within the row. Positions are
        cast to the smallest unsigned type that holds them, because
        numpy's stable sort of 8- and 16-bit integers is a radix sort."""
        position = (np.arange(len(self.data))
                    - np.repeat(self.indptr[:-1], self.row_lengths))
        small = np.min_scalar_type(self.row_lengths.max(initial=0))
        order = np.argsort(position.astype(small), kind="stable")
        return self.rows[order], self.indices[order], self.data[order]


def pack_csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
             n_rows: int, n_cols: int) -> CsrMatrix:
    """Pack (row, column, value) entries, at most one per cell, into CSR
    sorted by row and then column, whatever order they come in. Raises
    ValidationError for a column outside [0, n_cols), NumericError for a
    non-finite value."""
    outside = (cols < 0) | (cols >= n_cols)
    if outside.any():
        raise ValidationError(
            f"row {rows[outside].min()}: feature index outside [0, {n_cols})")
    if not np.isfinite(vals).all():
        raise NumericError(
            f"row {rows[~np.isfinite(vals)].min()}: non-finite feature value")
    # One int64 key per cell sorts as (row, column) does; it cannot
    # overflow for a matrix whose rows and columns each fit in 2**31.
    order = np.argsort(rows.astype(np.int64) * n_cols + cols, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
    return CsrMatrix(data=vals[order], indices=cols[order], indptr=indptr,
                     n_rows=n_rows, n_cols=n_cols)


def csr_take(X: CsrMatrix, rows: np.ndarray) -> CsrMatrix:
    """Row-subset of a CSR matrix."""
    counts = X.row_lengths[rows]
    indptr = np.concatenate([[0], np.cumsum(counts)])
    take = (np.repeat(X.indptr[rows] - indptr[:-1], counts)
            + np.arange(indptr[-1]))
    return CsrMatrix(data=X.data[take], indices=X.indices[take],
                     indptr=indptr, n_rows=len(rows), n_cols=X.n_cols)


def build_csr(vectors: Sequence, dim: int) -> CsrMatrix:
    """Pack sparse feature vectors (``entries``: index -> value) into CSR
    rows, in vector order, with ``pack_csr``."""
    rows = np.repeat(np.arange(len(vectors)), [len(v.entries) for v in vectors])
    cols = np.array([i for v in vectors for i in v.entries], dtype=np.int64)
    vals = np.array([x for v in vectors for x in v.entries.values()],
                    dtype=np.float64)
    return pack_csr(rows, cols, vals, len(vectors), dim)


def margins(X: CsrMatrix, w: np.ndarray, b: float) -> np.ndarray:
    """Decision values x_i.w + b for every row, each row summed left to
    right from 0.0 (over the interleaved order; see the module notes)."""
    rows, indices, data = X.interleaved
    return np.bincount(rows, weights=data * w[indices], minlength=X.n_rows) + b


def _column_sums(X: CsrMatrix, r: np.ndarray) -> np.ndarray:
    """X^T r: each column's sum over its rows, in increasing row order."""
    return np.bincount(X.indices, weights=X.data * np.repeat(r, X.row_lengths),
                       minlength=X.n_cols)


def objective_and_grad(w: np.ndarray, b: float, X: CsrMatrix, y: np.ndarray,
                       c: float, loss: str):
    """Objective value and (grad_w, grad_b) at (w, b). ``w . w`` is
    ``optimize._dot``, summed in one fixed order, not by BLAS."""
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
    grad_w = w + c * _column_sums(X, gz)
    value = 0.5 * _dot(w, w) + c * loss_sum
    if not math.isfinite(value):
        raise NumericError("objective evaluated to a non-finite value")
    return value, grad_w, c * float(gz.sum())


def hessian_product(w: np.ndarray, b: float, X: CsrMatrix, y: np.ndarray,
                    c: float, loss: str):
    """The objective's Hessian at (w, b), as the function v -> H v of v =
    (v_w, v_b) stacked into n_cols + 1 values, as H v comes back.

    With D the loss's second derivative per row, H = diag(1, ..., 1, 0) +
    c [X 1]^T D [X 1]: the bias is not regularized. D is
    sigmoid(m)(1 - sigmoid(m)) for the logistic loss. The squared hinge's
    second derivative jumps at the kink; D is 2 on the rows with
    y(x.w + b) < 1 and 0 elsewhere (the generalized Hessian). Each product
    is one ``margins`` pass and one column sum.
    """
    if loss not in LOSSES:
        raise ValidationError(f"unknown loss {loss!r}")
    z = margins(X, w, b)
    if loss == LOSS_LOGISTIC:
        t = np.tanh(0.5 * z)
        cd = c * 0.25 * (1.0 - t * t)
    else:
        cd = np.where(y * z < 1.0, 2.0 * c, 0.0)

    def product(v: np.ndarray) -> np.ndarray:
        u = cd * margins(X, v[:-1], v[-1])
        return np.append(v[:-1] + _column_sums(X, u), u.sum())

    return product
