"""Objective, gradient and Hessian-vector kernels over CSR feature matrices.

Training a linear model means evaluating

    f(w, b) = 0.5 * w.w  +  c * sum_i loss(y_i * (x_i.w + b))

its gradient and its Hessian's products with vectors many times per fit,
across grid search, cross-validation folds, and learning-curve points.
These evaluations are the package's hot path. One call makes one margin
pass and gives the value, the gradient and the Hessian at its point. The
two sparse products run in scipy's compiled ``_sparsetools`` extension,
loaded from its file, so that neither ``scipy`` nor ``scipy.sparse`` is
imported:

* the margins ``X w`` are ``csr_matvec``, which sums each row left to
  right from 0.0, in CSR order;
* the column sums ``X^T r`` are ``csc_matvec`` over the same arrays read
  as the CSC form of ``X^T``, so its shape is given swapped, as
  (n_cols, n_rows). It adds each row's terms into their columns, rows in
  increasing order, so each column is summed over its rows in increasing
  row order from 0.0.

Both orders are fixed, so the results are bitwise deterministic run to
run.

Supported losses (``y`` in {-1, +1}, margin ``m = y * (x.w + b)``):

* ``logistic``: log(1 + exp(-m)), evaluated in overflow-safe form.
* ``hinge``: the squared hinge max(0, 1 - m)^2, the differentiable
  surrogate used wherever a hinge-loss model is called for; its gradient
  is continuous, which the finite-difference checks rely on.
"""

from __future__ import annotations

import importlib.util
import math
import os
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .optimize import _dot

LOSS_LOGISTIC = "logistic"
LOSS_HINGE = "hinge"
LOSSES = (LOSS_LOGISTIC, LOSS_HINGE)


def _load_sparsetools():
    """scipy's ``sparse/_sparsetools`` extension, loaded from its file.
    ``find_spec`` locates the scipy package without running its
    ``__init__``, and the module is registered under this package's name,
    so no ``scipy`` module is imported. Raises ImportError naming the paths
    it looked for when the file is missing."""
    spec = importlib.util.find_spec("scipy")
    bases = (spec.submodule_search_locations if spec else None) or ()
    paths = [os.path.join(base, "sparse", "_sparsetools" + suffix)
             for base in bases for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        looked = ", ".join(paths) or "scipy/sparse/_sparsetools"
        raise ImportError("scipy's compiled sparse kernels are missing: "
                          f"looked for {looked}")
    name = f"{__package__}._sparsetools"
    loader = ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()


def backend() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "scipy-sparsetools"


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
        """Row index per stored value."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         self.row_lengths)


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


def _check_vector(v: np.ndarray, n: int, what: str) -> None:
    """The extension reads ``v`` unchecked: refuse anything but n float64s."""
    if not (isinstance(v, np.ndarray) and v.dtype == np.float64
            and v.shape == (n,)):
        raise ValidationError(
            f"{what} must be a float64 vector of shape ({n},), got "
            f"{getattr(v, 'dtype', type(v).__name__)} {np.shape(v)}")


def margins(X: CsrMatrix, w: np.ndarray, b: float) -> np.ndarray:
    """Decision values x_i.w + b for every row, each row summed left to
    right from 0.0."""
    _check_vector(w, X.n_cols, "weights")
    z = np.zeros(X.n_rows)
    _sparsetools.csr_matvec(X.n_rows, X.n_cols, X.indptr, X.indices, X.data,
                            w, z)
    return z + b


def _column_sums(X: CsrMatrix, r: np.ndarray) -> np.ndarray:
    """X^T r: each column's sum over its rows, in increasing row order.
    The CSR arrays are the CSC form of X^T, hence the swapped shape."""
    _check_vector(r, X.n_rows, "row values")
    out = np.zeros(X.n_cols)
    _sparsetools.csc_matvec(X.n_cols, X.n_rows, X.indptr, X.indices, X.data,
                            r, out)
    return out


def objective_and_grad(w: np.ndarray, b: float, X: CsrMatrix, y: np.ndarray,
                       c: float, loss: str):
    """Objective value, (grad_w, grad_b) and the Hessian at (w, b), from one
    ``margins`` pass. ``w . w`` is ``optimize._dot``, summed in one fixed
    order, not by BLAS.

    The Hessian is the function v -> H v of v = (v_w, v_b) stacked into
    n_cols + 1 values, as H v comes back. With D the loss's second
    derivative per row, H = diag(1, ..., 1, 0) + c [X 1]^T D [X 1]: the
    bias is not regularized. D is sigmoid(m)(1 - sigmoid(m)) for the
    logistic loss. The squared hinge's second derivative jumps at the
    kink; D is 2 on the rows with y(x.w + b) < 1 and 0 elsewhere (the
    generalized Hessian). Each product is one ``margins`` pass and one
    column sum.
    """
    if loss not in LOSSES:
        raise ValidationError(f"unknown loss {loss!r}")
    z = margins(X, w, b)
    if loss == LOSS_LOGISTIC:
        m = y * z
        loss_sum = float(np.logaddexp(0.0, -m).sum())
        gz = -y * 0.5 * (1.0 - np.tanh(0.5 * m))
        # From z, not m: reusing tanh(0.5 * m) would need np.tanh odd to
        # the last bit.
        t = np.tanh(0.5 * z)
        cd = c * 0.25 * (1.0 - t * t)
    else:
        slack = np.maximum(0.0, 1.0 - y * z)
        loss_sum = float((slack * slack).sum())
        gz = -2.0 * y * slack
        cd = np.where(y * z < 1.0, 2.0 * c, 0.0)
    grad_w = w + c * _column_sums(X, gz)
    value = 0.5 * _dot(w, w) + c * loss_sum
    if not math.isfinite(value):
        raise NumericError("objective evaluated to a non-finite value")

    def hessian(v: np.ndarray) -> np.ndarray:
        u = cd * margins(X, v[:-1], v[-1])
        return np.append(v[:-1] + _column_sums(X, u), u.sum())

    return value, grad_w, c * float(gz.sum()), hessian
