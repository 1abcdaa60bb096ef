import math

import numpy as np
import pytest

from contentdense.errors import NumericError, ValidationError
from contentdense.features import SparseFeatureVector
from contentdense.kernels import (
    LOSS_HINGE,
    LOSS_LOGISTIC,
    build_csr,
    margins,
    objective_and_grad,
)


def random_problem(rng, n=10, d=8, density=0.5, empty_row=None):
    vectors = []
    for i in range(n):
        if i == empty_row:
            vectors.append(SparseFeatureVector("MI", {}))
            continue
        entries = {int(j): float(rng.normal())
                   for j in rng.choice(d, size=max(1, int(d * density)),
                                       replace=False)}
        vectors.append(SparseFeatureVector("MI", entries))
    X = build_csr(vectors, d)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    return X, y


def problems(rng, count, n=10, d=8):
    """`count` random problems, then one with an empty row in the middle and
    one with an empty row at the end (an MI lead with no selected word)."""
    for _ in range(count):
        yield random_problem(rng, n=n, d=d)
    yield random_problem(rng, n=n, d=d, empty_row=n // 2)
    yield random_problem(rng, n=n, d=d, empty_row=n - 1)


def dense_of(X):
    out = np.zeros((X.n_rows, X.n_cols))
    for i in range(X.n_rows):
        for k in range(X.indptr[i], X.indptr[i + 1]):
            out[i, X.indices[k]] += X.data[k]
    return out


def reference_objective(X, y, w, b, c, loss):
    """Dense-matrix oracle computed with plain formulas."""
    z = dense_of(X) @ w + b
    m = y * z
    if loss == LOSS_LOGISTIC:
        per = np.log1p(np.exp(-np.abs(m))) + np.maximum(-m, 0.0)
    else:
        per = np.maximum(0.0, 1.0 - m) ** 2
    return 0.5 * float(w @ w) + c * float(per.sum())


class TestBuildCsr:
    def test_insertion_order_irrelevant(self):
        a = SparseFeatureVector("MI", {3: 1.0, 0: 2.0})
        b = SparseFeatureVector("MI", {0: 2.0, 3: 1.0})
        Xa = build_csr([a], 5)
        Xb = build_csr([b], 5)
        assert np.array_equal(Xa.indices, Xb.indices)
        assert np.array_equal(Xa.data, Xb.data)

    def test_out_of_range_index(self):
        with pytest.raises(ValidationError):
            build_csr([SparseFeatureVector("MI", {5: 1.0})], 5)

    def test_empty_dataset(self):
        X = build_csr([], 4)
        assert X.n_rows == 0 and X.n_cols == 4
        assert margins(X, np.zeros(4), 0.0).shape == (0,)


@pytest.mark.parametrize("loss", [LOSS_LOGISTIC, LOSS_HINGE])
class TestObjective:
    def test_matches_dense_oracle(self, loss):
        rng = np.random.default_rng(5)
        for X, y in problems(rng, 20):
            w = rng.normal(size=X.n_cols)
            b = float(rng.normal())
            c = float(rng.uniform(0.1, 4.0))
            value, _, _ = objective_and_grad(w, b, X, y, c, loss)
            expected = reference_objective(X, y, w, b, c, loss)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_central_differences(self, loss):
        rng = np.random.default_rng(6)
        h = 1e-5
        for X, y in problems(rng, 10):
            w = rng.normal(size=X.n_cols) * 0.5
            b = float(rng.normal()) * 0.5
            c = 1.3
            _, grad_w, grad_b = objective_and_grad(w, b, X, y, c, loss)
            for j in range(X.n_cols):
                wp = w.copy(); wp[j] += h
                wm = w.copy(); wm[j] -= h
                fp, _, _ = objective_and_grad(wp, b, X, y, c, loss)
                fm, _, _ = objective_and_grad(wm, b, X, y, c, loss)
                assert grad_w[j] == pytest.approx((fp - fm) / (2 * h), abs=1e-5)
            fp, _, _ = objective_and_grad(w, b + h, X, y, c, loss)
            fm, _, _ = objective_and_grad(w, b - h, X, y, c, loss)
            assert grad_b == pytest.approx((fp - fm) / (2 * h), abs=1e-5)


def test_zero_weights_balanced_logistic_loss_is_ln2():
    rng = np.random.default_rng(9)
    X, _ = random_problem(rng, n=12)
    y = np.array([1.0, -1.0] * 6)
    value, _, _ = objective_and_grad(np.zeros(X.n_cols), 0.0, X, y, 1.0,
                                     LOSS_LOGISTIC)
    assert value / len(y) == pytest.approx(math.log(2), abs=1e-12)


def test_squared_hinge_zero_beyond_unit_margin():
    vec = SparseFeatureVector("MI", {0: 1.0})
    X = build_csr([vec], 1)
    y = np.ones(1)
    w = np.array([5.0])
    value, grad_w, grad_b = objective_and_grad(w, 0.0, X, y, 1.0, LOSS_HINGE)
    assert value == pytest.approx(0.5 * 25.0)
    assert grad_w[0] == pytest.approx(5.0)
    assert grad_b == 0.0


def test_margins_match_dense():
    rng = np.random.default_rng(14)
    for X, _ in problems(rng, 1, n=15, d=6):
        w = rng.normal(size=6)
        b = 0.3
        z = margins(X, w, b)
        np.testing.assert_allclose(z, dense_of(X) @ w + b, rtol=1e-12)
        empty = np.diff(X.indptr) == 0
        assert np.all(z[empty] == b)


def test_non_finite_feature_rejected():
    class RawVector:
        entries = {0: 1.0, 1: float("nan")}

    with pytest.raises(NumericError):
        build_csr([RawVector()], 3)
