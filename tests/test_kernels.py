import math

import numpy as np
import pytest

from contentdense.errors import NumericError, ValidationError
from contentdense.features import SparseFeatureVector
from contentdense.kernels import (
    LOSS_HINGE,
    LOSS_LOGISTIC,
    _column_sums,
    build_csr,
    margins,
    objective_and_grad,
    pack_csr,
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
            value, _, _, _ = objective_and_grad(w, b, X, y, c, loss)
            expected = reference_objective(X, y, w, b, c, loss)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_central_differences(self, loss):
        rng = np.random.default_rng(6)
        h = 1e-5
        for X, y in problems(rng, 10):
            w = rng.normal(size=X.n_cols) * 0.5
            b = float(rng.normal()) * 0.5
            c = 1.3
            _, grad_w, grad_b, _ = objective_and_grad(w, b, X, y, c, loss)
            for j in range(X.n_cols):
                wp = w.copy(); wp[j] += h
                wm = w.copy(); wm[j] -= h
                fp, _, _, _ = objective_and_grad(wp, b, X, y, c, loss)
                fm, _, _, _ = objective_and_grad(wm, b, X, y, c, loss)
                assert grad_w[j] == pytest.approx((fp - fm) / (2 * h), abs=1e-5)
            fp, _, _, _ = objective_and_grad(w, b + h, X, y, c, loss)
            fm, _, _, _ = objective_and_grad(w, b - h, X, y, c, loss)
            assert grad_b == pytest.approx((fp - fm) / (2 * h), abs=1e-5)


def reference_hessian(X, y, w, b, c, loss):
    """Dense oracle of the objective's Hessian in (w, b): the identity on
    w, nothing on the bias, plus c [X 1]^T D [X 1] with D the loss's
    second derivative per row (for the squared hinge, 2 on rows with
    margin below 1)."""
    A = np.column_stack([dense_of(X), np.ones(X.n_rows)])
    z = A @ np.append(w, b)
    if loss == LOSS_LOGISTIC:
        p = 1.0 / (1.0 + np.exp(-z))
        D = p * (1.0 - p)
    else:
        D = np.where(y * z < 1.0, 2.0, 0.0)
    H = c * (A.T * D) @ A
    H[:-1, :-1] += np.eye(X.n_cols)
    return H


def criterion_4_problems(rng, count):
    """`count` problems drawn as acceptance criterion 4 draws them: 4 to 24
    rows, 3 to 8 columns, positive values, a random point and c."""
    for _ in range(count):
        n_rows = int(rng.integers(4, 25))
        n_cols = int(rng.integers(3, 9))
        rows, cols = [], []
        for i in range(n_rows):
            picked = rng.choice(n_cols, size=int(rng.integers(1, n_cols + 1)),
                                replace=False)
            rows += [i] * len(picked)
            cols += picked.tolist()
        X = pack_csr(np.array(rows), np.array(cols),
                     rng.uniform(0.05, 2.0, size=len(rows)), n_rows, n_cols)
        y = np.where(rng.random(n_rows) < 0.5, -1.0, 1.0)
        w = rng.normal(0.0, 0.8, size=n_cols)
        yield X, y, w, float(rng.normal()), float(rng.uniform(0.1, 4.0))


@pytest.mark.parametrize("loss", [LOSS_LOGISTIC, LOSS_HINGE])
class TestHessianProduct:
    def test_matches_dense_oracle(self, loss):
        rng = np.random.default_rng(43)
        for X, y, w, b, c in criterion_4_problems(rng, 20):
            v = rng.normal(size=X.n_cols + 1)
            product = objective_and_grad(w, b, X, y, c, loss)[3](v)
            expected = reference_hessian(X, y, w, b, c, loss) @ v
            np.testing.assert_allclose(product, expected, rtol=1e-12,
                                       atol=1e-12)

    def test_matches_central_differences_of_the_gradient(self, loss):
        """(grad(x + h v) - grad(x - h v)) / 2h at h=1e-5. The squared
        hinge's second derivative jumps at margin 1, so it is checked only
        where every margin stays clear of 1 over the difference."""
        rng = np.random.default_rng(41)
        h = 1e-5
        checked = 0
        for X, y, w, b, c in criterion_4_problems(rng, 20):
            v = rng.normal(size=X.n_cols + 1)
            if loss == LOSS_HINGE:
                m = y * margins(X, w, b)
                reach = h * np.abs(margins(X, v[:-1], v[-1]))
                if np.any(np.abs(1.0 - m) <= 100 * reach):
                    continue
            _, gp_w, gp_b, _ = objective_and_grad(
                w + h * v[:-1], b + h * v[-1], X, y, c, loss)
            _, gm_w, gm_b, _ = objective_and_grad(
                w - h * v[:-1], b - h * v[-1], X, y, c, loss)
            numeric = (np.append(gp_w, gp_b) - np.append(gm_w, gm_b)) / (2 * h)
            product = objective_and_grad(w, b, X, y, c, loss)[3](v)
            np.testing.assert_allclose(product, numeric, rtol=1e-5, atol=1e-5)
            checked += 1
        assert checked >= 15


def test_zero_weights_balanced_logistic_loss_is_ln2():
    rng = np.random.default_rng(9)
    X, _ = random_problem(rng, n=12)
    y = np.array([1.0, -1.0] * 6)
    value, _, _, _ = objective_and_grad(np.zeros(X.n_cols), 0.0, X, y, 1.0,
                                        LOSS_LOGISTIC)
    assert value / len(y) == pytest.approx(math.log(2), abs=1e-12)


def test_squared_hinge_zero_beyond_unit_margin():
    vec = SparseFeatureVector("MI", {0: 1.0})
    X = build_csr([vec], 1)
    y = np.ones(1)
    w = np.array([5.0])
    value, grad_w, grad_b, _ = objective_and_grad(w, 0.0, X, y, 1.0,
                                                  LOSS_HINGE)
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


def ragged_matrix(rng, lengths, n_cols):
    """CSR with the given row lengths, sorted distinct columns per row
    (so columns recur across rows), and mixed-sign values spanning six
    decades, so that another summation order would change low bits."""
    rows = np.repeat(np.arange(len(lengths)), lengths)
    cols = np.concatenate([np.sort(rng.choice(n_cols, size=k, replace=False))
                           for k in lengths]).astype(np.int64)
    vals = rng.normal(size=len(rows)) * 10.0 ** rng.uniform(-3, 3, len(rows))
    return pack_csr(rows, cols, vals, len(lengths), n_cols)


def ragged_matrices(rng):
    """Empty rows (first, inner, last), one-entry rows and long rows."""
    yield ragged_matrix(rng, [0, 1, 300, 0, 1, 5, 2, 250, 1, 17, 0], 400)
    yield ragged_matrix(rng, [1, 1, 1, 1], 3)
    yield ragged_matrix(rng, [0, 0], 5)
    yield ragged_matrix(rng, list(rng.integers(0, 60, size=40)), 64)


class TestSummationOrder:
    """Margins and gradients are bitwise the plain sequential sums."""

    def test_margins_are_left_to_right_row_sums(self):
        rng = np.random.default_rng(21)
        for X in ragged_matrices(rng):
            w = rng.normal(size=X.n_cols) * 10.0 ** rng.uniform(-2, 2, X.n_cols)
            b = float(rng.normal())
            expected = []
            for r in range(X.n_rows):
                acc = 0.0
                for k in range(X.indptr[r], X.indptr[r + 1]):
                    acc += float(X.data[k]) * float(w[X.indices[k]])
                expected.append(acc + b)
            assert margins(X, w, b).tolist() == expected

    @pytest.mark.parametrize("loss", [LOSS_LOGISTIC, LOSS_HINGE])
    def test_gradient_is_column_sums_in_row_order(self, loss):
        rng = np.random.default_rng(22)
        for X in ragged_matrices(rng):
            w = rng.normal(size=X.n_cols) * 1e-3
            b = float(rng.normal())
            y = np.where(rng.random(X.n_rows) < 0.5, 1.0, -1.0)
            c = 1.7
            z = margins(X, w, b)
            if loss == LOSS_LOGISTIC:
                gz = -y * 0.5 * (1.0 - np.tanh(0.5 * (y * z)))
            else:
                gz = -2.0 * y * np.maximum(0.0, 1.0 - y * z)
            acc = [0.0] * X.n_cols
            for r in range(X.n_rows):
                for k in range(X.indptr[r], X.indptr[r + 1]):
                    acc[X.indices[k]] += float(X.data[k]) * float(gz[r])
            expected = [float(wj) + c * a for wj, a in zip(w, acc)]
            _, grad_w, _, _ = objective_and_grad(w, b, X, y, c, loss)
            assert grad_w.tolist() == expected


def bincount_margins(X, w, b):
    """Reference: each row's products added into its bin one after
    another, in CSR order, from 0.0."""
    return np.bincount(X.rows, weights=X.data * w[X.indices],
                       minlength=X.n_rows) + b


def bincount_column_sums(X, r):
    """Reference: each stored value's product added into its column's bin,
    rows in increasing order, from 0.0."""
    return np.bincount(X.indices, weights=X.data * r[X.rows],
                       minlength=X.n_cols)


def spread(rng, n):
    """Mixed-sign values from 1e-3 to 1e3 in magnitude."""
    return rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-3, 3, n)


def test_compiled_kernels_equal_the_bincount_reference_byte_for_byte():
    """A compiled kernel whose compiler fused ``a*b + s`` into one
    multiply-add would round differently; this catches such a build."""
    rng = np.random.default_rng(24)
    for _ in range(25):
        for X in ragged_matrices(rng):
            w = spread(rng, X.n_cols)
            r = spread(rng, X.n_rows)
            b = float(rng.normal())
            assert (margins(X, w, b).tobytes()
                    == bincount_margins(X, w, b).tobytes())
            assert (_column_sums(X, r).tobytes()
                    == bincount_column_sums(X, r).tobytes())


class TestVectorChecks:
    """The compiled kernels check no bounds, so a vector of the wrong
    length or type is refused before the call."""

    def test_short_weights_rejected(self):
        X = ragged_matrix(np.random.default_rng(25), [2, 0, 3], 6)
        with pytest.raises(ValidationError, match=r"shape \(6,\)"):
            margins(X, np.ones(5), 0.0)

    def test_short_row_values_rejected(self):
        X = ragged_matrix(np.random.default_rng(26), [2, 0, 3], 6)
        with pytest.raises(ValidationError, match=r"shape \(3,\)"):
            _column_sums(X, np.ones(2))

    def test_non_float64_weights_rejected(self):
        X = ragged_matrix(np.random.default_rng(27), [2, 0, 3], 6)
        with pytest.raises(ValidationError, match="float64"):
            margins(X, np.ones(6, dtype=np.float32), 0.0)
