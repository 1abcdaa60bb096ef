import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import contentdense
from contentdense.cli import main
from contentdense.optimize import (
    MinimizeResult,
    fit_platt_sigmoid,
    minimize_tron,
)


def quadratic(center, scales):
    center = np.asarray(center, dtype=float)
    scales = np.asarray(scales, dtype=float)

    def fun(x):
        d = x - center
        return 0.5 * float(scales @ (d * d)), scales * d

    return fun


def diagonal_hessian(scales):
    """``hess`` of a quadratic() with these scales: v -> scales * v."""
    scales = np.asarray(scales, dtype=float)
    return lambda x: lambda v: scales * v


class TestMinimizeLbfgs:
    """The solver ``learn`` binds as ``minimize_lbfgs``: TRON."""

    def test_reaches_quadratic_minimum(self):
        scales = [1.0, 4.0, 0.25]
        fun = quadratic([1.0, -2.0, 3.0], scales)
        res = minimize_tron(fun, diagonal_hessian(scales), np.zeros(3),
                            tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, -2.0, 3.0], atol=1e-8)
        assert np.max(np.abs(res.grad)) <= 1e-10

    def test_ill_conditioned_quadratic(self):
        rng = np.random.default_rng(2)
        scales = 10.0 ** rng.uniform(-3, 3, size=12)
        center = rng.normal(size=12)
        res = minimize_tron(quadratic(center, scales),
                            diagonal_hessian(scales), np.zeros(12),
                            max_iters=500, tol=1e-8)
        assert res.converged
        np.testing.assert_allclose(res.x, center, atol=1e-4)

    def test_objective_never_increases(self):
        trace = []
        base = quadratic([2.0, 2.0], [1.0, 30.0])

        def fun(x):
            f, g = base(x)
            trace.append(f)
            return f, g

        minimize_tron(fun, diagonal_hessian([1.0, 30.0]),
                      np.array([-5.0, 5.0]), tol=1e-9)
        # The trace includes rejected trial steps; accepted iterates are
        # the running minima and must be non-increasing.
        best = math.inf
        accepted = []
        for f in trace:
            if f <= best:
                accepted.append(f)
                best = f
        for earlier, later in zip(accepted, accepted[1:]):
            assert later <= earlier + 1e-12

    def test_deterministic(self):
        scales = [3.0, 1.0, 9.0, 0.5]
        fun = quadratic([0.3, -0.7, 0.1, 2.0], scales)
        res1 = minimize_tron(fun, diagonal_hessian(scales), np.ones(4),
                             tol=1e-10)
        res2 = minimize_tron(fun, diagonal_hessian(scales), np.ones(4),
                             tol=1e-10)
        assert np.array_equal(res1.x, res2.x)
        assert res1.value == res2.value

    def test_no_product_goes_through_blas(self, monkeypatch):
        """OpenBLAS picks its ddot kernel for the CPU, and the kernels add
        in different orders, so the solver takes no product through BLAS:
        here np.dot and its kin raise, and so do ``dot`` and ``@`` of every
        array the objective hands the solver and of all made from them."""

        class NoBlas(np.ndarray):
            def dot(self, *args, **kwargs):
                raise AssertionError("ndarray.dot called")

            def __matmul__(self, other):
                raise AssertionError("@ called")

            __rmatmul__ = __matmul__

        def no_blas(*args, **kwargs):
            raise AssertionError("a BLAS product was called")

        rng = np.random.default_rng(2)
        scales = 10.0 ** rng.uniform(-3, 3, size=12)
        center = rng.normal(size=12)

        def fun(x):
            d = (x - center).view(NoBlas)
            return 0.5 * float(np.add.reduce(scales * d * d)), scales * d

        for name in ("dot", "vdot", "inner", "matmul"):
            monkeypatch.setattr(np, name, no_blas)
        res = minimize_tron(fun, diagonal_hessian(scales), np.zeros(12),
                            max_iters=500, tol=1e-8)
        assert isinstance(res.grad, NoBlas)
        assert res.converged

    def test_result_type(self):
        res = minimize_tron(quadratic([0.0], [1.0]), diagonal_hessian([1.0]),
                            np.zeros(1))
        assert isinstance(res, MinimizeResult)


class TestFitPlattSigmoid:
    def test_recovers_generating_sigmoid(self):
        rng = np.random.default_rng(4)
        m = rng.normal(scale=2.0, size=4000)
        true_a, true_b = 1.7, -0.4
        p = 1.0 / (1.0 + np.exp(-(true_a * m + true_b)))
        y = np.where(rng.random(4000) < p, 1.0, -1.0)
        a, b = fit_platt_sigmoid(m, y)
        assert a == pytest.approx(true_a, abs=0.15)
        assert b == pytest.approx(true_b, abs=0.15)

    def test_constant_margins_closed_form(self):
        m = np.zeros(10)
        y = np.array([1.0] * 7 + [-1.0] * 3)
        a, b = fit_platt_sigmoid(m, y)
        assert a == 0.0
        t_pos, t_neg = 8.0 / 9.0, 1.0 / 5.0
        mean_t = (7 * t_pos + 3 * t_neg) / 10
        assert b == pytest.approx(math.log(mean_t / (1 - mean_t)))

    def test_separable_margins_stay_finite(self):
        m = np.array([-3.0, -2.0, -1.5, 1.5, 2.0, 3.0])
        y = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        a, b = fit_platt_sigmoid(m, y)
        assert math.isfinite(a) and math.isfinite(b)
        assert a > 0

    def test_probability_monotone_in_margin(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=500)
        y = np.where(m + rng.normal(scale=0.5, size=500) > 0, 1.0, -1.0)
        a, b = fit_platt_sigmoid(m, y)
        grid = np.linspace(-3, 3, 50)
        p = 1.0 / (1.0 + np.exp(-(a * grid + b)))
        assert np.all(np.diff(p) > 0)


def test_model_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    """OpenBLAS picks its kernels for the CPU it runs on, and they add in
    different orders. Two processes told to use two different x86 kernels
    (both run on any CPU with AVX2; elsewhere the variable is ignored)
    write the same decision-fusion model: the solver, the objective and
    the Platt fit take their inner products outside BLAS."""
    assert main(["generate", "--n", "120", "--seed", "3",
                 "--out", str(tmp_path / "gen")]) == 0
    package_root = str(Path(contentdense.__file__).resolve().parent.parent)
    models = []
    for coretype in ("Prescott", "Haswell"):
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        out = tmp_path / coretype
        proc = subprocess.run(
            [sys.executable, "-m", "contentdense", "train",
             "--corpus", str(tmp_path / "gen" / "corpus.jsonl"),
             "--lexicon", str(tmp_path / "gen" / "lexicon.txt"),
             "--c-grid", "0.5,8", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        models.append((out / "model.json").read_bytes())
    assert models[0] == models[1]
