import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contentdense
from contentdense.cli import main
from contentdense.errors import NumericError, ValidationError
from contentdense.optimize import (
    MinimizeResult,
    _dot,
    _sigmoid,
    _softplus,
    fit_platt_sigmoid,
    minimize_tron,
)


def quadratic(center, scales):
    center = np.asarray(center, dtype=float)
    scales = np.asarray(scales, dtype=float)

    def fun(x):
        d = x - center
        return 0.5 * float(scales @ (d * d)), scales * d, lambda v: scales * v

    return fun


class TestMinimizeLbfgs:
    """The solver ``learn`` binds as ``minimize_lbfgs``: TRON."""

    def test_reaches_quadratic_minimum(self):
        scales = [1.0, 4.0, 0.25]
        fun = quadratic([1.0, -2.0, 3.0], scales)
        res = minimize_tron(fun, np.zeros(3), tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, -2.0, 3.0], atol=1e-8)
        assert np.max(np.abs(res.grad)) <= 1e-10

    def test_ill_conditioned_quadratic(self):
        rng = np.random.default_rng(2)
        scales = 10.0 ** rng.uniform(-3, 3, size=12)
        center = rng.normal(size=12)
        res = minimize_tron(quadratic(center, scales), np.zeros(12),
                            max_iters=500, tol=1e-8)
        assert res.converged
        np.testing.assert_allclose(res.x, center, atol=1e-4)

    def test_objective_never_increases(self):
        trace = []
        base = quadratic([2.0, 2.0], [1.0, 30.0])

        def fun(x):
            f, g, hv = base(x)
            trace.append(f)
            return f, g, hv

        minimize_tron(fun, np.array([-5.0, 5.0]), tol=1e-9)
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

    def test_rejected_step_keeps_the_accepted_hessian(self):
        """Each point's ``hv`` records where it was made. The first two
        trial points give an infinite objective, so their steps are
        rejected; every other point of this quadratic, whose model is
        exact, is accepted. Every conjugate-gradient product uses the
        ``hv`` of the iterate accepted last."""
        base = quadratic([1.0, -2.0, 3.0], [1.0, 4.0, 0.25])
        events = []  # ("eval", x, rejected) and ("product", made at, None)

        def fun(x):
            f, g, hv = base(x)
            rejected = sum(e[0] == "eval" for e in events) in (1, 2)
            events.append(("eval", x.copy(), rejected))
            made_at = x.copy()

            def product(v):
                events.append(("product", made_at, None))
                return hv(v)

            return (math.inf if rejected else f), g, product

        res = minimize_tron(fun, np.zeros(3), tol=1e-10)
        accepted, after_rejection, rejections = None, 0, 0
        for kind, x, rejected in events:
            if kind == "eval":
                rejections += rejected
                if not rejected:
                    accepted = x
            else:
                np.testing.assert_array_equal(x, accepted)
                after_rejection += rejections > 0
        assert rejections == 2 and after_rejection > 0
        assert res.converged
        np.testing.assert_array_equal(accepted, res.x)

    def test_deterministic(self):
        scales = [3.0, 1.0, 9.0, 0.5]
        fun = quadratic([0.3, -0.7, 0.1, 2.0], scales)
        res1 = minimize_tron(fun, np.ones(4), tol=1e-10)
        res2 = minimize_tron(fun, np.ones(4), tol=1e-10)
        assert np.array_equal(res1.x, res2.x)
        assert res1.value == res2.value

    def test_no_product_goes_through_blas(self, monkeypatch):
        """OpenBLAS picks its ddot kernel for the CPU, and the kernels add
        in different orders, so the solver and the Platt fit take no
        product through BLAS: here np.dot and its kin raise, and so do
        ``dot`` and ``@`` of every array the objective hands the solver and
        of all made from them."""

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
            return (0.5 * float(np.add.reduce(scales * d * d)), scales * d,
                    lambda v: scales * v)

        for name in ("dot", "vdot", "inner", "matmul"):
            monkeypatch.setattr(np, name, no_blas)
        res = minimize_tron(fun, np.zeros(12), max_iters=500, tol=1e-8)
        assert isinstance(res.grad, NoBlas)
        assert res.converged

        margins = rng.normal(scale=2.0, size=300)
        y = np.where(margins + rng.normal(size=300) > 0, 1.0, -1.0)
        a, b = fit_platt_sigmoid(margins, y)
        assert a > 0 and math.isfinite(b)

    def test_result_type(self):
        res = minimize_tron(quadratic([0.0], [1.0]), np.zeros(1))
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


def oracle_fit_platt_sigmoid(margins, y, max_iters=100, tol=1e-10):
    """The damped-Newton fit the package used before it fitted Platt's
    sigmoid with ``minimize_tron``: a 2x2 Newton solve with ridge terms
    and a backtracking line search, to a gradient of 1e-10. The reference
    for the objective and the probabilities of the TRON fit."""
    m = np.asarray(margins, dtype=np.float64)
    yy = np.asarray(y, dtype=np.float64)
    if m.shape != yy.shape or m.ndim != 1 or len(m) == 0:
        raise ValidationError("margins and outcomes must be equal-length 1-D")
    n_pos = int((yy > 0).sum())
    n_neg = len(yy) - n_pos
    t_pos = (n_pos + 1.0) / (n_pos + 2.0)
    t_neg = 1.0 / (n_neg + 2.0)
    t = np.where(yy > 0, t_pos, t_neg)

    if float(m.max() - m.min()) < 1e-12:
        mean_t = float(t.mean())
        return 0.0, math.log(mean_t / (1.0 - mean_t))

    def value(a, b):
        u = a * m + b
        return float((t * _softplus(-u) + (1.0 - t) * _softplus(u)).sum())

    a, b = 0.0, math.log((n_pos + 1.0) / (n_neg + 1.0))
    f = value(a, b)
    for _ in range(max_iters):
        u = a * m + b
        p = 1.0 / (1.0 + np.exp(-np.clip(u, -500, 500)))
        r = p - t
        grad_a = _dot(r, m)
        grad_b = float(r.sum())
        if max(abs(grad_a), abs(grad_b)) <= tol:
            break
        h = p * (1.0 - p)
        haa = _dot(h, m * m) + 1e-12
        hab = _dot(h, m)
        hbb = float(h.sum()) + 1e-12
        det = haa * hbb - hab * hab
        if det <= 0.0:
            raise NumericError("singular Hessian in sigmoid calibration")
        da = -(hbb * grad_a - hab * grad_b) / det
        db = -(haa * grad_b - hab * grad_a) / det
        step = 1.0
        while step >= 1e-10:
            a_new, b_new = a + step * da, b + step * db
            f_new = value(a_new, b_new)
            if f_new < f + 1e-12:
                a, b, f = a_new, b_new, f_new
                break
            step *= 0.5
        else:
            break
    return a, b


def platt_objective(a, b, margins, y):
    """The smoothed cross-entropy both Platt fits minimize."""
    n_pos = int((y > 0).sum())
    t = np.where(y > 0, (n_pos + 1.0) / (n_pos + 2.0),
                 1.0 / (len(y) - n_pos + 2.0))
    u = a * margins + b
    return float((t * _softplus(-u) + (1.0 - t) * _softplus(u)).sum())


@st.composite
def platt_problems(draw):
    """Margins of any count from 2 to 600 at scales 0.1 to 10, some far
    off zero or rounded into ties, with outcomes from 0 (no signal) to
    near-separable, and classes from balanced to all one class."""
    n = draw(st.integers(2, 600))
    scale = draw(st.floats(0.1, 10.0))
    offset = draw(st.sampled_from([0.0, 0.0, -8.0, 3.0, 10.0]))
    slope = draw(st.floats(0.0, 30.0))
    log_odds = draw(st.floats(-6.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    margins = scale * rng.normal(size=n) + offset
    if draw(st.booleans()):
        margins = np.round(margins)
    # A standard logistic draw below the log-odds is a positive with
    # probability sigmoid(log-odds).
    logit = slope * (margins - offset) / scale + log_odds
    return margins, np.where(rng.logistic(size=n) < logit, 1.0, -1.0)


class TestPlattFitMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(platt_problems())
    # Two margins close together far from 0 make the Hessian in (a, b)
    # nearly singular: fitted to TOL on the raw margins, the objective
    # ends 3.8e-8 (relative) above the oracle's.
    @example((np.array([2.997, 3.021]), np.array([-1.0, 1.0])))
    def test_objective_and_probabilities(self, problem):
        margins, y = problem
        a, b = fit_platt_sigmoid(margins, y)
        a0, b0 = oracle_fit_platt_sigmoid(margins, y)
        f = platt_objective(a, b, margins, y)
        f0 = platt_objective(a0, b0, margins, y)
        assert abs(f - f0) <= 1e-8 * max(1.0, abs(f0))
        for m in margins.tolist():
            assert abs(_sigmoid(a * m + b) - _sigmoid(a0 * m + b0)) <= 1e-4


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
