"""Deterministic convex minimization and sigmoid calibration fitting.

The trainer needs a minimizer that (a) reaches a small gradient norm on
smooth convex objectives quickly and (b) is bit-for-bit reproducible: no
randomness, no data-dependent thread scheduling. L-BFGS with the two-loop
recursion and Armijo backtracking satisfies both; every run from the same
start point takes the same steps.

The history is one ``deque`` of the newest ``HISTORY`` curvature pairs,
oldest first, each the tuple ``(s, y, rho, gamma)``: the step, the change
in gradient, rho = 1/s.y and gamma = s.y/y.y, all taken once, when the
pair is accepted (Liu & Nocedal, Math. Programming 1989). The two-loop
recursion uses each pair's rho and scales by the newest pair's gamma.

Inner products of 1-D arrays are ``_dot(a, b)``, which sums the products
with ``np.add.reduce`` in one fixed order. BLAS ddot (``a.dot(b)``,
``a @ b``) would not do: OpenBLAS picks its ddot kernel for the CPU it runs
on, the kernels add in different orders, and the last bits of every fit,
and so the model files, would then depend on the machine. A Euclidean norm
is ``math.sqrt(_dot(v, v))``.

``fit_platt_sigmoid`` fits the two-parameter calibration p = sigmoid(a*m + b)
mapping decision margins to probabilities, with the smoothed targets
(N+ + 1)/(N+ + 2) and 1/(N- + 2) in place of hard 0/1 labels, by a damped
Newton iteration on the cross-entropy objective.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError

HISTORY = 10  # correction pairs the two-loop recursion keeps
ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the line search
MAX_BACKTRACKS = 60  # step halvings before a line search gives up


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.add.reduce(a * b))


@dataclass
class MinimizeResult:
    x: np.ndarray
    value: float
    grad: np.ndarray
    iterations: int
    converged: bool


def minimize_lbfgs(fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
                   x0: np.ndarray,
                   max_iters: int = 200,
                   tol: float = 1e-6) -> MinimizeResult:
    """Minimize a smooth function given by ``fun(x) -> (value, gradient)``.

    Runs L-BFGS with Armijo backtracking until the gradient infinity norm
    drops to ``tol`` or ``max_iters`` iterations pass. The objective value
    never increases from one accepted iterate to the next.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun(x)
    if not (math.isfinite(f) and np.all(np.isfinite(g))):
        raise NumericError("objective is non-finite at the start point")

    pairs: deque[tuple[np.ndarray, np.ndarray, float, float]] = deque(
        maxlen=HISTORY)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        if np.abs(g).max() <= tol:
            return MinimizeResult(x, f, g, iterations - 1, True)
        q = g.copy()  # the two-loop recursion: d = -H g
        alphas = []
        for s, yv, rho, _ in reversed(pairs):
            a = rho * _dot(s, q)
            alphas.append(a)
            q -= a * yv
        if pairs:
            q *= pairs[-1][3]  # the newest pair's gamma
        for (s, yv, rho, _), a in zip(pairs, reversed(alphas)):
            q += (a - rho * _dot(yv, q)) * s
        d = -q
        gd = _dot(g, d)
        if gd >= 0.0:
            d = -g
            gd = _dot(g, d)
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            x_new = x + alpha * d
            f_new, g_new = fun(x_new)
            if math.isfinite(f_new) and f_new <= f + ARMIJO_C1 * alpha * gd:
                break
            alpha *= 0.5
        else:
            return MinimizeResult(x, f, g, iterations, False)
        s = x_new - x
        yv = g_new - g
        sy, yy = _dot(s, yv), _dot(yv, yv)
        if sy > 1e-12 * math.sqrt(_dot(s, s)) * math.sqrt(yy):
            pairs.append((s, yv, 1.0 / sy, sy / yy))
        x, f, g = x_new, f_new, g_new

    converged = bool(np.abs(g).max() <= tol)
    return MinimizeResult(x, f, g, iterations, converged)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def fit_platt_sigmoid(margins: np.ndarray, y: np.ndarray,
                      max_iters: int = 100, tol: float = 1e-10,
                      ) -> tuple[float, float]:
    """Fit (a, b) of p = sigmoid(a*margin + b) to binary outcomes.

    ``y`` holds +1/-1 outcomes. Targets are smoothed: positives aim at
    (N+ + 1)/(N+ + 2), negatives at 1/(N- + 2), which keeps the fit finite
    even on separable margins. When all margins are (numerically) equal
    there is nothing to scale, so the slope is 0 and the intercept is the
    log-odds of the mean target.
    """
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

    def value(a: float, b: float) -> float:
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
