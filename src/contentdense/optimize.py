"""Deterministic convex minimization and sigmoid calibration fitting.

The trainer needs a minimizer that (a) reaches a small gradient norm on
smooth convex objectives in few iterations and (b) is bit-for-bit
reproducible: no randomness, no data-dependent thread scheduling.
``minimize_tron`` is the trust-region Newton method of LIBLINEAR (Lin,
Weng & Keerthi, JMLR 2008; Fan et al., JMLR 2008): each iteration solves
the Newton system inside a trust region by Steihaug's conjugate gradient,
which needs only Hessian-vector products, and grows or shrinks the region
by how well the quadratic model predicted the decrease. Every run from
the same start point takes the same steps.

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError

# LIBLINEAR's trust-region constants: a step is taken when the actual
# decrease is above ETA[0] of the predicted one, and ETA[1] and ETA[2]
# split the rest into shrink, keep and grow; SIGMA bound the new radius.
ETA = (1e-4, 0.25, 0.75)
SIGMA = (0.25, 0.5, 4.0)
CG_TOL = 0.1  # CG stops once the residual is this share of the gradient
# A region has collapsed when the actual and predicted decreases are both
# within this share of f: float64 resolves no smaller step. A collapsed
# fit has converged when its gradient fell by STALL_DECREASE.
STALL_RESOLUTION = 1e-12
STALL_DECREASE = 1e-6


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.add.reduce(a * b))


def _norm(v: np.ndarray) -> float:
    return math.sqrt(_dot(v, v))


@dataclass
class MinimizeResult:
    x: np.ndarray
    value: float
    grad: np.ndarray
    iterations: int
    converged: bool


def _steihaug_cg(hv: Callable[[np.ndarray], np.ndarray], g: np.ndarray,
                 radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Approximate minimizer s of g.s + s.Hs/2 within ||s|| <= radius, and
    the residual r = -g - Hs. Conjugate gradient from s = 0 stops when the
    residual is CG_TOL of ||g||, or at the boundary when a step leaves the
    region or meets a direction of no positive curvature."""
    s = np.zeros_like(g)
    r = -g
    d = r.copy()
    rr = _dot(r, r)
    tol = CG_TOL * math.sqrt(rr)
    for _ in range(len(g)):
        if math.sqrt(rr) <= tol:
            break
        hd = hv(d)
        dhd = _dot(d, hd)
        if dhd > 0.0:
            alpha = rr / dhd
            s_next = s + alpha * d
            if _norm(s_next) <= radius:
                s = s_next
                r = r - alpha * hd
                rr, rr_old = _dot(r, r), rr
                d = r + (rr / rr_old) * d
                continue
        # To the boundary: the root alpha >= 0 of ||s + alpha d|| = radius.
        sd, ss, dd = _dot(s, d), _dot(s, s), _dot(d, d)
        room = max(radius * radius - ss, 0.0)
        root = math.sqrt(sd * sd + dd * room)
        alpha = room / (sd + root) if sd >= 0.0 else (root - sd) / dd
        return s + alpha * d, r - alpha * hd
    return s, r


def minimize_tron(fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
                  hess: Callable[[np.ndarray],
                                 Callable[[np.ndarray], np.ndarray]],
                  x0: np.ndarray,
                  max_iters: int = 200,
                  tol: float = 1e-6) -> MinimizeResult:
    """Minimize a smooth convex function given by ``fun(x) -> (value,
    gradient)``, with ``hess(x)`` the function v -> (Hessian at x) v.

    Runs trust-region Newton-CG until the gradient infinity norm drops to
    ``tol``, the trust region collapses (see STALL_RESOLUTION) or
    ``max_iters`` iterations pass; a collapsed run has converged when its
    gradient 2-norm fell to STALL_DECREASE of the starting one. The
    objective value never increases from one accepted iterate to the
    next. ``iterations`` counts every trust-region step, taken or not.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun(x)
    if not (math.isfinite(f) and np.all(np.isfinite(g))):
        raise NumericError("objective is non-finite at the start point")
    gnorm0 = radius = _norm(g)
    hv = hess(x)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        if np.abs(g).max() <= tol:
            return MinimizeResult(x, f, g, iterations - 1, True)
        s, r = _steihaug_cg(hv, g, radius)
        gs = _dot(g, s)
        predicted = -0.5 * (gs - _dot(s, r))
        x_new = x + s
        f_new, g_new = fun(x_new)
        actual = f - f_new if math.isfinite(f_new) else -math.inf
        snorm = _norm(s)
        if iterations == 1:
            radius = min(radius, snorm)
        curv = f_new - f - gs
        alpha = max(SIGMA[0], -0.5 * gs / curv) if curv > 0.0 else SIGMA[2]
        if actual < ETA[0] * predicted:
            radius = min(max(alpha, SIGMA[0]) * snorm, SIGMA[1] * radius)
        elif actual < ETA[1] * predicted:
            radius = max(SIGMA[0] * radius, min(alpha * snorm,
                                                SIGMA[1] * radius))
        elif actual < ETA[2] * predicted:
            radius = max(SIGMA[0] * radius, min(alpha * snorm,
                                                SIGMA[2] * radius))
        else:
            radius = max(radius, min(alpha * snorm, SIGMA[2] * radius))
        if actual > ETA[0] * predicted:
            x, f, g = x_new, f_new, g_new
            hv = hess(x)
        if (abs(actual) <= STALL_RESOLUTION * abs(f)
                and abs(predicted) <= STALL_RESOLUTION * abs(f)):
            converged = (np.abs(g).max() <= tol
                         or _norm(g) <= STALL_DECREASE * gnorm0)
            return MinimizeResult(x, f, g, iterations, bool(converged))
    return MinimizeResult(x, f, g, iterations, bool(np.abs(g).max() <= tol))


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
