"""The l1-penalized mode, two ways: a polar sweep over directions with
negative offset, and an accelerated proximal-gradient (FISTA) baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import ProblemInstance, direction_batch, sample_sphere_batch, sweep_chunks

METHOD_POLAR = "polar"
METHOD_FISTA = "fista"


@dataclass(frozen=True)
class LassoSolution:
    x: np.ndarray
    objective: float
    method: str
    meta: dict = field(default_factory=dict)


def objective(prob: ProblemInstance, x: np.ndarray) -> float:
    """||Ax - y||^2/2 + ||x||_1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (prob.p,):
        raise ValueError(f"x must have length {prob.p}")
    resid = prob.A @ x - prob.y
    return 0.5 * float(resid @ resid) + float(np.abs(x).sum())


def _soft(v: np.ndarray, thr: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def solve_fista(prob: ProblemInstance, max_iter: int = 20000, tol: float = 1e-10) -> LassoSolution:
    """Accelerated proximal gradient with step 1/||A||^2 and unit l1 weight.

    Stops when the proximal-gradient residual ||x - prox(x - step grad)|| drops
    below tol; a `converged` flag records whether that happened within budget.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    p = prob.p
    if prob.op_norm == 0.0:
        return LassoSolution(np.zeros(p), objective(prob, np.zeros(p)), METHOD_FISTA,
                             {"iterations": 0, "converged": True, "step": math.inf})
    step = 1.0 / prob.op_norm**2
    x = np.zeros(p)
    z = x.copy()
    t = 1.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        grad = prob.A.T @ (prob.A @ z - prob.y)
        x_new = _soft(z - step * grad, step)
        t_new = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        grad_x = prob.A.T @ (prob.A @ x - prob.y)
        resid = float(np.linalg.norm(x - _soft(x - step * grad_x, step)))
        if resid <= tol:
            converged = True
            break
    return LassoSolution(
        x, objective(prob, x), METHOD_FISTA,
        {"iterations": iterations, "converged": converged, "step": step},
    )


def solve_polar(prob: ProblemInstance, n_samples: int, rng) -> LassoSolution:
    """Polar search for the mode: sweep uniform directions, keep those with
    offset beta <= 0, and return l = -(beta/||A theta||) theta for the beta of
    largest square.  If no direction has beta <= 0 the mode is the origin.

    The sweep is consumed in the chunks of sweep_chunks; ties in beta^2
    keep the first candidate in stream order.
    """
    p = prob.p
    best_beta = None
    best_theta = None
    best_norm_A = None
    neg_count = 0
    for gen, count in sweep_chunks(rng, n_samples):
        thetas = sample_sphere_batch(gen, count, p)
        st = direction_batch(prob.A, prob.y, thetas)
        betas = st.beta  # inf on null rows
        neg = np.flatnonzero(betas <= 0.0)
        neg_count += neg.size
        if neg.size:
            i = neg[np.argmax(betas[neg] ** 2)]  # the first of equal squares
            b = float(betas[i])
            if best_beta is None or b * b > best_beta * best_beta:
                best_beta = b
                best_theta = thetas[i]
                best_norm_A = float(st.norm_A[i])
    if best_beta is None:
        x = np.zeros(p)
        return LassoSolution(x, objective(prob, x), METHOD_POLAR,
                             {"best_beta": None, "n_samples": n_samples, "n_negative": 0})
    x = -(best_beta / best_norm_A) * best_theta
    return LassoSolution(x, objective(prob, x), METHOD_POLAR,
                         {"best_beta": best_beta, "n_samples": n_samples, "n_negative": neg_count})
