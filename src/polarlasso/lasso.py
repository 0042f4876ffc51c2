"""The l1-penalized mode, two ways: a polar sweep over directions with
negative offset, and an accelerated proximal-gradient (FISTA) baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import ProblemInstance, chunk_buffers, map_chunks

METHOD_POLAR = "polar"
METHOD_FISTA = "fista"

# FISTA's default iteration budget and residual tolerance
FISTA_MAX_ITER = 20000
FISTA_TOL = 1e-10


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


def solve_fista(prob: ProblemInstance, max_iter: int = FISTA_MAX_ITER, tol: float = FISTA_TOL) -> LassoSolution:
    """Accelerated proximal gradient with step 1/||A||^2 and unit l1 weight.

    Stops when the proximal-gradient residual ||x - prox(x - step grad)|| drops
    below tol; a `converged` flag records whether that happened within budget.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
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

    The sweep is consumed in the chunks of map_chunks; ties in beta^2
    keep the first candidate in stream order.  beta = (||v||_1 - v . (A^T y))
    / ||A v|| and the l it gives do not depend on the scale of v, so each
    chunk is scored on its standard normal rows v as drawn, not normalised.
    A row of v with ||v||_1 = 0 is all zero, and is redrawn as
    sample_sphere_batch redraws its rows of norm 0, so the directions are
    those of sample_sphere_batch for the same generator.  The numerator is
    formed first: the rows where it is <= 0 are exactly those with
    beta <= 0, and only a chunk that has one forms A v, on all its rows,
    since BLAS rounds a row differently in a batch of another size; the
    norms of A v are taken on those rows alone.
    """
    p = prob.p
    A_T_y = prob.A.T @ prob.y
    ones = np.ones(p)  # |v| @ ones sums the rows faster than .sum(axis=1)
    buffers = chunk_buffers(n_samples, p, p)

    def score(gen, count):
        """(rows with beta <= 0, the first (beta, l) of largest beta^2 among
        them or None) of one chunk."""
        v, abs_v = buffers(count)
        gen.standard_normal(out=v)
        while True:
            l1 = np.abs(v, out=abs_v) @ ones
            bad = l1 == 0.0
            if not np.any(bad):
                break
            v[bad] = gen.standard_normal((int(bad.sum()), p))
        num = l1 - v @ A_T_y
        neg = np.flatnonzero(num <= 0.0)
        if not neg.size:
            return 0, None
        norm_A = np.linalg.norm((v @ prob.A.T)[neg], axis=1)
        betas = num[neg] / norm_A
        i = np.argmax(betas**2)  # the first of equal squares
        beta = float(betas[i])
        return neg.size, (beta, -(beta / norm_A[i]) * v[neg[i]])

    best_beta, x = None, np.zeros(p)
    neg_count = 0
    for n_neg, best in map_chunks(score, rng, n_samples):
        neg_count += n_neg
        if best is not None and (best_beta is None or best[0] * best[0] > best_beta * best_beta):
            best_beta, x = best
    meta = {"best_beta": best_beta, "n_samples": n_samples, "n_negative": neg_count}
    return LassoSolution(x, objective(prob, x), METHOD_POLAR, meta)
