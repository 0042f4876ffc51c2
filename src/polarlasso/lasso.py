"""The l1-penalized mode, two ways: a polar sweep over directions with
negative offset, and an accelerated proximal-gradient (FISTA) baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import ProblemInstance, direction_batch, gaussian_rows, map_chunks

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
    keep the first candidate in stream order.  Before the clip on s,
    beta = (||theta||_1 - A theta . y)/||A theta||, whose sign does not depend
    on the scale of theta, so each chunk's raw Gaussian rows v are screened
    first: only the rows with ||v||_1 - v . (A^T y) <= margin are normalised
    and scored (meta["n_scored"] counts them).

    The margin covers rounding.  The scored beta and the screen statistic
    are each formed from at most p + n + 8 rounded sums and products, whose
    terms sum in magnitude to at most ||v||_1 + |v| . (|A|^T |y|)
    <= (1 + c) ||v||_1 with c = max_j (|A|^T |y|)_j, so each lies within
    (p + n + 8) eps (1 + c) ||v||_1 of the exact ||v||_1 - v . (A^T y), to
    first order in eps.  A row whose scored beta is <= 0 therefore passes a
    screen with twice that margin; the margin is four times that again.  It
    sets only how many rows are scored: a row that fails it would have
    scored beta > 0, so neither the winner nor n_negative depends on it.
    """
    p = prob.p
    A_T_y = prob.A.T @ prob.y
    c = float(np.max(np.abs(prob.A).T @ np.abs(prob.y)))
    margin = 8.0 * (p + prob.n + 8) * np.finfo(float).eps * (1.0 + c)
    ones = np.ones(p)  # |v| @ ones sums the rows faster than .sum(axis=1)

    def score(gen, count):
        """(rows scored, rows with beta <= 0, the first (beta, theta, ||A theta||)
        of largest beta^2 among them or None) of one chunk."""
        v, norms = gaussian_rows(gen, count, p)
        l1 = np.abs(v) @ ones
        rows = np.flatnonzero(l1 - v @ A_T_y <= margin * l1)
        if not rows.size:
            return 0, 0, None
        thetas = v / norms[:, None]
        st = direction_batch(prob.A, prob.y, thetas, rows)
        betas = st.beta  # inf on null rows
        neg = np.flatnonzero(betas <= 0.0)
        if not neg.size:
            return rows.size, 0, None
        i = neg[np.argmax(betas[neg] ** 2)]  # the first of equal squares
        return rows.size, neg.size, (float(betas[i]), thetas[rows[i]], float(st.norm_A[i]))

    best_beta = None
    best_theta = None
    best_norm_A = None
    neg_count = scored = 0
    for n_rows, n_neg, best in map_chunks(score, rng, n_samples):
        scored += n_rows
        neg_count += n_neg
        if best is not None and (best_beta is None or best[0] * best[0] > best_beta * best_beta):
            best_beta, best_theta, best_norm_A = best
    meta = {"best_beta": best_beta, "n_samples": n_samples, "n_negative": neg_count, "n_scored": scored}
    if best_beta is None:
        x = np.zeros(p)
    else:
        x = -(best_beta / best_norm_A) * best_theta
    return LassoSolution(x, objective(prob, x), METHOD_POLAR, meta)
