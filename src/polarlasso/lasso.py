"""The l1-penalized mode, two ways: a polar sweep over directions with
negative offset, and an accelerated proximal-gradient (FISTA) baseline;
each reports the duality gap that bounds its objective error."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import ProblemInstance, _check_count, _check_point, _check_positive, chunk_buffers, map_chunks

METHOD_POLAR = "polar"
METHOD_FISTA = "fista"

# FISTA's default iteration budget and residual tolerance
FISTA_MAX_ITER = 20000
FISTA_TOL = 1e-10
# iterates whose stopping rule is decided at once: the check of a block
# costs about 20 numpy calls, against 12 for that of one iterate, and up to
# _FISTA_BLOCK - 1 updates (about 7.5 us each at 10 x 20) run past the
# iterate that stops.  On eight Bernoulli instances from 4 x 7 to 20 x 50,
# stopping after 10 to 446 iterates, 20 was fastest: a geometric mean 2.6%
# below 16 and 12, and 2.8% and 5.8% below 24 and 32 (shared 2-vCPU x86
# host, interleaved medians)
_FISTA_BLOCK = 20


@dataclass(frozen=True)
class LassoSolution:
    x: np.ndarray
    objective: float
    method: str
    meta: dict = field(default_factory=dict)


def objective(prob: ProblemInstance, x: np.ndarray) -> float:
    """||Ax - y||^2/2 + ||x||_1."""
    x = _check_point("x", x, prob.p)
    resid = prob.A @ x - prob.y
    return 0.5 * float(resid @ resid) + float(np.abs(x).sum())


def duality_gap(prob: ProblemInstance, x: np.ndarray) -> float:
    """A bound G >= objective(x) - objective(mode) from the dual point
    u = r / max(1, ||A^T r||_inf), r = y - Ax:
    G = ||r||^2/2 + ||x||_1 - ||y||^2/2 + ||y - u||^2/2."""
    x = _check_point("x", x, prob.p)
    r = prob.y - prob.A @ x
    u = r / max(1.0, float(np.abs(prob.A.T @ r).max()))
    d = prob.y - u
    return 0.5 * float(r @ r) + float(np.abs(x).sum()) - 0.5 * float(prob.y @ prob.y) + 0.5 * float(d @ d)


def _soft(v: np.ndarray, thr: float, out: np.ndarray | None = None) -> np.ndarray:
    return np.multiply(np.sign(v), np.maximum(np.abs(v) - thr, 0.0), out=out)


def _prox_residual(prob: ProblemInstance, x: np.ndarray, step: float) -> float:
    """||x - prox(x - step grad)||, the stopping rule as one iterate forms it."""
    grad = prob.A.T @ (prob.A @ x - prob.y)
    return float(np.linalg.norm(x - _soft(x - step * grad, step)))


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff: the relative error
    bound of k rounded operations in sequence."""
    ku = k * np.finfo(float).eps / 2
    return ku / (1.0 - ku)


def _stopping_rule(prob: ProblemInstance, step: float, tol: float):
    """first_stop(X): the first row of X whose _prox_residual is <= tol, or None.

    The residuals of all rows come from two block products, which round
    otherwise than _prox_residual.  To first order, each entry of
    x - prox(x - step grad) is within gamma_{n+p+5} (|x| + step |A|^T (|A||x|
    + |y|)) of its exact value in either, the norm of that bound is at most
    ||x|| (1 + step ||A||_F^2) + step ||A||_F ||y||, and each norm of a
    residual adds a relative error below gamma_{p+1}.  `band` is twice the
    sum, with ||X||_F, which is at least every ||x||, in place of ||x||.  A
    row whose block residual is within `band` of tol is decided by
    _prox_residual itself, and any other row by its block value.
    """
    A, y = prob.A, prob.y
    norm_A = float(np.linalg.norm(A))
    g = 2.0 * _gamma(prob.n + prob.p + 5)
    slope, offset = g * (1.0 + step * norm_A * norm_A), g * step * norm_A * prob.y_norm
    rel = 2.0 * _gamma(prob.p + 1)

    def first_stop(X: np.ndarray) -> int | None:
        R = X @ A.T
        R -= y
        D = X - _soft(X - step * (R @ A), step)
        norms = np.sqrt(np.einsum("ij,ij->i", D, D))
        band = rel * norms + (slope * float(np.linalg.norm(X)) + offset)
        for k in np.flatnonzero(norms - band <= tol):
            if norms[k] + band[k] < tol or _prox_residual(prob, X[k].copy(), step) <= tol:
                return int(k)
        return None

    return first_stop


def solve_fista(prob: ProblemInstance, max_iter: int = FISTA_MAX_ITER, tol: float = FISTA_TOL) -> LassoSolution:
    """Accelerated proximal gradient with step 1/||A||^2 and unit l1 weight.

    Stops at the first iterate whose proximal-gradient residual
    ||x - prox(x - step grad)|| is <= tol; a `converged` flag records whether
    that happened within budget, and `gap` bounds the objective error of the
    x returned.  The residuals are formed for blocks of _FISTA_BLOCK iterates
    at once (the iterates do not depend on them), and one within rounding of
    tol is formed again as a single iterate forms it, so the x returned is
    the one a per-iterate check stops at.  Where the step is not finite
    (A = 0, or ||A|| below about 7.5e-155) x = 0 is returned at once.
    """
    _check_count("max_iter", max_iter)
    _check_positive("tol", tol)
    p = prob.p
    sq = prob.op_norm**2
    step = 1.0 / sq if sq > 0.0 else math.inf
    if step == math.inf:  # ||y||^2 is finite, so ||A^T y||_inf <= ||A|| ||y|| < 1: the mode is 0
        return LassoSolution(np.zeros(p), objective(prob, np.zeros(p)), METHOD_FISTA,
                             {"iterations": 0, "converged": True, "step": step,
                              "gap": duality_gap(prob, np.zeros(p))})
    A, A_T, y = prob.A, prob.A.T, prob.y
    first_stop = _stopping_rule(prob, step, tol)
    X = np.empty((_FISTA_BLOCK, p))
    x = np.zeros(p)
    z = x.copy()
    t = 1.0
    for start in range(0, max_iter, _FISTA_BLOCK):
        block = X[:min(_FISTA_BLOCK, max_iter - start)]
        for x_new in block:  # x is the row before, or the last row of the block before
            grad = A_T @ (A @ z - y)
            _soft(z - step * grad, step, out=x_new)
            t_new = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            z = x_new + ((t - 1.0) / t_new) * (x_new - x)
            x, t = x_new, t_new
        stop = first_stop(block)
        if stop is not None:
            x, iterations, converged = block[stop].copy(), start + stop + 1, True
            break
    else:
        x, iterations, converged = x.copy(), max_iter, False
    return LassoSolution(
        x, objective(prob, x), METHOD_FISTA,
        {"iterations": iterations, "converged": converged, "step": step, "gap": duality_gap(prob, x)},
    )


def solve_polar(prob: ProblemInstance, n_samples: int, rng) -> LassoSolution:
    """Polar search for the mode: sweep uniform directions, keep those with
    offset beta <= 0, and return l = -(beta/||A theta||) theta for the beta of
    largest square.  If no direction has beta <= 0 the mode is the origin.

    The sweep is consumed in the chunks of map_chunks; ties in beta^2
    keep the first candidate in stream order.  beta = (||v||_1 - v . (A^T y))
    / ||A v|| and the l it gives do not depend on the scale of v, so each
    chunk is scored on its standard normal rows v as drawn, not normalised.
    Only the active coordinates, |(A^T y)_j| > 1, can make the numerator
    negative, so a chunk draws them first, as one block, and forms their
    part of it; it draws the other coordinates, as a second block, only
    for the rows where that part is <= 0.  Each of those terms,
    |v_j| - v_j (A^T y)_j, is >= 0 in floating point and is summed as it
    is, so a row dropped after the first block has a numerator > 0 however
    it would have been completed: the screen is exact, with no margin.  The
    rows stay i.i.d. standard normal.  A row of all zeros is redrawn whole,
    as sample_sphere_batch redraws its rows of norm 0.  A v and its norms
    are formed on the rows with beta <= 0 alone, by einsum, which rounds a
    row alike in a batch of any size (BLAS does not).
    """
    p = prob.p
    A_T_y = prob.A.T @ prob.y
    active = np.abs(A_T_y) > 1.0
    cols_a, cols_r = np.flatnonzero(active), np.flatnonzero(~active)
    k = cols_a.size
    g_a, g_r = A_T_y[cols_a], A_T_y[cols_r]
    ones_a, ones_r = np.ones(k), np.ones(p - k)  # faster row sums than .sum(axis=1)
    buffers = chunk_buffers(n_samples, k, k, p - k, p - k)

    def head(v, scratch=None):
        return np.abs(v, out=scratch) @ ones_a - v @ g_a

    def tail(v, scratch=None):
        terms = np.abs(v, out=scratch)
        terms -= v * g_r  # >= 0 term by term, since |g_r| <= 1
        return terms @ ones_r

    def score(gen, count):
        """(rows with beta <= 0, the first (beta, l) of largest beta^2 among
        them or None) of one chunk."""
        va, abs_a, vr, abs_r = buffers(count)
        gen.standard_normal(out=va)
        partial = head(va, abs_a)
        keep = np.flatnonzero(partial <= 0.0)
        vr, abs_r = vr[:keep.size], abs_r[:keep.size]
        gen.standard_normal(out=vr)
        num = partial[keep] + tail(vr, abs_r)
        while True:  # a row of all zeros has num = 0
            zero = np.flatnonzero(num == 0.0)
            zero = zero[~(va[keep[zero]].any(axis=1) | vr[zero].any(axis=1))]
            if not zero.size:
                break
            w = gen.standard_normal((zero.size, p))
            va[keep[zero]], vr[zero] = w[:, :k], w[:, k:]
            num[zero] = head(w[:, :k]) + tail(w[:, k:])
        neg = np.flatnonzero(num <= 0.0)
        if not neg.size:
            return 0, None
        v = np.empty((neg.size, p))
        v[:, cols_a], v[:, cols_r] = va[keep[neg]], vr[neg]
        norm_A = np.linalg.norm(np.einsum("ij,kj->ik", v, prob.A), axis=1)
        betas = num[neg] / norm_A
        i = np.argmax(betas**2)  # the first of equal squares
        beta = float(betas[i])
        return neg.size, (beta, -(beta / norm_A[i]) * v[i])

    best_beta, x = None, np.zeros(p)
    neg_count = 0
    for n_neg, best in map_chunks(score, rng, n_samples):
        neg_count += n_neg
        if best is not None and (best_beta is None or best[0] * best[0] > best_beta * best_beta):
            best_beta, x = best
    meta = {"best_beta": best_beta, "n_samples": n_samples, "n_negative": neg_count,
            "gap": duality_gap(prob, x)}
    return LassoSolution(x, objective(prob, x), METHOD_POLAR, meta)
