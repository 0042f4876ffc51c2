"""Geometry of the posterior recentered at an l1-penalized mode l.

With f(x) = exp(h(x) - h(0)), h(x) = -||A(x+l) - y||^2/2 - ||x+l||_1, the map
f peaks at the origin, and along a ray r -> r theta the l1 term is piecewise
linear: ||r theta + l||_1 = l1_k r + c_k between consecutive breakpoints of
the order statistics |l_i|/|theta_i| over the sign class S_-.  Each segment
therefore contributes a Gaussian-tilted moment, and

    J_p(theta, l) = int_0^inf f(r theta) r^(p-1) dr
                  = sum_k e^(D_k) G_(p-1)(a_k, b_k, beta_k) / ||A theta||^p,

with D_k = ||l||_1 - c_k, a_k/b_k the scaled breakpoints, and
beta_k = l1_k/||A theta|| - b_l.  The moments G go through the log-domain
segment kernel, one array call for a whole batch of directions
(build_shift_batch), so the result is reliable for any placement of l.  Null
directions reduce to pure exponential segment moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._moments import (
    combine_log_pieces,
    exp_segment_moment_log,
    log_gaussian_moment,
    tilted_peak,
    tilted_peaks,
)
from .problem import NULL_TOL, ProblemInstance, sample_laplace
from .radial import log_concavity_bracket


@dataclass(frozen=True)
class ShiftSegment:
    """One linearity segment of r -> ||r theta + l||_1."""

    lo: float
    hi: float
    c: float  # intercept of the l1 norm on the segment
    l1: float  # slope of the l1 norm on the segment
    beta: float | None  # l1/||A theta|| - b_l; None when A theta = 0
    alpha: float | None  # (||Al - y||^2 - beta^2)/2 + c
    x: float | None  # ||A theta|| lo + beta
    y: float | None  # ||A theta|| hi + beta


@dataclass(frozen=True)
class ShiftContext:
    """Sign classes, breakpoints, and per-segment coefficients for one (l, theta)."""

    l: np.ndarray
    theta: np.ndarray
    A_theta: np.ndarray
    norm_A_theta: float
    y_l: np.ndarray  # y - A l
    s_l: float  # cosine of (A theta, y_l)
    b_l: float  # ||y_l|| s_l
    h0: float  # h(0) = -||y_l||^2/2 - ||l||_1
    S0: np.ndarray
    S_plus: np.ndarray
    S_minus: np.ndarray  # ordered by breakpoint
    breakpoints: np.ndarray  # [0, ratios..., +inf]
    segments: tuple[ShiftSegment, ...]
    k0: int  # max k with x_k < 0, or -1
    k1: int  # min k with y_k > 0, or |S_-| + 1
    I1: tuple[int, ...]  # segments with zero slope
    I2: tuple[int, ...]  # segments with positive slope

    @property
    def null_direction(self) -> bool:
        return self.norm_A_theta <= NULL_TOL


def build_shift_context(prob: ProblemInstance, l: np.ndarray, theta: np.ndarray) -> ShiftContext:
    """Segment decomposition of the recentered density along one direction."""
    l = np.asarray(l, dtype=float)
    theta = np.asarray(theta, dtype=float)
    norm = np.linalg.norm(theta)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    theta = theta / norm
    if l.shape != (prob.p,):
        raise ValueError(f"l must have length {prob.p}")

    A_theta = prob.A @ theta
    norm_A_theta = float(np.linalg.norm(A_theta))
    y_l = prob.y - prob.A @ l
    norm_y_l = float(np.linalg.norm(y_l))
    h0 = -0.5 * norm_y_l**2 - float(np.abs(l).sum())

    null_dir = norm_A_theta <= NULL_TOL
    if null_dir or norm_y_l == 0.0:
        s_l = 0.0
        b_l = 0.0
    else:
        s_l = float(A_theta @ y_l) / (norm_A_theta * norm_y_l)
        s_l = min(1.0, max(-1.0, s_l))
        b_l = norm_y_l * s_l

    S0 = np.flatnonzero(theta == 0.0)
    nz = theta != 0.0
    S_plus = np.flatnonzero(nz & (theta * l >= 0.0))
    S_minus = np.flatnonzero(nz & (theta * l < 0.0))
    ratios = np.abs(l[S_minus]) / np.abs(theta[S_minus])
    order = np.argsort(ratios, kind="stable")
    S_minus = S_minus[order]
    ratios = ratios[order]
    m = len(S_minus)
    breakpoints = np.concatenate([[0.0], ratios, [math.inf]])

    abs_l_minus = np.abs(l[S_minus])
    abs_t_minus = np.abs(theta[S_minus])
    base_c = float(np.abs(l[S0]).sum() + np.abs(l[S_plus]).sum())
    base_l1 = float(np.abs(theta[S_plus]).sum())
    cum_l = np.concatenate([[0.0], np.cumsum(abs_l_minus)])
    cum_t = np.concatenate([[0.0], np.cumsum(abs_t_minus)])
    sum_l = cum_l[-1]
    sum_t = cum_t[-1]
    misfit = norm_y_l**2

    segments = []
    for k in range(m + 1):
        c_k = base_c - cum_l[k] + (sum_l - cum_l[k])
        l1_k = base_l1 + cum_t[k] - (sum_t - cum_t[k])
        if null_dir:
            seg = ShiftSegment(float(breakpoints[k]), float(breakpoints[k + 1]),
                               c_k, l1_k, None, None, None, None)
        else:
            beta_k = l1_k / norm_A_theta - b_l
            alpha_k = 0.5 * (misfit - beta_k**2) + c_k
            x_k = norm_A_theta * breakpoints[k] + beta_k
            y_k = norm_A_theta * breakpoints[k + 1] + beta_k if k < m else math.inf
            seg = ShiftSegment(float(breakpoints[k]), float(breakpoints[k + 1]),
                               c_k, l1_k, beta_k, alpha_k, x_k, y_k)
        segments.append(seg)

    if null_dir:
        k0, k1 = -1, m + 1
    else:
        xs = [seg.x for seg in segments]
        ys = [seg.y for seg in segments]
        k0 = max((k for k in range(m + 1) if xs[k] < 0.0), default=-1)
        k1 = min((k for k in range(m + 1) if ys[k] > 0.0), default=m + 1)
    I1 = tuple(k for k, seg in enumerate(segments) if seg.l1 == 0.0)
    I2 = tuple(k for k, seg in enumerate(segments) if seg.l1 > 0.0)

    return ShiftContext(
        l=l, theta=theta, A_theta=A_theta, norm_A_theta=norm_A_theta,
        y_l=y_l, s_l=s_l, b_l=b_l, h0=h0,
        S0=S0, S_plus=S_plus, S_minus=S_minus, breakpoints=breakpoints,
        segments=tuple(segments), k0=k0, k1=k1, I1=I1, I2=I2,
    )


def l1_on_segment(ctx: ShiftContext, r: float) -> float:
    """||r theta + l||_1 via the piecewise-linear coefficients (exact on each segment)."""
    k = int(np.searchsorted(ctx.breakpoints, r, side="right")) - 1
    k = min(max(k, 0), len(ctx.segments) - 1)
    seg = ctx.segments[k]
    return seg.l1 * r + seg.c


def shifted_potential(ctx: ShiftContext, r: float, p: int) -> float:
    """phi(r, theta, l) = ||A(r theta + l) - y||^2/2 + ||r theta + l||_1 + h(0) - (p-1) ln r."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    resid = r * ctx.A_theta - ctx.y_l
    l1 = float(np.abs(r * ctx.theta + ctx.l).sum())
    return 0.5 * float(resid @ resid) + l1 + ctx.h0 - (p - 1) * math.log(r)


@dataclass(frozen=True)
class ShiftBatch:
    """Segment geometry of the recentered density for a batch of directions.

    Row i holds direction thetas[i]; its segments k = 0..q (q = support size
    of l) span [lo[i, k], hi[i, k]], with c the intercept of
    r -> ||r theta + l||_1 there and beta = slope/||A theta|| - b_l.  Rows
    with fewer sign changes than q pad their tail with empty segments
    lo = hi = inf.  beta is meaningless on null rows (A theta = 0).
    """

    l: np.ndarray
    thetas: np.ndarray
    A_thetas: np.ndarray
    norm_A_theta: np.ndarray
    y_l: np.ndarray
    h0: float
    lo: np.ndarray
    hi: np.ndarray
    c: np.ndarray
    beta: np.ndarray

    @property
    def null(self) -> np.ndarray:
        return self.norm_A_theta <= NULL_TOL


def build_shift_batch(prob: ProblemInstance, l: np.ndarray, thetas: np.ndarray) -> ShiftBatch:
    """build_shift_context for every row of `thetas` at once, as arrays."""
    l = np.asarray(l, dtype=float)
    if l.shape != (prob.p,):
        raise ValueError(f"l must have length {prob.p}")
    thetas = np.asarray(thetas, dtype=float)
    norms = np.linalg.norm(thetas, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("directions must be nonzero")
    thetas = thetas / norms[:, None]
    A_thetas = thetas @ prob.A.T
    na = np.linalg.norm(A_thetas, axis=1)
    y_l = prob.y - prob.A @ l
    norm_y_l = float(np.linalg.norm(y_l))
    h0 = -0.5 * norm_y_l**2 - float(np.abs(l).sum())
    safe = np.where(na <= NULL_TOL, 1.0, na)
    if norm_y_l == 0.0:
        b_l = np.zeros(len(thetas))
    else:
        b_l = norm_y_l * np.clip((A_thetas @ y_l) / (safe * norm_y_l), -1.0, 1.0)

    # only coordinates in the support of l can change sign along the ray (S_-)
    support = np.flatnonzero(l)
    abs_l = np.abs(l[support])
    abs_t = np.abs(thetas)
    minus = thetas[:, support] * l[support] < 0.0
    with np.errstate(divide="ignore"):
        ratios = np.where(minus, abs_l / abs_t[:, support], math.inf)
    order = np.argsort(ratios, axis=1, kind="stable")
    ratios = np.take_along_axis(ratios, order, axis=1)
    l_minus = np.take_along_axis(np.where(minus, abs_l, 0.0), order, axis=1)
    t_minus = np.take_along_axis(np.where(minus, abs_t[:, support], 0.0), order, axis=1)
    minus_full = np.zeros(thetas.shape, dtype=bool)
    minus_full[:, support] = minus
    base_c = np.where(minus, 0.0, abs_l).sum(axis=1)
    base_l1 = np.where(minus_full, 0.0, abs_t).sum(axis=1)
    zero = np.zeros((len(thetas), 1))
    cum_l = np.concatenate([zero, np.cumsum(l_minus, axis=1)], axis=1)
    cum_t = np.concatenate([zero, np.cumsum(t_minus, axis=1)], axis=1)
    c = base_c[:, None] - cum_l + (cum_l[:, -1:] - cum_l)
    l1 = base_l1[:, None] + cum_t - (cum_t[:, -1:] - cum_t)
    breakpoints = np.concatenate([zero, ratios, zero + math.inf], axis=1)
    return ShiftBatch(
        l=l, thetas=thetas, A_thetas=A_thetas, norm_A_theta=na, y_l=y_l, h0=h0,
        lo=breakpoints[:, :-1], hi=breakpoints[:, 1:], c=c,
        beta=l1 / safe[:, None] - b_l[:, None],
    )


def _log_masses(p: int, na: np.ndarray, lo, hi, beta, offset) -> np.ndarray:
    """log J_p per row from its segments: log sum_k e^(offset_k) G_(p-1)(na lo_k, na hi_k, beta_k) - p log na."""
    live = hi > lo
    scale = np.broadcast_to(na[:, None], lo.shape)[live]
    terms = np.full(lo.shape, -math.inf)
    terms[live] = log_gaussian_moment(p - 1, scale * lo[live], scale * hi[live], beta[live]) + offset[live]
    top = terms.max(axis=1)
    return top + np.log(np.exp(terms - top[:, None]).sum(axis=1)) - p * np.log(na)


def shifted_log_masses(prob: ProblemInstance, batch: ShiftBatch, p: int) -> np.ndarray:
    """log J_p(theta, l) for every row of the batch."""
    out = np.empty(len(batch.thetas))
    null = batch.null
    gen = ~null
    if np.any(gen):
        offset = float(np.abs(batch.l).sum()) - batch.c[gen]
        out[gen] = _log_masses(p, batch.norm_A_theta[gen], batch.lo[gen], batch.hi[gen],
                               batch.beta[gen], offset)
    for i in np.flatnonzero(null):
        lp, v = shifted_radial_mass_log(build_shift_context(prob, batch.l, batch.thetas[i]), p)
        out[i] = lp + math.log(v) if v > 0.0 else -math.inf
    return out


def shifted_modes(prob: ProblemInstance, batch: ShiftBatch, p: int) -> np.ndarray:
    """Mode radius of the shifted radial law for every row of the batch.

    The walk of shifted_mode_radius, vectorized: the first live segment
    whose closed-form root lies left of its right end holds the mode, at
    max(root, left end).  Null rows take the scalar walk.
    """
    r = np.empty(len(batch.thetas))
    null = batch.null
    gen = ~null
    if np.any(gen):
        na = batch.norm_A_theta[gen]
        lo, hi, b = batch.lo[gen], batch.hi[gen], batch.beta[gen]
        root = tilted_peaks(p - 1, b) / na[:, None]
        k = np.argmax((hi > lo) & (root < hi), axis=1)[:, None]
        r[gen] = np.maximum(np.take_along_axis(root, k, axis=1), np.take_along_axis(lo, k, axis=1))[:, 0]
    for i in np.flatnonzero(null):
        r[i] = shifted_mode_radius(build_shift_context(prob, batch.l, batch.thetas[i]), p)
    return r


def shifted_log_peak_modes(prob: ProblemInstance, batch: ShiftBatch, p: int) -> np.ndarray:
    """log(peak * mode) of the shifted radial law for every row of the batch,
    at the modes of shifted_modes."""
    r = shifted_modes(prob, batch, p)[:, None]
    resid = r * batch.A_thetas - batch.y_l
    l1 = np.abs(r * batch.thetas + batch.l).sum(axis=1)
    psi = 0.5 * np.einsum("ij,ij->i", resid, resid) + l1 + batch.h0
    with np.errstate(divide="ignore"):
        return p * np.log(r[:, 0]) - psi


def shifted_radial_mass_log(ctx: ShiftContext, p: int) -> tuple[float, float]:
    """J_p(theta, l) = int_0^inf f(r theta) r^(p-1) dr as (log_scale, mantissa)."""
    m = p - 1
    l1_full = float(np.abs(ctx.l).sum())
    if ctx.null_direction:
        logs: list[float] = []
        vals: list[float] = []
        for seg in ctx.segments:
            if seg.hi <= seg.lo:
                continue
            lp, v = exp_segment_moment_log(m, seg.lo, seg.hi, seg.l1)
            logs.append(lp + (l1_full - seg.c))
            vals.append(v)
        return combine_log_pieces(logs, vals)
    # a batch of one through the array path
    lo, hi, beta, offset = (
        np.array([[getattr(seg, f) for seg in ctx.segments]]) for f in ("lo", "hi", "beta", "c")
    )
    return float(_log_masses(p, np.array([ctx.norm_A_theta]), lo, hi, beta, l1_full - offset)[0]), 1.0


def shifted_radial_mass(ctx: ShiftContext, p: int) -> float:
    """Plain-float J_p(theta, l); may overflow for wildly non-optimal shifts."""
    lp, v = shifted_radial_mass_log(ctx, p)
    return math.exp(lp) * v


def shifted_mode_radius(ctx: ShiftContext, p: int) -> float:
    """Unique minimizer of the shifted radial potential.

    Walks the segments in order: within each, the stationarity condition is
    the same quadratic as in the centered case with offset beta_k, so a
    segment either contains its closed-form root, or the root falls left of
    the segment and the minimizer is the breakpoint (the subdifferential of
    the l1 term straddles zero there), or the potential keeps decreasing.
    """
    segs = [s for s in ctx.segments if s.hi > s.lo]
    na = ctx.norm_A_theta
    for seg in segs:
        if ctx.null_direction:
            if seg.l1 <= 0.0:
                continue  # potential decreasing across this segment
            root = (p - 1) / seg.l1
        else:
            root = tilted_peak(p - 1, seg.beta) / na
        if seg.lo <= root < seg.hi:
            return root
        if root < seg.lo:
            # derivative positive over the whole segment after being negative
            # before it: breakpoint minimizer
            return seg.lo
    # last segment has slope ||theta||_1 > 0, so its root is always finite
    raise RuntimeError("convex radial potential without minimizer")  # pragma: no cover


def shifted_mass_bounds(ctx: ShiftContext, p: int) -> tuple[float, float]:
    """Log-concavity bracket [M r / p, M r (p-1)! e^(p-1) / (p-1)^p] around the mass."""
    r_star = shifted_mode_radius(ctx, p)
    peak = math.exp(-shifted_potential(ctx, r_star, p))
    return log_concavity_bracket(peak * r_star, p)


def _psi_right_slope(ctx: ShiftContext, r: float) -> float:
    """Right derivative of the convex part psi(r) = misfit/2 + l1 + h0 at r."""
    k = int(np.searchsorted(ctx.breakpoints, r, side="right")) - 1
    k = min(max(k, 0), len(ctx.segments) - 1)
    seg = ctx.segments[k]
    if ctx.null_direction:
        return seg.l1
    na = ctx.norm_A_theta
    return na * na * r + na * seg.beta


def sample_shifted_radius(ctx: ShiftContext, p: int, rng: np.random.Generator) -> float:
    """Exact draw from the shifted radial law, density proportional to e^(-phi(r)).

    The convex part psi of the potential is minorized by its tangent at the
    mode (right derivative at breakpoint modes), giving a Gamma(p, 1/lambda)
    envelope with exact acceptance ratio exp(-(psi(g) - psi(r*)) + lambda (g - r*));
    a monotone grid inverse CDF takes over after 64 rejections.
    """
    r_star = shifted_mode_radius(ctx, p)

    def psi(r: float) -> float:
        resid = r * ctx.A_theta - ctx.y_l
        return 0.5 * float(resid @ resid) + float(np.abs(r * ctx.theta + ctx.l).sum()) + ctx.h0

    psi_star = psi(r_star)
    # right slope at the mode; for interior modes this equals (p-1)/r* exactly
    lam = max(_psi_right_slope(ctx, r_star), (p - 1) / r_star)
    for _ in range(64):
        g = float(rng.gamma(p, 1.0 / lam))
        if g <= 0.0:
            continue
        log_acc = -(psi(g) - psi_star) + lam * (g - r_star)
        if math.log(rng.uniform()) <= log_acc:
            return g
    return _sample_shifted_grid(ctx, p, rng, r_star)


def _sample_shifted_grid(
    ctx: ShiftContext, p: int, rng: np.random.Generator, r_star: float, n_grid: int = 4096
) -> float:
    pot0 = shifted_potential(ctx, r_star, p)
    hi = r_star
    while shifted_potential(ctx, hi, p) - pot0 < 46.0:
        hi *= 2.0
    grid = np.linspace(1e-12 * r_star, hi, n_grid)
    dens = np.array([math.exp(-(shifted_potential(ctx, r, p) - pot0)) for r in grid])
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    return float(np.interp(rng.uniform(), cdf, grid))


def sample_posterior(prob: ProblemInstance, l: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact posterior draw.

    In polar form around l the posterior factorizes as a direction marginal
    proportional to the per-direction mass J_p(theta, l) times the radial law;
    the direction marginal is NOT uniform, so composing a uniform direction
    with the conditional radius would bias the draw (underweighting the heavy
    null-space lobes; the importance-sampling oracle rejects that construction
    at ~25 sigma).  Exactness is instead obtained by rejection against the
    separable l1 envelope: propose from the prior, accept with the Gaussian
    misfit factor, which is bounded by one.  The acceptance rate is Z/2^p.
    The returned law does not depend on l; the argument is kept so callers can
    phrase draws around a recentering point.
    """
    del l  # the target law is the same for every recentering point
    p = prob.p
    block = 256
    while True:
        props = sample_laplace(rng, (block, p))
        resid = props @ prob.A.T - prob.y
        log_acc = -0.5 * np.einsum("ij,ij->i", resid, resid)
        accept = np.log(rng.uniform(size=block)) <= log_acc
        idx = np.flatnonzero(accept)
        if idx.size:
            return props[idx[0]].copy()
