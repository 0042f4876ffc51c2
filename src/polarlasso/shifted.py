"""Geometry of the posterior recentered at an l1-penalized mode l.

With f(x) = exp(h(x) - h(0)), h(x) = -||A(x+l) - y||^2/2 - ||x+l||_1, the map
f peaks at the origin, and along a ray r -> r theta the l1 term is piecewise
linear: ||r theta + l||_1 = l1_k r + c_k between consecutive breakpoints of
the order statistics |l_i|/|theta_i| over the coordinates with
theta_i l_i < 0.  Each segment therefore contributes a Gaussian-tilted
moment, and

    J_p(theta, l) = int_0^inf f(r theta) r^(p-1) dr
                  = sum_k e^(D_k) G_(p-1)(s a_k, s b_k, beta_k, kappa) / s^p,

with D_k = ||l||_1 - c_k and [a_k, b_k] the segment.  Where A theta != 0,
s = ||A theta||, kappa = 1 and beta_k = l1_k/||A theta|| - b_l; on a null
direction (A theta = 0) the misfit is constant along the ray, and s = 1,
kappa = 0, beta_k = l1_k.  Every row goes through the one log-domain
segment kernel, a whole batch of directions per call (build_shift_batch),
so the result is reliable for any placement of l; a single direction is a
batch of one (build_shift_context).  At l = 0 this is the centred radial law
of radial.py, which takes its mass, mode, peak and bracket from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._moments import log_gaussian_moment, tilted_peaks
from .problem import DirectionBatch, ProblemInstance, direction_batch, sample_laplace


def _exp(x: float) -> float:
    """e^x by the numpy exp the batch functions use, inf past the float range."""
    with np.errstate(over="ignore"):
        return float(np.exp(x))


def log_concavity_bracket(log_lo: float, log_peak_mode: float, p: int) -> tuple[float, float]:
    """[lo, M r (p-1)! e^(p-1) / (p-1)^p] around the mass of a log-concave
    radial law (or a positive multiple of such masses) from the logs of lo
    and of its peak * mode M r; each end is formed in logs, inf past the
    float range."""
    if p == 1:
        return _exp(log_lo), math.inf  # the log-concavity upper constant degenerates at p = 1
    return _exp(log_lo), _exp(log_peak_mode + math.lgamma(p) + p - 1 - p * math.log(p - 1))


@dataclass(frozen=True)
class ShiftBatch:
    """Segment geometry of the recentered density for a batch of directions.

    Row i holds direction thetas[i]; its segments k = 0..q (q = support size
    of l) span [lo[i, k], hi[i, k]], where r -> ||r theta + l||_1 has
    intercept c and slope `slope`, and beta = slope/scale - b_l is the tilt
    in the kernel variable u = scale r.  Rows with fewer sign changes than q
    pad their tail with empty segments lo = hi = inf.  Null rows
    (A theta = 0) have scale = 1 and b_l = 0, so there beta = slope.
    h0 = h(0) is the log of the factor that recenters the density.
    """

    l: np.ndarray
    thetas: np.ndarray
    null: np.ndarray
    scale: np.ndarray
    h0: float
    lo: np.ndarray
    hi: np.ndarray
    c: np.ndarray
    slope: np.ndarray
    beta: np.ndarray

    @property
    def theta(self) -> np.ndarray:
        """The direction of row 0, the only one of a single-direction batch."""
        return self.thetas[0]

    @property
    def kappa(self) -> np.ndarray:
        """Curvature of the kernel per row: 1, or 0 on null rows."""
        return np.where(self.null, 0.0, 1.0)


def build_shift_batch(prob: ProblemInstance, l: np.ndarray, thetas: np.ndarray) -> ShiftBatch:
    """Segment decomposition of the recentered density along every row of `thetas`."""
    thetas = np.asarray(thetas, dtype=float)
    norms = np.linalg.norm(thetas, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("directions must be nonzero")
    return unit_shift_batch(prob, l, thetas / norms[:, None])


def unit_shift_batch(prob: ProblemInstance, l: np.ndarray, thetas: np.ndarray) -> ShiftBatch:
    """build_shift_batch of rows that are unit directions already (sphere draws)."""
    l = np.asarray(l, dtype=float)
    if l.shape != (prob.p,):
        raise ValueError(f"l must have length {prob.p}")
    y_l = prob.y - prob.A @ l
    return segment_batch(direction_batch(prob.A, y_l, thetas), thetas, l, float(np.linalg.norm(y_l)))


def segment_batch(st: DirectionBatch, thetas: np.ndarray, l: np.ndarray, norm_y_l: float) -> ShiftBatch:
    """ShiftBatch of unit directions with statistics `st` against y - A l.

    Only coordinates in the support of l change sign along a ray.  Between
    the sign changes crossed and those ahead, ||r theta + l||_1 has slope
    ||theta||_1 - 2 sum_ahead |theta_i| and intercept ||l||_1 - 2 sum_crossed |l_i|,
    so the tilt is st.beta less 2 sum_ahead |theta_i| / ||A theta||.
    """
    support = np.flatnonzero(l)
    abs_l, abs_t = np.abs(l[support]), np.abs(thetas[:, support])
    minus = thetas[:, support] * l[support] < 0.0
    with np.errstate(divide="ignore"):
        ratios = np.where(minus, abs_l / abs_t, math.inf)
    order = np.argsort(ratios, axis=1, kind="stable")
    zero = np.zeros((len(thetas), 1))
    crossed_l, crossed_t = (np.concatenate([zero, np.cumsum(np.take_along_axis(
        np.where(minus, v, 0.0), order, axis=1), axis=1)], axis=1) for v in (abs_l, abs_t))
    ahead_t = crossed_t[:, -1:] - crossed_t
    slope = st.l1[:, None] - 2.0 * ahead_t
    scale = np.where(st.null, 1.0, st.norm_A)
    breakpoints = np.concatenate([zero, np.take_along_axis(ratios, order, axis=1), zero + math.inf], axis=1)
    l1_l = float(np.abs(l).sum())
    return ShiftBatch(
        l=l, thetas=thetas, null=st.null, scale=scale, h0=-0.5 * norm_y_l**2 - l1_l,
        lo=breakpoints[:, :-1], hi=breakpoints[:, 1:], c=l1_l - 2.0 * crossed_l, slope=slope,
        beta=np.where(st.null[:, None], slope, st.beta[:, None] - 2.0 * ahead_t / scale[:, None]),
    )


def build_shift_context(prob: ProblemInstance, l: np.ndarray, theta: np.ndarray) -> ShiftBatch:
    """Segment decomposition along one (not necessarily normalized) direction: a batch of one."""
    return build_shift_batch(prob, l, np.asarray(theta, dtype=float)[None, :])


def shifted_log_masses(batch: ShiftBatch, p: int) -> np.ndarray:
    """log J_p(theta, l) for every row of the batch: the log of
    sum_k e^(||l||_1 - c_k) G_(p-1)(scale lo_k, scale hi_k, beta_k, kappa) / scale^p."""
    live = batch.hi > batch.lo
    shape = batch.lo.shape
    scale = np.broadcast_to(batch.scale[:, None], shape)[live]
    kappa = np.broadcast_to(batch.kappa[:, None], shape)[live]
    offset = float(np.abs(batch.l).sum()) - batch.c[live]
    terms = np.full(shape, -math.inf)
    terms[live] = log_gaussian_moment(p - 1, scale * batch.lo[live], scale * batch.hi[live],
                                      batch.beta[live], kappa) + offset
    top = terms.max(axis=1)
    return top + np.log(np.exp(terms - top[:, None]).sum(axis=1)) - p * np.log(batch.scale)


def _mode_segments(batch: ShiftBatch, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(k, r*) per row: the index k (a column) of the segment holding the
    unique minimizer r* of the shifted radial potential, and r*.

    Within each segment the stationarity condition is the centred one with
    tilt beta_k, so a segment either contains its closed-form root, or the
    root falls left of the segment and the minimizer is the breakpoint (the
    subdifferential of the l1 term straddles zero there), or the potential
    keeps decreasing across it (root right of it, inf on a null row with
    slope <= 0).  The first live segment whose root lies left of its right
    end holds the mode, at max(root, left end); the last segment always
    does, as its slope ||theta||_1 is positive.
    """
    root = tilted_peaks(p - 1, batch.beta, batch.kappa[:, None]) / batch.scale[:, None]
    k = np.argmax((batch.hi > batch.lo) & (root < batch.hi), axis=1)[:, None]
    return k, np.maximum(np.take_along_axis(root, k, axis=1), np.take_along_axis(batch.lo, k, axis=1))[:, 0]


def shifted_modes(batch: ShiftBatch, p: int) -> np.ndarray:
    """Mode radius of the shifted radial law for every row of the batch."""
    return _mode_segments(batch, p)[1]


def shifted_log_summaries(batch: ShiftBatch, p: int) -> tuple[np.ndarray, ...]:
    """(log J, log mass_lo, log(peak * mode), mode, log peak) along every
    row of the batch, masses and peak in units of e^h0.

    In the mode's segment k, with u = scale r*, the potential is
    psi(r*) - h(0) = kappa u^2/2 + beta_k u + c_k - ||l||_1, and the peak
    e^(h(0) - psi(r*)) r*^(p-1).  mass_lo is one rule for every l: where
    the first tilt beta_0 >= 0 the ray energy is nondecreasing up to the
    mode, so mass >= peak * mode / p.  Otherwise, on [r*, b], b the right
    end of the mode's segment, the potential's curvature is at most
    K = kappa scale^2 + (p-1)/r*^2 and its right slope at r* is d >= 0
    (0 at an interior mode, so rounding is clamped at 0), hence
    mass >= peak int_0^(b - r*) e^(-d t - K t^2/2) dt; an l1 kink past b
    would break that quadratic majorant.  At l = 0 (one segment, d = 0,
    b = inf) this is the half-Gaussian minorant peak sqrt(pi / (2K)).
    """
    k, mode = _mode_segments(batch, p)
    beta, hi, c = (np.take_along_axis(a, k, axis=1)[:, 0] for a in (batch.beta, batch.hi, batch.c))
    kappa, scale = batch.kappa, batch.scale
    u = scale * mode
    with np.errstate(divide="ignore"):  # at p = 1 the mode may sit at the origin
        log_mode = np.log(mode)
    energy = u * (0.5 * kappa * u + beta) + c - float(np.abs(batch.l).sum())
    log_peak = (p - 1) * log_mode - energy if p > 1 else -energy  # no volume term at p = 1
    log_pm = log_peak + log_mode
    log_lo = log_pm - math.log(p)
    neg = np.flatnonzero(batch.beta[:, 0] < 0.0)  # there the mode is positive
    r, u, beta, hi, kappa, scale = (v[neg] for v in (mode, u, beta, hi, kappa, scale))
    rate = np.sqrt(kappa * scale**2 + (p - 1) / r**2)
    d = np.maximum(scale * (kappa * u + beta) - (p - 1) / r, 0.0)
    log_lo[neg] = log_peak[neg] - np.log(rate) + log_gaussian_moment(0, 0.0, rate * (hi - r), d / rate)
    return shifted_log_masses(batch, p), log_lo, log_pm, mode, log_peak


def shifted_radial_mass(ctx: ShiftBatch, p: int) -> float:
    """J_p(theta, l) of row 0 of the batch; inf past the float range."""
    return _exp(float(shifted_log_masses(ctx, p)[0]))


def shifted_mode_radius(ctx: ShiftBatch, p: int) -> float:
    """Mode radius of the shifted radial law along row 0 of the batch."""
    return float(shifted_modes(ctx, p)[0])


def shifted_mass_bounds(ctx: ShiftBatch, p: int) -> tuple[float, float]:
    """log_concavity_bracket of row 0 of the batch from its mass_lo and
    peak * mode (shifted_log_summaries); inf past the float range."""
    _, log_lo, log_pm, _, _ = shifted_log_summaries(ctx, p)
    return log_concavity_bracket(float(log_lo[0]), float(log_pm[0]), p)


class ExactSamplerBudgetError(RuntimeError):
    """The exact sampler rejected _REJECT_LIMIT proposals in a row.

    Carries the proposals made and accepted so far, the length of the
    rejected run, and the rule-of-three bound 3/run: with no acceptance in
    that many proposals, the acceptance rate Z/2^p lies below it at 95%
    confidence.
    """

    def __init__(self, proposals: int, accepted: int, rejected_run: int):
        self.proposals = proposals
        self.accepted = accepted
        self.rejected_run = rejected_run
        self.accept_bound = 3.0 / rejected_run
        super().__init__(f"exact sampler rejected {rejected_run} proposals in a row ({accepted} of "
                         f"{proposals} accepted); its acceptance rate is below {self.accept_bound:.3g} at 95%")


# prior proposals drawn per block, and the run of rejections that ends sampling
_PROPOSAL_ROWS = 256
_REJECT_LIMIT = 2**24


def sample_posterior_batch(prob: ProblemInstance, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """n_draws exact posterior draws, the rows of an (n_draws, p) array.

    In polar form the posterior factorizes as a direction marginal
    proportional to the per-direction mass J_p(theta) times the radial law;
    the direction marginal is NOT uniform, so composing a uniform direction
    with the conditional radius would bias the draw (underweighting the heavy
    null-space lobes; the importance-sampling oracle rejects that construction
    at ~25 sigma).  Exactness is instead obtained by rejection against the
    separable l1 envelope: propose from the prior, accept with the Gaussian
    misfit factor, which is bounded by one.  The acceptance rate is Z/2^p.
    Proposals come in blocks of _PROPOSAL_ROWS (Laplace rows, then their
    uniforms), and every accepted one is kept, in stream order, until there
    are n_draws; accepted proposals are i.i.d. draws from the target.
    Raises ExactSamplerBudgetError after _REJECT_LIMIT rejections in a row.
    """
    if n_draws < 1:
        raise ValueError("need n_draws >= 1")
    kept = []
    got = proposals = run = 0
    while got < n_draws:
        props = sample_laplace(rng, (_PROPOSAL_ROWS, prob.p))
        resid = props @ prob.A.T - prob.y
        log_acc = -0.5 * np.einsum("ij,ij->i", resid, resid)
        idx = np.flatnonzero(np.log(rng.random(_PROPOSAL_ROWS)) <= log_acc)
        proposals += _PROPOSAL_ROWS
        if idx.size:
            kept.append(props[idx[:n_draws - got]])
            got += len(kept[-1])
            run = _PROPOSAL_ROWS - 1 - int(idx[-1])
        else:
            run += _PROPOSAL_ROWS
            if run >= _REJECT_LIMIT:
                raise ExactSamplerBudgetError(proposals, got, run)
    return np.concatenate(kept)


def sample_posterior(prob: ProblemInstance, l: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One exact posterior draw: a batch of one of sample_posterior_batch.

    The law does not depend on l; the argument is kept so callers can phrase
    draws around a recentering point.
    """
    del l  # the target law is the same for every recentering point
    return sample_posterior_batch(prob, 1, rng)[0]
