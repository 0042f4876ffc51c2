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
direction (||A theta|| <= NULL_TOL) the misfit is constant along the ray,
and s = 1, kappa = 0, beta_k = l1_k.  unit_shift_batch alone builds the
segments and marks the null rows.  Every row goes through the one
log-domain segment kernel, a whole batch of unit directions per call, so
the result is reliable for any placement of l; a single direction, of any
nonzero length, is a batch of one (build_shift_context, read by
radial_summary).  At l = 0 this is the paper's centred radial law J_p(theta),
whose closed forms in beta radial.py keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._moments import _check_count, log_gaussian_moment, tilted_peaks
from .problem import ProblemInstance, _check_point, laplace_from_uniforms

# below this image norm a direction is treated as belonging to the null space
NULL_TOL = 1e-12


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
    pad their tail with empty segments lo = hi = inf.  norm_A = ||A theta||
    and s is the cosine of A theta against y - A l (0 if y = A l).  Null rows
    (||A theta|| <= NULL_TOL) have s = 0, scale = 1 and b_l = 0, so there
    beta = slope; elsewhere scale = norm_A; kappa, the curvature of the
    kernel, is 1, or 0 on null rows.  h0 = h(0) is the log of the factor
    that recenters the density.
    """

    l: np.ndarray
    thetas: np.ndarray
    null: np.ndarray
    scale: np.ndarray
    kappa: np.ndarray
    h0: float
    lo: np.ndarray
    hi: np.ndarray
    c: np.ndarray
    slope: np.ndarray
    beta: np.ndarray
    norm_A: np.ndarray
    s: np.ndarray

    @property
    def theta(self) -> np.ndarray:
        """The direction of row 0, the only one of a single-direction batch."""
        return self.thetas[0]

    @property
    def p(self) -> int:
        """Dimension of the directions: the row width of thetas."""
        return self.thetas.shape[1]


def unit_shift_batch(prob: ProblemInstance, l: np.ndarray, thetas: np.ndarray) -> ShiftBatch:
    """Segment decomposition of the recentered density along every row of
    `thetas`, rows that are unit directions already (sphere draws).

    Only coordinates in the support of l change sign along a ray.  Between
    the sign changes crossed and those ahead, ||r theta + l||_1 has slope
    ||theta||_1 - 2 sum_ahead |theta_i| and intercept ||l||_1 - 2 sum_crossed |l_i|,
    so the tilt is the l = 0 offset less 2 sum_ahead |theta_i| / ||A theta||.
    """
    l = _check_point("l", l, prob.p)
    y_l = prob.y - prob.A @ l
    A_thetas = thetas @ prob.A.T
    A_theta_y = A_thetas @ y_l
    norm_A = np.linalg.norm(A_thetas, axis=1)
    null = norm_A <= NULL_TOL
    scale = np.where(null, 1.0, norm_A)
    norm_y_l = float(np.linalg.norm(y_l))
    if norm_y_l == 0.0:
        s = np.zeros(len(thetas))
    else:
        s = np.where(null, 0.0, np.clip(A_theta_y / (scale * norm_y_l), -1.0, 1.0))
    l1 = np.abs(thetas).sum(axis=1)
    support = np.flatnonzero(l)
    t_s, l_s = thetas[:, support], l[support]  # the coordinates that can change sign
    minus = t_s * l_s < 0.0
    abs_l, abs_t = np.abs(l_s), np.abs(t_s)
    with np.errstate(divide="ignore"):  # a coordinate that keeps its sign: ratio inf
        ratios = abs_l / np.where(minus, abs_t, 0.0)
    n, q = ratios.shape
    # each row's sign changes in the order the ray crosses them, as flat indices
    order = (np.argsort(ratios, axis=1, kind="stable") + q * np.arange(n)[:, None]).ravel()
    breakpoints = np.full((n, q + 2), math.inf)
    breakpoints[:, 0] = 0.0
    breakpoints[:, 1:-1] = ratios.ravel()[order].reshape(n, q)
    # |l_i| and |theta_i| summed over the sign changes crossed before each segment
    crossed = np.zeros((2, n, q + 1))
    crossed[0, :, 1:] = (abs_l * minus).ravel()[order].reshape(n, q)
    crossed[1, :, 1:] = (abs_t * minus).ravel()[order].reshape(n, q)
    for k in range(2, q + 1):
        crossed[:, :, k] += crossed[:, :, k - 1]
    crossed_l, crossed_t = crossed
    ahead_t = crossed_t[:, -1:] - crossed_t
    slope = l1[:, None] - 2.0 * ahead_t
    offset = l1 / scale - norm_y_l * s  # the tilt at l = 0
    l1_l = float(np.abs(l).sum())
    return ShiftBatch(
        l=l, thetas=thetas, null=null, scale=scale, h0=-0.5 * norm_y_l**2 - l1_l,
        lo=breakpoints[:, :-1], hi=breakpoints[:, 1:], c=l1_l - 2.0 * crossed_l, slope=slope,
        beta=np.where(null[:, None], slope, offset[:, None] - 2.0 * ahead_t / scale[:, None]),
        kappa=np.where(null, 0.0, 1.0), norm_A=norm_A, s=s,
    )


def build_shift_context(prob: ProblemInstance, l: np.ndarray, theta: np.ndarray) -> ShiftBatch:
    """Segment decomposition along one nonzero, not necessarily unit, direction: a batch of one."""
    thetas = _check_point("theta", theta, prob.p)[None, :]
    norms = np.linalg.norm(thetas, axis=1)  # the row norm, rounded as in a batch of rows
    if norms[0] == 0.0:
        raise ValueError("theta must be nonzero")
    return unit_shift_batch(prob, l, thetas / norms[:, None])


def shifted_log_masses(batch: ShiftBatch) -> np.ndarray:
    """log J_p(theta, l) for every row of the batch: the log of
    sum_k e^(||l||_1 - c_k) G_(p-1)(scale lo_k, scale hi_k, beta_k, kappa) / scale^p."""
    live = batch.hi > batch.lo
    shape = batch.lo.shape
    scale = np.broadcast_to(batch.scale[:, None], shape)[live]
    kappa = np.broadcast_to(batch.kappa[:, None], shape)[live]
    offset = float(np.abs(batch.l).sum()) - batch.c[live]
    terms = np.full(shape, -math.inf)
    terms[live] = log_gaussian_moment(batch.p - 1, scale * batch.lo[live], scale * batch.hi[live],
                                      batch.beta[live], kappa) + offset
    top = terms.max(axis=1)
    return top + np.log(np.exp(terms - top[:, None]).sum(axis=1)) - batch.p * np.log(batch.scale)


def _mode_segments(batch: ShiftBatch) -> tuple[np.ndarray, np.ndarray]:
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
    root = tilted_peaks(batch.p - 1, batch.beta, batch.kappa[:, None]) / batch.scale[:, None]
    k = np.argmax((batch.hi > batch.lo) & (root < batch.hi), axis=1)[:, None]
    return k, np.maximum(np.take_along_axis(root, k, axis=1), np.take_along_axis(batch.lo, k, axis=1))[:, 0]


def shifted_modes(batch: ShiftBatch) -> np.ndarray:
    """Mode radius of the shifted radial law for every row of the batch."""
    return _mode_segments(batch)[1]


def shifted_log_summaries(batch: ShiftBatch) -> tuple[np.ndarray, ...]:
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
    p = batch.p
    k, mode = _mode_segments(batch)
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
    return shifted_log_masses(batch), log_lo, log_pm, mode, log_peak


@dataclass(frozen=True)
class RadialSummary:
    """Mode, peak, mass and log-concavity bracket of one direction's radial law."""

    mode_r: float
    peak: float
    mass: float
    mass_lo: float
    mass_hi: float


def radial_summary(batch: ShiftBatch) -> RadialSummary:
    """Mode, peak, mass J_p(theta, l) and its bracket along row 0 of the batch:
    shifted_log_summaries of a batch of one, exponentiated (inf past the float
    range) after adding h0, so masses and peak are those of the posterior on
    the ray from l, e^h0 times the recentred values; at l = 0, J_p(theta)."""
    log_mass, log_lo, log_pm, mode, log_peak = (float(v[0]) for v in shifted_log_summaries(batch))
    h0 = batch.h0
    mass_lo, mass_hi = log_concavity_bracket(log_lo + h0, log_pm + h0, batch.p)
    return RadialSummary(mode, _exp(log_peak + h0), _exp(log_mass + h0), mass_lo, mass_hi)


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


# prior proposals drawn per block, the run of rejections that ends sampling
# (at least a block), and the uniforms a pass of blocks may hold (1 MB)
_PROPOSAL_ROWS = 256
_REJECT_LIMIT = 2**24
_PASS_UNIFORMS = 2**17


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

    The blocks are drawn in passes, each one rng.random call whose rows are
    blocks, and a block's product with A keeps the shape it has alone, so
    its bits.  A pass that holds more blocks than the draws (or the budget)
    need restores the generator and redraws the doubles of the blocks used,
    so the generator ends where a block at a time ends it.
    """
    _check_count("n_draws", n_draws)
    rows, p = _PROPOSAL_ROWS, prob.p
    width = rows * (p + 1)  # a block's uniforms: its Laplace rows, then its accept tests
    cap = max(1, _PASS_UNIFORMS // width)
    kept = []
    got = blocks = run = 0
    while got < n_draws:
        # blocks in this pass: one at first, as many as so far while none is
        # accepted, then about half of those still expected at the acceptance
        # rate so far, so that few passes overshoot; at least one, at most cap
        k = min(cap, max(1, -(-(n_draws - got) * blocks // (2 * got)) if got else blocks))
        start = rng.bit_generator.state
        u = rng.random((k, width))
        props = laplace_from_uniforms(u[:, :-rows], np.empty((k, rows * p))).reshape(k, rows, p)
        resid = (props @ prob.A.T - prob.y).reshape(k * rows, -1)
        log_acc = -0.5 * np.einsum("ij,ij->i", resid, resid).reshape(k, rows)
        accept = np.log(u[:, -rows:]) <= log_acc
        idx = np.flatnonzero(accept)  # stream positions within the pass
        need = n_draws - got
        # acceptance positions up to the one that completes the draws, led by
        # the last one before the pass and, while the draws are incomplete,
        # followed by the pass end.  The run after an acceptance at a reaches
        # the limit in block (a + limit) // rows (the limit spans a block at
        # least), which ends the sampling if it precedes the next one's block
        marks = np.concatenate(([-1 - run], idx, [k * rows]))[:need + 1]
        reach = (marks[:-1] + _REJECT_LIMIT) // rows
        gaps = np.flatnonzero(reach < marks[1:] // rows)
        used = int(reach[gaps[0]]) + 1 if gaps.size else min(int(marks[-1]) // rows + 1, k)
        if used < k:
            rng.bit_generator.state = start
            rng.random(out=u[:used])
        blocks += used
        if gaps.size:
            g = int(gaps[0])
            raise ExactSamplerBudgetError(blocks * rows, got + g, used * rows - 1 - int(marks[g]))
        kept.append(props.reshape(k * rows, p)[idx[:need]])
        got += len(kept[-1])
        run = k * rows - 1 - int(marks[-2])
    return np.concatenate(kept)


def sample_posterior(prob: ProblemInstance, rng: np.random.Generator) -> np.ndarray:
    """One exact posterior draw: a batch of one of sample_posterior_batch."""
    return sample_posterior_batch(prob, 1, rng)[0]
