"""Per-direction radial law: closed-form mass, mode, peak and bracketing bounds.

Along a fixed unit direction theta the posterior restricted to the ray has
density proportional to exp(-phi(r)) with
phi(r) = (r^2 ||A theta||^2 + 2 r ||A theta|| beta + ||y||^2)/2 - (p-1) ln r,
so the per-direction mass is

    J_p(theta) = int_0^inf e^(-g(r)) r^(p-1) dr
               = e^(-||y||^2/2) H_(p-1)(beta) / ||A theta||^p,

where H is the Gaussian-tilted moment evaluated by the stable kernel.  Every
mass, at any beta and any p, comes from that kernel on [0, inf); null
directions (A theta = 0) have a closed form.  The scaled mass
Phi(beta) = ||theta||_1^p J_p(theta) depends on the direction only through
(beta, s); for large beta it admits the inverse-power expansion Phi(beta, M)
whose truncation error is certified by the coefficient c(p, M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._moments import log_gaussian_moment, tilted_peaks
from .problem import NULL_TOL, DirectionStats, direction_batch
from .special import ExpansionResult, expansion_coeff

# default number of terms M of the inverse-power expansion
EXPANSION_TERMS = 17

METHOD_EXACT = "exact_phi"
METHOD_NULL = "null_direction"


@dataclass(frozen=True)
class RadialSummary:
    """Mode, peak, closed-form mass, and the log-concavity bracket for one direction."""

    mode_r: float
    peak: float
    mass: float
    mass_lo: float
    mass_hi: float
    method: str


def mode_radius(stats: DirectionStats, p: int) -> float:
    """Unique stationary radius (-beta + sqrt(beta^2 + 4(p-1))) / (2 ||A theta||),
    evaluated without cancellation at large beta."""
    if stats.beta is None or stats.norm_A_theta == 0.0:
        raise ValueError("mode_radius needs A theta != 0")
    return float(tilted_peaks(p - 1, stats.beta)) / stats.norm_A_theta


def mode_radius_times_l1(beta: float, p: int) -> float:
    """r(theta) ||theta||_1 as a function of the offset when y = 0:
    beta (-beta + sqrt(beta^2 + 4(p-1))) / 2."""
    return beta * (-beta + math.sqrt(beta * beta + 4.0 * (p - 1))) / 2.0


def mass_closed_form(beta: float, s: float, y_norm: float, p: int) -> float:
    """Scaled mass Phi(beta) = ||theta||_1^p J_p(theta) for finite beta >= 0.

    Evaluates e^(-||y||^2/2) (beta + s ||y||)^p H_(p-1)(beta), with H taken
    from the log-domain segment kernel on [0, inf), as every mass in use is.
    """
    if beta < 0:
        raise ValueError("mass_closed_form requires beta >= 0")
    log_h = float(log_gaussian_moment(p - 1, 0.0, math.inf, beta))
    return math.exp(log_h - 0.5 * y_norm * y_norm) * (beta + s * y_norm) ** p


def mass_expansion(beta: float, s: float, y_norm: float, p: int, m_terms: int = EXPANSION_TERMS) -> ExpansionResult:
    """Inverse-power expansion Phi(beta, M) of the scaled mass, with remainder bound.

    value = e^(-||y||^2/2) (1 + s||y||/beta)^p [(p-1)! +
            2^(p-1) sum_{r=p}^{M-1} c(p, r) (beta^2/2)^(p-1-r)]
    |remainder| <= e^(-||y||^2/2) (1 + s||y||/beta)^p 2^(p-1) |c(p, M)| / (beta^2/2)^(M-p+1)
    """
    if beta <= 0:
        raise ValueError("expansion needs beta > 0")
    if m_terms < p + 1:
        raise ValueError("expansion needs M >= p + 1")
    x = beta * beta / 2.0
    prefactor = math.exp(-0.5 * y_norm * y_norm) * (1.0 + y_norm * s / beta) ** p
    core = math.factorial(p - 1) + (2.0 ** (p - 1)) * math.fsum(
        expansion_coeff(p, r) * x ** (p - 1 - r) for r in range(p, m_terms)
    )
    bound = (2.0 ** (p - 1)) * abs(expansion_coeff(p, m_terms)) / x ** (m_terms - (p - 1))
    return ExpansionResult(value=prefactor * core, remainder_bound=prefactor * bound)


def log_concavity_bracket(peak_mode: float, p: int) -> tuple[float, float]:
    """Bracket [M r / p, M r (p-1)! e^(p-1) / (p-1)^p] on the mass of a
    log-concave radial law from peak * mode M r (or on any positive multiple
    of such masses from the same multiple of M r).  The upper constant is
    formed in logs, so the bound is finite wherever it fits a float; the
    product M r (p-1)! e^(p-1) overflows before the division."""
    lo = peak_mode / p
    if p == 1:
        return lo, math.inf  # the log-concavity upper constant degenerates at p = 1
    return lo, peak_mode * math.exp(math.lgamma(p) + p - 1 - p * math.log(p - 1))


def radial_summary(stats: DirectionStats, p: int, y_norm: float) -> RadialSummary:
    """Closed-form mass J_p(theta) with mode, peak, and bracket.

    A batch of one through _summaries, exponentiated: the segment kernel
    gives the mass at every finite beta, the terminating factorial form on a
    null direction.  The upper bound is the log-concavity constant; the
    lower bound is described in _summaries.
    """
    beta = math.nan if stats.beta is None else stats.beta
    arrays = (np.array([v]) for v in (beta, stats.norm_A_theta, stats.l1_theta))
    log_mass, mode, log_peak, log_lo = _summaries(*arrays, p, y_norm)
    mass, peak, lo = (float(np.exp(v[0])) for v in (log_mass, log_peak, log_lo))
    mode_r = float(mode[0])
    hi = log_concavity_bracket(peak * mode_r, p)[1]
    method = METHOD_NULL if stats.beta is None else METHOD_EXACT
    return RadialSummary(mode_r, peak, mass, lo, hi, method)


def _summaries(
    beta: np.ndarray, norm_A_theta: np.ndarray, l1_theta: np.ndarray, p: int, y_norm: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(log mass, mode, log peak, log mass_lo) of the radial law for a batch
    of directions, one per entry.

    Rows with ||A theta|| <= NULL_TOL are null directions, whose beta is
    ignored: mass (p-1)! e^(-||y||^2/2) / ||theta||_1^p and mode
    (p-1)/||theta||_1.  Every other row takes its log mass from the segment
    kernel on [0, inf), J_p = e^(-||y||^2/2) H_(p-1)(beta) / ||A theta||^p,
    and its mode from the kernel's peak formula, free of cancellation at
    any beta.

    mass_lo is the log-concavity constant peak * mode / p where its proof
    holds, on null rows and at beta >= 0 (the ray energy is nondecreasing
    on [0, mode]).  At beta < 0 it is the half-Gaussian minorant
    peak * sqrt(pi / (2K)): right of the mode the curvature
    ||A theta||^2 + (p-1)/r^2 of the potential is at most
    K = ||A theta||^2 + (p-1)/mode^2.
    """
    null = norm_A_theta <= NULL_TOL
    gen = ~null
    y2 = y_norm * y_norm
    log_mass = np.empty(beta.shape)
    mode = np.empty(beta.shape)
    energy = np.empty(beta.shape)  # ray energy at the mode
    b, na = beta[gen], norm_A_theta[gen]
    log_mass[gen] = log_gaussian_moment(p - 1, 0.0, math.inf, b) - 0.5 * y2 - p * np.log(na)
    r = tilted_peaks(p - 1, b) / na
    mode[gen] = r
    energy[gen] = 0.5 * (r * r * na * na + 2.0 * r * na * b + y2)
    l1 = l1_theta[null]
    log_mass[null] = math.lgamma(p) - 0.5 * y2 - p * np.log(l1)
    mode[null] = (p - 1) / l1
    energy[null] = 0.5 * y2 + mode[null] * l1
    with np.errstate(divide="ignore"):  # at p = 1 the mode may sit at the origin
        log_mode = np.log(mode)
    # at p = 1 the volume term vanishes
    log_peak = (p - 1) * log_mode - energy if p > 1 else -energy
    log_lo = log_peak + log_mode - math.log(p)
    below = b < 0.0
    neg = np.flatnonzero(gen)[below]
    curv = na[below] ** 2 + (p - 1) / mode[neg] ** 2
    log_lo[neg] = log_peak[neg] + 0.5 * np.log(math.pi / (2.0 * curv))
    return log_mass, mode, log_peak, log_lo


def sweep_summaries(prob, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log mass, log mass_lo, log(peak * mode)) over unit directions, one
    per row, through _summaries.

    Equals the logs of radial_summary on every direction; feeds the polar
    partition estimator.
    """
    st = direction_batch(prob.A, prob.y, thetas)
    log_mass, mode, log_peak, log_lo = _summaries(st.beta, st.norm_A, st.l1, prob.p, prob.y_norm)
    with np.errstate(divide="ignore"):
        return log_mass, log_lo, log_peak + np.log(mode)
