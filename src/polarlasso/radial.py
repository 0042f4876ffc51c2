"""Per-direction radial law: closed-form mass, mode, peak and bracketing bounds.

Along a fixed unit direction theta the posterior restricted to the ray has
density proportional to exp(-phi(r)) with
phi(r) = (r^2 ||A theta||^2 + 2 r ||A theta|| beta + ||y||^2)/2 - (p-1) ln r,
so the per-direction mass is

    J_p(theta) = int_0^inf e^(-g(r)) r^(p-1) dr
               = e^(-||y||^2/2) H_(p-1)(beta) / ||A theta||^p,

where H is the Gaussian-tilted moment evaluated by the stable kernel.  The
law along a ray is the l = 0 case of the segment law of shifted.py (one
segment, [0, inf)), so every mass, mode, peak and bracket here, null
directions (A theta = 0) included, is a batch of one of it.  The scaled mass
Phi(beta) = ||theta||_1^p J_p(theta) depends on the direction only through
(beta, s); for large beta it admits the inverse-power expansion Phi(beta, M)
whose truncation error is certified by the coefficient c(p, M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._moments import log_gaussian_moment
from .problem import DirectionStats
from .shifted import ShiftBatch, _exp, log_concavity_bracket, segment_batch, shifted_log_summaries, shifted_modes
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


def _batch_of_one(stats: DirectionStats, y_norm: float) -> ShiftBatch:
    """The l = 0 segment batch of the direction of `stats`, from its one-row DirectionBatch."""
    return segment_batch(stats.batch, stats.theta[None, :], np.zeros(stats.theta.size), y_norm)


def mode_radius(stats: DirectionStats, p: int) -> float:
    """Unique stationary radius (-beta + sqrt(beta^2 + 4(p-1))) / (2 ||A theta||),
    evaluated without cancellation at large beta: a batch of one of
    shifted_modes at l = 0."""
    if stats.beta is None or stats.norm_A_theta == 0.0:
        raise ValueError("mode_radius needs A theta != 0")
    # ||y|| enters the mode only through beta
    return float(shifted_modes(_batch_of_one(stats, 0.0), p)[0])


def mode_radius_times_l1(beta: float, p: int) -> float:
    """r(theta) ||theta||_1 as a function of the offset when y = 0:
    beta (-beta + sqrt(beta^2 + 4(p-1))) / 2, rationalised at beta > 0 to
    2 (p-1) beta / (beta + sqrt(beta^2 + 4(p-1))), which does not cancel."""
    root = math.hypot(beta, 2.0 * math.sqrt(p - 1))
    if beta > 0:
        return 2.0 * (p - 1) * beta / (beta + root)
    return beta * (root - beta) / 2.0


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


def radial_summary(stats: DirectionStats, p: int, y_norm: float) -> RadialSummary:
    """Closed-form mass J_p(theta) with mode, peak, and bracket.

    A batch of one of shifted_log_summaries at l = 0, exponentiated: the
    segment kernel gives the mass at every finite beta and on a null
    direction.  The upper bound is the log-concavity constant; the lower
    bound is described in shifted_log_summaries.
    """
    batch = _batch_of_one(stats, y_norm)
    log_mass, log_lo, log_pm, mode, log_peak = (float(v[0]) for v in shifted_log_summaries(batch, p))
    h0 = batch.h0
    mass_lo, mass_hi = log_concavity_bracket(log_lo + h0, log_pm + h0, p)
    method = METHOD_NULL if stats.beta is None else METHOD_EXACT
    return RadialSummary(mode, _exp(log_peak + h0), _exp(log_mass + h0), mass_lo, mass_hi, method)
