"""Closed forms of the centred radial law in the offset beta.

Along a fixed unit direction theta the posterior restricted to the ray has
density proportional to exp(-phi(r)) with
phi(r) = (r^2 ||A theta||^2 + 2 r ||A theta|| beta + ||y||^2)/2 - (p-1) ln r,
so the per-direction mass is

    J_p(theta) = int_0^inf e^(-g(r)) r^(p-1) dr
               = e^(-||y||^2/2) H_(p-1)(beta) / ||A theta||^p,

where H is the Gaussian-tilted moment evaluated by the stable kernel.  This
law is the l = 0 case of the segment law of shifted.py, which reads the
mass, mode, peak and bracket of any direction (radial_summary).  The scaled
mass Phi(beta) = ||theta||_1^p J_p(theta) depends on the direction only
through (beta, s); for large beta it admits the inverse-power expansion
Phi(beta, M) whose truncation error is certified by the coefficient
c(p, M).  These closed forms, and the mode times ||theta||_1 at y = 0, are
what the curves command tabulates.  The coefficients c(p, r) are the one
special function the kernel in _moments does not evaluate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from ._moments import _check_count, _check_real, log_gaussian_moment

# default number of terms M of the inverse-power expansion
EXPANSION_TERMS = 17


@dataclass(frozen=True)
class ExpansionResult:
    """Truncated asymptotic value together with a guaranteed error bound."""

    value: float
    remainder_bound: float


# typed: True and 3.0 must miss the entries of 1 and 3, and reach the check
@functools.lru_cache(maxsize=4096, typed=True)
def expansion_coeff_exact(p: int, r: int) -> Fraction:
    """c(p, r) = sum_k C(p-1, k) (-1)^(p-1-k) ((k+1)/2 - 1)...((k+1)/2 - r), exactly."""
    _check_count("p", p)
    _check_count("r", r)
    total = Fraction(0)
    for k in range(p):
        prod = Fraction(1)
        half = Fraction(k + 1, 2)
        for j in range(1, r + 1):
            prod *= half - j
        total += math.comb(p - 1, k) * (-1) ** (p - 1 - k) * prod
    return total


def expansion_coeff(p: int, r: int) -> float:
    """c(p, r) as a float; the defining alternating sum cancels catastrophically
    in floating point, so it is evaluated in exact rational arithmetic first."""
    return float(expansion_coeff_exact(p, r))


def mode_radius_times_l1(beta: float, p: int) -> float:
    """r(theta) ||theta||_1 as a function of the offset when y = 0:
    beta (-beta + sqrt(beta^2 + 4(p-1))) / 2, rationalised at beta > 0 to
    2 (p-1) beta / (beta + sqrt(beta^2 + 4(p-1))), which does not cancel."""
    _check_count("p", p)
    _check_real("beta", beta)
    root = math.hypot(beta, 2.0 * math.sqrt(p - 1))
    if beta > 0:
        return 2.0 * (p - 1) * beta / (beta + root)
    return beta * (root - beta) / 2.0


def mass_closed_form(beta: float, s: float, y_norm: float, p: int) -> float:
    """Scaled mass Phi(beta) = ||theta||_1^p J_p(theta) for finite beta >= 0.

    Evaluates e^(-||y||^2/2) (beta + s ||y||)^p H_(p-1)(beta), with H taken
    from the log-domain segment kernel on [0, inf), as every mass in use is.
    """
    _check_count("p", p)
    _check_real("beta", beta, "non-negative")
    _check_real("s", s)
    _check_real("y_norm", y_norm, "non-negative")
    log_h = float(log_gaussian_moment(p - 1, 0.0, math.inf, beta))
    return math.exp(log_h - 0.5 * y_norm * y_norm) * (beta + s * y_norm) ** p


def mass_expansion(beta: float, s: float, y_norm: float, p: int, m_terms: int = EXPANSION_TERMS) -> ExpansionResult:
    """Inverse-power expansion Phi(beta, M) of the scaled mass, with remainder bound.

    value = e^(-||y||^2/2) (1 + s||y||/beta)^p [(p-1)! +
            2^(p-1) sum_{r=p}^{M-1} c(p, r) (beta^2/2)^(p-1-r)]
    |remainder| <= e^(-||y||^2/2) (1 + s||y||/beta)^p 2^(p-1) |c(p, M)| / (beta^2/2)^(M-p+1)
    """
    _check_count("p", p)
    _check_count("m_terms", m_terms, p + 1)
    _check_real("beta", beta, "positive")
    _check_real("s", s)
    _check_real("y_norm", y_norm, "non-negative")
    x = beta * beta / 2.0
    prefactor = math.exp(-0.5 * y_norm * y_norm) * (1.0 + y_norm * s / beta) ** p
    core = math.factorial(p - 1) + (2.0 ** (p - 1)) * math.fsum(
        expansion_coeff(p, r) * x ** (p - 1 - r) for r in range(p, m_terms)
    )
    bound = (2.0 ** (p - 1)) * abs(expansion_coeff(p, m_terms)) / x ** (m_terms - (p - 1))
    return ExpansionResult(value=prefactor * core, remainder_bound=prefactor * bound)
