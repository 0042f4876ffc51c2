"""Per-direction radial law: closed-form mass, mode, peak, bracketing bounds,
and exact sampling of the radius.

Along a fixed unit direction theta the posterior restricted to the ray has
density proportional to exp(-phi(r)) with
phi(r) = (r^2 ||A theta||^2 + 2 r ||A theta|| beta + ||y||^2)/2 - (p-1) ln r,
so the per-direction mass is

    J_p(theta) = int_0^inf e^(-g(r)) r^(p-1) dr
               = e^(-||y||^2/2) H_(p-1)(beta) / ||A theta||^p,

where H is the Gaussian-tilted moment evaluated by the stable kernel.  The
scaled mass Phi(beta) = ||theta||_1^p J_p(theta) depends on the direction
only through (beta, s); for large beta it admits the inverse-power expansion
Phi(beta, M) whose truncation error is certified by the coefficient c(p, M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._moments import log_gaussian_moment
from .problem import NULL_TOL, DirectionStats, direction_stats, radial_potential, ray_energy
from .special import ExpansionResult, expansion_coeff

# switch from the exact closed form to the inverse-power expansion; the exact
# form in naive double precision degrades past beta ~ 13.8 and the expansion
# with EXPANSION_TERMS terms is certified well below target tolerance there
BETA_SWITCH = 13.0
EXPANSION_TERMS = 17

METHOD_EXACT = "exact_phi"
METHOD_EXPANSION = "expansion_M"
METHOD_NULL = "null_direction"
METHOD_QUAD_FALLBACK = "quadrature_fallback"


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
    """Unique stationary radius (-beta + sqrt(beta^2 + 4(p-1))) / (2 ||A theta||)."""
    if stats.beta is None or stats.norm_A_theta == 0.0:
        raise ValueError("mode_radius needs A theta != 0; use mode_radius_null")
    b = stats.beta
    return (-b + math.sqrt(b * b + 4.0 * (p - 1))) / (2.0 * stats.norm_A_theta)


def mode_radius_null(l1_theta: float, p: int) -> float:
    """Mode of the pure exponential radial law on a null direction."""
    return (p - 1) / l1_theta


def mode_radius_any(stats: DirectionStats, p: int) -> float:
    """Mode radius with the null-direction case folded in."""
    if stats.beta is None:
        return mode_radius_null(stats.l1_theta, p)
    return mode_radius(stats, p)


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
    of such masses from the same multiple of M r)."""
    lo = peak_mode / p
    if p == 1:
        return lo, math.inf  # the log-concavity upper constant degenerates at p = 1
    return lo, peak_mode * math.factorial(p - 1) * math.exp(p - 1) / (p - 1) ** p


def radial_summary(stats: DirectionStats, p: int, y_norm: float) -> RadialSummary:
    """Closed-form mass J_p(theta) with mode, peak, and log-concavity bracket.

    Dispatch: null direction -> terminating factorial form; beta above the
    switch -> certified expansion; otherwise exact closed form.  If the result
    escapes its own bracket (float failure at extreme arguments), the mass is
    recomputed by adaptive quadrature and flagged.
    """
    l1 = stats.l1_theta
    if stats.beta is None:
        mode_r = mode_radius_null(l1, p)
        peak = math.exp(-radial_potential(stats, mode_r, p, y_norm))
        mass = math.factorial(p - 1) * math.exp(-0.5 * y_norm * y_norm) / l1**p
        lo, hi = log_concavity_bracket(peak * mode_r, p)
        return RadialSummary(mode_r, peak, mass, lo, hi, METHOD_NULL)

    mode_r = mode_radius(stats, p)
    if mode_r > 0.0:
        peak = math.exp(-radial_potential(stats, mode_r, p, y_norm))
    else:
        # only at p = 1 with beta >= 0: the radial density peaks at the origin
        peak = math.exp(-ray_energy(stats, 0.0, y_norm))
    lo, hi = log_concavity_bracket(peak * mode_r, p)
    if stats.beta > BETA_SWITCH:
        mass = mass_expansion(stats.beta, stats.s, y_norm, p).value / l1**p
        method = METHOD_EXPANSION
    else:
        mass = float(_exact_masses(np.array([stats.beta]), np.array([stats.norm_A_theta]), p, y_norm)[0])
        method = METHOD_EXACT
    inside = math.isfinite(mass) and mass >= lo * (1.0 - 1e-9)
    if inside and math.isfinite(hi):
        inside = mass <= hi * (1.0 + 1e-9)
    if not inside:
        mass = _mass_quadrature(stats, p, y_norm)
        method = METHOD_QUAD_FALLBACK
    return RadialSummary(mode_r, peak, mass, lo, hi, method)


def sweep_summaries(prob, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (mass, peak * mode) sweep over unit directions, one per row.

    Matches radial_summary on every direction (same dispatch and kernel); the
    exact branch (finite beta <= BETA_SWITCH, either sign) runs as array
    arithmetic, the expansion branch and null directions take the scalar
    path.  Feeds the polar partition estimator.
    """
    A = prob.A
    y = prob.y
    y_norm = prob.y_norm
    p = prob.p
    count = thetas.shape[0]
    A_thetas = thetas @ A.T
    norms = np.linalg.norm(A_thetas, axis=1)
    l1s = np.abs(thetas).sum(axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    if y_norm == 0.0:
        s = np.zeros(count)
    else:
        s = np.clip((A_thetas @ y) / (safe * y_norm), -1.0, 1.0)
    beta = l1s / safe - y_norm * s
    null = norms <= NULL_TOL

    mass = np.empty(count)
    peak_mode = np.empty(count)

    fast = (~null) & (beta <= BETA_SWITCH)
    if np.any(fast):
        b = beta[fast]
        na = norms[fast]
        mass[fast] = _exact_masses(b, na, p, y_norm)
        mode = (-b + np.sqrt(b * b + 4.0 * (p - 1))) / (2.0 * na)
        pot = 0.5 * (mode * mode * na * na + 2.0 * mode * na * b + y_norm * y_norm)
        if p > 1:
            pot = pot - (p - 1) * np.log(mode)
        peak_mode[fast] = np.exp(-pot) * mode

    rest = np.flatnonzero(~fast)
    for i in rest:
        summ = radial_summary(direction_stats(prob, thetas[i]), p, y_norm)
        mass[i] = summ.mass
        peak_mode[i] = summ.peak * summ.mode_r
    return mass, peak_mode


def _exact_masses(beta: np.ndarray, norm_A_theta: np.ndarray, p: int, y_norm: float) -> np.ndarray:
    """J_p = e^(-||y||^2/2) H_(p-1)(beta) / ||A theta||^p through the log-domain segment kernel."""
    log_h = log_gaussian_moment(p - 1, 0.0, math.inf, beta)
    return np.exp(log_h - 0.5 * y_norm * y_norm - p * np.log(norm_A_theta))


def _mass_quadrature(stats: DirectionStats, p: int, y_norm: float) -> float:
    """Adaptive-quadrature fallback for the per-direction mass."""
    from scipy.integrate import quad

    mode_r = mode_radius_any(stats, p)
    pot0 = radial_potential(stats, mode_r, p, y_norm)

    def density(r: float) -> float:
        if r <= 0.0:
            return 0.0
        return math.exp(-(radial_potential(stats, r, p, y_norm) - pot0))

    total = 0.0
    for a, b in [(0.0, mode_r), (mode_r, 5.0 * mode_r), (5.0 * mode_r, np.inf)]:
        val, _ = quad(density, a, b, limit=200)
        total += val
    return total * math.exp(-pot0)


def sample_radius(stats: DirectionStats, p: int, y_norm: float, rng: np.random.Generator) -> float:
    """Exact draw of the radius along theta, distributed as e^(-phi(r)).

    Rejection sampling against the gamma envelope tangent to the ray energy at
    the mode: proposals Gamma(p, scale r*/(p-1)) are accepted with probability
    exp(-||A theta||^2 (r - r*)^2 / 2), which is exact.  If the envelope is
    inefficient (large negative offsets) a monotone grid inverse CDF takes over.
    """
    if stats.beta is None:
        # pure Gamma(p, rate ||theta||_1) law
        return float(rng.gamma(p, 1.0 / stats.l1_theta))
    r_star = mode_radius(stats, p)
    rate = (p - 1) / r_star
    na2 = stats.norm_A_theta**2
    for _ in range(64):
        g = float(rng.gamma(p, 1.0 / rate))
        if math.log(rng.uniform()) <= -0.5 * na2 * (g - r_star) ** 2:
            return g
    return _sample_radius_grid(stats, p, y_norm, rng)


def _sample_radius_grid(
    stats: DirectionStats, p: int, y_norm: float, rng: np.random.Generator, n_grid: int = 4096
) -> float:
    """Tabulated inverse-CDF fallback on a grid spanning the mode and its tails."""
    r_star = mode_radius_any(stats, p)
    pot0 = radial_potential(stats, r_star, p, y_norm)
    hi = r_star
    while radial_potential(stats, hi, p, y_norm) - pot0 < 46.0:
        hi *= 2.0
    grid = np.linspace(1e-12 * r_star, hi, n_grid)
    dens = np.array([math.exp(-(radial_potential(stats, r, p, y_norm) - pot0)) for r in grid])
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    u = rng.uniform()
    return float(np.interp(u, cdf, grid))
