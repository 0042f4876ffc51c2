"""Whole-space partition-function estimators, bounds, and concentration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import ProblemInstance, chunk_generators, sample_laplace, sample_sphere_batch
from .radial import log_concavity_bracket, sweep_summaries
from .shifted import _exp, build_shift_batch, shifted_log_masses, shifted_log_peak_modes
from .special import upper_inc_gamma_int

METHOD_POLAR = "polar_mc"
METHOD_NAIVE = "naive_mc"
METHOD_SHIFTED = "shifted_mc"

# deterministic chunking of the seed stream: estimates are identical no matter
# how many workers consume the chunks
CHUNK = 8192


@dataclass(frozen=True)
class PartitionEstimate:
    z: float
    std_err: float
    n_samples: int
    method: str
    z_min: float
    z_max: float


@dataclass(frozen=True)
class ShiftedEstimate(PartitionEstimate):
    """Z = e^(h(0)) Z_f from the density recentered at l; z, std_err and the
    bracket are in units of Z, z_f is |S| times the mean shifted mass."""

    z_f: float
    h0: float


def sphere_surface(p: int) -> float:
    """Surface area of the unit sphere in R^p: 2 pi^(p/2) / Gamma(p/2)."""
    if p < 1:
        raise ValueError("p must be positive")
    return 2.0 * math.pi ** (p / 2.0) / math.gamma(p / 2.0)


def _mean_and_err(total: float, total_sq: float, n: int) -> tuple[float, float]:
    """Sample mean and its standard error from the running sums of w and w^2."""
    mean = total / n
    var = max(0.0, total_sq / n - mean * mean)
    if n > 1:
        var *= n / (n - 1)
    return mean, math.sqrt(var / n)


def estimate_z_polar(prob: ProblemInstance, n_samples: int, rng) -> PartitionEstimate:
    """Polar Monte Carlo: |S| times the mean closed-form mass over uniform directions.

    The same sweep supplies the bracket: z_min is |S| times the sample
    minimum of the per-direction lower bounds mass_lo, z_max the
    log-concavity upper bound at the sample maximum of peak * mode; the
    estimate always lies between them.
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    p = prob.p
    surface = sphere_surface(p)
    n_chunks = (n_samples + CHUNK - 1) // CHUNK
    gens = chunk_generators(rng, n_chunks)
    total = 0.0
    total_sq = 0.0
    lo_min = math.inf
    mr_max = -math.inf
    left = n_samples
    for gen in gens:
        take = min(CHUNK, left)
        left -= take
        thetas = sample_sphere_batch(gen, take, p)
        mass, peak_mode, mass_lo = sweep_summaries(prob, thetas)
        total += float(mass.sum())
        total_sq += float((mass * mass).sum())
        lo_min = min(lo_min, float(mass_lo.min()))
        mr_max = max(mr_max, float(peak_mode.max()))
    mean, err = _mean_and_err(total, total_sq, n_samples)
    z_max = log_concavity_bracket(surface * mr_max, p)[1]
    return PartitionEstimate(surface * mean, surface * err, n_samples, METHOD_POLAR, surface * lo_min, z_max)


def estimate_z_shifted(prob: ProblemInstance, l: np.ndarray, n_samples: int, rng) -> ShiftedEstimate:
    """Recentered polar Monte Carlo: Z = e^(h(0)) |S| E[J_p(theta, l)].

    Directions are uniform sphere draws taken in order from one stream of
    `rng` (a Generator or a seed), evaluated CHUNK rows at a time.  Masses
    are summed relative to a running log scale so that no shift overflows.
    The bracket is the sample inf/sup of peak * mode times the log-concavity
    constants, as in estimate_z_polar.
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    p = prob.p
    scale = -math.inf
    total = 0.0
    total_sq = 0.0
    lpm_min = math.inf
    lpm_max = -math.inf
    left = n_samples
    while left:
        take = min(CHUNK, left)
        left -= take
        batch = build_shift_batch(prob, l, sample_sphere_batch(rng, take, p))
        log_j = shifted_log_masses(batch, p)
        top = float(log_j.max())
        if top > scale:
            total *= math.exp(scale - top)
            total_sq *= math.exp(2.0 * (scale - top))
            scale = top
        w = np.exp(log_j - scale)
        total += float(w.sum())
        total_sq += float((w * w).sum())
        log_pm = shifted_log_peak_modes(batch, p)
        lpm_min = min(lpm_min, float(log_pm.min()))
        lpm_max = max(lpm_max, float(log_pm.max()))
    h0 = batch.h0
    mean, err = _mean_and_err(total, total_sq, n_samples)
    surface = sphere_surface(p)
    unit = surface * _exp(h0 + scale)
    z_min = log_concavity_bracket(surface * _exp(h0 + lpm_min), p)[0]
    z_max = log_concavity_bracket(surface * _exp(h0 + lpm_max), p)[1]
    z_f = _exp(scale + math.log(surface * mean))
    return ShiftedEstimate(unit * mean, unit * err, n_samples, METHOD_SHIFTED, z_min, z_max, z_f=z_f, h0=h0)


def estimate_z_naive(prob: ProblemInstance, n_samples: int, rng) -> PartitionEstimate:
    """Importance sampling with the l1 prior: 2^p E[exp(-||Ax - y||^2/2)], x ~ Laplace.

    Unbiased but heavy-variance at moderate dimension; the bound fields are
    copied as infinite (no per-direction geometry is available on this route).
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    p = prob.p
    n_chunks = (n_samples + CHUNK - 1) // CHUNK
    gens = chunk_generators(rng, n_chunks)
    total = 0.0
    total_sq = 0.0
    left = n_samples
    for gen in gens:
        take = min(CHUNK, left)
        left -= take
        x = sample_laplace(gen, (take, p))
        resid = x @ prob.A.T - prob.y
        w = np.exp(-0.5 * np.einsum("ij,ij->i", resid, resid))
        total += float(w.sum())
        total_sq += float((w * w).sum())
    mean, err = _mean_and_err(total, total_sq, n_samples)
    scale = 2.0**p
    return PartitionEstimate(scale * mean, scale * err, n_samples, METHOD_NAIVE, 0.0, math.inf)


def concentration_prob(q: float, p: int) -> float:
    """Lower bound P(q, p) = 1 - p Gamma(p, (p-1) q) e^(p-1) / (p-1)^p on the
    posterior probability of { ||x - l|| <= q r(theta) }."""
    if q <= 0:
        raise ValueError("q must be positive")
    if p < 2:
        raise ValueError("p must be at least 2")
    tail = p * upper_inc_gamma_int(p, (p - 1) * q) * math.exp(p - 1) / (p - 1) ** p
    return 1.0 - tail


def lasso_ball_volume(z: float, p: int) -> float:
    """Lebesgue volume of the unit ball of the mass seminorm: Z / p."""
    if z <= 0:
        raise ValueError("z must be positive")
    return z / p
