"""Whole-space partition-function estimators, bounds, and concentration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._moments import log_gaussian_moment
from .problem import (ProblemInstance, _check_count, chunk_buffers, laplace_from_uniforms, map_chunks,
                      sample_sphere_batch)
from .shifted import _exp, log_concavity_bracket, shifted_log_summaries, unit_shift_batch

METHOD_POLAR = "polar_mc"
METHOD_NAIVE = "naive_mc"
METHOD_SHIFTED = "shifted_mc"


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


def _log_surface(p: int) -> float:
    """log of the surface area of the unit sphere in R^p: log 2 + (p/2) log pi - lgamma(p/2)."""
    if p < 1:
        raise ValueError("p must be positive")
    return math.log(2.0) + (p / 2.0) * math.log(math.pi) - math.lgamma(p / 2.0)


def sphere_surface(p: int) -> float:
    """Surface area of the unit sphere in R^p: 2 pi^(p/2) / Gamma(p/2), formed in logs."""
    return math.exp(_log_surface(p))


def _log_mean(chunks) -> tuple[float, float, float]:
    """(scale, mean, std_err) of the weights e^w over every chunk of log weights w.

    The weights are summed relative to the running maximum of w, so that no
    weight or square overflows: the sample mean of the weights is
    e^scale * mean and its standard error e^scale * std_err.
    """
    scale = -math.inf
    total = total_sq = 0.0
    n = 0
    for w in chunks:
        top = float(w.max())
        if top > scale:
            total *= math.exp(scale - top)
            total_sq *= math.exp(2.0 * (scale - top))
            scale = top
        e = np.exp(w - scale)
        total += float(e.sum())
        total_sq += float((e * e).sum())
        n += len(w)
    mean = total / n
    var = max(0.0, total_sq / n - mean * mean)
    if n > 1:
        var *= n / (n - 1)
    return scale, mean, math.sqrt(var / n)


def _polar_sweep(prob: ProblemInstance, l: np.ndarray, n_samples: int, rng,
                 method: str) -> tuple[PartitionEstimate, float, float]:
    """Z = e^h0 |S| E[J] over uniform directions for the density recentered
    at l, with |S| E[J] and h0 = h(0).

    Every row of a chunk comes from unit_shift_batch and
    shifted_log_summaries.  The bracket is e^h0 |S| times the sample minimum
    of mass_lo below and the log-concavity upper bound at the sample maximum
    of peak * mode above, so the estimate lies between them.
    """
    p = prob.p
    lo_min, pm_max, h0 = math.inf, -math.inf, math.nan

    def work(gen, count):
        batch = unit_shift_batch(prob, l, sample_sphere_batch(gen, count, p))
        log_j, log_lo, log_pm, _, _ = shifted_log_summaries(batch)
        return log_j, float(log_lo.min()), float(log_pm.max()), batch.h0

    def log_masses():
        nonlocal lo_min, pm_max, h0
        for log_j, lo, pm, h0 in map_chunks(work, rng, n_samples):
            lo_min = min(lo_min, lo)
            pm_max = max(pm_max, pm)
            yield log_j

    scale, mean, err = _log_mean(log_masses())
    log_s = _log_surface(p)
    unit = _exp(h0 + log_s + scale)
    z_min, z_max = log_concavity_bracket(h0 + log_s + lo_min, h0 + log_s + pm_max, p)
    est = PartitionEstimate(unit * mean, unit * err, n_samples, method, z_min, z_max)
    return est, _exp(log_s + scale + math.log(mean)), h0


def estimate_z_polar(prob: ProblemInstance, n_samples: int, rng) -> PartitionEstimate:
    """Polar Monte Carlo: |S| times the mean closed-form mass over uniform
    directions, with the bracket of _polar_sweep from the same sweep; the
    recentered route at l = 0."""
    return _polar_sweep(prob, np.zeros(prob.p), n_samples, rng, METHOD_POLAR)[0]


def estimate_z_shifted(prob: ProblemInstance, l: np.ndarray, n_samples: int, rng) -> ShiftedEstimate:
    """Recentered polar Monte Carlo: Z = e^(h(0)) |S| E[J_p(theta, l)].

    The directions are those of estimate_z_polar for the same `rng`, so at
    l = 0 both routes return the same estimate and bracket.
    """
    est, z_f, h0 = _polar_sweep(prob, l, n_samples, rng, METHOD_SHIFTED)
    return ShiftedEstimate(**vars(est), z_f=z_f, h0=h0)


def estimate_z_naive(prob: ProblemInstance, n_samples: int, rng) -> PartitionEstimate:
    """Importance sampling with the l1 prior: 2^p E[exp(-||Ax - y||^2/2)], x ~ Laplace.

    Unbiased but heavy-variance at moderate dimension; the bound fields are
    copied as infinite (no per-direction geometry is available on this route).
    """
    p = prob.p
    buffers = chunk_buffers(n_samples, p, p, prob.n)

    def log_weights(gen, count):
        x, u, resid = buffers(count)
        np.matmul(laplace_from_uniforms(gen.random(out=u), x), prob.A.T, out=resid)
        resid -= prob.y
        return -0.5 * np.einsum("ij,ij->i", resid, resid)

    scale, mean, err = _log_mean(map_chunks(log_weights, rng, n_samples))
    unit = _exp(p * math.log(2.0) + scale)
    return PartitionEstimate(unit * mean, unit * err, n_samples, METHOD_NAIVE, 0.0, math.inf)


def concentration_prob(q: float, p: int) -> float:
    """Lower bound P(q, p) = 1 - p Gamma(p, (p-1) q) e^(p-1) / (p-1)^p on the
    posterior probability of { ||x - l|| <= q r(theta) }, formed in logs with
    Gamma(p, x) = G_(p-1)(x, inf, beta = 1, kappa = 0) from the kernel."""
    if not 0 < q < math.inf:
        raise ValueError("q must be positive and finite")
    if p < 2:
        raise ValueError("p must be at least 2")
    log_gamma = float(log_gaussian_moment(p - 1, (p - 1) * q, math.inf, 1.0, 0.0))
    return 1.0 - p * math.exp(log_gamma + p - 1 - p * math.log(p - 1))


def lasso_ball_volume(z: float, p: int) -> float:
    """Lebesgue volume of the unit ball of the mass seminorm: Z / p."""
    _check_count("p", p)
    if not 0 < z < math.inf:
        raise ValueError("z must be positive and finite")
    return z / p
