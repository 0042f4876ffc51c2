"""Whole-space partition-function estimators, bounds, and concentration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._moments import _check_count, _check_real, log_gaussian_moment
from .problem import ProblemInstance, chunk_buffers, laplace_from_uniforms, map_chunks, sample_sphere_batch
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
    _check_count("p", p)
    return math.log(2.0) + (p / 2.0) * math.log(math.pi) - math.lgamma(p / 2.0)


def sphere_surface(p: int) -> float:
    """Surface area of the unit sphere in R^p: 2 pi^(p/2) / Gamma(p/2), formed in logs."""
    return math.exp(_log_surface(p))


class _LogMean:
    """Mean and standard error of the weights e^w, fed each chunk of log
    weights w in chunk order; the sums are kept relative to the running
    maximum `scale` of w, so that no weight or square overflows."""

    def __init__(self, n_samples: int):
        self.n_samples = n_samples
        self.scale, self.n = -math.inf, 0
        self.total = self.total_sq = 0.0

    def add(self, w: np.ndarray) -> None:
        top = float(w.max())
        if top > self.scale:
            self.total *= math.exp(self.scale - top)
            self.total_sq *= math.exp(2.0 * (self.scale - top))
            self.scale = top
        e = np.exp(w - self.scale)
        self.total += float(e.sum())
        self.total_sq += float((e * e).sum())
        self.n += len(w)

    def mean(self, log_unit: float) -> float:
        """e^log_unit times the mean weight, formed in logs."""
        return _exp(log_unit + self.scale + math.log(self.total / self.n))

    def estimate(self, log_unit: float, method: str, z_min: float, z_max: float) -> PartitionEstimate:
        """Z = e^log_unit times the mean weight, with its standard error."""
        n, mean = self.n, self.total / self.n
        var = max(0.0, self.total_sq / n - mean * mean)
        if n > 1:
            var *= n / (n - 1)
        unit = _exp(log_unit + self.scale)
        return PartitionEstimate(unit * mean, unit * math.sqrt(var / n), self.n_samples, method, z_min, z_max)


def _polar_sweep(prob: ProblemInstance, l: np.ndarray, n_samples: int, rng,
                 method: str) -> tuple[PartitionEstimate, float, float]:
    """Z = e^h0 |S| E[J] over uniform directions for the density recentered
    at l, with |S| E[J] and h0 = h(0).  The bracket is e^h0 |S| times the
    sample minimum of mass_lo below and the log-concavity upper bound at the
    sample maximum of peak * mode above, so the estimate lies between them."""
    p = prob.p
    acc, lo_min, pm_max = _LogMean(n_samples), math.inf, -math.inf

    def work(gen, count):
        batch = unit_shift_batch(prob, l, sample_sphere_batch(gen, count, p))
        log_j, log_lo, log_pm, _, _ = shifted_log_summaries(batch)
        return log_j, float(log_lo.min()), float(log_pm.max()), batch.h0

    for log_j, lo, pm, h0 in map_chunks(work, rng, n_samples):
        acc.add(log_j)
        lo_min, pm_max = min(lo_min, lo), max(pm_max, pm)
    log_s = _log_surface(p)
    z_min, z_max = log_concavity_bracket(h0 + log_s + lo_min, h0 + log_s + pm_max, p)
    return acc.estimate(h0 + log_s, method, z_min, z_max), acc.mean(log_s), h0


def estimate_z_polar(prob: ProblemInstance, n_samples: int, rng) -> PartitionEstimate:
    """Polar Monte Carlo: |S| times the mean closed-form mass over uniform
    directions, with the bracket of _polar_sweep from the same sweep; the
    recentered route at l = 0."""
    return _polar_sweep(prob, np.zeros(prob.p), n_samples, rng, METHOD_POLAR)[0]


def estimate_z_shifted(prob: ProblemInstance, l: np.ndarray, n_samples: int, rng) -> ShiftedEstimate:
    """Recentered polar Monte Carlo: Z = e^(h(0)) |S| E[J_p(theta, l)], on the
    directions of estimate_z_polar for the same `rng`, so at l = 0 both
    routes return the same estimate and bracket."""
    est, z_f, h0 = _polar_sweep(prob, l, n_samples, rng, METHOD_SHIFTED)
    return ShiftedEstimate(**vars(est), z_f=z_f, h0=h0)


def estimate_z_naive(prob: ProblemInstance, n_samples: int, rng) -> PartitionEstimate:
    """Importance sampling with the l1 prior: 2^p E[exp(-||Ax - y||^2/2)], x ~ Laplace.
    Unbiased but heavy-variance at moderate dimension; the bracket is [0, inf]
    (no per-direction geometry is available on this route)."""
    p = prob.p
    buffers = chunk_buffers(n_samples, p, p, prob.n)

    def log_weights(gen, count):
        x, u, resid = buffers(count)
        np.matmul(laplace_from_uniforms(gen.random(out=u), x), prob.A.T, out=resid)
        resid -= prob.y
        return -0.5 * np.einsum("ij,ij->i", resid, resid)

    acc = _LogMean(n_samples)
    for w in map_chunks(log_weights, rng, n_samples):
        acc.add(w)
    return acc.estimate(p * math.log(2.0), METHOD_NAIVE, 0.0, math.inf)


def concentration_prob(q: float, p: int) -> float:
    """Lower bound P(q, p) = 1 - p Gamma(p, (p-1) q) e^(p-1) / (p-1)^p on the
    posterior probability of { ||x - l|| <= q r(theta) }, formed in logs with
    Gamma(p, x) = G_(p-1)(x, inf, beta = 1, kappa = 0) from the kernel.
    Below q ~ 1.647 at p = 7 (1.386 at p = 20, 1.145 at p = 200) the bound
    is negative, so vacuous: P(1, 7) = -3.40."""
    _check_real("q", q, "positive")
    _check_count("p", p, 2)
    log_gamma = float(log_gaussian_moment(p - 1, (p - 1) * q, math.inf, 1.0, 0.0))
    return 1.0 - p * math.exp(log_gamma + p - 1 - p * math.log(p - 1))


def lasso_ball_volume(z: float, p: int) -> float:
    """Lebesgue volume of the unit ball of the mass seminorm: Z / p."""
    _check_count("p", p)
    _check_real("z", z, "positive")
    return z / p
