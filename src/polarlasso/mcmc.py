"""Metropolis-Hastings samplers for the posterior and the radial-mode
convergence diagnosis.

Two proposal mechanisms target c(x) ~ exp(-||Ax - y||^2/2 - ||x||_1):

  * independent_laplace: state-independent unit-Laplace proposals; the l1
    terms cancel analytically, so acceptance uses only the misfit difference.
    The chain is uniformly ergodic with total-variation rate (1 - Z/2^p)^t.
  * random_walk: isotropic Gaussian increments with tunable variance.

Per iteration the diagnosis records whether ||x - l|| <= q r(theta, l), where
r is the per-direction mode radius of the (shifted) radial law: draws from
the stationary law satisfy that bound with probability at least P(q, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._moments import tilted_peak
from .problem import ProblemInstance, sample_laplace
from .shifted import build_shift_context, sample_posterior, shifted_mode_radius

KIND_INDEPENDENT = "independent_laplace"
KIND_RANDOM_WALK = "random_walk"

_BLOCK = 65536
_NULL_TOL = 1e-12


@dataclass(frozen=True)
class ChainConfig:
    kind: str
    n_iter: int
    rw_variance: float = 0.5
    q: float = 5.0
    seed: int = 0
    init: np.ndarray | None = None
    shift_l: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (KIND_INDEPENDENT, KIND_RANDOM_WALK):
            raise ValueError(f"unknown chain kind {self.kind!r}")
        if self.n_iter < 1:
            raise ValueError("n_iter must be positive")
        if self.rw_variance <= 0:
            raise ValueError("rw_variance must be positive")


@dataclass(frozen=True)
class ChainTrace:
    """Per-iteration series; states themselves are not retained."""

    norm_x: np.ndarray  # ||x^(t) - l||
    q_r_theta: np.ndarray  # q * r(theta^(t), l)
    criterion: np.ndarray  # norm_x <= q_r_theta


@dataclass(frozen=True)
class ChainDiagnosis:
    first_hit: int | None
    last_violation: int | None
    satisfaction_rate: float
    running_mean: np.ndarray
    mean_norm: float
    acceptance_rate: float
    tv_bound: np.ndarray | None = None
    tv_constant: float | None = None

    @property
    def permanent_hit(self) -> int:
        """First iteration from which the criterion holds to the end."""
        return 0 if self.last_violation is None else self.last_violation + 1


def tv_bound(t: int, z: float, p: int) -> float:
    """Uniform-ergodicity total-variation bound (1 - z/2^p)^t of the
    independent sampler."""
    if not 0.0 < z < 2.0**p:
        raise ValueError("z must lie in (0, 2^p)")
    return (1.0 - z / 2.0**p) ** t


def run_chain(prob: ProblemInstance, cfg: ChainConfig, z_estimate: float | None = None) -> tuple[ChainTrace, ChainDiagnosis]:
    """Run one chain and diagnose it online.

    Returns the per-iteration trace (norms, radial thresholds, criterion) and
    the summary diagnosis.  Fixed seeds reproduce everything bit-exactly; the
    proposal stream is consumed in fixed-size blocks independent of outcomes.
    """
    p = prob.p
    A = prob.A
    y = prob.y
    y_norm = prob.y_norm
    n_iter = cfg.n_iter
    rng = np.random.default_rng(cfg.seed)
    l = np.zeros(p) if cfg.shift_l is None else np.asarray(cfg.shift_l, dtype=float)
    use_shift = bool(np.any(l))
    Al = A @ l

    x = np.zeros(p) if cfg.init is None else np.asarray(cfg.init, dtype=float).copy()
    Ax = A @ x
    mis = float(Ax @ Ax) - 2.0 * float(Ax @ y)  # ||Ax-y||^2 - ||y||^2, constant dropped
    l1x = float(np.abs(x).sum())

    norm_x = np.empty(n_iter)
    q_r = np.empty(n_iter)
    accepted = 0

    sum_x = np.zeros(p)
    run_len = 0  # iterations recorded at the current state

    def diag_of_state() -> tuple[float, float]:
        """(||x - l||, q r(theta, l)) for the current state."""
        x_rel = x - l
        l2 = float(np.linalg.norm(x_rel))
        if l2 == 0.0:
            return 0.0, math.inf  # bound holds trivially at the center
        if use_shift:
            ctx = build_shift_context(prob, l, x_rel)
            return l2, cfg.q * shifted_mode_radius(ctx, p)
        Ax_rel = Ax  # l = 0, so A x_rel = A x
        nAx = math.sqrt(float(Ax_rel @ Ax_rel))
        l1_rel = float(np.abs(x_rel).sum())
        if nAx / l2 <= _NULL_TOL:
            return l2, cfg.q * (p - 1) * l2 / l1_rel
        s = 0.0 if y_norm == 0.0 else float(Ax_rel @ y) / (nAx * y_norm)
        beta = l1_rel / nAx - y_norm * s
        return l2, cfg.q * tilted_peak(p - 1, beta) * l2 / nAx

    cur_norm, cur_qr = diag_of_state()

    is_kind = cfg.kind == KIND_INDEPENDENT
    done = 0
    while done < n_iter:
        block = min(_BLOCK, n_iter - done)
        if is_kind:
            props = sample_laplace(rng, (block, p))
            prop_Ax = props @ A.T
            prop_mis = np.einsum("ij,ij->i", prop_Ax, prop_Ax) - 2.0 * (prop_Ax @ y)
            log_u = np.log(rng.uniform(size=block))
            for i in range(block):
                if log_u[i] <= -0.5 * (prop_mis[i] - mis):
                    sum_x += run_len * x
                    run_len = 0
                    x = props[i]
                    Ax = prop_Ax[i]
                    mis = float(prop_mis[i])
                    accepted += 1
                    cur_norm, cur_qr = diag_of_state()
                norm_x[done + i] = cur_norm
                q_r[done + i] = cur_qr
                run_len += 1
        else:
            steps = rng.normal(0.0, math.sqrt(cfg.rw_variance), size=(block, p))
            step_Ax = steps @ A.T
            log_u = np.log(rng.uniform(size=block))
            for i in range(block):
                x_new = x + steps[i]
                Ax_new = Ax + step_Ax[i]
                mis_new = float(Ax_new @ Ax_new) - 2.0 * float(Ax_new @ y)
                l1_new = float(np.abs(x_new).sum())
                if log_u[i] <= -0.5 * (mis_new - mis) - (l1_new - l1x):
                    sum_x += run_len * x
                    run_len = 0
                    x = x_new
                    Ax = Ax_new
                    mis = mis_new
                    l1x = l1_new
                    accepted += 1
                    cur_norm, cur_qr = diag_of_state()
                norm_x[done + i] = cur_norm
                q_r[done + i] = cur_qr
                run_len += 1
        done += block
    sum_x += run_len * x

    crit = norm_x <= q_r
    viol = np.flatnonzero(~crit)
    hits = np.flatnonzero(crit)
    first_hit = int(hits[0]) if hits.size else None
    last_violation = int(viol[-1]) if viol.size else None
    satisfaction = float(crit.mean())
    mean = sum_x / n_iter
    tv_series = None
    tv_const = None
    if is_kind and z_estimate is not None:
        tv_const = 1.0 - z_estimate / 2.0**p
        tv_series = tv_const ** np.arange(1, n_iter + 1)
    diag = ChainDiagnosis(
        first_hit=first_hit,
        last_violation=last_violation,
        satisfaction_rate=satisfaction,
        running_mean=mean,
        mean_norm=float(np.linalg.norm(mean)),
        acceptance_rate=accepted / n_iter,
        tv_bound=tv_series,
        tv_constant=tv_const,
    )
    return ChainTrace(norm_x=norm_x, q_r_theta=q_r, criterion=crit), diag


def criterion_coverage(prob: ProblemInstance, q: float, n_draws: int, rng,
                       l: np.ndarray | None = None) -> float:
    """Empirical fraction of exact posterior draws with ||x - l|| <= q r(theta, l)."""
    if n_draws < 1:
        raise ValueError("need n_draws >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    p = prob.p
    l = np.zeros(p) if l is None else np.asarray(l, dtype=float)
    good = 0
    for _ in range(n_draws):
        x = sample_posterior(prob, l, rng)
        x_rel = x - l
        norm = float(np.linalg.norm(x_rel))
        if norm == 0.0:
            good += 1
            continue
        ctx = build_shift_context(prob, l, x_rel)
        r = shifted_mode_radius(ctx, p)
        if norm <= q * r:
            good += 1
    return good / n_draws
