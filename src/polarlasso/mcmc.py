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
from dataclasses import dataclass, field

import numpy as np

from .problem import ProblemInstance, sample_laplace
from .shifted import build_shift_batch, sample_posterior, shifted_modes

KIND_INDEPENDENT = "independent_laplace"
KIND_RANDOM_WALK = "random_walk"

_BLOCK = 65536
# states diagnosed per array pass, so the temporaries stay near 1 MB
_DIAG_ROWS = 4096


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
    # states diagnosed (the initial one and each accepted one), those whose
    # direction lies in the null space of A, those at the centre (q r = inf),
    # and proposal blocks
    meta: dict = field(default_factory=dict)

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
    """Run one chain and diagnose it.

    The loop only decides accept or reject and records which iterations of
    the block accepted.  After each block the accepted states are rebuilt
    exactly (the random walk's as a running sum of its accepted steps, which
    adds in the loop's order) and diagnosed in one batch.  Returns the
    per-iteration trace (norms, radial thresholds, criterion) and the
    summary diagnosis.  Fixed seeds reproduce everything bit-exactly; the
    proposal stream is consumed in fixed-size blocks independent of outcomes.
    """
    p = prob.p
    A = prob.A
    y = prob.y
    n_iter = cfg.n_iter
    rng = np.random.default_rng(cfg.seed)
    l = np.zeros(p) if cfg.shift_l is None else np.asarray(cfg.shift_l, dtype=float)

    x = np.zeros(p) if cfg.init is None else np.asarray(cfg.init, dtype=float).copy()
    Ax = A @ x
    mis = float(Ax @ Ax) - 2.0 * float(Ax @ y)  # ||Ax-y||^2 - ||y||^2, constant dropped
    l1x = float(np.abs(x).sum())

    norm_x = np.empty(n_iter)
    q_r = np.empty(n_iter)
    sum_x = np.zeros(p)
    accepted = 0
    meta = {"states_diagnosed": 0, "null_states": 0, "centre_states": 0, "blocks": 0}

    def diagnose(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        norm, qr, null = _state_diagnosis(prob, X, l, cfg.q)
        meta["states_diagnosed"] += len(X)
        meta["null_states"] += int(np.count_nonzero(null))
        meta["centre_states"] += int(np.count_nonzero(qr == math.inf))
        return norm, qr

    (cur_norm,), (cur_qr,) = diagnose(x[None])

    is_kind = cfg.kind == KIND_INDEPENDENT
    # the kernels of x + s, v @ w and np.abs(v).sum() called directly, on
    # float64 scalars: the same IEEE operations in the same order, so every
    # accept decision is the same
    add, dot, absolute, total = np.add, np.dot, np.abs, np.add.reduce
    done = 0
    while done < n_iter:
        block = min(_BLOCK, n_iter - done)
        acc = []
        if is_kind:
            props = sample_laplace(rng, (block, p))
            prop_Ax = props @ A.T
            prop_mis = np.einsum("ij,ij->i", prop_Ax, prop_Ax) - 2.0 * (prop_Ax @ y)
            log_u = np.log(rng.uniform(size=block))
            for i, (lu, mis_new) in enumerate(zip(log_u, prop_mis)):
                if lu <= -0.5 * (mis_new - mis):
                    mis = mis_new
                    acc.append(i)
            idx = np.array(acc, dtype=np.intp)
            states = np.concatenate([x[None], props[idx]])
        else:
            steps = rng.normal(0.0, math.sqrt(cfg.rw_variance), size=(block, p))
            step_Ax = steps @ A.T
            log_u = np.log(rng.uniform(size=block))
            x0 = x
            for i, (step, step_A, lu) in enumerate(zip(steps, step_Ax, log_u)):
                x_new = add(x, step)
                Ax_new = add(Ax, step_A)
                mis_new = dot(Ax_new, Ax_new) - 2.0 * dot(Ax_new, y)
                l1_new = total(absolute(x_new))
                if lu <= -0.5 * (mis_new - mis) - (l1_new - l1x):
                    x = x_new
                    Ax = Ax_new
                    mis = mis_new
                    l1x = l1_new
                    acc.append(i)
            idx = np.array(acc, dtype=np.intp)
            states = np.cumsum(np.concatenate([x0[None], steps[idx]]), axis=0)
        # row 0 is the state the block started at, row k the k-th accepted one
        norm, qr = diagnose(states[1:])
        runs = np.diff(idx, prepend=0, append=block)
        norm_x[done:done + block] = np.repeat(np.concatenate(([cur_norm], norm)), runs)
        q_r[done:done + block] = np.repeat(np.concatenate(([cur_qr], qr)), runs)
        sum_x += runs @ states
        accepted += idx.size
        if idx.size:
            x = states[-1].copy()
            cur_norm, cur_qr = norm[-1], qr[-1]
        meta["blocks"] += 1
        done += block

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
        meta=meta,
    )
    return ChainTrace(norm_x=norm_x, q_r_theta=q_r, criterion=crit), diag


def _state_diagnosis(prob: ProblemInstance, X: np.ndarray, l: np.ndarray,
                     q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(||x - l||, q r(theta, l), null) for every state x in the rows of X.

    theta is the direction of x - l and r the mode radius of the shifted
    radial law along it, through build_shift_batch and shifted_modes (at
    l = 0 the centred law).  A state at the centre gets r = inf; `null`
    marks states whose direction lies in the null space of A.  At most
    _DIAG_ROWS rows are processed at a time.
    """
    n = len(X)
    norm = np.empty(n)
    qr = np.full(n, math.inf)
    null = np.zeros(n, dtype=bool)
    for s in range(0, n, _DIAG_ROWS):
        d = X[s:s + _DIAG_ROWS] - l
        l2 = np.linalg.norm(d, axis=1)
        norm[s:s + len(d)] = l2
        live = np.flatnonzero(l2 > 0.0)
        if live.size:
            batch = build_shift_batch(prob, l, d[live])
            qr[live + s] = q * shifted_modes(batch, prob.p)
            null[live + s] = batch.null
    return norm, qr, null


def criterion_coverage(prob: ProblemInstance, q: float, n_draws: int, rng,
                       l: np.ndarray | None = None) -> float:
    """Empirical fraction of exact posterior draws with ||x - l|| <= q r(theta, l),
    the draws diagnosed in one batch."""
    if n_draws < 1:
        raise ValueError("need n_draws >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    l = np.zeros(prob.p) if l is None else np.asarray(l, dtype=float)
    X = np.array([sample_posterior(prob, l, rng) for _ in range(n_draws)])
    norm, qr, _ = _state_diagnosis(prob, X, l, q)
    return int(np.count_nonzero(norm <= qr)) / n_draws
