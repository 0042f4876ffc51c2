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

from .problem import ProblemInstance, _check_point, _check_positive, laplace_from_uniforms
from .shifted import sample_posterior_batch, shifted_modes, unit_shift_batch

KIND_INDEPENDENT = "independent_laplace"
KIND_RANDOM_WALK = "random_walk"

_BLOCK = 65536
# random-walk proposals decided per array pass (see _random_walk_block)
_RUN = 32
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
        if isinstance(self.n_iter, bool) or not isinstance(self.n_iter, (int, np.integer)) or self.n_iter < 1:
            raise ValueError("n_iter must be a positive integer")
        _check_positive("rw_variance", self.rw_variance)
        _check_positive("q", self.q)
        for name, state in (("init", self.init), ("shift_l", self.shift_l)):
            if state is not None and not np.all(np.isfinite(state)):
                raise ValueError(f"{name} must be finite")


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
    # states diagnosed (the initial one and each accepted one), those whose
    # direction lies in the null space of A, those at the centre (q r = inf),
    # and proposal blocks
    meta: dict = field(default_factory=dict)

    @property
    def permanent_hit(self) -> int:
        """First iteration from which the criterion holds to the end."""
        return 0 if self.last_violation is None else self.last_violation + 1


def tv_bound(t, z: float, p: int):
    """Uniform-ergodicity total-variation bound (1 - z/2^p)^t of the independent
    sampler, elementwise over an array t; z/2^p by exact scaling (ldexp)."""
    frac = math.ldexp(z, -p)
    if not (z > 0.0 and frac < 1.0):
        raise ValueError("z must lie in (0, 2^p)")
    return (1.0 - frac) ** t


def run_chain(prob: ProblemInstance, cfg: ChainConfig) -> tuple[ChainTrace, ChainDiagnosis]:
    """Run one chain and diagnose it.

    The loop only decides accept or reject and records which iterations of
    the block accepted: the independence sampler one proposal at a time, the
    random walk a run of proposals per array pass (_random_walk_block).
    After each block the accepted states are rebuilt exactly (the random
    walk's as a running sum of its accepted steps, which adds in the order
    the decisions did) and diagnosed in one batch.  Returns the
    per-iteration trace (norms, radial thresholds, criterion) and the
    summary diagnosis.  Fixed seeds reproduce everything bit-exactly; the
    proposal stream is consumed in fixed-size blocks independent of outcomes.
    """
    p = _chain_dimension(prob)
    A = prob.A
    y = prob.y
    n_iter = cfg.n_iter
    rng = np.random.default_rng(cfg.seed)
    l = _point(cfg.shift_l, p, "shift_l")

    x = _point(cfg.init, p, "init").copy()
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
    done = 0
    while done < n_iter:
        block = min(_BLOCK, n_iter - done)
        if is_kind:
            acc = []
            props = laplace_from_uniforms(rng.random((block, p)), np.empty((block, p)))
            prop_Ax = props @ A.T
            prop_mis = np.einsum("ij,ij->i", prop_Ax, prop_Ax) - 2.0 * (prop_Ax @ y)
            log_u = np.log(rng.random(block))
            for i, (lu, mis_new) in enumerate(zip(log_u.tolist(), prop_mis.tolist())):
                if lu <= -0.5 * (mis_new - mis):
                    mis = mis_new
                    acc.append(i)
            idx = np.array(acc, dtype=np.intp)
            states = np.concatenate([x[None], props[idx]])
        else:
            steps = rng.normal(0.0, math.sqrt(cfg.rw_variance), size=(block, p))
            step_Ax = steps @ A.T
            log_u = np.log(rng.random(block))
            Ax, l1x, idx = _random_walk_block(x, Ax, l1x, y, steps, step_Ax, log_u)
            states = np.cumsum(np.concatenate([x[None], steps[idx]]), axis=0)
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
    diag = ChainDiagnosis(
        first_hit=first_hit,
        last_violation=last_violation,
        satisfaction_rate=satisfaction,
        running_mean=mean,
        mean_norm=float(np.linalg.norm(mean)),
        acceptance_rate=accepted / n_iter,
        meta=meta,
    )
    return ChainTrace(norm_x=norm_x, q_r_theta=q_r, criterion=crit), diag


def _chain_dimension(prob: ProblemInstance) -> int:
    """p of the instance, at least 2 as the criterion's bound P(q, p) needs."""
    if prob.p < 2:
        raise ValueError("p must be at least 2")
    return prob.p


def _point(value, p: int, name: str) -> np.ndarray:
    """`value` checked by problem._check_point, or zeros when it is None."""
    return np.zeros(p) if value is None else _check_point(name, value, p)


def _random_walk_block(x: np.ndarray, Ax: np.ndarray, l1x: float, y: np.ndarray, steps: np.ndarray,
                       step_Ax: np.ndarray, log_u: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Metropolis decisions of one random-walk block, _RUN proposals per array pass.

    From state x, step s_i is accepted iff
        ||x + s_i||_1 + log u_i + (||A s_i||^2 - 2 A s_i . y)/2 + A s_i . Ax <= ||x||_1,
    and all but the first and last terms on the left are fixed for the block.
    While x does not move, one pass decides the next _RUN steps from it and
    takes the first accepted one; the next pass starts right after that step.
    Returns the final Ax and ||x||_1 and the indices of the accepted steps.
    """
    fixed = log_u + 0.5 * np.einsum("ij,ij->i", step_Ax, step_Ax - 2.0 * y)
    acc = []
    n = len(steps)
    i = 0
    while i < n:
        run = slice(i, i + _RUN)  # the last run of a block may be shorter
        x_new = x + steps[run]
        l1_new = np.abs(x_new).sum(axis=1)
        ok = l1_new + fixed[run] + step_Ax[run] @ Ax <= l1x
        j = int(ok.argmax())
        if ok[j]:
            x, Ax, l1x = x_new[j], Ax + step_Ax[i + j], l1_new[j]
            acc.append(i + j)
            i += j + 1
        else:
            i += _RUN
    return Ax, l1x, np.array(acc, dtype=np.intp)


def _state_diagnosis(prob: ProblemInstance, X: np.ndarray, l: np.ndarray,
                     q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(||x - l||, q r(theta, l), null) for every state x in the rows of X.

    theta is the direction of x - l and r the mode radius of the shifted
    radial law along it, through unit_shift_batch and shifted_modes (at
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
            batch = unit_shift_batch(prob, l, d[live] / l2[live, None])
            qr[live + s] = q * shifted_modes(batch)
            null[live + s] = batch.null
    return norm, qr, null


def criterion_coverage(prob: ProblemInstance, q: float, n_draws: int, rng,
                       l: np.ndarray | None = None) -> float:
    """Empirical fraction of exact posterior draws with ||x - l|| <= q r(theta, l),
    the draws of sample_posterior_batch diagnosed in one batch."""
    _check_positive("q", q)
    rng = np.random.default_rng(rng)  # a Generator comes back unaltered
    l = _point(l, _chain_dimension(prob), "l")
    X = sample_posterior_batch(prob, n_draws, rng)
    norm, qr, _ = _state_diagnosis(prob, X, l, q)
    return int(np.count_nonzero(norm <= qr)) / n_draws
