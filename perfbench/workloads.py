"""Workloads of the polarlasso benchmark: generated instances, the operation
mix of each workload, and the check applied to every operation's output.

Instances are Bernoulli +-1/sqrt(n) designs with a seeded observation y of
stated norm (see INSTANCE_SEED), written in the JSON schema of
`polarlasso.problem.save_problem`; the program only ever sees those files.  CLI operations go through
`polarlasso.cli.main(argv)` in-process, exactly as the `polarlasso` script
would run them; where no command reaches a path (the shifted chain and the
exact sampler) the operation is the public library call.

Every check raises `CheckFailed`.  Checks compare against references the
benchmark computes itself (a large-N prior-importance Z, the concentration
bound P(q, p) from scipy's incomplete gamma), never against a second call of
the routine under test.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy.special import gammaincc

from polarlasso import cli, lasso, mcmc, problem

# agreement with the reference Z, in combined standard errors
K_SIGMA = 5.0
# a coverage below P(q, p) is accepted unless its binomial tail is below this
COVERAGE_ALPHA = 1e-6
Q_CRITERION = 5.0
# reference Z: the benchmark's own prior-importance estimator at large N
REF_SAMPLES = 2_000_000
REF_CHUNK = 100_000
# the CLI's --shift route uses this many directions and reports no std_err
SHIFT_DIRECTIONS = 2048
SHIFT_MARKOV_ALPHA = 1e-6
# Each workload's instance comes from this fixed seed; --seed drives every
# Monte Carlo stream (operation seeds and the reference Z).  The cost of
# the --shift route depends on the instance through its mode (the mode's
# support sets the segment count): across instance seeds one p = 20 operation
# took 2.6 to 5.6 s, a spread no run of bounded length averages away.
INSTANCE_SEED = 42


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    """One operation of a workload.

    `prepare(ctx, k)` returns the zero-argument call that is timed; `check`
    receives the call's result and returns the figures the run record keeps
    (for example z and std_err), or raises CheckFailed.  `known_failures`
    lists the exception types this operation raises at the commit the
    benchmark was defined on; the operation still runs every cycle so that a
    fix shows up as passing operations, never as lost time.
    """

    name: str
    prepare: Callable[["Context", int], Callable[[], Any]]
    check: Callable[["Context", int, Any], dict]
    known_failures: tuple[str, ...] = ()
    reps: int = 1  # runs per cycle: fast operations run more often


@dataclass
class Context:
    seed: int
    workdir: str
    problem_path: str
    prob: Any = None
    mode: np.ndarray | None = None
    ref_z: float = math.nan
    ref_se: float = math.nan
    sizes: dict = field(default_factory=dict)

    def out_dir(self, k: int) -> str:
        """Directory for the k-th operation's outputs; the runner sizes and
        removes it."""
        return os.path.join(self.workdir, f"op-{k}")

    def path(self, k: int, name: str) -> str:
        d = self.out_dir(k)
        os.makedirs(d, exist_ok=True)
        return os.path.join(d, name)

    def op_seed(self, k: int) -> int:
        return self.seed * 100_000 + k


# --- instances and references ------------------------------------------------

def write_instance(path: str, n: int, p: int, y_norm: float, seed: int) -> None:
    """Bernoulli +-1/sqrt(n) design and a seeded y with ||y|| = y_norm, in the
    save_problem schema {n, p, A (row-major), y, seed}."""
    rng = np.random.default_rng([seed, n, p])
    A = (2.0 * rng.integers(0, 2, size=(n, p)) - 1.0) / math.sqrt(n)
    y = rng.standard_normal(n)
    y *= y_norm / np.linalg.norm(y)
    payload = {"n": n, "p": p, "A": [float(v) for v in A.ravel()],
               "y": [float(v) for v in y], "seed": seed}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def reference_z(A: np.ndarray, y: np.ndarray, n_samples: int, seed: int) -> tuple[float, float]:
    """Z = 2^p E[exp(-||Ax - y||^2/2)], x ~ unit Laplace, with its standard error.

    Written here rather than called from the program, so that it shares no
    code with the radial kernel or with the estimator under test."""
    rng = np.random.default_rng([seed, 0x2EF])
    p = A.shape[1]
    total = total_sq = 0.0
    for _ in range(n_samples // REF_CHUNK):
        x = rng.laplace(size=(REF_CHUNK, p))
        resid = x @ A.T - y
        w = np.exp(-0.5 * np.einsum("ij,ij->i", resid, resid))
        total += float(w.sum())
        total_sq += float((w * w).sum())
    n = (n_samples // REF_CHUNK) * REF_CHUNK
    mean = total / n
    var = (total_sq / n - mean * mean) * n / (n - 1)
    return 2.0**p * mean, 2.0**p * math.sqrt(var / n)


def concentration_bound(q: float, p: int) -> float:
    """P(q, p) = 1 - p Gamma(p, (p-1) q) e^(p-1) / (p-1)^p."""
    upper = float(gammaincc(p, (p - 1) * q)) * math.factorial(p - 1)
    return 1.0 - p * upper * math.exp(p - 1) / (p - 1) ** p


def binomial_lower_tail(successes: int, n: int, prob: float) -> float:
    """P(Binomial(n, prob) <= successes), summed over the misses side."""
    miss = 1.0 - prob
    return math.fsum(math.comb(n, j) * miss**j * prob ** (n - j)
                     for j in range(n - successes, n + 1))


# --- check helpers -------------------------------------------------------------

def _finite(label: str, *values) -> None:
    for v in values:
        arr = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise CheckFailed(f"{label}: non-finite value {v!r}")


def _exit_ok(rc) -> None:
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _agree(ctx: Context, label: str, z: float, sigma: float) -> float:
    """Deviation from the reference Z in combined standard errors."""
    combined = math.hypot(sigma, ctx.ref_se)
    dev = abs(z - ctx.ref_z) / combined
    if not dev <= K_SIGMA:
        raise CheckFailed(f"{label} = {z!r} is {dev:.2f} sigma from reference "
                          f"{ctx.ref_z!r} +- {ctx.ref_se!r}")
    return dev


def _check_estimate(ctx: Context, est: dict, label: str) -> dict:
    """Flat PartitionEstimate fields: finite, inside the bracket, near the reference."""
    naive = est.get("method") == "naive_mc"
    # the naive route documents z_max = +inf: it has no upper bound to report
    _finite(label, est["z"], est["std_err"], est["z_min"], *(() if naive else (est["z_max"],)))
    if not est["z_min"] <= est["z"] <= est["z_max"]:
        raise CheckFailed(f"{label}: z = {est['z']!r} outside [{est['z_min']!r}, {est['z_max']!r}]")
    if naive:
        # same estimator as the reference, so its spread at n samples is known
        # from 2M samples; the std_err the run reports from its own weights
        # is too small whenever it missed the rare large ones
        sigma = ctx.ref_se * math.sqrt(REF_SAMPLES / est["n_samples"])
    else:
        sigma = est["std_err"]
    dev = _agree(ctx, label, est["z"], sigma)
    return {"z": est["z"], "std_err": est["std_err"], "dev_sigma": dev}


def _check_shift(ctx: Context, sh: dict) -> dict:
    _finite("shift", sh["z_f"], sh["h0"], sh["z_from_shift"], sh["l"])
    if sh["n_samples"] != SHIFT_DIRECTIONS:
        raise CheckFailed(f"shift used {sh['n_samples']} directions")
    z = sh["z_from_shift"]
    cv = ctx.sizes["shift_cv"]
    if cv is not None:
        # the route reports no std_err: use the per-direction coefficient of
        # variation of the shifted mass measured on this instance
        sigma = cv * ctx.ref_z / math.sqrt(sh["n_samples"])
        return {"z_from_shift": z, "dev_sigma": _agree(ctx, "z_from_shift", z, sigma)}
    # no usable sigma: only positivity and Markov's inequality for a
    # nonnegative unbiased estimate, P(z >= Z / alpha) <= alpha
    if not 0.0 < z <= ctx.ref_z / SHIFT_MARKOV_ALPHA:
        raise CheckFailed(f"z_from_shift = {z!r} outside (0, Z / {SHIFT_MARKOV_ALPHA:g}]")
    return {"z_from_shift": z}


# --- operations: partition function and mode ------------------------------------

def _partition(method: str, shift: bool = False):
    def prepare(ctx: Context, k: int):
        argv = ["partition", "--problem", ctx.problem_path, "--method", method,
                "--n-samples", str(ctx.sizes["z_samples"]), "--seed", str(ctx.op_seed(k)),
                "--out", ctx.path(k, "partition.json")]
        if shift:
            argv.append("--shift")
        return lambda: cli.main(argv)

    def check(ctx: Context, k: int, rc) -> dict:
        _exit_ok(rc)
        out = _read_json(ctx.path(k, "partition.json"))
        info = _check_estimate(ctx, out, f"partition --method {method}")
        return _check_shift(ctx, out["shift"]) if shift else info

    return prepare, check


def _solve_prepare(ctx: Context, k: int):
    argv = ["solve", "--problem", ctx.problem_path, "--method", "both",
            "--n-samples", str(ctx.sizes["solve_samples"]), "--seed", str(ctx.op_seed(k)),
            "--out", ctx.path(k, "solution.json")]
    return lambda: cli.main(argv)


def _polar_not_below_fista(polar_obj: float, fista_obj: float) -> None:
    # FISTA stops at a prox-gradient residual of 1e-10, so its objective is
    # the minimum up to that tolerance; a sampled polar mode cannot beat it
    if polar_obj < fista_obj - 1e-9 * max(1.0, abs(fista_obj)):
        raise CheckFailed(f"polar objective {polar_obj!r} below FISTA {fista_obj!r}")


def _solve_check(ctx: Context, k: int, rc) -> dict:
    _exit_ok(rc)
    out = _read_json(ctx.path(k, "solution.json"))
    fista, polar = out["fista"], out["polar"]
    _finite("solve", fista["x"], fista["objective"], polar["x"], polar["objective"])
    if fista["meta"]["converged"] is not True:
        raise CheckFailed(f"FISTA did not converge: {fista['meta']}")
    _polar_not_below_fista(polar["objective"], fista["objective"])
    return {"fista_iterations": fista["meta"]["iterations"]}


# --- operations: chains, tables, exact draws -------------------------------------

def _diagnose(sampler: str):
    def prepare(ctx: Context, k: int):
        argv = ["diagnose", "--problem", ctx.problem_path, "--sampler", sampler,
                "--iters", str(ctx.sizes["diag_iters"]), "--seed", str(ctx.op_seed(k)),
                "--out", ctx.path(k, "diagnosis.json")]
        if sampler == "rw":
            argv += ["--emit-series", ctx.path(k, "series.csv")]
        else:
            argv += ["--z-samples", str(ctx.sizes["diag_z_samples"])]
        return lambda: cli.main(argv)

    def check(ctx: Context, k: int, rc) -> dict:
        _exit_ok(rc)
        out = _read_json(ctx.path(k, "diagnosis.json"))
        _finite("diagnose", out["satisfaction_rate"], out["mean"], out["mean_norm"],
                out["acceptance_rate"])
        if not 0.0 < out["acceptance_rate"] <= 1.0:
            raise CheckFailed(f"acceptance rate {out['acceptance_rate']!r}")
        if out["iters"] != ctx.sizes["diag_iters"]:
            raise CheckFailed(f"iters {out['iters']!r}")
        if sampler == "is":
            if not 0.0 < out["tv_constant"] < 1.0:
                raise CheckFailed(f"tv constant {out['tv_constant']!r} outside (0, 1)")
            return {}
        series = np.loadtxt(ctx.path(k, "series.csv"), delimiter=",", skiprows=1, ndmin=2)
        if series.shape != (ctx.sizes["diag_iters"], 4):
            raise CheckFailed(f"series shape {series.shape}")
        crit = series[:, 1] <= series[:, 2]
        if not np.array_equal(crit, series[:, 3] == 1.0):
            raise CheckFailed("series criterion column disagrees with its norms")
        if abs(crit.mean() - out["satisfaction_rate"]) > 1e-12:
            raise CheckFailed("satisfaction rate disagrees with the series")
        return {}

    return prepare, check


def _tables_prepare(ctx: Context, k: int):
    argv = ["tables", "--out-dir", ctx.path(k, "tables"), "--seed", str(ctx.op_seed(k)),
            "--n-samples", str(ctx.sizes["tables_samples"]), "--iters", str(ctx.sizes["tables_iters"])]
    return lambda: cli.main(argv)


def _read_csv(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]]


def _tables_check(ctx: Context, k: int, rc) -> dict:
    _exit_ok(rc)
    d = ctx.path(k, "tables")
    for q, value in _read_csv(os.path.join(d, "table2.csv")):
        want = f"{concentration_bound(float(q), 7):.4f}"
        if value != want:
            raise CheckFailed(f"table2 P({q}, 7) = {value}, expected {want}")
    rows = {r[0]: [float(v) for v in r[1:]] for r in _read_csv(os.path.join(d, "table1.csv"))}
    _finite("table1", rows["fista"], rows["polar"])
    _polar_not_below_fista(rows["polar"][-1], rows["fista"][-1])
    for row in _read_csv(os.path.join(d, "table3.csv")):
        _finite("table3", [float(v) for v in row[1:]])
    return {}


def _chain_shift_prepare(ctx: Context, k: int):
    cfg = mcmc.ChainConfig(kind=mcmc.KIND_RANDOM_WALK, n_iter=ctx.sizes["chain_iters"],
                           q=Q_CRITERION, seed=ctx.op_seed(k), shift_l=ctx.mode)
    return lambda: mcmc.run_chain(ctx.prob, cfg)


def _chain_shift_check(ctx: Context, k: int, result) -> dict:
    trace, diag = result
    n = ctx.sizes["chain_iters"]
    if trace.norm_x.shape != (n,) or trace.q_r_theta.shape != (n,):
        raise CheckFailed("trace length")
    _finite("chain norms", trace.norm_x, diag.running_mean, diag.mean_norm)
    # q r is +inf only where the chain sits exactly at the centre l
    qr = trace.q_r_theta
    if not np.all(np.isfinite(qr) | (trace.norm_x == 0.0)):
        raise CheckFailed("non-finite q r(theta, l) away from the centre")
    if not np.array_equal(trace.criterion, trace.norm_x <= qr):
        raise CheckFailed("criterion disagrees with its norms")
    if not 0.0 < diag.acceptance_rate <= 1.0:
        raise CheckFailed(f"acceptance rate {diag.acceptance_rate!r}")
    return {"iters": n, "acceptance_rate": diag.acceptance_rate}


def _exact_prepare(ctx: Context, k: int):
    n = ctx.sizes["exact_draws"]
    return lambda: mcmc.criterion_coverage(ctx.prob, Q_CRITERION, n, ctx.op_seed(k), l=ctx.mode)


def _exact_check(ctx: Context, k: int, coverage) -> dict:
    n = ctx.sizes["exact_draws"]
    _finite("coverage", coverage)
    successes = round(coverage * n)
    if not (0 <= successes <= n and abs(successes - coverage * n) < 1e-6):
        raise CheckFailed(f"coverage {coverage!r} is not a fraction of {n} draws")
    bound = concentration_bound(Q_CRITERION, ctx.prob.p)
    tail = binomial_lower_tail(successes, n, bound)
    if tail < COVERAGE_ALPHA:
        raise CheckFailed(f"coverage {coverage!r} below P({Q_CRITERION}, {ctx.prob.p}) = "
                          f"{bound!r} (binomial tail {tail:.3g})")
    return {"draws": n, "coverage": coverage}


# --- workloads -----------------------------------------------------------------------

# exception types raised at the commit the benchmark was defined on: every
# polar-Z path stops at `_erfcx`, undefined in radial.sweep_summaries
POLAR_FAILS = ("NameError",)


def _z_ops(polar_fails: tuple[str, ...]) -> list[Op]:
    return [
        Op("partition_polar", *_partition("polar"), known_failures=polar_fails),
        Op("partition_naive", *_partition("naive"), reps=6),
        Op("partition_shift", *_partition("naive", shift=True)),
        Op("solve", _solve_prepare, _solve_check, reps=3),
    ]


# `shift_cv` is the coefficient of variation of the per-direction shifted mass
# J(theta, l) at the FISTA mode of the workload's instance.  At p = 7 it is
# 1.6 (24576 directions, largest single share of the sum 0.14%), so the mean
# of SHIFT_DIRECTIONS masses is close to normal with standard error
# cv * z / sqrt(2048) = 3.5%.  At p = 20 J is so heavy tailed that a
# 2048-direction mean has no usable standard error: one direction carried
# 48% of such a sum (its mass matches the quadrature oracle of tests/ to
# 2e-15), and the coefficient of variation estimated from 4096 to 32768
# directions ranged from 12 to 8.7.  There `shift_cv` is None.


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: int
    y_norm: float
    sizes: dict
    ops: list


# why each workload exists, and what it should and should not move, is
# stated in BENCHMARK.json
WORKLOADS = {
    "desk-z": Workload(
        "desk-z", 4, 7, 2.0,
        {"z_samples": 100_000, "solve_samples": 100_000, "shift_cv": 1.6},
        _z_ops(POLAR_FAILS),
    ),
    "wide-z": Workload(
        "wide-z", 10, 20, 2.0,
        {"z_samples": 100_000, "solve_samples": 100_000, "shift_cv": None},
        # after the `_erfcx` fix the order-19 expansion still raises
        # ValueError (expansion needs M >= p + 1) once beta > 13
        _z_ops(POLAR_FAILS + ("ValueError",)),
    ),
    "chains": Workload(
        "chains", 4, 7, 2.0,
        {"diag_iters": 50_000, "diag_z_samples": 20_000, "tables_samples": 20_000,
         "tables_iters": 20_000, "chain_iters": 10_000, "exact_draws": 1000},
        [
            Op("diagnose_rw", *_diagnose("rw")),
            Op("diagnose_is", *_diagnose("is"), known_failures=POLAR_FAILS),
            Op("tables", _tables_prepare, _tables_check),
            Op("chain_shift", _chain_shift_prepare, _chain_shift_check),
            Op("exact", _exact_prepare, _exact_check),
        ],
    ),
}


def build(name: str, seed: int, workdir: str) -> tuple[Workload, Context]:
    """Write the workload's instance and compute its references."""
    wl = WORKLOADS[name]
    path = os.path.join(workdir, "problem.json")
    write_instance(path, wl.n, wl.p, wl.y_norm, INSTANCE_SEED)
    ctx = Context(seed, workdir, path, sizes=dict(wl.sizes))
    ctx.prob = problem.load_problem(path)
    sol = lasso.solve_fista(ctx.prob, 20000, 1e-10)
    if sol.meta["converged"] is not True:
        raise RuntimeError(f"FISTA did not converge on the {name} instance: {sol.meta}")
    ctx.mode = sol.x
    if "z_samples" in wl.sizes:
        ctx.ref_z, ctx.ref_se = reference_z(ctx.prob.A, ctx.prob.y, REF_SAMPLES, seed)
    return wl, ctx


# --- machine speed reference ---------------------------------------------------

class SpeedReference:
    """Fixed work that shares no code with polarlasso, in roughly equal time
    shares of the three kinds of work the workloads do: a vectorized
    exp-of-quadratic-form sweep, a Python loop of small-array numpy calls,
    and a Python loop of float math.  The two speed levels of the host slow
    these kinds by different factors; against a 200 s trace that crossed
    both levels, this mix left the least residual spread in four
    polarlasso kernels (shifted masses, naive Z, FISTA, a chain).  Timing it
    between operations measures how fast the machine runs at that moment."""

    def __init__(self):
        rng = np.random.default_rng(0x5BEED)
        self.A = rng.standard_normal((4, 7))
        self.x = rng.laplace(size=(150_000, 7))
        self.steps = rng.standard_normal((700, 7))

    def time_once(self) -> float:
        t0 = time.perf_counter()
        resid = self.x @ self.A.T
        total = float(np.exp(-0.5 * np.einsum("ij,ij->i", resid, resid)).sum())
        v = np.zeros(7)
        for step in self.steps:
            v = v + step
            av = self.A @ v
            total += math.sqrt(float(av @ av)) + float(np.abs(v).sum())
        for i in range(1, 6_000):
            u = i * 1e-3
            total += math.exp(-0.5 * u * u) * u**3 / math.sqrt(1.0 + u) + math.log1p(u)
        elapsed = time.perf_counter() - t0
        if not math.isfinite(total):
            raise RuntimeError("speed reference produced a non-finite value")
        return elapsed
