"""Problem instances and per-direction geometric statistics.

The posterior under study is proportional to exp(-||Ax - y||^2/2 - ||x||_1)
on R^p with p >= n.  Every direction theta on the unit sphere carries a small
set of cached statistics (l1 norm, image norm, cosine against y, and the
offset beta) that determine the radial law along the ray r -> r theta.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# below this image norm a direction is treated as belonging to the null space
NULL_TOL = 1e-12

# rows per chunk of a Monte Carlo sweep; each chunk has its own generator, so
# an estimate does not depend on how many workers consume the chunks
CHUNK = 8192


@dataclass(frozen=True)
class ProblemInstance:
    """Design matrix, observation, and the cached operator norm of A."""

    A: np.ndarray
    y: np.ndarray
    op_norm: float

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.A.shape[1]

    @property
    def y_norm(self) -> float:
        return float(np.linalg.norm(self.y))


@dataclass(frozen=True)
class DirectionStats:
    """Unit direction with the cached quantities entering the radial law.

    ``beta`` is None exactly when A theta = 0 (the offset is +infinity there);
    keeping an explicit sentinel makes the case dispatch total and keeps float
    infinities out of downstream arithmetic.  ``batch`` is the one-row
    DirectionBatch the other fields were read from.
    """

    theta: np.ndarray
    norm_A_theta: float
    l1_theta: float
    s: float
    beta: float | None
    batch: DirectionBatch


@dataclass(frozen=True)
class DirectionBatch:
    """The statistics of DirectionStats for a batch of unit directions, one per row.

    ``null`` marks the rows with ||A theta|| <= NULL_TOL; they carry s = 0
    and beta = inf.
    """

    norm_A: np.ndarray
    l1: np.ndarray
    s: np.ndarray
    beta: np.ndarray
    null: np.ndarray


def make_problem(A: np.ndarray, y: np.ndarray | None = None) -> ProblemInstance:
    """Wrap a design matrix and observation into an instance, caching ||A||:
    the largest singular value, from numpy's SVD."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-d matrix")
    n, p = A.shape
    if p < n or n < 1:
        raise ValueError("need p >= n >= 1")
    if y is None:
        y = np.zeros(n)
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"y must have length {n}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(y))):
        raise ValueError("A and y must be finite")
    return ProblemInstance(A=A, y=y, op_norm=float(np.linalg.norm(A, 2)))


def gen_bernoulli_matrix(n: int, p: int, seed: int, y: np.ndarray | None = None) -> ProblemInstance:
    """Instance whose entries are i.i.d. +-1/sqrt(n), each sign with probability 1/2."""
    if p < n or n < 1:
        raise ValueError("need p >= n >= 1")
    rng = np.random.default_rng(seed)
    A = (2.0 * rng.integers(0, 2, size=(n, p)) - 1.0) / math.sqrt(n)
    return make_problem(A, y)


def direction_stats(prob: ProblemInstance, theta: np.ndarray) -> DirectionStats:
    """Cached statistics of a (not necessarily normalized) direction: a batch of one."""
    theta = np.asarray(theta, dtype=float)
    norm = np.linalg.norm(theta)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    theta = theta / norm
    st = direction_batch(prob.A, prob.y, theta[None, :])
    beta = None if st.null[0] else float(st.beta[0])
    return DirectionStats(theta, float(st.norm_A[0]), float(st.l1[0]),
                          s=float(st.s[0]), beta=beta, batch=st)


def direction_batch(A: np.ndarray, y: np.ndarray, thetas: np.ndarray,
                    rows: np.ndarray | None = None) -> DirectionBatch:
    """DirectionBatch of the unit directions in the rows of `thetas`, against
    the observation y; of those in `rows` only, when given.

    The products with A and y are formed on every row even so: BLAS rounds
    a row differently in a batch of another size, and the statistics of a
    row must not depend on which other rows are scored with it.
    """
    A_thetas = thetas @ A.T
    A_theta_y = A_thetas @ y
    if rows is not None:
        thetas, A_thetas, A_theta_y = thetas[rows], A_thetas[rows], A_theta_y[rows]
    norm_A = np.linalg.norm(A_thetas, axis=1)
    l1 = np.abs(thetas).sum(axis=1)
    null = norm_A <= NULL_TOL
    safe = np.where(null, 1.0, norm_A)
    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0:
        s = np.zeros(len(thetas))
    else:
        s = np.where(null, 0.0, np.clip(A_theta_y / (safe * y_norm), -1.0, 1.0))
    beta = np.where(null, math.inf, l1 / safe - y_norm * s)
    return DirectionBatch(norm_A, l1, s, beta, null)


def ray_energy(stats: DirectionStats, r: float, y_norm: float) -> float:
    """Negative log density along the ray: (r^2 ||A theta||^2 + 2 r ||A theta|| beta + ||y||^2)/2.

    Equals ||A(r theta) - y||^2/2 + r ||theta||_1 identically.
    """
    if stats.beta is None:
        raise ValueError("energy quadratic undefined for null directions (beta infinite)")
    na = stats.norm_A_theta
    return 0.5 * (r * r * na * na + 2.0 * r * na * stats.beta + y_norm * y_norm)


def radial_potential(stats: DirectionStats, r: float, p: int, y_norm: float) -> float:
    """Radial potential: ray energy minus the (p-1) log r volume term; r > 0."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    if stats.beta is None:
        # null direction: the misfit is constant along the ray
        return 0.5 * y_norm * y_norm + r * stats.l1_theta - (p - 1) * math.log(r)
    return ray_energy(stats, r, y_norm) - (p - 1) * math.log(r)


def beta_lower_bound(prob: ProblemInstance) -> float:
    """Lower bound 1/||A|| - ||y|| holding for the offset of every direction."""
    if prob.op_norm == 0.0:
        return math.inf
    return 1.0 / prob.op_norm - prob.y_norm


def zero_lasso_sufficient(prob: ProblemInstance) -> bool:
    """True when ||y|| <= 1/||A||, which forces the l1-penalized mode to be 0."""
    return prob.y_norm * prob.op_norm <= 1.0


def sample_sphere(rng: np.random.Generator, p: int) -> np.ndarray:
    """Uniform draw from the unit sphere: a batch of one of sample_sphere_batch."""
    return sample_sphere_batch(rng, 1, p)[0]


def sample_sphere_batch(rng: np.random.Generator, count: int, p: int) -> np.ndarray:
    """Uniform sphere draws, one per row."""
    v, norms = gaussian_rows(rng, count, p)
    return v / norms[:, None]


def gaussian_rows(rng: np.random.Generator, count: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard normal rows and their norms, each zero row redrawn until it is
    nonzero: the rows that sample_sphere_batch normalises, from the same
    generator stream."""
    v = rng.standard_normal((count, p))
    norms = np.linalg.norm(v, axis=1)
    bad = norms == 0.0
    while np.any(bad):
        v[bad] = rng.standard_normal((int(bad.sum()), p))
        norms[bad] = np.linalg.norm(v[bad], axis=1)
        bad = norms == 0.0
    return v, norms


def sweep_chunks(seed_or_rng, n_samples: int):
    """The chunks of an n_samples-row Monte Carlo sweep, as (generator, rows) pairs.

    Every chunk holds CHUNK rows but the last, and draws from its own
    generator, spawned from the SeedSequence of a seed or from the one behind
    a Generator's bit generator; a seed and a fresh Generator of that seed
    give the same chunks.
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    # default_rng returns a Generator unaltered, and makes a seed's SeedSequence
    seq = np.random.default_rng(seed_or_rng).bit_generator.seed_seq  # type: ignore[attr-defined]
    full, last = divmod(n_samples, CHUNK)
    rows = [CHUNK] * full + ([last] if last else [])
    # made up front: made between chunks, the generators cost 2% of a sweep
    return list(zip(map(np.random.default_rng, seq.spawn(len(rows))), rows))


def sample_laplace(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit Laplace draws by per-coordinate inverse CDF, -sign(u) log1p(-2|u|),
    computed in one buffer.  u = random() - 0.5 has the bits of
    uniform(-0.5, 0.5) and leaves the generator in the same state, but is
    drawn on numpy's faster fill path."""
    u = rng.random(shape)
    u -= 0.5
    a = np.abs(u)
    a *= -2.0
    np.log1p(a, out=a)
    return np.copysign(a, u, out=a)


def save_problem(prob: ProblemInstance, path: str, seed: int | None = None) -> None:
    """Write the instance as JSON: {n, p, A (row-major), y, seed}."""
    payload = {
        "n": prob.n,
        "p": prob.p,
        "A": [float(v) for v in prob.A.ravel(order="C")],
        "y": [float(v) for v in prob.y],
        "seed": seed,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_problem(path: str) -> ProblemInstance:
    """Read an instance from the JSON schema written by save_problem."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        n = int(payload["n"])
        p = int(payload["p"])
        A = np.asarray(payload["A"], dtype=float).reshape(n, p)
        y = np.asarray(payload["y"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed problem file {path}: {exc}") from exc
    return make_problem(A, y)
