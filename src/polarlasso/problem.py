"""Problem instances, uniform and Laplace draws, and the Monte Carlo driver.

The posterior under study is proportional to exp(-||Ax - y||^2/2 - ||x||_1)
on R^p with p >= n.  The statistics of a direction theta (image norm, l1
norm, cosine against y and the offset beta) are those of its segment batch,
shifted.unit_shift_batch; map_chunks runs the chunks of every Monte Carlo
sweep, each sweep on a thread pool of its own that it joins when it ends.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from ._moments import _check_count, _check_real

# rows per chunk of a Monte Carlo sweep; each chunk has its own generator, so
# an estimate does not depend on how many workers consume the chunks
CHUNK = 8192

# chunks map_chunks computes at once: one per CPU this process may run on, at
# most two.  Each chunk in flight holds its own draws and kernel arrays: on
# the 4 x 7 design, a diagnose, tables and chain mix peaked 6% above a serial
# run at two, and 11-12% above at three or four
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


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


def make_problem(A: np.ndarray, y: np.ndarray | None = None) -> ProblemInstance:
    """Wrap a design matrix and observation into an instance, caching ||A||:
    the largest singular value, from numpy's SVD.  ||y||^2 and ||A||^2 must
    be finite, since the misfit along a ray is formed from their squares."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-d matrix")
    n, p = A.shape
    if p < n or n < 1:
        raise ValueError("need p >= n >= 1")
    _check_real("A", A)
    y = np.zeros(n) if y is None else _check_point("y", y, n)
    op_norm = float(np.linalg.norm(A, 2))
    with np.errstate(over="ignore"):
        y_sq = float(y @ y)
    for name, sq in (("y", y_sq), ("A", op_norm * op_norm)):
        if not math.isfinite(sq):
            raise ValueError(f"{name} is too large: its squared norm overflows a float")
    return ProblemInstance(A=A, y=y, op_norm=op_norm)


def gen_bernoulli_matrix(n: int, p: int, seed: int, y: np.ndarray | None = None) -> ProblemInstance:
    """Instance whose entries are i.i.d. +-1/sqrt(n), each sign with probability 1/2;
    make_problem refuses p < n."""
    _check_count("n", n)
    _check_count("p", p)
    rng = np.random.default_rng(seed)
    A = (2.0 * rng.integers(0, 2, size=(n, p)) - 1.0) / math.sqrt(n)
    return make_problem(A, y)


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
    """Uniform sphere draws, one per row: standard normal rows over their
    norms, each zero row redrawn until it is nonzero."""
    _check_count("count", count, 0)
    _check_count("p", p)  # a row of width 0 stays zero however often it is redrawn
    v = rng.standard_normal((count, p))
    norms = np.linalg.norm(v, axis=1)
    bad = norms == 0.0
    while np.any(bad):
        v[bad] = rng.standard_normal((int(bad.sum()), p))
        norms[bad] = np.linalg.norm(v[bad], axis=1)
        bad = norms == 0.0
    return v / norms[:, None]


def _check_point(name: str, value, p: int) -> np.ndarray:
    """`value` as a float vector; ValueError unless it has length p and finite entries."""
    v = np.asarray(value, dtype=float)
    if v.shape != (p,):
        raise ValueError(f"{name} must have length {p}")
    _check_real(name, v)
    return v


def sweep_chunks(seed_or_rng, n_samples: int):
    """The chunks of an n_samples-row Monte Carlo sweep, as (generator, rows) pairs.

    Every chunk holds CHUNK rows but the last, and draws from its own
    generator, spawned from the SeedSequence of a seed or from the one behind
    a Generator's bit generator; a seed and a fresh Generator of that seed
    give the same chunks.
    """
    _check_count("n_samples", n_samples)
    # default_rng returns a Generator unaltered, and makes a seed's SeedSequence
    seq = np.random.default_rng(seed_or_rng).bit_generator.seed_seq  # type: ignore[attr-defined]
    full, last = divmod(n_samples, CHUNK)
    rows = [CHUNK] * full + ([last] if last else [])
    # made up front: made between chunks, the generators cost 2% of a sweep
    return list(zip(map(np.random.default_rng, seq.spawn(len(rows))), rows))


def map_chunks(work, seed_or_rng, n_samples: int):
    """work(gen, rows) for every chunk of sweep_chunks, in chunk order.

    The chunks are split here, so the seed's streams are spawned even if
    the returned iterator is never read.  The calling thread and the sweep's
    own pool of W - 1 threads, W = min(_WORKERS, chunks), each claim the
    next unclaimed chunk, so at most W chunks compute at once; a route that
    keeps its chunk arrays in chunk_buffers holds one set per thread.  The
    caller yields the results in chunk order: while the chunk it must yield
    next is still computing, it computes the next unclaimed one, and it
    waits only once none is left.  A sweep of one chunk or at one CPU
    starts no thread.  When the sweep ends, is closed or raises, claims
    stop and the pool is joined after the chunks it runs.  Each chunk draws
    from its own generator and the results come back in chunk order, so
    what a caller merges from them does not depend on W; an exception comes
    from the first chunk that raised it, after every earlier result, as in
    a serial loop.
    """
    chunks = sweep_chunks(seed_or_rng, n_samples)
    return _self_scheduled(work, chunks, min(_WORKERS, len(chunks)))


def _self_scheduled(work, chunks, workers):
    from concurrent.futures import Future, ThreadPoolExecutor  # costs start-up time when imported eagerly

    lock = threading.Lock()
    results = [Future() for _ in chunks]
    unclaimed = list(range(len(chunks)))[::-1]  # popped in chunk order; cleared to stop claims

    def claim():
        with lock:
            return unclaimed.pop() if unclaimed else None

    def run(i):
        future = results[i]  # the caller clears the slot only once the chunk is done
        try:
            future.set_result(work(*chunks[i]))
        except BaseException as exc:  # raised in chunk order, by the caller
            with lock:
                unclaimed.clear()  # claims go in chunk order, so every earlier chunk is claimed
            future.set_exception(exc)

    def drain():
        while (i := claim()) is not None:
            run(i)

    with ThreadPoolExecutor(max(workers - 1, 1), thread_name_prefix="polarlasso-chunk") as pool:
        for _ in range(workers - 1):
            pool.submit(drain)
        try:
            for k, result in enumerate(results):
                while not result.done() and (i := claim()) is not None:
                    run(i)
                value = result.result()
                results[k] = None  # only now: a claimed chunk's run() may not have read its slot yet
                yield value
        finally:
            with lock:
                unclaimed.clear()


def chunk_buffers(n_samples: int, *widths: int):
    """Scratch for the chunks of one n_samples-row sweep: a function of a
    chunk's row count that returns one (rows, width) array per width.

    They are the leading rows of buffers that each thread makes, zero-filled,
    on its first chunk of the sweep and refills in place on its later ones,
    so no chunk allocates its own.  The buffers die with the returned
    function, so no memory outlives the sweep; a chunk's result must not be
    a view of them.
    """
    held = threading.local()

    def buffers(count: int) -> list[np.ndarray]:
        bufs = getattr(held, "bufs", None)
        if bufs is None:  # in a chunk, so map_chunks has checked n_samples
            rows = min(n_samples, CHUNK)
            bufs = held.bufs = [np.zeros((rows, width)) for width in widths]
        return [buf[:count] for buf in bufs]

    return buffers


def laplace_from_uniforms(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unit Laplace draws by per-coordinate inverse CDF, -sign(u) log1p(-2|u|),
    of the uniforms `u` less 0.5 (shifted in place), written to `out`, an
    array of the same shape, and returned.  u = random() - 0.5 has the bits
    of uniform(-0.5, 0.5) and leaves the generator in the same state, but is
    drawn on numpy's faster fill path."""
    u -= 0.5
    a = np.abs(u, out=out)
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
    """Read an instance from the JSON schema written by save_problem: n and
    p must be JSON integers >= 1 and A must hold exactly n * p entries."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        n, p = payload["n"], payload["p"]
        _check_count("n", n)
        _check_count("p", p)
        A = np.asarray(payload["A"], dtype=float)
        if A.size != n * p:
            raise ValueError(f"A must hold n * p = {n * p} entries, not {A.size}")
        A = A.reshape(n, p)
        y = np.asarray(payload["y"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed problem file {path}: {exc}") from exc
    return make_problem(A, y)
