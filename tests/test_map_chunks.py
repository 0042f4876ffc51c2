"""problem.map_chunks: the chunks of a sweep on _WORKERS threads, merged in
chunk order, so that every Monte Carlo route returns the same bytes at any
worker count."""

import os
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import polarlasso as pl
from conftest import scaled_instance
from polarlasso import partition, problem
from polarlasso.problem import CHUNK, map_chunks, sweep_chunks

N = 3 * CHUNK + 5  # chunks of CHUNK, CHUNK, CHUNK and 5 rows
WORKERS = [1, 2, 3]


def _chunk_index(seed):
    """The index of a chunk of sweep_chunks(seed, N), read from the initial
    state of the generator map_chunks hands to work."""
    keys = [gen.bit_generator.state["state"]["state"] for gen, _ in sweep_chunks(seed, N)]
    return lambda gen: keys.index(gen.bit_generator.state["state"]["state"])


@pytest.fixture
def workers(monkeypatch, request):
    monkeypatch.setattr(problem, "_WORKERS", request.param)
    return request.param


def _routes(prob):
    l = pl.solve_fista(prob).x
    yield "polar", repr(vars(pl.estimate_z_polar(prob, N, 5)))
    yield "naive", repr(vars(pl.estimate_z_naive(prob, N, np.random.default_rng(5))))
    yield "shifted", repr(vars(pl.estimate_z_shifted(prob, l, N, 5)))
    sol = pl.solve_polar(prob, N, 5)
    yield "solve", (sol.x.tobytes(), repr(sol.meta))


@pytest.mark.parametrize("shape", [(4, 7, 2.0), (10, 20, 2.0), (2, 3, 10.0)])
def test_routes_byte_identical_at_any_worker_count(monkeypatch, shape):
    # (2, 3) at ||y|| = 10 gives solve_polar a candidate in every chunk
    prob = scaled_instance(*shape)
    results = []
    for w in WORKERS:
        monkeypatch.setattr(problem, "_WORKERS", w)
        results.append(dict(_routes(prob)))
    assert results[1] == results[0]
    assert results[2] == results[0]


@pytest.mark.parametrize("workers", WORKERS, indirect=True)
def test_results_in_chunk_order(workers):
    got = list(map_chunks(lambda gen, rows: (rows, gen.standard_normal(3)), 5, N))
    want = [(rows, gen.standard_normal(3)) for gen, rows in sweep_chunks(5, N)]
    assert [rows for rows, _ in got] == [CHUNK, CHUNK, CHUNK, 5]
    for (_, a), (_, b) in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_split_even_if_unread():
    # a Generator's SeedSequence spawns the chunk streams when map_chunks is
    # called, as sweep_chunks does, whether or not its results are read
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    map_chunks(lambda gen, rows: pytest.fail("work ran"), rng, N)
    sweep_chunks(ref, N)
    assert rng.bit_generator.seed_seq.n_children_spawned == ref.bit_generator.seed_seq.n_children_spawned == 4
    with pytest.raises(ValueError):
        map_chunks(lambda gen, rows: None, 0, 0)


# (workers, chunk that raises, whether the calling thread computes it): the
# groups are (0, 1), (2, 3) at two workers and (0, 1, 2), (3) at three
RAISES = [(2, 2, True), (2, 3, False), (3, 3, True), (3, 1, False)]


@pytest.mark.parametrize("workers, bad, on_caller", RAISES, indirect=["workers"])
def test_raises_from_the_chunk_that_raised(workers, bad, on_caller):
    index = _chunk_index(5)
    ran_on_caller = []

    def work(gen, rows):
        i = index(gen)
        if i == bad:
            ran_on_caller.append(threading.current_thread() is threading.main_thread())
            raise FloatingPointError(f"chunk {i}")
        return i

    results = map_chunks(work, 5, N)
    got = []
    with pytest.raises(FloatingPointError, match=f"chunk {bad}"):
        for i in results:
            got.append(i)
    assert got == list(range(bad))
    assert ran_on_caller == [on_caller]


@pytest.mark.parametrize("workers, bad, on_caller", RAISES, indirect=["workers"])
def test_route_raises_what_its_chunk_raised(monkeypatch, workers, bad, on_caller):
    index = _chunk_index(5)
    draw = partition.sample_laplace

    def failing(gen, shape):
        if index(gen) == bad:
            raise FloatingPointError(f"chunk {bad}")
        return draw(gen, shape)

    monkeypatch.setattr(partition, "sample_laplace", failing)
    with pytest.raises(FloatingPointError, match=f"chunk {bad}"):
        pl.estimate_z_naive(scaled_instance(4, 7, 2.0), N, 5)


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_closing_early_cancels_queued_chunks(monkeypatch, workers):
    # a sweep whose worker chunk blocks holds the pool's one thread, so the
    # worker chunk of a second sweep waits in the queue behind it
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(problem, "_pool", (os.getpid(), pool))
    release = threading.Event()

    def blocking(gen, rows):
        if threading.current_thread() is not threading.main_thread():
            release.wait(10)
        return rows

    first = map_chunks(blocking, 1, N)
    ran = []
    second = map_chunks(lambda gen, rows: ran.append(rows) or rows, 2, N)
    try:
        assert next(first) == CHUNK
        assert next(second) == CHUNK  # computed by the calling thread
        second.close()
    finally:
        release.set()
        first.close()
    # the pool runs what it holds in order: once this has run, so would have
    # the second sweep's queued chunk, had it not been cancelled
    pool.submit(lambda: None).result(timeout=10)
    pool.shutdown()
    assert ran == [CHUNK]


def test_concurrent_sweeps_stay_ordered(monkeypatch):
    # more workers than the machine may have cores, several sweeps at once, and
    # a short switch interval, so that a lost or misordered result would show
    monkeypatch.setattr(problem, "_WORKERS", 3)
    want = {seed: [gen.random(2).tobytes() for gen, _ in sweep_chunks(seed, N)] for seed in range(4)}
    got = {}

    def sweep(seed):
        got[seed] = list(map_chunks(lambda gen, rows: gen.random(2).tobytes(), seed, N))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("workers", [2], indirect=True)
def test_forked_child_makes_its_own_pool(workers):
    # the child inherits the parent's pool but not its threads
    want = list(map_chunks(lambda gen, rows: gen.random(), 3, N))
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through its exit code
        code = 1
        try:
            signal.alarm(20)  # a child waiting on a dead pool dies instead of hanging
            code = 0 if list(map_chunks(lambda gen, rows: gen.random(), 3, N)) == want else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
