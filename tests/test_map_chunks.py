"""problem.map_chunks: the chunks of a sweep, claimed one at a time by the
calling thread and the sweep's pool, _WORKERS threads in all, and merged in
chunk order, so that every Monte Carlo route returns the same bytes at any
worker count.  The checks hold whichever thread runs which chunk.  Each
sweep runs on a pool of its own, joined when the sweep ends, so no thread
outlives it and no sweep waits on another's chunks."""

import gc
import os
import signal
import sys
import threading
import time
import types
import weakref

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


def _chunk_of_uniform(seed):
    """The index of a chunk of sweep_chunks(seed, N), read from the first
    uniform its generator draws."""
    firsts = [gen.random() for gen, _ in sweep_chunks(seed, N)]
    return firsts.index


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


# (workers, chunk that raises, whether every later chunk raises too): the
# exception must be the first failing chunk's, whichever thread computed it
RAISES = [(2, 2, True), (2, 3, False), (3, 3, True), (3, 1, False)]


def _fails(i, bad, later_raise):
    return i == bad or (later_raise and i > bad)


@pytest.mark.parametrize("workers, bad, later_raise", RAISES, indirect=["workers"])
def test_raises_from_the_chunk_that_raised(workers, bad, later_raise):
    index = _chunk_index(5)
    ran = []

    def work(gen, rows):
        i = index(gen)
        ran.append(i)
        if _fails(i, bad, later_raise):
            raise FloatingPointError(f"chunk {i}")
        return i

    results = map_chunks(work, 5, N)
    got = []
    with pytest.raises(FloatingPointError, match=f"chunk {bad}"):
        for i in results:
            got.append(i)
    assert got == list(range(bad))
    # the pool is joined before the exception leaves map_chunks, so `ran` is
    # final: every chunk up to the failing one ran once, no later one twice
    assert [ran.count(i) for i in range(bad + 1)] == [1] * (bad + 1)
    assert all(ran.count(i) <= 1 for i in range(bad + 1, 4))


@pytest.mark.parametrize("workers, bad, later_raise", RAISES, indirect=["workers"])
def test_route_raises_what_its_chunk_raised(monkeypatch, workers, bad, later_raise):
    index = _chunk_of_uniform(5)
    draw = partition.laplace_from_uniforms

    def failing(u, out):
        i = index(u.flat[0])
        if _fails(i, bad, later_raise):
            raise FloatingPointError(f"chunk {i}")
        return draw(u, out)

    monkeypatch.setattr(partition, "laplace_from_uniforms", failing)
    with pytest.raises(FloatingPointError, match=f"chunk {bad}"):
        pl.estimate_z_naive(scaled_instance(4, 7, 2.0), N, 5)


@pytest.mark.parametrize("workers", [1, 2], indirect=True)
def test_no_result_held_once_yielded(workers):
    # a sweep holds no result the caller has moved past, so the memory a
    # sweep keeps does not grow with its number of chunks
    refs = []
    for k, result in enumerate(map_chunks(lambda gen, rows: gen.random(rows), 5, N)):
        refs.append(weakref.ref(result))
        del result
        if k >= 2:
            gc.collect()
            assert refs[k - 2]() is None, f"chunk {k - 2} is still held at chunk {k}"


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_a_chunk_claimed_but_not_yet_run_is_still_delivered(monkeypatch, workers):
    # the pool thread is switched out between claiming a chunk and running
    # it, until the caller has run every other chunk and waits on that one:
    # the sweep still ends, with every result in chunk order
    import concurrent.futures

    reader, paused = [], []
    pool_claimed, caller_waits = threading.Event(), threading.Event()

    class Lock:
        def __init__(self):
            self._lock = threading.Lock()

        def __enter__(self):
            self._lock.acquire()

        def __exit__(self, *exc):
            self._lock.release()
            if threading.current_thread() is not reader[0] and not paused:
                pool_claimed.set()
                paused.append(caller_waits.wait(30))

    class Future(concurrent.futures.Future):
        def result(self, timeout=None):
            if threading.current_thread() is reader[0] and not self.done():
                caller_waits.set()
            return super().result(timeout)

    monkeypatch.setattr(problem, "threading", types.SimpleNamespace(Lock=Lock, local=threading.local))
    monkeypatch.setattr(concurrent.futures, "Future", Future)
    index = _chunk_index(9)

    def work(gen, rows):
        if threading.current_thread() is reader[0]:
            assert pool_claimed.wait(30)  # so the pool claims while chunks are left
        return index(gen)

    got = []

    def read():
        reader.append(threading.current_thread())
        got.extend(map_chunks(work, 9, N))

    t = threading.Thread(target=read, daemon=True)  # a lost chunk would block it for good
    t.start()
    t.join(timeout=30)
    assert not t.is_alive(), "the sweep never ended"
    assert paused == [True]
    assert got == [0, 1, 2, 3]


def _chunk_threads():
    return [t for t in threading.enumerate() if t.name.startswith("polarlasso-chunk")]


@pytest.mark.parametrize("workers", [2, 3], indirect=True)
@pytest.mark.parametrize("end", ["exhausted", "closed", "raised"])
def test_no_thread_outlives_a_sweep(workers, end):
    index = _chunk_index(6)
    ran = []

    def work(gen, rows):
        i = index(gen)
        ran.append(i)
        if end == "raised" and i == 1:
            raise FloatingPointError("chunk")
        return rows

    assert not _chunk_threads()
    results = map_chunks(work, 6, N)
    if end == "exhausted":
        assert list(results) == [CHUNK, CHUNK, CHUNK, 5]
    elif end == "closed":
        assert next(results) == CHUNK
        results.close()
    else:
        with pytest.raises(FloatingPointError):
            list(results)
    assert not _chunk_threads()
    # joined, so no chunk runs after the sweep ended, and none ran twice
    assert sorted(set(ran)) == sorted(ran)
    count = len(ran)
    assert next(results, None) is None
    assert len(ran) == count


def _pool_blocks_first_chunk(index, blocked, release):
    """work for a two-thread sweep called from its calling thread: the pool
    thread's first chunk sets blocked['event'] and waits for `release`, and
    the calling thread starts no chunk before that; each chunk's index goes
    to blocked['ran'], with whether the calling thread ran it."""
    caller = threading.current_thread()
    blocked["ran"] = []

    def work(gen, rows):
        i = index(gen)
        on_caller = threading.current_thread() is caller
        if on_caller:
            blocked["event"].wait(30)
        else:
            blocked["chunk"] = i
            blocked["event"].set()
            release.wait(60)
        blocked["ran"].append((i, on_caller))
        return i

    return work


def _release_once_caller_ran(blocked, release, chunks, seen):
    """Set `release` once the calling thread of a _pool_blocks_first_chunk
    sweep has run every one of `chunks` but the blocked one, and record that
    in `seen`; set it anyway after 30 s."""
    assert blocked["event"].wait(30)
    want = set(chunks) - {blocked["chunk"]}
    for _ in range(3000):
        if {i for i, on_caller in blocked["ran"] if on_caller} == want:
            seen.append(want)
            break
        time.sleep(0.01)
    release.set()


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_caller_computes_past_a_blocked_pool_chunk(workers):
    # while the pool's chunk is blocked, the calling thread computes every
    # other chunk before it waits; released, the results come in chunk order
    release = threading.Event()
    blocked = {"event": threading.Event()}
    seen = []
    helper = threading.Thread(target=_release_once_caller_ran, args=(blocked, release, range(4), seen))
    helper.start()
    try:
        got = list(map_chunks(_pool_blocks_first_chunk(_chunk_index(7), blocked, release), 7, N))
    finally:
        release.set()
        helper.join(timeout=60)
    assert got == [0, 1, 2, 3]
    assert seen, f"the caller did not compute every chunk but {blocked['chunk']}: {blocked['ran']}"
    assert sorted(i for i, _ in blocked["ran"]) == [0, 1, 2, 3]


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_error_of_a_chunk_run_ahead_comes_in_order(workers):
    # the calling thread runs chunk 2 ahead of the blocked pool chunk and it
    # raises: the error waits for every earlier result, and the caller
    # claims no chunk after it
    release = threading.Event()
    blocked = {"event": threading.Event()}
    seen = []
    blocking = _pool_blocks_first_chunk(_chunk_index(8), blocked, release)

    def work(gen, rows):
        i = blocking(gen, rows)
        if i == 2:
            raise FloatingPointError(f"chunk {i}")
        return i

    helper = threading.Thread(target=_release_once_caller_ran, args=(blocked, release, range(3), seen))
    helper.start()
    got = []
    try:
        with pytest.raises(FloatingPointError, match="chunk 2"):
            for i in map_chunks(work, 8, N):
                got.append(i)
    finally:
        release.set()
        helper.join(timeout=60)
    assert got == [0, 1]
    assert seen, f"the caller did not compute chunks 0-2 but {blocked['chunk']}: {blocked['ran']}"
    assert (3, True) not in blocked["ran"]


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_a_blocked_sweep_holds_up_no_other(workers):
    # the first sweep's pool chunk blocks; a sweep in another thread has a
    # pool of its own, so it runs to the end meanwhile
    release = threading.Event()
    blocked = {"event": threading.Event()}
    first, other = [], []

    def run_first():
        first.extend(map_chunks(_pool_blocks_first_chunk(_chunk_index(1), blocked, release), 1, N))

    sweeps = [threading.Thread(target=run_first),
              threading.Thread(target=lambda: other.extend(map_chunks(lambda gen, rows: rows, 2, N)))]
    try:
        sweeps[0].start()
        assert blocked["event"].wait(30)
        sweeps[1].start()
        sweeps[1].join(timeout=30)
        assert not sweeps[1].is_alive()
        assert len(first) <= blocked["chunk"]  # nothing past the blocked chunk
    finally:
        release.set()
        for t in sweeps:
            t.join(timeout=30)
    assert other == [CHUNK, CHUNK, CHUNK, 5]
    assert first == [0, 1, 2, 3]


def test_concurrent_sweeps_stay_ordered(monkeypatch):
    # more workers than the machine may have cores, several sweeps at once, and
    # a short switch interval, so that a lost or misordered result would show
    monkeypatch.setattr(problem, "_WORKERS", 3)
    want = {seed: [gen.random(2).tobytes() for gen, _ in sweep_chunks(seed, N)] for seed in range(4)}
    got, runs = {}, {seed: [] for seed in range(4)}

    def sweep(seed):
        def work(gen, rows):
            runs[seed].append(rows)  # a chunk claimed twice would run twice
            return gen.random(2).tobytes()

        got[seed] = list(map_chunks(work, seed, N))

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
    assert all(sorted(rows) == [5, CHUNK, CHUNK, CHUNK] for rows in runs.values())


def test_concurrent_routes_keep_their_buffers(monkeypatch):
    # each sweep's chunk buffers are its own, per thread: two sweeps at once,
    # each with a calling thread and a pool thread, return the serial bytes
    monkeypatch.setattr(problem, "_WORKERS", 1)
    probs = [scaled_instance(4, 7, 2.0), scaled_instance(10, 20, 2.0)]

    def run(prob):
        sol = pl.solve_polar(prob, N, 5)
        return repr(vars(pl.estimate_z_naive(prob, N, 5))), sol.x.tobytes(), repr(sol.meta)

    want = [run(prob) for prob in probs]
    monkeypatch.setattr(problem, "_WORKERS", 2)
    got = [None, None]

    def sweep(i):
        got[i] = run(probs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("workers", [2], indirect=True)
def test_forked_child_makes_its_own_pool(workers):
    # a forked child runs its sweeps on pools of its own, as the parent does
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
