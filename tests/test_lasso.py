"""Mode solvers: objective, FISTA baseline, and the polar sweep."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

import polarlasso as pl
from conftest import scaled_instance, tiny_design
from polarlasso import problem
from polarlasso.lasso import _FISTA_BLOCK, FISTA_MAX_ITER, FISTA_TOL
from polarlasso.problem import CHUNK, sample_sphere_batch, sweep_chunks
from polarlasso.shifted import unit_shift_batch


@pytest.fixture(scope="module")
def noisy_instance():
    """4x7 design with an observation large enough for a nonzero mode."""
    base = pl.gen_bernoulli_matrix(4, 7, 11)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(4)
    y *= 3.0 / np.linalg.norm(y)
    return pl.make_problem(base.A, y)


class TestObjective:
    def test_zero_point(self, noisy_instance):
        assert pl.objective(noisy_instance, np.zeros(7)) == pytest.approx(
            0.5 * noisy_instance.y_norm**2
        )

    def test_basis_vector_zero_observation(self, desk_instance):
        x = np.eye(7)[0]
        assert pl.objective(desk_instance, x) == pytest.approx(1.5)  # unit column

    def test_dimension_mismatch(self, desk_instance):
        # both name a wrong-length or non-finite x (objective returned nan for one)
        for function in (pl.objective, pl.duality_gap):
            with pytest.raises(ValueError, match="^x must have length 7$"):
                function(desk_instance, np.zeros(5))
            for bad in (math.nan, math.inf):
                x = np.zeros(7)
                x[3] = bad
                with pytest.raises(ValueError, match="^x must be finite$"):
                    function(desk_instance, x)


class TestFista:
    def test_zero_observation_returns_zero(self, desk_instance):
        sol = pl.solve_fista(desk_instance)
        np.testing.assert_array_equal(sol.x, np.zeros(7))
        assert sol.meta["converged"]

    @pytest.mark.parametrize("scale", [1e-158, 1e-165])
    def test_design_whose_squared_norm_underflows(self, scale):
        # the step 1/||A||^2 is inf (1e-158), or ||A||^2 is 0 (1e-165); there
        # ||A^T y||_inf <= ||A|| ||y|| < 1, so the mode is exactly 0
        prob = tiny_design(scale)
        assert 0.0 < prob.op_norm < 7.5e-155
        sol = pl.solve_fista(prob)
        np.testing.assert_array_equal(sol.x, np.zeros(7))
        assert sol.meta == {"iterations": 0, "converged": True, "step": math.inf, "gap": 0.0}

    def test_identity_design_soft_threshold(self):
        y = np.array([2.5, -0.4, 0.0, 1.2])
        prob = pl.make_problem(np.eye(4), y)
        sol = pl.solve_fista(prob)
        expected = np.sign(y) * np.maximum(np.abs(y) - 1.0, 0.0)
        np.testing.assert_allclose(sol.x, expected, atol=1e-8)

    def test_optimality_certificate(self, noisy_instance):
        sol = pl.solve_fista(noisy_instance)
        grad = noisy_instance.A.T @ (noisy_instance.A @ sol.x - noisy_instance.y)
        assert np.all(np.abs(grad) <= 1.0 + 1e-6)
        nz = np.abs(sol.x) > 1e-9
        np.testing.assert_allclose(grad[nz], -np.sign(sol.x[nz]), atol=1e-6)

    def test_objective_field_consistency(self, noisy_instance):
        sol = pl.solve_fista(noisy_instance)
        assert sol.objective == pl.objective(noisy_instance, sol.x)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_tol(self, noisy_instance, tol):
        # tol = inf would stop after one step and report convergence
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            pl.solve_fista(noisy_instance, tol=tol)

    @pytest.mark.parametrize("max_iter", [True, 0, -1, 2.5, 100.0])
    def test_rejects_max_iter_not_a_positive_integer(self, noisy_instance, max_iter):
        with pytest.raises(ValueError, match=f"^max_iter must be an integer >= 1, not {max_iter!r}$"):
            pl.solve_fista(noisy_instance, max_iter)

    def test_accepts_numpy_integer_max_iter(self, noisy_instance):
        assert pl.solve_fista(noisy_instance, np.int64(3)).meta["iterations"] == 3

    def test_beats_random_points(self, noisy_instance):
        sol = pl.solve_fista(noisy_instance)
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.standard_normal(7)
            assert pl.objective(noisy_instance, x) >= sol.objective - 1e-8


def _soft(v, thr):
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def _iterates(prob):
    """FISTA's iterates x_1, x_2, ... and the residual of each,
    ||x - prox(x - step grad)||, formed for that iterate alone."""
    step = 1.0 / prob.op_norm**2
    x = np.zeros(prob.p)
    z = x.copy()
    t = 1.0
    while True:
        grad = prob.A.T @ (prob.A @ z - prob.y)
        x_new = _soft(z - step * grad, step)
        t_new = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        grad_x = prob.A.T @ (prob.A @ x - prob.y)
        yield x, float(np.linalg.norm(x - _soft(x - step * grad_x, step)))


def _fista_reference(prob, max_iter=FISTA_MAX_ITER, tol=FISTA_TOL):
    """(x, objective, meta) of FISTA with its stopping rule checked on each
    iterate in turn: the output solve_fista must give byte for byte."""
    for iterations, (x, resid) in enumerate(itertools.islice(_iterates(prob), max_iter), 1):
        if resid <= tol:
            break
    meta = {"iterations": iterations, "converged": resid <= tol, "step": 1.0 / prob.op_norm**2,
            "gap": pl.duality_gap(prob, x)}
    return x, pl.objective(prob, x), meta


def _assert_matches_reference(prob, max_iter=FISTA_MAX_ITER, tol=FISTA_TOL):
    sol = pl.solve_fista(prob, max_iter, tol)
    x, obj, meta = _fista_reference(prob, max_iter, tol)
    assert sol.x.tobytes() == x.tobytes()
    assert sol.x.flags.owndata  # a copy, not a row of the block
    assert repr(sol.objective) == repr(obj)
    assert sol.meta == meta
    return sol


def _with_columns(n, p, seed, y_norm, edit):
    prob = scaled_instance(n, p, y_norm, seed)
    A = prob.A.copy()
    edit(A)
    return pl.make_problem(A, prob.y)


def _zero_column(A):
    A[:, 2] = 0.0


def _duplicate_and_negated_columns(A):
    A[:, 3], A[:, 5] = A[:, 0], -A[:, 1]


FISTA_DESIGNS = {
    **{f"bernoulli-{n}x{p}": (lambda y_norm, n=n, p=p: scaled_instance(n, p, y_norm, 5))
       for n, p in [(1, 1), (1, 4), (2, 3), (3, 5), (4, 7), (10, 20), (2, 200)]},
    "separable-20x100": lambda y_norm: separable_instance(20, 100, y_norm, 3)[0],
    "zero-column": lambda y_norm: _with_columns(4, 7, 6, y_norm, _zero_column),
    "duplicate-columns": lambda y_norm: _with_columns(4, 7, 7, y_norm, _duplicate_and_negated_columns),
}


class TestFistaBlockCheck:
    """solve_fista decides its stopping rule for blocks of iterates; it must
    stop where a check of each iterate in turn stops."""

    @pytest.mark.parametrize("y_norm", [0.0, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("design", sorted(FISTA_DESIGNS))
    def test_matches_the_per_iterate_check(self, design, y_norm):
        prob = FISTA_DESIGNS[design](y_norm)
        for max_iter in (1, _FISTA_BLOCK - 1, _FISTA_BLOCK, _FISTA_BLOCK + 1, FISTA_MAX_ITER):
            _assert_matches_reference(prob, max_iter)

    def test_budget_not_a_multiple_of_the_block(self):
        prob = scaled_instance(10, 20, 2.0, 5)
        max_iter = 3 * _FISTA_BLOCK + 5
        sol = _assert_matches_reference(prob, max_iter)
        assert sol.meta["iterations"] == max_iter and not sol.meta["converged"]

    @pytest.mark.parametrize("design", ["bernoulli-4x7", "bernoulli-10x20", "separable-20x100", "zero-column",
                                        "duplicate-columns"])
    def test_stops_at_a_tie_and_not_just_below_it(self, design):
        # tol = the residual of iterate k, > 0 and below every earlier one:
        # FISTA stops at k; at the next float towards 0 it must not
        prob = FISTA_DESIGNS[design](5.0)
        best, records = math.inf, []
        for k, (_, resid) in enumerate(itertools.islice(_iterates(prob), 300), 1):
            if resid < best:
                best = resid
                if resid > 0.0:
                    records.append((k, resid))
        assert records[-1][0] > 4 * _FISTA_BLOCK
        for k, resid in records:
            assert _assert_matches_reference(prob, tol=resid).meta["iterations"] == k
            assert _assert_matches_reference(prob, tol=np.nextafter(resid, 0.0)).meta["iterations"] != k


class TestPolar:
    def test_zero_observation_returns_zero(self, desk_instance):
        sol = pl.solve_polar(desk_instance, 1000, 0)
        np.testing.assert_array_equal(sol.x, np.zeros(7))
        assert sol.meta["best_beta"] is None

    def test_small_observation_returns_zero(self, desk_instance):
        y = np.zeros(4)
        y[0] = 0.9 / desk_instance.op_norm
        prob = pl.make_problem(desk_instance.A, y)
        assert pl.zero_lasso_sufficient(prob)
        sol = pl.solve_polar(prob, 5000, 1)
        np.testing.assert_array_equal(sol.x, np.zeros(7))

    def test_nonzero_observation(self, noisy_instance):
        fista = pl.solve_fista(noisy_instance)
        polar = pl.solve_polar(noisy_instance, 100000, 2)
        assert np.any(polar.x != 0)
        # finite sweep approximates the argmin from above
        assert polar.objective >= fista.objective - 1e-6

    def test_objective_improves_with_samples(self, noisy_instance):
        small = pl.solve_polar(noisy_instance, 1000, 5)
        big = pl.solve_polar(noisy_instance, 200000, 5)
        assert big.objective <= small.objective + 1e-12

    def test_determinism(self, noisy_instance):
        a = pl.solve_polar(noisy_instance, 20000, 7)
        b = pl.solve_polar(noisy_instance, 20000, 7)
        np.testing.assert_array_equal(a.x, b.x)


def _split(prob):
    """(A^T y, the active columns |(A^T y)_j| > 1, the other columns)."""
    g = prob.A.T @ prob.y
    active = np.abs(g) > 1.0
    return g, np.flatnonzero(active), np.flatnonzero(~active)


def _head(va, g_a):
    """The numerator's part on the active coordinates, as the search forms it."""
    return np.abs(va) @ np.ones(g_a.size) - va @ g_a


def _tail(vr, g_r):
    """The numerator's part on the other coordinates: |v_j| - v_j g_j term by
    term, then summed."""
    terms = np.abs(vr)
    terms -= vr * g_r
    return terms @ np.ones(g_r.size)


def _two_block_rows(gen, count, prob):
    """The rows the search keeps of a chunk, in the coordinates of A, and
    their numerators ||v||_1 - v . A^T y: a (count, k) block of the active
    coordinates, then the others only for the rows whose active part is <= 0,
    each row of all zeros redrawn whole."""
    g, cols_a, cols_r = _split(prob)
    va = gen.standard_normal((count, cols_a.size))
    partial = _head(va, g[cols_a])
    keep = np.flatnonzero(partial <= 0.0)
    vr = gen.standard_normal((keep.size, cols_r.size))
    v = np.empty((keep.size, prob.p))
    v[:, cols_a], v[:, cols_r] = va[keep], vr
    num = partial[keep] + _tail(vr, g[cols_r])
    bad = ~v.any(axis=1)
    while np.any(bad):
        w = gen.standard_normal((int(bad.sum()), prob.p))
        v[np.ix_(bad, cols_a)], v[np.ix_(bad, cols_r)] = w[:, :cols_a.size], w[:, cols_a.size:]
        num[bad] = _head(w[:, :cols_a.size], g[cols_a]) + _tail(w[:, cols_a.size:], g[cols_r])
        bad = ~v.any(axis=1)
    return v, num


def _full_sweep(prob, chunks):
    """The mode search that scores every row it keeps: beta = num / ||A v||
    with A v formed on all of them, in every chunk.  Returns (x, best beta,
    rows with beta <= 0)."""
    best_beta = best_v = best_norm_A = None
    neg_count = 0
    for gen, count in chunks:
        v, num = _two_block_rows(gen, count, prob)
        norm_A = np.linalg.norm(np.einsum("ij,kj->ik", v, prob.A), axis=1)
        betas = num / norm_A
        neg = np.flatnonzero(betas <= 0.0)
        neg_count += neg.size
        if neg.size:
            i = neg[np.argmax(betas[neg] ** 2)]
            b = float(betas[i])
            if best_beta is None or b * b > best_beta * best_beta:
                best_beta, best_v, best_norm_A = b, v[i], float(norm_A[i])
    x = np.zeros(prob.p) if best_beta is None else -(best_beta / best_norm_A) * best_v
    return x, best_beta, neg_count


def _builder_sweep(prob, chunks):
    """The mode search on the kept rows as unit directions, every row's tilt
    read from its segment batch.  Returns (x, best beta, rows with beta <= 0)."""
    best_beta = best_theta = best_norm_A = None
    neg_count = 0
    for gen, count in chunks:
        v, _ = _two_block_rows(gen, count, prob)
        thetas = v / np.linalg.norm(v, axis=1)[:, None]
        batch = unit_shift_batch(prob, np.zeros(prob.p), thetas)
        betas = batch.beta[:, 0]
        neg = np.flatnonzero(betas <= 0.0)
        neg_count += neg.size
        if neg.size:
            i = neg[np.argmax(betas[neg] ** 2)]
            b = float(betas[i])
            if best_beta is None or b * b > best_beta * best_beta:
                best_beta, best_theta, best_norm_A = b, thetas[i], float(batch.norm_A[i])
    x = np.zeros(prob.p) if best_beta is None else -(best_beta / best_norm_A) * best_theta
    return x, best_beta, neg_count


SCREEN_INSTANCES = [
    (4, 7, 0.0),  # the desk design at y = 0: no active coordinate
    (4, 7, 2.0),
    (1, 1, 1.0),  # |A^T y| = 1, and half the rows have beta = 0 exactly
    (2, 3, 10.0),  # most rows have beta <= 0
    (10, 20, 5.0),
    # few rows per chunk pass on these two, and BLAS rounds most products
    # of a batch of a few rows differently from those of a larger batch
    (5, 64, 4.0),
    (3, 300, 8.0),
]


def bench_instance(n, p, y_norm, seed=42):
    """The benchmark's instances: a Bernoulli design and y of norm y_norm,
    drawn from default_rng([seed, n, p])."""
    rng = np.random.default_rng([seed, n, p])
    A = (2.0 * rng.integers(0, 2, size=(n, p)) - 1.0) / math.sqrt(n)
    y = rng.standard_normal(n)
    return pl.make_problem(A, y * (y_norm / np.linalg.norm(y)))


class TestPolarScreen:
    """The sweep draws the active coordinates of every row, the others only
    for the rows that can still pass, forms A v on the rows that pass, and
    returns what scoring every kept row returns."""

    @pytest.mark.parametrize("n, p, y_norm", SCREEN_INSTANCES)
    def test_matches_full_sweep(self, n, p, y_norm):
        prob = scaled_instance(n, p, y_norm)
        n_samples = 2 * CHUNK + 5
        sol = pl.solve_polar(prob, n_samples, 9)
        x, best_beta, neg_count = _full_sweep(prob, sweep_chunks(9, n_samples))
        assert sol.x.tobytes() == x.tobytes()
        assert sol.objective == pl.objective(prob, x)
        assert sol.meta["best_beta"] == best_beta
        assert sol.meta["n_negative"] == neg_count
        assert sol.meta["gap"] == pl.duality_gap(prob, x)
        assert set(sol.meta) == {"best_beta", "n_samples", "n_negative", "gap"}

    @pytest.mark.parametrize("seed", [0, 1, 2, 9])
    @pytest.mark.parametrize("n, p, y_norm", SCREEN_INSTANCES)
    def test_agrees_with_the_builder_tilt(self, n, p, y_norm, seed):
        # the tilt of the segment batch at l = 0, on the same directions
        # normalised, is an independent form of the same beta
        prob = scaled_instance(n, p, y_norm)
        n_samples = 2 * CHUNK + 5
        sol = pl.solve_polar(prob, n_samples, seed)
        x, best_beta, neg_count = _builder_sweep(prob, sweep_chunks(seed, n_samples))
        assert sol.meta["n_negative"] == neg_count
        if best_beta is None:
            assert sol.meta["best_beta"] is None
        else:
            assert sol.meta["best_beta"] == pytest.approx(best_beta, rel=1e-13)
        np.testing.assert_allclose(sol.x, x, rtol=1e-13, atol=0.0)

    def test_zero_row_redrawn_as_sample_sphere_batch_does(self, monkeypatch):
        prob = scaled_instance(2, 3, 10.0)
        _, cols_a, _ = _split(prob)
        solved, ref = ZeroFirstRow(), ZeroFirstRow()
        monkeypatch.setattr(problem, "sweep_chunks", lambda rng, n: [(solved, n)])
        sol = pl.solve_polar(prob, 64, 0)
        x, best_beta, neg_count = _full_sweep(prob, [(ref, 64)])
        assert sol.x.tobytes() == x.tobytes()
        assert (sol.meta["best_beta"], sol.meta["n_negative"]) == (best_beta, neg_count)
        # both drew the same replacement row, of all p coordinates, after
        # the two blocks
        assert solved.zeroed == ref.zeroed == 2
        assert solved.gen.bit_generator.state == ref.gen.bit_generator.state
        kept = solved.sizes[1][0]
        assert solved.sizes == [(64, cols_a.size), (kept, 3 - cols_a.size), (1, 3)]

    def test_zero_row_redrawn_in_a_chunk_that_passes_no_row(self, monkeypatch):
        # the screen passes no row of this chunk, and the zero row is still
        # redrawn before it
        prob = bench_instance(10, 20, 2.0)
        solved, ref = ZeroFirstRow(), ZeroFirstRow()
        monkeypatch.setattr(problem, "sweep_chunks", lambda rng, n: [(solved, n)])
        sol = pl.solve_polar(prob, CHUNK, 0)
        assert sol.meta["n_negative"] == 0
        assert sol.x.tobytes() == np.zeros(20).tobytes()
        _two_block_rows(ref, CHUNK, prob)
        assert solved.zeroed == ref.zeroed == 2
        assert solved.sizes[-1] == (1, 20)
        assert solved.gen.bit_generator.state == ref.gen.bit_generator.state

    @pytest.mark.parametrize("workers", [1, 2])
    def test_winner_of_the_first_chunk_survives_the_later_ones(self, monkeypatch, workers):
        # each thread refills its chunk buffers, so the winning direction of
        # chunk 0 must not be read from them once chunks 1 and 2 have run
        monkeypatch.setattr(problem, "_WORKERS", workers)
        prob = scaled_instance(2, 3, 10.0)
        n_samples = 2 * CHUNK + 5
        x, best_beta, _ = _full_sweep(prob, sweep_chunks(0, n_samples))
        assert _full_sweep(prob, sweep_chunks(0, n_samples)[:1])[1] == best_beta  # chunk 0 wins
        sol = pl.solve_polar(prob, n_samples, 0)
        assert sol.meta["best_beta"] == best_beta
        assert sol.x.tobytes() == x.tobytes()


class ZeroFirstRow:
    """A generator whose first two normal blocks each start with a zero row,
    so that the first row of a chunk is all zeros; it records the shape of
    every block it draws."""

    def __init__(self):
        self.gen = np.random.default_rng(12)
        self.zeroed = 0
        self.sizes = []

    def standard_normal(self, size=None, out=None):
        v = self.gen.standard_normal(size, out=out)
        self.sizes.append(v.shape)
        if self.zeroed < 2 and len(v):
            v[0] = 0.0
            self.zeroed += 1
        return v


class CountingGenerator:
    """A chunk generator that records every block of normals it draws."""

    def __init__(self, gen):
        self.gen = gen
        self.blocks = []

    def standard_normal(self, size=None, out=None):
        v = self.gen.standard_normal(size, out=out)
        self.blocks.append(v.copy())
        return v


DESIGNS = {"desk": (4, 7, 2.0, 3), "wide": (10, 20, 2.0, 5), "desk at y = 0": (4, 7, 0.0, 0)}


class TestPolarDraws:
    """What the search draws: the active block of every row, the rest only
    for the rows that can still pass, and rows of the right law."""

    @pytest.mark.parametrize("design", DESIGNS)
    def test_draws_the_rest_only_for_kept_rows(self, monkeypatch, design):
        n, p, y_norm, k = DESIGNS[design]
        prob = bench_instance(n, p, y_norm)
        g, cols_a, _ = _split(prob)
        assert cols_a.size == k
        chunks = []
        real = problem.sweep_chunks

        def counted(rng, n_samples):
            chunks[:] = [(CountingGenerator(gen), rows) for gen, rows in real(rng, n_samples)]
            return chunks

        monkeypatch.setattr(problem, "sweep_chunks", counted)
        n_samples = 3 * CHUNK + 100
        sol = pl.solve_polar(prob, n_samples, 4)
        assert len(chunks) == 4
        kept_total = 0
        for gen, rows in chunks:
            first = gen.blocks[0]
            kept = int(np.count_nonzero(_head(first, g[cols_a]) <= 0.0))
            assert [b.shape for b in gen.blocks] == [(rows, k), (kept, p - k)]
            assert sum(b.size for b in gen.blocks) == k * rows + kept * (p - k)
            kept_total += kept
        if k == 0:
            assert kept_total == n_samples
        else:
            assert kept_total < n_samples / 2
        assert sol.meta["n_samples"] == n_samples

    @pytest.mark.parametrize("n, p, y_norm", [(4, 7, 2.0), (10, 20, 2.0), (2, 3, 10.0), (10, 20, 5.0)])
    def test_dropped_rows_fail_for_every_completion(self, n, p, y_norm):
        prob = scaled_instance(n, p, y_norm)
        self._check_completions(prob, np.random.default_rng(n * p))

    def test_dropped_rows_fail_where_a_term_can_vanish(self):
        # A^T y = (1, 2, -1, 1): three coordinates with |g_j| = 1 exactly,
        # where the rest term of the matching sign is 0
        A = np.array([[1.0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
        prob = pl.make_problem(A, np.array([1.0, 2.0, -1.0]))
        g, cols_a, cols_r = _split(prob)
        assert cols_a.tolist() == [1] and np.all(np.abs(g[cols_r]) == 1.0)
        self._check_completions(prob, np.random.default_rng(5))

    @staticmethod
    def _check_completions(prob, rng):
        g, cols_a, cols_r = _split(prob)
        g_r = g[cols_r]
        va = rng.standard_normal((CHUNK, cols_a.size))
        partial = _head(va, g[cols_a])
        dropped = partial[partial > 0.0]
        assert dropped.size
        mags = np.abs(rng.standard_normal((dropped.size, cols_r.size)))
        completions = [
            np.zeros((dropped.size, cols_r.size)),
            np.where(g_r < 0, -1.0, 1.0) * mags,  # the sign that makes each term least
            np.where(g_r < 0, -1.0, 1.0) * mags * 1e150,
        ]
        for vr in completions:
            assert np.all(dropped + _tail(vr, g_r) > 0.0)

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(row=hst.integers(0, dropped.size - 1),
               vr=hnp.arrays(float, cols_r.size, elements=hst.floats(-1e300, 1e300)))
        def any_completion(row, vr):
            assert dropped[row] + _tail(vr[None, :], g_r)[0] > 0.0

        any_completion()

    @pytest.mark.parametrize("n, p, y_norm", [(4, 7, 2.0), (2, 3, 10.0)])
    def test_passing_fraction_has_the_law_of_uniform_directions(self, n, p, y_norm):
        # pooled over 20 seeds, the fraction of rows with beta <= 0 agrees
        # with that of sample_sphere_batch directions scored unscreened
        prob = scaled_instance(n, p, y_norm)
        g = prob.A.T @ prob.y
        n_samples = 2 * CHUNK + 5
        seeds = range(100, 120)
        screened = sum(pl.solve_polar(prob, n_samples, s).meta["n_negative"] for s in seeds)
        plain = 0
        for s in seeds:
            theta = sample_sphere_batch(np.random.default_rng([s, 7]), n_samples, p)
            plain += int(np.count_nonzero(np.abs(theta).sum(axis=1) - theta @ g <= 0.0))
        total = n_samples * len(seeds)
        rate = (screened + plain) / (2 * total)
        sigma = math.sqrt(rate * (1 - rate) * 2 / total)
        assert 0.0 < rate < 1.0
        assert abs(screened - plain) / total <= 4 * sigma


def separable_instance(n, p, y_norm, seed):
    """A = [diag(a), 0] with a ~ U(0.5, 1.5), and its exact mode: the soft
    threshold sign(y_i) max(a_i |y_i| - 1, 0) / a_i^2, 0 on the zero columns."""
    rng = np.random.default_rng([seed, n, p])
    a = rng.uniform(0.5, 1.5, n)
    y = rng.standard_normal(n)
    y *= y_norm / np.linalg.norm(y)
    A = np.zeros((n, p))
    A[:, :n] = np.diag(a)
    mode = np.zeros(p)
    mode[:n] = np.sign(y) * np.maximum(a * np.abs(y) - 1.0, 0.0) / a**2
    return pl.make_problem(A, y), mode


SEPARABLE = [(4, 7, 2.0), (20, 20, 4.0), (20, 100, 6.0), (100, 100, 10.0), (50, 200, 8.0), (200, 200, 12.0)]


class TestDualityGap:
    @pytest.mark.parametrize("n, p, y_norm", SEPARABLE)
    def test_vanishes_at_the_separable_mode(self, n, p, y_norm):
        prob, mode = separable_instance(n, p, y_norm, 3)
        assert np.any(mode)  # a mode away from 0
        gap = pl.duality_gap(prob, mode)
        assert abs(gap) <= 1e-12 * (1.0 + pl.objective(prob, mode))

    @pytest.mark.parametrize("n, p, y_norm", SEPARABLE)
    def test_bounds_the_objective_error(self, n, p, y_norm):
        prob, mode = separable_instance(n, p, y_norm, 4)
        best = pl.objective(prob, mode)
        rng = np.random.default_rng(p)
        points = [np.zeros(p), 2.0 * mode, mode + 1e-3 * rng.standard_normal(p)]
        points += [rng.laplace(size=p) * scale for scale in (0.1, 1.0, 10.0)]
        for x in points:
            gap = pl.duality_gap(prob, x)
            assert gap >= 0.0
            assert gap >= (pl.objective(prob, x) - best) * (1.0 - 1e-12)

    def test_both_methods_carry_it(self, noisy_instance):
        fista = pl.solve_fista(noisy_instance)
        polar = pl.solve_polar(noisy_instance, 20000, 1)
        assert fista.meta["gap"] == pl.duality_gap(noisy_instance, fista.x)
        assert polar.meta["gap"] == pl.duality_gap(noisy_instance, polar.x)
        assert 0.0 <= fista.meta["gap"] < 1e-8 < polar.meta["gap"]

    def test_fista_at_the_separable_mode(self):
        prob, mode = separable_instance(50, 200, 8.0, 5)
        sol = pl.solve_fista(prob)
        np.testing.assert_allclose(sol.x, mode, atol=1e-8)
        err = pl.objective(prob, sol.x) - pl.objective(prob, mode)
        assert err * (1.0 - 1e-12) <= sol.meta["gap"] < 1e-8

    def test_polar_zero_on_the_wide_instance_is_not_the_mode(self):
        # no direction of the sweep has beta <= 0, yet ||A^T y||_inf = 1.39
        # > 1, so 0 is not the mode; the gap of x = 0 is
        # ||y||^2 (1 - 1/||A^T y||_inf)^2 / 2
        prob = bench_instance(10, 20, 2.0)
        sol = pl.solve_polar(prob, 100_000, 0)
        assert sol.meta["n_negative"] == 0 and not np.any(sol.x)
        g_inf = float(np.abs(prob.A.T @ prob.y).max())
        assert g_inf == pytest.approx(1.394, abs=1e-3)
        assert sol.meta["gap"] == pytest.approx(0.5 * 4.0 * (1.0 - 1.0 / g_inf) ** 2, rel=1e-12)
        assert sol.meta["gap"] == pytest.approx(0.16, abs=0.005)
        assert pl.solve_fista(prob).meta["gap"] < 1e-9


class TestSolverAgreement:
    def test_objective_gap_stochastic_improvement(self):
        # larger sweeps should not do worse on a majority of seeded instances
        wins = 0
        for seed in range(10):
            base = pl.gen_bernoulli_matrix(4, 7, 300 + seed)
            rng = np.random.default_rng(seed)
            y = rng.standard_normal(4)
            y *= 2.5 / np.linalg.norm(y)
            prob = pl.make_problem(base.A, y)
            small = pl.solve_polar(prob, 1000, seed)
            big = pl.solve_polar(prob, 100000, seed)
            if big.objective <= small.objective + 1e-12:
                wins += 1
        assert wins >= 9
