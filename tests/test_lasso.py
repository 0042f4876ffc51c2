"""Mode solvers: objective, FISTA baseline, and the polar sweep."""

import math

import numpy as np
import pytest

import polarlasso as pl
from conftest import scaled_instance
from polarlasso import problem
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
        with pytest.raises(ValueError):
            pl.objective(desk_instance, np.zeros(5))


class TestFista:
    def test_zero_observation_returns_zero(self, desk_instance):
        sol = pl.solve_fista(desk_instance)
        np.testing.assert_array_equal(sol.x, np.zeros(7))
        assert sol.meta["converged"]

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

    def test_beats_random_points(self, noisy_instance):
        sol = pl.solve_fista(noisy_instance)
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.standard_normal(7)
            assert pl.objective(noisy_instance, x) >= sol.objective - 1e-8


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


def _raw_rows(gen, count, p):
    """The standard normal rows of sample_sphere_batch, each zero row redrawn
    as it redraws them, without its final division by the norms."""
    v = gen.standard_normal((count, p))
    norms = np.linalg.norm(v, axis=1)
    bad = norms == 0.0
    while np.any(bad):
        v[bad] = gen.standard_normal((int(bad.sum()), p))
        norms[bad] = np.linalg.norm(v[bad], axis=1)
        bad = norms == 0.0
    return v


def _full_sweep(prob, chunks):
    """The unscreened mode search on raw rows: beta = (||v||_1 - v . A^T y)
    / ||A v|| on every row of every chunk, with A v formed on the whole chunk.
    Returns (x, best beta, rows with beta <= 0)."""
    best_beta = best_v = best_norm_A = None
    neg_count = 0
    for gen, count in chunks:
        v = _raw_rows(gen, count, prob.p)
        num = np.abs(v) @ np.ones(prob.p) - v @ (prob.A.T @ prob.y)
        norm_A = np.linalg.norm(v @ prob.A.T, axis=1)
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
    """The mode search on unit directions, every row's tilt read from its
    segment batch.  Returns (x, best beta, rows with beta <= 0)."""
    best_beta = best_theta = best_norm_A = None
    neg_count = 0
    for gen, count in chunks:
        thetas = sample_sphere_batch(gen, count, prob.p)
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
    (4, 7, 0.0),  # the desk design at y = 0
    (4, 7, 2.0),
    (1, 1, 1.0),  # half the rows have beta = 0 exactly
    (2, 3, 10.0),  # most rows have beta <= 0
    (10, 20, 5.0),
    # few rows per chunk pass on these two, and BLAS rounds most products
    # of a batch of a few rows differently from those of a whole chunk
    (5, 64, 4.0),
    (3, 300, 8.0),
]


class TestPolarScreen:
    """The sweep forms A v only for a chunk with a row of beta <= 0, and
    returns what scoring every row returns."""

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
        assert set(sol.meta) == {"best_beta", "n_samples", "n_negative"}

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
        solved, ref = ZeroFirstRow(), ZeroFirstRow()
        monkeypatch.setattr(problem, "sweep_chunks", lambda rng, n: [(solved, n)])
        sol = pl.solve_polar(prob, 64, 0)
        x, best_beta, neg_count = _full_sweep(prob, [(ref, 64)])
        assert sol.x.tobytes() == x.tobytes()
        assert (sol.meta["best_beta"], sol.meta["n_negative"]) == (best_beta, neg_count)
        # both drew the same replacement row after the first block
        assert solved.gen.bit_generator.state == ref.gen.bit_generator.state
        plain = np.random.default_rng(12)
        plain.standard_normal((64, 3))
        assert solved.gen.bit_generator.state != plain.bit_generator.state

    def test_zero_row_redrawn_in_a_chunk_that_passes_no_row(self, monkeypatch):
        # the screen passes no row of this chunk, and the zero row is still
        # redrawn before it, as sample_sphere_batch redraws it
        prob = scaled_instance(10, 20, 2.0)
        solved, ref = ZeroFirstRow(), ZeroFirstRow()
        monkeypatch.setattr(problem, "sweep_chunks", lambda rng, n: [(solved, n)])
        sol = pl.solve_polar(prob, CHUNK, 0)
        assert sol.meta["n_negative"] == 0
        assert sol.x.tobytes() == np.zeros(20).tobytes()
        sample_sphere_batch(ref, CHUNK, 20)
        assert solved.zeroed and ref.zeroed
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
    """A generator whose first normal block starts with a zero row."""

    def __init__(self):
        self.gen = np.random.default_rng(12)
        self.zeroed = False

    def standard_normal(self, size=None, out=None):
        v = self.gen.standard_normal(size, out=out)
        if not self.zeroed:
            v[0] = 0.0
            self.zeroed = True
        return v


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
