"""Mode solvers: objective, FISTA baseline, and the polar sweep."""

import numpy as np
import pytest

import polarlasso as pl
from conftest import scaled_instance
from polarlasso import problem
from polarlasso.problem import CHUNK, direction_batch, sample_sphere_batch, sweep_chunks


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


def _full_sweep(prob, chunks):
    """The unscreened mode search: every row of every chunk normalised and
    scored.  Returns (x, best beta, rows with beta <= 0)."""
    best_beta = best_theta = best_norm_A = None
    neg_count = 0
    for gen, count in chunks:
        thetas = sample_sphere_batch(gen, count, prob.p)
        st = direction_batch(prob.A, prob.y, thetas)
        neg = np.flatnonzero(st.beta <= 0.0)
        neg_count += neg.size
        if neg.size:
            i = neg[np.argmax(st.beta[neg] ** 2)]
            b = float(st.beta[i])
            if best_beta is None or b * b > best_beta * best_beta:
                best_beta, best_theta, best_norm_A = b, thetas[i], float(st.norm_A[i])
    x = np.zeros(prob.p) if best_beta is None else -(best_beta / best_norm_A) * best_theta
    return x, best_beta, neg_count


class TestPolarScreen:
    """The screened sweep scores only the rows that can have beta <= 0, and
    returns what scoring every row returns."""

    @pytest.mark.parametrize("n, p, y_norm", [
        (4, 7, 0.0),  # the desk design at y = 0
        (4, 7, 2.0),
        (1, 1, 1.0),  # half the rows have beta = 0 exactly
        (2, 3, 10.0),  # most rows have beta <= 0
        (10, 20, 5.0),
        # few rows per chunk pass on these two, and BLAS rounds most products
        # of a batch of a few rows differently from those of a whole chunk
        (5, 64, 4.0),
        (3, 300, 8.0),
    ])
    def test_matches_full_sweep(self, n, p, y_norm):
        prob = scaled_instance(n, p, y_norm)
        n_samples = 2 * CHUNK + 5
        sol = pl.solve_polar(prob, n_samples, 9)
        x, best_beta, neg_count = _full_sweep(prob, sweep_chunks(9, n_samples))
        assert sol.x.tobytes() == x.tobytes()
        assert sol.objective == pl.objective(prob, x)
        assert sol.meta["best_beta"] == best_beta
        assert sol.meta["n_negative"] == neg_count
        assert neg_count <= sol.meta["n_scored"] <= n_samples

    def test_zero_row_redrawn_as_sample_sphere_batch_does(self, monkeypatch):
        class ZeroFirstRow:
            """A generator whose first normal block starts with a zero row."""

            def __init__(self):
                self.gen = np.random.default_rng(12)
                self.zeroed = False

            def standard_normal(self, size):
                v = self.gen.standard_normal(size)
                if not self.zeroed:
                    v[0] = 0.0
                    self.zeroed = True
                return v

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
