"""Instance construction and per-direction statistics."""

import math

import mpmath as mp
import numpy as np
import pytest

import polarlasso as pl
from polarlasso.problem import CHUNK, sample_laplace, sample_sphere_batch, sweep_chunks


class TestGeneration:
    def test_entries_and_column_norms(self):
        prob = pl.gen_bernoulli_matrix(4, 7, 1)
        assert prob.A.shape == (4, 7)
        assert set(np.unique(np.abs(prob.A))) == {0.5}
        np.testing.assert_allclose(np.linalg.norm(prob.A, axis=0), 1.0, rtol=0, atol=1e-15)

    def test_single_entry(self):
        prob = pl.gen_bernoulli_matrix(1, 1, 0)
        assert abs(prob.A[0, 0]) == 1.0

    def test_deterministic(self):
        a = pl.gen_bernoulli_matrix(4, 7, 123)
        b = pl.gen_bernoulli_matrix(4, 7, 123)
        np.testing.assert_array_equal(a.A, b.A)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            pl.gen_bernoulli_matrix(7, 4, 0)

    def test_rejects_non_finite(self):
        A = np.ones((2, 3))
        bad_A = A.copy()
        bad_A[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            pl.make_problem(bad_A)
        with pytest.raises(ValueError, match="finite"):
            pl.make_problem(A, np.array([0.0, np.inf]))

    def test_operator_norm_matches_svd(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            p = int(rng.integers(n, 9))
            A = rng.standard_normal((n, p))
            prob = pl.make_problem(A)
            with mp.workdps(40):
                want = max(mp.svd_r(mp.matrix(A.tolist()), compute_uv=False))
            # the largest singular value to a few ulp
            assert prob.op_norm == pytest.approx(float(want), rel=4 * np.finfo(float).eps)


class TestDirectionStats:
    def test_zero_observation_cosine(self, desk_instance):
        st = pl.direction_stats(desk_instance, np.ones(7))
        assert st.s == 0.0
        assert st.beta == pytest.approx(st.l1_theta / st.norm_A_theta)

    def test_null_direction_sentinel(self, desk_instance, oracles):
        rng = np.random.default_rng(0)
        theta = oracles.null_space_direction(desk_instance.A, rng)
        st = pl.direction_stats(desk_instance, theta)
        assert st.beta is None
        assert st.norm_A_theta <= 1e-12

    def test_basis_vector(self, desk_instance):
        st = pl.direction_stats(desk_instance, np.eye(7)[0])
        assert st.l1_theta == pytest.approx(1.0)
        assert st.norm_A_theta == pytest.approx(1.0)  # unit columns

    def test_l1_range_on_sphere(self, desk_instance):
        rng = np.random.default_rng(1)
        for theta in sample_sphere_batch(rng, 200, 7):
            st = pl.direction_stats(desk_instance, theta)
            assert 1.0 - 1e-12 <= st.l1_theta <= math.sqrt(7) + 1e-12
            assert abs(np.linalg.norm(st.theta) - 1.0) <= 1e-12

    def test_scale_invariance(self, desk_instance_y):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(7)
        a = pl.direction_stats(desk_instance_y, v)
        b = pl.direction_stats(desk_instance_y, 17.3 * v)
        assert a.beta == pytest.approx(b.beta, rel=1e-12)
        assert a.s == pytest.approx(b.s, rel=1e-12)

    def test_rejects_zero_vector(self, desk_instance):
        with pytest.raises(ValueError):
            pl.direction_stats(desk_instance, np.zeros(7))


class TestRayEnergy:
    def test_at_origin(self, desk_instance_y):
        st = pl.direction_stats(desk_instance_y, np.ones(7))
        y_norm = desk_instance_y.y_norm
        assert pl.ray_energy(st, 0.0, y_norm) == pytest.approx(0.5 * y_norm**2)

    def test_zero_observation_unit_radius(self, desk_instance):
        st = pl.direction_stats(desk_instance, np.ones(7))
        expected = 0.5 * st.norm_A_theta**2 + st.l1_theta
        assert pl.ray_energy(st, 1.0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_direct_form_identity(self, desk_instance_y, oracles):
        rng = np.random.default_rng(3)
        prob = desk_instance_y
        for _ in range(1000):
            theta = rng.standard_normal(7)
            r = rng.uniform(0.0, 8.0)
            st = pl.direction_stats(prob, theta)
            direct = oracles.neg_log_density_on_ray(prob.A, prob.y, st.theta, r)
            assert pl.ray_energy(st, r, prob.y_norm) == pytest.approx(direct, rel=1e-12)

    def test_null_direction_raises(self, desk_instance, oracles):
        theta = oracles.null_space_direction(desk_instance.A, np.random.default_rng(4))
        st = pl.direction_stats(desk_instance, theta)
        with pytest.raises(ValueError):
            pl.ray_energy(st, 1.0, 0.0)


class TestRadialPotential:
    def test_unit_radius_equals_energy(self, desk_instance):
        st = pl.direction_stats(desk_instance, np.ones(7))
        assert pl.radial_potential(st, 1.0, 7, 0.0) == pytest.approx(
            pl.ray_energy(st, 1.0, 0.0)
        )

    def test_p_equal_one_drops_log(self, desk_instance):
        st = pl.direction_stats(desk_instance, np.ones(7))
        r = 2.7
        assert pl.radial_potential(st, r, 1, 0.0) == pytest.approx(pl.ray_energy(st, r, 0.0))

    def test_convexity_midpoint(self, desk_instance_y):
        rng = np.random.default_rng(5)
        prob = desk_instance_y
        for _ in range(200):
            st = pl.direction_stats(prob, rng.standard_normal(7))
            r1, r2 = sorted(rng.uniform(0.05, 10.0, size=2))
            mid = pl.radial_potential(st, 0.5 * (r1 + r2), 7, prob.y_norm)
            ends = 0.5 * (
                pl.radial_potential(st, r1, 7, prob.y_norm)
                + pl.radial_potential(st, r2, 7, prob.y_norm)
            )
            assert mid <= ends + 1e-12

    def test_rejects_nonpositive_radius(self, desk_instance):
        st = pl.direction_stats(desk_instance, np.ones(7))
        with pytest.raises(ValueError):
            pl.radial_potential(st, 0.0, 7, 0.0)


class TestOffsetBounds:
    def test_identity_matrix(self):
        prob = pl.make_problem(np.eye(3))
        assert pl.beta_lower_bound(prob) == pytest.approx(1.0)

    def test_plausible_range_for_desk_instance(self, desk_instance):
        assert 0.3 <= pl.beta_lower_bound(desk_instance) <= 0.7

    def test_monte_carlo_sweep(self, desk_instance_y):
        prob = desk_instance_y
        bound = pl.beta_lower_bound(prob)
        rng = np.random.default_rng(6)
        for theta in sample_sphere_batch(rng, 5000, 7):
            st = pl.direction_stats(prob, theta)
            if st.beta is not None:
                assert st.beta >= bound - 1e-10

    def test_zero_mode_sufficient_condition(self, desk_instance):
        assert pl.zero_lasso_sufficient(desk_instance)  # y = 0
        prob = pl.make_problem(desk_instance.A, np.zeros(4))
        big_y = np.zeros(4)
        big_y[0] = 2.0 / prob.op_norm
        assert not pl.zero_lasso_sufficient(pl.make_problem(desk_instance.A, big_y))


class TestProblemIO:
    def test_round_trip(self, tmp_path, desk_instance_y):
        path = tmp_path / "prob.json"
        pl.save_problem(desk_instance_y, str(path), seed=42)
        loaded = pl.load_problem(str(path))
        np.testing.assert_array_equal(loaded.A, desk_instance_y.A)
        np.testing.assert_array_equal(loaded.y, desk_instance_y.y)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            pl.load_problem(str(tmp_path / "nope.json"))

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "p": 3, "A": [1, 2], "y": [0, 0]}')
        with pytest.raises(ValueError):
            pl.load_problem(str(path))


class TestSamplers:
    def test_sweep_chunks_rows(self):
        rows = [count for _, count in sweep_chunks(3, 2 * CHUNK + 5)]
        assert rows == [CHUNK, CHUNK, 5]  # they sum to n, and the last chunk is partial
        assert [count for _, count in sweep_chunks(3, CHUNK)] == [CHUNK]
        assert [count for _, count in sweep_chunks(3, 1)] == [1]

    def test_sweep_chunks_seed_and_generator(self):
        def draws(seed_or_rng):
            return [gen.standard_normal(3) for gen, _ in sweep_chunks(seed_or_rng, 3 * CHUNK)]

        a = draws(5)
        np.testing.assert_array_equal(a, draws(5))
        assert not np.array_equal(a[0], a[1])  # every chunk has its own generator
        np.testing.assert_array_equal(a, draws(np.random.default_rng(5)))

    @pytest.mark.parametrize("n", [0, -3])
    def test_sweep_chunks_rejects_empty(self, n):
        with pytest.raises(ValueError):
            sweep_chunks(0, n)

    def test_sphere_batch_unit_norm(self):
        rng = np.random.default_rng(7)
        thetas = sample_sphere_batch(rng, 500, 7)
        np.testing.assert_allclose(np.linalg.norm(thetas, axis=1), 1.0, atol=1e-12)

    def test_laplace_moments(self):
        rng = np.random.default_rng(8)
        x = sample_laplace(rng, 200000)
        assert abs(float(np.mean(x))) < 0.02
        assert float(np.mean(np.abs(x))) == pytest.approx(1.0, abs=0.02)
        assert float(np.var(x)) == pytest.approx(2.0, abs=0.06)

    @pytest.mark.parametrize("shape", [7, (256, 7), (8192, 20)])
    def test_laplace_bytes_match_literal_transform(self, shape):
        # the in-place transform gives the bytes of -sign(u) log1p(-2|u|) and
        # leaves the generator where drawing the uniforms alone does
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        x = sample_laplace(rng, shape)
        u = ref.uniform(-0.5, 0.5, size=shape)
        assert x.tobytes() == (-np.sign(u) * np.log1p(-2.0 * np.abs(u))).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_laplace_bytes_at_edge_uniforms(self):
        # the edge doubles random() can return, so u = random() - 0.5 is
        # -0.5, +0, -2^-53, 2^-53 and 0.5 - 2^-53
        r = np.array([0.0, 0.5, 0.5 - 2.0**-53, 0.5 + 2.0**-53, 1.0 - 2.0**-53])

        class Stub:
            def random(self, size):
                return r.copy()

        u = r - 0.5
        with np.errstate(divide="ignore"):  # u = -0.5 maps to -inf
            x = sample_laplace(Stub(), r.shape)
            assert x.tobytes() == (-np.sign(u) * np.log1p(-2.0 * np.abs(u))).tobytes()
        assert x[0] == -math.inf and math.copysign(1.0, x[1]) == 1.0
        assert np.all(np.isfinite(x[1:]))
