"""Instance construction and per-direction statistics."""

import json
import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

import polarlasso as pl
from conftest import shift_batch, shifted_potential
from polarlasso.problem import CHUNK, laplace_from_uniforms, sample_sphere_batch, sweep_chunks

# what a fresh interpreter needs on its path to import this polarlasso
SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__)))


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

    @pytest.mark.parametrize("scale_y, scale_A, name", [(1e155, 1.0, "y"), (1.0, 1e160, "A")])
    def test_rejects_overflowing_square(self, scale_y, scale_A, name):
        # finite entries whose squared norm overflows would give NaN masses;
        # the check itself warns of nothing
        base = pl.gen_bernoulli_matrix(4, 7, 0)
        y = np.array([1.0, -2.0, 0.5, 1.5]) * scale_y
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} is too large"):
                pl.make_problem(base.A * scale_A, y)
            # at 1e153 the squares stay finite, and the instance is accepted
            pl.make_problem(base.A * 1e153, y / scale_y * 1e153)

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


def ray(prob, theta):
    """The centred radial law along theta: the l = 0 batch of one direction."""
    return pl.build_shift_context(prob, np.zeros(prob.p), theta)


def ray_energy(batch, r):
    """-log of the posterior at r theta, theta row 0 of an l = 0 batch, from
    its one segment: kappa u^2/2 + beta u - h(0) with u = scale r."""
    u = batch.scale[0] * r
    return u * (0.5 * batch.kappa[0] * u + batch.beta[0, 0]) - batch.h0


class TestDirectionStats:
    """The statistics of one direction: build_shift_context at l = 0."""

    def test_zero_observation_cosine(self, desk_instance):
        batch = ray(desk_instance, np.ones(7))
        assert batch.s[0] == 0.0
        assert batch.beta[0, 0] == pytest.approx(batch.slope[0, 0] / batch.norm_A[0])

    def test_null_direction_sentinel(self, desk_instance, oracles):
        rng = np.random.default_rng(0)
        theta = oracles.null_space_direction(desk_instance.A, rng)
        batch = ray(desk_instance, theta)
        assert batch.null[0]
        assert batch.norm_A[0] <= 1e-12

    def test_basis_vector(self, desk_instance):
        batch = ray(desk_instance, np.eye(7)[0])
        assert batch.slope[0, 0] == pytest.approx(1.0)
        assert batch.norm_A[0] == pytest.approx(1.0)  # unit columns

    def test_l1_range_on_sphere(self, desk_instance):
        rng = np.random.default_rng(1)
        for theta in sample_sphere_batch(rng, 200, 7):
            batch = ray(desk_instance, theta)
            assert 1.0 - 1e-12 <= batch.slope[0, 0] <= math.sqrt(7) + 1e-12
            assert abs(np.linalg.norm(batch.theta) - 1.0) <= 1e-12

    def test_scale_invariance(self, desk_instance_y):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(7)
        a = ray(desk_instance_y, v)
        b = ray(desk_instance_y, 17.3 * v)
        assert a.beta[0, 0] == pytest.approx(b.beta[0, 0], rel=1e-12)
        assert a.s[0] == pytest.approx(b.s[0], rel=1e-12)

    def test_rejects_zero_vector(self, desk_instance):
        with pytest.raises(ValueError):
            ray(desk_instance, np.zeros(7))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entry(self, desk_instance_y, bad):
        theta = np.ones(7)
        theta[3] = bad
        with pytest.raises(ValueError, match="thetas must be finite"):
            ray(desk_instance_y, theta)


class TestRayEnergy:
    """The ray energy that the segment fields of an l = 0 batch imply."""

    def test_at_origin(self, desk_instance_y):
        batch = ray(desk_instance_y, np.ones(7))
        y_norm = desk_instance_y.y_norm
        assert ray_energy(batch, 0.0) == pytest.approx(0.5 * y_norm**2)

    def test_zero_observation_unit_radius(self, desk_instance):
        batch = ray(desk_instance, np.ones(7))
        expected = 0.5 * batch.norm_A[0] ** 2 + batch.slope[0, 0]
        assert ray_energy(batch, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_direct_form_identity(self, desk_instance_y, oracles):
        rng = np.random.default_rng(3)
        prob = desk_instance_y
        for _ in range(1000):
            theta = rng.standard_normal(7)
            r = rng.uniform(0.0, 8.0)
            batch = ray(prob, theta)
            direct = oracles.neg_log_density_on_ray(prob.A, prob.y, batch.theta, r)
            assert ray_energy(batch, r) == pytest.approx(direct, rel=1e-12)

    def test_null_direction_is_linear(self, desk_instance, oracles):
        # the misfit is constant along a null direction: r ||theta||_1 - h(0)
        theta = oracles.null_space_direction(desk_instance.A, np.random.default_rng(4))
        batch = ray(desk_instance, theta)
        assert batch.null[0] and batch.kappa[0] == 0.0
        for r in (0.5, 1.0, 7.0):
            direct = oracles.neg_log_density_on_ray(desk_instance.A, desk_instance.y, batch.theta, r)
            assert ray_energy(batch, r) == pytest.approx(direct, rel=1e-12)


class TestRadialPotential:
    def test_convexity_midpoint(self, desk_instance_y):
        # the radial law is log-concave, which its bracket rests on
        rng = np.random.default_rng(5)
        prob = desk_instance_y
        for _ in range(200):
            theta = rng.standard_normal(7)
            theta /= np.linalg.norm(theta)
            r1, r2 = sorted(rng.uniform(0.05, 10.0, size=2))

            def potential(r):
                return shifted_potential(prob.A, prob.y, np.zeros(7), theta, r, 7)

            mid = potential(0.5 * (r1 + r2))
            ends = 0.5 * (potential(r1) + potential(r2))
            assert mid <= ends + 1e-12


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
        batch = shift_batch(prob, np.zeros(7), sample_sphere_batch(rng, 5000, 7))
        assert np.all(batch.beta[~batch.null, 0] >= bound - 1e-10)

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

    # int() and reshape alone would load each of these 28 entries as 4 x 7:
    # reshape infers a -1, int() truncates 4.7 and takes True as 1
    @pytest.mark.parametrize("field, value, match", [
        ("n", -1, "n must be an integer >= 1, not -1"),
        ("p", -1, "p must be an integer >= 1, not -1"),
        ("n", 4.7, "n must be an integer >= 1, not 4.7"),
        ("n", True, "n must be an integer >= 1, not True"),
        ("p", 6, "A must hold n [*] p = 24 entries, not 28"),
    ])
    def test_rejects_malformed_dimensions(self, tmp_path, field, value, match):
        payload = {"n": 4, "p": 7, "A": [0.5] * 28, "y": [1.0] * 4, field: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match):
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

    @pytest.mark.parametrize("call", ["sample_sphere(rng, 0)", "sample_sphere_batch(rng, 3, 0)"])
    def test_sphere_rejects_zero_dimension(self, call):
        # a row of width 0 has norm 0 however often it is redrawn; run in a
        # subprocess, so that an endless redraw fails the test and does not hang it
        code = f"import numpy as np; from polarlasso.problem import *; rng = np.random.default_rng(0); {call}"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC_ROOT})
        assert done.returncode != 0
        assert "p must be an integer >= 1, not 0" in done.stderr

    def test_sphere_batch_unit_norm(self):
        rng = np.random.default_rng(7)
        thetas = sample_sphere_batch(rng, 500, 7)
        np.testing.assert_allclose(np.linalg.norm(thetas, axis=1), 1.0, atol=1e-12)

    def test_laplace_moments(self):
        rng = np.random.default_rng(8)
        x = laplace_from_uniforms(rng.random(200000), np.empty(200000))
        assert abs(float(np.mean(x))) < 0.02
        assert float(np.mean(np.abs(x))) == pytest.approx(1.0, abs=0.02)
        assert float(np.var(x)) == pytest.approx(2.0, abs=0.06)

    @pytest.mark.parametrize("shape", [7, (256, 7), (8192, 20)])
    def test_laplace_bytes_match_literal_transform(self, shape):
        # the in-place transform gives the bytes of -sign(u) log1p(-2|u|) and
        # leaves the generator where drawing the uniforms alone does, whether
        # the uniforms go to a new array or into one given as out=
        rng, ref, into = (np.random.default_rng(9) for _ in range(3))
        x = laplace_from_uniforms(rng.random(shape), np.empty(shape))
        u = ref.uniform(-0.5, 0.5, size=shape)
        assert x.tobytes() == (-np.sign(u) * np.log1p(-2.0 * np.abs(u))).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        assert laplace_from_uniforms(into.random(out=np.empty(shape)), np.empty(shape)).tobytes() == x.tobytes()
        assert into.bit_generator.state == ref.bit_generator.state

    def test_laplace_bytes_at_edge_uniforms(self):
        # the edge doubles random() can return, so u = random() - 0.5 is
        # -0.5, +0, -2^-53, 2^-53 and 0.5 - 2^-53
        r = np.array([0.0, 0.5, 0.5 - 2.0**-53, 0.5 + 2.0**-53, 1.0 - 2.0**-53])

        class Stub:
            def random(self, size=None, out=None):
                out = np.empty(r.shape) if out is None else out
                out[...] = r
                return out

        u = r - 0.5
        with np.errstate(divide="ignore"):  # u = -0.5 maps to -inf
            x = laplace_from_uniforms(Stub().random(r.shape), np.empty(r.shape))
            assert x.tobytes() == (-np.sign(u) * np.log1p(-2.0 * np.abs(u))).tobytes()
        assert x[0] == -math.inf and math.copysign(1.0, x[1]) == 1.0
        assert np.all(np.isfinite(x[1:]))
