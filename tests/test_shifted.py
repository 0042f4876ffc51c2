"""Recentered-density machinery: segment geometry, closed-form masses, modes, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import polarlasso as pl
from conftest import shift_batch, shifted_potential
from polarlasso._moments import log_gaussian_moment
from polarlasso.problem import CHUNK, laplace_from_uniforms, sample_sphere_batch, sweep_chunks
from polarlasso.shifted import log_concavity_bracket, shifted_log_masses, shifted_log_summaries, unit_shift_batch


def potential(prob, ctx, r, p):
    """Oracle shifted radial potential along row 0 of a shift batch."""
    return shifted_potential(prob.A, prob.y, ctx.l, ctx.theta, r, p)


def golden_section_mode(prob, ctx, p, lo=1e-8, hi=1e4, tol=1e-11):
    """Oracle minimizer of the shifted radial potential by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = potential(prob, ctx, math.exp(c), p)
    fd = potential(prob, ctx, math.exp(d), p)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = potential(prob, ctx, math.exp(c), p)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = potential(prob, ctx, math.exp(d), p)
    return math.exp(0.5 * (a + b))


def random_shift_pair(rng, p=7, scale_hi=2.0):
    l = rng.standard_normal(p) * rng.uniform(0.2, scale_hi)
    theta = rng.standard_normal(p)
    return l, theta


def recentred_mass(ctx):
    """J_p(theta, l) of row 0 in units of e^h0, the mass of the recentred density f."""
    return math.exp(shifted_log_masses(ctx)[0])


def centred_offset(prob, theta):
    """(||A theta||, beta) of the unit direction theta at l = 0, formed
    here: beta = (||theta||_1 - A theta . y) / ||A theta||."""
    A_theta = prob.A @ theta
    norm_A = float(np.linalg.norm(A_theta))
    return norm_A, (float(np.abs(theta).sum()) - float(A_theta @ prob.y)) / norm_A


def random_batch(prob, rng, count, p=7):
    """A batch of `count` random directions at one random shift."""
    l, _ = random_shift_pair(rng, p)
    return shift_batch(prob, l, rng.standard_normal((count, p)))


class TestContext:
    """The segment geometry of ShiftBatch, row by row."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_direction(self, desk_instance_y, bad):
        rng = np.random.default_rng(40)
        l, theta = random_shift_pair(rng)
        theta[2] = bad
        with pytest.raises(ValueError, match="thetas must be finite"):
            pl.build_shift_context(desk_instance_y, l, theta)
        with pytest.raises(ValueError, match="^thetas must have length 7$"):
            pl.build_shift_context(desk_instance_y, l, np.ones(5))
        with pytest.raises(ValueError, match="^directions must be nonzero$"):
            pl.build_shift_context(desk_instance_y, l, np.zeros(7))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_shift(self, desk_instance_y, bad):
        rng = np.random.default_rng(41)
        l, theta = random_shift_pair(rng)
        l[5] = bad
        with pytest.raises(ValueError, match="l must be finite"):
            pl.build_shift_context(desk_instance_y, l, theta)

    def test_sign_classes_partition(self, desk_instance_y):
        # finite breakpoints are the sorted ratios |l_i|/|theta_i| over the
        # coordinates where theta_i l_i < 0, and only those
        rng = np.random.default_rng(0)
        for _ in range(10):
            batch = random_batch(desk_instance_y, rng, 20)
            for theta, lo in zip(batch.thetas, batch.lo):
                minus = theta * batch.l < 0.0
                want = np.sort(np.abs(batch.l[minus]) / np.abs(theta[minus]))
                assert lo[0] == 0.0
                np.testing.assert_array_equal(lo[1:1 + minus.sum()], want)
                assert np.all(np.isinf(lo[1 + minus.sum():]))

    def test_final_slope_is_l1(self, desk_instance_y):
        rng = np.random.default_rng(1)
        for _ in range(10):
            batch = random_batch(desk_instance_y, rng, 20)
            np.testing.assert_allclose(batch.slope[:, -1], np.abs(batch.thetas).sum(axis=1), rtol=1e-12)

    def test_hand_case_opposed_basis_vector(self, desk_instance_y):
        l = np.eye(7)[0]
        batch = pl.build_shift_context(desk_instance_y, l, -np.eye(7)[0])
        assert batch.lo[0, 1] == pytest.approx(1.0)
        for r in (0.0, 0.5, 0.99, 1.01, 3.0):
            k = int(np.searchsorted(batch.lo[0], r, side="right")) - 1
            assert batch.slope[0, k] * r + batch.c[0, k] == pytest.approx(abs(1.0 - r), abs=1e-12)

    def test_piecewise_identity_randomized(self, desk_instance_y):
        rng = np.random.default_rng(2)
        for _ in range(10):
            batch = random_batch(desk_instance_y, rng, 100)
            for i, theta in enumerate(batch.thetas):
                finite = batch.hi[i][np.isfinite(batch.hi[i])]
                top = ((finite[-1] if finite.size else 0.0) + 1.0) * 2.0
                for k in np.flatnonzero(batch.hi[i] > batch.lo[i]):
                    for r in rng.uniform(batch.lo[i, k], min(batch.hi[i, k], top), size=10):
                        direct = float(np.abs(r * theta + batch.l).sum())
                        affine = batch.slope[i, k] * r + batch.c[i, k]
                        assert affine == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_reduction_to_centered_offsets(self, desk_instance_y):
        rng = np.random.default_rng(3)
        prob = desk_instance_y
        theta = rng.standard_normal(7)
        batch = pl.build_shift_context(prob, np.zeros(7), theta)
        unit = theta / np.linalg.norm(theta)
        assert batch.lo.shape == (1, 1)
        assert batch.c[0, 0] == 0.0
        assert batch.slope[0, 0] == pytest.approx(np.abs(unit).sum(), rel=1e-14)
        assert batch.beta[0, 0] == pytest.approx(centred_offset(prob, unit)[1], rel=1e-12)

    def test_last_offset_lower_bound(self, desk_instance_y):
        rng = np.random.default_rng(5)
        for _ in range(10):
            batch = random_batch(desk_instance_y, rng, 20)
            y_l = desk_instance_y.y - desk_instance_y.A @ batch.l
            assert np.all(batch.beta[:, -1] >= -float(np.linalg.norm(y_l)) - 1e-12)

    def test_null_direction_context(self, desk_instance, oracles):
        # null rows take u = r and curvature 0: their tilt is the l1 slope itself
        rng = np.random.default_rng(6)
        thetas = rng.standard_normal((3, 7))
        thetas[1] = oracles.null_space_direction(desk_instance.A, rng)
        batch = shift_batch(desk_instance, rng.standard_normal(7), thetas)
        np.testing.assert_array_equal(batch.null, [False, True, False])
        np.testing.assert_array_equal(batch.kappa, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(batch.scale[1], 1.0)
        np.testing.assert_array_equal(batch.beta[1], batch.slope[1])


class TestShiftedMass:
    def test_reduction_at_zero_shift(self, desk_instance, oracles):
        # with y = 0 the recentered density at l = 0 is the posterior itself,
        # whose mass is the closed form Phi(beta) / ||theta||_1^7
        prob = desk_instance
        rng = np.random.default_rng(7)
        for theta in sample_sphere_batch(rng, 50, 7):
            ctx = pl.build_shift_context(prob, np.zeros(7), theta)
            centered = pl.mass_closed_form(ctx.beta[0, 0], 0.0, 0.0, 7) / ctx.slope[0, 0]**7
            assert recentred_mass(ctx) == pytest.approx(centered, rel=1e-10)

    def test_reduction_with_observation_scales_by_misfit(self, desk_instance_y):
        # at l = 0 the recentered mass carries the exp(||y||^2/2) normalization
        prob = desk_instance_y
        rng = np.random.default_rng(8)
        theta = rng.standard_normal(7)
        ctx = pl.build_shift_context(prob, np.zeros(7), theta)
        centered = pl.radial_summary(ctx).mass
        expected = centered * math.exp(0.5 * prob.y_norm**2)
        assert recentred_mass(ctx) == pytest.approx(expected, rel=1e-10)

    def test_oracle_equivalence_random_shifts(self, desk_instance_y, oracles):
        prob = desk_instance_y
        rng = np.random.default_rng(9)
        for trial in range(60):
            l, theta = random_shift_pair(rng)
            if trial % 4 == 0:
                theta[rng.integers(0, 7, size=3)] *= 1e-3  # extreme breakpoints
            ctx = pl.build_shift_context(prob, l, theta)
            mass = pl.radial_summary(ctx).mass
            oracle = oracles.quad_shifted_mass(prob.A, prob.y, l, ctx.theta, 7) * math.exp(ctx.h0)
            assert mass == pytest.approx(oracle, rel=1e-6)

    def test_null_direction_branch(self, desk_instance, oracles):
        prob = desk_instance
        rng = np.random.default_rng(10)
        sol = pl.solve_fista(pl.make_problem(prob.A, prob.y))
        for _ in range(10):
            theta = oracles.null_space_direction(prob.A, rng)
            l = sol.x  # an exact mode keeps the recentered density bounded
            ctx = pl.build_shift_context(prob, l, theta)
            mass = pl.radial_summary(ctx).mass
            oracle = oracles.quad_shifted_mass(prob.A, prob.y, l, ctx.theta, 7) * math.exp(ctx.h0)
            assert mass == pytest.approx(oracle, rel=1e-8)

    def test_null_branch_nonoptimal_shift(self, desk_instance, oracles):
        # negative slopes (growing segments) must still match the integral
        prob = desk_instance
        rng = np.random.default_rng(11)
        for _ in range(10):
            theta = oracles.null_space_direction(prob.A, rng)
            l = -2.0 * theta + 0.3 * rng.standard_normal(7)
            ctx = pl.build_shift_context(prob, l, theta)
            mass = pl.radial_summary(ctx).mass
            oracle = oracles.quad_shifted_mass(prob.A, prob.y, l, ctx.theta, 7) * math.exp(ctx.h0)
            assert mass == pytest.approx(oracle, rel=1e-7)

    def test_null_direction_with_far_breakpoints(self, oracles):
        # coordinates near 5e-17 put the shift's breakpoints at 1e15 to 6e16,
        # where the segments' falls are narrower than the spacing of floats
        from scipy.linalg import null_space

        prob = pl.gen_bernoulli_matrix(4, 7, 1)
        theta = null_space(prob.A)[:, 0]
        rng = np.random.default_rng(0)
        for _ in range(12):
            l = rng.standard_normal(7)
            l *= 2.8 / np.linalg.norm(l)
            ctx = pl.build_shift_context(prob, l, theta)
            assert ctx.null[0]
            mass = pl.radial_summary(ctx).mass
            oracle = oracles.quad_shifted_mass(prob.A, prob.y, l, ctx.theta, 7) * math.exp(ctx.h0)
            assert mass == pytest.approx(oracle, rel=1e-8)

    def test_continuity_toward_null_space(self, desk_instance, oracles):
        # as the direction approaches the null space the generic branch must
        # converge to the null-direction value, with monotone error decay
        prob = desk_instance
        rng = np.random.default_rng(12)
        theta_ns = oracles.null_space_direction(prob.A, rng)
        delta = rng.standard_normal(7)
        l = 0.4 * rng.standard_normal(7)
        ctx0 = pl.build_shift_context(prob, l, theta_ns)
        limit = pl.radial_summary(ctx0).mass
        errs = []
        for t in (1e-2, 1e-3, 1e-4):
            theta_t = theta_ns + t * delta
            ctx_t = pl.build_shift_context(prob, l, theta_t)
            assert not ctx_t.null[0]
            errs.append(abs(pl.radial_summary(ctx_t).mass - limit) / limit)
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_segment_sum_telescoping(self, desk_instance_y, oracles):
        # summing per-segment quadratures reproduces the whole-line quadrature
        from scipy.integrate import quad

        prob = desk_instance_y
        rng = np.random.default_rng(13)
        l, theta = random_shift_pair(rng)
        ctx = pl.build_shift_context(prob, l, theta)

        def integrand(r):
            x = r * ctx.theta + ctx.l
            resid = prob.A @ x - prob.y
            return math.exp(
                -0.5 * float(resid @ resid) - float(np.abs(x).sum()) - ctx.h0
            ) * r ** 6

        total = 0.0
        for lo, hi in zip(ctx.lo[0], ctx.hi[0]):
            if hi <= lo:
                continue
            hi = hi if math.isfinite(hi) else lo + 60.0
            val, _ = quad(integrand, lo, hi, epsrel=1e-11, limit=300)
            total += val
        whole = oracles.quad_shifted_mass(prob.A, prob.y, l, ctx.theta, 7)
        assert total == pytest.approx(whole, rel=1e-8)


class TestShiftedMode:
    def test_reduction_at_zero_shift(self, desk_instance_y):
        prob = desk_instance_y
        rng = np.random.default_rng(14)
        for theta in sample_sphere_batch(rng, 30, 7):
            ctx = pl.build_shift_context(prob, np.zeros(7), theta)
            norm_A, beta = centred_offset(prob, ctx.theta)
            root = (-beta + math.sqrt(beta * beta + 24.0)) / (2.0 * norm_A)
            assert pl.radial_summary(ctx).mode_r == pytest.approx(root, rel=1e-8)

    def test_against_golden_section(self, desk_instance_y):
        prob = desk_instance_y
        rng = np.random.default_rng(15)
        for _ in range(100):
            l, theta = random_shift_pair(rng)
            ctx = pl.build_shift_context(prob, l, theta)
            r_walk = pl.radial_summary(ctx).mode_r
            r_gold = golden_section_mode(prob, ctx, 7)
            assert r_walk == pytest.approx(r_gold, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("optimal", [True, False])
    def test_null_rows_against_golden_section(self, desk_instance, oracles, optimal):
        # curvature-0 rows: the root m/slope of the first segment that turns
        # down, or its left end; growing segments at a non-optimal l
        prob = desk_instance
        rng = np.random.default_rng(151)
        for _ in range(10):
            theta = oracles.null_space_direction(prob.A, rng)
            l = pl.solve_fista(prob).x if optimal else -2.0 * theta + 0.3 * rng.standard_normal(7)
            ctx = pl.build_shift_context(prob, l, theta)
            assert ctx.null[0]
            if not optimal:
                assert np.any(ctx.slope[0] < 0.0)
            r_gold = golden_section_mode(prob, ctx, 7)
            assert pl.radial_summary(ctx).mode_r == pytest.approx(r_gold, rel=1e-6, abs=1e-8)

    def test_convexity_probe(self, desk_instance_y):
        prob = desk_instance_y
        rng = np.random.default_rng(16)
        for _ in range(100):
            l, theta = random_shift_pair(rng)
            ctx = pl.build_shift_context(prob, l, theta)
            r_star = pl.radial_summary(ctx).mode_r
            best = potential(prob, ctx, r_star, 7)
            for eps in (1e-3, 1e-2):
                assert potential(prob, ctx, r_star * (1 + eps), 7) >= best - 1e-12
                assert potential(prob, ctx, r_star * (1 - eps), 7) >= best - 1e-12


class TestShiftedBounds:
    def test_reduction_at_zero_shift(self, desk_instance):
        # y = 0, so beta > 0: the bracket is [1/7, 6! e^6 / 6^7] times
        # peak * mode, with the closed-form mode and peak of the centred law
        prob = desk_instance
        rng = np.random.default_rng(17)
        theta = rng.standard_normal(7)
        ctx = pl.build_shift_context(prob, np.zeros(7), theta)
        norm_A, beta = centred_offset(prob, ctx.theta)
        r = (-beta + math.sqrt(beta * beta + 24.0)) / (2.0 * norm_A)
        peak_mode = math.exp(-0.5 * (r * norm_A) ** 2 - beta * norm_A * r) * r**7
        summ = pl.radial_summary(ctx)
        assert summ.mass_lo == pytest.approx(peak_mode / 7.0, rel=1e-10)
        assert summ.mass_hi == pytest.approx(peak_mode * 720.0 * math.exp(6.0) / 6.0**7, rel=1e-10)

    def test_containment_random_contexts(self, desk_instance_y):
        prob = desk_instance_y
        rng = np.random.default_rng(18)
        for _ in range(200):
            l, theta = random_shift_pair(rng)
            summ = pl.radial_summary(pl.build_shift_context(prob, l, theta))
            assert summ.mass_lo * (1 - 1e-9) <= summ.mass <= summ.mass_hi * (1 + 1e-9)

    def test_no_overflow_far_from_the_mode(self):
        # 1 x 2 design, l = 0, theta = e1: beta = 1 - ||y||, and h(0) = -||y||^2/2
        # is taken out in logs, so the recentered bracket passes the float
        # range as inf instead of raising, and the posterior's stays finite
        far = pl.make_problem(np.eye(1, 2), np.array([61.0]))
        ctx = pl.build_shift_context(far, np.zeros(2), np.eye(2)[0])
        assert ctx.beta[0, 0] == -60.0
        log_j, log_lo, log_pm, _, _ = shifted_log_summaries(ctx)
        assert log_concavity_bracket(float(log_lo[0]), float(log_pm[0]), 2) == (math.inf, math.inf)
        assert log_j[0] > math.log(np.finfo(float).max)
        summ = pl.radial_summary(ctx)
        assert 0.0 < summ.mass_lo <= summ.mass <= summ.mass_hi < math.inf
        # where it stays finite it is the posterior's bracket times e^(||y||^2/2)
        near = pl.make_problem(np.eye(1, 2), np.array([21.0]))
        ctx = pl.build_shift_context(near, np.zeros(2), np.eye(2)[0])
        _, log_lo, log_pm, _, _ = shifted_log_summaries(ctx)
        lo, hi = log_concavity_bracket(float(log_lo[0]), float(log_pm[0]), 2)
        summ = pl.radial_summary(ctx)
        scale = math.exp(0.5 * 21.0**2)
        assert hi == pytest.approx(summ.mass_hi * scale, rel=1e-10)
        assert lo == pytest.approx(summ.mass_lo * scale, rel=1e-10)
        assert recentred_mass(ctx) <= hi


class TestBracketProperty:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(data=hst.data(), p=hst.integers(1, 20), y_norm=hst.floats(0.0, 30.0),
           support=hst.integers(0, 20), seed=hst.integers(0, 2**32 - 1))
    def test_every_row_inside_its_bracket(self, data, p, y_norm, support, seed):
        # a random instance (n <= p <= 20, ||y|| <= 30), a sparse random l and
        # 64 directions: each row's mass lies in its own bracket, and at l = 0
        # each row is radial_summary of its direction
        n = data.draw(hst.integers(1, p), label="n")
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(n)
        prob = pl.make_problem(pl.gen_bernoulli_matrix(n, p, seed).A, y * (y_norm / np.linalg.norm(y)))
        l = np.zeros(p)
        idx = rng.choice(p, size=min(support, p), replace=False)
        l[idx] = rng.standard_normal(idx.size) * rng.uniform(0.1, 3.0)
        thetas = sample_sphere_batch(rng, 64, p)
        for shift in (l, np.zeros(p)):
            log_j, log_lo, log_pm, _, _ = shifted_log_summaries(shift_batch(prob, shift, thetas))
            assert np.all(log_lo <= log_j + 1e-9), np.max(log_lo - log_j)
            if p > 1:  # at p = 1 the upper constant is inf
                upper = math.lgamma(p) + p - 1 - p * math.log(p - 1)
                assert np.all(log_j <= log_pm + upper + 1e-9), np.max(log_j - log_pm - upper)
        batch = shift_batch(prob, np.zeros(p), thetas)
        rows = zip(*(np.exp(v + batch.h0) for v in (log_j, log_lo, log_pm)))
        for theta, (mass, mass_lo, peak_mode) in zip(thetas, rows):
            summ = pl.radial_summary(pl.build_shift_context(prob, np.zeros(p), theta))
            assert summ.mass == pytest.approx(mass, rel=1e-11)
            assert summ.mass_lo == pytest.approx(mass_lo, rel=1e-11)
            assert summ.peak * summ.mode_r == pytest.approx(peak_mode, rel=1e-11)


class TestSampling:
    def test_posterior_mean_zero_observation(self, desk_instance):
        rng = np.random.default_rng(20)
        draws = np.array([pl.sample_posterior(desk_instance, rng) for _ in range(30000)])
        mean = draws.mean(axis=0)
        # the target is symmetric; each coordinate's std is ~1.2/sqrt(N)
        assert np.all(np.abs(mean) < 0.04)

    def test_concentration_at_q5(self, desk_instance):
        rng = np.random.default_rng(21)
        frac = pl.criterion_coverage(desk_instance, 5.0, 5000, rng)
        assert frac >= pl.concentration_prob(5.0, 7) - 3.0 * math.sqrt(0.25 / 5000)

    def test_objective_histogram_against_weighted_prior(self, desk_instance):
        # distribution of ||Ax - y||^2/2 + ||x||_1 under exact draws vs
        # prior draws importance-weighted by the misfit factor
        prob = desk_instance
        rng = np.random.default_rng(22)
        n = 100000
        exact = np.array([pl.sample_posterior(prob, rng) for _ in range(n // 4)])
        stat_exact = np.sort(
            0.5 * np.linalg.norm(exact @ prob.A.T - prob.y, axis=1) ** 2
            + np.abs(exact).sum(axis=1)
        )
        prior = laplace_from_uniforms(rng.random((n, 7)), np.empty((n, 7)))
        resid = prior @ prob.A.T - prob.y
        mis = 0.5 * np.einsum("ij,ij->i", resid, resid)
        w = np.exp(-mis)
        stat_prior = mis + np.abs(prior).sum(axis=1)
        order = np.argsort(stat_prior)
        stat_prior = stat_prior[order]
        cw = np.cumsum(w[order])
        cw /= cw[-1]
        # weighted CDF of the prior route evaluated at the exact draws
        model = np.interp(stat_exact, stat_prior, cw)
        emp = np.arange(1, len(stat_exact) + 1) / len(stat_exact)
        ks = float(np.max(np.abs(model - emp)))
        assert ks < 0.02

    def test_partition_change_of_variables(self, desk_instance_y):
        # Z = exp(h(0)) Z_f must agree with the direct polar estimate
        prob = desk_instance_y
        l = pl.solve_fista(prob).x
        rng = np.random.default_rng(23)
        n = 4000
        thetas = sample_sphere_batch(rng, n, 7)
        masses = np.empty(n)
        for i in range(n):
            ctx = pl.build_shift_context(prob, l, thetas[i])
            masses[i] = recentred_mass(ctx)
        surf = pl.sphere_surface(7)
        h0 = -0.5 * float(np.linalg.norm(prob.A @ l - prob.y) ** 2) - float(np.abs(l).sum())
        z_f = surf * float(masses.mean())
        se_f = surf * float(masses.std(ddof=1)) / math.sqrt(n)
        direct = pl.estimate_z_polar(prob, n, 23)
        combined = math.hypot(math.exp(h0) * se_f, direct.std_err)
        assert abs(math.exp(h0) * z_f - direct.z) <= 3.0 * combined


def _literal_block(prob, rng):
    """256 prior proposals, then their uniforms, and which proposals are accepted."""
    props = laplace_from_uniforms(rng.random((256, prob.p)), np.empty((256, prob.p)))
    resid = props @ prob.A.T - prob.y
    return props, np.log(rng.uniform(size=256)) <= -0.5 * np.einsum("ij,ij->i", resid, resid)


def _per_call_draw(prob, rng):
    """One exact draw as a literal per-call loop: the first accepted proposal
    of the first block that accepts one."""
    while True:
        props, accept = _literal_block(prob, rng)
        if accept.any():
            return props[np.flatnonzero(accept)[0]].copy()


def _block_loop(prob, n, rng, limit=2**24):
    """The sampler as a literal loop over 256-row blocks: the first n accepted
    proposals in stream order, or the (proposals, accepted, rejected_run) of
    the budget error it raises once `limit` rejections in a row end a block
    that accepts none."""
    kept = []
    proposals = run = 0
    while len(kept) < n:
        props, accept = _literal_block(prob, rng)
        idx = np.flatnonzero(accept)
        proposals += 256
        if idx.size:
            kept.extend(props[idx[:n - len(kept)]])
            run = 255 - int(idx[-1])
        else:
            run += 256
            if run >= limit:
                return proposals, len(kept), run
    return np.array(kept)


def _sampler_outcome(prob, n, rng):
    """sample_posterior_batch's draws, or the fields of its budget error."""
    try:
        return pl.sample_posterior_batch(prob, n, rng)
    except pl.ExactSamplerBudgetError as err:
        return err.proposals, err.accepted, err.rejected_run


class _RecordingGenerator(np.random.Generator):
    """A PCG64 generator that records how many doubles each random call draws."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.sizes = []

    def random(self, size=None, dtype=np.float64, out=None):
        self.sizes.append(int(np.prod(size if out is None else out.shape)))
        return super().random(size, dtype, out)


@pytest.fixture(scope="module")
def exact_instances(desk_instance, desk_instance_y):
    """Acceptance rates Z/2^p of about 50%, 9.5%, 6.5% and 1.3%."""
    wide = pl.gen_bernoulli_matrix(10, 20, 3)
    return [pl.make_problem(np.eye(1), np.array([1.0])), desk_instance, desk_instance_y,
            pl.make_problem(0.7 * wide.A)]


class TestExactBatch:
    def test_single_draw_is_the_per_call_draw(self, desk_instance_y):
        for seed in range(60):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):  # the generator is left where the per-call loop leaves it
                np.testing.assert_array_equal(pl.sample_posterior(desk_instance_y, rng),
                                              _per_call_draw(desk_instance_y, ref))

    @pytest.mark.parametrize("n", [1, 5, 60, 1000, 5000])
    def test_batch_is_the_accepted_stream(self, exact_instances, n):
        # passes of several blocks keep the draws and the generator's end
        # state of a block at a time, whether or not a pass overshoots
        for prob in exact_instances:
            for seed in range(30):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = pl.sample_posterior_batch(prob, n, rng)
                assert got.shape == (n, prob.p)
                np.testing.assert_array_equal(got, _block_loop(prob, n, ref))
                assert rng.bit_generator.state == ref.bit_generator.state

    def test_rejects_no_draws(self, desk_instance):
        for n in (0, -1):
            with pytest.raises(ValueError):
                pl.sample_posterior_batch(desk_instance, n, np.random.default_rng(0))
            with pytest.raises(ValueError):
                pl.criterion_coverage(desk_instance, 5.0, n, 0)

    @pytest.mark.parametrize("n_draws", [True, 0, -1, 2.5, 100.0])
    def test_rejects_n_draws_not_a_positive_integer(self, desk_instance, n_draws):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"^n_draws must be an integer >= 1, not {n_draws!r}$"):
            pl.sample_posterior_batch(desk_instance, n_draws, rng)

    def test_rejection_budget(self):
        # 1 x 1, y = 40: Z/2 is about 1e-17, so no proposal is accepted
        prob = pl.make_problem(np.eye(1), np.array([40.0]))
        with pytest.raises(pl.ExactSamplerBudgetError) as exc:
            pl.sample_posterior_batch(prob, 3, np.random.default_rng(0))
        err = exc.value
        assert isinstance(err, RuntimeError)
        assert (err.proposals, err.accepted, err.rejected_run) == (2**24, 0, 2**24)
        assert err.accept_bound == 3.0 / 2**24

    @pytest.mark.parametrize("limit", [256, 3 * 256, 1000, 4 * 256, 5 * 256, 6 * 256, 7 * 256 + 1])
    def test_budget_error_inside_a_pass(self, monkeypatch, limit):
        # passes of 1, 1, 2 and 4 blocks: these limits end blocks 0, 2, 3,
        # 3, 4, 5 and 7, first, inside and last in a pass; the error and the
        # generator are those of a block at a time
        from polarlasso import shifted

        monkeypatch.setattr(shifted, "_REJECT_LIMIT", limit)
        far = pl.make_problem(np.eye(1), np.array([40.0]))
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        assert _sampler_outcome(far, 1, rng) == _block_loop(far, 1, ref, limit)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_rejection_run_restarts_at_each_acceptance(self, monkeypatch):
        # 1 x 1, y = 5: Z/2 is 0.014, so 500 draws take about 140 blocks, and
        # whether a run reaches the limit, and where, depends on the seed
        from polarlasso import shifted

        prob = pl.make_problem(np.eye(1), np.array([5.0]))
        kinds = {}
        for limit in (256, 300, 512, 3 * 256):
            monkeypatch.setattr(shifted, "_REJECT_LIMIT", limit)
            for seed in range(10):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got, want = _sampler_outcome(prob, 500, rng), _block_loop(prob, 500, ref, limit)
                kinds.setdefault(limit, set()).add(type(want))
                if isinstance(want, tuple):
                    assert got == want
                else:
                    np.testing.assert_array_equal(got, want)
                assert rng.bit_generator.state == ref.bit_generator.state
        # every sampling ends at 256 and none at 768 (its runs stay shorter)
        assert kinds == {256: {tuple}, 300: {tuple, np.ndarray}, 512: {tuple, np.ndarray},
                         3 * 256: {np.ndarray}}

    @pytest.mark.parametrize("cap", [1, 3 * 256 * 8, 5 * 256 * 8 + 7])
    def test_pass_stays_within_its_cap(self, monkeypatch, desk_instance_y, cap):
        from polarlasso import shifted

        monkeypatch.setattr(shifted, "_PASS_UNIFORMS", cap)
        block = 256 * 8  # the uniforms of one block at p = 7
        for seed in range(5):
            rng, ref = _RecordingGenerator(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(pl.sample_posterior_batch(desk_instance_y, 1000, rng),
                                          _block_loop(desk_instance_y, 1000, ref))
            assert rng.bit_generator.state == ref.bit_generator.state
            assert max(rng.sizes) <= max(cap - cap % block, block)
            assert max(rng.sizes) > block or cap < 2 * block


def _instance_with_mode(n, p, seed, y_norm=3.0):
    base = pl.gen_bernoulli_matrix(n, p, seed)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    prob = pl.make_problem(base.A, y * (y_norm / np.linalg.norm(y)))
    return prob, pl.solve_fista(prob).x


def _reference_shift_arrays(prob, l, thetas):
    """The fields of unit_shift_batch as a builder of fewer shortcuts formed
    them: the support columns gathered per use and sorted by
    take_along_axis, with the breakpoints and crossed sums concatenated."""
    y_l = prob.y - prob.A @ l
    A_thetas = thetas @ prob.A.T
    A_theta_y = A_thetas @ y_l
    norm_A = np.linalg.norm(A_thetas, axis=1)
    null = norm_A <= 1e-12
    scale = np.where(null, 1.0, norm_A)
    norm_y_l = float(np.linalg.norm(y_l))
    if norm_y_l == 0.0:
        s = np.zeros(len(thetas))
    else:
        s = np.where(null, 0.0, np.clip(A_theta_y / (scale * norm_y_l), -1.0, 1.0))
    l1 = np.abs(thetas).sum(axis=1)
    support = np.flatnonzero(l)
    abs_l, abs_t = np.abs(l[support]), np.abs(thetas[:, support])
    minus = thetas[:, support] * l[support] < 0.0
    ratios = np.divide(abs_l, abs_t, out=np.full(abs_t.shape, math.inf), where=minus)
    order = np.argsort(ratios, axis=1, kind="stable")
    zero = np.zeros((len(thetas), 1))
    crossed_l, crossed_t = (np.concatenate([zero, np.cumsum(np.take_along_axis(
        np.where(minus, v, 0.0), order, axis=1), axis=1)], axis=1) for v in (abs_l, abs_t))
    ahead_t = crossed_t[:, -1:] - crossed_t
    slope = l1[:, None] - 2.0 * ahead_t
    offset = l1 / scale - norm_y_l * s
    breakpoints = np.concatenate([zero, np.take_along_axis(ratios, order, axis=1), zero + math.inf], axis=1)
    l1_l = float(np.abs(l).sum())
    return dict(
        l=l, thetas=thetas, null=null, scale=scale, h0=-0.5 * norm_y_l**2 - l1_l,
        lo=breakpoints[:, :-1], hi=breakpoints[:, 1:], c=l1_l - 2.0 * crossed_l, slope=slope,
        beta=np.where(null[:, None], slope, offset[:, None] - 2.0 * ahead_t / scale[:, None]),
        norm_A=norm_A, s=s,
    )


class TestShiftBatch:
    @pytest.mark.parametrize("n, p", [(4, 7), (10, 20)])
    def test_batch_matches_per_context(self, n, p, oracles):
        # a row's values do not depend on the batch around it, a null row
        # included, and log(peak * mode) matches the oracle potential
        prob, l = _instance_with_mode(n, p, 42)
        assert np.count_nonzero(l) >= 2  # rays cross several l1 segments
        rng = np.random.default_rng(24)
        thetas = sample_sphere_batch(rng, 150, p)
        thetas[7] = oracles.null_space_direction(prob.A, rng)  # a curvature-0 row in the same call
        batch = shift_batch(prob, l, thetas)
        log_j = shifted_log_masses(batch)
        _, _, log_pm, _, _ = shifted_log_summaries(batch)
        assert batch.null[7] and batch.null.sum() == 1
        for i in range(len(thetas)):
            ctx = pl.build_shift_context(prob, l, thetas[i])
            summ = pl.radial_summary(ctx)
            assert math.exp(log_j[i] + batch.h0) == pytest.approx(summ.mass, rel=1e-12)
            r = summ.mode_r
            assert log_pm[i] == pytest.approx(math.log(r) - potential(prob, ctx, r, p),
                                              rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n, p", [(4, 7), (10, 20), (20, 50)])
    def test_builder_keeps_every_bit(self, n, p, oracles):
        # every array of the batch, null rows included, at l = 0 and at the
        # FISTA mode, has the bytes of the reference builder
        prob, mode = _instance_with_mode(n, p, 42)
        assert np.count_nonzero(mode) >= 2
        rng = np.random.default_rng(26)
        thetas = sample_sphere_batch(rng, 300, p)
        for i in (0, 11, 299):
            thetas[i] = oracles.null_space_direction(prob.A, rng)
        for l in (np.zeros(p), mode):
            batch = unit_shift_batch(prob, l, thetas)
            want = _reference_shift_arrays(prob, l, thetas)
            assert np.count_nonzero(batch.null) == 3
            for name, value in want.items():
                got = getattr(batch, name)
                if name == "h0":
                    assert got == value
                    continue
                assert got.dtype == value.dtype and got.shape == value.shape, name
                assert got.tobytes() == value.tobytes(), name

    def test_zero_shift_matches_centered_sweep(self, desk_instance_y):
        prob = desk_instance_y
        thetas = sample_sphere_batch(np.random.default_rng(25), 400, 7)
        log_j = shifted_log_masses(shift_batch(prob, np.zeros(7), thetas))
        # the centred closed form e^(-||y||^2/2) H_6(beta) / ||A theta||^7,
        # with beta = (||theta||_1 - A theta . y)/||A theta|| formed here
        A_thetas = thetas @ prob.A.T
        norm_A = np.linalg.norm(A_thetas, axis=1)
        beta = (np.abs(thetas).sum(axis=1) - A_thetas @ prob.y) / norm_A
        log_mass = log_gaussian_moment(6, 0.0, math.inf, beta) - 0.5 * prob.y_norm**2 - 7 * np.log(norm_A)
        # every centered mass comes from the same kernel as the shifted one
        np.testing.assert_allclose(np.exp(log_j - 0.5 * prob.y_norm**2), np.exp(log_mass), rtol=1e-12)


class TestEstimateZShifted:
    def test_same_stream_as_per_direction_draws(self, desk_instance_y):
        # one batch draw equals the per-direction sample_sphere stream of the
        # one chunk of sweep_chunks
        prob = desk_instance_y
        l = pl.solve_fista(prob).x
        n = 300
        est = pl.estimate_z_shifted(prob, l, n, 31)
        ((gen, rows),) = sweep_chunks(31, n)
        assert rows == n
        masses = [recentred_mass(pl.build_shift_context(prob, l, pl.sample_sphere(gen, 7)))
                  for _ in range(n)]
        surf = pl.sphere_surface(7)
        assert est.z_f == pytest.approx(surf * float(np.mean(masses)), rel=1e-12)
        assert est.z == pytest.approx(math.exp(est.h0) * est.z_f, rel=1e-12)
        assert est.std_err == pytest.approx(
            math.exp(est.h0) * surf * float(np.std(masses, ddof=1)) / math.sqrt(n), rel=1e-9)
        assert est.n_samples == n and est.method == "shifted_mc"

    @pytest.mark.parametrize("n", [300, CHUNK + 300])
    def test_zero_shift_equals_polar(self, desk_instance_y, n):
        # at l = 0 both routes sweep the same directions with the same kernel
        prob = desk_instance_y
        shifted = pl.estimate_z_shifted(prob, np.zeros(7), n, 8)
        polar = pl.estimate_z_polar(prob, n, 8)
        for field in ("z", "std_err", "z_min", "z_max"):
            assert getattr(shifted, field) == pytest.approx(getattr(polar, field), rel=1e-12)

    def test_bracket_and_agreement_with_polar(self, desk_instance_y):
        prob = desk_instance_y
        l = pl.solve_fista(prob).x
        est = pl.estimate_z_shifted(prob, l, 4000, 5)
        assert est.z_min <= est.z <= est.z_max
        direct = pl.estimate_z_polar(prob, 20000, 5)
        assert abs(est.z - direct.z) <= 4.0 * math.hypot(est.std_err, direct.std_err)

    def test_seed_and_generator_agree(self, desk_instance_y):
        prob = desk_instance_y
        l = pl.solve_fista(prob).x
        a = pl.estimate_z_shifted(prob, l, 500, 9)
        b = pl.estimate_z_shifted(prob, l, 500, np.random.default_rng(9))
        assert a == b

    def test_rejects_bad_sample_count(self, desk_instance_y):
        with pytest.raises(ValueError):
            pl.estimate_z_shifted(desk_instance_y, np.zeros(7), 0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_shift(self, desk_instance_y, bad):
        l = pl.solve_fista(desk_instance_y).x
        l[1] = bad
        with pytest.raises(ValueError, match="l must be finite"):
            pl.estimate_z_shifted(desk_instance_y, l, 500, 0)

    def test_large_observation_stays_finite(self, desk_instance):
        # ||y|| = 60 and l = 0: log z_f = log Z - h(0) is far past the float range
        y = np.random.default_rng(7).standard_normal(4)
        prob = pl.make_problem(desk_instance.A, 60.0 * y / np.linalg.norm(y))
        est = pl.estimate_z_shifted(prob, np.zeros(7), 512, 3)
        assert math.isfinite(est.z) and est.z > 0.0
        assert math.isfinite(est.std_err) and math.isfinite(est.z_max)
        assert est.z_min <= est.z <= est.z_max
        assert est.h0 == pytest.approx(-1800.0)
        assert est.z_f == math.inf
