"""Radial law: closed-form masses vs. quadrature, modes, brackets."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import polarlasso as pl
from conftest import shift_batch, shifted_potential
from polarlasso.problem import sample_sphere_batch
from polarlasso.shifted import shifted_log_summaries


def ray(prob, theta):
    """The centred radial law along theta: the l = 0 batch of one direction."""
    return pl.build_shift_context(prob, np.zeros(prob.p), theta)


def ray_potential(prob, batch, r):
    """Oracle radial potential along row 0 of an l = 0 batch (conftest)."""
    return shifted_potential(prob.A, prob.y, np.zeros(prob.p), batch.theta, r, prob.p)


def centred_rows(prob, thetas):
    """(log mass, log mass_lo, log(peak * mode)) of the centred radial law
    along every row of `thetas`: the l = 0 segment batch, times e^h(0)."""
    batch = shift_batch(prob, np.zeros(prob.p), thetas)
    log_mass, log_lo, log_pm, _, _ = shifted_log_summaries(batch)
    return log_mass + batch.h0, log_lo + batch.h0, log_pm + batch.h0


def mp_log_radial_mass(na, beta, y_norm, p):
    """log int_0^inf r^(p-1) exp(-(r^2 na^2 + 2 r na beta + ||y||^2)/2) dr at 40 digits.

    The integrand is taken relative to its value at the mode and integrated
    by tanh-sinh on each side, out to where it has fallen by e^-120 (found by
    doubling steps from 1e-12 of the mode).
    """
    with mp.workdps(40):
        na, beta, y = mp.mpf(na), mp.mpf(beta), mp.mpf(y_norm)
        r_star = (mp.sqrt(beta * beta + 4 * (p - 1)) - beta) / (2 * na)

        def g(r):
            return (p - 1) * mp.log(r) - (r * r * na * na + 2 * r * na * beta + y * y) / 2

        g_star = g(r_star)

        def f(r):
            return mp.exp(g(r) - g_star) if r > 0 else mp.mpf(0)

        d = mp.mpf(1e-12) * r_star
        while g(r_star + d) - g_star > -120:
            d *= 2
        total = mp.quad(f, [r_star, r_star + d / 8, r_star + d])
        d = mp.mpf(1e-12) * r_star
        while r_star - d > 0 and g(r_star - d) - g_star > -120:
            d *= 2
        start = max(r_star - d, mp.mpf(0))
        total += mp.quad(f, [start, r_star - (r_star - start) / 8, r_star])
        return g_star + mp.log(total)


def mp_mode_radius(na, beta, p):
    """Positive root of na^2 r^2 + na beta r - (p-1) = 0 at 40 digits."""
    with mp.workdps(40):
        na, beta = mp.mpf(na), mp.mpf(beta)
        return (mp.sqrt(beta * beta + 4 * (p - 1)) - beta) / (2 * na)


class TestModeRadius:
    def test_zero_offset(self):
        # beta = 0 requires s ||y|| = ||theta||_1 / ||A theta||: y = theta = e_1 with A = I
        prob = pl.make_problem(np.eye(7), np.eye(7)[0])
        batch = ray(prob, np.eye(7)[0])
        assert batch.beta[0, 0] == 0.0
        assert pl.radial_summary(batch).mode_r == pytest.approx(math.sqrt(6.0), rel=1e-14)

    def test_stationarity_by_finite_differences(self, desk_instance_y):
        prob = desk_instance_y
        rng = np.random.default_rng(0)
        for theta in sample_sphere_batch(rng, 100, 7):
            batch = ray(prob, theta)
            r0 = pl.radial_summary(batch).mode_r
            h = 1e-6 * r0
            up = ray_potential(prob, batch, r0 + h)
            dn = ray_potential(prob, batch, r0 - h)
            mid = ray_potential(prob, batch, r0)
            second = (up - 2 * mid + dn) / (h * h)
            first = (up - dn) / (2 * h)
            assert abs(first) <= 1e-6 * max(1.0, abs(second))
            assert up > mid and dn > mid  # local optimality
            wide = 1e-4 * r0
            assert ray_potential(prob, batch, r0 + wide) > mid
            assert ray_potential(prob, batch, r0 - wide) > mid

    def test_mode_times_l1_anchor(self):
        # curve value at offset 0.4987 and the large-offset limit p - 1
        assert pl.mode_radius_times_l1(0.4987, 7) == pytest.approx(1.1035, rel=1e-3)
        assert pl.mode_radius_times_l1(45.0, 7) == pytest.approx(6.0, rel=1e-2)

    def test_mode_times_l1_monotone(self):
        grid = np.linspace(0.4987, 45.0, 300)
        vals = [pl.mode_radius_times_l1(b, 7) for b in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [2, 7, 20])
    def test_mode_times_l1_matches_mpmath(self, p):
        # beta (-beta + sqrt(beta^2 + 4(p-1))) / 2 cancels at large beta: 0.66%
        # off at beta = 1e8, p = 7, in the literal double form
        for beta in (-40.0, -1.0, 0.0, 1e-3, 0.4987, 6.0, 45.0, 1e3, 1e5, 1e8, 1e10, 1e12):
            with mp.workdps(60):
                b = mp.mpf(beta)
                want = b * (-b + mp.sqrt(b * b + 4 * (p - 1))) / 2
            assert pl.mode_radius_times_l1(beta, p) == pytest.approx(float(want), rel=1e-15, abs=0.0)

    def test_null_direction_raises_and_fallback(self, desk_instance, oracles):
        theta = oracles.null_space_direction(desk_instance.A, np.random.default_rng(1))
        batch = ray(desk_instance, theta)
        assert batch.null[0]  # the mode of the exponential law r^6 e^(-r ||theta||_1)
        assert pl.radial_summary(batch).mode_r == pytest.approx(6.0 / batch.slope[0, 0])


class TestMassClosedForm:
    def test_zero_offset_consistency(self):
        # at beta = 0 only the top gamma term survives:
        # Phi(0) = e^(-||y||^2/2) (s ||y||)^p 2^((p-2)/2) Gamma(p/2)
        p = 7
        s, y_norm = 0.8, 1.7
        expected = (
            math.exp(-0.5 * y_norm**2)
            * (s * y_norm) ** p
            * 2.0 ** ((p - 2) / 2.0)
            * math.gamma(p / 2.0)
        )
        assert pl.mass_closed_form(0.0, s, y_norm, p) == pytest.approx(expected, rel=1e-12)

    def test_against_quadrature_sweep(self, desk_instance_y, oracles):
        prob = desk_instance_y
        rng = np.random.default_rng(2)
        for theta in sample_sphere_batch(rng, 100, 7):
            batch = ray(prob, theta)
            beta, l1 = batch.beta[0, 0], batch.slope[0, 0]
            if batch.null[0] or beta < 0:
                continue
            phi = pl.mass_closed_form(beta, batch.s[0], prob.y_norm, 7)
            oracle = l1**7 * oracles.quad_radial_mass(prob.A, prob.y, batch.theta, 7)
            assert phi == pytest.approx(oracle, rel=1e-8)

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            pl.mass_closed_form(-0.5, 0.0, 0.0, 7)


class TestMassExpansion:
    def test_zero_observation_limit(self):
        # as beta grows the expansion approaches (p-1)! = 720; the leading
        # correction decays like 1/beta^2
        assert pl.mass_expansion(200.0, 0.0, 0.0, 7).value == pytest.approx(720.0, rel=1e-3)
        assert pl.mass_expansion(1e4, 0.0, 0.0, 7).value == pytest.approx(720.0, rel=1e-6)
        assert pl.mass_expansion(1e6, 0.0, 0.0, 7).value == pytest.approx(720.0, rel=1e-10)

    def test_relative_remainder_at_anchor(self):
        res = pl.mass_expansion(7.5, 0.0, 0.0, 7, 17)
        # measured certified ratio at the leftmost offset of the stable band
        assert res.remainder_bound / res.value < 5e-4

    def test_agreement_with_closed_form(self):
        # for offsets in [8.5, 13.8] the M = 17 truncation is well inside 1e-4
        for beta in np.linspace(8.5, 13.8, 60):
            exact = pl.mass_closed_form(beta, 0.0, 0.0, 7)
            res = pl.mass_expansion(beta, 0.0, 0.0, 7, 17)
            assert abs(exact - res.value) / res.value <= 1e-4

    def test_remainder_bound_holds(self):
        for beta in np.linspace(7.5, 13.8, 120):
            exact = pl.mass_closed_form(beta, 0.0, 0.0, 7)
            res = pl.mass_expansion(beta, 0.0, 0.0, 7, 17)
            assert abs(exact - res.value) <= res.remainder_bound * (1 + 1e-9)

    def test_nonzero_observation_prefactor(self, desk_instance_y, oracles):
        # the (1 + s||y||/beta)^p prefactor must multiply the whole series,
        # otherwise the expansion cannot match the defining integral
        prob = desk_instance_y
        rng = np.random.default_rng(3)
        found = 0
        for theta in sample_sphere_batch(rng, 4000, 7):
            batch = ray(prob, theta)
            beta, s = batch.beta[0, 0], batch.s[0]
            if not batch.null[0] and beta > 13.0 and abs(s) > 0.05:
                oracle = batch.slope[0, 0]**7 * oracles.quad_radial_mass(prob.A, prob.y, batch.theta, 7)
                val = pl.mass_expansion(beta, s, prob.y_norm, 7).value
                assert val == pytest.approx(oracle, rel=1e-5)
                found += 1
                if found >= 3:
                    break
        assert found >= 1

    def test_remainder_bound_holds_at_p1(self):
        # p = 1: beta H_0(beta) ~ 1 - 1/beta^2 + 3/beta^4 - ..., coefficients
        # c(1, r) = (1/2 - 1) ... (1/2 - r)
        for beta in (6.0, 8.0, 12.0, 45.0):
            exact = pl.mass_closed_form(beta, 0.0, 0.0, 1)
            res = pl.mass_expansion(beta, 0.0, 0.0, 1, 17)
            assert abs(exact - res.value) <= res.remainder_bound + 1e-13 * exact

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pl.mass_expansion(0.0, 0.0, 0.0, 7)
        with pytest.raises(ValueError):
            pl.mass_expansion(9.0, 0.0, 0.0, 7, m_terms=7)


class TestRadialSummary:
    def test_null_direction_mass(self, desk_instance, oracles):
        theta = oracles.null_space_direction(desk_instance.A, np.random.default_rng(4))
        batch = ray(desk_instance, theta)
        summ = pl.radial_summary(batch)
        assert batch.null[0]
        assert summ.mass == pytest.approx(720.0 / batch.slope[0, 0]**7, rel=1e-12)
        # the pure exponential law attains the upper bracket bound exactly
        assert summ.mass == pytest.approx(summ.mass_hi, rel=1e-12)
        assert summ.mass >= summ.mass_lo

    def test_oracle_equivalence_mixed_offsets(self, oracles):
        # 200 directions across instances with both offset signs
        rng = np.random.default_rng(5)
        checked_neg = 0
        for trial in range(4):
            base = pl.gen_bernoulli_matrix(4, 7, 100 + trial)
            y = rng.standard_normal(4) * rng.uniform(0.5, 2.5)
            prob = pl.make_problem(base.A, y)
            for theta in sample_sphere_batch(rng, 50, 7):
                batch = ray(prob, theta)
                summ = pl.radial_summary(batch)
                oracle = oracles.quad_radial_mass(prob.A, prob.y, batch.theta, 7)
                assert summ.mass == pytest.approx(oracle, rel=1e-6)
                if not batch.null[0] and batch.beta[0, 0] < 0:
                    checked_neg += 1
        assert checked_neg >= 5  # both signs actually exercised

    def test_bracket_always_contains_mass(self, desk_instance_y):
        prob = desk_instance_y
        rng = np.random.default_rng(6)
        for theta in sample_sphere_batch(rng, 500, 7):
            batch = ray(prob, theta)
            summ = pl.radial_summary(batch)
            assert summ.mass_lo <= summ.mass <= summ.mass_hi
            if batch.beta[0, 0] >= 0.0:
                assert summ.mass_lo == pytest.approx(summ.peak * summ.mode_r / 7.0, rel=1e-12)
            else:  # the half-Gaussian minorant right of the mode
                curv = batch.norm_A[0]**2 + 6.0 / summ.mode_r**2
                assert summ.mass_lo == pytest.approx(summ.peak * math.sqrt(math.pi / (2.0 * curv)),
                                                     rel=1e-12)
            assert summ.mass_hi == pytest.approx(
                summ.peak * summ.mode_r * 720.0 * math.exp(6.0) / 6.0**7, rel=1e-12
            )

    def test_method_switch(self, desk_instance, oracles):
        # one kernel path: every non-null direction has a finite positive
        # mass, at p = 7 and p = 20; past beta = 13 at p = 7 the exact mass
        # agrees with the inverse-power expansion within its certified remainder
        rng = np.random.default_rng(7)
        large = 0
        for theta in sample_sphere_batch(rng, 4000, 7):
            batch = ray(desk_instance, theta)
            summ = pl.radial_summary(batch)
            if batch.null[0]:
                continue
            assert 0.0 < summ.mass < math.inf
            beta = batch.beta[0, 0]
            if beta > 13.0:
                res = pl.mass_expansion(beta, 0.0, 0.0, 7)
                phi = summ.mass * batch.slope[0, 0]**7
                assert abs(phi - res.value) <= res.remainder_bound + 1e-12 * res.value
                large += 1
        assert large >= 1
        # near the null space beta grows past 13, where the p = 7 expansion
        # used to raise at p = 20
        prob = pl.gen_bernoulli_matrix(10, 20, 42)
        thetas = sample_sphere_batch(rng, 1000, 20)
        for i in range(0, 1000, 2):
            thetas[i] = oracles.null_space_direction(prob.A, rng) + 0.05 * thetas[i]
        betas = []
        for theta in thetas:
            batch = ray(prob, theta)
            assert not batch.null[0] and 0.0 < pl.radial_summary(batch).mass < math.inf
            betas.append(batch.beta[0, 0])
        assert sum(b > 13.0 for b in betas) >= 100

    def test_tail_bound(self, desk_instance_y):
        # per-direction tail bound with the concentration constant
        prob = desk_instance_y
        rng = np.random.default_rng(8)
        p = 7
        for theta in sample_sphere_batch(rng, 5, p):
            batch = ray(prob, theta)
            r_star = pl.radial_summary(batch).mode_r

            def dens(r):
                return math.exp(-ray_potential(prob, batch, r))

            total, _ = quad(dens, 0, np.inf, epsrel=1e-10, limit=300)
            for q in (2.0, 3.0, 5.0):
                tail, _ = quad(dens, q * r_star, np.inf, epsrel=1e-10, limit=300)
                const = 1.0 - pl.concentration_prob(q, p)
                assert tail <= const * total * (1 + 1e-9)


class TestSweep:
    def test_batch_matches_scalar_summaries(self, desk_instance_y):
        prob = desk_instance_y
        rng = np.random.default_rng(40)
        thetas = sample_sphere_batch(rng, 300, 7)
        mass, mass_lo, peak_mode = (np.exp(v) for v in centred_rows(prob, thetas))
        for i in range(300):
            summ = pl.radial_summary(ray(prob, thetas[i]))
            assert mass[i] == pytest.approx(summ.mass, rel=1e-8)
            assert peak_mode[i] == pytest.approx(summ.peak * summ.mode_r, rel=1e-8)
            assert mass_lo[i] == pytest.approx(summ.mass_lo, rel=1e-8)


def _direction_at_offset(a, y_norm, beta, rng):
    """Unit direction of R^p whose offset under the 1 x p design a and the
    observation y = (y_norm,) equals beta (to bisection accuracy).

    Along theta(phi) = cos(phi) a/||a|| + sin(phi) w, w a unit vector normal
    to a, the offset runs from 1 - y_norm at phi = 0 (a has entries +-1) to
    infinity as phi -> pi/2.
    """
    u = a / np.linalg.norm(a)
    w = rng.standard_normal(a.size)
    w -= (w @ u) * u
    w /= np.linalg.norm(w)

    def offset(phi):
        theta = math.cos(phi) * u + math.sin(phi) * w
        return np.abs(theta).sum() / abs(a @ theta) - y_norm

    lo, hi = 0.0, math.pi / 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if offset(mid) < beta else (lo, mid)
    return math.cos(lo) * u + math.sin(lo) * w


class TestOneKernelPath:
    @pytest.mark.parametrize("p", [2, 7, 20, 41, 100])
    def test_masses_match_mpmath(self, p):
        # beta from -60 to 200, across the old expansion switch at 13; a large
        # observation is what makes strongly negative offsets reachable
        rng = np.random.default_rng(p)
        a = pl.gen_bernoulli_matrix(1, p, p).A[0]
        for beta in (-60.0, -20.0, -1.0, 0.5, 3.8, 13.5, 40.0, 200.0):
            y_norm = max(0.0, 1.0 - beta) + 0.5
            prob = pl.make_problem(a[None, :], np.array([y_norm]))
            theta = _direction_at_offset(a, y_norm, beta, rng)
            batch = ray(prob, theta)
            assert not batch.null[0]
            assert batch.beta[0, 0] == pytest.approx(beta, rel=1e-6, abs=1e-6)
            want = float(mp.exp(mp_log_radial_mass(batch.norm_A[0], batch.beta[0, 0], y_norm, p)))
            summ = pl.radial_summary(batch)
            mass, _, peak_mode = (np.exp(v) for v in centred_rows(prob, theta[None, :]))
            assert summ.mass == pytest.approx(want, rel=1e-9)
            assert mass[0] == pytest.approx(want, rel=1e-9)
            assert peak_mode[0] == pytest.approx(summ.peak * summ.mode_r, rel=1e-12)

    @pytest.mark.parametrize("t", [1e-7, 1e-9])
    def test_near_null_direction(self, oracles, t):
        # beta ~ 1e7 and 1e9: the mode must not cancel to a wrong value or to 0
        prob = pl.gen_bernoulli_matrix(4, 7, 42)
        rng = np.random.default_rng(1)
        theta = oracles.null_space_direction(prob.A, rng) + t * rng.standard_normal(7)
        batch = ray(prob, theta)
        assert not batch.null[0] and batch.beta[0, 0] > 1e6
        summ = pl.radial_summary(batch)
        root = float(mp_mode_radius(batch.norm_A[0], batch.beta[0, 0], 7))
        assert summ.mode_r == pytest.approx(root, rel=1e-12)
        assert summ.mass_lo <= summ.mass <= summ.mass_hi
        peak_mode = np.exp(centred_rows(prob, batch.theta[None, :])[2])
        assert peak_mode[0] > 0.0
        assert peak_mode[0] == pytest.approx(summ.peak * summ.mode_r, rel=1e-12)

    def test_sweep_equals_summary_on_every_row(self, oracles):
        # p = 20, a nonzero observation, and one null row
        base = pl.gen_bernoulli_matrix(10, 20, 3)
        prob = pl.make_problem(base.A, np.full(10, 0.6))
        rng = np.random.default_rng(41)
        thetas = sample_sphere_batch(rng, 300, 20)
        for i in range(0, 300, 3):  # beta past 13 near the null space
            thetas[i] = oracles.null_space_direction(prob.A, rng) + 0.05 * thetas[i]
        thetas[5] = oracles.null_space_direction(prob.A, rng)
        thetas /= np.linalg.norm(thetas, axis=1)[:, None]
        mass, mass_lo, peak_mode = (np.exp(v) for v in centred_rows(prob, thetas))
        betas = []
        for i, theta in enumerate(thetas):
            batch = ray(prob, theta)
            summ = pl.radial_summary(batch)
            assert mass[i] == pytest.approx(summ.mass, rel=1e-12)
            assert peak_mode[i] == pytest.approx(summ.peak * summ.mode_r, rel=1e-12)
            assert mass_lo[i] == pytest.approx(summ.mass_lo, rel=1e-12)
            betas.append(math.nan if batch.null[0] else batch.beta[0, 0])
        assert np.isnan(betas[5]) and np.nanmax(betas) > 13.0

    @pytest.mark.parametrize("p, beta", [(7, -20.0), (7, -60.0), (2, -60.0), (20, -60.0), (2, -5.0)])
    def test_bracket_at_negative_offset(self, p, beta):
        # 1 x p design, theta = e1, y = 1 - beta: here peak * mode / p exceeds
        # the mass (1.06x to 12x); the half-Gaussian minorant holds
        y_norm = 1.0 - beta
        prob = pl.make_problem(np.eye(1, p), np.array([y_norm]))
        batch = ray(prob, np.eye(1, p)[0])
        assert batch.beta[0, 0] == beta
        want = float(mp.exp(mp_log_radial_mass(batch.norm_A[0], beta, y_norm, p)))
        summ = pl.radial_summary(batch)
        assert 0.25 * want <= summ.mass_lo <= want <= summ.mass_hi
        mass_lo = np.exp(centred_rows(prob, batch.theta[None, :])[1])
        assert mass_lo[0] == summ.mass_lo

    def test_upper_bound_finite_at_p100(self):
        # 1 x 100 design, theta = e1, y = 61 (beta = -60): the factors
        # (p-1)! e^(p-1) of the log-concavity constant overflow on their own
        p, y_norm = 100, 61.0
        prob = pl.make_problem(np.eye(1, p), np.array([y_norm]))
        batch = ray(prob, np.eye(1, p)[0])
        assert batch.beta[0, 0] == -60.0
        summ = pl.radial_summary(batch)
        want = float(mp.exp(mp_log_radial_mass(batch.norm_A[0], -60.0, y_norm, p)))
        assert summ.mass == pytest.approx(want, rel=1e-12)
        assert summ.mass <= summ.mass_hi < math.inf

    def test_null_row_past_factorial_range(self, oracles):
        # p = 180: (p-1)! alone overflows a float, which made every sweep raise
        p = 180
        prob = pl.make_problem(pl.gen_bernoulli_matrix(3, p, 1).A, np.array([0.5, -0.2, 0.1]))
        rng = np.random.default_rng(3)
        thetas = np.vstack([oracles.null_space_direction(prob.A, rng), sample_sphere_batch(rng, 2, p)])
        mass = np.exp(centred_rows(prob, thetas)[0])
        l1 = mp.mpf(float(np.abs(thetas[0]).sum()))
        with mp.workdps(40):
            want = mp.exp(mp.loggamma(p) - mp.mpf(prob.y_norm) ** 2 / 2 - p * mp.log(l1))
        assert mass[0] == pytest.approx(float(want), rel=1e-12)
        assert np.all(np.isfinite(mass)) and np.all(mass > 0.0)
