"""Partition-function estimators, bounds, and the concentration table."""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import erfcx

import polarlasso as pl
from conftest import benchmark_instance, exact_log_z
from polarlasso.partition import _log_surface, _LogMean
from polarlasso.problem import laplace_from_uniforms, map_chunks, sample_sphere_batch
from polarlasso.shifted import _exp, shifted_log_summaries, unit_shift_batch

CONCENTRATION_TABLE = {
    2.0: "0.6672",
    2.5: "0.9446",
    3.0: "0.9924",
    3.5: "0.9991",
    4.0: "0.9999",
    4.5: "1.0000",
    5.0: "1.0000",
}


class TestSphereSurface:
    def test_known_dimensions(self):
        assert pl.sphere_surface(2) == pytest.approx(2 * math.pi, rel=1e-14)
        assert pl.sphere_surface(3) == pytest.approx(4 * math.pi, rel=1e-14)
        # 2 pi^3.5 / Gamma(3.5) = 16 pi^3 / 15
        assert pl.sphere_surface(7) == pytest.approx(16 * math.pi**3 / 15, rel=1e-14)
        assert pl.sphere_surface(7) == pytest.approx(33.073, rel=1e-4)

    @pytest.mark.parametrize("p", [344, 400])
    def test_past_gamma_range(self, p):
        # Gamma(p/2) alone overflows a float from p = 344 on
        with mp.workdps(40):
            want = 2 * mp.pi ** (mp.mpf(p) / 2) / mp.gamma(mp.mpf(p) / 2)
        assert pl.sphere_surface(p) == pytest.approx(float(want), rel=1e-13)

    def test_rejects_bad_dimension(self):
        # the rule of problem._check_count: 2.5 gave 9.23 and True gave 2
        for p in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match=re.escape(f"p must be an integer >= 1, not {p!r}")):
                pl.sphere_surface(p)


class TestConcentrationProb:
    def test_reference_values_to_four_decimals(self):
        for q, expected in CONCENTRATION_TABLE.items():
            assert f"{pl.concentration_prob(q, 7):.4f}" == expected

    def test_increasing_in_q(self):
        grid = np.linspace(0.5, 6.0, 200)
        vals = [pl.concentration_prob(q, 7) for q in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_q5_tail_bound(self):
        # 1 - P(5, 7) <= e^-12
        assert 1.0 - pl.concentration_prob(5.0, 7) <= math.exp(-12.0)

    def test_small_q_may_go_negative(self):
        assert pl.concentration_prob(0.01, 7) < 0.0

    @pytest.mark.parametrize("q", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ValueError, match="q must be positive and finite"):
            pl.concentration_prob(q, 7)

    @pytest.mark.parametrize("p", [2, 7, 20, 100, 150, 400, 1000])
    def test_matches_mpmath(self, p):
        # tail = p Gamma(p, (p-1) q) e^(p-1) / (p-1)^p; a power or factorial
        # of the terminating sum overflows from p = 150 on
        for q in np.geomspace(0.05, 50.0, 25):
            got = pl.concentration_prob(float(q), p)
            assert math.isfinite(got)
            with mp.workdps(40):
                tail = p * mp.gammainc(p, (p - 1) * mp.mpf(float(q))) * mp.e ** (p - 1) / mp.mpf(p - 1) ** p
                want = 1 - tail
                # the tail to 1e-12 relative, plus the rounding of 1 - tail
                assert abs(got - want) <= 1e-12 * tail + 2.0**-53 * max(1, abs(want)), (p, q)


class TestPolarEstimator:
    def test_containment_and_order(self, desk_instance):
        est = pl.estimate_z_polar(desk_instance, 20000, 0)
        assert est.z_min <= est.z <= est.z_max
        assert est.method == "polar_mc"
        # single-realization scale check: same order of magnitude as ~2.2
        assert 0.22 < est.z < 22.0

    def test_determinism(self, desk_instance):
        a = pl.estimate_z_polar(desk_instance, 5000, 123)
        b = pl.estimate_z_polar(desk_instance, 5000, 123)
        assert a.z == b.z and a.std_err == b.std_err
        assert a.z_min == b.z_min and a.z_max == b.z_max

    def test_one_dimension_against_quadrature(self):
        prob = pl.make_problem(np.array([[1.0]]))
        est = pl.estimate_z_polar(prob, 4000, 1)
        exact = 2.0 * quad(lambda x: math.exp(-x * x / 2 - x), 0, np.inf, epsrel=1e-12)[0]
        # p = 1 has a two-point "sphere": the estimator is exact up to roundoff
        assert est.z == pytest.approx(exact, rel=1e-10)

    def test_rejects_bad_sample_count(self, desk_instance):
        with pytest.raises(ValueError):
            pl.estimate_z_polar(desk_instance, 0, 0)

    @pytest.mark.parametrize("route", ["polar", "naive", "shifted", "solve_polar"])
    @pytest.mark.parametrize("n_samples", [True, 0, -1, 2.5, 100.0])
    def test_rejects_n_samples_not_a_positive_integer(self, desk_instance, route, n_samples):
        # every sweep passes through sweep_chunks, which checks the count
        run = {"polar": pl.estimate_z_polar, "naive": pl.estimate_z_naive, "solve_polar": pl.solve_polar,
               "shifted": lambda prob, n, seed: pl.estimate_z_shifted(prob, np.zeros(7), n, seed)}[route]
        with pytest.raises(ValueError, match=f"^n_samples must be an integer >= 1, not {n_samples!r}$"):
            run(desk_instance, n_samples, 0)

    def test_accepts_numpy_integer_n_samples(self, desk_instance):
        a = pl.estimate_z_polar(desk_instance, np.int64(300), 4)
        assert a == pl.estimate_z_polar(desk_instance, 300, 4)

    @pytest.mark.parametrize("n, p", [(2, 18), (10, 41)])
    def test_containment_past_order_seventeen(self, n, p):
        # directions with beta > 13 take the same kernel path at every order
        base = pl.gen_bernoulli_matrix(n, p, 7)
        y = np.random.default_rng(p).standard_normal(n)
        prob = pl.make_problem(base.A, 2.0 * y / np.linalg.norm(y))
        est = pl.estimate_z_polar(prob, 20000, 3)
        assert est.z_min <= est.z <= est.z_max
        assert 0.0 < est.std_err < est.z

    @pytest.mark.parametrize("p", [300, 400])
    def test_finite_past_float_range(self, p):
        # at p = 300 (z ~ 1e78) the squared masses overflow a float, and
        # Gamma(p/2) does from p = 344 on
        est = pl.estimate_z_polar(pl.gen_bernoulli_matrix(3, p, 1), 10, 0)
        assert math.isfinite(est.z)
        assert 0.0 < est.std_err < math.inf
        assert est.z_min <= est.z <= est.z_max


class TestNaiveEstimator:
    def test_zero_design_normalization(self):
        prob = pl.make_problem(np.zeros((1, 3)))
        est = pl.estimate_z_naive(prob, 100, 0)
        assert est.z == pytest.approx(2.0**3, rel=1e-12)
        assert est.std_err == pytest.approx(0.0, abs=1e-12)

    def test_one_dimension_within_errors(self):
        prob = pl.make_problem(np.array([[1.0]]))
        est = pl.estimate_z_naive(prob, 200000, 2)
        exact = 2.0 * quad(lambda x: math.exp(-x * x / 2 - x), 0, np.inf, epsrel=1e-12)[0]
        assert abs(est.z - exact) <= 3.0 * est.std_err

    def test_determinism(self, desk_instance):
        a = pl.estimate_z_naive(desk_instance, 5000, 9)
        b = pl.estimate_z_naive(desk_instance, 5000, 9)
        assert a.z == b.z

    def test_consistency_with_polar_route(self, desk_instance):
        # both estimators are consistent; they must agree within combined
        # errors, with the prior-importance route carrying the larger variance
        polar = pl.estimate_z_polar(desk_instance, 20000, 3)
        naive = pl.estimate_z_naive(desk_instance, 20000, 3)
        combined = math.hypot(polar.std_err, naive.std_err)
        assert abs(naive.z - polar.z) <= 4.0 * combined
        assert naive.std_err > polar.std_err
        assert polar.z_min <= naive.z <= polar.z_max  # certified bounds hold for Z itself


def _log_mean_reference(chunks):
    """(scale, mean, std_err) of the weights e^w over every chunk of log
    weights w, relative to the running maximum of w: the reduction the Z
    routes ran before _LogMean, which must give its output bit for bit."""
    scale = -math.inf
    total = total_sq = 0.0
    n = 0
    for w in chunks:
        top = float(w.max())
        if top > scale:
            total *= math.exp(scale - top)
            total_sq *= math.exp(2.0 * (scale - top))
            scale = top
        e = np.exp(w - scale)
        total += float(e.sum())
        total_sq += float((e * e).sum())
        n += len(w)
    mean = total / n
    var = max(0.0, total_sq / n - mean * mean)
    if n > 1:
        var *= n / (n - 1)
    return scale, mean, math.sqrt(var / n)


def _reference(chunks, log_unit):
    """(z, std_err, e^log_unit times the mean weight), exponentiated as the
    routes did from _log_mean_reference."""
    scale, mean, err = _log_mean_reference(chunks)
    unit = _exp(log_unit + scale)
    return unit * mean, unit * err, _exp(log_unit + scale + math.log(mean))


def _accumulated(chunks, log_unit):
    acc = _LogMean(sum(len(w) for w in chunks))
    for w in chunks:
        acc.add(w)
    est = acc.estimate(log_unit, "test", 0.0, math.inf)
    return est.z, est.std_err, acc.mean(log_unit)


_RNG = np.random.default_rng(11)
LOG_WEIGHT_STREAMS = {
    # chunk maxima 0.5, 3, 3 (a tie), 1, 4, -2: rising, tied and falling
    "maxima": [np.array([0.5, -1.0, 0.2]), np.array([3.0, 2.5, -4.0]), np.array([1.0, 3.0]),
               np.array([1.0, -0.5]), np.array([4.0, 3.9, 0.1, -7.0]), np.array([-2.0])],
    "random": [_RNG.normal(m, 2.0, size) for m, size in ((0, 8192), (5, 8192), (-3, 8192), (5, 1000))],
    "one row": [np.array([0.7])],
    # e^710 overflows a float, so only sums taken relative to the maximum stay finite
    "spread past 1400": [np.array([-700.0, -705.0]), np.array([0.0, -2.0, -690.0]), np.array([710.0, 709.5]),
                         np.array([-720.0])],
}


class TestLogMean:
    """_LogMean against the reduction and exponentiations it replaced."""

    @pytest.mark.parametrize("log_unit", [0.0, 3.5, -650.0])
    @pytest.mark.parametrize("stream", list(LOG_WEIGHT_STREAMS))
    def test_matches_reference_bit_for_bit(self, stream, log_unit):
        chunks = LOG_WEIGHT_STREAMS[stream]
        assert repr(_accumulated(chunks, log_unit)) == repr(_reference(chunks, log_unit))

    @pytest.mark.parametrize("route", ["polar", "naive"])
    def test_real_sweeps_on_desk(self, route):
        # the log weights of each chunk as the route forms them, on the
        # desk-z instance over three chunks, the last a partial one
        prob, n_samples, seed = benchmark_instance(4, 7, 2.0, 42), 20000, 5
        if route == "polar":
            def work(gen, count):
                batch = unit_shift_batch(prob, np.zeros(prob.p), sample_sphere_batch(gen, count, prob.p))
                return shifted_log_summaries(batch)[0], batch.h0

            chunks, h0 = zip(*map_chunks(work, seed, n_samples))
            log_unit, est = h0[0] + _log_surface(prob.p), pl.estimate_z_polar(prob, n_samples, seed)
        else:
            def work(gen, count):
                resid = laplace_from_uniforms(gen.random((count, prob.p)), np.empty((count, prob.p))) @ prob.A.T
                resid -= prob.y
                return -0.5 * np.einsum("ij,ij->i", resid, resid)

            chunks = list(map_chunks(work, seed, n_samples))
            log_unit, est = prob.p * math.log(2.0), pl.estimate_z_naive(prob, n_samples, seed)
        assert [len(w) for w in chunks] == [8192, 8192, 3616]
        want = _reference(chunks, log_unit)
        assert repr(_accumulated(chunks, log_unit)) == repr(want)
        assert repr((est.z, est.std_err)) == repr(want[:2])
        if route == "polar":  # z_f, |S| times the mean mass, of the same sweep
            z_f = pl.estimate_z_shifted(prob, np.zeros(prob.p), n_samples, seed).z_f
            assert repr(z_f) == repr(_reference(chunks, _log_surface(prob.p))[2])


class TestExactZ:
    """Every Z route against exact_log_z, the Fourier-identity oracle."""

    def test_oracle_matches_dblquad(self):
        prob = benchmark_instance(2, 7, 2.0, 42)
        A, y = prob.A, prob.y

        def integrand(u1, u0):
            u = np.array([u0, u1])
            g = math.exp(-0.5 * float(u @ u)) / (2.0 * math.pi)
            return g * math.cos(float(u @ y)) / float(np.prod(1.0 + (u @ A) ** 2))

        mean, _ = dblquad(integrand, -9.0, 9.0, -9.0, 9.0, epsabs=1e-14, epsrel=1e-13)
        log_z = exact_log_z(A, y, h=0.2)
        assert log_z == pytest.approx(7 * math.log(2.0) + math.log(mean), abs=1e-11)
        assert log_z == pytest.approx(2.591682085924, abs=1e-11)
        assert exact_log_z(A, y, h=0.1) == pytest.approx(log_z, abs=1e-11)

    def test_oracle_matches_separable_closed_form(self):
        # A = [diag(a), 0]: Z = 2^(p-n) prod_i e^(-y_i^2/2) (1/a_i) sqrt(pi/2)
        # [erfcx((1 - a_i y_i)/(a_i sqrt 2)) + erfcx((1 + a_i y_i)/(a_i sqrt 2))]
        a, y, p = np.array([0.7, 1.3]), np.array([0.8, -1.1]), 4
        A = np.hstack([np.diag(a), np.zeros((2, p - 2))])
        log_z = (p - 2) * math.log(2.0) + sum(
            -yi * yi / 2 + math.log(math.sqrt(math.pi / 2) / ai
                                    * (erfcx((1 - ai * yi) / (ai * math.sqrt(2))) + erfcx((1 + ai * yi) / (ai * math.sqrt(2)))))
            for ai, yi in zip(a, y))
        assert exact_log_z(A, y, h=0.1) == pytest.approx(log_z, abs=1e-12)
        with pytest.raises(ValueError, match="too coarse"):
            exact_log_z(A, y, h=0.3)

    def test_oracle_at_zero_design(self):
        y = np.array([1.0, 0.5, 0.2])
        assert exact_log_z(np.zeros((3, 5)), y) == pytest.approx(5 * math.log(2.0) - 0.5 * float(y @ y), abs=1e-12)

    @pytest.fixture(scope="class")
    def desk(self):
        # the desk-z and chains instance of the benchmark, with its exact log Z
        prob = benchmark_instance(4, 7, 2.0, 42)
        return prob, exact_log_z(prob.A, prob.y)

    @pytest.mark.parametrize("route", ["polar", "naive", "shifted"])
    def test_routes_cover_exact_z_on_desk(self, desk, route):
        prob, log_z = desk
        assert log_z == pytest.approx(1.862151306135, abs=1e-11)
        l = pl.solve_fista(prob).x
        for seed in (0, 1, 2):
            est = {"polar": lambda: pl.estimate_z_polar(prob, 100_000, seed),
                   "naive": lambda: pl.estimate_z_naive(prob, 100_000, seed),
                   "shifted": lambda: pl.estimate_z_shifted(prob, l, 2048, seed)}[route]()
            assert abs(est.z - math.exp(log_z)) <= 4.0 * est.std_err, (seed, est.z, est.std_err)


class TestVolumes:
    def test_scaling(self):
        assert pl.lasso_ball_volume(2.2142, 7) == pytest.approx(0.3163, rel=1e-3)
        assert pl.lasso_ball_volume(7.0, 7) == pytest.approx(1.0)

    def test_one_dimension(self):
        prob = pl.make_problem(np.array([[1.0]]))
        est = pl.estimate_z_polar(prob, 1000, 0)
        exact = 2.0 * quad(lambda x: math.exp(-x * x / 2 - x), 0, np.inf, epsrel=1e-12)[0]
        assert pl.lasso_ball_volume(est.z, 1) == pytest.approx(exact, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pl.lasso_ball_volume(0.0, 7)

    @pytest.mark.parametrize("z", [math.inf, math.nan])
    def test_rejects_non_finite(self, z):
        with pytest.raises(ValueError, match="z must be positive and finite"):
            pl.lasso_ball_volume(z, 7)

    @pytest.mark.parametrize("p", [0, -2, 2.5, True])
    def test_rejects_p_not_a_positive_integer(self, p):
        # p = 0 divided by zero and p = -2 returned a negative volume
        with pytest.raises(ValueError, match="^p must be an integer >= 1"):
            pl.lasso_ball_volume(1.0, p)
