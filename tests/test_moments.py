"""The log-domain segment kernel against a 40-digit mpmath oracle, at
curvature kappa = 1 (directions with A theta != 0) and kappa = 0 (null
directions)."""

import math

import mpmath as mp
import numpy as np
import pytest

from polarlasso._moments import _BLOCK, log_gaussian_moment, tilted_peaks

ORDERS = (0, 1, 6, 19, 40)
BETAS = (-40.0, -5.0, 0.0, 3.8, 13.0, 50.0, 200.0, 1e6)
# kappa = 0 rates; rates <= 0 diverge on unbounded segments
RATES = (-40.0, -5.0, 0.0, 1e-3, 3.8, 13.0, 50.0, 200.0, 1e6)
SEGMENTS = (
    (0.0, math.inf),
    (1e-8, math.inf),
    (2.0, math.inf),
    (1e-8, 1e-8 + 1e-6),
    (1e-8, 50.0),
    (0.5, 0.501),
    (2.0, 3.0),
    (25.0, 25.0 + 1e-6),
)


def oracle_log_moment(m, a, b, beta, kappa=1):
    """log int_a^b u^m e^(-kappa u^2/2 - beta u) du at 40 digits.

    The integrand is taken relative to its value at the clamped peak and
    integrated by tanh-sinh on each side, out to where it has fallen by
    e^-120 (found by doubling steps from 1e-12).
    """
    with mp.workdps(40):
        a, beta = mp.mpf(a), mp.mpf(beta)
        b = mp.inf if math.isinf(b) else mp.mpf(b)
        if kappa:
            peak = (mp.sqrt(beta * beta + 4 * m) - beta) / 2
        else:
            peak = m / beta if beta > 0 else mp.inf
        c = min(max(peak, a), b)

        def g(u):
            return (m * mp.log(u) if m else 0) - kappa * u * u / 2 - beta * u

        g_c = g(c)

        def f(u):
            return mp.exp(g(u) - g_c) if (u > 0 or m == 0) else mp.mpf(0)

        total = mp.mpf(0)
        if c < b:
            d = mp.mpf(1e-12) * (1 + c)
            while c + d < b and g(c + d) - g_c > -120:
                d *= 2
            end = min(c + d, b)
            total += mp.quad(f, [c, c + (end - c) / 8, end])
        if c > a:
            d = mp.mpf(1e-12) * (1 + c)
            while c - d > a and g(c - d) - g_c > -120:
                d *= 2
            start = max(c - d, a)
            total += mp.quad(f, [start, c - (c - start) / 8, c])
        return g_c + mp.log(total)


@pytest.mark.parametrize("m", ORDERS)
def test_matches_mpmath_grid(m):
    # relative error of the value is the absolute error of its log; a log of
    # size L carries an unavoidable float64 rounding of a few ulp(L) on top
    worst = 0.0
    for a, b in SEGMENTS:
        got = log_gaussian_moment(m, a, b, np.array(BETAS))
        for beta, value in zip(BETAS, got):
            want = float(oracle_log_moment(m, a, b, beta))
            err = abs(value - want) - 8.0 * np.spacing(abs(want))
            worst = max(worst, err)
            assert err <= 1e-12, (m, a, b, beta, value, want)
    assert worst <= 1e-12


@pytest.mark.parametrize("m", ORDERS)
def test_flat_matches_mpmath_grid(m):
    # kappa = 0: u^m e^(-beta u), growing (beta <= 0) on bounded segments only.
    # A gammainc difference would lose every digit on the width-1e-6 segments.
    for a, b in SEGMENTS:
        rates = [beta for beta in RATES if beta > 0.0 or math.isfinite(b)]
        got = log_gaussian_moment(m, a, b, np.array(rates), 0.0)
        for beta, value in zip(rates, got):
            want = float(oracle_log_moment(m, a, b, beta, kappa=0))
            err = abs(value - want) - 8.0 * np.spacing(abs(want))
            assert err <= 1e-12, (m, a, b, beta, value, want)


# values of the kernel before it took a curvature argument; at kappa = 1 the
# added factors multiply by one, so each value must stay bit-identical
CURVED_CASES = ((0.0, math.inf, -7.5), (0.0, math.inf, 2.25), (1e-8, 1e-8 + 1e-6, 3.8),
                (0.5, 4.0, -40.0), (2.0, math.inf, 1e6), (1.25, 30.0, 0.0))
CURVED_VALUES = {
    0: (29.043938533204642, -0.9541268479485923, -13.815512495963844, 148.4157109394063,
        -2000015.815512558, -1.3286871440096406),
    1: (31.05884155374694, -2.0142806214963223, -28.304368228107194, 149.7950473814312,
        -2000015.1223648773, -0.7812499999999961),
    6: (41.38097673358307, -1.7687142739329924, -98.58483509708337, 156.69244623811144,
        -2000011.6566264746, 2.9137068990567916),
    19: (69.72197535244716, 10.246390327934575, -279.10694047101464, 174.63081517368997,
         -2000002.6457066273, 19.04015209362269),
}


@pytest.mark.parametrize("m", sorted(CURVED_VALUES))
def test_curved_values_unchanged(m):
    a, b, beta = (np.array(v) for v in zip(*CURVED_CASES))
    want = np.array(CURVED_VALUES[m])
    np.testing.assert_array_equal(log_gaussian_moment(m, a, b, beta), want)
    # an explicit per-element curvature of one takes the same path, as does
    # a kappa = 0 element in the same call
    kappa = np.ones(len(a))
    np.testing.assert_array_equal(log_gaussian_moment(m, a, b, beta, kappa), want)
    kappa[3] = 0.0
    mixed = log_gaussian_moment(m, a, b, beta, kappa)
    np.testing.assert_array_equal(np.delete(mixed, 3), np.delete(want, 3))
    assert mixed[3] == log_gaussian_moment(m, a[3], b[3], beta[3], 0.0)


# far segments [a, inf), as the shift puts them along a null direction with
# coordinates near 1e-17: the fall of e^-50 from a is narrower there than
# the spacing of the floats near a
FAR = (1e15, 5e16, 1e17, 1e20)


@pytest.mark.parametrize("m", (0, 1, 6, 19))
def test_far_flat_segment_matches_incomplete_gamma(m):
    # G_m(a, inf, beta, 0) = Gamma(m + 1, beta a)/beta^(m + 1), alone and next
    # to a near segment in the same call, whose value keeps the bits it has
    # next to another near one (BLAS may round a call of one row differently)
    beta = 5.0 / 3.0
    near = log_gaussian_moment(m, [1.0, 3.0], [2.0, math.inf], beta, 0.0)[0]
    for a in FAR:
        with mp.workdps(40):
            want = float(mp.log(mp.gammainc(m + 1, mp.mpf(beta) * a)) - (m + 1) * mp.log(mp.mpf(beta)))
        alone = float(log_gaussian_moment(m, a, math.inf, beta, 0.0))
        assert abs(alone - want) <= 8.0 * np.spacing(abs(want)), (a, alone, want)
        both = log_gaussian_moment(m, [1.0, a], [2.0, math.inf], beta, 0.0)
        assert both[0] == near and both[1] == alone


def test_far_curved_segment_is_finite():
    # at kappa = 1 the fall from a is ~_DROP/a wide; the Laplace estimate
    # g(a) - log(a + beta - m/a) is exact to O(1/a^2) relative
    for a in (1e10, 1e15, 1e20):
        for beta in (-3.0, 0.5):
            with mp.workdps(40):
                a_mp = mp.mpf(a)
                want = float(6 * mp.log(a_mp) - a_mp * a_mp / 2 - beta * a_mp - mp.log(a_mp + beta - 6 / a_mp))
            got = log_gaussian_moment(6, [1.0, a], [2.0, math.inf], beta)
            assert abs(got[1] - want) <= 8.0 * np.spacing(abs(want)), (a, beta, got[1], want)
            assert got[0] == log_gaussian_moment(6, [1.0, 3.0], [2.0, math.inf], beta)[0]


def test_flat_peaks():
    # kappa = 0: the root m/beta, or inf where the integrand never turns down
    got = tilted_peaks(6, np.array([2.0, 1e6, 0.0, -3.0]), 0.0)
    np.testing.assert_array_equal(got, [3.0, 6e-6, math.inf, math.inf])
    assert tilted_peaks(0, np.array([5.0]), 0.0)[0] == 0.0


def test_broadcast_and_blocks_match_elementwise():
    # arrays longer than one block give the same values as scalar calls
    rng = np.random.default_rng(0)
    n = _BLOCK + 37
    a = rng.uniform(0.0, 3.0, n)
    b = a + rng.exponential(2.0, n)
    b[::3] = math.inf
    beta = rng.normal(0.0, 8.0, n)
    got = log_gaussian_moment(6, a, b, beta)
    assert got.shape == (n,)
    for i in range(0, n, 97):
        assert got[i] == pytest.approx(float(log_gaussian_moment(6, a[i], b[i], beta[i])), rel=1e-15, abs=1e-13)
    grid = log_gaussian_moment(3, 0.0, math.inf, beta.reshape(-1, 1)[:12].reshape(3, 4))
    assert grid.shape == (3, 4)


def test_whole_line_moment_closed_forms():
    # H_0(0) = sqrt(pi/2), H_1(0) = 1, H_m(beta) -> m!/beta^(m+1) for large beta
    assert math.exp(log_gaussian_moment(0, 0.0, math.inf, 0.0)) == pytest.approx(
        math.sqrt(math.pi / 2), rel=1e-14)
    assert math.exp(log_gaussian_moment(1, 0.0, math.inf, 0.0)) == pytest.approx(1.0, rel=1e-14)
    big = float(log_gaussian_moment(6, 0.0, math.inf, 1e8))
    assert big == pytest.approx(math.log(720.0) - 7 * math.log(1e8), rel=1e-12)


def test_no_overflow_at_extreme_tilts():
    # e^(beta^2/2) overflows a float for beta below about -37; the log does not
    for beta in (-300.0, -1e3):
        value = float(log_gaussian_moment(19, 0.0, math.inf, beta))
        want = float(oracle_log_moment(19, 0.0, math.inf, beta))
        assert abs(value - want) <= 1e-12 + 8.0 * np.spacing(abs(want))


def test_rejects_bad_segments():
    with pytest.raises(ValueError):
        log_gaussian_moment(3, 2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        log_gaussian_moment(3, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        log_gaussian_moment(-1, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="divergent"):
        log_gaussian_moment(3, 1.0, math.inf, 0.0, 0.0)
    with pytest.raises(ValueError, match="kappa"):
        log_gaussian_moment(3, 0.0, 1.0, 1.0, 0.5)
