"""Internal kernel: Gaussian-tilted polynomial moments.

Everything radial in this package reduces to

    H_q(beta)           = int_0^inf  u^q exp(-u^2/2 - beta u) du
    G_m(a, b, beta)     = int_a^b    u^m exp(-u^2/2 - beta u) du
    E_m(a, b, rate)     = int_a^b    u^m exp(-rate u) du

evaluated so that no catastrophic cancellation occurs for any tilt.  The
naive route (binomial expansion against incomplete gammas) loses
~beta^(2m)/m! relative digits and cannot meet the oracle tolerances once
|beta| grows past ~8, so:

  * log G is one array kernel (log_gaussian_moment): a Gauss-Legendre rule
    on each side of the log-concave integrand's clamped peak, evaluated
    relative to the peak, so it holds for every order, tilt and segment and
    H_m(beta) = G_m(0, inf, beta) comes from the same code.
  * E (null directions) sums positive series, marching growing integrands
    down from their dominant endpoint.

Exponential-segment values are returned log-scaled as (log_scale, mantissa)
pairs so piecewise densities with large linear offsets never overflow.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

_LOG_TINY = -745.0

# segment kernel: Gauss-Legendre nodes per side of the peak, mapped to (0, 1)
_GL_N = 32
_GL_T, _GL_W = leggauss(_GL_N)
_GL_T = 0.5 * (_GL_T + 1.0)
_GL_W = 0.5 * _GL_W
# integration stops where the integrand has fallen by e^-_DROP from its peak
_DROP = 50.0
_NEWTON_STEPS = 30
_NEWTON_TOL = 1e-3
# segments per block: the (block, 2 _GL_N) float64 temporaries stay near 1 MB
_BLOCK = 2048


def _v_ladder(nmax: int, width: float, rate: float) -> np.ndarray:
    """V[n] = int_0^width w^(n-1) e^(-rate w) dw for n = 1..nmax, rate >= 0."""
    z = rate * width
    V = np.empty(nmax + 1)
    if z < 30.0:
        ez = math.exp(-z)
        for n in range(1, nmax + 1):
            term = 1.0 / n
            s = term
            t = 0
            while t < 400:
                t += 1
                term *= z / (n + t)
                s += term
                if term < 1e-18 * s:
                    break
            V[n] = width**n * ez * s
    else:
        # V_n = ((n-1)! - Gamma(n, z)) / rate^n with Gamma(n, z) = (n-1)! e^-z S_n(z);
        # everything in log space to dodge over/underflow at huge z
        lz = math.log(z)
        lrate = math.log(rate)
        for n in range(1, nmax + 1):
            lt = -z  # log of e^-z z^0/0!
            acc = math.exp(lt) if lt > _LOG_TINY else 0.0
            for k in range(1, n):
                lt += lz - math.log(k)
                if lt > _LOG_TINY:
                    acc += math.exp(lt)
            lv = math.lgamma(n) - n * lrate
            V[n] = math.exp(lv) * (1.0 - acc) if lv > _LOG_TINY else 0.0
    return V


def tilted_peak(m: int, beta: float) -> float:
    """Peak u* = (-beta + sqrt(beta^2 + 4m))/2 of u^m e^(-u^2/2 - beta u) on u >= 0,
    in the form that avoids cancellation for either sign of beta."""
    root = math.sqrt(beta * beta + 4.0 * m)
    return 2.0 * m / (beta + root) if beta > 0.0 else 0.5 * (root - beta)


def tilted_peaks(m: int, beta: np.ndarray) -> np.ndarray:
    """tilted_peak elementwise over an array of tilts."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        root = np.sqrt(beta * beta + 4.0 * m)
        return np.where(beta > 0.0, 2.0 * m / (beta + root), 0.5 * (root - beta))


def log_gaussian_moment(m: int, a, b, beta) -> np.ndarray:
    """log G_m(a, b, beta) = log int_a^b u^m e^(-u^2/2 - beta u) du, elementwise.

    `a`, `b` and `beta` broadcast against each other; 0 <= a < b <= inf.
    The log-integrand g(u) = m ln u - u^2/2 - beta u is concave with
    curvature at least one, so its maximum over [a, b] sits at the clamped
    peak c = clip(u*, a, b), u* = (-beta + sqrt(beta^2 + 4m))/2, and on each
    side it falls by _DROP within a distance that a monotone Newton walk
    finds from an outer bound.  A Gauss-Legendre rule then integrates
    e^(g(u) - g(c)) over each side; every node value is at most one, so no
    tilt or order can over- or underflow the result.
    """
    if m < 0 or int(m) != m:
        raise ValueError("m must be a nonnegative integer")
    m = int(m)
    a, b, beta = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, beta)))
    if not np.all((a >= 0.0) & (a < b)):
        raise ValueError("need 0 <= a < b")
    shape = a.shape
    a, b, beta = a.ravel(), b.ravel(), beta.ravel()
    out = np.empty(a.size)
    for s in range(0, a.size, _BLOCK):
        sl = slice(s, s + _BLOCK)
        out[sl] = _log_moment_block(m, a[sl], b[sl], beta[sl])
    return out.reshape(shape)


def _log_moment_block(m: int, a: np.ndarray, b: np.ndarray, beta: np.ndarray) -> np.ndarray:
    a, b, beta = a[:, None], b[:, None], beta[:, None]
    c = np.clip(tilted_peaks(m, beta), a, b)

    def drop(d):
        """g(c + d) - g(c) at node offsets d, arranged so that no large terms cancel."""
        fall = d * (c + 0.5 * d + beta)
        return m * np.log1p(d / c) - fall if m else -fall

    def excess(u):
        """g(u) - g(c) + _DROP and its derivative; the walks need u, not d, near 0."""
        value = _DROP - (u - c) * (0.5 * (u + c) + beta)
        if not m:
            return value, -u - beta
        return value + m * np.log(u / c), m / u - u - beta

    # outer bounds on where g has fallen by _DROP: curvature >= 1 gives a
    # fall of at least d^2/2 on either side, and on the left m ln(u/c) + m
    # bounds g(u) - g(c) from above
    reach = math.sqrt(2.0 * _DROP)
    start_left = np.maximum(a, c - reach)
    if m:
        start_left = np.maximum(start_left, c * math.exp(-1.0 - _DROP / m))
    ends = []
    for u in (start_left, np.minimum(b, c + reach)):
        # Newton on the concave excess, started where it is <= 0, moves
        # monotonically toward its root and never passes it
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_NEWTON_STEPS):
                phi, dphi = excess(u)
                active = phi < -_NEWTON_TOL
                if not np.any(active):
                    break
                u = np.where(active, u - phi / dphi, u)
        ends.append(u)
    w_left, w_right = c - ends[0], ends[1] - c
    vals = np.exp(drop(np.concatenate([-w_left * _GL_T, w_right * _GL_T], axis=1)))
    total = w_left[:, 0] * (vals[:, :_GL_N] @ _GL_W) + w_right[:, 0] * (vals[:, _GL_N:] @ _GL_W)
    g_c = (m * np.log(c[:, 0]) if m else 0.0) - c[:, 0] * (0.5 * c[:, 0] + beta[:, 0])
    return g_c + np.log(total)


def exp_segment_moment_log(m: int, a: float, b: float, rate: float) -> tuple[float, float]:
    """int_a^b u^m e^(-rate u) du as (log_scale, mantissa); 0 <= a < b <= inf.

    Negative rates (growing integrands) are allowed on finite segments and
    are marched from the dominant right endpoint.
    """
    if not 0.0 <= a < b:
        raise ValueError("need 0 <= a < b")
    if rate >= 0.0:
        if math.isinf(b):
            # e^(-rate a) sum_j C(m,j) a^(m-j) j!/rate^(j+1); requires rate > 0
            if rate <= 0.0:
                raise ValueError("divergent integral")
            s = math.fsum(
                math.comb(m, j) * a ** (m - j) * math.factorial(j) / rate ** (j + 1)
                for j in range(m + 1)
            )
            return -rate * a, s
        V = _v_ladder(m + 1, b - a, rate)
        s = math.fsum(math.comb(m, j) * a ** (m - j) * V[j + 1] for j in range(m + 1))
        return -rate * a, s
    # growing: march down from b, halving widths near zero to bound alternation
    if math.isinf(b):
        raise ValueError("divergent integral")
    logs: list[float] = []
    vals: list[float] = []
    hi = b
    while hi > a:
        width = min(hi / 2.0, hi - a)
        if width <= 0.0:
            break
        V = _v_ladder(m + 1, width, -rate)
        v = math.fsum(
            (-1) ** j * math.comb(m, j) * hi ** (m - j) * V[j + 1] for j in range(m + 1)
        )
        lp = -rate * hi
        if v > 0.0:
            logs.append(lp)
            vals.append(v)
        hi -= width
        if hi > a and logs:
            mx = max(lp2 + math.log(v2) for lp2, v2 in zip(logs, vals))
            if hi > 0 and (-rate * hi) + m * math.log(hi) < mx - 46.0:
                break
    return combine_log_pieces(logs, vals)


def combine_log_pieces(logs: list[float], vals: list[float]) -> tuple[float, float]:
    """Sum of exp(log) * val pairs as one (log_scale, mantissa) pair."""
    finite = [(lp, v) for lp, v in zip(logs, vals) if v > 0.0 and math.isfinite(lp)]
    if not finite:
        return 0.0, 0.0
    mx = max(lp + math.log(v) for lp, v in finite)
    s = math.fsum(v * math.exp(lp - mx) for lp, v in finite)
    return mx, s
