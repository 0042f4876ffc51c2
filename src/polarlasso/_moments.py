"""Internal kernel: Gaussian-tilted polynomial moments.

Everything radial in this package reduces to

    G_m(a, b, beta, kappa) = int_a^b u^m exp(-kappa u^2/2 - beta u) du

with curvature kappa = 1 on directions with A theta != 0, where
H_m(beta) = G_m(0, inf, beta, 1) is the centred mass, and kappa = 0 on null
directions (A theta = 0), where the ray only sees the l1 term.  The naive
route (binomial expansion against incomplete gammas) loses ~beta^(2m)/m!
relative digits and cannot meet the oracle tolerances once |beta| grows past
~8, and on short segments an incomplete-gamma difference loses every digit.
So log G is one array kernel (log_gaussian_moment): a Gauss-Legendre rule on
each side of the log-concave integrand's clamped peak, evaluated relative to
the peak, so it holds for every order, tilt, curvature and segment.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

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


def tilted_peaks(m: int, beta, kappa=1.0) -> np.ndarray:
    """Peak u* of u^m e^(-kappa u^2/2 - beta u) on u >= 0, elementwise.

    kappa = 1: u* = (-beta + sqrt(beta^2 + 4m))/2, in the form that avoids
    cancellation for either sign of beta.  kappa = 0: u* = m/beta, or inf
    when beta <= 0 (the integrand never turns down).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        root = np.sqrt(beta * beta + 4.0 * kappa * m)
        rising = np.where(kappa > 0.0, 0.5 * (root - beta), math.inf)
        return np.where(beta > 0.0, 2.0 * m / (beta + root), rising)


def log_gaussian_moment(m: int, a, b, beta, kappa=1.0) -> np.ndarray:
    """log G_m(a, b, beta, kappa) = log int_a^b u^m e^(-kappa u^2/2 - beta u) du, elementwise.

    `a`, `b`, `beta` and `kappa` broadcast against each other; 0 <= a < b <= inf,
    kappa is 0 or 1, and beta > 0 wherever kappa = 0 and b = inf.  The
    log-integrand g(u) = m ln u - kappa u^2/2 - beta u is concave, so its
    maximum over [a, b] sits at the clamped peak c = clip(u*, a, b), and on
    each side it falls by _DROP within a distance that a monotone Newton
    walk finds from an outer bound.  A Gauss-Legendre rule then integrates
    e^(g(u) - g(c)) over each side; every node value is at most one, so no
    tilt or order can over- or underflow the result.
    """
    if m < 0 or int(m) != m:
        raise ValueError("m must be a nonnegative integer")
    m = int(m)
    a, b, beta, kappa = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, beta, kappa)))
    if not np.all((a >= 0.0) & (a < b)):
        raise ValueError("need 0 <= a < b")
    if not np.all((kappa == 0.0) | (kappa == 1.0)):
        raise ValueError("kappa must be 0 or 1")
    if np.any((kappa == 0.0) & (beta <= 0.0) & np.isinf(b)):
        raise ValueError("divergent integral: kappa = 0 needs beta > 0 on [a, inf)")
    shape = a.shape
    a, b, beta, kappa = a.ravel(), b.ravel(), beta.ravel(), kappa.ravel()
    out = np.empty(a.size)
    # two node buffers for every block of the call: made per block, 1 MB arrays
    # went back to the system after each block and faulted their pages in again
    buf = np.empty((2, min(a.size, _BLOCK), 2 * _GL_N))
    for s in range(0, a.size, _BLOCK):
        sl = slice(s, s + _BLOCK)
        out[sl] = _log_moment_block(m, a[sl], b[sl], beta[sl], kappa[sl], buf)
    return out.reshape(shape)


def _log_moment_block(m: int, a: np.ndarray, b: np.ndarray, beta: np.ndarray,
                      kappa: np.ndarray, buf: np.ndarray) -> np.ndarray:
    a, b, beta, kappa = a[:, None], b[:, None], beta[:, None], kappa[:, None]
    c = np.clip(tilted_peaks(m, beta, kappa), a, b)
    curved = kappa > 0.0

    def excess(u):
        """g(u) - g(c) + _DROP and its derivative; the walks need u, not d, near 0."""
        value = _DROP - (u - c) * (kappa * (0.5 * (u + c)) + beta)
        if not m:
            return value, -kappa * u - beta
        return value + m * np.log(u / c), m / u - kappa * u - beta

    def offset_excess(d):
        """excess(c + d), as a function of the offset d."""
        value = _DROP - d * (kappa * (c + 0.5 * d) + beta)
        if not m:
            return value, -kappa * (c + d) - beta
        return value + m * np.log1p(d / c), m / (c + d) - kappa * (c + d) - beta

    # Outer bounds on where g has fallen by _DROP.  Left of c,
    # g(u) - g(c) <= m ln(u/c) + m, and at kappa = 1 the curvature gives a
    # fall of at least d^2/2 on either side.  Right of c at kappa = 0 (there
    # is a right side only where c = max(a, m/beta) < b), with t = u/c:
    # beta >= m/c gives g(u) - g(c) <= -m (t - 1 - ln t) <= -m (t - 1)^2 / (2t),
    # which is -_DROP at t = 1 + k + sqrt(k^2 + 2k), k = _DROP/m; at m = 0
    # the fall is exactly beta (u - c).
    reach = math.sqrt(2.0 * _DROP)
    start_left = np.maximum(a, np.where(curved, c - reach, -math.inf))
    if m:
        start_left = np.maximum(start_left, c * math.exp(-1.0 - _DROP / m))
        k = _DROP / m
        flat_right = c * (1.0 + k + math.sqrt(k * k + 2.0 * k))
    else:
        with np.errstate(divide="ignore"):
            flat_right = np.where(beta > 0.0, c + _DROP / beta, math.inf)
    w_left = c - _walk(excess, start_left)
    w_right = _walk(excess, np.minimum(b, np.where(curved, c + reach, flat_right))) - c
    # Far from 0 a fall narrower than the spacing of the floats near c is
    # lost: a step lands on or past c.  Those rows walk again on offsets
    # from c, which keep their precision at any c.  There c is a clamped end
    # or a curved peak, so the walks start within reach of c or where the
    # tangent of the concave g at c has fallen by _DROP.
    lost = (~(w_left > 0.0) & (a < c)) | (~(w_right > 0.0) & (c < b))
    if np.any(lost):
        with np.errstate(divide="ignore"):
            slope = (m / c if m else 0.0) - kappa * c - beta
            bound = np.minimum(_DROP / np.abs(slope), np.where(curved, reach, math.inf))
        w_left = np.where(lost, -_walk(offset_excess, np.maximum(a - c, -bound)), w_left)
        w_right = np.where(lost, _walk(offset_excess, np.minimum(b - c, bound)), w_right)
    # g(c + d) - g(c) = m ln(1 + d/c) - d (kappa (c + d/2) + beta) at the node
    # offsets d, arranged so that no large terms cancel, in place in `buf`
    d, fall = buf[:, :len(c)]
    np.multiply(-w_left, _GL_T, out=d[:, :_GL_N])
    np.multiply(w_right, _GL_T, out=d[:, _GL_N:])
    np.multiply(d, 0.5, out=fall)
    fall += c
    fall *= kappa
    fall += beta
    fall *= d
    if m:
        d /= c
        np.log1p(d, out=d)
        d *= m
        d -= fall
    else:
        np.negative(fall, out=d)
    vals = np.exp(d, out=d)
    total = w_left[:, 0] * (vals[:, :_GL_N] @ _GL_W) + w_right[:, 0] * (vals[:, _GL_N:] @ _GL_W)
    c, beta, kappa = c[:, 0], beta[:, 0], kappa[:, 0]
    g_c = (m * np.log(c) if m else 0.0) - c * (kappa * (0.5 * c) + beta)
    return g_c + np.log(total)


def _walk(excess, u):
    """Newton on a concave excess, started where it is <= 0: it moves
    monotonically toward the root and, in exact arithmetic, never passes it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            phi, dphi = excess(u)
            active = phi < -_NEWTON_TOL
            if not np.any(active):
                break
            u = np.where(active, u - phi / dphi, u)
    return u
