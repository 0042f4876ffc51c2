"""Shared fixtures and independent oracles.

The oracles evaluate the radial integrals straight from their defining
integrands with adaptive quadrature, and Z of a design with few rows from
its Fourier identity with a tensor trapezoid rule; they never touch the
closed-form code paths they are used to check.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import polarlasso as pl
from polarlasso.shifted import unit_shift_batch

# the oracles integrate peak-rescaled densities whose far tails are flat zero;
# the resulting roundoff warnings are expected and harmless
warnings.filterwarnings("ignore", category=IntegrationWarning)


@pytest.fixture(scope="session")
def desk_instance():
    """The 4x7 Bernoulli instance used throughout (y = 0)."""
    return pl.gen_bernoulli_matrix(4, 7, 42)


@pytest.fixture(scope="session")
def desk_instance_y():
    """Same design with a fixed nonzero observation."""
    base = pl.gen_bernoulli_matrix(4, 7, 42)
    rng = np.random.default_rng(7)
    y = rng.standard_normal(4)
    y *= 1.5 / np.linalg.norm(y)
    return pl.make_problem(base.A, y)


def scaled_instance(n, p, y_norm, seed=42):
    """Bernoulli n x p design with a seeded observation of norm y_norm."""
    base = pl.gen_bernoulli_matrix(n, p, seed)
    y = np.random.default_rng(seed + 1).standard_normal(n)
    return pl.make_problem(base.A, y * (y_norm / np.linalg.norm(y)))


def tiny_design(scale):
    """The 4 x 7 Bernoulli design of seed 1 times `scale`, with y = 1."""
    return pl.make_problem(scale * pl.gen_bernoulli_matrix(4, 7, 1).A, np.ones(4))


def shift_batch(prob, l, thetas):
    """unit_shift_batch of the rows of `thetas` over their norms, each row any nonzero direction."""
    return unit_shift_batch(prob, l, thetas / np.linalg.norm(thetas, axis=1)[:, None])


def neg_log_density_on_ray(A, y, theta, r):
    """||A(r theta) - y||^2/2 + r ||theta||_1 evaluated directly."""
    resid = r * (A @ theta) - y
    return 0.5 * float(resid @ resid) + r * float(np.abs(theta).sum())


def quad_radial_mass(A, y, theta, p, rtol=1e-11):
    """Oracle: int_0^inf exp(-g(r)) r^(p-1) dr by adaptive quadrature.

    The integrand is rescaled by its (numerically located) peak so the
    quadrature never under- or overflows.
    """
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)

    def potential(r):
        return neg_log_density_on_ray(A, y, theta, r) - (p - 1) * math.log(r)

    scan = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 600))
    pots = np.array([potential(r) for r in scan])
    r0 = float(scan[np.argmin(pots)])
    pot0 = float(pots.min())

    def integrand(r):
        if r <= 0.0:
            return 0.0
        return math.exp(-(potential(r) - pot0))

    total = 0.0
    for a, b in [(0.0, 0.5 * r0), (0.5 * r0, 2.0 * r0), (2.0 * r0, 10.0 * r0), (10.0 * r0, np.inf)]:
        val, _ = quad(integrand, a, b, epsabs=0.0, epsrel=rtol, limit=400)
        total += val
    return total * math.exp(-pot0)


def shifted_potential(A, y, l, theta, r, p):
    """Shifted radial potential ||A(r theta + l) - y||^2/2 + ||r theta + l||_1 + h(0) - (p-1) ln r,
    h(0) = -||A l - y||^2/2 - ||l||_1, evaluated directly; theta a unit vector, r > 0."""
    resid_l = A @ l - y
    h0 = -0.5 * float(resid_l @ resid_l) - float(np.abs(l).sum())
    x = r * theta + l
    resid = A @ x - y
    return 0.5 * float(resid @ resid) + float(np.abs(x).sum()) + h0 - (p - 1) * math.log(r)


def quad_shifted_mass(A, y, l, theta, p, rtol=1e-10):
    """Oracle: int_0^inf f(r theta) r^(p-1) dr with f the recentered density."""
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    l = np.asarray(l, dtype=float)
    h0 = -0.5 * float(np.linalg.norm(A @ l - y) ** 2) - float(np.abs(l).sum())

    def potential(r):
        x = r * theta + l
        resid = A @ x - y
        return 0.5 * float(resid @ resid) + float(np.abs(x).sum()) + h0 - (p - 1) * math.log(r)

    nz = theta != 0
    ratios = sorted(
        float(v) for v in (np.abs(l[nz & (theta * l < 0)]) / np.abs(theta[nz & (theta * l < 0)]))
    )
    scan = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 600))
    pots = np.array([potential(r) for r in scan])
    r0 = float(scan[np.argmin(pots)])
    pot0 = float(pots.min())

    def integrand(r):
        if r <= 0.0:
            return 0.0
        return math.exp(-(potential(r) - pot0))

    nodes = sorted(set([0.0] + [b for b in ratios if b > 0.0] + [0.5 * r0, 2.0 * r0, 10.0 * r0]))
    total = 0.0
    for a, b in zip(nodes, nodes[1:]):
        if b <= a:
            continue
        val, _ = quad(integrand, a, b, epsabs=0.0, epsrel=rtol, limit=400)
        total += val
    val, _ = quad(integrand, nodes[-1], np.inf, epsabs=0.0, epsrel=rtol, limit=400)
    total += val
    return total * math.exp(-pot0)


def null_space_direction(A, rng):
    """Unit vector in the null space of A (random combination of a basis)."""
    from scipy.linalg import null_space

    basis = null_space(A)
    v = basis @ rng.standard_normal(basis.shape[1])
    return v / np.linalg.norm(v)


def exact_log_z(A, y, h=0.3, half_width=9.0):
    """Oracle: log Z for a design of n <= 4 rows, at any p, by the Fourier identity

        Z = 2^p E_{u ~ N(0, I_n)}[cos(u . y) prod_j 1 / (1 + (a_j . u)^2)],

    a_j the columns of A: e^(-||v||^2/2) = E[cos(u . v)] and the unit
    Laplace's characteristic function 1/(1 + t^2), joined by Fubini.  The
    expectation is a tensor trapezoid rule in u with step h on
    [-half_width, half_width]^n, one slice of the first coordinate at a
    time.  Its error falls like exp(-2 pi / (h max_j ||a_j||)), the poles of
    1/(1 + (a_j . u)^2) lying 1/||a_j|| off the real space.  It refuses
    n > 4, a step with h max_j ||a_j|| > 0.3, an observation with
    ||y|| > pi / h (cos(u . y) would get fewer than two nodes per period
    along an axis) and a mean below 1e-6 (the rule's absolute error would
    weigh on it).
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = A.shape
    if n > 4:
        raise ValueError("the tensor rule is meant for n <= 4")
    if h * np.linalg.norm(A, axis=0).max() > 0.3:
        raise ValueError("the step h is too coarse for the columns of A")
    if np.linalg.norm(y) > math.pi / h:
        raise ValueError("||y|| is too large for the step h")
    k = round(half_width / h)
    t = h * np.arange(-k, k + 1)
    w = h * np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    w[[0, -1]] *= 0.5
    rest, w_rest = np.zeros((1, 0)), np.ones(1)  # the nodes and weights of u_2..u_n
    for _ in range(n - 1):
        rest = np.hstack([np.repeat(rest, t.size, axis=0), np.tile(t, len(rest))[:, None]])
        w_rest = np.outer(w_rest, w).ravel()
    proj_rest, phase_rest = rest @ A[1:], rest @ y[1:]
    mean = 0.0
    for t0, w0 in zip(t, w):
        proj = t0 * A[0] + proj_rest
        f = np.cos(t0 * y[0] + phase_rest) * np.exp(-np.log1p(proj * proj).sum(axis=1))
        mean += w0 * float(w_rest @ f)
    if not mean >= 1e-6:
        raise ValueError(f"Z / 2^p = {mean:.3g} is too small for the tensor rule")
    return p * math.log(2.0) + math.log(mean)


def benchmark_instance(n, p, y_norm, seed):
    """The Bernoulli design and observation that perfbench's write_instance
    writes for these arguments."""
    rng = np.random.default_rng([seed, n, p])
    A = (2.0 * rng.integers(0, 2, size=(n, p)) - 1.0) / math.sqrt(n)
    y = rng.standard_normal(n)
    return pl.make_problem(A, y * (y_norm / np.linalg.norm(y)))


@pytest.fixture(scope="session")
def oracles():
    class Oracles:
        quad_radial_mass = staticmethod(quad_radial_mass)
        quad_shifted_mass = staticmethod(quad_shifted_mass)
        null_space_direction = staticmethod(null_space_direction)
        neg_log_density_on_ray = staticmethod(neg_log_density_on_ray)

    return Oracles


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end checks")
