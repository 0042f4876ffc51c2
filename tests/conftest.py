"""Shared fixtures and independent oracles.

The oracles evaluate the radial integrals straight from their defining
integrands with adaptive quadrature; they never touch the closed-form code
paths they are used to check.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import polarlasso as pl

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
