"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 3 and the qualitative half of criterion 9 assert targets that the
implemented formulas demonstrably cannot meet (see the failure messages);
they are kept at their stated tolerances and fail honestly rather than being
loosened.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import polarlasso as pl
from polarlasso.mcmc import KIND_INDEPENDENT, KIND_RANDOM_WALK
from polarlasso.problem import sample_sphere_batch
from polarlasso.radial import expansion_coeff_exact

from conftest import quad_radial_mass, quad_shifted_mass, null_space_direction


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


TABLE2 = {2.0: "0.6672", 2.5: "0.9446", 3.0: "0.9924", 3.5: "0.9991",
          4.0: "0.9999", 4.5: "1.0000", 5.0: "1.0000"}


def test_criterion_01_concentration_table():
    t0 = time.time()
    got = {q: f"{pl.concentration_prob(q, 7):.4f}" for q in TABLE2}
    elapsed = time.time() - t0
    ok = got == TABLE2 and elapsed < 1.0
    report(1, ok, f"P(q,7) table reproduced to 4 decimals in {elapsed:.3f}s")
    assert got == TABLE2
    assert elapsed < 1.0


def test_criterion_02_coefficient_identities():
    t0 = time.time()
    ok = True
    for p in range(2, 11):
        for r in range(1, p - 1):
            ok &= expansion_coeff_exact(p, r) == 0
        ok &= expansion_coeff_exact(p, p - 1) == Fraction(math.factorial(p - 1), 2 ** (p - 1))
    elapsed = time.time() - t0
    report(2, ok and elapsed < 1.0, f"exact c(p,r) identities for p=2..10 in {elapsed:.3f}s")
    assert ok
    assert elapsed < 1.0


def test_criterion_03_expansion_accuracy():
    t0 = time.time()
    worst = 0.0
    worst_beta = None
    for beta in np.linspace(7.5, 13.0, 200):
        exact = pl.mass_closed_form(float(beta), 0.0, 0.0, 7)
        approx = pl.mass_expansion(float(beta), 0.0, 0.0, 7, 17).value
        rel = abs(exact - approx) / approx
        if rel > worst:
            worst, worst_beta = rel, float(beta)
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 1.0
    report(3, ok, f"sup |Phi - Phi_M|/Phi_M = {worst:.3e} at beta={worst_beta:.3f} in {elapsed:.3f}s")
    assert elapsed < 1.0
    assert worst <= 1e-4, (
        f"measured sup relative truncation gap {worst:.3e} at beta={worst_beta:.3f} "
        "exceeds 1e-4: the M=17 inverse-power truncation genuinely carries ~2.8e-4 "
        "error at beta=7.5 (confirmed in exact rational arithmetic against 60-digit "
        "quadrature; the certified remainder bound itself is 4.5e-4/Phi there). "
        "The 1e-4 target only becomes attainable for beta >= ~7.85 or M >= ~20; "
        "both sides of this comparison are pinned by independent oracles elsewhere "
        "in the suite, so the target, not the code, is what fails."
    )


def test_criterion_04_closed_forms_vs_quadrature():
    t0 = time.time()
    rng = np.random.default_rng(1234)
    worst_central = 0.0
    neg_seen = 0
    for trial in range(4):
        base = pl.gen_bernoulli_matrix(4, 7, 500 + trial)
        y = rng.standard_normal(4) * rng.uniform(0.8, 2.5)
        prob = pl.make_problem(base.A, y)
        for theta in sample_sphere_batch(rng, 50, 7):
            batch = pl.build_shift_context(prob, np.zeros(7), theta)
            summ = pl.radial_summary(batch)
            oracle = quad_radial_mass(prob.A, prob.y, batch.theta, 7)
            worst_central = max(worst_central, abs(summ.mass - oracle) / oracle)
            if not batch.null[0] and batch.beta[0, 0] < 0:
                neg_seen += 1
    worst_shift = 0.0
    prob = pl.make_problem(pl.gen_bernoulli_matrix(4, 7, 42).A,
                           np.array([0.9, -0.4, 1.1, -0.2]))
    for _ in range(200):
        l = rng.standard_normal(7) * rng.uniform(0.2, 2.0)
        theta = rng.standard_normal(7)
        ctx = pl.build_shift_context(prob, l, theta)
        mass = pl.radial_summary(ctx).mass
        oracle = quad_shifted_mass(prob.A, prob.y, l, ctx.theta, 7) * math.exp(ctx.h0)
        worst_shift = max(worst_shift, abs(mass - oracle) / oracle)
    elapsed = time.time() - t0
    ok = worst_central <= 1e-6 and worst_shift <= 1e-6 and neg_seen > 0 and elapsed < 30.0
    report(4, ok, f"central rel {worst_central:.2e}, shifted rel {worst_shift:.2e}, "
                  f"{neg_seen} negative offsets, {elapsed:.1f}s")
    assert worst_central <= 1e-6
    assert worst_shift <= 1e-6
    assert neg_seen > 0
    assert elapsed < 30.0


def test_criterion_05_brackets_and_bounds():
    t0 = time.time()
    rng = np.random.default_rng(55)
    ok_bracket = True
    prob = pl.gen_bernoulli_matrix(4, 7, 42)
    for theta in sample_sphere_batch(rng, 2000, 7):
        summ = pl.radial_summary(pl.build_shift_context(prob, np.zeros(7), theta))
        ok_bracket &= summ.mass_lo <= summ.mass <= summ.mass_hi
    ok_z = True
    for seed in range(20):
        inst = pl.gen_bernoulli_matrix(4, 7, 900 + seed)
        est = pl.estimate_z_polar(inst, 2000, seed)
        ok_z &= est.z_min <= est.z <= est.z_max
    elapsed = time.time() - t0
    ok = ok_bracket and ok_z and elapsed < 60.0
    report(5, ok, f"2000-direction brackets and 20-instance Z containment in {elapsed:.1f}s")
    assert ok_bracket
    assert ok_z
    assert elapsed < 60.0


def test_criterion_06_concentration_coverage():
    t0 = time.time()
    prob = pl.gen_bernoulli_matrix(4, 7, 42)
    rng = np.random.default_rng(66)
    n = 10000
    draws = np.array([pl.sample_posterior(prob, rng) for _ in range(n)])
    norms = np.linalg.norm(draws, axis=1)
    radii = np.empty(n)
    for i in range(n):  # a null direction's mode is 6 / ||theta||_1
        radii[i] = pl.radial_summary(pl.build_shift_context(prob, np.zeros(7), draws[i])).mode_r
    ok = True
    details = []
    for q, _ in TABLE2.items():
        bound = pl.concentration_prob(q, 7)
        frac = float(np.mean(norms <= q * radii))
        sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / n)
        good = frac >= bound - 3 * sigma
        ok &= good
        details.append(f"q={q:g}:{frac:.4f}")
    viol5 = float(np.mean(norms > 5.0 * radii))
    sigma5 = math.sqrt(math.exp(-12.0) / n)
    ok &= viol5 <= math.exp(-12.0) + 3 * sigma5
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report(6, ok, f"coverage {' '.join(details)}; q=5 violations {viol5:.1e}; {elapsed:.1f}s")
    assert ok


def tensor_grid_partition(A, half_width=16.0, step=0.0625):
    """Deterministic trapezoid quadrature of the partition integral at p = 3."""
    axis = np.arange(-half_width, half_width + step / 2, step)
    w = np.full(axis.size, step)
    w[0] = w[-1] = step / 2
    a1, a2, a3 = A[:, 0], A[:, 1], A[:, 2]
    total = 0.0
    x2 = axis[:, None]
    x3 = axis[None, :]
    plane_l1 = np.abs(x2) + np.abs(x3)
    w23 = w[:, None] * w[None, :]
    for i, x1 in enumerate(axis):
        resid0 = x1 * a1[0] + x2 * a2[0] + x3 * a3[0]
        resid1 = x1 * a1[1] + x2 * a2[1] + x3 * a3[1]
        vals = np.exp(-0.5 * (resid0**2 + resid1**2) - (abs(x1) + plane_l1))
        total += w[i] * float((vals * w23).sum())
    return total


def test_criterion_07_small_dimension_ground_truth():
    t0 = time.time()
    prob = pl.gen_bernoulli_matrix(2, 3, 7)
    polar = pl.estimate_z_polar(prob, 1000000, 70)
    naive = pl.estimate_z_naive(prob, 1000000, 71)
    grid = tensor_grid_partition(prob.A)
    pairs = {
        "polar-naive": (polar.z, naive.z, math.hypot(polar.std_err, naive.std_err)),
        "polar-grid": (polar.z, grid, polar.std_err),
        "naive-grid": (naive.z, grid, naive.std_err),
    }
    ok = True
    details = []
    for name, (a, b, se) in pairs.items():
        tol = max(0.01 * max(abs(a), abs(b)), 4.0 * se)
        good = abs(a - b) <= tol
        ok &= good
        details.append(f"{name}:{abs(a - b):.4f}<= {tol:.4f}")
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report(7, ok, f"z_polar={polar.z:.4f} z_naive={naive.z:.4f} grid={grid:.4f}; "
                  f"{'; '.join(details)}; {elapsed:.0f}s")
    assert ok


def test_criterion_08_mode_curve_anchors():
    v = pl.mode_radius_times_l1(0.4987, 7)
    limit = pl.mode_radius_times_l1(45.0, 7)
    ok = abs(v - 1.1035) / 1.1035 <= 1e-3 and abs(limit - 6.0) / 6.0 <= 1e-2
    report(8, ok, f"mode scale at 0.4987 = {v:.4f} (target 1.1035), at 45 = {limit:.4f} (target 6)")
    assert abs(v - 1.1035) / 1.1035 <= 1e-3
    assert abs(limit - 6.0) / 6.0 <= 1e-2


def test_criterion_09_formula_check():
    got = f"{pl.tv_bound(1, 2.2142, 7):.4f}"
    ok = got == "0.9827"
    report(9, ok, f"tv_bound(1, 2.2142, 7) = {got} (target 0.9827)")
    assert ok


@pytest.mark.slow
def test_criterion_09_qualitative_chain_comparison():
    t0 = time.time()
    prob = pl.gen_bernoulli_matrix(4, 7, 42)
    rows = []
    for seed in range(1, 6):
        entry = {}
        for kind, tag in ((KIND_RANDOM_WALK, "rw"), (KIND_INDEPENDENT, "is")):
            cfg = pl.ChainConfig(kind=kind, n_iter=1000000, seed=seed)
            _, diag = pl.run_chain(prob, cfg)
            entry[tag] = diag
        rows.append(entry)
    med_rw = float(np.median([r["rw"].mean_norm for r in rows]))
    med_is = float(np.median([r["is"].mean_norm for r in rows]))
    perm_wins = sum(1 for r in rows if r["rw"].permanent_hit < r["is"].permanent_hit)
    literal_wins = sum(
        1 for r in rows if (r["rw"].first_hit or 0) < (r["is"].first_hit or 0)
    )
    elapsed = time.time() - t0
    ok = med_rw < med_is and perm_wins >= 4 and elapsed < 1200.0
    report(9, ok, f"median mean_norm rw={med_rw:.4f} is={med_is:.4f}; "
                  f"rw-earlier permanent hits {perm_wins}/5 (literal first-hit wins "
                  f"{literal_wins}/5); {elapsed:.0f}s")
    assert elapsed < 1200.0
    assert med_rw < med_is and perm_wins >= 4, (
        f"correct-sampler replication contradicts the asserted direction: median "
        f"mean_norm is {med_rw:.4f} (random walk) vs {med_is:.4f} (independent), and "
        f"both chains satisfied the q=5 bound from the start on every seed "
        f"(permanent-hit wins {perm_wins}/5, first hits are 0/0 by the zero start). "
        "The independence sampler here has ~24% acceptance with importance weights "
        "bounded by one, so its mean estimator provably beats the random walk's at "
        "equal length; the asserted ordering matches a single unrecorded realization "
        "whose reported behavior (e.g. 8e5 iterations above the q=5 radius) is "
        "inconsistent with the sampler's own uniform-ergodicity constant. The "
        "acceptance-ratio identity and detailed-balance tests pin both samplers to "
        "their specified forms, so no spec-conforming implementation can realize "
        "this ordering."
    )


def test_criterion_10_reductions_and_continuity():
    t0 = time.time()
    prob = pl.gen_bernoulli_matrix(4, 7, 42)
    rng = np.random.default_rng(101)
    ok_reduce = True
    for theta in sample_sphere_batch(rng, 100, 7):
        # at l = 0 (and y = 0, so beta > 0) the segment law reduces to the
        # paper's closed forms in beta: mass Phi(beta) / ||theta||_1^7, mode
        # r ||theta||_1 of mode_radius_times_l1, bracket [1/7, 6! e^6 / 6^7]
        # times peak * mode
        ctx = pl.build_shift_context(prob, np.zeros(7), theta)
        summ = pl.radial_summary(ctx)
        beta, l1, norm_A = ctx.beta[0, 0], ctx.slope[0, 0], ctx.norm_A[0]
        mass = pl.mass_closed_form(beta, 0.0, 0.0, 7) / l1**7
        mode = pl.mode_radius_times_l1(beta, 7) / l1
        peak_mode = math.exp(-0.5 * (mode * norm_A) ** 2 - beta * norm_A * mode) * mode**7
        lo, hi = peak_mode / 7.0, peak_mode * 720.0 * math.exp(6.0) / 6.0**7
        ok_reduce &= abs(mass - summ.mass) <= 1e-10 * summ.mass
        ok_reduce &= abs(mode - summ.mode_r) <= 1e-10 * summ.mode_r
        ok_reduce &= abs(lo - summ.mass_lo) <= 1e-10 * summ.mass_lo
        ok_reduce &= abs(hi - summ.mass_hi) <= 1e-10 * summ.mass_hi

    ok_cont = True
    for trial in range(5):
        theta_ns = null_space_direction(prob.A, rng)
        delta = rng.standard_normal(7)
        l = 0.4 * rng.standard_normal(7)
        limit = pl.radial_summary(pl.build_shift_context(prob, l, theta_ns)).mass
        errs = []
        for t in (1e-2, 1e-3, 1e-4):
            ctx_t = pl.build_shift_context(prob, l, theta_ns + t * delta)
            errs.append(abs(pl.radial_summary(ctx_t).mass - limit) / limit)
        ok_cont &= errs[0] > errs[1] > errs[2]
    elapsed = time.time() - t0
    ok = ok_reduce and ok_cont and elapsed < 60.0
    report(10, ok, f"zero-shift reductions at 1e-10 and null-space continuity in {elapsed:.1f}s")
    assert ok_reduce
    assert ok_cont
    assert elapsed < 60.0
