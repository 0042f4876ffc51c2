"""Chain mechanics, diagnosis series, and the ergodicity bound."""

import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import null_space

import polarlasso as pl
from polarlasso import mcmc
from polarlasso.mcmc import KIND_INDEPENDENT, KIND_RANDOM_WALK
from polarlasso.problem import laplace_from_uniforms


class TestTvBound:
    def test_reference_value(self):
        assert f"{pl.tv_bound(1, 2.2142, 7):.4f}" == "0.9827"

    def test_zero_steps(self):
        assert pl.tv_bound(0, 2.2142, 7) == 1.0

    def test_half_mass(self):
        assert pl.tv_bound(2, 2.0**6, 7) == pytest.approx(0.25)

    def test_domain(self):
        with pytest.raises(ValueError):
            pl.tv_bound(1, 0.0, 7)
        with pytest.raises(ValueError):
            pl.tv_bound(1, 200.0, 7)

    def test_past_the_float_range_of_two_to_the_p(self):
        # 2^p is no float from p = 1024 on: z/2^p is formed by exact scaling
        assert pl.tv_bound(1, 1.0, 1100) == 1.0
        assert 0.0 < pl.tv_bound(3, 1e308, 1030) == (1.0 - 1e308 * 2.0**-1030) ** 3 < 1.0
        for z in (0.0, math.nan, math.inf, 1e308):
            with pytest.raises(ValueError):
                pl.tv_bound(1, z, 1000)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            pl.ChainConfig(kind="metropolis", n_iter=10)
        with pytest.raises(ValueError):
            pl.ChainConfig(kind=KIND_RANDOM_WALK, n_iter=0)
        with pytest.raises(ValueError):
            pl.ChainConfig(kind=KIND_RANDOM_WALK, n_iter=10, rw_variance=0.0)

    @pytest.mark.parametrize("q", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_q(self, q):
        # q = inf would make the criterion hold by construction
        with pytest.raises(ValueError, match="q must be positive and finite"):
            pl.ChainConfig(kind=KIND_RANDOM_WALK, n_iter=10, q=q)

    @pytest.mark.parametrize("variance", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rw_variance(self, variance):
        with pytest.raises(ValueError, match="rw_variance must be positive and finite"):
            pl.ChainConfig(kind=KIND_RANDOM_WALK, n_iter=10, rw_variance=variance)

    @pytest.mark.parametrize("n_iter", [math.nan, 2.5, 10.0, "10", True])
    def test_rejects_non_integer_n_iter(self, n_iter):
        # a bool is an int to isinstance; True would run one iteration
        with pytest.raises(ValueError, match="n_iter must be a positive integer"):
            pl.ChainConfig(kind=KIND_RANDOM_WALK, n_iter=n_iter)

    def test_accepts_numpy_integer_n_iter(self, desk_instance):
        cfg = pl.ChainConfig(kind=KIND_RANDOM_WALK, n_iter=np.int64(10))
        assert len(pl.run_chain(desk_instance, cfg)[0].norm_x) == 10

    @pytest.mark.parametrize("length", [1, 3])
    @pytest.mark.parametrize("name", ["init", "shift_l"])
    def test_rejects_state_of_wrong_length(self, desk_instance, name, length):
        # a length-1 zero centre broadcasts, and a 10-iteration chain that
        # accepts nothing would return without the check
        cfg = pl.ChainConfig(kind=KIND_INDEPENDENT, n_iter=10, seed=0, **{name: np.zeros(length)})
        with pytest.raises(ValueError, match=f"^{name} must have length 7$"):
            pl.run_chain(desk_instance, cfg)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["init", "shift_l"])
    def test_rejects_non_finite_state(self, name, bad):
        state = np.zeros(7)
        state[2] = bad
        for kind in (KIND_INDEPENDENT, KIND_RANDOM_WALK):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                pl.ChainConfig(kind=kind, n_iter=10, **{name: state})


class TestAcceptanceRatioIdentity:
    def test_independent_ratio_drops_l1_terms(self, desk_instance_y):
        # the Laplace proposal cancels the prior factor analytically; the
        # reduced ratio must equal the full target/proposal ratio
        prob = desk_instance_y
        rng = np.random.default_rng(0)
        for _ in range(500):
            x = laplace_from_uniforms(rng.random(7), np.empty(7))
            x_new = laplace_from_uniforms(rng.random(7), np.empty(7))

            def log_c(v):
                resid = prob.A @ v - prob.y
                return -0.5 * float(resid @ resid) - float(np.abs(v).sum())

            def log_prop(v):
                return -float(np.abs(v).sum())

            full = (log_c(x_new) + log_prop(x)) - (log_c(x) + log_prop(x_new))
            resid_new = prob.A @ x_new - prob.y
            resid_old = prob.A @ x - prob.y
            reduced = -0.5 * (float(resid_new @ resid_new) - float(resid_old @ resid_old))
            assert reduced == pytest.approx(full, rel=1e-12, abs=1e-12)


class TestChainMechanics:
    def test_determinism(self, desk_instance):
        for kind in (KIND_INDEPENDENT, KIND_RANDOM_WALK):
            cfg = pl.ChainConfig(kind=kind, n_iter=5000, seed=77)
            t1, d1 = pl.run_chain(desk_instance, cfg)
            t2, d2 = pl.run_chain(desk_instance, cfg)
            np.testing.assert_array_equal(t1.norm_x, t2.norm_x)
            np.testing.assert_array_equal(t1.criterion, t2.criterion)
            assert d1.acceptance_rate == d2.acceptance_rate
            assert d1.first_hit == d2.first_hit
            np.testing.assert_array_equal(d1.running_mean, d2.running_mean)

    def test_against_brute_force(self, desk_instance_y):
        # a literal reimplementation must reproduce states, mean, acceptance
        prob = desk_instance_y

        def brute(kind, n_iter, seed, rw_var=0.5):
            rng = np.random.default_rng(seed)
            p, A, y = prob.p, prob.A, prob.y
            x = np.zeros(p)
            Ax = A @ x
            mis = float(Ax @ Ax) - 2 * float(Ax @ y)
            l1 = 0.0
            states = []
            acc = 0
            done = 0
            while done < n_iter:
                block = min(65536, n_iter - done)
                if kind == KIND_INDEPENDENT:
                    props = laplace_from_uniforms(rng.random((block, p)), np.empty((block, p)))
                    pAx = props @ A.T
                    pmis = np.einsum("ij,ij->i", pAx, pAx) - 2 * (pAx @ y)
                    lu = np.log(rng.uniform(size=block))
                    for i in range(block):
                        if lu[i] <= -0.5 * (pmis[i] - mis):
                            x, Ax, mis = props[i], pAx[i], float(pmis[i])
                            acc += 1
                        states.append(x.copy())
                else:
                    st = rng.normal(0, math.sqrt(rw_var), size=(block, p))
                    sAx = st @ A.T
                    lu = np.log(rng.uniform(size=block))
                    for i in range(block):
                        xn, Axn = x + st[i], Ax + sAx[i]
                        misn = float(Axn @ Axn) - 2 * float(Axn @ y)
                        l1n = float(np.abs(xn).sum())
                        if lu[i] <= -0.5 * (misn - mis) - (l1n - l1):
                            x, Ax, mis, l1 = xn, Axn, misn, l1n
                            acc += 1
                        states.append(x.copy())
                done += block
            return np.array(states), acc

        for kind in (KIND_INDEPENDENT, KIND_RANDOM_WALK):
            cfg = pl.ChainConfig(kind=kind, n_iter=4000, seed=5)
            trace, diag = pl.run_chain(prob, cfg)
            states, acc = brute(kind, 4000, 5)
            # identical path; norms may differ by an ulp from reduction order
            np.testing.assert_allclose(np.linalg.norm(states, axis=1), trace.norm_x,
                                       rtol=1e-13, atol=1e-300)
            np.testing.assert_allclose(states.mean(axis=0), diag.running_mean,
                                       rtol=1e-12, atol=1e-15)
            assert diag.acceptance_rate == acc / 4000

    def test_zero_design_independent_is_iid(self):
        # with A = 0 every proposal is accepted and the chain is i.i.d. prior
        prob = pl.make_problem(np.zeros((1, 3)))
        cfg = pl.ChainConfig(kind=KIND_INDEPENDENT, n_iter=2000, seed=1)
        _, diag = pl.run_chain(prob, cfg)
        assert diag.acceptance_rate == 1.0

    def test_criterion_series_shape(self, desk_instance):
        cfg = pl.ChainConfig(kind=KIND_RANDOM_WALK, n_iter=300, seed=2)
        trace, diag = pl.run_chain(desk_instance, cfg)
        assert trace.norm_x.shape == (300,)
        assert trace.criterion.dtype == bool
        assert 0.0 <= diag.satisfaction_rate <= 1.0
        # chain starts at the center: criterion holds there by convention
        assert trace.criterion[0] or trace.norm_x[0] > 0

    def test_permanent_hit_semantics(self, desk_instance):
        cfg = pl.ChainConfig(kind=KIND_RANDOM_WALK, n_iter=1000, seed=3, q=0.9)
        trace, diag = pl.run_chain(desk_instance, cfg)
        if diag.last_violation is None:
            assert diag.permanent_hit == 0
        else:
            assert diag.permanent_hit == diag.last_violation + 1
            assert bool(np.all(trace.criterion[diag.permanent_hit:]))

    def test_shifted_criterion_runs(self, desk_instance_y):
        l = pl.solve_fista(desk_instance_y).x
        cfg = pl.ChainConfig(kind=KIND_RANDOM_WALK, n_iter=400, seed=4, shift_l=l)
        trace, diag = pl.run_chain(desk_instance_y, cfg)
        assert np.all(trace.q_r_theta > 0)
        assert 0.0 <= diag.satisfaction_rate <= 1.0

    def test_chain_takes_no_z(self):
        # the ergodicity constant is the diagnose command's (tv_bound of its
        # own Z sweep): the chain neither takes Z nor reports a bound
        assert list(inspect.signature(pl.run_chain).parameters) == ["prob", "cfg"]
        assert not [f.name for f in dataclasses.fields(pl.ChainDiagnosis) if f.name.startswith("tv")]


class TestDetailedBalance:
    @pytest.mark.parametrize("kind", [KIND_INDEPENDENT, KIND_RANDOM_WALK])
    def test_one_dimensional_law(self, kind):
        # p = n = 1: chain marginals vs the quadrature-normalized density
        prob = pl.make_problem(np.array([[1.0]]), np.array([0.7]))
        cfg = pl.ChainConfig(kind=kind, n_iter=100000, seed=11)

        # reconstruct the visited states from the recorded norms and signs is
        # not possible; rerun a small brute chain instead
        rng = np.random.default_rng(11)
        x = 0.0
        states = np.empty(100000)
        if kind == KIND_INDEPENDENT:
            props = laplace_from_uniforms(rng.random(100000), np.empty(100000))
            lu = np.log(rng.uniform(size=100000))
            mis = (x - 0.7) ** 2
            for i in range(100000):
                pm = (props[i] - 0.7) ** 2
                if lu[i] <= -0.5 * (pm - mis):
                    x, mis = props[i], pm
                states[i] = x
        else:
            steps = rng.normal(0, math.sqrt(0.5), size=100000)
            lu = np.log(rng.uniform(size=100000))
            val = 0.5 * (x - 0.7) ** 2 + abs(x)
            for i in range(100000):
                xn = x + steps[i]
                vn = 0.5 * (xn - 0.7) ** 2 + abs(xn)
                if lu[i] <= -(vn - val):
                    x, val = xn, vn
                states[i] = x

        def dens(t):
            return math.exp(-0.5 * (t - 0.7) ** 2 - abs(t))

        z, _ = quad(dens, -np.inf, np.inf, epsrel=1e-12)
        grid = np.linspace(-8, 8, 4001)
        vals = np.array([dens(t) for t in grid])
        cdf = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) / 2 * np.diff(grid))]) / z
        states = np.sort(states[20000:])  # discard transient for the law check
        model = np.interp(states, grid, cdf)
        emp = np.arange(1, len(states) + 1) / len(states)
        assert float(np.max(np.abs(model - emp))) < 0.02


class TestCoverage:
    def test_tabulated_lower_bounds(self, desk_instance):
        rng = np.random.default_rng(12)
        n = 3000
        for q in (2.0, 2.5, 3.0):
            frac = pl.criterion_coverage(desk_instance, q, n, rng)
            bound = pl.concentration_prob(q, 7)
            sigma = math.sqrt(bound * (1 - bound) / n) if bound < 1 else 0.0
            assert frac >= bound - 3.0 * sigma

    def test_large_q_saturates(self, desk_instance):
        rng = np.random.default_rng(13)
        assert pl.criterion_coverage(desk_instance, 50.0, 500, rng) == 1.0

    @pytest.mark.parametrize("n_draws", [True, 0, -1, 2.5, 100.0])
    def test_rejects_n_draws_not_a_positive_integer(self, desk_instance, n_draws):
        with pytest.raises(ValueError, match=f"^n_draws must be an integer >= 1, not {n_draws!r}$"):
            pl.criterion_coverage(desk_instance, 5.0, n_draws, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_centre(self, desk_instance, bad):
        l = np.zeros(7)
        l[4] = bad
        with pytest.raises(ValueError, match="l must be finite"):
            pl.criterion_coverage(desk_instance, 5.0, 100, 14, l=l)

    @pytest.mark.parametrize("length", [1, 3])
    def test_rejects_centre_of_wrong_length(self, desk_instance, monkeypatch, length):
        # refused before the exact draws are made
        monkeypatch.setattr(mcmc, "sample_posterior_batch", lambda *a: pytest.fail("drew"))
        with pytest.raises(ValueError, match="^l must have length 7$"):
            pl.criterion_coverage(desk_instance, 5.0, 100, 14, l=np.zeros(length))

    @pytest.mark.parametrize("q", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_q(self, desk_instance, monkeypatch, q):
        # refused before the exact draws are made
        monkeypatch.setattr(mcmc, "sample_posterior_batch", lambda *a: pytest.fail("drew"))
        with pytest.raises(ValueError, match="^q must be positive and finite$"):
            pl.criterion_coverage(desk_instance, q, 100, 14)

    def test_rejects_one_column(self, monkeypatch):
        # at p = 1 the criterion has no bound P(q, p), and on a 1 x 1 design
        # the mode is the origin, so coverage would read 0.0
        monkeypatch.setattr(mcmc, "sample_posterior_batch", lambda *a: pytest.fail("drew"))
        monkeypatch.setattr(mcmc, "laplace_from_uniforms", lambda *a: pytest.fail("drew"))
        prob = pl.make_problem(np.eye(1), np.array([0.5]))
        with pytest.raises(ValueError, match="^p must be at least 2$"):
            pl.criterion_coverage(prob, 5.0, 100, 14)
        for kind in (KIND_INDEPENDENT, KIND_RANDOM_WALK):
            with pytest.raises(ValueError, match="^p must be at least 2$"):
                pl.run_chain(prob, pl.ChainConfig(kind=kind, n_iter=10))

    def test_mean_norm_loose_cap(self, desk_instance):
        # zero-mean target: the running mean at modest length stays small
        for kind in (KIND_INDEPENDENT, KIND_RANDOM_WALK):
            cfg = pl.ChainConfig(kind=kind, n_iter=100000, seed=21)
            _, diag = pl.run_chain(desk_instance, cfg)
            assert diag.mean_norm < 0.15


def _brute_states(prob, kind, n_iter, seed, init, block, variance=0.5):
    """Every state of a literal chain with `block`-sized proposal blocks (the
    random walk's steps of the given variance), and the number of accepted
    proposals."""
    rng = np.random.default_rng(seed)
    A, y = prob.A, prob.y
    x = np.zeros(prob.p) if init is None else np.array(init, dtype=float)
    Ax = A @ x
    mis = float(Ax @ Ax) - 2 * float(Ax @ y)
    l1 = float(np.abs(x).sum())
    states = []
    acc = 0
    for done in range(0, n_iter, block):
        size = min(block, n_iter - done)
        if kind == KIND_INDEPENDENT:
            props = laplace_from_uniforms(rng.random((size, prob.p)), np.empty((size, prob.p)))
            pAx = props @ A.T
            pmis = np.einsum("ij,ij->i", pAx, pAx) - 2 * (pAx @ y)
            lu = np.log(rng.uniform(size=size))
            for i in range(size):
                if lu[i] <= -0.5 * (pmis[i] - mis):
                    x, mis = props[i], float(pmis[i])
                    acc += 1
                states.append(x)
        else:
            st = rng.normal(0, math.sqrt(variance), size=(size, prob.p))
            sAx = st @ A.T
            lu = np.log(rng.uniform(size=size))
            for i in range(size):
                xn, Axn = x + st[i], Ax + sAx[i]
                misn = float(Axn @ Axn) - 2 * float(Axn @ y)
                l1n = float(np.abs(xn).sum())
                if lu[i] <= -0.5 * (misn - mis) - (l1n - l1):
                    x, Ax, mis, l1 = xn, Axn, misn, l1n
                    acc += 1
                states.append(x)
    return states, acc


def _scalar_diagnosis(prob, x, l, q):
    """(||x - l||, q r(theta, l)) of one state from the per-direction scalar APIs."""
    x_rel = x - l
    norm = float(np.linalg.norm(x_rel))
    if norm == 0.0:
        return 0.0, math.inf
    return norm, q * pl.radial_summary(pl.build_shift_context(prob, l, x_rel)).mode_r


def _oracle_series(prob, states, l, q):
    """(norms, q r) of every state of a brute chain, diagnosed per distinct state."""
    want = []
    for t, x in enumerate(states):
        same = t > 0 and x is states[t - 1]
        want.append(want[-1] if same else _scalar_diagnosis(prob, x, l, q))
    return (np.array(v) for v in zip(*want))


def _check_against_oracle(prob, monkeypatch, kind, shift, start):
    """A 2500-iteration chain in blocks of 1000 against the brute chain and the scalar diagnosis."""
    l = pl.solve_fista(prob).x if shift else np.zeros(7)
    init = {"origin": None, "centre": l,
            "null": l + 0.5 * null_space(prob.A)[:, 0]}[start]
    monkeypatch.setattr(mcmc, "_BLOCK", 1000)  # three blocks, the last one partial
    n_iter = 2500
    cfg = pl.ChainConfig(kind=kind, n_iter=n_iter, seed=9, shift_l=l if shift else None,
                         init=init)
    trace, diag = pl.run_chain(prob, cfg)

    states, acc = _brute_states(prob, kind, n_iter, 9, init, 1000)
    norm, q_r = _oracle_series(prob, states, l, cfg.q)
    crit = norm <= q_r
    assert diag.acceptance_rate == acc / n_iter
    np.testing.assert_array_equal(trace.criterion, crit)
    viol, hits = np.flatnonzero(~crit), np.flatnonzero(crit)
    assert diag.first_hit == (int(hits[0]) if hits.size else None)
    assert diag.last_violation == (int(viol[-1]) if viol.size else None)
    np.testing.assert_allclose(trace.norm_x, norm, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(trace.q_r_theta, q_r, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(diag.running_mean, np.mean(states, axis=0), rtol=1e-12, atol=1e-15)

    centre = start == "centre" or (start == "origin" and not shift)
    assert np.isinf(trace.q_r_theta[0]) == centre
    assert diag.meta == {"states_diagnosed": acc + 1, "null_states": int(start == "null"),
                         "centre_states": int(centre), "blocks": 3}


class TestBatchedDiagnosis:
    @pytest.mark.parametrize("kind", [KIND_INDEPENDENT, KIND_RANDOM_WALK])
    @pytest.mark.parametrize("shift", [False, True])
    @pytest.mark.parametrize("start", ["origin", "centre", "null"])
    def test_matches_scalar_oracle(self, desk_instance_y, monkeypatch, kind, shift, start):
        _check_against_oracle(desk_instance_y, monkeypatch, kind, shift, start)

    @pytest.mark.parametrize("run", [1, 3])
    @pytest.mark.parametrize("shift", [False, True])
    @pytest.mark.parametrize("start", ["origin", "centre", "null"])
    def test_short_runs_match_scalar_oracle(self, desk_instance_y, monkeypatch, shift, start, run):
        # the random walk's decisions with runs shorter than _RUN, which then
        # cross each other and block edges more often
        monkeypatch.setattr(mcmc, "_RUN", run)
        _check_against_oracle(desk_instance_y, monkeypatch, KIND_RANDOM_WALK, shift, start)

    @pytest.mark.parametrize("run", [1, 3, mcmc._RUN])
    @pytest.mark.parametrize("variance, start, accept_lo, accept_hi",
                             [(1e-4, 0.0, 0.9, 1.0), (50.0, 4.0, 1e-3, 1e-2)])
    def test_random_walk_extreme_acceptance(self, desk_instance_y, monkeypatch, variance, start,
                                            accept_lo, accept_hi, run):
        # almost every step accepted (runs of one proposal), and almost none:
        # from a start out in the tail, a few long steps back toward the mode
        prob = desk_instance_y
        monkeypatch.setattr(mcmc, "_BLOCK", 1000)
        monkeypatch.setattr(mcmc, "_RUN", run)
        n_iter = 2500
        init = np.full(7, start)
        cfg = pl.ChainConfig(kind=KIND_RANDOM_WALK, n_iter=n_iter, rw_variance=variance, seed=9,
                             init=init)
        trace, diag = pl.run_chain(prob, cfg)

        states, acc = _brute_states(prob, KIND_RANDOM_WALK, n_iter, 9, init, 1000, variance)
        assert accept_lo <= acc / n_iter <= accept_hi
        assert diag.acceptance_rate == acc / n_iter
        norm, q_r = _oracle_series(prob, states, np.zeros(7), cfg.q)
        np.testing.assert_array_equal(trace.criterion, norm <= q_r)
        np.testing.assert_allclose(trace.norm_x, norm, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(trace.q_r_theta, q_r, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(diag.running_mean, np.mean(states, axis=0), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("shift", [False, True])
    def test_coverage_matches_scalar_loop(self, desk_instance_y, shift):
        prob = desk_instance_y
        l = pl.solve_fista(prob).x if shift else np.zeros(7)
        q, n = 2.0, 400
        good = 0
        for x in pl.sample_posterior_batch(prob, n, np.random.default_rng(31)):
            norm = float(np.linalg.norm(x - l))
            ctx = pl.build_shift_context(prob, l, x - l)
            good += norm <= q * pl.radial_summary(ctx).mode_r
        frac = pl.criterion_coverage(prob, q, n, 31, l=l)
        assert frac == good / n
        assert 0.0 < frac < 1.0  # q = 2 separates draws

    @pytest.mark.parametrize("kind, shift, limit_mib", [
        (KIND_RANDOM_WALK, False, 16), (KIND_RANDOM_WALK, True, 16), (KIND_INDEPENDENT, False, 24),
    ])
    def test_memory_of_one_full_block(self, desk_instance_y, kind, shift, limit_mib):
        # the diagnosis runs in chunks of rows, not over a whole block at once
        prob = desk_instance_y
        l = pl.solve_fista(prob).x if shift else None
        cfg = pl.ChainConfig(kind=kind, n_iter=65536, seed=2, shift_l=l)
        tracemalloc.start()
        try:
            pl.run_chain(prob, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20

