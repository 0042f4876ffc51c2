"""Command-line surface: outputs, schemas, exit codes, manifest replay."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polarlasso as pl
from conftest import tiny_design
from polarlasso import cli
from polarlasso.cli import main

# what a fresh interpreter needs on its path to import this polarlasso
SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__)))


def run(argv):
    return main(argv)


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    assert run(["gen", "--n", "4", "--p", "7", "--seed", "1", "--out", str(path)]) == 0
    return str(path)


class TestGen:
    def test_writes_schema(self, problem_file):
        with open(problem_file) as fh:
            payload = json.load(fh)
        assert payload["n"] == 4 and payload["p"] == 7
        assert len(payload["A"]) == 28
        assert len(payload["y"]) == 4
        assert payload["seed"] == 1

    def test_manifest_next_to_output(self, problem_file):
        manifest = problem_file.replace(".json", ".manifest.json")
        assert os.path.exists(manifest)
        with open(manifest) as fh:
            m = json.load(fh)
        assert m["command"] == "gen"
        assert m["seed"] == 1

    def test_manifest_records_versions(self, problem_file):
        with open(problem_file.replace(".json", ".manifest.json")) as fh:
            m = json.load(fh)
        assert set(m["versions"]) == {"polarlasso", "python", "numpy"}
        assert m["versions"]["numpy"] == np.__version__

    def test_y_norm_flag(self, tmp_path):
        path = tmp_path / "p.json"
        assert run(["gen", "--n", "4", "--p", "7", "--seed", "2",
                    "--y-norm", "2.0", "--out", str(path)]) == 0
        with open(path) as fh:
            payload = json.load(fh)
        assert np.linalg.norm(payload["y"]) == pytest.approx(2.0)

    def test_y_norm_whose_square_overflows_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        assert run(["gen", "--n", "4", "--p", "7", "--y-norm", "1e155", "--out", str(path)]) == 2
        assert "y is too large" in capsys.readouterr().err
        assert not path.exists()


class TestSolve:
    def test_zero_observation_both_methods(self, tmp_path, problem_file):
        out = tmp_path / "sol.json"
        assert run(["solve", "--problem", problem_file, "--method", "both",
                    "--n-samples", "2000", "--seed", "3", "--out", str(out)]) == 0
        with open(out) as fh:
            sol = json.load(fh)
        assert sol["fista"]["x"] == [0.0] * 7
        assert sol["polar"]["x"] == [0.0] * 7
        assert sol["polar"]["meta"]["n_negative"] == 0  # no direction has beta <= 0 at y = 0

    def test_both_methods_report_their_gap(self, tmp_path):
        prob, out = tmp_path / "p.json", tmp_path / "sol.json"
        assert run(["gen", "--y-norm", "2", "--out", str(prob)]) == 0
        assert run(["solve", "--problem", str(prob), "--method", "both", "--n-samples", "5000",
                    "--out", str(out)]) == 0
        sol = json.loads(out.read_text())
        inst = pl.load_problem(str(prob))
        for method in ("fista", "polar"):
            assert sol[method]["meta"]["gap"] == pl.duality_gap(inst, np.array(sol[method]["x"]))
        assert 0.0 <= sol["fista"]["meta"]["gap"] < 1e-8 < sol["polar"]["meta"]["gap"]

    def test_unconverged_fista_exits_3(self, tmp_path, capsys):
        # one iteration does not reach the default --tol on an instance with y != 0;
        # the JSON and the manifest are written all the same
        prob, out = tmp_path / "p.json", tmp_path / "sol.json"
        assert run(["gen", "--y-norm", "2", "--out", str(prob)]) == 0
        assert run(["solve", "--problem", str(prob), "--method", "fista", "--max-iter", "1",
                    "--out", str(out)]) == 3
        assert "FISTA did not reach --tol" in capsys.readouterr().err
        meta = json.loads(out.read_text())["fista"]["meta"]
        assert meta["converged"] is False and meta["iterations"] == 1
        assert os.path.exists(str(out).replace(".json", ".manifest.json"))

    def test_missing_problem_exit_code(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--problem", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "s.json")])
        assert exc.value.code == 4

    @pytest.mark.parametrize("scale", [1e-158, 1e-165])
    def test_design_whose_squared_norm_underflows(self, tmp_path, scale):
        # 1/||A||^2 is not finite, and the mode is 0 (||A^T y||_inf < 1)
        prob, out = tmp_path / "p.json", tmp_path / "sol.json"
        pl.save_problem(tiny_design(scale), str(prob))
        assert run(["solve", "--problem", str(prob), "--method", "fista", "--out", str(out)]) == 0
        fista = json.loads(out.read_text())["fista"]
        assert fista["x"] == [0.0] * 7 and fista["meta"]["converged"] is True


class TestPartition:
    def test_polar_output_schema(self, tmp_path, problem_file):
        out = tmp_path / "z.json"
        assert run(["partition", "--problem", problem_file, "--method", "polar",
                    "--n-samples", "3000", "--seed", "4", "--out", str(out)]) == 0
        with open(out) as fh:
            est = json.load(fh)
        assert set(est) >= {"z", "std_err", "z_min", "z_max", "method"}
        assert est["z_min"] <= est["z"] <= est["z_max"]
        assert est["method"] == "polar_mc"

    def test_both_methods_nested(self, tmp_path, problem_file):
        out = tmp_path / "zb.json"
        assert run(["partition", "--problem", problem_file, "--method", "both",
                    "--n-samples", "2000", "--seed", "4", "--out", str(out)]) == 0
        with open(out) as fh:
            z = json.load(fh)
        assert z["polar"]["method"] == "polar_mc"
        assert z["naive"]["method"] == "naive_mc"

    def test_shift_route(self, tmp_path, problem_file):
        out = tmp_path / "zs.json"
        assert run(["partition", "--problem", problem_file, "--method", "polar",
                    "--n-samples", "2000", "--seed", "5", "--shift",
                    "--out", str(out)]) == 0
        with open(out) as fh:
            z = json.load(fh)
        via_shift = z["shift"]["z_from_shift"]
        assert via_shift == pytest.approx(z["z"], rel=0.2)  # independent sweeps

    def test_shift_bracket_and_error(self, tmp_path):
        path = tmp_path / "py.json"
        assert run(["gen", "--n", "4", "--p", "7", "--seed", "3", "--y-norm", "2.0",
                    "--out", str(path)]) == 0
        out = tmp_path / "zsy.json"
        assert run(["partition", "--problem", str(path), "--method", "naive",
                    "--n-samples", "2000", "--seed", "5", "--shift", "--out", str(out)]) == 0
        with open(out) as fh:
            sh = json.load(fh)["shift"]
        assert set(sh) == {"z_f", "h0", "z_from_shift", "std_err", "z_min", "z_max", "l", "n_samples"}
        assert sh["n_samples"] == 2048
        assert sh["z_min"] <= sh["z_from_shift"] <= sh["z_max"]
        assert sh["std_err"] > 0.0
        assert sh["z_from_shift"] == pytest.approx(np.exp(sh["h0"]) * sh["z_f"], rel=1e-12)
        assert any(v != 0.0 for v in sh["l"])  # a nonzero mode: several segments per ray

    @pytest.mark.parametrize("scale", [1e-158, 1e-165])
    def test_shift_at_a_design_whose_squared_norm_underflows(self, tmp_path, scale):
        # FISTA's step 1/||A||^2 is not finite there; the mode, and so the centre, is 0
        prob, out = tmp_path / "p.json", tmp_path / "z.json"
        pl.save_problem(tiny_design(scale), str(prob))
        assert run(["partition", "--problem", str(prob), "--method", "naive",
                    "--n-samples", "2000", "--seed", "5", "--shift", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["shift"]["l"] == [0.0] * 7

    def test_non_finite_problem_exit_code(self, tmp_path):
        for A, y in (([float("nan")] + [1.0] * 5, [0.0, 0.0]),
                     ([1.0] * 6, [float("inf"), 0.0])):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({"n": 2, "p": 3, "A": A, "y": y, "seed": None}))
            with pytest.raises(SystemExit) as exc:
                run(["partition", "--problem", str(path), "--out", str(tmp_path / "z.json")])
            assert exc.value.code == 2

    def test_malformed_dimension_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": -1, "p": 7, "A": [0.5] * 28, "y": [1.0] * 4, "seed": None}))
        with pytest.raises(SystemExit) as exc:
            run(["partition", "--problem", str(path), "--out", str(tmp_path / "z.json")])
        assert exc.value.code == 2
        assert "n must be an integer >= 1, not -1" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["naive", "polar"])
    def test_overflowing_problem_exit_code(self, tmp_path, capsys, method):
        # finite entries whose squares overflow: y, then A
        for name, A, y in (("y", [0.5] * 6, [1e155, 1e155]), ("A", [1e160] * 6, [1.0, 0.0])):
            path = tmp_path / "big.json"
            path.write_text(json.dumps({"n": 2, "p": 3, "A": A, "y": y, "seed": None}))
            out = tmp_path / "z.json"
            with pytest.raises(SystemExit) as exc:
                run(["partition", "--problem", str(path), "--method", method, "--out", str(out)])
            assert exc.value.code == 2
            assert f"{name} is too large" in capsys.readouterr().err
            assert not out.exists()

    def test_unrepresentable_z_exits_3(self, tmp_path, capsys):
        # JSON and manifest are written, then each route whose Z underflowed
        # to 0 or overflowed to inf is named on stderr
        big = tmp_path / "big.json"
        pl.save_problem(pl.make_problem(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
                                        np.array([1e3, 0.0])), str(big))
        out = tmp_path / "z.json"
        for extra, zeros in ((["--method", "both"], ("polar", "naive")),
                             (["--method", "naive", "--shift"], ("naive", "shift"))):
            assert run(["partition", "--problem", str(big), "--n-samples", "2000", *extra,
                        "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert [line.split()[2] for line in err.splitlines()] == list(zeros)
            assert all(line.endswith("0.0, is not finite and positive") for line in err.splitlines())
            assert os.path.exists(str(out).replace(".json", ".manifest.json"))
        # at p = 1100 naive's mean of e^(-misfit) 2^p overflows; polar's is finite
        wide = tmp_path / "wide.json"
        assert run(["gen", "--n", "2", "--p", "1100", "--y-norm", "1", "--out", str(wide)]) == 0
        capsys.readouterr()
        assert run(["partition", "--problem", str(wide), "--method", "both", "--n-samples", "200",
                    "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "polarlasso: the naive estimate of Z, inf, is not finite and positive\n")
        z = json.loads(out.read_text())
        assert z["naive"]["z"] == float("inf") and 0.0 < z["polar"]["z"] < float("inf")

    def test_desk_instance_exits_0(self, tmp_path, capsys):
        desk = tmp_path / "desk.json"
        assert run(["gen", "--n", "4", "--p", "7", "--y-norm", "2", "--seed", "1",
                    "--out", str(desk)]) == 0
        assert run(["partition", "--problem", str(desk), "--method", "both", "--shift",
                    "--n-samples", "2000", "--out", str(tmp_path / "z.json")]) == 0
        assert capsys.readouterr().err == ""


class TestCurves:
    def test_columns_and_flag(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run(["curves", "--beta-min", "6", "--beta-max", "45",
                    "--steps", "100", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "beta,phi_beta,phi_beta_M,remainder_bound,mode_times_l1,phi_beta_trusted"
        assert len(lines) == 101
        rows = [line.split(",") for line in lines[1:]]
        flags = {float(r[0]): int(r[5]) for r in rows}
        assert all(flag == 0 for b, flag in flags.items() if b > 13.8)
        assert all(flag == 1 for b, flag in flags.items() if b <= 13.8)
        # mode scale column is monotone toward p - 1 = 6
        scale = [float(r[4]) for r in rows]
        assert all(b > a for a, b in zip(scale, scale[1:]))
        assert scale[-1] == pytest.approx(6.0, rel=1e-2)

    @pytest.mark.parametrize("p, trusted_to", [(20, 5.42), (1, 45.0)])
    def test_flag_follows_p(self, tmp_path, p, trusted_to):
        # the flag marks where beta^(2(p-1))/(p-1)! is at most its value at
        # p = 7, beta = 13.8: beta <= 5.4247 at p = 20, every row at p = 1;
        # beta <= 0 rows are flagged at every p
        out = tmp_path / "curves.csv"
        assert run(["curves", "--p", str(p), "--beta-min", "-2", "--beta-max", "45",
                    "--steps", "95", "--m-terms", "25", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        flags = {float(r[0]): int(r[5]) for r in rows}
        assert len(flags) == 95
        assert all(flag == (1 if b <= trusted_to else 0) for b, flag in flags.items())

    def test_bad_range_exit_code(self, tmp_path):
        code = run(["curves", "--beta-min", "10", "--beta-max", "5",
                    "--out", str(tmp_path / "c.csv")])
        assert code == 2

    def test_expansion_overflow_exits_3(self, tmp_path, capsys):
        # at p = 200 the expansion's coefficients exceed the float range
        out = tmp_path / "c.csv"
        assert run(["curves", "--p", "200", "--m-terms", "201", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("polarlasso: no expansion at --p 200") and "Traceback" not in err
        assert not out.exists()


class TestDiagnose:
    def test_summary_and_series(self, tmp_path, problem_file):
        out = tmp_path / "diag.json"
        series = tmp_path / "series.csv"
        assert run(["diagnose", "--problem", problem_file, "--sampler", "rw",
                    "--iters", "2000", "--seed", "6", "--emit-series", str(series),
                    "--out", str(out)]) == 0
        with open(out) as fh:
            summary = json.load(fh)
        assert set(summary) >= {"first_hit", "last_violation", "satisfaction_rate",
                                "mean", "mean_norm", "acceptance_rate", "tv_constant"}
        assert 0.0 <= summary["satisfaction_rate"] <= 1.0
        lines = series.read_text().splitlines()
        assert lines[0] == "t,norm_x,q_times_r_theta,criterion"
        assert len(lines) == 2001

    def test_series_bytes_match_per_row_format(self, tmp_path, problem_file):
        # longer than one written chunk, and the chain starts at the centre,
        # where q r(theta) is inf
        from polarlasso import cli, mcmc, problem

        iters = cli.SERIES_ROWS + 808
        series = tmp_path / "series.csv"
        assert run(["diagnose", "--problem", problem_file, "--sampler", "rw",
                    "--iters", str(iters), "--seed", "6", "--emit-series", str(series),
                    "--out", str(tmp_path / "diag.json")]) == 0
        cfg = mcmc.ChainConfig(kind=mcmc.KIND_RANDOM_WALK, n_iter=iters, seed=6)
        trace, _ = mcmc.run_chain(problem.load_problem(problem_file), cfg)
        assert np.isinf(trace.q_r_theta).any()
        rows = ["t,norm_x,q_times_r_theta,criterion"] + [
            f"{t},{cli._fmt(trace.norm_x[t])},{cli._fmt(trace.q_r_theta[t])},{int(trace.criterion[t])}"
            for t in range(iters)
        ]
        assert series.read_bytes() == ("\n".join(rows) + "\n").encode("utf-8")

    def test_chain_that_never_moved_exits_3(self, tmp_path, problem_file, capsys):
        # at p = 20 the default variance 0.5 accepts no step of this seed
        wide = tmp_path / "wide.json"
        assert run(["gen", "--n", "10", "--p", "20", "--y-norm", "2", "--seed", "0",
                    "--out", str(wide)]) == 0
        out, series = tmp_path / "diag.json", tmp_path / "series.csv"
        assert run(["diagnose", "--problem", str(wide), "--sampler", "rw", "--iters", "30000",
                    "--seed", "0", "--emit-series", str(series), "--out", str(out)]) == 3
        assert "acceptance_rate 0.0" in capsys.readouterr().err
        summary = json.loads(out.read_text())
        assert summary["acceptance_rate"] == 0.0 and summary["satisfaction_rate"] == 1.0
        assert os.path.exists(str(out).replace(".json", ".manifest.json"))
        # one state for all 30 000 rows, a run across four written chunks: the
        # bytes are those of the per-row format
        from polarlasso import cli, mcmc, problem

        cfg = mcmc.ChainConfig(kind=mcmc.KIND_RANDOM_WALK, n_iter=30000, seed=0)
        trace, _ = mcmc.run_chain(problem.load_problem(str(wide)), cfg)
        assert np.unique(trace.norm_x).size == 1 and 30000 > 3 * cli.SERIES_ROWS
        rows = ["t,norm_x,q_times_r_theta,criterion"] + [
            f"{t},{cli._fmt(trace.norm_x[t])},{cli._fmt(trace.q_r_theta[t])},{int(trace.criterion[t])}"
            for t in range(30000)
        ]
        assert series.read_bytes() == ("\n".join(rows) + "\n").encode("utf-8")
        # a chain on the desk instance moves, and exits 0
        assert run(["diagnose", "--problem", problem_file, "--sampler", "rw", "--iters", "30000",
                    "--seed", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["acceptance_rate"] > 0.0

    def test_is_sampler_has_tv_constant(self, tmp_path, problem_file):
        out = tmp_path / "diag_is.json"
        assert run(["diagnose", "--problem", problem_file, "--sampler", "is",
                    "--iters", "1000", "--seed", "7", "--z-samples", "2000",
                    "--out", str(out)]) == 0
        with open(out) as fh:
            summary = json.load(fh)
        assert summary["tv_constant"] is not None
        assert 0.0 < summary["tv_constant"] < 1.0

    def test_is_tv_constant_is_tv_bound_of_the_z_sweep(self, tmp_path, problem_file):
        out = tmp_path / "diag_is.json"
        assert run(["diagnose", "--problem", problem_file, "--sampler", "is",
                    "--iters", "100", "--seed", "7", "--z-samples", "2000", "--out", str(out)]) == 0
        z = pl.estimate_z_polar(pl.load_problem(problem_file), 2000, 7 + 13).z
        assert json.loads(out.read_text())["tv_constant"] == pl.tv_bound(1, z, 7)

    def test_is_z_outside_tv_domain_exits_3(self, tmp_path, capsys):
        # a near-singular design: the Z sweep of seed 7 + 13 reads 4.009 > 2^p = 4,
        # so no constant 1 - Z/2^p exists and the chain does not run
        path = tmp_path / "tiny.json"
        pl.save_problem(pl.make_problem(1e-3 * np.eye(2)), str(path))
        assert pl.estimate_z_polar(pl.load_problem(str(path)), 2000, 7 + 13).z > 4.0
        out = tmp_path / "diag.json"
        assert run(["diagnose", "--problem", str(path), "--sampler", "is", "--iters", "100",
                    "--z-samples", "2000", "--seed", "7", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("polarlasso:") and "z must lie in (0, 2^p)" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("sampler", ["rw", "is"])
    def test_one_column_problem_exits_2(self, tmp_path, capsys, sampler):
        # at p = 1 the criterion has no bound P(q, p), and a 1 x 1 chain
        # would report satisfaction_rate 0.0 with exit 0
        path = tmp_path / "one.json"
        pl.save_problem(pl.make_problem(np.eye(1), np.array([0.5])), str(path))
        out = tmp_path / "diag.json"
        assert run(["diagnose", "--problem", str(path), "--sampler", sampler, "--iters", "100",
                    "--z-samples", "200", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "polarlasso: p must be at least 2\n"
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["diagnose", "--iters", "0"],
    ["diagnose", "--rw-var", "0"],
    ["diagnose", "--rw-var", "inf"],
    ["diagnose", "--rw-var", "nan"],
    ["diagnose", "--q", "-1"],
    ["diagnose", "--q", "0"],
    ["diagnose", "--q", "inf"],
    ["diagnose", "--q", "nan"],
    ["partition", "--n-samples", "0"],
    ["solve", "--n-samples", "0"],
    ["solve", "--tol", "-1"],
    ["solve", "--tol", "0"],
    ["solve", "--tol", "inf"],
], ids=lambda argv: " ".join(argv))
def test_nonpositive_numeric_argument_exits_2(tmp_path, problem_file, capsys, argv):
    # an argument error: usage and exit 2, no traceback and no output
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        run([argv[0], "--problem", problem_file, *argv[1:], "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be positive" in err and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "0"],
    ["gen", "--n", "5", "--p", "3"],
    ["curves", "--p", "0"],
    ["curves", "--steps", "-1"],
    ["curves", "--m-terms", "3"],
    ["gen", "--y-norm", "-1"],
    ["gen", "--y-norm", "nan"],
    ["gen", "--y-norm", "inf"],
    ["curves", "--beta-max", "inf"],
    ["curves", "--beta-min", "-inf"],
    ["curves", "--beta-min", "nan"],
    ["gen", "--seed", "-2", "--y-norm", "1"],
    ["tables", "--seed", "-1"],
    ["solve", "--problem", "PROBLEM", "--seed", "-1"],
    ["partition", "--problem", "PROBLEM", "--seed", "-1"],
    ["diagnose", "--problem", "PROBLEM", "--seed", "-1"],
    ["diagnose", "--problem", "PROBLEM", "--sampler", "is", "--seed", "-1"],
], ids=lambda argv: " ".join(argv))
def test_invalid_argument_exits_2(tmp_path, problem_file, capsys, argv):
    # rejected by the parser (SystemExit 2) or by the command (return 2)
    out = tmp_path / "out.csv"
    try:
        code = run([problem_file if a == "PROBLEM" else a for a in argv] + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(("usage:", "polarlasso:")) and "Traceback" not in err
    if "--seed" in argv:
        assert "--seed: must be non-negative, got '-" in err
    if argv[:3] == ["gen", "--n", "5"]:  # the rule of problem.gen_bernoulli_matrix
        assert err == "polarlasso: need p >= n >= 1\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["gen", "solve", "partition", "curves", "diagnose", "tables"])
def test_unwritable_output_exits_4(tmp_path, problem_file, capsys, command):
    missing = tmp_path / "missing" / "out.json"
    argv = {
        "gen": ["gen", "--out", str(missing)],
        "solve": ["solve", "--problem", problem_file, "--method", "fista", "--out", str(missing)],
        "partition": ["partition", "--problem", problem_file, "--n-samples", "100", "--out", str(missing)],
        "curves": ["curves", "--steps", "5", "--out", str(missing)],
        "diagnose": ["diagnose", "--problem", problem_file, "--iters", "100", "--out", str(missing)],
        # the output directory is an existing file, so it cannot be made
        "tables": ["tables", "--out-dir", problem_file, "--n-samples", "100", "--iters", "100"],
    }[command]
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert "polarlasso: I/O error:" in err and "Traceback" not in err


class TestTables:
    def test_all_three_tables(self, tmp_path):
        out_dir = tmp_path / "tables"
        assert run(["tables", "--out-dir", str(out_dir), "--seed", "1",
                    "--n-samples", "4000", "--iters", "4000"]) == 0
        t2 = (out_dir / "table2.csv").read_text().splitlines()
        assert t2[0] == "q,P"
        assert t2[1] == "2,0.6672"
        assert t2[5] == "4,0.9999"
        assert t2[7] == "5,1.0000"
        t1 = (out_dir / "table1.csv").read_text().splitlines()
        assert len(t1) == 3 and t1[1].startswith("fista,")
        t3 = (out_dir / "table3.csv").read_text().splitlines()
        assert len(t3) == 3
        assert {row.split(",")[0] for row in t3[1:]} == {"is", "rw"}


class TestManifestReplay:
    def test_byte_identical_rerun(self, tmp_path):
        first = tmp_path / "a" / "curves.csv"
        os.makedirs(first.parent)
        assert run(["curves", "--beta-min", "6", "--beta-max", "20",
                    "--steps", "50", "--out", str(first)]) == 0
        blob = first.read_bytes()
        manifest = str(first).replace(".csv", ".manifest.json")
        first.unlink()
        assert run(["rerun", manifest]) == 0
        assert first.read_bytes() == blob

    def test_seeded_rerun_partition(self, tmp_path, problem_file):
        out = tmp_path / "z.json"
        assert run(["partition", "--problem", problem_file, "--n-samples", "2000",
                    "--seed", "9", "--out", str(out)]) == 0
        blob = out.read_bytes()
        manifest = str(out).replace(".json", ".manifest.json")
        out.unlink()
        assert run(["rerun", manifest]) == 0
        assert out.read_bytes() == blob

    def test_seeded_rerun_diagnose(self, tmp_path, problem_file):
        out = tmp_path / "diag.json"
        series = tmp_path / "series.csv"
        assert run(["diagnose", "--problem", problem_file, "--sampler", "rw", "--iters", "3000",
                    "--seed", "4", "--emit-series", str(series), "--out", str(out)]) == 0
        blobs = out.read_bytes(), series.read_bytes()
        meta = json.loads(blobs[0])["meta"]
        assert set(meta) == {"states_diagnosed", "null_states", "centre_states", "blocks"}
        assert meta["blocks"] == 1 and meta["centre_states"] == 1
        manifest = str(out).replace(".json", ".manifest.json")
        out.unlink()
        series.unlink()
        assert run(["rerun", manifest]) == 0
        assert (out.read_bytes(), series.read_bytes()) == blobs

    def test_rerun_from_another_directory(self, tmp_path, monkeypatch):
        # a run given relative paths replays from any directory: it reads and
        # writes the files of the directory it ran in, manifests included
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        monkeypatch.chdir(a)
        assert run(["gen", "--y-norm", "2", "--out", "prob.json"]) == 0
        assert run(["partition", "--problem", "prob.json", "--n-samples", "2000", "--shift",
                    "--out", "part.json"]) == 0
        blobs = {f.name: f.read_bytes() for f in a.iterdir()}
        (a / "prob.json").unlink()
        (a / "part.json").unlink()
        monkeypatch.chdir(b)
        assert run(["rerun", "../a/prob.manifest.json"]) == 0
        assert run(["rerun", "../a/part.manifest.json"]) == 0
        assert {f.name: f.read_bytes() for f in a.iterdir()} == blobs
        assert list(b.iterdir()) == []

    @pytest.mark.parametrize("blob", [b"{}", b"[1]", b'{"argv": "gen"}', b'{"argv": ["gen", 1]}',
                                      b"not json", b"\xff\xfe"], ids=repr)
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, blob):
        manifest = tmp_path / "bad.manifest.json"
        manifest.write_bytes(blob)
        assert run(["rerun", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("polarlasso: malformed manifest") and "Traceback" not in err

    @pytest.mark.parametrize("names_itself", [True, False])
    def test_manifest_replaying_a_rerun_exits_2(self, tmp_path, capsys, names_itself):
        manifest = tmp_path / "loop.manifest.json"
        other = tmp_path / "other.manifest.json"
        other.write_text(json.dumps({"argv": ["curves", "--out", str(tmp_path / "c.csv")]}))
        target = manifest if names_itself else other
        manifest.write_text(json.dumps({"argv": ["rerun", str(target)]}))
        assert run(["rerun", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("polarlasso: malformed manifest") and "Traceback" not in err
        assert not (tmp_path / "c.csv").exists()


def _run_isolated(argv):
    """The exit code of one command run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC_ROOT}
    return subprocess.run([sys.executable, "-m", "polarlasso.cli", *argv], env=env,
                          capture_output=True, timeout=120).returncode


def _run_here(argv):
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


class TestParserReuse:
    """`main` builds one parser per process and looks the command up by name."""

    def _sequence(self, runner, problem, out):
        """Exit codes of a fixed run of commands writing to `out`, and the
        bytes of every file they wrote, by name."""
        codes = [runner(argv) for argv in (
            ["partition", "--problem", problem, "--n-samples", "2000", "--seed", "5", "--shift",
             "--out", f"{out}/z1.json"],
            ["partition", "--problem", problem, "--n-samples", "2000", "--out", f"{out}/z2.json"],
            ["diagnose", "--problem", problem, "--iters", "2000", "--seed", "3",
             "--emit-series", f"{out}/s.csv", "--out", f"{out}/d1.json"],
            ["diagnose", "--problem", problem, "--iters", "2000", "--out", f"{out}/d2.json"],
            ["partition", "--problem", problem, "--seed", "-1", "--shift", "--out", f"{out}/bad.json"],
        )]
        os.remove(f"{out}/z1.json")
        codes.append(runner(["rerun", f"{out}/z1.manifest.json"]))
        return codes, {name: Path(out, name).read_bytes() for name in sorted(os.listdir(out))}

    def test_one_process_matches_separate_processes(self, tmp_path):
        problem = str(tmp_path / "desk.json")
        assert run(["gen", "--y-norm", "2", "--seed", "1", "--out", problem]) == 0
        out = tmp_path / "out"
        out.mkdir()
        here = self._sequence(_run_here, problem, str(out))
        for name in os.listdir(out):
            os.remove(out / name)
        assert here == self._sequence(_run_isolated, problem, str(out))
        codes, files = here
        assert codes == [0, 0, 0, 0, 2, 0]
        assert sorted(files) == ["d1.json", "d1.manifest.json", "d2.json", "d2.manifest.json",
                                 "s.csv", "z1.json", "z1.manifest.json", "z2.json", "z2.manifest.json"]
        # the options a call set do not carry over to the next call of that command
        z2 = json.loads(files["z2.manifest.json"])["config"]
        assert z2["seed"] == 0 and z2["shift"] is False
        d2 = json.loads(files["d2.manifest.json"])
        assert d2["config"]["emit_series"] is None and d2["outputs"] == [str(out / "d2.json")]

    def test_no_parser_built_after_the_first_call(self, tmp_path, monkeypatch):
        out = str(tmp_path / "c.csv")
        assert run(["curves", "--steps", "3", "--out", out]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(["curves", "--steps", "3", "--out", out]) == 0
        with pytest.raises(SystemExit):
            run(["curves", "--steps", "0", "--out", out])
        assert run(["rerun", out.replace(".csv", ".manifest.json")]) == 0
        assert built == []
        cli._build_parser.__wrapped__()  # an uncached build is counted
        assert built

    def test_dispatches_the_current_command_function(self, tmp_path, monkeypatch):
        # a wrapper bound after the parser was built (as a tracer binds one)
        # is the function that runs
        argv = ["curves", "--steps", "3", "--out", str(tmp_path / "c.csv")]
        assert run(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_curves", lambda args: seen.append(args.steps) or 7)
        assert run(argv) == 7 and seen == [3]
        monkeypatch.undo()
        assert run(argv) == 0 and seen == [3]

    def test_import_builds_no_parser(self):
        # start-up pays for neither the parser nor the thread pool module;
        # the first main call builds the parser
        code = (
            "import argparse, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import polarlasso.cli\n"
            "print(len(built), 'concurrent.futures' in sys.modules)\n"
            "polarlasso.cli._build_parser()\n"
            "print(len(built) > 0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC_ROOT},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0 False", "True"]
