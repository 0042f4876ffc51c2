"""Command-line surface: instance generation, mode solving, partition
estimation, offset-curve emission, chain diagnosis, and reference tables.

Every command takes --seed where randomness is involved, writes its outputs
with full round-trip float formatting (UTF-8, LF), and drops a run manifest
next to them; `rerun MANIFEST` replays a manifest byte-identically.

Exit codes: 0 success, 2 argument errors, 3 numeric validation failures,
4 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__
from . import lasso, mcmc, partition, problem, radial

EXIT_NUMERIC = 3
EXIT_IO = 4
# directions of the recentered (--shift) partition route
SHIFT_DIRECTIONS = 2048
# rows of the --emit-series CSV formatted per write
SERIES_ROWS = 8192


def _fmt(x) -> str:
    """Shortest round-trip decimal form."""
    return repr(float(x))


def _write_chunks(path: str, chunks) -> None:
    """Write each string of the iterable `chunks` as soon as it is produced;
    an OSError reaches main, which exits EXIT_IO."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _write_text(path: str, text: str) -> None:
    _write_chunks(path, (text,))


def _series_chunks(trace: mcmc.ChainTrace):
    """The --emit-series CSV, SERIES_ROWS rows per string; each float is
    written as repr of its Python float, as _fmt does.

    A chain holds its state for several rows, and rows of one state differ
    only in t, so the rest of a row is formatted once per run of bitwise
    equal (norm_x, q_times_r_theta) and reused for every row of the run.
    """
    yield "t,norm_x,q_times_r_theta,criterion\n"
    n = len(trace.norm_x)
    for s in range(0, n, SERIES_ROWS):
        rows = slice(s, s + SERIES_ROWS)
        norm, qr, crit = trace.norm_x[rows], trace.q_r_theta[rows], trace.criterion[rows]
        # a run starts at the chunk's first row and wherever either float's bits change
        nb, qb = norm.view(np.int64), qr.view(np.int64)
        starts = np.flatnonzero(np.concatenate(([True], (nb[1:] != nb[:-1]) | (qb[1:] != qb[:-1]))))
        ends = np.append(starts[1:], len(norm)).tolist()
        ts = list(map(str, range(s, s + len(norm))))
        parts = []
        for a, b, x, r, c in zip(starts.tolist(), ends, norm[starts].tolist(),
                                 qr[starts].tolist(), crit[starts].tolist()):
            tail = f",{x!r},{r!r},{c:d}\n"
            # rows a .. b-1 of the chunk: the tail joins their t's and ends the last one
            parts.append(tail.join(ts[a:b]))
            parts.append(tail)
        yield "".join(parts)


def _write_json(path: str, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(command: str, args: argparse.Namespace, outputs: list[str]) -> None:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func",)}
    manifest = {
        "command": command,
        "config": cfg,
        "seed": cfg.get("seed"),
        "outputs": [os.path.abspath(o) for o in outputs],
        "argv": [command] + _args_to_argv(cfg),
        "versions": {"polarlasso": __version__, "python": platform.python_version(),
                     "numpy": np.__version__},
    }
    _write_json(os.path.splitext(outputs[0])[0] + ".manifest.json", manifest)


def _args_to_argv(cfg: dict) -> list[str]:
    argv: list[str] = []
    for key, value in sorted(cfg.items()):
        if value is None or key == "command":
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return argv


def _checked(kind, ok, rule: str):
    """argparse type: a `kind` number for which ok(value) holds, else an
    argument error (exit 2) saying it must be `rule`."""
    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    convert.__name__ = kind.__name__  # a malformed number reads "invalid int value"
    return convert


def _positive(kind):
    """argparse type: a `kind` number > 0 (nan is not)."""
    return _checked(kind, lambda v: v > 0, "positive")


def _load_problem_or_exit(path: str) -> problem.ProblemInstance:
    try:
        return problem.load_problem(path)
    except FileNotFoundError:
        print(f"polarlasso: problem file not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except ValueError as exc:
        print(f"polarlasso: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _observation(n: int, norm: float, seed: int) -> np.ndarray:
    """The seeded observation of an instance: n standard normals from
    default_rng(seed + 1), scaled to the given norm."""
    raw = np.random.default_rng(seed + 1).standard_normal(n)
    return raw * (norm / np.linalg.norm(raw))


def cmd_gen(args: argparse.Namespace) -> int:
    if args.p < args.n:
        print("polarlasso: need --p >= --n", file=sys.stderr)
        return 2
    y = _observation(args.n, args.y_norm, args.seed) if args.y_norm > 0.0 else None
    prob = problem.gen_bernoulli_matrix(args.n, args.p, args.seed, y)
    problem.save_problem(prob, args.out, seed=args.seed)
    _write_manifest("gen", args, [args.out])
    print(f"wrote {args.out}: n={prob.n} p={prob.p} ||A||={prob.op_norm:.6f}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    prob = _load_problem_or_exit(args.problem)
    sols = []
    if args.method in ("fista", "both"):
        sols.append(lasso.solve_fista(prob, args.max_iter, args.tol))
    if args.method in ("polar", "both"):
        sols.append(lasso.solve_polar(prob, args.n_samples, args.seed))
    out: dict = {"problem": os.path.abspath(args.problem)}
    for sol in sols:
        out[sol.method] = {"x": [float(v) for v in sol.x], "objective": sol.objective, "meta": sol.meta}
    _write_json(args.out, out)
    _write_manifest("solve", args, [args.out])
    print(f"wrote {args.out}")
    if "fista" in out and not out["fista"]["meta"]["converged"]:
        print(f"polarlasso: FISTA did not reach --tol {args.tol!r} in {args.max_iter} iterations",
              file=sys.stderr)
        return EXIT_NUMERIC
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    prob = _load_problem_or_exit(args.problem)
    out: dict = {}
    failed = False
    if args.method in ("polar", "both"):
        est = partition.estimate_z_polar(prob, args.n_samples, args.seed)
        out["polar"] = vars(est)
        failed = not est.z_min <= est.z <= est.z_max
    if args.method in ("naive", "both"):
        est = partition.estimate_z_naive(prob, args.n_samples, args.seed)
        out["naive"] = vars(est)
    if args.method != "both":
        # single-method runs use the flat schema directly
        out = {**out[args.method]}
    if args.shift:
        l = lasso.solve_fista(prob).x
        est = partition.estimate_z_shifted(prob, l, SHIFT_DIRECTIONS, args.seed + 7)
        out["shift"] = {"z_f": est.z_f, "h0": est.h0, "z_from_shift": est.z,
                        "std_err": est.std_err, "z_min": est.z_min, "z_max": est.z_max,
                        "l": [float(v) for v in l], "n_samples": est.n_samples}
        failed |= not est.z_min <= est.z <= est.z_max
    _write_json(args.out, out)
    _write_manifest("partition", args, [args.out])
    print(f"wrote {args.out}")
    return EXIT_NUMERIC if failed else 0


def cmd_curves(args: argparse.Namespace) -> int:
    if not args.beta_min < args.beta_max:
        print("polarlasso: need --beta-min < --beta-max", file=sys.stderr)
        return 2
    p = args.p
    try:
        radial.mass_expansion(1.0, 0.0, 0.0, p, args.m_terms)
    except ValueError as exc:
        print(f"polarlasso: --m-terms {args.m_terms} at --p {p}: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # its coefficients leave the float range from p ~ 172 on
        print(f"polarlasso: no expansion at --p {p}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    grid = np.linspace(args.beta_min, args.beta_max, args.steps)
    lines = ["beta,phi_beta,phi_beta_M,remainder_bound,mode_times_l1,phi_beta_trusted"]
    for b in grid.tolist():
        phi = radial.mass_closed_form(b, 0.0, 0.0, p) if b >= 0 else math.nan
        phi_m = rem = math.nan
        if b > 0:
            exp_res = radial.mass_expansion(b, 0.0, 0.0, p, args.m_terms)
            phi_m, rem = exp_res.value, exp_res.remainder_bound
        mode_l1 = radial.mode_radius_times_l1(b, p)
        trusted = 1 if b <= 13.8 else 0
        lines.append(
            f"{_fmt(b)},{_fmt(phi)},{_fmt(phi_m)},{_fmt(rem)},{_fmt(mode_l1)},{trusted}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    _write_manifest("curves", args, [args.out])
    print(f"wrote {args.out} ({args.steps} rows)")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    prob = _load_problem_or_exit(args.problem)
    kind = mcmc.KIND_INDEPENDENT if args.sampler == "is" else mcmc.KIND_RANDOM_WALK
    cfg = mcmc.ChainConfig(kind=kind, n_iter=args.iters, rw_variance=args.rw_var,
                           q=args.q, seed=args.seed)
    tv_constant = None
    if args.sampler == "is":
        # the independence sampler's total-variation rate 1 - Z/2^p
        z = partition.estimate_z_polar(prob, args.z_samples, args.seed + 13).z
        try:
            tv_constant = mcmc.tv_bound(1, z, prob.p)
        except ValueError as exc:
            print(f"polarlasso: no ergodicity constant from Z = {z!r}: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
    trace, diag = mcmc.run_chain(prob, cfg)
    outputs = [args.out]
    if args.emit_series:
        _write_chunks(args.emit_series, _series_chunks(trace))
        outputs.append(args.emit_series)
    summary = {
        "sampler": args.sampler,
        "iters": args.iters,
        "q": args.q,
        "first_hit": diag.first_hit,
        "last_violation": diag.last_violation,
        "permanent_hit": diag.permanent_hit,
        "satisfaction_rate": diag.satisfaction_rate,
        "mean": [float(v) for v in diag.running_mean],
        "mean_norm": diag.mean_norm,
        "acceptance_rate": diag.acceptance_rate,
        "tv_constant": tv_constant,
        "meta": diag.meta,
    }
    _write_json(args.out, summary)
    _write_manifest("diagnose", args, outputs)
    print(f"wrote {args.out}")
    if diag.acceptance_rate == 0.0:
        # every state is the initial one, so the criterion says nothing of convergence
        print(f"polarlasso: acceptance_rate 0.0: the chain accepted none of {args.iters} proposals",
              file=sys.stderr)
        return EXIT_NUMERIC
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = []

    # concentration bound P(q, p): exact formula, 4 decimals
    t2 = os.path.join(args.out_dir, "table2.csv")
    rows = ["q,P"]
    for q in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0):
        rows.append(f"{q:g},{partition.concentration_prob(q, 7):.4f}")
    _write_text(t2, "\n".join(rows) + "\n")
    outputs.append(t2)

    # mode comparison on a fresh seeded instance with a nonzero observation
    prob = problem.gen_bernoulli_matrix(4, 7, args.seed, _observation(4, 2.0, args.seed))
    fista = lasso.solve_fista(prob)
    polar = lasso.solve_polar(prob, args.n_samples, args.seed + 2)
    t1 = os.path.join(args.out_dir, "table1.csv")
    hdr = "method," + ",".join(f"x{i}" for i in range(1, 8)) + ",objective"
    rows = [hdr,
            "fista," + ",".join(_fmt(v) for v in fista.x) + f",{_fmt(fista.objective)}",
            "polar," + ",".join(_fmt(v) for v in polar.x) + f",{_fmt(polar.objective)}"]
    _write_text(t1, "\n".join(rows) + "\n")
    outputs.append(t1)

    # mean estimators from both samplers on the y = 0 instance
    prob0 = problem.gen_bernoulli_matrix(4, 7, args.seed)
    t3 = os.path.join(args.out_dir, "table3.csv")
    rows = ["sampler," + ",".join(f"x{i}" for i in range(1, 8)) + ",mean_norm"]
    for name, kind in (("is", mcmc.KIND_INDEPENDENT), ("rw", mcmc.KIND_RANDOM_WALK)):
        cfg = mcmc.ChainConfig(kind=kind, n_iter=args.iters, seed=args.seed + 3)
        _, diag = mcmc.run_chain(prob0, cfg)
        rows.append(f"{name}," + ",".join(_fmt(v) for v in diag.running_mean)
                    + f",{_fmt(diag.mean_norm)}")
    _write_text(t3, "\n".join(rows) + "\n")
    outputs.append(t3)

    _write_manifest("tables", args, outputs)
    print(f"wrote {', '.join(outputs)}")
    return 0


def cmd_rerun(args: argparse.Namespace) -> int:
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        print(f"polarlasso: cannot read {args.manifest}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # not JSON, or not UTF-8
        print(f"polarlasso: malformed manifest: {exc}", file=sys.stderr)
        return 2
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        print("polarlasso: malformed manifest: need an object whose argv is a list of strings",
              file=sys.stderr)
        return 2
    if argv[:1] == ["rerun"]:  # a manifest that names itself would recurse without end
        print("polarlasso: malformed manifest: its argv is itself a rerun", file=sys.stderr)
        return 2
    return main(argv)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="polarlasso",
                                 description="Polar geometry of the l1-penalized Gaussian posterior")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a Bernoulli design instance")
    g.add_argument("--n", type=_positive(int), default=4)
    g.add_argument("--p", type=_positive(int), default=7)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--y-norm", default=0.0,
                   type=_checked(float, lambda v: 0.0 <= v < math.inf, "non-negative and finite"),
                   help="norm of a seeded random observation (0 means y = 0)")
    g.add_argument("--out", default="problem.json")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="compute the l1-penalized mode")
    s.add_argument("--problem", required=True)
    s.add_argument("--method", choices=("polar", "fista", "both"), default="both")
    s.add_argument("--n-samples", type=_positive(int), default=100000)
    s.add_argument("--max-iter", type=_positive(int), default=lasso.FISTA_MAX_ITER)
    s.add_argument("--tol", type=_positive(float), default=lasso.FISTA_TOL)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="solution.json")
    s.set_defaults(func=cmd_solve)

    z = sub.add_parser("partition", help="estimate the partition function")
    z.add_argument("--problem", required=True)
    z.add_argument("--method", choices=("polar", "naive", "both"), default="polar")
    z.add_argument("--n-samples", type=_positive(int), default=100000)
    z.add_argument("--seed", type=int, default=0)
    z.add_argument("--shift", action="store_true",
                   help="also estimate through the recentered density")
    z.add_argument("--out", default="partition.json")
    z.set_defaults(func=cmd_partition)

    c = sub.add_parser("curves", help="offset curves: closed form, expansion, mode scale")
    finite = _checked(float, math.isfinite, "finite")
    c.add_argument("--beta-min", type=finite, default=6.0)
    c.add_argument("--beta-max", type=finite, default=45.0)
    c.add_argument("--steps", type=_positive(int), default=500)
    c.add_argument("--p", type=_positive(int), default=7)
    c.add_argument("--m-terms", type=int, default=radial.EXPANSION_TERMS)
    c.add_argument("--out", default="curves.csv")
    c.set_defaults(func=cmd_curves)

    d = sub.add_parser("diagnose", help="run a chain and its convergence diagnosis")
    d.add_argument("--problem", required=True)
    d.add_argument("--sampler", choices=("is", "rw"), default="rw")
    d.add_argument("--iters", type=_positive(int), default=1000000)
    d.add_argument("--q", type=_positive(float), default=mcmc.ChainConfig.q)
    d.add_argument("--rw-var", type=_positive(float), default=mcmc.ChainConfig.rw_variance)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--z-samples", type=_positive(int), default=20000,
                   help="sweep size for the ergodicity constant (is sampler)")
    d.add_argument("--emit-series", default=None, metavar="FILE")
    d.add_argument("--out", default="diagnosis.json")
    d.set_defaults(func=cmd_diagnose)

    t = sub.add_parser("tables", help="write the reference tables")
    t.add_argument("--out-dir", default="tables")
    t.add_argument("--seed", type=int, default=1)
    t.add_argument("--n-samples", type=_positive(int), default=100000)
    t.add_argument("--iters", type=_positive(int), default=1000000)
    t.set_defaults(func=cmd_tables)

    r = sub.add_parser("rerun", help="replay a run manifest byte-identically")
    r.add_argument("manifest")
    r.set_defaults(func=cmd_rerun)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"polarlasso: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
