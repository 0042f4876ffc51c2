#!/usr/bin/env python3
"""polarlasso benchmark.

    python3 perfbench/run.py --workload {desk-z,wide-z,chains} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The program is imported from
./src; nothing needs building.  One client runs the workload's operations in
one process as a closed loop: whole cycles through the operation mix, one
operation at a time, until S seconds have passed.  Every output is checked
(see workloads.py).  A failed operation contributes no time, so a defect
that fails fast and is later fixed shows up as a higher `ok_frac`, never as
a slowdown.

Machine speed: on the shared 2-vCPU host this benchmark was defined on,
the speed of the same code switches between two levels about 1.6x apart,
for seconds to minutes at a time, so raw wall times of identical runs spread
by 30%.  Each operation is therefore bracketed by timings of a fixed
reference computation that shares no code with polarlasso
(workloads.SpeedReference), and its wall time is rescaled to the speed at
which that reference takes REF_NOMINAL_S: t * REF_NOMINAL_S / ref.  The
gated times below are these rescaled seconds; raw wall times are in the run
record.

--trace 0 prints the end-to-end metrics:
  setup_s      median over SETUP_REPS fresh interpreters of the time to
               import numpy, scipy and polarlasso.cli and load the instance
  peak_rss_mb  peak resident memory of this process
  ok_frac      operations that passed their checks / operations attempted
  ops.gmean_s  geometric mean, over the operations that passed at the commit
               the benchmark was defined on, of each one's median time

--trace 1 alternates traced and untraced cycles and prints per-layer
metrics, each per traced cycle (see layer_metrics), the share of operation
time spent in each layer, and the tracing overhead (traced over untraced
median operation time, minus one).

The last stdout line is the JSON result.  A readable summary goes to stderr,
and a full record (versions, per-operation timings and failures, the
metrics named in the benchmark's design, spans) to
.perfbench-out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# BLAS threads: one, below nproc, so that timings do not depend on how busy
# the other core is; the matrices here are at most 8192 x 20
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

SETUP_REPS = 7
OP_BUDGET_S = 30.0
MIN_CYCLES = 2
# the speed gated times are rescaled to: workloads.SpeedReference takes
# this long, near the slower of the two speed levels of the host the
# benchmark was defined on (see "Machine speed" above)
REF_NOMINAL_S = 0.015

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import numpy, scipy, polarlasso.cli; from polarlasso import problem; "
    "problem.load_problem(sys.argv[2]); print(polarlasso.__file__)"
)


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded(f"operation exceeded {OP_BUDGET_S:g} s")


def _median(xs):
    return statistics.median(xs) if xs else None


def _quartiles(xs):
    if len(xs) < 2:
        return None
    q = statistics.quantiles(xs, n=4)
    return [q[0], q[2]]


def _gmean(xs):
    return math.exp(math.fsum(math.log(x) for x in xs) / len(xs)) if xs else None


def measure_setup(problem_path: str, speed) -> list[tuple[float, float]]:
    """(wall s, speed reference s around it) for SETUP_REPS fresh interpreters."""
    samples = []
    before = speed.time_once()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), problem_path],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.strip().startswith(str(SRC)):
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-400:]}")
        after = speed.time_once()
        samples.append((elapsed, 0.5 * (before + after)))
        before = after
    return samples


def run_one(op, ctx, k: int, tracer) -> dict:
    """Run and check the k-th operation; the time covers the program call only."""
    outcome = {"op": op.name, "k": k, "traced": tracer is not None, "ok": False,
               "s": None, "error": None}
    out_dir = Path(ctx.out_dir(k))
    try:
        call = op.prepare(ctx, k)
        err = io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                result = tracer.run_op(op.name, call) if tracer else call()
                elapsed = time.perf_counter() - t0
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - the loop must go on
            outcome["error"] = type(exc).__name__
            outcome["message"] = (str(exc) or err.getvalue()).strip()[-300:]
            outcome["traceback"] = traceback.format_exc(limit=-3)
            return outcome
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcome["bytes_written"] = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
        try:
            outcome["info"] = op.check(ctx, k, result)
        except Exception as exc:  # noqa: BLE001 - a malformed output fails its check too
            outcome["error"] = "CheckFailed"
            outcome["message"] = f"{type(exc).__name__}: {exc}"[-300:]
            return outcome
        outcome["ok"] = True
        outcome["s"] = elapsed
        return outcome
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


# --- per-layer metrics ----------------------------------------------------------

def _hook_sweep(c, args, result, parent):
    c["directions_swept"] += args[1].shape[0]


def _hook_radial_summary(c, args, result, parent):
    if result.method == "quadrature_fallback":
        c["radial_fallbacks"] += 1


def _hook_sample_laplace(c, args, result, parent):
    if parent == "shifted.sample_posterior":
        c["exact_proposals"] += result.shape[0]


def _hook_run_chain(c, args, result, parent):
    cfg = args[1]
    c["chain_iters"] += cfg.n_iter
    c["chain_accepted"] += round(result[1].acceptance_rate * cfg.n_iter)


def _hook_build_shift_context(c, args, result, parent):
    if parent == "mcmc.run_chain":
        c["chain_shift_contexts"] += 1


def _hook_fista(c, args, result, parent):
    c["fista_iterations"] += result.meta["iterations"]


def _hook_solve_polar(c, args, result, parent):
    c["polar_sweep_directions"] += result.meta["n_samples"]
    c["polar_negative"] += result.meta["n_negative"]


HOOKS = {
    "radial.sweep_summaries": _hook_sweep,
    "radial.radial_summary": _hook_radial_summary,
    "problem.sample_laplace": _hook_sample_laplace,
    "mcmc.run_chain": _hook_run_chain,
    "shifted.build_shift_context": _hook_build_shift_context,
    "lasso.solve_fista": _hook_fista,
    "lasso.solve_polar": _hook_solve_polar,
}

LAYER_NAMES = ("problem", "moments", "radial", "partition", "lasso", "shifted", "mcmc", "cli", "bench")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, traced_cycles: int, overhead: float) -> dict:
    """Per-layer metrics as (value, unit), counts and times per traced cycle.
    A layer that does no work in this workload reports 0, ratios included."""
    c = tracer.counters

    def stat(name):  # (calls, inclusive s, self s), summed over the run
        return tracer.stats.get(name, (0, 0.0, 0.0))

    def calls(name):
        return stat(name)[0] / traced_cycles, "count/cycle"

    def incl(name):
        return stat(name)[1] / traced_cycles, "s/cycle"

    def own(*names):
        return sum(stat(n)[2] for n in names) / traced_cycles, "s/cycle"

    def per_cycle(counter, unit="count/cycle"):
        return c[counter] / traced_cycles, unit

    layer_total = dict.fromkeys(LAYER_NAMES, 0.0)
    for (_, layer), s in tracer.layer_self.items():
        layer_total[layer] += s
    op_time = sum(layer_total.values())
    m = {
        "radial.sweep_summaries.self_s": own("radial.sweep_summaries"),
        "radial.scalar_frac": (_ratio(stat("radial.radial_summary")[0], c["directions_swept"]), "1"),
        "radial.fallback.calls": per_cycle("radial_fallbacks"),
        "moments.gaussian_moment_ladder.calls": calls("moments.gaussian_moment_ladder"),
        "moments.gaussian_moment_ladder.self_s": own("moments.gaussian_moment_ladder"),
        "moments.segment_moment_log.calls": calls("moments.segment_moment_log"),
        "moments.segment_moment_log.self_s": own("moments.segment_moment_log"),
        # with the log-domain core it wraps, which does the work
        "shifted.shifted_radial_mass.self_s": own("shifted.shifted_radial_mass",
                                                  "shifted.shifted_radial_mass_log"),
        "shifted.build_shift_context.calls": calls("shifted.build_shift_context"),
        "shifted.build_shift_context.self_s": own("shifted.build_shift_context"),
        "shifted.shifted_mode_radius.self_s": own("shifted.shifted_mode_radius"),
        "exact.accept_ratio": (_ratio(stat("shifted.sample_posterior")[0], c["exact_proposals"]), "1"),
        "mcmc.run_chain.self_s": own("mcmc.run_chain"),
        "mcmc.iters": per_cycle("chain_iters"),
        "mcmc.accept_rate": (_ratio(c["chain_accepted"], c["chain_iters"]), "1"),
        "mcmc.shift_ctx_per_iter": (_ratio(c["chain_shift_contexts"], c["chain_iters"]), "1"),
        "lasso.solve_fista.s": incl("lasso.solve_fista"),
        "lasso.fista.iterations": per_cycle("fista_iterations"),
        "lasso.solve_polar.s": incl("lasso.solve_polar"),
        "lasso.polar.neg_frac": (_ratio(c["polar_negative"], c["polar_sweep_directions"]), "1"),
        "partition.estimate_z_naive.s": incl("partition.estimate_z_naive"),
        "problem.sample_sphere_batch.self_s": own("problem.sample_sphere_batch"),
        "problem.direction_stats.calls": calls("problem.direction_stats"),
        "cli.self_s": (layer_total["cli"] / traced_cycles, "s/cycle"),
        "cli.bytes_written": per_cycle("cli_bytes", "B/cycle"),
        "trace.overhead_frac": (overhead, "1"),
    }
    for layer in LAYER_NAMES:
        m[f"layer.{layer}.share"] = (_ratio(layer_total[layer], op_time), "1")
    return m


def layer_table(tracer, op_names) -> dict:
    """Share of each operation's traced time spent in each layer (self time)."""
    per_op = {op: {layer: 0.0 for layer in LAYER_NAMES} for op in op_names}
    for (op, layer), s in tracer.layer_self.items():
        per_op[op][layer] += s
    table = {}
    for op, row in per_op.items():
        total = sum(row.values())
        table[op] = {layer: _ratio(s, total) for layer, s in row.items()}
        table[op]["total_s"] = total
    return table


# --- the run -----------------------------------------------------------------------

def src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "polarlasso").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("desk-z", "wide-z", "chains"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "polarlasso" / "__init__.py").is_file():
        print(f"perfbench: no polarlasso sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import polarlasso
    if not Path(polarlasso.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported polarlasso from {polarlasso.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        wl, ctx = workloads.build(args.workload, args.seed, workdir)
        speed = workloads.SpeedReference()
        setup_samples = measure_setup(ctx.problem_path, speed)

        tracer = tracing.Tracer(HOOKS) if args.trace else None
        outcomes = []
        ref_before = speed.time_once()
        cycle = 0
        deadline = time.perf_counter() + args.seconds
        while cycle < MIN_CYCLES * (2 if tracer else 1) or time.perf_counter() < deadline:
            traced = tracer is not None and cycle % 2 == 0
            if traced:
                tracer.install()
            elif tracer is not None:
                tracer.uninstall()
            for op in wl.ops:
                for _ in range(op.reps):
                    out = run_one(op, ctx, len(outcomes), tracer if traced else None)
                    if traced:
                        # only CLI operations write files
                        tracer.counters["cli_bytes"] += out.get("bytes_written", 0)
                    ref_after = speed.time_once()
                    out["ref_s"] = 0.5 * (ref_before + ref_after)
                    ref_before = ref_after
                    outcomes.append(out)
            cycle += 1
        if tracer is not None:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # --- summaries ---
    per_op = {}
    for op in wl.ops:
        mine = [o for o in outcomes if o["op"] == op.name]
        plain = [o["s"] for o in mine if o["ok"] and not o["traced"]]
        scaled = [o["s"] * REF_NOMINAL_S / o["ref_s"] for o in mine if o["ok"] and not o["traced"]]
        traced_scaled = [o["s"] * REF_NOMINAL_S / o["ref_s"] for o in mine if o["ok"] and o["traced"]]
        errors: dict = {}
        for o in mine:
            if o["error"]:
                e = errors.setdefault(o["error"], {"count": 0, "message": o["message"],
                                                   "traceback": o.get("traceback")})
                e["count"] += 1
        per_op[op.name] = {
            "attempted": len(mine), "passed": sum(o["ok"] for o in mine),
            "median_s": _median(plain), "quartiles_s": _quartiles(plain), "n_timed": len(plain),
            "scaled_median_s": _median(scaled), "traced_scaled_median_s": _median(traced_scaled),
            "errors": errors, "known_failures": list(op.known_failures),
            "info": [o.get("info") for o in mine if o["ok"]],
        }
    attempted = len(outcomes)
    failed = sum(not o["ok"] for o in outcomes)
    known = {op.name: op.known_failures for op in wl.ops}
    unexpected = sorted({f"{o['op']}:{o['error']}" for o in outcomes
                         if o["error"] and o["error"] not in known[o["op"]]})
    correct = not unexpected

    gated = [per_op[op.name] for op in wl.ops if not op.known_failures]
    gated_scaled = [o["scaled_median_s"] for o in gated if o["scaled_median_s"]]
    setup_scaled = [s * REF_NOMINAL_S / ref for s, ref in setup_samples]
    design_metrics = named_metrics(ctx, per_op)

    if args.trace:
        ratios = [o["traced_scaled_median_s"] / o["scaled_median_s"] for o in gated
                  if o["scaled_median_s"] and o["traced_scaled_median_s"]]
        overhead = _gmean(ratios) - 1.0 if ratios else 0.0
        traced_cycles = (cycle + 1) // 2
        metrics = layer_metrics(tracer, traced_cycles, overhead)
        table = layer_table(tracer, [op.name for op in wl.ops])
    else:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "1"),
        }
        if gated_scaled:
            metrics["ops.gmean_s"] = (_gmean(gated_scaled), "s")
        table = None

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycle, "sizes": ctx.sizes,
        "instance": {"n": wl.n, "p": wl.p, "y_norm": wl.y_norm},
        "reference": {"z": ctx.ref_z, "std_err": ctx.ref_se, "samples": workloads.REF_SAMPLES},
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "polarlasso": polarlasso.__version__},
        "nproc": os.cpu_count(), "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "known_failures": {op.name: op.known_failures for op in wl.ops if op.known_failures},
        "unexpected_errors": unexpected,
        "setup_samples": [{"s": s, "ref_s": ref} for s, ref in setup_samples],
        "peak_rss_mb": peak_rss_mb,
        "speed_reference_s": {"nominal": REF_NOMINAL_S,
                              "median": statistics.median(o["ref_s"] for o in outcomes)},
        "unscaled": {"setup_s": statistics.median(s for s, _ in setup_samples),
                     "ops.gmean_s": _gmean([o["median_s"] for o in gated if o["median_s"]])},
        "operations": per_op, "design_metrics": design_metrics,
        "layer_table": table, "result": result,
        "spans": [list(s) for s in tracer.spans] if tracer else None,
    }
    path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=float) + "\n", encoding="utf-8")
    print_summary(record, sys.stderr)
    print(json.dumps(result))
    return 0


def named_metrics(ctx, per_op) -> dict:
    """The per-operation figures of the benchmark's design, for the operations
    this workload runs; None where every operation of that kind failed
    (missing, not 0 or infinity)."""
    def med(op):
        return per_op[op]["median_s"]

    def to_1pct(op):
        if not med(op):
            return None
        rel = statistics.median(i["std_err"] / i["z"] for i in per_op[op]["info"])
        return med(op) * (rel / 0.01) ** 2

    def rate(op, size_key):
        return ctx.sizes[size_key] / med(op) if med(op) else None

    design = {
        "partition_polar.s": ("partition_polar", med), "partition_shift.s": ("partition_shift", med),
        "solve.s": ("solve", med), "diagnose_rw.s": ("diagnose_rw", med),
        "diagnose_is.s": ("diagnose_is", med), "tables.s": ("tables", med),
        "z_polar.s_to_1pct": ("partition_polar", to_1pct),
        "z_naive.s_to_1pct": ("partition_naive", to_1pct),
        "chain_shift.iters_per_s": ("chain_shift", lambda op: rate(op, "chain_iters")),
        "exact.draws_per_s": ("exact", lambda op: rate(op, "exact_draws")),
    }
    return {name: fn(op) for name, (op, fn) in design.items() if op in per_op}


def _cell(v, width: int = 10) -> str:
    return f"{v:{width}.4f}" if v is not None else f"{'-':>{width}}"


def print_summary(record: dict, fh) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['cycles']} cycles, setup median {record['unscaled']['setup_s']:.4f} s",
          file=fh)
    print(f"{'operation':<18}{'ok/att':>9}{'median_s':>10}{'q1_s':>10}{'q3_s':>10}  errors", file=fh)
    for name, o in record["operations"].items():
        q1, q3 = o["quartiles_s"] or (None, None)
        errs = ", ".join(f"{k} x{v['count']}" for k, v in o["errors"].items())
        print(f"{name:<18}{o['passed']:>4}/{o['attempted']:<4}{_cell(o['median_s'])}{_cell(q1)}{_cell(q3)}"
              f"  {errs}", file=fh)
    for k, v in record["design_metrics"].items():
        print(f"  {k:<28} {'missing' if v is None else f'{v:.6g}'}", file=fh)
    if record["layer_table"]:
        print("layer share of traced operation time (self time):", file=fh)
        print(f"{'operation':<18}" + "".join(f"{l[:8]:>9}" for l in LAYER_NAMES) + f"{'total_s':>9}",
              file=fh)
        for op, row in record["layer_table"].items():
            print(f"{op:<18}" + "".join(f"{row[l]:9.3f}" for l in LAYER_NAMES)
                  + f"{row['total_s']:9.3f}", file=fh)


if __name__ == "__main__":
    sys.exit(main())
