"""The benchmark harness runs this tree: traced chains and desk-z runs exit 0
and every operation passes its check.

`perfbench/run.py` catches whatever an operation raises, so exit 1 means
that the runner itself failed.  A change to the package can cause that in
two ways: renaming or removing a module named in `tracing.LAYERS`, which
the tracer imports, or a public function whose span closes outside an
operation, whose time is then booked to no operation, so the layer table
raises KeyError.  Chains is the workload whose set-up builds a polarlasso
object (`mcmc.ChainConfig`) while the tracer is installed; desk-z runs all
three Z routes under it.  Each run takes a few seconds and writes only the
git-ignored `.perfbench-out/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["chains", "desk-z"])
def test_traced_run_exits_0_and_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
