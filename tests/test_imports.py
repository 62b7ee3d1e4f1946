"""Import budget: the CLI and its numerics load scipy.special and nothing heavier."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys

import hscm.cli
from hscm import DegreeLaw, derive_params, gibbs_entropy_bounds
from hscm.scm import solve_scm

p = derive_params(2.0, 10.0, 1000)
gibbs_entropy_bounds(p)
DegreeLaw(p).pmf_array(100)
solve_scm([1.0, 1.5, 2.0, 2.0, 2.5, 3.0])
print(" ".join(m for m in ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")
               if m in sys.modules))
"""


def test_cli_and_numerics_leave_heavy_scipy_unloaded():
    # these packages cost ~0.3 s of CPU at start-up; loading them on first
    # use would only move that cost into the timed work
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""
