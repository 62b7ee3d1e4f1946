"""Import budget: the CLI and its numerics load numpy and no scipy module.

Each check runs in a fresh interpreter, since the test process itself has
scipy and numpy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = """
import sys

import hscm.cli

out = sys.argv[1]
with open(out + "/degrees.txt", "w") as fh:
    fh.write("1\\n1.5\\n2\\n2\\n2.5\\n3\\n")
for argv in (
    ["generate", "--gamma", "2", "--nu", "10", "--n", "300", "--seed", "1"],
    ["ingest", "--path", out + "/generate/graph_000.edges"],
    ["degrees", "--gamma", "2", "--nu", "10", "--n", "2000", "--replicas", "2", "--seed", "1"],
    ["theory", "--gamma", "2", "--nu", "10", "--n", "10000"],
    ["entropy", "--gamma", "1.1", "--nu", "4.92", "--sizes", "1000,100000"],
    ["scm-solve", "--degrees-file", out + "/degrees.txt"],
):
    sub = argv[0]
    argv += ["--out", out + "/" + sub]
    assert hscm.cli.main(argv) == 0, argv
print(" ".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

THREADS = """
import os
import sys

before = os.environ.get("OPENBLAS_NUM_THREADS")
if sys.argv[1] == "numpy-first":
    import numpy
import hscm
print(before, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def _run(code, *args, **env):
    full = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    full.pop("OPENBLAS_NUM_THREADS", None)
    full.update(env)
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=full, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_commands_load_no_scipy(tmp_path):
    # scipy.special alone cost ~0.3 s of CPU and ~24 MB at every start-up
    assert _run(COMMANDS, str(tmp_path)) == ""


def test_import_gives_openblas_one_thread_when_unset():
    assert _run(THREADS, "hscm-first") == "None 1"


def test_import_keeps_a_preset_openblas_thread_count():
    assert _run(THREADS, "hscm-first", OPENBLAS_NUM_THREADS="2") == "2 2"


def test_import_after_numpy_leaves_openblas_unset():
    # numpy has started its BLAS threads already; a value set now would not apply
    assert _run(THREADS, "numpy-first") == "None None"
