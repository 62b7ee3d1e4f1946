"""Run one step of the benchmark in a fresh interpreter and write its result as JSON.

    python3 perfbench/child.py RESULT.json op TRACE -- <hscm argv...>
    python3 perfbench/child.py RESULT.json setup [SEED DEGREES_FILE]

`op` imports `hscm.cli` from the checkout's `src/`, then times
`hscm.cli.main(argv)` alone, in wall and in CPU seconds; with TRACE=1 the
tracer's wrappers are installed around the call and removed afterwards.
`setup` makes the same import and, given a seed, writes the scm-solve degree
file.  Either way the result records the process's own peak RSS.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_op(trace, argv):
    import hscm.cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        c0, t0 = cpu_seconds(), time.perf_counter()
        if tracer is None:
            rc = hscm.cli.main(argv)
        else:
            rc = tracer.call("cli.op", hscm.cli.main, argv)
        result = {"op_s": time.perf_counter() - t0, "cpu_s": cpu_seconds() - c0, "rc": rc}
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    return result


def make_scm_fixture(seed, path):
    """Degree file for scm-solve: the positive degrees of a seeded gamma=2 sample."""
    from hscm import derive_params, sample_coordinates, sample_graph_fast

    p = derive_params(2.0, 10.0, 1000)
    graph = sample_graph_fast(sample_coordinates(p, seed), seed + 1)
    k = graph.degrees()
    k = k[k > 0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(v)) for v in k) + "\n")
    return int(k.size)


def main():
    out_path, mode, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "op" and len(rest) >= 2 and rest[1] == "--":
        result = run_op(rest[0] == "1", rest[2:])
    elif mode == "setup" and len(rest) in (0, 2):
        import hscm.cli  # noqa: F401

        result = {"fixture_nodes": make_scm_fixture(int(rest[0]), rest[1]) if rest else None}
    else:
        raise SystemExit(__doc__)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["hscm_file"] = sys.modules["hscm"].__file__
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
