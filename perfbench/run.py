"""Benchmark of the `hscm` command line, end to end and per layer.

    python3 perfbench/run.py --workload edges-g2 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from `src/`,
nothing needs installing.  Every command runs in a fresh child process
(`child.py`) that imports `hscm.cli` and then times `hscm.cli.main(argv)`
alone, so import cost lands in `setup_s` and peak RSS is per command.  One
command runs at a time, with no `--jobs`.

Workloads (inputs depend only on --seed):

* `edges-g2` -- gamma=2, nu=10, n=1e6: `generate --replicas 1` writes ~5M
  edges, then `ingest` reads that file back.  Edge sort, the text writer and
  the line parser dominate; the theory layer does no work.
* `numerics` -- no large graph: `degrees` at gamma=2, nu=10, n=1e4 x 10
  replicas, `theory` at n=1e6 with k <= 200, `entropy` over sizes 1e3..1e7 for
  both acceptance ensembles (gamma=2, nu=10 and gamma=1.1, nu=4.92), and
  `scm-solve` on the positive degrees of a seeded gamma=2, n=1000 sample.
  Quadrature, theory, entropy and the SCM solver dominate; the sampler and
  I/O barely run.  The solver's fixed-point passes are dense n x n, and their
  number follows the sample's largest degree, so its time is heavy-tailed
  over seeds (2.3 s to 8.9 s at n=1500 over 16 seeds, 11 s to 22 s at
  n=3000); n=1000 keeps that tail from setting the workload's spread.

A gamma=1.1, nu=4.92, n=1e6 workload is left out on purpose: the sampler's
time follows the largest hub's degree, which is heavy-tailed over seeds
(0.6 s to 10 s of sampling over eight seeds at n=1e5, 12 s to 80 s at
n=1e6), so no bound on it holds across seeds.

A run sets up three times, then repeats rounds of its commands while another
round is expected to end within --seconds (always at least one).  Every round
runs the same seeded inputs.  End-to-end metrics (--trace 0):

* `cpu_s` -- median over rounds of the summed CPU time (user + system) of the
  timed `main(argv)` calls;
* `setup_s` -- median over every child of the run of its CPU time outside
  timed work: interpreter start, `hscm` import and exit (set-up children also
  write the scm degree file on `numerics`);
* `peak_rss_mb` -- median over rounds of the largest per-command peak RSS.

Times are CPU times because the benchmark's host is a shared virtual machine:
the wall time of one command there also holds the time the host ran other
tenants (steal), up to a third of it on the same input, while its CPU time
moves far less.  The wall times are kept in the record and in the per-layer
metrics.

Outputs are checked after every round.  `numerics` also runs the
known-failing `degrees --gamma 3.5 --nu 2 --n 10000` once per run as a probe,
untimed and outside `attempted`/`failed`; its exit code and stderr tail are
in the record and it counts in `ops_failed_frac`.

With --trace 1 the run makes one plain round and one round with `tracer.py`'s
spans and counters installed, and prints the per-layer metrics instead: span
times and counts per layer, `cli.self_s`, `tracing_overhead_s` (traced minus
plain round, wall time), the wall times of the plain round (`wall_s` and per
command kind) and `ops_failed_frac`.
The last stdout line is the result object; the line before it is a JSON
record of every command, the environment and, when traced, every span.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import numpy as np

from tracer import SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RUN_LIMIT_S = 170  # every child is killed once the run is this old
SETUPS = 3

with open(os.path.join(HERE, "references.json"), encoding="utf-8") as _fh:
    REF = json.load(_fh)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


class CheckError(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckError(message)


def close(value, ref, rtol, what):
    expect(abs(value - ref) <= rtol * abs(ref),
           f"{what}: {value!r} differs from reference {ref!r} by more than rtol {rtol}")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- workloads
#
# A workload maps (seed, round directory, round info, fixture) to a list of
# commands (name, kind, argv, check).  Each command writes under
# <round dir>/<name>; check(out_dir) raises CheckError on a wrong output and
# may add computed sizes to the round's `info`.

def edges_g2_ops(seed, d, info, fixture):
    n = 10 ** 6
    edges = os.path.join(d, "generate", "graph_000.edges")
    return [
        ("generate", "generate", ["generate", "--gamma", "2", "--nu", "10", "--n", str(n),
                                  "--replicas", "1", "--seed", str(seed)],
         lambda out: check_generate(out, seed, n, info)),
        ("ingest", "ingest", ["ingest", "--path", edges],
         lambda out: check_ingest(out, info)),
    ]


def degrees_argv(gamma, nu, n, replicas, seed):
    return ["degrees", "--gamma", gamma, "--nu", nu, "--n", str(n), "--replicas", str(replicas),
            "--seed", str(seed), "--k-max", "100"]


def numerics_ops(seed, d, info, fixture):
    sizes = ",".join(str(10 ** e) for e in range(3, 8))
    return [
        ("degrees-g2", "degrees", degrees_argv("2", "10", 10000, 10, seed),
         lambda out: check_degrees(out, "2,10,10000", 10)),
        ("theory", "theory", ["theory", "--gamma", "2", "--nu", "10", "--n", "1000000",
                              "--k-max", "200"], check_theory),
        ("entropy-g2", "entropy", ["entropy", "--gamma", "2", "--nu", "10", "--sizes", sizes],
         lambda out: check_entropy(out, "2,10")),
        ("entropy-g1.1", "entropy", ["entropy", "--gamma", "1.1", "--nu", "4.92",
                                     "--sizes", sizes],
         lambda out: check_entropy(out, "1.1,4.92")),
        ("scm-solve", "scm-solve", ["scm-solve", "--degrees-file", fixture["path"],
                                    "--tol", "1e-10"],
         lambda out: check_scm(out, fixture["nodes"])),
    ]


def numerics_probes(seed):
    """Commands known to fail (exit 3, QuadratureError) on the seed code.

    Run once per run, untimed and outside attempted/failed, so that the
    defect stays visible in the record and in `ops_failed_frac`.
    """
    return [("degrees-g3.5", degrees_argv("3.5", "2", 10000, 1, seed))]


WORKLOADS = {"edges-g2": edges_g2_ops, "numerics": numerics_ops}
PROBES = {"edges-g2": lambda seed: [], "numerics": numerics_probes}


def check_generate(d, seed, n, info):
    meta = read_json(os.path.join(d, "meta.json"))
    expect(len(meta["replicas"]) == 1, "expected one replica in meta.json")
    edges = meta["replicas"][0]["edges"]
    path = os.path.join(d, meta["replicas"][0]["path"])
    info.update(edges_written=edges, edge_file_bytes=os.path.getsize(path),
                edges_int32_bytes=edges * 2 * 4, coords_float64_bytes=n * 8)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
    expect(header[:3] == ["#", "hscm", "v1"] and f"n={n}" in header and f"seed={seed}" in header,
           f"bad edge-file header {header}")
    arr = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    expect(arr.shape == (edges, 2), f"file has {arr.shape[0]} rows, meta.json says {edges}")
    u, v = arr[:, 0], arr[:, 1]
    expect(bool(((u >= 0) & (u < v) & (v < n)).all()), "node id out of order or range")
    key = u * n + v
    expect(bool((key[1:] > key[:-1]).all()), "edges not strictly sorted")
    avg = 2.0 * edges / n
    close(meta["replicas"][0]["avg_degree"], avg, 1e-12, "meta.json avg_degree")
    close(avg, REF["avg_degree_finite_n"]["2,10,1000000"],
          REF["avg_degree_rel_tol"]["2,10,1000000"], "average degree")


def check_ingest(d, info):
    s = read_json(os.path.join(d, "summary.json"))
    expect(s["edges"] == info["edges_written"],
           f"{s['edges']} edges, generate wrote {info['edges_written']}")
    expect(s["duplicates_dropped"] == 0 and s["self_loops_dropped"] == 0,
           "dropped duplicates or self-loops")
    counts = [int(row[1]) for row in read_csv(os.path.join(d, "histogram.csv"))[1:]]
    expect(sum(counts) == s["n"], "histogram does not count every node")


def check_degrees(d, key, graphs):
    s = read_json(os.path.join(d, "summary.json"))
    close(s["avg_degree_finite_n"], REF["avg_degree_finite_n"][key], REF["rtol"],
          "avg_degree_finite_n")
    close(s["avg_degree_empirical"], s["avg_degree_finite_n"], REF["avg_degree_rel_tol"][key],
          "empirical average degree")
    expect(s["graphs"] == graphs, f"expected {graphs} graphs")
    expect(len(read_csv(os.path.join(d, "degrees.csv"))) == 102, "expected rows k=0..100")


def check_theory(d):
    s = read_json(os.path.join(d, "summary.json"))
    for field, ref in REF["theory_2_10_1000000"].items():
        close(s[field], ref, REF["rtol"], field)
    expect(len(read_csv(os.path.join(d, "theory_pmf.csv"))) == 202, "expected rows k=0..200")
    expect(len(read_csv(os.path.join(d, "tail_curve.csv"))) == 201, "expected 200 tail points")


def check_entropy(d, key):
    rows = read_csv(os.path.join(d, "entropy.csv"))
    refs = REF["entropy"][key]
    expect(rows[0] == refs["header"] and len(rows) - 1 == len(refs["rows"]),
           "unexpected table shape")
    for row, ref in zip(rows[1:], refs["rows"]):
        expect(row[0] == ref[0] and row[-1] == ref[-1], f"n or m_n differs: {row}")
        for col, value, want in zip(rows[0][1:-1], row[1:-1], ref[1:-1]):
            close(float(value), float(want), REF["rtol"], f"n={row[0]} {col}")


def check_scm(d, fixture_nodes):
    s = read_json(os.path.join(d, "scm.json"))
    expect(s["residual"] <= 1e-10, f"residual {s['residual']} above tol 1e-10")
    expect(s["n"] == fixture_nodes == len(s["multipliers"]), "wrong node count")


# ---------------------------------------------------------------- children

class Bench:
    """One run: its work directory under .bench_work/ and its deadline."""

    def __init__(self, workload, seed, work):
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def run_child(self, args):
        """Run child.py; return (JSON result or None, returncode, stderr, wall s, CPU s)."""
        fd, out = tempfile.mkstemp(prefix="child-", suffix=".json", dir=self.work)
        os.close(fd)
        c0, t0 = children_cpu_seconds(), time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, CHILD, out, *args], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t0))
            rc, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            rc, stderr = "timeout", exc.stderr or ""
            if isinstance(stderr, bytes):
                stderr = stderr.decode(errors="replace")
        wall, cpu = time.perf_counter() - t0, children_cpu_seconds() - c0
        result = read_json(out) if rc == 0 and os.path.getsize(out) else None
        os.unlink(out)
        return result, rc, stderr, wall, cpu

    def run_op(self, name, argv, trace):
        res, rc, stderr, wall, cpu = self.run_child(["op", "1" if trace else "0", "--", *argv])
        rec = {"name": name, "argv": [os.path.relpath(a, ROOT) if os.path.isabs(a) else a
                                      for a in argv],
               "child_wall_s": wall, "child_cpu_s": cpu, "stderr_tail": stderr[-400:]}
        if res is None:  # the child itself crashed or timed out
            rec.update(rc=rc if rc != 0 else "no result", op_s=wall, cpu_s=0.0, maxrss_mb=0.0)
        else:
            rec.update(res)
            rec["setup_s"] = cpu - res["cpu_s"]  # interpreter start, import and exit
            expect_import_from_checkout(res)
        return rec

    def setup(self):
        """Set up SETUPS times; each is a fresh import (+ the scm degree file)."""
        cpus = []
        fixture = {"path": os.path.join(self.work, "scm_degrees.txt"), "nodes": None}
        args = ["setup"]
        if self.workload == "numerics":
            args += [str(self.seed), fixture["path"]]
        for _ in range(SETUPS):
            res, rc, stderr, _, cpu = self.run_child(args)
            if res is None:
                raise SystemExit(f"set-up failed (exit {rc}):\n{stderr[-2000:]}")
            expect_import_from_checkout(res)
            cpus.append(cpu)
            fixture["nodes"] = res["fixture_nodes"]
        return cpus, fixture

    def run_round(self, index, trace, fixture):
        """Run every command of the workload once, then check the outputs."""
        d = os.path.join(self.work, f"round{index}")
        info, results, errors = {}, [], []
        for name, kind, argv, check in WORKLOADS[self.workload](self.seed, d, info, fixture):
            out = os.path.join(d, name)
            rec = self.run_op(name, argv + ["--out", out], trace)
            rec["kind"] = kind
            results.append(rec)
            if rec["rc"] != 0:
                errors.append(f"{self.workload}/{name}: exit {rec['rc']}")
                continue
            try:
                check(out)
            except (CheckError, OSError, ValueError, TypeError, KeyError, IndexError) as exc:
                errors.append(f"{self.workload}/{name}: {type(exc).__name__}: {exc}")
        shutil.rmtree(d, ignore_errors=True)
        return {"ops": results, "wall_s": sum(r["op_s"] for r in results),
                "cpu_s": sum(r["cpu_s"] for r in results),
                "errors": errors, "info": info, "traced": trace}

    def run_probes(self):
        d = os.path.join(self.work, "probes")
        return [self.run_op(name, argv + ["--out", os.path.join(d, name)], False)
                for name, argv in PROBES[self.workload](self.seed)]


def children_cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def expect_import_from_checkout(res):
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(res["hscm_file"]).startswith(src + os.sep):
        raise SystemExit(f"hscm was imported from {res['hscm_file']}, not from {src}")


# ---------------------------------------------------------------- metrics

def end_to_end(setup_cpus, rounds):
    setups = setup_cpus + [o["setup_s"] for r in rounds for o in r["ops"] if "setup_s" in o]
    return {
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(max(o["maxrss_mb"] for o in r["ops"]) for r in rounds),
    }


COUNTS = ["sampler.edges", "sampler.max_degree", "rng.uniform_calls", "rng.draws",
          "io.write_bytes", "quadrature.quad_calls", "scm.distinct_degrees", "scm.residual"]
PEAK_COUNTS = ("sampler.max_degree", "scm.residual")
QUAD_KINDS = ("degrees", "theory", "entropy")  # commands that integrate numerically
OP_TIMES = {"generate_s": ("generate",), "ingest_s": ("ingest",), "degrees_s": ("degrees",),
            "theory_entropy_s": ("theory", "entropy"), "scm_solve_s": ("scm-solve",)}


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(plain, traced, probes):
    """Layer spans and counts of the traced round; command times of the plain round."""
    m = {f"{span}_s": 0.0 for _, _, span in SPANS}
    m.update({f"quadrature.quad_calls.{kind}": 0 for kind in QUAD_KINDS})
    counts, cli_self = {}, 0.0
    for op in traced["ops"]:
        if op["kind"] in QUAD_KINDS:
            m[f"quadrature.quad_calls.{op['kind']}"] += op.get("counters", {}).get(
                "quadrature.quad_calls", 0)
        spans = op.get("spans", [])
        for name, start, end, parent in spans[1:]:  # spans[0] is the cli.op root
            m[f"{name}_s"] += end - start
            if parent == 0:
                cli_self -= end - start
        if spans:
            cli_self += spans[0][2] - spans[0][1]
        for name, value in op.get("counters", {}).items():
            old = counts.get(name, 0)
            counts[name] = max(old, value) if name in PEAK_COUNTS else old + value
    m.update({name: counts.get(name, 0) for name in COUNTS})
    m["sampler.accept_ratio"] = ratio(m["sampler.edges"], m["rng.draws"])
    m["io.write_mb_per_s"] = ratio(m["io.write_bytes"] / 1e6, m["io.write_s"])
    m["stats.ingest_mb_per_s"] = ratio(counts.get("stats.ingest_bytes", 0) / 1e6,
                                       m["stats.ingest_s"])
    m["cli.self_s"] = cli_self
    m["tracing_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    m["wall_s"] = plain["wall_s"]
    for key, kinds in OP_TIMES.items():
        m[key] = sum(o["op_s"] for o in plain["ops"] if o["kind"] in kinds and o["rc"] == 0)
    m["edges_per_s"] = ratio(plain["info"].get("edges_written", 0), m["generate_s"])
    started = plain["ops"] + probes
    m["ops_failed_frac"] = sum(o["rc"] != 0 for o in started) / len(started)
    return m


def environment():
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        llc = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "llc_bytes": llc, "machine": platform.machine()}


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hscm", "cli.py")):
        sys.exit(f"no hscm sources under {os.path.join(ROOT, 'src')}; run from a checkout")

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    bench = Bench(args.workload, args.seed, work)
    try:
        setup_cpus, fixture = bench.setup()
        t0 = time.perf_counter()
        rounds = [bench.run_round(0, False, fixture)]
        if args.trace:
            rounds.append(bench.run_round(1, True, fixture))
        else:  # another round while it is expected to end within --seconds
            while (time.perf_counter() - t0) * (len(rounds) + 1) / len(rounds) <= args.seconds:
                rounds.append(bench.run_round(len(rounds), False, fixture))
        probes = bench.run_probes()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    errors = [e for r in rounds for e in r["errors"]]
    if args.trace:
        metrics = per_layer(plain[0], rounds[1], probes)
    else:
        metrics = end_to_end(setup_cpus, plain)
    units = {m["name"]: m["unit"] for m in BENCH["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        sys.exit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(o["rc"] != 0 for r in rounds for o in r["ops"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "setup_cpu_s": setup_cpus,
        "rounds": rounds, "probes": probes, "errors": errors,
        "computed_bytes": rounds[0]["info"],
        "bandwidth": "not reported: no workload array reaches 4x the LLC; "
                     "edge-file I/O times are page-cache times, not disk times",
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
