"""Command-line surface: reproducible experiment runs emitting plot-ready data.

Subcommands: generate, degrees, entropy, theory, scm-solve, ingest.
Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O error.
They come from DomainError or MemoryError (2), ConvergenceError (3), and
ParseError or OSError (4).
A `cmd_*` takes the parsed options and returns `{file name: (header, rows) or
fields}`; `main` writes each as a CSV table or as JSON with the command and a
`config` of every option the command left in cfg but --out and --jobs.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import os
import sys
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import io as hio
from .entropy import gibbs_entropy_bounds
from .errors import ConvergenceError, DomainError, InsufficientTailError, ParseError
from .params import derive_params
from .sampler import sample_coordinates, sample_replica
from .scm import hscm_to_scm, solve_scm
from .stats import compare_to_theory, degree_histogram, ingest_edge_list, tail_exponent_fit
from .theory import DegreeLaw, expected_avg_degree_finite_n, finite_size_degree_tail


# Peak bytes of sampling one replica, from tracemalloc of sample_replica at
# n=1e6 with rows cut into segments of 64 expected proposals.  Node-bound
# runs peak at 115 bytes per node (fast, gamma=2, nu=0.1) and 108 (growing,
# gamma=2, nu=0.1 and nu=10), of which 64 are key capacity the skip engine
# reserves and never writes; edge-bound runs add 16 bytes per edge, the key
# and its copy while the key buffer doubles (fast, gamma=2, nu=40: 433 MB
# for 20.0M edges).  The written parts bound the resident growth (301 MB at
# nu=40); at nu=10 the process peaks at 172-178 MB.
_BYTES_PER_NODE = 80
_BYTES_PER_EDGE = 16


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(p, workers):
    """DomainError unless `workers` replicas of p can be sampled at once in RAM.

    The expected edge count of a replica is n/2 times the expected average degree.
    """
    edges = 0.5 * p.n * expected_avg_degree_finite_n(p)
    need = workers * (_BYTES_PER_NODE * p.n + _BYTES_PER_EDGE * edges)
    have = _physical_memory()
    if need > have:
        raise DomainError(
            f"not enough memory for n={p.n}: gamma={p.gamma:g}, nu={p.nu:g} expect "
            f"{edges:.3g} edges per replica; sampling {workers} at once needs about "
            f"{need:.3g} bytes, more than the {have:.3g} bytes of physical memory")


def _timed_replica(p, seed, variant, index):
    t0 = time.perf_counter()
    graph = sample_replica(p, seed, index, variant)
    return graph, time.perf_counter() - t0


def _generate_graphs(cfg, p):
    """(graph, wall seconds) of each replica in replica order, after _check_memory.

    Samples in this process when min(--jobs, --replicas, CPUs) is 1, else in
    that many worker processes with one replica pending on each.
    """
    workers = min(cfg.jobs, cfg.replicas, os.cpu_count() or 1)
    _check_memory(p, workers)
    task = functools.partial(_timed_replica, p, cfg.seed, cfg.sampler)
    if workers == 1:
        yield from map(task, range(cfg.replicas))
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(task, i) for i in range(workers))
        for i in range(cfg.replicas):
            result = pending.popleft().result()
            if i + workers < cfg.replicas:
                pending.append(pool.submit(task, i + workers))
            yield result


def cmd_generate(cfg) -> dict:
    p = derive_params(cfg.gamma, cfg.nu, cfg.n)
    replicas = []
    for index, (graph, wall) in enumerate(_generate_graphs(cfg, p)):
        path = os.path.join(cfg.out, f"graph_{index:03d}.edges")
        hio.write_edge_list(path, graph, cfg.seed)
        replicas.append({
            "index": index,
            "path": os.path.basename(path),
            "edges": graph.num_edges,
            "avg_degree": graph.average_degree(),
            "wall_time_s": wall,
        })
    return {"meta.json": {"replicas": replicas}}


def cmd_degrees(cfg) -> dict:
    p = derive_params(cfg.gamma, cfg.nu, cfg.n)
    if cfg.input_dir:
        paths = [os.path.join(cfg.input_dir, name)
                 for name in sorted(os.listdir(cfg.input_dir)) if name.endswith(".edges")]
        if not paths:
            raise DomainError(f"no .edges files under {cfg.input_dir}")
        graphs = map(hio.read_edge_list, paths)
    else:
        graphs = map(operator.itemgetter(0), _generate_graphs(cfg, p))
    hist = degree_histogram(graphs)
    if hist.n != cfg.n:
        raise DomainError(f"graphs have n={hist.n} but --n is {cfg.n}")
    report = compare_to_theory(hist, p, k_max=cfg.k_max)
    q_asym, q_fin = report.pmf_asymptotic, report.pmf_finite_n
    pe = hist.pmf()
    rows = []
    for k in range(cfg.k_max + 1):
        emp = pe[k] if k < pe.size else 0.0
        rows.append((k, f"{emp:.10e}", f"{q_asym[k]:.10e}", f"{q_fin[k]:.10e}"))
    return {
        "degrees.csv": (["k", "empirical_pmf", "theory_pmf_asymptotic",
                         "theory_pmf_finite_n"], rows),
        "summary.json": {
            "avg_degree_empirical": report.avg_degree_empirical,
            "avg_degree_empirical_se": report.avg_degree_empirical_se,
            "avg_degree_finite_n": report.avg_degree_finite_n,
            "avg_degree_asymptotic": report.avg_degree_asymptotic,
            "tv_asymptotic": report.tv_asymptotic,
            "tv_finite_n": report.tv_finite_n,
            "tail_exponent": report.tail_exponent_estimate,
            "graphs": hist.n_graphs,
        },
    }


def cmd_entropy(cfg) -> dict:
    rows = []
    for n in cfg.sizes:
        p = derive_params(cfg.gamma, cfg.nu, n)
        rep = gibbs_entropy_bounds(p)
        rows.append((n, f"{rep.sigma:.12e}", f"{rep.sigma_rescaled:.8f}",
                     f"{rep.gibbs_lower_rescaled:.8f}", f"{rep.gibbs_upper_rescaled:.8f}",
                     f"{rep.s_m:.8f}", rep.m_n))
    return {"entropy.csv": (["n", "sigma", "n_sigma_over_log_n", "gibbs_lower_rescaled",
                             "gibbs_upper_rescaled", "s_m", "m_n"], rows),
            "summary.json": {}}


def cmd_theory(cfg) -> dict:
    p = derive_params(cfg.gamma, cfg.nu, cfg.n)
    pmf = DegreeLaw(p).pmf_array(cfg.k_max)
    # from below the lower to above the upper of the curve's two cutoffs,
    # beta*nu and sqrt(nu*n), which trade places when n is small against nu
    t_lo, t_hi = sorted((p.pareto_scale, math.sqrt(p.nu * p.n)))
    ts = np.geomspace(t_lo / 4.0, t_hi * 1.2, cfg.t_points)
    tail = finite_size_degree_tail(p, ts)
    return {
        "theory_pmf.csv": (["k", "pmf"], [(k, f"{pmf[k]:.12e}") for k in range(cfg.k_max + 1)]),
        "tail_curve.csv": (["t", "tail_probability"],
                           [(f"{t:.8e}", f"{v:.10e}") for t, v in zip(ts, tail)]),
        "summary.json": {
            "expected_avg_degree_finite_n": expected_avg_degree_finite_n(p),
            "expected_avg_degree_asymptotic": p.nu,
            "r_n": p.r_n,
        },
    }


def cmd_scm_solve(cfg) -> dict:
    # each source deletes the options its run ignores, so its config omits them
    if cfg.degrees_file is not None:
        inst = solve_scm(hio.read_degrees(cfg.degrees_file), tol=cfg.tol)
        del cfg.gamma, cfg.nu, cfg.n, cfg.seed
    else:  # frozen coordinates: no solve, so no tol
        p = derive_params(cfg.gamma, cfg.nu, cfg.n)
        inst = hscm_to_scm(sample_coordinates(p, cfg.seed))
        del cfg.degrees_file, cfg.tol
    return {"scm.json": {
        "n": inst.n,
        "residual": inst.residual,
        "residual_path": list(inst.residual_path),
        "cg_iterations": inst.cg_iterations,
        "expected_degrees": inst.expected_degrees.tolist(),
        "multipliers": inst.multipliers.tolist(),
    }}


def cmd_ingest(cfg) -> dict:
    hist = ingest_edge_list(cfg.path)
    pmf = hist.pmf()
    rows = [(k, int(hist.counts[k]), f"{pmf[k]:.10e}")
            for k in range(hist.counts.size)]
    try:
        fit = tail_exponent_fit(hist)
        tail = {"alpha": fit.alpha, "k_min": fit.k_min, "ks_distance": fit.ks_distance}
    except InsufficientTailError as exc:
        tail = {"error": str(exc)}
    return {"histogram.csv": (["k", "count", "pmf"], rows), "summary.json": {
        "n": hist.n,
        "edges": int(hist.edges_per_graph[0]),
        "duplicates_dropped": hist.duplicates_dropped,
        "self_loops_dropped": hist.self_loops_dropped,
        "avg_degree": hist.mean_degree(),
        "tail_fit": tail,
    }}


def _at_least(lo):
    """argparse type: an integer no smaller than lo."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return parse


def _add_model_args(sp, need_n=True):
    sp.add_argument("--gamma", type=float, required=True, help="power-law shape, > 1")
    sp.add_argument("--nu", type=float, required=True, help="target average degree, > 0")
    if need_n:
        sp.add_argument("--n", type=int, required=True, help="graph size")


def _add_sampling_args(sp):
    sp.add_argument("--replicas", type=_at_least(1), default=1)
    sp.add_argument("--seed", type=int, default=None,
                    help="master seed (replica seeds are derived from it); needed to sample")
    sp.add_argument("--sampler", choices=["fast", "growing"], default="fast",
                    help="growing is the projective chain, for gamma = 2 only")
    sp.add_argument("--jobs", type=_at_least(1), default=1, help="parallel replica workers")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hscm",
                                 description="Sparse power-law random graphs: "
                                             "samplers, degree theory, entropy numerics")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", help="sample graphs to edge-list files")
    _add_model_args(sp)
    _add_sampling_args(sp)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("degrees", help="degree histogram vs theory")
    _add_model_args(sp)
    _add_sampling_args(sp)
    sp.add_argument("--in", dest="input_dir", default=None,
                    help="read graphs from a generate output directory")
    sp.add_argument("--k-max", dest="k_max", type=_at_least(0), default=100)
    sp.set_defaults(func=cmd_degrees)

    sp = sub.add_parser("entropy", help="entropy scaling table over sizes")
    _add_model_args(sp, need_n=False)
    sp.add_argument("--sizes", required=True,
                    help="comma-separated increasing sizes, e.g. 1000,10000")
    sp.set_defaults(func=cmd_entropy)

    sp = sub.add_parser("theory", help="theoretical pmf, averages, tail curve")
    _add_model_args(sp)
    sp.add_argument("--k-max", dest="k_max", type=_at_least(0), default=100)
    sp.add_argument("--t-points", dest="t_points", type=_at_least(1), default=200)
    sp.set_defaults(func=cmd_theory)

    sp = sub.add_parser("scm-solve", help="solve multipliers for expected degrees")
    sp.add_argument("--degrees-file", default=None,
                    help="whitespace-separated expected degrees")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--nu", type=float, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=cmd_scm_solve)

    sp = sub.add_parser("ingest", help="histogram an external edge list")
    sp.add_argument("--path", required=True)
    sp.set_defaults(func=cmd_ingest)
    for sp in sub.choices.values():  # main writes each command's outputs there
        sp.add_argument("--out", required=True)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    cfg = ap.parse_args(argv)
    if cfg.command == "scm-solve" and cfg.degrees_file is None \
            and None in (cfg.gamma, cfg.nu, cfg.n, cfg.seed):
        ap.error("scm-solve needs --degrees-file or all of --gamma/--nu/--n/--seed")
    if getattr(cfg, "input_dir", None):
        cfg.seed = cfg.replicas = cfg.sampler = None  # --in samples nothing, so it records none
    elif cfg.command in ("generate", "degrees") and cfg.seed is None:
        ap.error(f"{cfg.command} needs --seed to sample graphs")
    if cfg.command == "entropy":
        try:
            cfg.sizes = [int(tok) for tok in cfg.sizes.split(",") if tok]
        except ValueError:
            ap.error("--sizes must be comma-separated integers")
        if not cfg.sizes or any(b <= a for a, b in zip(cfg.sizes, cfg.sizes[1:])):
            ap.error("--sizes must be strictly increasing")
    try:
        os.makedirs(cfg.out, exist_ok=True)
        outputs = cfg.func(cfg)
        config = {k: v for k, v in vars(cfg).items()
                  if k not in ("command", "func", "out", "jobs")}
        for name, output in outputs.items():
            path = os.path.join(cfg.out, name)
            if isinstance(output, tuple):
                hio.write_csv(path, *output)
            else:
                hio.write_json(path, {"command": cfg.command, "config": config, **output})
        return 0
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ParseError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        given = ", ".join(f"{k}={getattr(cfg, k)}"
                          for k in ("n", "k_max", "t_points", "path", "degrees_file")
                          if getattr(cfg, k, None) is not None)
        print(f"configuration error: not enough memory for {given}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
