import csv
import json
import math
import os
import time
from concurrent.futures import Future

import numpy as np
import pytest

from hscm.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


def strict_json(path):
    """Parse a JSON file, rejecting the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-JSON constant {token} in {path}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


class TestGenerate:
    def test_writes_replicas_and_meta(self, tmp_path):
        out = tmp_path / "g"
        assert run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 500,
                       "--replicas", 2, "--seed", 7, "--out", out) == 0
        files = sorted(os.listdir(out))
        assert files == ["graph_000.edges", "graph_001.edges", "meta.json"]
        meta = json.loads((out / "meta.json").read_text())
        assert meta["schema_version"] == 1
        assert meta["config"]["seed"] == 7
        assert len(meta["replicas"]) == 2
        header = (out / "graph_000.edges").read_text().splitlines()[0]
        assert header == "# hscm v1 n=500 seed=7"

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 400,
                    "--replicas", 2, "--seed", 99, "--out", out)
        for name in ("graph_000.edges", "graph_001.edges"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_jobs_parallel_matches_serial(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 300,
                "--replicas", 3, "--seed", 5, "--out", a)
        run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 300,
                "--replicas", 3, "--seed", 5, "--jobs", 2, "--out", b)
        for i in range(3):
            name = f"graph_{i:03d}.edges"
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("replicas, cpus, workers", [(3, 8, 3), (3, 2, 2), (1, 8, None)])
    def test_jobs_capped_by_replicas_and_cpus(self, tmp_path, monkeypatch,
                                              replicas, cpus, workers):
        import hscm.cli as cli_mod

        made = []

        class InlineExecutor:
            """Stands in for ProcessPoolExecutor: runs each task when it is submitted."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: cpus)
        a, b = tmp_path / "a", tmp_path / "b"
        for out, jobs in ((a, 1), (b, 5000)):
            assert run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 300,
                           "--replicas", replicas, "--seed", 5, "--jobs", jobs,
                           "--out", out) == 0
        assert made == ([] if workers is None else [workers])
        for i in range(replicas):
            name = f"graph_{i:03d}.edges"
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_sampler_variants_differ_but_run(self, tmp_path):
        pa, pb = tmp_path / "fast", tmp_path / "naive"
        run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 300, "--replicas", 1,
                "--seed", 3, "--sampler", "fast", "--out", pa)
        run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 300, "--replicas", 1,
                "--seed", 3, "--sampler", "naive", "--out", pb)
        assert (pa / "graph_000.edges").read_bytes() != (pb / "graph_000.edges").read_bytes()


class TestDegrees:
    def test_columns_and_summary(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli("degrees", "--gamma", 2, "--nu", 10, "--n", 2000,
                       "--replicas", 3, "--seed", 11, "--k-max", 40,
                       "--out", out) == 0
        with open(out / "degrees.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "empirical_pmf", "theory_pmf_asymptotic",
                           "theory_pmf_finite_n"]
        ks = [int(r[0]) for r in rows[1:]]
        assert ks == list(range(41))  # contiguous from zero
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert 0.0 <= summary["tv_asymptotic"] <= 1.0

    def test_reads_generated_directory(self, tmp_path):
        gdir, out = tmp_path / "g", tmp_path / "d"
        run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 1000,
                "--replicas", 2, "--seed", 13, "--out", gdir)
        assert run_cli("degrees", "--gamma", 2, "--nu", 10, "--n", 1000,
                       "--replicas", 2, "--seed", 13, "--in", gdir,
                       "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["graphs"] == 2

    def test_theory_columns_match_theory_command(self, tmp_path):
        ddir, tdir = tmp_path / "d", tmp_path / "t"
        run_cli("degrees", "--gamma", 2, "--nu", 10, "--n", 1000, "--replicas", 1,
                "--seed", 2, "--k-max", 15, "--out", ddir)
        run_cli("theory", "--gamma", 2, "--nu", 10, "--n", 1000, "--k-max", 15,
                "--out", tdir)
        with open(ddir / "degrees.csv") as fh:
            dcol = [float(r[2]) for r in list(csv.reader(fh))[1:]]
        with open(tdir / "theory_pmf.csv") as fh:
            tcol = [float(r[1]) for r in list(csv.reader(fh))[1:]]
        assert np.allclose(dcol, tcol, rtol=1e-9)

    def test_kappa_quadrature_failure_params_exit_0(self, tmp_path):
        # adaptive quadrature of kappa_n misses its tolerance at these parameters
        out = tmp_path / "d"
        assert run_cli("degrees", "--gamma", 3.5, "--nu", 2, "--n", 10000,
                       "--replicas", 1, "--seed", 1, "--k-max", 40, "--out", out) == 0
        summary = strict_json(out / "summary.json")
        assert summary["avg_degree_finite_n"] == pytest.approx(2.0, rel=1e-3)

    def test_single_node_outputs_are_finite(self, tmp_path):
        # kappa_n = 0 at n = 1, so the finite-n pmf is the point mass at k = 0
        out = tmp_path / "d"
        assert run_cli("degrees", "--gamma", 2, "--nu", 10, "--n", 1, "--seed", 1,
                       "--k-max", 5, "--out", out) == 0
        summary = strict_json(out / "summary.json")
        assert summary["tv_finite_n"] == 0.0
        with open(out / "degrees.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(r[3]) for r in rows] == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_each_theory_pmf_computed_once(self, tmp_path, monkeypatch):
        import hscm.stats as stats_mod
        from hscm.theory import DegreeLaw

        calls = {"finite_n": 0, "asymptotic": 0}
        finite_n, pmf_array = stats_mod.finite_n_degree_pmf, DegreeLaw.pmf_array

        def count_finite_n(*args, **kwargs):
            calls["finite_n"] += 1
            return finite_n(*args, **kwargs)

        def count_asymptotic(*args, **kwargs):
            calls["asymptotic"] += 1
            return pmf_array(*args, **kwargs)

        monkeypatch.setattr(stats_mod, "finite_n_degree_pmf", count_finite_n)
        monkeypatch.setattr(DegreeLaw, "pmf_array", count_asymptotic)
        assert run_cli("degrees", "--gamma", 2, "--nu", 10, "--n", 500, "--seed", 3,
                       "--k-max", 20, "--out", tmp_path / "d") == 0
        assert calls == {"finite_n": 1, "asymptotic": 1}


MODEL = ["--gamma", 2, "--nu", 10, "--n", 100]


@pytest.mark.parametrize("argv", [
    ["theory", *MODEL, "--k-max", -1],
    ["degrees", *MODEL, "--seed", 1, "--k-max", -1],
    ["theory", *MODEL, "--t-points", 0],
    ["generate", *MODEL, "--seed", 1, "--replicas", -1],
    ["degrees", *MODEL, "--seed", 1, "--replicas", 0],
    ["generate", *MODEL, "--seed", 1, "--jobs", 0],
], ids=["theory-k-max", "degrees-k-max", "t-points", "generate-replicas",
        "degrees-replicas", "jobs"])
def test_integer_flag_below_minimum_exits_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", tmp_path / "o")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


class TestEntropyCmd:
    def test_table(self, tmp_path):
        out = tmp_path / "e"
        assert run_cli("entropy", "--gamma", 2, "--nu", 10,
                       "--sizes", "1000,10000", "--out", out) == 0
        with open(out / "entropy.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "n"
        assert [int(r[0]) for r in rows[1:]] == [1000, 10000]
        for r in rows[1:]:
            n = int(r[0])
            assert int(r[6]) == math.ceil(math.log(n) ** 2) + 1
            assert float(r[3]) <= float(r[4])  # lower <= upper

    def test_single_size(self, tmp_path):
        out = tmp_path / "e1"
        run_cli("entropy", "--gamma", 2, "--nu", 10, "--sizes", "5000", "--out", out)
        with open(out / "entropy.csv") as fh:
            assert len(list(csv.reader(fh))) == 2

    def test_bad_sizes_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("entropy", "--gamma", 2, "--nu", 10, "--sizes", "100,50",
                    "--out", tmp_path)
        assert exc.value.code == 2

    @pytest.mark.filterwarnings("error")
    def test_large_gamma_upper_bound_is_finite(self, tmp_path):
        # the first two interval masses underflow to 0 at gamma = 200; the
        # averaged kernel's weights must not be divided by them
        assert run_cli("entropy", "--gamma", 200, "--nu", 10,
                       "--sizes", "1000,100000", "--out", tmp_path) == 0
        with open(tmp_path / "entropy.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        upper = [float(r[4]) for r in rows]
        assert upper == pytest.approx([8.03307364, 8.86765935], abs=2e-8)
        assert all(float(r[3]) <= float(r[4]) for r in rows)

    def test_partition_error_names_the_size(self, tmp_path, capsys):
        # beta^2 nu = 250: n = 100 has no positive support end r_n
        assert run_cli("entropy", "--gamma", 2, "--nu", 1000,
                       "--sizes", "100,1000", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "gamma=2.0, nu=1000.0, n=100 " in err
        assert "beta^2 nu = 250" in err


class TestTheoryCmd:
    # x = beta*nu near 0: the seed quadrature's integrand used to peak
    # sharply at t = x and miss its tolerance (exit 3); at x = 1e5 it decayed
    # far inside the quadrature's first panel and missed it too
    @pytest.mark.parametrize("gamma,nu", [(1.000001, 10), (2, 1e-9), (2, 2e5)])
    def test_small_pareto_scale_exit_0(self, tmp_path, gamma, nu):
        assert run_cli("theory", "--gamma", gamma, "--nu", nu, "--n", 1000,
                       "--out", tmp_path) == 0
        with open(tmp_path / "theory_pmf.csv") as fh:
            pmf = [float(r[1]) for r in list(csv.reader(fh))[1:]]
        assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in pmf)
        assert sum(pmf) <= 1.0 + 1e-12

    @pytest.mark.filterwarnings("error")
    def test_huge_gamma_tail_curve_does_not_overflow(self, tmp_path):
        assert run_cli("theory", "--gamma", 1e6, "--nu", 10, "--n", 1000,
                       "--out", tmp_path) == 0
        with open(tmp_path / "tail_curve.csv") as fh:
            tail = [float(r[1]) for r in list(csv.reader(fh))[1:]]
        assert all(0.0 <= v <= 1.0 for v in tail)

    # r_n < 0 at gamma = 1000: exp(-2 gamma r_n) in the finite-size
    # correction used to raise OverflowError
    @pytest.mark.filterwarnings("error")
    def test_huge_gamma_negative_r_n_exit_0(self, tmp_path):
        assert run_cli("theory", "--gamma", 1000, "--nu", 1000, "--n", 10,
                       "--out", tmp_path) == 0
        for name in ("theory_pmf.csv", "tail_curve.csv"):
            with open(tmp_path / name) as fh:
                rows = list(csv.reader(fh))[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert all(math.isfinite(summary[key]) for key in
                   ("expected_avg_degree_finite_n", "expected_avg_degree_asymptotic", "r_n"))

    # no node's expected degree reaches n - 1 = 9; with eps_n at -inf both
    # cutoffs used to be +inf, and the curve read 1 up to t = 1199
    def test_tail_is_zero_from_n_minus_1(self, tmp_path):
        assert run_cli("theory", "--gamma", 1000, "--nu", 1000, "--n", 10,
                       "--k-max", 5, "--out", tmp_path) == 0
        with open(tmp_path / "tail_curve.csv") as fh:
            rows = [(float(t), float(v)) for t, v in list(csv.reader(fh))[1:]]
        assert any(t >= 9.0 for t, _ in rows)
        assert all(v == 0.0 for t, v in rows if t >= 9.0)

    # at n small against nu the upper cutoff sqrt(nu*n) falls below beta*nu/4,
    # and the grid used to run from 249.75 down to 120
    @pytest.mark.parametrize("gamma,nu,n", [(1000, 1000, 10), (2, 10, 10**6)])
    def test_tail_grid_spans_both_cutoffs_increasing(self, tmp_path, gamma, nu, n):
        assert run_cli("theory", "--gamma", gamma, "--nu", nu, "--n", n,
                       "--k-max", 5, "--out", tmp_path) == 0
        with open(tmp_path / "tail_curve.csv") as fh:
            ts = [r[0] for r in list(csv.reader(fh))[1:]]
        assert all(float(a) < float(b) for a, b in zip(ts, ts[1:]))
        lo, hi = sorted((nu * (1.0 - 1.0 / gamma), math.sqrt(nu * n)))
        assert (ts[0], ts[-1]) == (f"{lo / 4.0:.8e}", f"{hi * 1.2:.8e}")


class TestScmIngestAndErrors:
    def test_scm_solve_from_file(self, tmp_path):
        degrees = tmp_path / "k.txt"
        degrees.write_text("0.2 0.2\n")
        out = tmp_path / "s"
        assert run_cli("scm-solve", "--degrees-file", degrees, "--tol", 1e-12,
                       "--out", out) == 0
        doc = json.loads((out / "scm.json").read_text())
        assert doc["residual"] < 1e-12
        assert doc["multipliers"][0] == pytest.approx(0.5 * math.log(4.0), abs=1e-10)

    def test_scm_solve_from_frozen_coordinates(self, tmp_path):
        out = tmp_path / "s2"
        assert run_cli("scm-solve", "--gamma", 2, "--nu", 10, "--n", 20,
                       "--seed", 8, "--out", out) == 0
        doc = json.loads((out / "scm.json").read_text())
        assert doc["residual"] == 0.0
        assert len(doc["multipliers"]) == 20

    def test_scm_solve_malformed_degrees(self, tmp_path, capsys):
        degrees = tmp_path / "k.txt"
        degrees.write_text("1.0 nan 1.0\n")
        assert run_cli("scm-solve", "--degrees-file", degrees, "--out", tmp_path) == 2
        degrees.write_text("0.5 0.5\n0.5 x\n")
        assert run_cli("scm-solve", "--degrees-file", degrees, "--out", tmp_path) == 4
        assert f"{degrees}:2: could not convert string to float: 'x'" in capsys.readouterr().err
        degrees.write_bytes(b"0.5 0.5\n0.5 \xff\n")
        assert run_cli("scm-solve", "--degrees-file", degrees, "--out", tmp_path) == 4
        assert f"{degrees}:2: 'utf-8' codec" in capsys.readouterr().err
        assert not (tmp_path / "scm.json").exists()

    def test_scm_solve_infeasible_exit_3(self, tmp_path, capsys):
        degrees = tmp_path / "k.txt"
        degrees.write_text("2.9 2.9 2.9 0.1\n")
        assert run_cli("scm-solve", "--degrees-file", degrees, "--out", tmp_path) == 3
        assert "residual" in capsys.readouterr().err

    def test_ingest_round_trip(self, tmp_path):
        gdir, idir = tmp_path / "g", tmp_path / "i"
        run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 400, "--replicas", 1,
                "--seed", 21, "--out", gdir)
        assert run_cli("ingest", "--path", gdir / "graph_000.edges",
                       "--out", idir) == 0
        doc = json.loads((idir / "summary.json").read_text())
        meta = json.loads((gdir / "meta.json").read_text())
        assert doc["edges"] == meta["replicas"][0]["edges"]
        assert doc["duplicates_dropped"] == 0

    def test_scm_solve_4097_classes_exit_0(self, tmp_path):
        degrees = tmp_path / "k.txt"
        degrees.write_text(" ".join(map(str, np.linspace(1.0, 2.0, 4097).tolist())) + "\n")
        assert run_cli("scm-solve", "--degrees-file", degrees, "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "scm.json").read_text())
        assert doc["residual"] <= 1e-10 and len(doc["multipliers"]) == 4097

    def test_scm_solve_reports_solver_counters(self, tmp_path):
        degrees = tmp_path / "k.txt"
        degrees.write_text("1.5 2.5 2.5 3.0 0.5 1.0\n")
        assert run_cli("scm-solve", "--degrees-file", degrees, "--out", tmp_path / "a") == 0
        doc = json.loads((tmp_path / "a" / "scm.json").read_text())
        path = doc["residual_path"]
        assert path and path[-1] == doc["residual"] <= 1e-10
        assert all(b < a for a, b in zip(path, path[1:]))
        assert isinstance(doc["cg_iterations"], int) and doc["cg_iterations"] >= len(path)
        assert run_cli("scm-solve", "--gamma", 2, "--nu", 10, "--n", 20, "--seed", 8,
                       "--out", tmp_path / "b") == 0
        doc = json.loads((tmp_path / "b" / "scm.json").read_text())
        assert (doc["residual_path"], doc["cg_iterations"]) == ([], 0)

    def test_config_error_exit_2(self, tmp_path):
        assert run_cli("theory", "--gamma", 0.5, "--nu", 10, "--n", 100,
                       "--out", tmp_path) == 2

    # numpy refuses the 7 TiB coordinate array at once: nothing is allocated
    @pytest.mark.parametrize("command", ["generate", "degrees"])
    def test_huge_n_out_of_memory_exit_2(self, tmp_path, capsys, command):
        assert run_cli(command, "--gamma", 2, "--nu", 10, "--n", 10**12, "--seed", 1,
                       "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: not enough memory for n=1000000000000")

    # refused from the expected edge count C(n, 2) * E[W] before any sampler runs,
    # against the memory of an 8 GiB machine whatever this one has
    @pytest.mark.parametrize("command", ["generate", "degrees"])
    @pytest.mark.parametrize("nu, n, edges", [(1e6, 10**5, "4.27e+09 edges"),
                                              (10, 10**8, "5e+08 edges")])
    def test_oversized_graph_exit_2_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                    command, nu, n, edges):
        import hscm.cli as cli_mod
        import hscm.sampler as sampler_mod

        def refuse(*args, **kwargs):
            pytest.fail("a sampler ran")

        for name in ("sample_coordinates", "sample_graph_fast", "sample_graph_naive",
                     "sample_graph_growing"):
            monkeypatch.setattr(sampler_mod, name, refuse)
        monkeypatch.setattr(cli_mod, "_physical_memory", lambda: 8 * 2**30)
        t0 = time.perf_counter()
        assert run_cli(command, "--gamma", 2, "--nu", nu, "--n", n, "--seed", 1,
                       "--out", tmp_path) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: not enough memory for n={n}: "
                              f"gamma=2, nu={nu:g} expect {edges}")

    def test_io_error_exit_4(self, tmp_path):
        assert run_cli("ingest", "--path", tmp_path / "missing.txt",
                       "--out", tmp_path) == 4
        bad = tmp_path / "bad.txt"
        bad.write_text("0 x\n")
        assert run_cli("ingest", "--path", bad, "--out", tmp_path) == 4

    @pytest.mark.parametrize("args", [("generate", "--seed", 1), ("theory",)])
    def test_out_is_a_file_exit_4(self, tmp_path, args):
        # the --out directory is made before any command runs
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli(*args, "--gamma", 2, "--nu", 10, "--n", 50, "--out", taken) == 4

    def test_numerical_error_exit_3(self, tmp_path, monkeypatch):
        import hscm.cli as cli_mod
        from hscm.errors import QuadratureError

        def boom(p):
            raise QuadratureError("synthetic failure")

        monkeypatch.setattr(cli_mod, "gibbs_entropy_bounds", boom)
        assert cli_mod.main(["entropy", "--gamma", "2", "--nu", "10",
                             "--sizes", "1000", "--out", str(tmp_path)]) == 3
