import ast
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
        pa, pb = tmp_path / "fast", tmp_path / "growing"
        assert run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 300, "--replicas", 1,
                       "--seed", 3, "--sampler", "fast", "--out", pa) == 0
        assert run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 300, "--replicas", 1,
                       "--seed", 3, "--sampler", "growing", "--out", pb) == 0
        assert (pa / "graph_000.edges").read_bytes() != (pb / "graph_000.edges").read_bytes()

    def test_naive_sampler_is_not_a_choice(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 30, "--seed", 3,
                    "--sampler", "naive", "--out", tmp_path)
        assert exc.value.code == 2
        assert "argument --sampler: invalid choice: 'naive'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


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

    # the finite-n pmf's nodes underflowed above gamma ~ 61, and from gamma ~ 99
    # on scipy's hyp2f1, which computed kappa_n, returned NaN (exit 2)
    @pytest.mark.parametrize("gamma,code", [(62, 0), (80, 0), (99, 0), (99.5, 0), (100, 0),
                                            (1e3, 0), (1e5, 0)])
    def test_large_gamma_finite_n_law(self, tmp_path, gamma, code):
        assert run_cli("degrees", "--gamma", gamma, "--nu", 10, "--n", 1000, "--seed", 1,
                       "--out", tmp_path) == code
        assert math.isfinite(strict_json(tmp_path / "summary.json")["tv_finite_n"])

    def test_gamma_next_to_integer_finite_n_law(self, tmp_path):
        # hyp2f1 returned inf within ~1e-13 of gamma = 2, which exited 2
        assert run_cli("degrees", "--gamma", 2.0000000000000004, "--nu", 1, "--n", 730,
                       "--seed", 1, "--out", tmp_path) == 0
        assert math.isfinite(strict_json(tmp_path / "summary.json")["tv_finite_n"])

    def test_reads_generated_directory(self, tmp_path):
        gdir, out = tmp_path / "g", tmp_path / "d"
        run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 1000,
                "--replicas", 2, "--seed", 13, "--out", gdir)
        assert run_cli("degrees", "--gamma", 2, "--nu", 10, "--n", 1000,
                       "--replicas", 2, "--seed", 13, "--in", gdir,
                       "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["graphs"] == 2

    def test_reading_needs_no_seed(self, tmp_path):
        # --in samples nothing, so no seed is asked for or recorded
        gdir, out = tmp_path / "g", tmp_path / "d"
        run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 500, "--seed", 13, "--out", gdir)
        assert run_cli("degrees", "--gamma", 2, "--nu", 10, "--n", 500, "--in", gdir,
                       "--out", out) == 0
        config = strict_json(out / "summary.json")["config"]
        assert config["seed"] is None and config["input_dir"] == str(gdir)

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
        # every option that shapes the outputs, --t-points for tail_curve.csv too
        assert summary["config"] == {"gamma": 1000.0, "nu": 1000.0, "n": 10, "k_max": 100,
                                     "t_points": 200}

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

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "1e-400", "inf"])
    def test_scm_solve_bad_tol_exit_2(self, tmp_path, capsys, tol):
        degrees = tmp_path / "k.txt"
        degrees.write_text("3 3 2 2 4 1\n")
        assert run_cli("scm-solve", "--degrees-file", degrees, "--tol", tol,
                       "--out", tmp_path) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: tol must be finite and > 0, not ")

    def test_scm_solve_from_frozen_coordinates(self, tmp_path):
        out = tmp_path / "s2"
        assert run_cli("scm-solve", "--gamma", 2, "--nu", 10, "--n", 20,
                       "--seed", 8, "--out", out) == 0
        doc = json.loads((out / "scm.json").read_text())
        assert doc["residual"] == 0.0
        assert len(doc["multipliers"]) == 20

    def test_frozen_coordinates_ignore_tol_and_write_strict_json(self, tmp_path):
        # no solve runs on this path, so a bad --tol neither fails nor reaches
        # scm.json, where NaN would break strict JSON parsers
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        assert run_cli("scm-solve", "--gamma", 2, "--nu", 10, "--n", 50, "--seed", 1,
                       "--tol", "nan", "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "scm.json").read_text(), parse_constant=refuse)
        assert doc["config"] == {"gamma": 2.0, "nu": 10.0, "n": 50, "seed": 1}

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

    def test_scm_solve_degree_file_skips_comments_and_blank_lines(self, tmp_path):
        # degree files follow the edge-list line grammar
        degrees = tmp_path / "k.txt"
        degrees.write_text("# expected degrees\n0.2  # node 0\n\n   \n0.2\n")
        assert run_cli("scm-solve", "--degrees-file", degrees, "--tol", 1e-12,
                       "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "scm.json").read_text())
        assert doc["residual"] < 1e-12 and len(doc["multipliers"]) == 2

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

    # the growing chain is the HSCM only at gamma = 2; with --jobs 2 the
    # refusal comes back from a worker process
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("command", ["generate", "degrees"])
    def test_growing_sampler_off_gamma_2_exit_2(self, tmp_path, capsys, command, jobs):
        out = tmp_path / "out"
        assert run_cli(command, "--gamma", 1.5, "--nu", 10, "--n", 100, "--replicas", 2,
                       "--jobs", jobs, "--seed", 1, "--sampler", "growing", "--out", out) == 2
        assert "gamma=1.5" in capsys.readouterr().err
        assert list(out.iterdir()) == []  # no .edges file, no meta.json

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

        for name in ("sample_coordinates", "sample_graph_fast", "sample_graph_growing"):
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
        from hscm.errors import ConvergenceError

        def boom(p):
            raise ConvergenceError("synthetic failure")

        monkeypatch.setattr(cli_mod, "gibbs_entropy_bounds", boom)
        assert cli_mod.main(["entropy", "--gamma", "2", "--nu", "10",
                             "--sizes", "1000", "--out", str(tmp_path)]) == 3


def _cli_outcome(capsys, *argv):
    """Exit code of the command line, whether returned or raised, and its stderr."""
    try:
        code = run_cli(*argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def _comment_only_ingest(tmp_path, monkeypatch, capsys):
    path = tmp_path / "c.txt"
    path.write_text("# only a comment\n\n")
    return _cli_outcome(capsys, "ingest", "--path", path, "--out", tmp_path / "o")


def _degrees_in(tmp_path, capsys, files, n):
    graphs = tmp_path / "in"
    graphs.mkdir()
    for name, text in files.items():
        (graphs / name).write_text(text)
    return _cli_outcome(capsys, "degrees", "--gamma", 2, "--nu", 10, "--n", n, "--seed", 1,
                        "--in", graphs, "--out", tmp_path / "o")


def _headerless_degrees_in(tmp_path, monkeypatch, capsys):
    return _degrees_in(tmp_path, capsys, {"g.edges": "0 1\n1 2\n"}, 3)


def _empty_degrees_in(tmp_path, monkeypatch, capsys):
    return _degrees_in(tmp_path, capsys, {"notes.txt": "0 1\n"}, 3)


def _wrong_n_degrees_in(tmp_path, monkeypatch, capsys):
    return _degrees_in(tmp_path, capsys, {"g.edges": "# hscm v1 n=50 seed=1\n0 1\n"}, 60)


def _small_graph_ingest(tmp_path, monkeypatch, capsys):
    run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 50, "--seed", 1, "--out", tmp_path)
    code, _ = _cli_outcome(capsys, "ingest", "--path", tmp_path / "graph_000.edges",
                           "--out", tmp_path / "o")
    return code, json.loads((tmp_path / "o" / "summary.json").read_text())["tail_fit"]["error"]


def _memory_error_in_command(tmp_path, monkeypatch, capsys):
    import hscm.cli as cli_mod

    def exhaust(cfg):
        raise MemoryError("synthetic")

    monkeypatch.setattr(cli_mod, "cmd_theory", exhaust)
    return _cli_outcome(capsys, "theory", *MODEL, "--out", tmp_path)


def _empty_histogram(tmp_path, monkeypatch, capsys):
    from hscm.errors import DomainError
    from hscm.stats import degree_histogram

    with pytest.raises(DomainError) as exc:
        degree_histogram([])
    return "DomainError", str(exc.value)


def _tiny_nu(command, nu):
    def case(tmp_path, monkeypatch, capsys):
        return _cli_outcome(capsys, command, "--gamma", 2, "--nu", nu, "--n", 10,
                            *(("--seed", 1) if command == "generate" else ()), "--out", tmp_path)
    return case


# error branches that no other test reaches
@pytest.mark.parametrize("case, outcome, message", [
    (_comment_only_ingest, 4, "c.txt:0: no edges found"),
    (_headerless_degrees_in, 4, "g.edges:0: missing '# hscm v1' header"),
    (_empty_degrees_in, 2, "configuration error: no .edges files under"),
    (_wrong_n_degrees_in, 2, "graphs have n=50 but --n is 60"),
    (_small_graph_ingest, 0, "no cutoff leaves at least 100 tail samples"),
    (lambda tmp_path, monkeypatch, capsys: _cli_outcome(
        capsys, "entropy", "--gamma", 2, "--nu", 10, "--sizes", "10,x", "--out", tmp_path),
     2, "--sizes must be comma-separated integers"),
    (lambda tmp_path, monkeypatch, capsys: _cli_outcome(
        capsys, "scm-solve", "--gamma", 2, "--out", tmp_path),
     2, "scm-solve needs --degrees-file or all of --gamma/--nu/--n/--seed"),
    # an empty --degrees-file name took the frozen-coordinates path without --gamma
    (lambda tmp_path, monkeypatch, capsys: _cli_outcome(
        capsys, "scm-solve", "--degrees-file", "", "--out", tmp_path),
     4, "i/o error: "),
    (lambda tmp_path, monkeypatch, capsys: _cli_outcome(
        capsys, "degrees", *MODEL, "--out", tmp_path),
     2, "degrees needs --seed to sample graphs"),
    (lambda tmp_path, monkeypatch, capsys: _cli_outcome(
        capsys, "generate", *MODEL, "--out", tmp_path),
     2, "generate needs --seed to sample graphs"),
    (lambda tmp_path, monkeypatch, capsys: _cli_outcome(
        capsys, "theory", *MODEL, "--k-max", 1.5, "--out", tmp_path),
     2, "invalid integer '1.5'"),
    (_memory_error_in_command, 2,
     "configuration error: not enough memory for n=100, k_max=100, t_points=200: synthetic"),
    (_empty_histogram, "DomainError", "no graphs given"),
    # beta^2 nu of 0 divided by zero in r_n, and a subnormal one failed the
    # pmf's seed quadrature
    (_tiny_nu("theory", 5e-324), 2, "configuration error: beta^2 nu must be a normal float "
     "(>= 2.2250738585072014e-308), got 0.0 for gamma=2.0, nu=5e-324"),
    (_tiny_nu("generate", 5e-324), 2, "got 0.0 for gamma=2.0, nu=5e-324"),
    (_tiny_nu("theory", 1e-310), 2, "got 2.5e-311 for gamma=2.0, nu=1e-310"),
], ids=["ingest-comments-only", "degrees-in-no-header", "degrees-in-no-edges-files",
        "degrees-in-wrong-n", "ingest-tail-fit-error", "entropy-sizes-not-integers",
        "scm-solve-gamma-only", "scm-solve-empty-degrees-file", "degrees-no-seed",
        "generate-no-seed", "k-max-not-integer", "memory-error", "empty-histogram",
        "theory-nu-underflows", "generate-nu-underflows", "theory-nu-subnormal"])
def test_error_branch(case, outcome, message, tmp_path, monkeypatch, capsys):
    got, text = case(tmp_path, monkeypatch, capsys)
    assert got == outcome
    assert message in text and "Traceback" not in text


@pytest.mark.parametrize("degrees", ["0.001 0.001 1", "1e-300 1e-300 1"])
def test_scm_solve_zero_hessian_exit_3(degrees, tmp_path, capsys):
    path = tmp_path / "k.txt"
    path.write_text(degrees + "\n")
    assert run_cli("scm-solve", "--degrees-file", path, "--out", tmp_path) == 3
    assert "numerical failure: non-finite Newton step" in capsys.readouterr().err


_DEGREES_FIELDS = {"avg_degree_empirical", "avg_degree_empirical_se", "avg_degree_finite_n",
                   "avg_degree_asymptotic", "tv_asymptotic", "tv_finite_n", "tail_exponent",
                   "graphs"}
_SCM_FIELDS = {"n", "residual", "residual_path", "cg_iterations", "expected_degrees",
               "multipliers"}


# every option but --out and --jobs, less the options a run ignores: scm-solve
# records only those of its source, and degrees --in records no seed
@pytest.mark.parametrize("argv, name, config, fields", [
    (["generate", "--gamma", 2, "--nu", 10, "--n", 300, "--replicas", 2, "--seed", 5,
      "--jobs", 2],
     "meta.json",
     {"gamma": 2.0, "nu": 10.0, "n": 300, "replicas": 2, "seed": 5, "sampler": "fast"},
     {"replicas"}),
    (["degrees", "--gamma", 2, "--nu", 10, "--n", 200, "--seed", 4, "--k-max", 20],
     "summary.json",
     {"gamma": 2.0, "nu": 10.0, "n": 200, "replicas": 1, "seed": 4, "sampler": "fast",
      "k_max": 20, "input_dir": None},
     _DEGREES_FIELDS),
    (["degrees", "--gamma", 2, "--nu", 10, "--n", 200, "--seed", 4, "--replicas", 2,
      "--in", "g"],
     "summary.json",
     {"gamma": 2.0, "nu": 10.0, "n": 200, "replicas": None, "seed": None, "sampler": None,
      "k_max": 100, "input_dir": "g"},
     _DEGREES_FIELDS),
    (["entropy", "--gamma", 2, "--nu", 10, "--sizes", "1000,10000"],
     "summary.json",
     {"gamma": 2.0, "nu": 10.0, "sizes": [1000, 10000]},
     set()),
    (["theory", "--gamma", 2, "--nu", 10, "--n", 1000, "--k-max", 30, "--t-points", 7],
     "summary.json",
     {"gamma": 2.0, "nu": 10.0, "n": 1000, "k_max": 30, "t_points": 7},
     {"expected_avg_degree_finite_n", "expected_avg_degree_asymptotic", "r_n"}),
    (["scm-solve", "--degrees-file", "k.txt", "--gamma", 2, "--tol", 1e-9],
     "scm.json",
     {"degrees_file": "k.txt", "tol": 1e-9},
     _SCM_FIELDS),
    (["scm-solve", "--gamma", 2, "--nu", 10, "--n", 30, "--seed", 8, "--tol", 1e-9],
     "scm.json",
     {"gamma": 2.0, "nu": 10.0, "n": 30, "seed": 8},
     _SCM_FIELDS),
    (["ingest", "--path", "g/graph_000.edges"],
     "summary.json",
     {"path": "g/graph_000.edges"},
     {"n", "edges", "duplicates_dropped", "self_loops_dropped", "avg_degree", "tail_fit"}),
], ids=["generate", "degrees", "degrees-in", "entropy", "theory", "scm-solve-file",
        "scm-solve-frozen", "ingest"])
def test_summary_config_is_every_option_but_out_and_jobs(argv, name, config, fields,
                                                         tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("generate", "--gamma", 2, "--nu", 10, "--n", 200, "--replicas", 2, "--seed", 3,
            "--out", "g")
    (tmp_path / "k.txt").write_text("1 1 2 2\n")
    assert run_cli(*argv, "--out", "o") == 0
    doc = strict_json(tmp_path / "o" / name)
    assert doc["command"] == argv[0]
    assert doc["config"] == config
    assert set(doc) == {"command", "config", "schema_version"} | fields


def test_main_is_the_only_output_writer():
    # cli.py calls write_json and write_csv once each, in main, and no command
    # returns 0 in place of its outputs, so every output passes one place
    import hscm.cli as cli_mod

    with open(cli_mod.__file__) as fh:
        tree = ast.parse(fh.read())
    calls = [getattr(node.func, "attr", getattr(node.func, "id", None))
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert (calls.count("write_json"), calls.count("write_csv")) == (1, 1)
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 6
    returns_zero = [command.name for command in commands for node in ast.walk(command)
                    if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                    and node.value.value == 0]
    assert not returns_zero, f"commands that return 0: {returns_zero}"


def test_each_exit_code_catches_one_error_class():
    # every except clause of cli.main names at most one class of hscm.errors,
    # so no error class exists only to be caught beside a twin
    import hscm.cli as cli_mod
    import hscm.errors as errors_mod

    with open(cli_mod.__file__) as fh:
        tree = ast.parse(fh.read())
    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    ours = {name for name, value in vars(errors_mod).items()
            if isinstance(value, type) and issubclass(value, errors_mod.HscmError)}
    handlers = [node for node in ast.walk(main_def) if isinstance(node, ast.ExceptHandler)]
    assert handlers
    for handler in handlers:
        names = [node.id for node in ast.walk(handler.type) if isinstance(node, ast.Name)]
        assert len(ours.intersection(names)) <= 1, f"line {handler.lineno} catches {names}"
