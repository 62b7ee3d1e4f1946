"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[ACCEPTANCE k] PASS/FAIL` line (visible with `pytest -s`
or in captured output).  The heavy 100-replica ensembles are session fixtures
shared across criteria 1-3.
"""

import math

import numpy as np
import pytest
from scipy import stats as sps

from conftest import ACCEPT_SEED
from oracles import (mixed_poisson_pmf_oracle, mixing, prefix, rescaled_entropy_series,
                     verify_graphon_maximality)
from hscm import rng
from hscm.entropy import gibbs_entropy_bounds
from hscm.graphon import w_fermi_dirac
from hscm.params import derive_params
from hscm.sampler import sample_coordinates, sample_graph_fast, \
    sample_graph_growing, sample_graph_naive
from hscm.scm import hscm_to_scm, solve_scm
from hscm.stats import compare_to_theory
from hscm.theory import DegreeLaw, expected_avg_degree_finite_n


def _report(criterion, passed, detail):
    print(f"[ACCEPTANCE {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- criteria 1 and 2: average-degree reproduction and quadrature agreement --

REFERENCE_AVG = {(2.0, 10.0, 10**4): 9.96, (2.0, 10.0, 10**5): 9.98,
             (1.1, 4.92, 10**4): 1.73, (1.1, 4.92, 10**5): 2.16}


@pytest.fixture(scope="module")
def avg_degree_table(hist_g2_e4, hist_g2_e5, hist_g11_e4, hist_g11_e5):
    hists = {(2.0, 10.0, 10**4): hist_g2_e4, (2.0, 10.0, 10**5): hist_g2_e5,
             (1.1, 4.92, 10**4): hist_g11_e4, (1.1, 4.92, 10**5): hist_g11_e5}
    table = {}
    for key, hist in hists.items():
        gamma, nu, n = key
        table[key] = (hist.mean_degree(), hist.mean_degree_se(),
                      expected_avg_degree_finite_n(derive_params(gamma, nu, n)))
    return table


def test_criterion_1_average_degree_reproduction(avg_degree_table):
    details = []
    ok = True
    for key, target in REFERENCE_AVG.items():
        mean, _, _ = avg_degree_table[key]
        good = abs(mean - target) <= 0.05
        ok &= good
        details.append(f"{key}: {mean:.4f} vs {target} (|d|={abs(mean - target):.4f})")
    _report(1, ok, "; ".join(details))


def test_criterion_2_quadrature_simulation_agreement(avg_degree_table):
    details = []
    ok = True
    for key, (mean, se, quad) in avg_degree_table.items():
        good = abs(mean - quad) <= 3.0 * se
        ok &= good
        details.append(f"{key}: |{mean:.4f}-{quad:.4f}| <= 3*{se:.4f}")
    _report(2, ok, "; ".join(details))


# -- criterion 3: degree-law reproduction at n = 1e5, gamma = 2 --

def test_criterion_3_degree_law_tv(hist_g2_e5):
    p = derive_params(2.0, 10.0, 10**5)
    rep = compare_to_theory(hist_g2_e5, p, k_max=100)
    ok = rep.tv_asymptotic <= 0.02 and rep.tv_finite_n <= 0.01
    _report(3, ok, f"TV(asymptotic)={rep.tv_asymptotic:.5f} (<=0.02), "
                   f"TV(finite-n)={rep.tv_finite_n:.5f} (<=0.01)")


# -- criterion 4: dual-route pmf oracle --

def test_criterion_4_dual_route_pmf():
    worst = 0.0
    for gamma, nu in ((1.1, 4.92), (2.0, 10.0), (3.5, 2.0)):
        law = DegreeLaw(derive_params(gamma, nu, 10**4))
        closed = law.pmf_array(100)
        for k in range(101):
            brute = mixed_poisson_pmf_oracle(mixing(law), k)
            worst = max(worst, abs(closed[k] - brute) / brute)
    ok = worst <= 1e-8
    _report(4, ok, f"worst relative gap over k<=100, three shapes: {worst:.2e} (<=1e-8)")


# -- criterion 5: graphon entropy scaling --

def test_criterion_5_entropy_scaling():
    series = rescaled_entropy_series(2.0, 10.0, [10**3, 10**4, 10**5, 10**6])
    devs = [abs(v - 10.0) for _, v in series]
    decreasing = all(a > b for a, b in zip(devs, devs[1:]))
    fitted_c = devs[-1] * math.log(10**6) / 10.0
    ok = decreasing and fitted_c <= 3.0
    _report(5, ok, f"deviations {['%.3f' % d for d in devs]} decreasing={decreasing}, "
                   f"C={fitted_c:.2f} (<=3)")


# -- criterion 6: Gibbs sandwich --

def test_criterion_6_gibbs_sandwich():
    reports = [gibbs_entropy_bounds(derive_params(2.0, 10.0, n))
               for n in (10**3, 10**4, 10**5, 10**6)]
    ordered = all(r.gibbs_lower <= r.gibbs_upper for r in reports)
    widths = [r.gibbs_upper_rescaled - r.gibbs_lower_rescaled for r in reports]
    shrinking = all(a > b for a, b in zip(widths, widths[1:]))
    lo, hi = reports[-1].gibbs_lower_rescaled, reports[-1].gibbs_upper_rescaled
    within = abs(lo - 10.0) <= 1.5 and abs(hi - 10.0) <= 1.5
    ok = ordered and shrinking and within
    _report(6, ok, f"widths {['%.3f' % w for w in widths]} shrinking={shrinking}; "
                   f"n=1e6 bracket [{lo:.3f}, {hi:.3f}] within 15% of 10")


# -- criterion 7: sampler exactness --

def _pair_edge_fast(x0, x1, seeds):
    """Vectorized 2-node replica of the fast sampler's decision path."""
    lo, hi = min(x0, x1), max(x0, x1)
    s = lo + hi
    w = w_fermi_dirac(lo, hi)
    pb = 1.0 if s <= 0 else math.exp(-s)
    seeds = np.asarray(seeds, dtype=np.uint64)
    row = np.uint64(0)
    if pb < 1.0:
        u1 = rng.uniform(seeds, rng.TAG_EDGE_FAST, row, np.uint64(0))
        skip = np.floor(np.log1p(-u1) / math.log1p(-pb))
        u2 = rng.uniform(seeds, rng.TAG_EDGE_FAST, row, np.uint64(1))
        return (skip == 0) & (u2 * pb < w)
    u2 = rng.uniform(seeds, rng.TAG_EDGE_FAST, row, np.uint64(0))
    return u2 < w


def test_criterion_7_sampler_exactness():
    # (a) two-sample tests fast vs naive at n = 500, 500 replicas
    p = derive_params(2.0, 10.0, 500)
    coords = sample_coordinates(p, 31337)
    mf, mn = [], []
    df = np.zeros(400, dtype=np.int64)
    dn = np.zeros(400, dtype=np.int64)
    for r in range(500):
        gf = sample_graph_fast(coords, 2 * r)
        gn = sample_graph_naive(coords, 2 * r + 1)
        mf.append(gf.num_edges)
        mn.append(gn.num_edges)
        df += np.bincount(gf.degrees(), minlength=400)[:400]
        dn += np.bincount(gn.degrees(), minlength=400)[:400]
    ks_p = sps.ks_2samp(mf, mn).pvalue
    K = 40
    of = np.append(df[:K], df[K:].sum())
    on = np.append(dn[:K], dn[K:].sum())
    keep = (of + on) >= 10
    chi_p = sps.chi2_contingency(np.vstack([of[keep], on[keep]]))[1]
    two_sample_ok = ks_p > 0.01 and chi_p > 0.01

    # (b) per-pair acceptance frequency on 10 fixed pairs x 1e6 trials
    base = sample_coordinates(derive_params(2.0, 10.0, 1000), 99)
    pairs = [(base[i], base[-1 - i]) for i in range(0, 20, 2)]
    seeds_small = np.arange(2000, dtype=np.uint64)
    seeds_big = np.arange(10**6, dtype=np.uint64)
    freq_ok = True
    ident_ok = True
    worst_z = 0.0
    for x0, x1 in pairs:
        cs = np.array([x0, x1])
        via_sampler = np.array([sample_graph_fast(cs, int(s)).num_edges > 0
                                for s in seeds_small])
        via_helper = _pair_edge_fast(x0, x1, seeds_small)
        ident_ok &= bool(np.array_equal(via_sampler, via_helper))
        w = w_fermi_dirac(x0, x1)
        hits = float(np.mean(_pair_edge_fast(x0, x1, seeds_big)))
        z = abs(hits - w) / math.sqrt(w * (1 - w) / seeds_big.size)
        worst_z = max(worst_z, z)
        freq_ok &= z <= 4.0
    ok = two_sample_ok and ident_ok and freq_ok
    _report(7, ok, f"KS p={ks_p:.3f}, chi2 p={chi_p:.3f} (alpha=0.01); "
                   f"helper==sampler on 2000 seeds: {ident_ok}; "
                   f"max |z| over 10 pairs x 1e6 trials: {worst_z:.2f} (<=4)")


# -- criterion 8: projectivity of the growing sampler --

def test_criterion_8_projectivity():
    g_big, c_big = sample_graph_growing(derive_params(2.0, 10.0, 2000), ACCEPT_SEED)
    g_small, c_small = sample_graph_growing(derive_params(2.0, 10.0, 1000), ACCEPT_SEED)
    edges_ok = prefix(g_big, 1000).edges.tobytes() == g_small.edges.tobytes()
    coords_ok = c_big[:1000].tobytes() == c_small.tobytes()
    ok = edges_ok and coords_ok
    _report(8, ok, f"first-1000 truncation byte-identical: edges={edges_ok}, "
                   f"coords={coords_ok}")


# -- criterion 9: graphon maximality --

def test_criterion_9_graphon_maximality():
    rep = verify_graphon_maximality(derive_params(2.0, 10.0, 10**4),
                                    trials=100, seed=ACCEPT_SEED, grid=200)
    ratios_ok = bool(np.all((rep.ratios >= 50.0) & (rep.ratios <= 200.0)))
    ok = rep.violations == 0 and ratios_ok
    _report(9, ok, f"violations={rep.violations}/400 evaluations, "
                   f"eps^2 ratio range [{rep.ratios.min():.1f}, {rep.ratios.max():.1f}] "
                   f"within [50, 200]")


# -- criterion 10: SCM solver --

def test_criterion_10_scm_solver():
    inst_a = solve_scm([0.5, 0.5], tol=1e-13)
    inst_b = solve_scm([0.2, 0.2], tol=1e-13)
    exact_a = float(np.max(np.abs(inst_a.multipliers)))
    exact_b = float(np.max(np.abs(inst_b.multipliers - 0.5 * math.log(4.0))))
    two_node_ok = exact_a <= 1e-12 and exact_b <= 1e-12

    p = derive_params(2.0, 10.0, 50)
    frozen = hscm_to_scm(sample_coordinates(p, ACCEPT_SEED))
    solved = solve_scm(frozen.expected_degrees, tol=1e-12)
    lam_gap = float(np.max(np.abs(solved.multipliers - frozen.multipliers)))
    round_trip_ok = solved.residual < 1e-8 and lam_gap < 1e-8
    ok = two_node_ok and round_trip_ok
    _report(10, ok, f"two-node gaps ({exact_a:.1e}, {exact_b:.1e}) <= 1e-12; "
                    f"n=50 round-trip residual {solved.residual:.1e} < 1e-8, "
                    f"multiplier gap {lam_gap:.1e}")
