"""Acceptance suite: one test per criterion, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
Statistical criteria use fixed master seeds; every threshold and tolerance is
pinned here, none are calibrated at runtime.
"""

import io
import math
import time
from itertools import combinations

import numpy as np
import pytest
from scipy import stats as sps

from hypertail import (
    NicenessParams,
    TrialConfig,
    TrialStream,
    build_rooted,
    build_schedule,
    check_nice,
    check_degree_moment,
    chi_square_two_sample,
    complete,
    complete_bipartite,
    disjoint_edges,
    edge_count_samples,
    estimate_tail,
    exact_distribution,
    exact_expectation,
    exact_variance,
    is_balanced,
    main_bound,
    mcdiarmid,
    random_uniform,
    regime,
    rooted_graph,
    run_exposure,
    stats_of,
    subgraph_hypergraph,
    z_identity_check,
)
from hypertail.cli import dispatch
from hypertail.core import HypergraphStats
from hypertail.montecarlo import LANE_DIRECT, LANE_EXPOSURE
from hypertail.percolation import codegree_sums, lipschitz_bound, surviving_degrees

EXPOSURE_TRIALS = 100_000
EXPOSURE_SEED = 202


def announce(number, name, ok, detail):
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------------------------
# criterion 1: binomial oracle
# --------------------------------------------------------------------------


def test_criterion_01_binomial_oracle():
    H = disjoint_edges(200, 3)
    p, trials = 0.3, 100_000
    sigma2 = 200 * 0.027 * 0.973
    sigma = math.sqrt(sigma2)
    cfg = TrialConfig(master_seed=101, trials=trials, significance=0.01)
    started = time.perf_counter()
    xs = edge_count_samples(H, p, cfg)
    thresholds = [sigma, 2 * sigma, 3 * sigma]
    estimates = estimate_tail(H, p, thresholds, cfg, samples=xs)
    elapsed = time.perf_counter() - started

    mean_ok = abs(xs.mean() - 5.4) <= 3 * sigma / math.sqrt(trials)
    coverage = []
    for est in estimates:
        lo_cut = math.floor(5.4 - est.threshold)
        hi_cut = math.ceil(5.4 + est.threshold)
        exact = sps.binom.cdf(lo_cut, 200, 0.027) + sps.binom.sf(hi_cut - 1, 200, 0.027)
        coverage.append(est.ci_low <= exact <= est.ci_high)
    ok = mean_ok and all(coverage) and elapsed < 60
    announce(
        1,
        "binomial oracle",
        ok,
        f"mean={xs.mean():.4f} (target 5.4), CI coverage={coverage}, {elapsed:.1f}s",
    )
    assert mean_ok
    assert all(coverage)
    assert elapsed < 60


# --------------------------------------------------------------------------
# criterion 2: exact-moment agreement
# --------------------------------------------------------------------------


def test_criterion_02_exact_moment_agreement():
    instances = [subgraph_hypergraph(complete(3), 4)]
    instances += [random_uniform(12, 14, 3, seed=s) for s in range(5)]
    worst = 0.0
    for H in instances:
        for p in (0.1, 0.5, 0.9):
            dist = exact_distribution(H, p)
            worst = max(worst, abs(dist.mean() - exact_expectation(H, p)))
            worst = max(worst, abs(dist.variance() - exact_variance(H, p)))
    triangle = subgraph_hypergraph(complete(3), 4)
    pinned_ok = (
        abs(exact_expectation(triangle, 0.5) - 0.5) <= 1e-12
        and abs(exact_variance(triangle, 0.5) - 0.625) <= 1e-12
        and abs(exact_distribution(triangle, 0.5).variance() - 0.625) <= 1e-12
    )
    ok = worst <= 1e-12 and pinned_ok
    announce(2, "exact moments", ok, f"max |enumeration - closed form| = {worst:.2e}")
    assert worst <= 1e-12
    assert pinned_ok


# --------------------------------------------------------------------------
# criteria 3-5 share one chained-exposure campaign
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exposure_campaign():
    H = subgraph_hypergraph(complete(3), 12)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    assert schedule.epsilon == pytest.approx(0.5, rel=1e-12)

    started = time.perf_counter()
    x_final = np.empty(EXPOSURE_TRIALS, dtype=np.int64)
    identity_violations = 0
    monotonicity_violations = 0
    for t in range(EXPOSURE_TRIALS):
        states = run_exposure(H, schedule, TrialStream(EXPOSURE_SEED, t, LANE_EXPOSURE))
        prev_kept = None
        for state in states:
            alive = state.kept[H.edges_arr].all(axis=1)
            x_check = int(alive.sum())
            deg = surviving_degrees(H, alive)
            if x_check != state.edge_count or int(deg.sum()) != H.k * state.edge_count:
                identity_violations += 1
            csum = codegree_sums(H, alive)
            if not (csum <= (H.k - 1) * deg).all():
                identity_violations += 1
            if prev_kept is not None and (state.kept & ~prev_kept).any():
                monotonicity_violations += 1
            prev_kept = state.kept
        x_final[t] = states[-1].edge_count
    x_direct = edge_count_samples(
        H, 0.125, TrialConfig(master_seed=EXPOSURE_SEED, trials=EXPOSURE_TRIALS), lane=LANE_DIRECT
    )
    elapsed = time.perf_counter() - started
    return {
        "H": H,
        "schedule": schedule,
        "x_final": x_final,
        "x_direct": x_direct,
        "identity_violations": identity_violations,
        "monotonicity_violations": monotonicity_violations,
        "elapsed": elapsed,
    }


def test_criterion_03_exposure_equivalence(exposure_campaign):
    c = exposure_campaign
    result = chi_square_two_sample(c["x_final"], c["x_direct"])
    ok = result.pvalue >= 0.01 and c["elapsed"] < 300
    announce(
        3,
        "exposure equivalence",
        ok,
        f"chi2 p={result.pvalue:.3f} over {result.bins} bins, campaign {c['elapsed']:.0f}s",
    )
    assert result.pvalue >= 0.01
    assert c["elapsed"] < 300


def test_criterion_04_round_identities(exposure_campaign):
    c = exposure_campaign
    ok = c["identity_violations"] == 0 and c["monotonicity_violations"] == 0
    announce(
        4,
        "round identities",
        ok,
        f"identity violations={c['identity_violations']}, "
        f"monotonicity violations={c['monotonicity_violations']} over {EXPOSURE_TRIALS} trials",
    )
    assert c["identity_violations"] == 0
    assert c["monotonicity_violations"] == 0


def recount(H, kept):
    alive = kept[H.edges_arr].all(axis=1)
    deg = surviving_degrees(H, alive)
    return int(alive.sum()), int((deg**2).sum())


def test_criterion_05_lipschitz_toggle_audit(exposure_campaign):
    c = exposure_campaign
    H, schedule = c["H"], c["schedule"]
    rng = np.random.default_rng(55)
    audits = x_violations = y_violations = 0
    while audits < 1000:
        trial = int(rng.integers(0, EXPOSURE_TRIALS))
        i = int(rng.integers(0, schedule.rounds))
        states = run_exposure(H, schedule, TrialStream(EXPOSURE_SEED, trial, LANE_EXPOSURE))
        survivors = np.flatnonzero(states[i].kept)
        if survivors.size == 0:
            continue
        v = int(rng.choice(survivors))
        x_base, y_base = recount(H, states[i + 1].kept)
        flipped = states[i + 1].kept.copy()
        flipped[v] = not flipped[v]
        x_new, y_new = recount(H, flipped)
        if abs(x_new - x_base) > states[i].deg[v]:
            x_violations += 1
        if abs(y_new - y_base) > lipschitz_bound(H, states[i], v):
            y_violations += 1
        audits += 1
    ok = x_violations == 0 and y_violations == 0
    announce(
        5,
        "toggle audit",
        ok,
        f"{audits} audited triples, edge-count violations={x_violations}, "
        f"deg-square violations={y_violations}",
    )
    assert x_violations == 0
    assert y_violations == 0


# --------------------------------------------------------------------------
# criterion 6: conditional second-moment check
# --------------------------------------------------------------------------


def test_criterion_06_conditional_moment_check():
    targets = [
        (subgraph_hypergraph(complete(3), 12), 30),
        (disjoint_edges(50, 3), 20),
    ]
    checked = 0
    failures = 0
    for H, quota in targets:
        schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
        taken = 0
        trial = 0
        while taken < quota:
            states = run_exposure(H, schedule, TrialStream(606, trial, LANE_EXPOSURE))
            for i in range(schedule.rounds):
                if taken >= quota:
                    break
                state = states[i]
                survivors = np.flatnonzero(state.kept & (state.deg > 0))
                if survivors.size == 0:
                    continue
                v = int(survivors[taken % survivors.size])
                report = check_degree_moment(
                    H,
                    state,
                    schedule,
                    TrialConfig(master_seed=606 + 1000 * trial + i, trials=1),
                    vertices=[v],
                    continuations=10_000,
                )
                entry = report.entries[0]
                checked += 1
                taken += 1
                if not entry.holds:
                    failures += 1
            trial += 1
    ok = failures == 0 and checked == 50
    announce(6, "conditional second moment", ok, f"{checked} samples, {failures} exceedances")
    assert checked == 50
    assert failures == 0


# --------------------------------------------------------------------------
# criterion 7: formula evaluators on pinned parameter sets
# --------------------------------------------------------------------------

MAIN_BOUND_CASES = [
    (
        (45, 120, 3, 8, 1e-3, 3, 10, 1, 1),
        (0.00037022941226003865, 3.9998874077690881, 0.0023578970524510935, 30.455261393750974),
    ),
    (
        (4950, 161700, 3, 98, 5e-4, 8, 100, 0.5, 0.01),
        (1.0545850747458425, 3.9999988890706268, 0.074213331216133825, 86.000135711246505),
    ),
    (
        (600, 200, 3, 1, 1e-3, 2, 5, 2, 0.1),
        (1.3409755546991811, 3.9999887973141928, 0.003755221102269435, 68.331546501693281),
    ),
    (
        (210, 5000, 4, 40, 8e-4, 5, 50, 1, 0.05),
        (0.57300959373426814, 3.9999961566116, 0.00046825663364074977, 48.904706971377361),
    ),
    (
        (66, 220, 3, 10, 1e-4, 4, 7, 0.3, 0.02),
        (1.4605278211964019, 3.9999997954908576, 0.0001214722102153044, 45.755450846440064),
    ),
]

MCDIARMID_CASES = [
    ((2.0, (1, 1, 1, 1)), 0.27067056647322538),
    ((0.7, (0.3, 0.5, 1.2)), 1.0),
    ((5.0, (2,) * 10), 0.5730095937203802),
]

REGIME_CASES = [
    (
        (complete(3), 50, 0.05),
        (1.0, 0.5, 0.001639344262295082, 0.024320835813173147, 0.11629646063455598,
         31.296184043425168, 1.0064337607613585),
    ),
    (
        (complete_bipartite(3, 3), 30, 0.01),
        (2 / 3, 0.5, 0.00011098779134295228, 0.10715778041943386, 0.17646889249174869,
         27.209579053297243, 1.0003775626441514),
    ),
]


def rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


def test_criterion_07_formula_evaluators():
    worst = 0.0
    for (n, m, k, dmax, p, lam, cap, b, bk), (g1, g2, window, raw) in MAIN_BOUND_CASES:
        stats = HypergraphStats(n=n, m=m, k=k, max_degree=dmax, min_degree=dmax, max_codegree=1)
        mb = main_bound(stats, NicenessParams(p=p, lam=lam, gamma_cap=cap, b=b, b_k=bk))
        for got, want in [(mb.gamma1, g1), (mb.gamma2, g2), (mb.window, window), (mb.prob_bound_raw, raw)]:
            worst = max(worst, abs(got - want) / abs(want))
    for (t, coeffs), want in MCDIARMID_CASES:
        worst = max(worst, abs(mcdiarmid(t, coeffs) - want) / abs(want))
    for (spec, N, c1), want in REGIME_CASES:
        reg = regime(spec, N, c1)
        got = (reg.rho1, reg.rho2, reg.c2, *reg.p_range, *reg.lambda_range)
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w) / abs(w))
    pinned_ok = worst <= 1e-12

    # derived fact: the triangle pattern at N=100 fails the co-degree condition
    stats = stats_of(subgraph_hypergraph(complete(3), 100))
    report = check_nice(stats, NicenessParams(p=1e-3, lam=3, gamma_cap=10, b=1, n0=10))
    k3_fact = (not report.p3.holds) and rel_err(report.p3.rhs, 98 / math.log(4950) ** 3) <= 1e-12

    # monotonicity on pinned grids
    stats_m = HypergraphStats(n=4950, m=161700, k=3, max_degree=98, min_degree=98, max_codegree=1)
    lam_vals = [
        main_bound(stats_m, NicenessParams(p=5e-4, lam=lam, gamma_cap=10, b=1, b_k=0.01)).prob_bound_raw
        for lam in (1, 2, 4, 8, 16, 32)
    ]
    m_vals = [
        main_bound(
            HypergraphStats(n=4950, m=m, k=3, max_degree=98, min_degree=98, max_codegree=1),
            NicenessParams(p=5e-4, lam=8, gamma_cap=10, b=1, b_k=0.01),
        ).prob_bound_raw
        for m in (10**3, 10**4, 10**5, 10**6)
    ]
    monotone_ok = lam_vals == sorted(lam_vals, reverse=True) and m_vals == sorted(m_vals, reverse=True)

    # exact scale invariance under power-of-two rescaling
    base = mcdiarmid(1.3, [0.25, 1.5, 0.75])
    scale_ok = (
        mcdiarmid(2 * 1.3, [0.5, 3.0, 1.5]) == base
        and mcdiarmid(0.25 * 1.3, [0.0625, 0.375, 0.1875]) == base
    )

    # tail-estimate monotonicity in the threshold on a pinned grid
    H = disjoint_edges(50, 3)
    cfg = TrialConfig(master_seed=707, trials=2000)
    counts = [e.exceed_count for e in estimate_tail(H, 0.3, [0.5, 1, 2, 4, 8], cfg)]
    tail_ok = counts == sorted(counts, reverse=True)

    ok = pinned_ok and k3_fact and monotone_ok and scale_ok and tail_ok
    announce(
        7,
        "formula evaluators",
        ok,
        f"10 pinned sets, worst rel err = {worst:.2e}; monotonicity + scale-invariance hold",
    )
    assert pinned_ok
    assert k3_fact
    assert monotone_ok
    assert scale_ok
    assert tail_ok


# --------------------------------------------------------------------------
# criterion 8: extension identity
# --------------------------------------------------------------------------


def test_criterion_08_extension_identity():
    cases = [(complete(3), 8), (complete(4), 10)]
    all_equal = True
    expectation_ok = True
    details = []
    for spec, N in cases:
        for q in (0.3, 0.7):
            report = z_identity_check(
                spec,
                N,
                q,
                TrialConfig(master_seed=808, trials=1),
                conditioned_target=10_000,
            )
            all_equal &= report.all_equal and report.trials_conditioned == 10_000
            gap = abs(report.z1_mean - report.expected_z1)
            expectation_ok &= gap <= 4 * max(report.z1_stderr, 1e-12)
            details.append(f"{spec.label}@q={q}: {report.mismatches} mismatches")
    ok = all_equal and expectation_ok
    announce(8, "extension identity", ok, "; ".join(details))
    assert all_equal
    assert expectation_ok


# --------------------------------------------------------------------------
# criterion 9: balancedness
# --------------------------------------------------------------------------


def oracle_is_balanced(rg):
    edges = {frozenset(e) for e in rg.edges}
    roots = set(range(rg.root_count))
    nonroots = [v for v in range(rg.vertex_count) if v not in roots]

    def density(vertices):
        chosen = [e for e in edges if e <= vertices and not e <= roots]
        return len(chosen) / len(vertices - roots)

    full = density(set(range(rg.vertex_count)))
    return all(
        density(roots | set(chosen)) <= full
        for size in range(1, len(nonroots) + 1)
        for chosen in combinations(nonroots, size)
    )


def test_criterion_09_balancedness():
    asserted_cases_ok = True
    for spec in (complete(4), complete(5), complete_bipartite(2, 2), complete_bipartite(2, 3)):
        for roots in (2, 3):
            asserted_cases_ok &= is_balanced(build_rooted(spec, roots))

    rng = np.random.default_rng(909)
    disagreements = 0
    cases = 0
    while cases < 500:
        total = int(rng.integers(2, 7))
        root_count = int(rng.integers(1, total))
        pairs = list(combinations(range(total), 2))
        mask = rng.random(len(pairs)) < rng.uniform(0.2, 0.9)
        edges = [pair for pair, keep in zip(pairs, mask) if keep]
        rg = rooted_graph(total, root_count, edges)
        if is_balanced(rg) != oracle_is_balanced(rg):
            disagreements += 1
        cases += 1
    ok = asserted_cases_ok and disagreements == 0
    announce(
        9,
        "balancedness",
        ok,
        f"asserted patterns balanced={asserted_cases_ok}, {cases} random cases, "
        f"{disagreements} disagreements",
    )
    assert asserted_cases_ok
    assert disagreements == 0


# --------------------------------------------------------------------------
# criterion 10: determinism
# --------------------------------------------------------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, stdout=out, stderr=err)
    assert code == 0, err.getvalue()
    return out.getvalue()


def test_criterion_10_determinism(tmp_path):
    path = tmp_path / "d.hgr"
    run_cli(["gen", "--family", "disjoint", "--m", "60", "--k", "3", "--out", str(path)])
    replays_ok = True
    byte_checks = 0
    for argv in (
        ["simulate", "--in", str(path), "--p", "0.3", "--task", "tail",
         "--thresholds", "1,2,4", "--trials", "3000", "--seed", "4242"],
        ["simulate", "--in", str(path), "--p", "0.3", "--task", "subgaussian",
         "--lambdas", "1,2", "--trials", "2000", "--seed", "4242"],
        ["expose", "--in", str(path), "--p", "0.125", "--eps-range", "0.1,0.5",
         "--force-rounds", "3", "--trials", "300", "--seed", "4242"],
        ["ext", "--task", "zcheck", "--family", "complete", "--r", "3", "--N", "7",
         "--q", "0.5", "--trials", "400", "--seed", "4242"],
    ):
        first, second = run_cli(argv), run_cli(argv)
        replays_ok &= first == second
        byte_checks += 1

    H = disjoint_edges(60, 3)
    counts = {}
    for workers in (1, 8):
        cfg = TrialConfig(master_seed=4242, trials=10_000, workers=workers)
        counts[workers] = [e.exceed_count for e in estimate_tail(H, 0.3, [1.0, 2.0, 4.0], cfg)]
    workers_ok = counts[1] == counts[8]

    ok = replays_ok and workers_ok
    announce(
        10,
        "determinism",
        ok,
        f"{byte_checks} byte-identical replays; workers 1 vs 8 counts equal={workers_ok}",
    )
    assert replays_ok
    assert workers_ok
