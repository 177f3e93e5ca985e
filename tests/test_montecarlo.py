import math
import sys
import time
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from hypertail import (
    Hypergraph,
    NicenessParams,
    TrialConfig,
    TrialStream,
    build_schedule,
    check_degree_moment,
    check_degree_square_sum,
    chi_square_two_sample,
    clopper_pearson,
    complete,
    disjoint_edges,
    edge_count_samples,
    estimate_tail,
    exact_distribution,
    fit_subgaussian,
    run_exposure,
    subgraph_hypergraph,
    verify_p4,
    z_identity_check,
)
from hypertail import core
from hypertail.montecarlo import (
    LANE_EXPOSURE,
    LANE_P4,
    LANE_TAIL,
    P4GridPoint,
    geometric_q_grid,
    run_exposure_campaign,
)
from hypertail.percolation import codeg_trigger, degree_cap


# --- Clopper-Pearson -------------------------------------------------------


def test_clopper_pearson_edge_cases():
    lo, hi = clopper_pearson(0, 100, 0.01)
    assert lo == 0.0 and 0 < hi < 1
    lo, hi = clopper_pearson(100, 100, 0.01)
    assert hi == 1.0 and 0 < lo < 1


@pytest.mark.parametrize("x,n", [(3, 50), (17, 200), (1, 1000)])
def test_clopper_pearson_endpoints_solve_defining_equations(x, n):
    alpha = 0.05
    lo, hi = clopper_pearson(x, n, alpha)
    # P(X >= x | lo) = alpha/2 and P(X <= x | hi) = alpha/2
    assert sps.binom.sf(x - 1, n, lo) == pytest.approx(alpha / 2, rel=1e-9)
    assert sps.binom.cdf(x, n, hi) == pytest.approx(alpha / 2, rel=1e-9)


def test_clopper_pearson_contains_point_estimate():
    for x, n in [(0, 10), (5, 10), (10, 10), (123, 4567)]:
        lo, hi = clopper_pearson(x, n, 0.01)
        assert lo <= x / n <= hi


# --- estimate_tail ---------------------------------------------------------


def test_tail_integrality_makes_small_threshold_certain():
    # E X = 0.125 and X is an integer, so |X - 0.125| >= 0.05 always
    H = disjoint_edges(2, 2)
    cfg = TrialConfig(master_seed=3, trials=2000)
    (est,) = estimate_tail(H, 0.5, [0.05], cfg)
    assert est.exceed_count == est.trials
    assert est.point_estimate == 1.0


def test_tail_monotone_in_threshold():
    H = disjoint_edges(100, 3)
    cfg = TrialConfig(master_seed=5, trials=3000)
    estimates = estimate_tail(H, 0.3, [0.5, 1.0, 2.0, 4.0, 8.0], cfg)
    counts = [e.exceed_count for e in estimates]
    assert counts == sorted(counts, reverse=True)


def test_tail_ci_brackets_point():
    H = disjoint_edges(50, 3)
    cfg = TrialConfig(master_seed=7, trials=1000)
    for est in estimate_tail(H, 0.4, [1.0, 3.0], cfg):
        assert est.ci_low <= est.point_estimate <= est.ci_high


def test_tail_deterministic_and_worker_invariant():
    H = disjoint_edges(60, 3)
    a = estimate_tail(H, 0.3, [1.0, 2.0], TrialConfig(master_seed=11, trials=2000, workers=1))
    b = estimate_tail(H, 0.3, [1.0, 2.0], TrialConfig(master_seed=11, trials=2000, workers=4))
    assert [e.exceed_count for e in a] == [e.exceed_count for e in b]


def test_tail_matches_exact_distribution_oracle():
    H = subgraph_hypergraph(complete(3), 5)  # n = 10 <= 22
    p = 0.5
    dist = exact_distribution(H, p)
    center = p**H.k * H.m
    cfg = TrialConfig(master_seed=13, trials=20_000)
    thresholds = [0.5, 1.0, 2.0, 3.5]
    for est in estimate_tail(H, p, thresholds, cfg):
        exact = dist.tail(center, est.threshold)
        assert est.ci_low <= exact <= est.ci_high


def test_tail_requires_positive_thresholds():
    H = disjoint_edges(5, 2)
    with pytest.raises(ValueError):
        estimate_tail(H, 0.5, [0.0], TrialConfig(master_seed=1, trials=10))


def test_samples_deterministic_per_seed():
    H = disjoint_edges(30, 3)
    cfg = TrialConfig(master_seed=2, trials=500)
    assert np.array_equal(edge_count_samples(H, 0.3, cfg), edge_count_samples(H, 0.3, cfg))


def test_samples_match_binomial_moments():
    H = disjoint_edges(200, 3)
    cfg = TrialConfig(master_seed=17, trials=30_000)
    xs = edge_count_samples(H, 0.3, cfg)
    sigma2 = 200 * 0.027 * 0.973
    assert abs(xs.mean() - 5.4) < 4 * math.sqrt(sigma2 / cfg.trials)
    # sample variance of a binomial: loose 4-sigma window via normal theory
    se_var = sigma2 * math.sqrt(2 / (cfg.trials - 1)) * 1.5
    assert abs(xs.var(ddof=1) - sigma2) < 4 * se_var


# --- verify_p4 -------------------------------------------------------------


def test_p4_generous_cap_never_violated():
    H = subgraph_hypergraph(complete(3), 12)
    params = NicenessParams(p=0.1, lam=2, gamma_cap=11.0, b=1)  # cap >= max degree
    cfg = TrialConfig(master_seed=19, trials=300)
    evidence = verify_p4(H, params, [0.2, 0.5, 0.9], cfg)
    assert all(pt.deg_violations == 0 for pt in evidence.points)


def test_p4_triangle_cap_dominates_at_high_q():
    # cap = max(2 * 0.81 * 10, 1) = 16.2 >= max degree 10
    H = subgraph_hypergraph(complete(3), 12)
    params = NicenessParams(p=0.1, lam=2, gamma_cap=1.0, b=1)
    cfg = TrialConfig(master_seed=23, trials=500)
    evidence = verify_p4(H, params, [0.9], cfg)
    (pt,) = evidence.points
    assert pt.deg_cap == pytest.approx(16.2)
    assert pt.deg_violations == 0


def test_p4_disjoint_untriggered_grid_has_zero_violations():
    H = disjoint_edges(50, 3)
    params = NicenessParams(p=0.1, lam=3, gamma_cap=1.0, b=1)
    cfg = TrialConfig(master_seed=29, trials=400)
    evidence = verify_p4(H, params, [0.1, 0.12, 0.15], cfg)
    for pt in evidence.points:
        assert not pt.trigger
        assert pt.violations == 0
    assert evidence.supported == all(
        pt.ci_high <= evidence.threshold for pt in evidence.points
    )


def test_p4_triggered_disjoint_codegree_fails_honestly():
    # surviving same-edge pairs have co-degree 1 > ln^-3 n, so once the
    # trigger fires the condition is genuinely violated on most trials
    H = disjoint_edges(50, 3)
    params = NicenessParams(p=0.5, lam=3, gamma_cap=2.0, b=1)
    cfg = TrialConfig(master_seed=31, trials=200)
    evidence = verify_p4(H, params, [0.9], cfg)
    (pt,) = evidence.points
    assert pt.trigger
    assert pt.codeg_violations > 0
    assert not evidence.supported


def test_p4_at_sparse_q_builds_no_incidence():
    # mc-large's grid: blocks at q = 0.1 and 0.2 list their set bits
    H = subgraph_hypergraph(complete(3), 30)
    params = NicenessParams(p=0.05, lam=2, gamma_cap=10.0, b=1)
    verify_p4(H, params, [0.1, 0.2], TrialConfig(master_seed=3, trials=100))
    assert "incidence_buckets" not in vars(H) and "pair_index" not in vars(H)


def test_p4_threads_build_the_vertex_tables_once(monkeypatch):
    # at q = 0.5 every block takes the counter planes (64 q^3 = 8 set bits
    # per edge); the table builder sleeps, so that the second thread asks
    # for the tables while the first one builds them
    builds, build = [], core._tables

    def slow_tables(*args):
        builds.append(args)
        time.sleep(0.2)
        return build(*args)

    monkeypatch.setattr(core, "_tables", slow_tables)
    params = NicenessParams(p=0.1, lam=2, gamma_cap=10.0, b=1)
    evidence = []
    for workers in (1, 2):
        builds.clear()
        H = subgraph_hypergraph(complete(3), 12)
        cfg = TrialConfig(master_seed=5, trials=256, workers=workers)
        evidence.append(verify_p4(H, params, [0.5], cfg))
        assert len(builds) == 1 and "incidence_buckets" in vars(H)
    assert evidence[0] == evidence[1]


def test_p4_rejects_bad_grid():
    H = disjoint_edges(5, 3)
    params = NicenessParams(p=0.5, lam=1, gamma_cap=1, b=1)
    cfg = TrialConfig(master_seed=1, trials=10)
    with pytest.raises(ValueError):
        verify_p4(H, params, [], cfg)
    with pytest.raises(ValueError):
        verify_p4(H, params, [0.2], cfg)  # below p


def test_geometric_grid_spans_range():
    grid = geometric_q_grid(0.01)
    assert len(grid) == 8
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] == pytest.approx(0.9)
    assert list(grid) == sorted(grid)


# --- fit_subgaussian -------------------------------------------------------


def test_subgaussian_binomial_sanity():
    H = disjoint_edges(2000, 3)
    cfg = TrialConfig(master_seed=37, trials=20_000)
    fit = fit_subgaussian(H, 0.3, [0.5, 1.0, 1.5, 2.0], "exact", cfg)
    assert fit.c_g is not None
    # gaussian rate is 1/2; finite-lambda prefactors push the fit above it
    assert 0.0 < fit.c_g < 1.0
    assert not fit.variance_assumed
    # fitted envelope dominates every CI upper bound on the grid
    for lam, est in zip(fit.lambdas, fit.estimates):
        if est.exceed_count:
            assert math.exp(-fit.c_g * lam**2) >= est.ci_high - 1e-15
    # quadratic-exponent trend: tail(2 lambda) is at most tail(lambda)^2
    by_lam = dict(zip(fit.lambdas, fit.estimates))
    for lam in (0.5, 1.0):
        assert by_lam[2 * lam].point_estimate <= by_lam[lam].ci_high ** 2


def test_subgaussian_zero_exceedance_goes_to_lower_bounds():
    H = disjoint_edges(2000, 3)
    cfg = TrialConfig(master_seed=37, trials=2000)
    fit = fit_subgaussian(H, 0.3, [1.0, 12.0], "exact", cfg)
    assert len(fit.c_g_lower_bounds) == 1  # lambda = 12 sees no exceedances
    assert len(fit.c_g_candidates) == 1


def test_subgaussian_plugin_variance_flagged():
    H = disjoint_edges(500, 3)
    cfg = TrialConfig(master_seed=41, trials=2000)
    fit = fit_subgaussian(H, 0.3, [1.0], "plugin", cfg)
    assert fit.variance_assumed
    assert fit.variance == pytest.approx(500 * 0.027)


def test_subgaussian_ci_width_shrinks_with_trials():
    H = disjoint_edges(300, 3)
    small = fit_subgaussian(H, 0.3, [1.0], "exact", TrialConfig(master_seed=43, trials=1000))
    large = fit_subgaussian(H, 0.3, [1.0], "exact", TrialConfig(master_seed=43, trials=16_000))
    width = lambda est: est.ci_high - est.ci_low
    assert width(large.estimates[0]) < width(small.estimates[0])


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan")])
def test_subgaussian_rejects_a_lambda_not_positive(lam):
    cfg = TrialConfig(master_seed=47, trials=10)
    with pytest.raises(ValueError, match="lambda grid must be positive"):
        fit_subgaussian(disjoint_edges(10, 3), 0.3, [1.0, lam], "exact", cfg)


# --- conditional moment checks -------------------------------------------------------


def test_degree_moment_disjoint_unit_degree_closed_form():
    H = disjoint_edges(50, 3)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    states = run_exposure(H, schedule, TrialStream(47, 0))
    state = states[0]  # full survival, deg = 1 everywhere
    cfg = TrialConfig(master_seed=47, trials=1)
    report = check_degree_moment(H, state, schedule, cfg, vertices=[0, 5, 9], continuations=20_000)
    eps = schedule.epsilon
    for entry in report.entries:
        assert entry.deg == 1
        # exact conditional second moment is eps^k
        assert abs(entry.estimate - eps**H.k) < 4 * max(entry.stderr, 1e-12)
        assert entry.holds
    assert report.holds


@pytest.mark.parametrize("v", [-1, 15])  # n = 15
def test_degree_moment_rejects_vertex_outside_range(v):
    H = disjoint_edges(5, 3)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    state = run_exposure(H, schedule, TrialStream(1, 0))[0]
    cfg = TrialConfig(master_seed=1, trials=1)
    with pytest.raises(ValueError, match=f"vertex {v} is not in \\[0, 15\\)"):
        check_degree_moment(H, state, schedule, cfg, vertices=[v], continuations=10)


def test_degree_moment_zero_degree_vertex_trivial():
    H = disjoint_edges(3, 3)
    schedule = build_schedule(0.2, H.n, eps_range=(0.1, 0.5), force_rounds=1)
    for trial in range(50):
        states = run_exposure(H, schedule, TrialStream(53, trial))
        state = states[1]
        zero = [int(v) for v in np.flatnonzero(state.kept & (state.deg == 0))]
        if zero:
            cfg = TrialConfig(master_seed=53, trials=1)
            report = check_degree_moment(H, state, schedule, cfg, vertices=zero[:1], continuations=100)
            assert report.entries[0].estimate == 0.0
            assert report.entries[0].bound == 0.0
            assert report.entries[0].holds
            return
    pytest.fail("no zero-degree survivor found")


def test_degree_moment_reproducible():
    H = subgraph_hypergraph(complete(3), 10)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    states = run_exposure(H, schedule, TrialStream(59, 2))
    cfg = TrialConfig(master_seed=59, trials=1)
    a = check_degree_moment(H, states[1], schedule, cfg, vertices=5, continuations=500)
    b = check_degree_moment(H, states[1], schedule, cfg, vertices=5, continuations=500)
    assert a == b


def test_degree_square_sum_disjoint_within_bound():
    H = disjoint_edges(60, 3)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    cfg = TrialConfig(master_seed=61, trials=300)
    report = check_degree_square_sum(H, schedule, lam=3.0, gamma_cap=2.0, cfg=cfg)
    assert report.entries  # at least round 0 is always conditioned
    assert report.holds
    for entry in report.entries:
        assert entry.margin == pytest.approx(entry.bound - entry.mean)


def test_degree_square_sum_reproducible():
    H = disjoint_edges(30, 3)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    cfg = TrialConfig(master_seed=67, trials=100)
    assert check_degree_square_sum(H, schedule, 2.0, 2.0, cfg) == check_degree_square_sum(H, schedule, 2.0, 2.0, cfg)


def test_campaigns_do_not_depend_on_worker_count():
    # 40 trials over 3 threads split into blocks of 14, 14 and 12; a short switch
    # interval interleaves the threads, the first of which build H's cached pair index
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (3, 1):
            H = subgraph_hypergraph(complete(3), 6)
            params = NicenessParams(p=0.1, lam=2, gamma_cap=4.0, b=1)
            schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
            cfg = TrialConfig(master_seed=71, trials=40, workers=workers)
            state = run_exposure(H, schedule, TrialStream(71, 0))[1]
            runs.append((
                verify_p4(H, params, [0.2, 0.3], cfg),
                run_exposure_campaign(H, schedule, 2.0, 2.0, cfg, LANE_EXPOSURE),
                z_identity_check(complete(3), 6, 0.5, cfg),
                z_identity_check(complete(3), 6, 0.5, cfg, conditioned_target=30),
                check_degree_moment(H, state, schedule, cfg, vertices=15, continuations=200),
                # 64-trial blocks: three blocks, the last partial, one per thread
                verify_p4(H, params, [0.2, 0.3], replace(cfg, trials=130)),
                edge_count_samples(H, 0.3, replace(cfg, trials=197)).tolist(),
            ))
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1]
    evidence, (per_round, buckets), _, conditioned, moment, *_ = runs[0]
    assert any(pt.codeg_violations for pt in evidence.points)  # condition (4) was evaluated
    assert any(buckets)
    assert conditioned.trials_conditioned == 30 < conditioned.trials_total
    assert len(moment.entries) >= 3  # one vertex per thread at least


# --- 64-trial blocks against a per-trial reference ---------------------------


def _reference_kept(H, q, cfg, lane, trial):
    return TrialStream(cfg.master_seed, trial, lane).uniforms(H.n) < q


def _reference_edge_counts(H, q, cfg):
    return [
        sum(all(kept[v] for v in e) for e in H.edges)
        for kept in (_reference_kept(H, q, cfg, LANE_TAIL, t) for t in range(cfg.trials))
    ]


def _reference_p4(H, params, q_grid, cfg):
    """verify_p4's grid points, recounted one trial at a time from the edge tuples."""
    threshold = math.exp(-params.b * params.lam**2)
    points = []
    for qi, q in enumerate(q_grid):
        cap = degree_cap(q, H, params.gamma_cap)
        trigger = codeg_trigger(params.p, q, H)
        dmaxes, cmaxes, bad_deg, bad_codeg = [], [], [], []
        for t in range(cfg.trials):
            kept = _reference_kept(H, q, cfg, LANE_P4, qi * cfg.trials + t)
            alive = [e for e in H.edges if all(kept[v] for v in e)]
            deg = Counter(v for e in alive for v in e)
            codeg = Counter(pair for e in alive for pair in combinations(e, 2))
            cmax = max(codeg.values(), default=0) if trigger else 0
            dmaxes.append(max(deg.values(), default=0))
            cmaxes.append(cmax)
            bad_deg.append(dmaxes[-1] > cap)
            bad_codeg.append(cmax > 0 and cmax > min(deg.values()) * math.log(H.n) ** -3)
        viol = sum(d or c for d, c in zip(bad_deg, bad_codeg))
        lo, hi = clopper_pearson(viol, cfg.trials, cfg.significance)
        points.append(P4GridPoint(
            q=q, trials=cfg.trials, deg_cap=cap, trigger=trigger, deg_violations=sum(bad_deg),
            codeg_violations=sum(bad_codeg), violations=viol, point_estimate=viol / cfg.trials,
            ci_low=lo, ci_high=hi, max_deg_seen=max(dmaxes), max_codeg_seen=max(cmaxes),
            supported=viol == 0 and hi <= threshold,
        ))
    return tuple(points)


@st.composite
def small_hypergraphs(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 9))
    subsets = list(combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(subsets), max_size=20, unique=True)) if subsets else []
    return Hypergraph(n, k, edges)


@given(
    H=small_hypergraphs(),
    trials=st.sampled_from([1, 63, 64, 65, 130]),
    workers=st.integers(1, 3),
    seed=st.integers(0, 2**70),
    p=st.sampled_from([1e-6, 0.05, 0.3]),
    q_offsets=st.lists(st.floats(0.0, 0.9), min_size=1, max_size=3),
)
@example(H=Hypergraph(1, 1, [(0,)]), trials=65, workers=2, seed=3, p=0.3, q_offsets=[0.4])
@example(H=Hypergraph(5, 3, []), trials=1, workers=3, seed=3, p=0.3, q_offsets=[0.0])
@example(H=subgraph_hypergraph(complete(3), 6), trials=130, workers=3, seed=5, p=0.1,
         q_offsets=[0.2, 0.5])  # condition (4) triggered and violated
@example(H=Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)]), trials=64, workers=1, seed=5, p=0.3,
         q_offsets=[0.3])  # ln^-3 3 = 0.75: condition (4) holds at min degree 2, not at 1
@example(H=Hypergraph(2, 2, [(0, 1)]), trials=64, workers=1, seed=5, p=0.8,
         q_offsets=[0.1])  # ln^-3 2 = 3.0: condition (4) holds at min degree 1
@example(H=Hypergraph(12, 3, list(combinations(range(12), 3))), trials=130, workers=1, seed=9,
         p=0.05, q_offsets=[0.25])  # co-degrees up to 6, from sparse and from dense trials
@example(H=Hypergraph(70_000, 2, [(0, 1), (1, 69_999), (5, 6)]), trials=65, workers=2, seed=7,
         p=0.3, q_offsets=[0.5])  # a block drawn 14 rows at a time, across byte boundaries
@example(H=subgraph_hypergraph(complete(3), 8), trials=77, workers=2, seed=11, p=0.3,
         q_offsets=[0.0, 0.6])  # linear, triggered: 8-trial groups sparse at q = 0.3 and
# dense at q = 0.9, and a last block of 13 trials
@example(H=Hypergraph(3, 1, [(0,), (1,), (2,)]), trials=13, workers=1, seed=2, p=0.3,
         q_offsets=[0.0])  # max co-degree 0, triggered: sqrt(p/q) 3 ln 3 = 3.3 >= m = 3
@example(H=Hypergraph(12, 3, list(combinations(range(12), 3))), trials=100, workers=2, seed=4,
         p=0.05, q_offsets=[0.6])  # co-degrees up to 10 from the counter planes at q = 0.65
@settings(max_examples=60, deadline=None)
def test_blocks_match_the_per_trial_reference(H, trials, workers, seed, p, q_offsets):
    cfg = TrialConfig(master_seed=seed, trials=trials, workers=workers)
    grid = [min(p + off, 0.95) for off in q_offsets]
    assert edge_count_samples(H, grid[0], cfg).tolist() == _reference_edge_counts(H, grid[0], cfg)
    params = NicenessParams(p=p, lam=1.0, gamma_cap=2.0, b=1)
    assert verify_p4(H, params, grid, cfg).points == _reference_p4(H, params, grid, cfg)


# --- chi-square two-sample -------------------------------------------------


def test_chi_square_same_law_accepts():
    rng1 = np.random.default_rng(71)
    rng2 = np.random.default_rng(72)
    xs = rng1.binomial(50, 0.2, size=20_000)
    ys = rng2.binomial(50, 0.2, size=20_000)
    result = chi_square_two_sample(xs, ys)
    assert result.pvalue >= 0.01


def test_chi_square_different_laws_reject():
    rng1 = np.random.default_rng(73)
    rng2 = np.random.default_rng(74)
    xs = rng1.binomial(50, 0.2, size=20_000)
    ys = rng2.binomial(50, 0.24, size=20_000)
    result = chi_square_two_sample(xs, ys)
    assert result.pvalue < 0.01


def test_chi_square_degenerate_single_bin():
    result = chi_square_two_sample([1] * 50, [1] * 50)
    assert result.pvalue == 1.0
