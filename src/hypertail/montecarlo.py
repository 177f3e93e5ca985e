"""Seeded Monte Carlo estimation with exact binomial confidence intervals.

Trials are embarrassingly parallel: every trial draws from its own counter
addressed substream, counts are integers, and aggregation is commutative, so
worker count and scheduling never change a result.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from . import oracle
from .bounds import NicenessParams, degree_moment_bound
from .core import DegreeProfile, Hypergraph, degree_profile
from .percolation import (
    ExposureSchedule,
    RoundState,
    check_preconditions,
    codeg_trigger,
    run_exposure,
    surviving_degrees,
    surviving_edge_mask,
    surviving_pair_counts,
)
from .rng import TrialStream

# Campaign lanes: distinct campaigns from one master seed must not share
# uniforms, so each estimator draws from its own lane.
LANE_TAIL = 1
LANE_EXPOSURE = 2
LANE_DIRECT = 3
LANE_P4 = 4
LANE_SUBGAUSSIAN = 5
LANE_DEGREE_MOMENT = 6
LANE_DEG_SQ_SUM = 7
LANE_EXTENSION = 8


@dataclass(frozen=True)
class TrialConfig:
    master_seed: int
    trials: int
    significance: float = 0.01
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.significance < 1.0:
            raise ValueError("significance must lie in (0, 1)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class TailEstimate:
    threshold: float
    exceed_count: int
    trials: int
    point_estimate: float
    ci_low: float
    ci_high: float
    significance: float


@dataclass(frozen=True)
class P4GridPoint:
    q: float
    trials: int
    deg_cap: float
    trigger: bool
    deg_violations: int
    codeg_violations: int
    violations: int
    point_estimate: float
    ci_low: float
    ci_high: float
    max_deg_seen: int
    max_codeg_seen: int
    supported: bool


@dataclass(frozen=True)
class P4Evidence:
    q_grid: tuple[float, ...]
    points: tuple[P4GridPoint, ...]
    threshold: float
    supported: bool
    params: NicenessParams


@dataclass(frozen=True)
class SubGaussianFit:
    lambdas: tuple[float, ...]
    estimates: tuple[TailEstimate, ...]
    variance: float
    variance_source: str
    variance_assumed: bool
    c_g: float | None
    c_g_candidates: tuple[float, ...]
    c_g_lower_bounds: tuple[float, ...]
    feasible: bool


@dataclass(frozen=True)
class DegreeMomentEntry:
    vertex: int
    deg: int
    estimate: float
    stderr: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class DegreeMomentReport:
    entries: tuple[DegreeMomentEntry, ...]
    epsilon: float
    eta: float
    continuations: int

    @property
    def holds(self) -> bool:
        return all(e.holds for e in self.entries)


@dataclass(frozen=True)
class DegreeSquareSumEntry:
    round_index: int
    conditioned_trials: int
    mean: float
    stderr: float
    bound: float
    margin: float
    holds: bool


@dataclass(frozen=True)
class DegreeSquareSumReport:
    entries: tuple[DegreeSquareSumEntry, ...]
    trials: int

    @property
    def holds(self) -> bool:
        return all(e.holds for e in self.entries)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    pvalue: float
    dof: int
    bins: int


def clopper_pearson(successes: int, trials: int, significance: float) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval at level 1 - significance."""
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    alpha = significance
    lo = 0.0 if successes == 0 else float(sps.beta.ppf(alpha / 2, successes, trials - successes + 1))
    hi = (
        1.0
        if successes == trials
        else float(sps.beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
    )
    return lo, hi


def _run_partitioned(trials: int, workers: int, work):
    """Run ``work(lo, hi)`` over a partition of the trial range.

    Outcomes depend only on trial indices, so the partition is irrelevant to
    results; it only enables concurrent execution.
    """
    if workers <= 1 or trials < 2:
        work(0, trials)
        return
    step = -(-trials // workers)
    ranges = [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda r: work(*r), ranges))


def edge_count_samples(
    H: Hypergraph, q: float, cfg: TrialConfig, lane: int = LANE_TAIL
) -> np.ndarray:
    """Surviving-edge counts of ``cfg.trials`` independent percolations at q."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"retention probability must lie in (0, 1), got {q}")
    out = np.empty(cfg.trials, dtype=np.int64)
    edges_arr = H.edges_arr
    n, m = H.n, H.m

    def work(lo, hi):
        for t in range(lo, hi):
            kept = TrialStream(cfg.master_seed, t, lane).uniforms(n) < q
            out[t] = kept[edges_arr].all(axis=1).sum() if m else 0

    _run_partitioned(cfg.trials, cfg.workers, work)
    return out


def estimate_tail(
    H: Hypergraph,
    p: float,
    thresholds,
    cfg: TrialConfig,
    lane: int = LANE_TAIL,
    samples: np.ndarray | None = None,
) -> list[TailEstimate]:
    """Estimate P(|X - p^k m| >= t) for each threshold t, with exact CIs."""
    thresholds = [float(t) for t in thresholds]
    if not all(0 < t < math.inf for t in thresholds):
        raise ValueError("thresholds must be finite and positive")
    if samples is None:
        samples = edge_count_samples(H, p, cfg, lane=lane)
    trials = len(samples)
    center = oracle.exact_expectation(H, p)
    deviations = np.abs(samples - center)
    estimates = []
    for t in thresholds:
        exceed = int(np.count_nonzero(deviations >= t))
        lo, hi = clopper_pearson(exceed, trials, cfg.significance)
        estimates.append(
            TailEstimate(
                threshold=t,
                exceed_count=exceed,
                trials=trials,
                point_estimate=exceed / trials,
                ci_low=lo,
                ci_high=hi,
                significance=cfg.significance,
            )
        )
    return estimates


def geometric_q_grid(p: float, points: int = 8, q_max: float = 0.9) -> tuple[float, ...]:
    """Geometric grid from p up to q_max used to sample the q quantifier."""
    if points < 1:
        raise ValueError("grid needs at least one point")
    if points == 1:
        return (p,)
    ratio = (q_max / p) ** (1.0 / (points - 1))
    return tuple(p * ratio**i for i in range(points))


def verify_p4(
    H: Hypergraph,
    params: NicenessParams,
    q_grid,
    cfg: TrialConfig,
    lane: int = LANE_P4,
    profile: DegreeProfile | None = None,
) -> P4Evidence:
    """Collect grid-based empirical evidence for the percolated degree cap and
    co-degree condition.

    For each q: count trials where some surviving degree exceeds
    max{2 q^(k-1) Delta, Gamma}, or - when the co-degree trigger fires - where
    the maximum surviving co-degree exceeds (min positive degree) / ln^3 n.
    The evidence supports the condition when every per-q violation frequency
    has Clopper-Pearson upper bound at most e^(-b lambda^2).
    """
    q_grid = tuple(float(q) for q in q_grid)
    if not q_grid:
        raise ValueError("q grid must be nonempty")
    if any(not params.p <= q < 1.0 for q in q_grid):
        raise ValueError("q grid must lie in [p, 1)")
    if profile is None:
        profile = degree_profile(H)
    delta_max = profile.max_degree
    log_n = math.log(H.n)
    threshold = math.exp(-params.b * params.lam**2)
    points = []
    for qi, q in enumerate(q_grid):
        cap = max(2.0 * q ** (H.k - 1) * delta_max, params.gamma_cap)
        trigger = codeg_trigger(params.p, q, H, profile)
        deg_viol = codeg_viol = viol = 0
        max_deg_seen = max_codeg_seen = 0
        for t in range(cfg.trials):
            stream = TrialStream(cfg.master_seed, qi * cfg.trials + t, lane)
            kept = stream.uniforms(H.n) < q
            alive = surviving_edge_mask(H, kept)
            deg = surviving_degrees(H, alive)
            dmax = int(deg.max()) if H.n else 0
            max_deg_seen = max(max_deg_seen, dmax)
            bad_deg = dmax > cap
            bad_codeg = False
            if trigger:
                counts = surviving_pair_counts(H, alive)
                cmax = int(counts.max()) if counts.size else 0
                max_codeg_seen = max(max_codeg_seen, cmax)
                if cmax:
                    min_pos = int(deg[deg > 0].min())
                    bad_codeg = cmax > min_pos * log_n**-3
            deg_viol += bad_deg
            codeg_viol += bad_codeg
            viol += bad_deg or bad_codeg
        lo, hi = clopper_pearson(viol, cfg.trials, cfg.significance)
        points.append(
            P4GridPoint(
                q=q,
                trials=cfg.trials,
                deg_cap=cap,
                trigger=trigger,
                deg_violations=deg_viol,
                codeg_violations=codeg_viol,
                violations=viol,
                point_estimate=viol / cfg.trials,
                ci_low=lo,
                ci_high=hi,
                max_deg_seen=max_deg_seen,
                max_codeg_seen=max_codeg_seen,
                supported=(viol == 0 and hi <= threshold),
            )
        )
    return P4Evidence(
        q_grid=q_grid,
        points=tuple(points),
        threshold=threshold,
        supported=all(pt.supported for pt in points),
        params=params,
    )


def fit_subgaussian(
    H: Hypergraph,
    p: float,
    lambda_grid,
    variance_source: str,
    cfg: TrialConfig,
    lane: int = LANE_SUBGAUSSIAN,
    pair_budget: int | None = None,
) -> SubGaussianFit:
    """Fit the largest constant c such that the estimated tails at lambda
    standard deviations stay below e^(-c lambda^2).

    Fitting uses CI upper bounds, so the constant is conservative.  Grid
    points with zero exceedances only yield lower bounds on the constant and
    are recorded separately, never fitted.
    """
    lambdas = tuple(float(l) for l in lambda_grid)
    if any(l <= 0 for l in lambdas):
        raise ValueError("lambda grid must be positive")
    if variance_source == "exact":
        budget = oracle.DEFAULT_PAIR_BUDGET if pair_budget is None else pair_budget
        variance = oracle.exact_variance(H, p, pair_budget=budget)
        assumed = False
    elif variance_source == "plugin":
        # stand-in sqrt(E X); in-regime the true deviation scale is within a
        # factor 2 of this, which is recorded as an assumption
        variance = oracle.exact_expectation(H, p)
        assumed = True
    else:
        raise ValueError("variance_source must be 'exact' or 'plugin'")
    if variance <= 0:
        raise ValueError("variance is not positive; tails are degenerate")
    scale = math.sqrt(variance)
    samples = edge_count_samples(H, p, cfg, lane=lane)
    estimates = tuple(
        estimate_tail(H, p, [l * scale for l in lambdas], cfg, samples=samples)
    )
    candidates = []
    lower_bounds = []
    for lam, est in zip(lambdas, estimates):
        rate = -math.log(est.ci_high) / lam**2 if est.ci_high > 0 else math.inf
        if est.exceed_count > 0:
            candidates.append(rate)
        else:
            lower_bounds.append(rate)
    c_g = min(candidates) if candidates else None
    feasible = bool(candidates) and all(est.ci_high < 1.0 for est in estimates)
    return SubGaussianFit(
        lambdas=lambdas,
        estimates=estimates,
        variance=variance,
        variance_source=variance_source,
        variance_assumed=assumed,
        c_g=c_g,
        c_g_candidates=tuple(candidates),
        c_g_lower_bounds=tuple(lower_bounds),
        feasible=feasible,
    )


def check_degree_moment(
    H: Hypergraph,
    state: RoundState,
    schedule: ExposureSchedule,
    cfg: TrialConfig,
    vertices=None,
    continuations: int = 10_000,
    lane: int = LANE_DEGREE_MOMENT,
) -> DegreeMomentReport:
    """Conditional Monte Carlo check of the next-round degree second moment.

    For each chosen surviving vertex, the next round is resampled
    ``continuations`` times while the current state stays fixed; the sample
    mean of the squared next-round degree must not exceed the analytic bound
    by more than three standard errors.
    """
    eps = schedule.epsilon
    survivors = np.flatnonzero(state.kept)
    if survivors.size == 0:
        return DegreeMomentReport(entries=(), epsilon=eps, eta=state.eta, continuations=continuations)
    if vertices is None:
        vertices = survivors.tolist()
    elif isinstance(vertices, int):
        picker = TrialStream(cfg.master_seed, 0, lane).generator()
        size = min(vertices, survivors.size)
        vertices = sorted(picker.choice(survivors, size=size, replace=False).tolist())
    entries = []
    for s_idx, v in enumerate(vertices):
        if not state.kept[v]:
            raise ValueError(f"vertex {v} is not a survivor of round {state.index}")
        live_edges = [e for e in H.incidence[v] if state.alive[e]]
        others = sorted({u for e in live_edges for u in H.edges[e] if u != v})
        pos = {u: j + 1 for j, u in enumerate(others)}  # v sits at column 0
        relevant = 1 + len(others)
        u = TrialStream(cfg.master_seed, s_idx + 1, lane).uniform_matrix(continuations, relevant)
        kept_next = u < eps
        if live_edges:
            cols = np.array(
                [[pos[u_] for u_ in H.edges[e] if u_ != v] for e in live_edges], dtype=np.int64
            )
            partners_alive = kept_next[:, cols].all(axis=2)
            deg_next = partners_alive.sum(axis=1) * kept_next[:, 0]
        else:
            deg_next = np.zeros(continuations, dtype=np.int64)
        vals = deg_next.astype(np.float64) ** 2
        estimate = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(continuations)) if continuations > 1 else 0.0
        bound = degree_moment_bound(int(state.deg[v]), H.k, state.eta, eps)
        entries.append(
            DegreeMomentEntry(
                vertex=int(v),
                deg=int(state.deg[v]),
                estimate=estimate,
                stderr=stderr,
                bound=bound,
                holds=estimate <= bound + 3 * stderr,
            )
        )
    return DegreeMomentReport(
        entries=tuple(entries), epsilon=eps, eta=state.eta, continuations=continuations
    )


def check_degree_square_sum(
    H: Hypergraph,
    schedule: ExposureSchedule,
    lam: float,
    gamma_cap: float,
    cfg: TrialConfig,
    lane: int = LANE_DEG_SQ_SUM,
    profile: DegreeProfile | None = None,
) -> DegreeSquareSumReport:
    """Compare per-round means of the degree-square sum against its bound.

    Round transitions are conditioned on the four per-round conditions
    holding before the step, matching the setting in which the bound is
    asserted.
    """
    if profile is None:
        profile = degree_profile(H)
    eps, p, k = schedule.epsilon, schedule.p, H.k
    n, m = H.n, H.m
    delta_max = profile.max_degree
    log_n = math.log(n)
    buckets: dict[int, list[int]] = {i: [] for i in range(schedule.rounds)}
    for t in range(cfg.trials):
        states = run_exposure(H, schedule, TrialStream(cfg.master_seed, t, lane), profile)
        for i in range(schedule.rounds):
            report = check_preconditions(H, states[i], schedule, lam, gamma_cap, profile)
            if report.all_hold:
                buckets[i].append(states[i + 1].deg_sq_sum)
    entries = []
    for i in range(schedule.rounds):
        ys = np.array(buckets[i], dtype=np.float64)
        bound = eps ** ((2 * k - 1) * (i + 1)) * delta_max**2 * n * (
            1 + (3 * i + 2) * log_n**-2
        ) + 5 * k * eps ** ((k + 0.5) * (i + 1)) * m / math.sqrt(p)
        if ys.size == 0:
            continue
        mean = float(ys.mean())
        stderr = float(ys.std(ddof=1) / math.sqrt(ys.size)) if ys.size > 1 else 0.0
        entries.append(
            DegreeSquareSumEntry(
                round_index=i,
                conditioned_trials=int(ys.size),
                mean=mean,
                stderr=stderr,
                bound=bound,
                margin=bound - mean,
                holds=mean <= bound + 3 * stderr,
            )
        )
    return DegreeSquareSumReport(entries=tuple(entries), trials=cfg.trials)


def chi_square_two_sample(xs, ys, min_expected: float = 5.0) -> ChiSquareResult:
    """Two-sample chi-square test that xs and ys follow the same law.

    Values are binned jointly; adjacent values are pooled until every cell's
    expected count reaches ``min_expected``.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be nonempty")
    width = int(max(xs.max(), ys.max())) + 1
    a = np.bincount(xs, minlength=width)
    b = np.bincount(ys, minlength=width)
    need = min_expected * (xs.size + ys.size) / min(xs.size, ys.size)
    bins_a, bins_b = [], []
    acc_a = acc_b = 0
    for v in range(width):
        acc_a += int(a[v])
        acc_b += int(b[v])
        if acc_a + acc_b >= need:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
            acc_a = acc_b = 0
    if acc_a + acc_b > 0:
        if bins_a:
            bins_a[-1] += acc_a
            bins_b[-1] += acc_b
        else:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
    if len(bins_a) < 2:
        return ChiSquareResult(statistic=0.0, pvalue=1.0, dof=0, bins=len(bins_a))
    table = np.array([bins_a, bins_b], dtype=np.int64)
    stat, pvalue, dof, _ = sps.chi2_contingency(table, correction=False)
    return ChiSquareResult(statistic=float(stat), pvalue=float(pvalue), dof=int(dof), bins=len(bins_a))
