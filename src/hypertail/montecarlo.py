"""Seeded Monte Carlo estimation with exact binomial confidence intervals.

Trials are embarrassingly parallel: every trial draws from its own counter
addressed substream, counts are integers, and aggregation is commutative, so
worker count and scheduling never change a result.  Campaigns whose trial is
one percolation at one q run in blocks of 64 trials, one bit per trial in a
``uint64`` word per vertex; the others run one trial at a time.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import oracle
from .bounds import NicenessParams, degree_moment_bound
from .core import Hypergraph, stats_of
from .percolation import (
    ExposureSchedule,
    RoundState,
    check_preconditions,
    codeg_holds,
    codeg_trigger,
    degree_cap,
    run_exposure,
    surviving_edge_counts,
    surviving_edge_mask,
    surviving_extremes,
)
from .rng import TrialStream, uniform_block

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

BLOCK = 64  # trials per block of a percolation campaign: one bit each in a uint64 word
DRAW_UNIFORMS = 1 << 20  # uniforms per block draw (8 MB): large n draws a block in row chunks


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
    points: tuple[P4GridPoint, ...]
    threshold: float
    supported: bool


@dataclass(frozen=True)
class SubGaussianFit:
    lambdas: tuple[float, ...]
    estimates: tuple[TailEstimate, ...]
    variance: float
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

    @property
    def holds(self) -> bool:
        return all(e.holds for e in self.entries)


@dataclass(frozen=True)
class ExposureRound:
    """One round's means over an exposure campaign's trials; ``holds_counts[j]``
    counts the trials in which condition j + 1 of :func:`check_preconditions` held."""

    round: int
    mean_edge_count: float
    var_edge_count: float
    mean_deg_sq_sum: float
    codeg_trigger: bool
    holds_counts: tuple[int, int, int, int]


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    pvalue: float
    dof: int
    bins: int


def clopper_pearson(successes: int, trials: int, significance: float) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval at level 1 - significance."""
    from scipy import special  # slow to import: kept off the CLI's import path

    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    alpha = significance
    # betaincinv(a, b, y) is the y-quantile of Beta(a, b)
    lo = 0.0 if successes == 0 else float(special.betaincinv(successes, trials - successes + 1, alpha / 2))
    hi = (
        1.0
        if successes == trials
        else float(special.betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    )
    return lo, hi


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """The sample mean of ``values`` and its standard error (0 for one value)."""
    stderr = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return float(values.mean()), stderr


def _in_order(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, on up to ``workers`` threads."""
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _per_trial(cfg: TrialConfig, lane: int, body, first: int = 0) -> list:
    """``body(stream)`` per trial, in trial order; trial t draws from
    ``TrialStream(cfg.master_seed, first + t, lane)``, so splitting the trials
    into ``cfg.workers`` blocks run on threads changes no result."""
    step = -(-cfg.trials // min(cfg.workers, cfg.trials))

    def block(lo: int) -> list:
        hi = min(lo + step, cfg.trials)
        return [body(TrialStream(cfg.master_seed, first + t, lane)) for t in range(lo, hi)]

    parts = _in_order(block, range(0, cfg.trials, step), cfg.workers)
    return [out for part in parts for out in part]


def _per_block(cfg: TrialConfig, lane: int, H: Hypergraph, q: float, body, first: int = 0) -> np.ndarray:
    """The trials of one percolation at q, 64 at a time: ``body(alive, size)``
    per block of ``size`` consecutive trials returns an array whose last axis
    holds their ``size`` results, and the blocks' arrays are joined along it
    in trial order.

    Trial t keeps vertex v when ``TrialStream(cfg.master_seed, first + t,
    lane).uniforms(n)[v] < q``.  Bit j of ``alive[e]`` says whether edge e
    survives in the block's trial j; bits j >= ``size`` are 0.  ``body``
    reduces all its trials at once, as :func:`surviving_edge_counts` and
    :func:`surviving_extremes` do.  ``cfg.workers`` threads split whole
    blocks, which changes no result; they share H, whose derived data the
    first block to read it builds once.
    """
    rows = max(1, min(BLOCK, DRAW_UNIFORMS // H.n))

    def block(lo: int) -> list:
        size = min(BLOCK, cfg.trials - lo)
        words = np.zeros(H.n, dtype="<u8")  # vertex v's flags, trial j at bit j
        for r in range(0, size, rows):
            count = min(rows, size - r)
            flags = uniform_block(cfg.master_seed, first + lo + r, lane, count, H.n) < q
            kept = np.ascontiguousarray(flags.T)  # row v: vertex v's flags for these trials
            octets = np.zeros((H.n, 8), dtype=np.uint8)
            octets[:, : -(-count // 8)] = np.packbits(kept, axis=1, bitorder="little")
            words |= octets.view("<u8").ravel() << np.uint64(r)
        return body(surviving_edge_mask(H, words), size)

    return np.concatenate(_in_order(block, range(0, cfg.trials, BLOCK), cfg.workers), axis=-1)


def edge_count_samples(
    H: Hypergraph, q: float, cfg: TrialConfig, lane: int = LANE_TAIL
) -> np.ndarray:
    """Surviving-edge counts of ``cfg.trials`` independent percolations at q."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"retention probability must lie in (0, 1), got {q}")

    def block(alive: np.ndarray, size: int) -> np.ndarray:
        return surviving_edge_counts(alive)[:size]

    return _per_block(cfg, lane, H, q, block)


def estimate_tail(
    H: Hypergraph,
    p: float,
    thresholds,
    cfg: TrialConfig,
    samples: np.ndarray | None = None,
) -> list[TailEstimate]:
    """Estimate P(|X - p^k m| >= t) for each threshold t, with exact CIs."""
    thresholds = [float(t) for t in thresholds]
    if not all(0 < t < math.inf for t in thresholds):
        raise ValueError("thresholds must be finite and positive")
    if samples is None:
        samples = edge_count_samples(H, p, cfg)
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


Q_GRID_TOP = 0.9


def geometric_q_grid(p: float) -> tuple[float, ...]:
    """Geometric grid of 8 points from p up to Q_GRID_TOP used to sample the q quantifier."""
    ratio = (Q_GRID_TOP / p) ** (1.0 / 7)
    return tuple(p * ratio**i for i in range(8))


def verify_p4(
    H: Hypergraph,
    params: NicenessParams,
    q_grid,
    cfg: TrialConfig,
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
    threshold = math.exp(-params.b * params.lam**2)
    points = []
    for qi, q in enumerate(q_grid):
        cap = degree_cap(q, H, params.gamma_cap)
        trigger = codeg_trigger(params.p, q, H)

        def block(alive: np.ndarray, size: int) -> np.ndarray:
            return surviving_extremes(H, alive, size, codeg=trigger)

        dmax, dmin, cmax = _per_block(cfg, LANE_P4, H, q, block, first=qi * cfg.trials)
        bad_deg = dmax > cap
        bad_codeg = ~codeg_holds(cmax, dmin, H.n)
        viol = int(np.count_nonzero(bad_deg | bad_codeg))
        lo, hi = clopper_pearson(viol, cfg.trials, cfg.significance)
        points.append(
            P4GridPoint(
                q=q,
                trials=cfg.trials,
                deg_cap=cap,
                trigger=trigger,
                deg_violations=int(np.count_nonzero(bad_deg)),
                codeg_violations=int(np.count_nonzero(bad_codeg)),
                violations=viol,
                point_estimate=viol / cfg.trials,
                ci_low=lo,
                ci_high=hi,
                max_deg_seen=int(dmax.max()),
                max_codeg_seen=int(cmax.max()),
                supported=(viol == 0 and hi <= threshold),
            )
        )
    return P4Evidence(
        points=tuple(points),
        threshold=threshold,
        supported=all(pt.supported for pt in points),
    )


def fit_subgaussian(
    H: Hypergraph,
    p: float,
    lambda_grid,
    variance_source: str,
    cfg: TrialConfig,
    pair_budget: int | None = None,
) -> SubGaussianFit:
    """Fit the largest constant c such that the estimated tails at lambda
    standard deviations stay below e^(-c lambda^2).

    Fitting uses CI upper bounds, so the constant is conservative.  Grid
    points with zero exceedances only yield lower bounds on the constant and
    are recorded separately, never fitted.
    """
    lambdas = tuple(float(l) for l in lambda_grid)
    if not all(l > 0 for l in lambdas):  # NaN fails too
        raise ValueError("lambda grid must be positive")
    if variance_source == "exact":
        variance = oracle.exact_variance(H, p, pair_budget=pair_budget)
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
    samples = edge_count_samples(H, p, cfg, lane=LANE_SUBGAUSSIAN)
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
    vertices,
    continuations: int = 10_000,
) -> DegreeMomentReport:
    """Conditional Monte Carlo check of the next-round degree second moment.

    ``vertices`` lists surviving vertices, or is how many trial 0 of the
    ``LANE_DEGREE_MOMENT`` lane picks from the survivors.  Trial i + 1 resamples
    vertex i's next round ``continuations`` times with the current state fixed;
    the mean squared next-round degree must not exceed the analytic bound by
    more than three standard errors.
    """
    if continuations < 1:
        raise ValueError(f"continuations must be >= 1, got {continuations}")
    eps = schedule.epsilon
    if isinstance(vertices, int):
        if vertices < 0:
            raise ValueError(f"vertex count must be >= 0, got {vertices}")
        survivors = np.flatnonzero(state.kept)
        picker = TrialStream(cfg.master_seed, 0, LANE_DEGREE_MOMENT).generator()
        size = min(vertices, survivors.size)
        vertices = sorted(picker.choice(survivors, size=size, replace=False).tolist())
    for v in vertices:
        if not 0 <= v < H.n:
            raise ValueError(f"vertex {v} is not in [0, {H.n})")
        if not state.kept[v]:
            raise ValueError(f"vertex {v} is not a survivor of round {state.index}")
    if not vertices:
        return DegreeMomentReport(entries=(), epsilon=eps, eta=state.eta)
    alive, deg, eta = state.alive, state.deg, state.eta  # derived before the threads start

    def trial(stream: TrialStream) -> DegreeMomentEntry:
        v = vertices[stream.trial - 1]
        at = H.edges_at(v)
        rows = H.edges_arr[at[alive[at]]]
        partners = rows[rows != v].reshape(len(rows), H.k - 1)
        # v sits at column 0, its partners at 1.. in ascending order
        others, cols = np.unique(partners, return_inverse=True)
        kept_next = stream.uniform_matrix(continuations, 1 + others.size) < eps
        partners_alive = kept_next[:, 1 + cols.reshape(partners.shape)].all(axis=2)
        deg_next = partners_alive.sum(axis=1) * kept_next[:, 0]
        estimate, stderr = _mean_stderr(deg_next.astype(np.float64) ** 2)
        bound = degree_moment_bound(int(deg[v]), H.k, eta, eps)
        return DegreeMomentEntry(
            vertex=int(v),
            deg=int(deg[v]),
            estimate=estimate,
            stderr=stderr,
            bound=bound,
            holds=estimate <= bound + 3 * stderr,
        )

    entries = _per_trial(replace(cfg, trials=len(vertices)), LANE_DEGREE_MOMENT, trial, first=1)
    return DegreeMomentReport(entries=tuple(entries), epsilon=eps, eta=eta)


def run_exposure_campaign(
    H: Hypergraph,
    schedule: ExposureSchedule,
    lam: float,
    gamma_cap: float,
    cfg: TrialConfig,
    lane: int,
) -> tuple[tuple[ExposureRound, ...], list[list[int]]]:
    """Run ``cfg.trials`` exposure chains and check every round's conditions once.

    Returns the per-round aggregates for rounds 0..I and, for each round
    i < I, the bucket of next-round degree-square sums
    ``states[i + 1].deg_sq_sum`` from the trials in which all four conditions
    of :func:`check_preconditions` held at round i.  Sums accumulate in
    float64 in trial order.
    """
    for name, value in (("lam", lam), ("gamma_cap", gamma_cap)):
        if not value > 0:  # as NicenessParams requires; NaN fails too
            raise ValueError(f"{name} must be positive")
    rounds = schedule.rounds

    def trial(stream: TrialStream) -> np.ndarray:
        # per round: edge count, its square, degree-square sum, the four condition flags
        return np.array([
            (s.edge_count, s.edge_count**2, s.deg_sq_sum)
            + check_preconditions(s, lam, gamma_cap).holds
            for s in run_exposure(H, schedule, stream)
        ], dtype=np.int64)

    rows = _per_trial(cfg, lane, trial)
    # float64 sums added in trial order, so any worker count gives the same bits
    sums = sum((r[:, :3].astype(np.float64) for r in rows), np.zeros((rounds + 1, 3)))
    holds = sum(r[:, 3:] for r in rows)
    buckets = [[int(r[i + 1, 2]) for r in rows if r[i, 3:].all()] for i in range(rounds)]
    means = sums / cfg.trials
    per_round = tuple(
        ExposureRound(
            round=i,
            mean_edge_count=float(mean_x),
            var_edge_count=float(mean_x2 - mean_x**2),
            mean_deg_sq_sum=float(mean_y),
            codeg_trigger=codeg_trigger(schedule.p, schedule.epsilon**i, H),
            holds_counts=tuple(holds[i].tolist()),
        )
        for i, (mean_x, mean_x2, mean_y) in enumerate(means)
    )
    return per_round, buckets


def check_degree_square_sum(
    H: Hypergraph,
    schedule: ExposureSchedule,
    lam: float,
    gamma_cap: float,
    cfg: TrialConfig,
) -> DegreeSquareSumReport:
    """Compare per-round means of the degree-square sum against its bound.

    Runs :func:`run_exposure_campaign` on the ``LANE_DEG_SQ_SUM`` lane.  The
    entry for round i averages the round-(i+1) degree-square sums of the
    trials in which all four conditions held at round i, matching the setting
    in which the bound is asserted; a round with no such trial has no entry.
    """
    _, buckets = run_exposure_campaign(H, schedule, lam, gamma_cap, cfg, LANE_DEG_SQ_SUM)
    eps, p, k = schedule.epsilon, schedule.p, H.k
    n, m = H.n, H.m
    delta_max = stats_of(H).max_degree
    log_n = math.log(n)
    entries = []
    for i, bucket in enumerate(buckets):
        if not bucket:
            continue
        bound = eps ** ((2 * k - 1) * (i + 1)) * delta_max**2 * n * (
            1 + (3 * i + 2) * log_n**-2
        ) + 5 * k * eps ** ((k + 0.5) * (i + 1)) * m / math.sqrt(p)
        mean, stderr = _mean_stderr(np.array(bucket, dtype=np.float64))
        entries.append(
            DegreeSquareSumEntry(
                round_index=i,
                conditioned_trials=len(bucket),
                mean=mean,
                stderr=stderr,
                bound=bound,
                margin=bound - mean,
                holds=mean <= bound + 3 * stderr,
            )
        )
    return DegreeSquareSumReport(entries=tuple(entries))


def chi_square_two_sample(xs, ys) -> ChiSquareResult:
    """Two-sample chi-square test that xs and ys follow the same law.

    Values are binned jointly; adjacent values are pooled until every cell's
    expected count reaches 5, the usual validity rule for the test.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be nonempty")
    width = int(max(xs.max(), ys.max())) + 1
    a = np.bincount(xs, minlength=width)
    b = np.bincount(ys, minlength=width)
    need = 5.0 * (xs.size + ys.size) / min(xs.size, ys.size)
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
    from scipy import stats  # slow to import, and only tests call this

    table = np.array([bins_a, bins_b], dtype=np.int64)
    stat, pvalue, dof, _ = stats.chi2_contingency(table, correction=False)
    return ChiSquareResult(statistic=float(stat), pvalue=float(pvalue), dof=int(dof), bins=len(bins_a))
