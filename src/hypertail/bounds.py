"""Analytic evaluators: niceness conditions, the main tail bound, bounded
differences, the per-round degree-square bound and the pattern-graph regime."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import HypergraphStats, InfeasibleError
from .generators import GraphSpec

DEFAULT_B_K = 1e-2
DEFAULT_N0 = 1_000


class DegenerateLipschitzWarning(UserWarning):
    """All Lipschitz coefficients are zero but a positive deviation was asked for."""


@dataclass(frozen=True)
class NicenessParams:
    """Parameters of the niceness condition and of the main bound.

    ``b_k`` and ``n0`` have no prescribed values (only existence); they are
    user-supplied with conservative defaults and every report echoes them.
    """

    p: float
    lam: float
    gamma_cap: float
    b: float
    b_k: float = DEFAULT_B_K
    n0: int = DEFAULT_N0

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        for name in ("lam", "gamma_cap", "b", "b_k"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive")
        if self.n0 < 1:
            raise ValueError("n0 must be >= 1")


@dataclass(frozen=True)
class ConditionCheck:
    holds: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class SizeCheck:
    """The three clauses of the first niceness condition."""

    holds: bool
    p: float
    p_max: float
    k: int
    k_min: int
    n: int
    n0: int


@dataclass(frozen=True)
class NicenessReport:
    p1: SizeCheck
    p2: ConditionCheck
    p3: ConditionCheck
    p4_status: str  # "verified-empirically" | "assumed" | "failed"

    @property
    def analytic_ok(self) -> bool:
        return self.p1.holds and self.p2.holds and self.p3.holds


@dataclass(frozen=True)
class MainBound:
    """The concentration window and failure probability of the main bound."""

    gamma1: float
    gamma2: float
    gamma1_terms: tuple[float, float, float]
    gamma2_terms: tuple[float, float]
    window: float
    prob_bound_raw: float
    prob_bound: float
    vacuous: bool


@dataclass(frozen=True)
class RegimeParams:
    """Densities and admissible (p, lambda) ranges for a pattern graph."""

    rho1: float
    rho2: float
    c1: float
    c2: float
    p_range: tuple[float, float]
    p_range_empty: bool
    lambda_range: tuple[float, float]


def _require_log_n(n: int) -> None:
    if n < 2:
        raise InfeasibleError(f"the bounds divide by ln n, which is not positive at n = {n}")


def check_nice(
    stats: HypergraphStats, params: NicenessParams, p4_evidence=None
) -> NicenessReport:
    """Evaluate the four-part niceness condition on instance statistics.

    The first three parts are analytic.  The fourth is a distributional
    statement about percolated degrees and co-degrees; it is marked
    verified-empirically only when the supplied grid evidence supports it,
    assumed when no evidence is given, and failed otherwise.
    """
    n, m, k = stats.n, stats.m, stats.k
    _require_log_n(n)
    log_n = math.log(n)
    p1 = SizeCheck(
        holds=(params.p <= 1e-3) and (k >= 3) and (n >= params.n0),
        p=params.p,
        p_max=1e-3,
        k=k,
        k_min=3,
        n=n,
        n0=params.n0,
    )
    p2 = ConditionCheck(
        holds=math.sqrt(params.p**k * m) >= max(log_n, params.lam),
        lhs=math.sqrt(params.p**k * m),
        rhs=max(log_n, params.lam),
    )
    p3 = ConditionCheck(
        holds=stats.max_codegree <= stats.min_degree * log_n**-3,
        lhs=float(stats.max_codegree),
        rhs=stats.min_degree * log_n**-3,
    )
    if p4_evidence is None:
        status = "assumed"
    else:
        status = "verified-empirically" if p4_evidence.supported else "failed"
    return NicenessReport(p1=p1, p2=p2, p3=p3, p4_status=status)


def main_bound(stats: HypergraphStats, params: NicenessParams) -> MainBound:
    """Evaluate the main concentration bound.

    Returns the deviation window (ln n + lambda) * sqrt(p^k m) and the failure
    probability 2 * (gamma1 + gamma2) * ln n, both raw and clamped to [0, 1];
    the bound is flagged vacuous when the raw value reaches 1.
    """
    n, m, k = stats.n, stats.m, stats.k
    p, lam, cap, b, b_k = params.p, params.lam, params.gamma_cap, params.b, params.b_k
    delta_max = stats.max_degree
    _require_log_n(n)
    if delta_max == 0:
        raise InfeasibleError("the main bound's third gamma1 term divides by max degree 0")
    log_n = math.log(n)
    g1 = (
        math.exp(-b * lam**2),
        2.0 * math.exp(-b_k * lam**2),
        2.0 * math.exp(-b_k * m / (p ** (k - 1) * delta_max**2 * n * log_n)),
    )
    g2 = (
        2.0 * math.exp(-b_k * p * n / log_n**5),
        2.0 * math.exp(-b_k * p**k * m / (cap**2 * log_n**6)),
    )
    gamma1 = g1[0] + g1[1] + g1[2]
    gamma2 = g2[0] + g2[1]
    raw = 2.0 * (gamma1 + gamma2) * log_n
    return MainBound(
        gamma1=gamma1,
        gamma2=gamma2,
        gamma1_terms=g1,
        gamma2_terms=g2,
        window=(log_n + lam) * math.sqrt(p**k * m),
        prob_bound_raw=raw,
        prob_bound=min(1.0, max(0.0, raw)),
        vacuous=raw >= 1.0,
    )


def mcdiarmid(t: float, lipschitz) -> float:
    """Bounded-differences tail bound min(1, 2 * exp(-2 t^2 / sum a_i^2)).

    If every coefficient is zero the function is constant: a positive
    deviation then has probability 0, which is returned with a warning.
    t and the a_i are first divided by the largest power of two not above
    max a_i.  The division is exact, so the bound keeps the bits of the
    unscaled formula wherever t^2 and sum a_i^2 lie in double range, and
    beyond that range the exponent under- or overflows only where its true
    value does.
    """
    if not t >= 0:  # NaN fails too
        raise ValueError("deviation t must be >= 0")
    coeffs = [float(a) for a in lipschitz]
    if not coeffs:
        raise ValueError("at least one Lipschitz coefficient is required")
    if not all(a >= 0 for a in coeffs):
        raise ValueError("Lipschitz coefficients must be >= 0")
    if not any(coeffs):
        if t > 0:
            warnings.warn(
                "all Lipschitz coefficients are zero: deviation is impossible",
                DegenerateLipschitzWarning,
            )
            return 0.0
        return 1.0
    unit = math.ldexp(1.0, math.frexp(max(coeffs))[1] - 1)
    t /= unit
    denom = math.fsum((a / unit) * (a / unit) for a in coeffs)
    return min(1.0, 2.0 * math.exp(-2.0 * t * t / denom))


def degree_moment_bound(deg: float, k: int, eta: float, epsilon: float) -> float:
    """Upper bound on the conditional second moment of a vertex's next-round
    degree: (eps^(2k-1) + eps^(k+1) * eta) * deg^2 + eps^k * deg."""
    if deg < 0:
        raise ValueError("degree must be >= 0")
    return (epsilon ** (2 * k - 1) + epsilon ** (k + 1) * eta) * deg**2 + epsilon**k * deg


def regime(spec: GraphSpec, N: int, c1: float) -> RegimeParams:
    """Densities rho1 = v/e, rho2 = (v-2)/(e-1) and the admissible ranges
    [N^(-rho1+c1), N^(-rho2-c1)] for p and [8 ln N, N^c2] for lambda."""
    if spec.e_g < 3:
        raise ValueError(f"pattern must have at least 3 edges, got {spec.e_g}")
    if not c1 > 0:
        raise ValueError("c1 must be positive")
    if N < spec.v_g:
        raise InfeasibleError(f"N={N} is smaller than the pattern's {spec.v_g} vertices")
    v_g, e_g = spec.v_g, spec.e_g
    rho1 = v_g / e_g
    rho2 = (v_g - 2) / (e_g - 1)
    c2 = 0.1 * c1 / (e_g + c1)
    p_lo = N ** (-rho1 + c1)
    p_hi = N ** (-rho2 - c1)
    return RegimeParams(
        rho1=rho1,
        rho2=rho2,
        c1=c1,
        c2=c2,
        p_range=(p_lo, p_hi),
        p_range_empty=p_lo > p_hi,
        lambda_range=(8.0 * math.log(N), N**c2),
    )
