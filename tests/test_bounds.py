import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertail import (
    HypergraphStats,
    NicenessParams,
    check_nice,
    complete,
    complete_bipartite,
    main_bound,
    mcdiarmid,
    degree_moment_bound,
    regime,
    stats_of,
    subgraph_hypergraph,
)
from hypertail.bounds import DegenerateLipschitzWarning

REL = 1e-12


def make_stats(n, m, k, dmax, dmin=None, codeg=0):
    return HypergraphStats(
        n=n, m=m, k=k, max_degree=dmax, min_degree=dmax if dmin is None else dmin, max_codegree=codeg
    )


# --- mcdiarmid -------------------------------------------------------------


def test_mcdiarmid_zero_deviation():
    assert mcdiarmid(0.0, [1.0, 2.0]) == 1.0


def test_mcdiarmid_pinned_value():
    assert mcdiarmid(2.0, [1, 1, 1, 1]) == pytest.approx(2 * math.exp(-2), rel=REL)


def test_mcdiarmid_degenerate_flags():
    with pytest.warns(DegenerateLipschitzWarning):
        assert mcdiarmid(1.0, [0.0, 0.0]) == 0.0


def test_mcdiarmid_power_of_two_scaling_is_exact():
    base = mcdiarmid(1.7, [0.3, 1.1, 0.9])
    assert mcdiarmid(2 * 1.7, [0.6, 2.2, 1.8]) == base
    assert mcdiarmid(0.25 * 1.7, [0.075, 0.275, 0.225]) == base
    # far enough that t^2 and sum a_i^2 leave double range while their ratio stays
    for scale in (2.0**600, 2.0**-600):
        assert mcdiarmid(scale * 1.7, [scale * a for a in (0.3, 1.1, 0.9)]) == base


@given(st.floats(min_value=0.01, max_value=50), st.floats(min_value=0.01, max_value=50))
@settings(max_examples=100)
def test_mcdiarmid_in_unit_interval_and_decreasing(t, a):
    lo = mcdiarmid(t, [a, a])
    hi = mcdiarmid(t + 1.0, [a, a])
    assert 0.0 <= hi <= lo <= 1.0


def test_mcdiarmid_validation():
    with pytest.raises(ValueError):
        mcdiarmid(-1.0, [1.0])
    with pytest.raises(ValueError):
        mcdiarmid(1.0, [])
    with pytest.raises(ValueError):
        mcdiarmid(1.0, [1.0, -2.0])
    with pytest.raises(ValueError, match="deviation t must be >= 0"):
        mcdiarmid(float("nan"), [1.0, 1.0])
    with pytest.raises(ValueError, match="Lipschitz coefficients must be >= 0"):
        mcdiarmid(2.0, [1.0, float("nan")])


# --- degree_moment_bound ----------------------------------------------------------


def test_degree_moment_bound_examples():
    assert degree_moment_bound(0, 3, 1.0, 0.5) == 0.0
    eps, k = 0.5, 3
    assert degree_moment_bound(1, k, 1.0, eps) == pytest.approx(
        eps ** (2 * k - 1) + eps ** (k + 1) + eps**k, rel=REL
    )


@given(
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=0.01, max_value=0.99),
    st.sampled_from([1.0, 0.05]),
)
@settings(max_examples=100)
def test_degree_moment_bound_dominates_leading_term(deg, eps, eta):
    k = 3
    assert degree_moment_bound(deg, k, eta, eps) >= eps ** (2 * k - 1) * deg**2


# --- main_bound: frozen scripted-calculator values -------------------------

MAIN_BOUND_CASES = [
    # (n, m, k, max_deg, p, lam, cap, b, bk) -> (gamma1, gamma2, window, raw)
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


@pytest.mark.parametrize("inputs,expected", MAIN_BOUND_CASES)
def test_main_bound_pinned_values(inputs, expected):
    n, m, k, dmax, p, lam, cap, b, bk = inputs
    stats = make_stats(n, m, k, dmax)
    mb = main_bound(stats, NicenessParams(p=p, lam=lam, gamma_cap=cap, b=b, b_k=bk))
    g1, g2, window, raw = expected
    assert mb.gamma1 == pytest.approx(g1, rel=REL)
    assert mb.gamma2 == pytest.approx(g2, rel=REL)
    assert mb.window == pytest.approx(window, rel=REL)
    assert mb.prob_bound_raw == pytest.approx(raw, rel=REL)
    assert mb.vacuous == (raw >= 1.0)
    assert mb.prob_bound == min(1.0, raw)


def test_main_bound_monotone_in_lambda():
    stats = make_stats(4950, 161700, 3, 98)
    values = []
    for lam in (1, 2, 4, 8, 16, 32):
        mb = main_bound(stats, NicenessParams(p=5e-4, lam=lam, gamma_cap=10, b=1, b_k=0.01))
        values.append(mb.prob_bound_raw)
    assert values == sorted(values, reverse=True)


def test_main_bound_lambda_limit_reaches_structural_term():
    stats = make_stats(4950, 161700, 3, 98)
    mb = main_bound(stats, NicenessParams(p=5e-4, lam=1e6, gamma_cap=10, b=1, b_k=0.01))
    structural = 2 * math.exp(
        -0.01 * stats.m / (5e-4 ** 2 * stats.max_degree**2 * stats.n * math.log(stats.n))
    )
    assert mb.gamma1 == pytest.approx(structural, rel=1e-9)


def test_main_bound_monotone_in_m():
    values = []
    for m in (1_000, 10_000, 100_000, 1_000_000):
        stats = make_stats(4950, m, 3, 98)
        mb = main_bound(stats, NicenessParams(p=5e-4, lam=8, gamma_cap=10, b=1, b_k=0.01))
        values.append(mb.prob_bound_raw)
    assert values == sorted(values, reverse=True)


def test_main_bound_monotone_in_cap():
    values = []
    for cap in (1, 5, 25, 125):
        stats = make_stats(4950, 161700, 3, 98)
        mb = main_bound(stats, NicenessParams(p=5e-4, lam=8, gamma_cap=cap, b=1, b_k=0.01))
        values.append(mb.prob_bound_raw)
    assert values == sorted(values)


def test_main_bound_cap_limit():
    stats = make_stats(4950, 161700, 3, 98)
    mb = main_bound(stats, NicenessParams(p=5e-4, lam=8, gamma_cap=1e12, b=1, b_k=0.01))
    expected = 2 * math.exp(-0.01 * 5e-4 * 4950 / math.log(4950) ** 5) + 2.0
    assert mb.gamma2 == pytest.approx(expected, rel=1e-9)


# --- check_nice ------------------------------------------------------------


def test_check_nice_triangle_100_fails_p3():
    stats = stats_of(subgraph_hypergraph(complete(3), 100))
    report = check_nice(stats, NicenessParams(p=1e-3, lam=3, gamma_cap=10, b=1, n0=10))
    assert not report.p3.holds
    assert report.p3.lhs == 1.0
    assert report.p3.rhs == pytest.approx(0.15917501465506052, rel=REL)
    assert report.p2.lhs == pytest.approx(0.012716131487209465, rel=REL)
    assert report.p2.rhs == pytest.approx(8.507142855562736, rel=REL)
    assert not report.p2.holds
    assert report.p4_status == "assumed"


def test_check_nice_disjoint_p2_fails():
    # sqrt(p^k m) = sqrt(1e-5) is far below ln n
    stats = make_stats(30_000, 10_000, 3, 1, dmin=1, codeg=1)
    report = check_nice(stats, NicenessParams(p=1e-3, lam=1, gamma_cap=5, b=1, n0=10))
    assert not report.p2.holds
    # same-edge pairs have co-degree 1, so p3 fails too (1 > ln^-3 n)
    assert not report.p3.holds
    assert report.p1.holds


def test_check_nice_k2_fails_p1():
    stats = make_stats(10_000, 5_000, 2, 7, dmin=3)
    report = check_nice(stats, NicenessParams(p=1e-4, lam=1, gamma_cap=5, b=1, n0=10))
    assert not report.p1.holds


def test_check_nice_p2_flips_at_threshold():
    n, m, k = 5_000, 10**9, 3
    lam = 1.0
    p_star = (math.log(n) ** 2 / m) ** (1 / k)
    stats = make_stats(n, m, k, 10, dmin=10)
    hi = check_nice(stats, NicenessParams(p=p_star * (1 + 1e-9), lam=lam, gamma_cap=5, b=1))
    lo = check_nice(stats, NicenessParams(p=p_star * (1 - 1e-9), lam=lam, gamma_cap=5, b=1))
    assert hi.p2.holds
    assert not lo.p2.holds


def test_check_nice_p3_flips_at_threshold():
    n = 5_000
    dmin = 10**7
    threshold = dmin * math.log(n) ** -3
    below = make_stats(n, 100, 3, dmin, dmin=dmin, codeg=int(threshold) - 1)
    above = make_stats(n, 100, 3, dmin, dmin=dmin, codeg=int(threshold) + 1)
    params = NicenessParams(p=1e-3, lam=1, gamma_cap=5, b=1)
    assert check_nice(below, params).p3.holds
    assert not check_nice(above, params).p3.holds


def test_check_nice_purity():
    stats = make_stats(4950, 161700, 3, 98, dmin=98, codeg=1)
    params = NicenessParams(p=1e-3, lam=3, gamma_cap=10, b=1)
    assert check_nice(stats, params) == check_nice(stats, params)


# --- regime ----------------------------------------------------------------


def test_regime_triangle():
    reg = regime(complete(3), 50, 0.05)
    assert reg.rho1 == pytest.approx(1.0, rel=REL)
    assert reg.rho2 == pytest.approx(0.5, rel=REL)
    assert reg.c2 == pytest.approx(0.001639344262295082, rel=REL)
    assert reg.p_range[0] == pytest.approx(0.024320835813173147, rel=REL)
    assert reg.p_range[1] == pytest.approx(0.11629646063455598, rel=REL)
    assert reg.lambda_range[0] == pytest.approx(31.296184043425168, rel=REL)
    assert reg.lambda_range[1] == pytest.approx(1.0064337607613585, rel=REL)


def test_regime_k33():
    reg = regime(complete_bipartite(3, 3), 30, 0.01)
    assert reg.rho1 == pytest.approx(2 / 3, rel=REL)
    assert reg.rho2 == pytest.approx(0.5, rel=REL)
    assert reg.c2 == pytest.approx(0.00011098779134295228, rel=REL)
    assert reg.p_range[0] == pytest.approx(0.10715778041943386, rel=REL)
    assert reg.p_range[1] == pytest.approx(0.17646889249174869, rel=REL)


def test_regime_k4_densities():
    reg = regime(complete(4), 20, 0.01)
    assert reg.rho1 == pytest.approx(2 / 3, rel=REL)
    assert reg.rho2 == pytest.approx(0.4, rel=REL)


def test_regime_k22():
    reg = regime(complete_bipartite(2, 2), 20, 0.1)
    assert reg.rho1 == pytest.approx(1.0, rel=REL)
    assert reg.rho2 == pytest.approx(2 / 3, rel=REL)
    assert reg.c2 == pytest.approx(0.01 / 4.1, rel=REL)


def test_regime_rejects_small_patterns():
    with pytest.raises(ValueError):
        regime(complete(2), 20, 0.1)


@pytest.mark.parametrize("c1", [0.0, -0.1, float("nan")])
def test_regime_rejects_c1_not_positive(c1):
    with pytest.raises(ValueError, match="c1 must be positive"):
        regime(complete(3), 50, c1)


@pytest.mark.parametrize(
    "spec",
    [complete(3), complete(4), complete(5), complete(6),
     complete_bipartite(2, 2), complete_bipartite(2, 3), complete_bipartite(3, 3)],
)
def test_regime_nonempty_for_standard_patterns(spec):
    reg = regime(spec, 10, 0.01)
    assert reg.rho1 - reg.rho2 > 0.02
    assert not reg.p_range_empty
