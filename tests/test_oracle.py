from itertools import combinations
from math import fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertail import (
    BudgetError,
    Hypergraph,
    complete,
    disjoint_edges,
    exact_distribution,
    exact_expectation,
    exact_variance,
    random_uniform,
    subgraph_hypergraph,
)

TOL = 1e-12


def brute_force_law(H, p):
    """Independent oracle: walk all 2^n subsets with plain python ints."""
    probs = {}
    for mask in range(1 << H.n):
        x = sum(1 for edge in H.edges if all(mask >> v & 1 for v in edge))
        size = bin(mask).count("1")
        probs[x] = probs.get(x, 0.0) + p**size * (1 - p) ** (H.n - size)
    return probs


def brute_force_moments(H, p):
    probs = brute_force_law(H, p)
    mean = fsum(x * pr for x, pr in probs.items())
    var = fsum(pr * (x - mean) ** 2 for x, pr in probs.items())
    return mean, var


def test_expectation_examples():
    assert exact_expectation(subgraph_hypergraph(complete(3), 4), 0.5) == pytest.approx(0.5, abs=TOL)
    assert exact_expectation(disjoint_edges(200, 3), 0.3) == pytest.approx(5.4, abs=TOL)


def test_expectation_monotone_in_p():
    H = subgraph_hypergraph(complete(3), 5)
    values = [exact_expectation(H, p) for p in (0.1, 0.2, 0.4, 0.6, 0.8)]
    assert values == sorted(values)


def test_expectation_rejects_bad_p():
    H = disjoint_edges(2, 2)
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            exact_expectation(H, p)


def test_variance_disjoint_closed_form():
    H = disjoint_edges(37, 3)
    for p in (0.1, 0.3, 0.5, 0.9):
        expected = 37 * (p**3 - p**6)
        assert exact_variance(H, p) == pytest.approx(expected, rel=TOL)


def test_variance_triangle_pinned_value():
    # 4(p^3 - p^6) + 12(p^5 - p^6) at p = 1/2, cross-checked by enumeration
    H = subgraph_hypergraph(complete(3), 4)
    assert exact_variance(H, 0.5) == pytest.approx(0.625, abs=TOL)
    _, var = brute_force_moments(H, 0.5)
    assert var == pytest.approx(0.625, abs=TOL)


def test_variance_single_edge():
    H = Hypergraph(n=2, k=2, edges=[(0, 1)])
    assert exact_variance(H, 0.5) == pytest.approx(0.25 * 0.75, abs=TOL)


def test_variance_budget():
    with pytest.raises(BudgetError):
        exact_variance(disjoint_edges(30_000, 3), 0.5)


def test_variance_covariance_terms_nonnegative():
    # recompute pairwise terms independently and check each one
    H = subgraph_hypergraph(complete(3), 5)
    p = 0.37
    for e1, e2 in combinations(H.edges, 2):
        union = len(set(e1) | set(e2))
        assert p**union - p ** (2 * H.k) >= 0.0


def test_distribution_single_unary_edge():
    H = Hypergraph(n=1, k=1, edges=[(0,)])
    dist = exact_distribution(H, 0.3)
    assert dist.probabilities[0] == pytest.approx(0.7, abs=TOL)
    assert dist.probabilities[1] == pytest.approx(0.3, abs=TOL)


def test_distribution_two_disjoint_pairs_is_binomial():
    dist = exact_distribution(disjoint_edges(2, 2), 0.5)
    assert dist.probabilities[0] == pytest.approx(0.5625, abs=TOL)
    assert dist.probabilities[1] == pytest.approx(0.375, abs=TOL)
    assert dist.probabilities[2] == pytest.approx(0.0625, abs=TOL)


def test_distribution_triangle_moments():
    dist = exact_distribution(subgraph_hypergraph(complete(3), 4), 0.5)
    assert dist.mean() == pytest.approx(0.5, abs=TOL)
    assert dist.variance() == pytest.approx(0.625, abs=TOL)


def test_distribution_limit_guard():
    with pytest.raises(BudgetError):
        exact_distribution(disjoint_edges(8, 3), 0.5)  # n = 24 > 22


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
def test_distribution_agrees_with_closed_forms(seed, p):
    H = random_uniform(9, 10, 3, seed=seed)
    dist = exact_distribution(H, p)
    assert fsum(dist.probabilities.values()) == pytest.approx(1.0, abs=TOL)
    assert dist.mean() == pytest.approx(exact_expectation(H, p), abs=TOL)
    assert dist.variance() == pytest.approx(exact_variance(H, p), abs=TOL)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.1, 0.25, 0.5, 0.75]),
)
@settings(max_examples=25, deadline=None)
def test_distribution_matches_independent_enumeration(seed, p):
    H = random_uniform(7, 6, 3, seed=seed)
    dist = exact_distribution(H, p)
    oracle = brute_force_law(H, p)
    assert set(dist.probabilities) == {x for x, pr in oracle.items() if pr}
    for x, pr in dist.probabilities.items():
        assert pr == pytest.approx(oracle[x], abs=1e-12)
