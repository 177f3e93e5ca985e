import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb, fsum

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from hypertail.oracle import CHUNK_ENTRIES, intersection_profile

TOL = 1e-12


def brute_force_law(H, p):
    """Independent oracle: walk all 2^n subsets with plain python ints."""
    edges, probs = H.edges_arr.tolist(), {}
    for mask in range(1 << H.n):
        x = sum(1 for edge in edges if all(mask >> v & 1 for v in edge))
        size = bin(mask).count("1")
        probs[x] = probs.get(x, 0.0) + p**size * (1 - p) ** (H.n - size)
    return probs


def masked_pass_law(H, p):
    """The per-edge masked pass over all 2^n subsets that exact_distribution
    replaced, kept as its reference."""
    n, m = H.n, H.m
    subsets = np.arange(1 << n, dtype=np.uint64)
    edge_count = np.zeros(1 << n, dtype=np.int64)
    for edge in H.edges_arr.tolist():
        mask = np.uint64(sum(1 << v for v in edge))
        edge_count += (subsets & mask) == mask
    popcount = np.bitwise_count(subsets).astype(np.int64)
    joint = np.zeros((m + 1, n + 1), dtype=np.int64)
    np.add.at(joint, (edge_count, popcount), 1)
    weight = [p**c * (1.0 - p) ** (n - c) for c in range(n + 1)]
    probabilities = {}
    for x in range(m + 1):
        row = joint[x]
        if row.any():
            probabilities[x] = fsum(int(row[c]) * weight[c] for c in range(n + 1) if row[c])
    return probabilities


def brute_force_moments(H, p):
    probs = brute_force_law(H, p)
    mean = fsum(x * pr for x, pr in probs.items())
    var = fsum(pr * (x - mean) ** 2 for x, pr in probs.items())
    return mean, var


def brute_force_variance(H, p):
    """The ordered pair scan exact_variance replaced, kept as its reference."""
    k = H.k
    p2k = p ** (2 * k)
    terms = [p**k - p2k] * H.m
    edge_sets = [set(edge) for edge in H.edges_arr.tolist()]
    for i, edge in enumerate(edge_sets):
        overlapping = set()
        for v in edge:
            overlapping.update(H.edges_at(v).tolist())
        overlapping.discard(i)
        for j in overlapping:
            union = 2 * k - len(edge & edge_sets[j])
            term = p**union - p2k
            assert term >= 0.0  # |e U e'| <= 2k forces nonnegative covariance
            terms.append(term)
    return fsum(terms)


def brute_force_profile(H):
    """B_1..B_{k-1} by meeting every ordered pair of distinct edges."""
    profile, edges = [0] * H.k, H.edges_arr.tolist()
    for e1 in edges:
        for e2 in edges:
            if e1 != e2:
                profile[len(set(e1) & set(e2))] += 1
    return tuple(profile[1:])


@st.composite
def hypergraphs(draw, max_n=14):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, max_n))
    edges = []
    if n >= k:
        edge = st.sets(st.integers(0, n - 1), min_size=k, max_size=k)
        edges = draw(st.lists(edge, max_size=60, unique_by=frozenset))
    return Hypergraph(n=n, k=k, edges=[sorted(e) for e in edges])


RETENTION = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    # p^2k underflows for every k <= 5, then p^k too, then p^(2k-j) near 1
    st.sampled_from([1e-40, 1e-70, 1e-200, 5e-324, 1e-8, 1 - 1e-6, 1 - 2**-53]),
)


@given(hypergraphs(), RETENTION)
@example(Hypergraph(n=1, k=3, edges=[]), 0.5)
@example(Hypergraph(n=1, k=1, edges=[(0,)]), 0.3)
@settings(max_examples=300, deadline=None)
def test_variance_profile_matches_pair_scan(H, p):
    assert intersection_profile(H) == brute_force_profile(H)
    assert exact_variance(H, p) == brute_force_variance(H, p)


@st.composite
def long_edges(draw):
    """Edges of up to 40 vertices that share only a few: a small common core
    plus private vertices, so each edge has its own number of shared ones."""
    k = draw(st.integers(6, 40))
    core = draw(st.integers(1, 8))
    picks = draw(st.lists(st.sets(st.integers(0, core - 1), max_size=min(core, k - 1)), max_size=12))
    edges, fresh = [], core
    for pick in picks:
        edges.append(sorted(pick) + list(range(fresh, fresh + k - len(pick))))
        fresh += k - len(pick)
    return Hypergraph(n=fresh, k=k, edges=edges)


@given(long_edges(), RETENTION)
@settings(max_examples=100, deadline=None)
def test_variance_profile_matches_pair_scan_for_long_edges(H, p):
    assert intersection_profile(H) == brute_force_profile(H)
    assert exact_variance(H, p) == brute_force_variance(H, p)


def test_variance_of_one_long_edge():
    # no vertex is shared, so the profile enumerates no subsets at all
    assert exact_variance(disjoint_edges(1, 40), 0.3) == 0.3**40 - 0.3**80
    H = disjoint_edges(500, 40)
    assert exact_variance(H, 0.3) == brute_force_variance(H, 0.3)


def test_variance_budget_counts_subset_rows():
    # K8 on 9 vertices: 9 edges whose 8 vertices are all shared, 9 * 2^8 = 2304 rows
    H = Hypergraph(n=9, k=8, edges=list(combinations(range(9), 8)))
    with pytest.raises(BudgetError, match="2304 subset rows exceeds budget 1920"):
        exact_variance(H, 0.5, pair_budget=30)
    assert exact_variance(H, 0.5, pair_budget=36) == brute_force_variance(H, 0.5)
    with pytest.raises(BudgetError, match="subset rows exceeds budget"):
        exact_variance(Hypergraph(n=21, k=20, edges=list(combinations(range(21), 20))), 0.5)


@pytest.mark.parametrize("p", [0.01, 0.3, 0.77])
def test_variance_triangles_in_k100_closed_form(p):
    # m triangles of K_100's edges; two distinct triangles share at most one
    # edge, and each of the C(N,2) edges lies in N-2 of them, so
    # Var = m(p^3 - p^6) + C(N,2)(N-2)(N-3)(p^5 - p^6): 1.6e9 pairs to a scan
    N = 100
    H = subgraph_hypergraph(complete(3), N)
    m = comb(N, 3)
    assert H.m == m
    assert intersection_profile(H, pair_budget=m) == (comb(N, 2) * (N - 2) * (N - 3), 0)
    exact = m * Fraction(p**3 - p**6) + comb(N, 2) * (N - 2) * (N - 3) * Fraction(p**5 - p**6)
    assert exact_variance(H, p, pair_budget=m) == float(exact)


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
    # the budget counts subset rows only: 30 000 edges sharing no vertex need one row each
    m, p = 30_000, 0.5
    assert exact_variance(disjoint_edges(m, 3), p) == float(m * Fraction(p**3 - p**6))
    with pytest.raises(BudgetError, match="subset rows exceeds budget"):
        exact_variance(disjoint_edges(100, 3), p, pair_budget=1)


def test_variance_covariance_terms_nonnegative():
    # recompute pairwise terms independently and check each one
    H = subgraph_hypergraph(complete(3), 5)
    p = 0.37
    for e1, e2 in combinations(H.edges_arr.tolist(), 2):
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


def law_examples(test):
    """The edge cases of both masked-pass properties: n = 1, m = 0, n odd, k = n."""
    for H, p in [
        (Hypergraph(n=1, k=1, edges=[(0,)]), 0.3),  # no low bits
        (Hypergraph(n=1, k=3, edges=[]), 5e-324),
        (Hypergraph(n=16, k=2, edges=[]), 0.5),
        (Hypergraph(n=5, k=5, edges=[range(5)]), 1 - 2**-53),
        (Hypergraph(n=16, k=16, edges=[range(16)]), 0.3),
        (Hypergraph(n=15, k=5, edges=list(combinations(range(15), 5))[::50]), 0.7),
    ]:
        test = example(H, p)(test)
    return test


@given(hypergraphs(max_n=16), RETENTION)
@law_examples
@settings(max_examples=300, deadline=None)
def test_distribution_equals_masked_pass(H, p):
    law = exact_distribution(H, p).probabilities
    assert list(law.items()) == list(masked_pass_law(H, p).items())


@pytest.mark.parametrize("rows", [1, 3, 64])  # 3 rows do not divide 2^(n - n // 2)
@given(hypergraphs(max_n=16), RETENTION)
@law_examples
@settings(max_examples=100, deadline=None)
def test_distribution_in_blocks_equals_masked_pass(rows, H, p):
    # every n <= 16 fits one block of the default size: shrink the blocks to
    # a few high-half rows and the edge chunks to a few edges, so both split
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("hypertail.oracle.BLOCK_ENTRIES", rows << (H.n // 2))
        patch.setattr("hypertail.oracle.CHUNK_ENTRIES", 5 << (H.n // 2))
        law = exact_distribution(H, p).probabilities
    assert list(law.items()) == list(masked_pass_law(H, p).items())


def traced_peak(call):
    call()  # warm numpy's imports and caches outside the trace
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_distribution_memory_is_bounded_by_blocks():
    # K3 on K_7 (n = 21): the whole 2^21 key and its intp copy peak at 24 MiB
    H = subgraph_hypergraph(complete(3), 7)
    assert traced_peak(lambda: exact_distribution(H, 0.3)) < 6 * 2**20


def test_distribution_past_the_default_limit_is_binomial():
    # disjoint 8x3 (n = 24): a whole key would peak at 192 MiB
    H, p = disjoint_edges(8, 3), 0.3
    assert traced_peak(lambda: exact_distribution(H, p, limit=24)) < 6 * 2**20
    law = exact_distribution(H, p, limit=24).probabilities
    q = p**3
    assert law.keys() == set(range(9))
    for x, pr in law.items():
        assert pr == pytest.approx(comb(8, x) * q**x * (1 - q) ** (8 - x), abs=TOL)


@pytest.mark.parametrize("p", [0.05, 0.5, 0.93])
def test_distribution_of_complete_8_uniform_on_16_vertices(p):
    # S holds C(|S|, 8) of the C(16, 8) edges, so P(X = x) sums C(16, s) p^s (1-p)^(16-s)
    # over the s with C(s, 8) = x; the edges span several chunks
    H = Hypergraph(n=16, k=8, edges=list(combinations(range(16), 8)))
    assert H.m > CHUNK_ENTRIES // (2**8 + 2**8)
    terms = {}
    for s in range(17):
        terms.setdefault(comb(s, 8), []).append(comb(16, s) * (p**s * (1 - p) ** (16 - s)))
    assert exact_distribution(H, p).probabilities == {x: fsum(t) for x, t in terms.items()}
