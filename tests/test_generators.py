from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertail import (
    BudgetError,
    Hypergraph,
    InfeasibleError,
    complete,
    complete_bipartite,
    degree_profile,
    disjoint_edges,
    pair_rank,
    pair_unrank,
    random_uniform,
    subgraph_hypergraph,
)


def brute_force_bipartite_copies(a, b, N):
    """Independent oracle: distinct edge sets of K_{a,b} copies in K_N."""
    copies = set()
    for left in combinations(range(N), a):
        rest = [x for x in range(N) if x not in left]
        for right in combinations(rest, b):
            copies.add(frozenset(frozenset((x, y)) for x in left for y in right))
    return copies


def test_triangle_n4_counts():
    H = subgraph_hypergraph(complete(3), 4)
    assert (H.n, H.m, H.k) == (6, comb(4, 3), 3)


def test_triangle_n10_counts():
    H = subgraph_hypergraph(complete(3), 10)
    profile = degree_profile(H)
    assert (H.n, H.m) == (45, 120)
    assert profile.max_degree == 8


def test_bipartite_k22_n4():
    H = subgraph_hypergraph(complete_bipartite(2, 2), 4)
    assert (H.m, H.k) == (3, 4)
    assert H.m == len(brute_force_bipartite_copies(2, 2, 4))


@pytest.mark.parametrize("a,b,N", [(2, 2, 5), (2, 3, 6), (1, 3, 5)])
def test_bipartite_counts_match_brute_force(a, b, N):
    H = subgraph_hypergraph(complete_bipartite(a, b), N)
    oracle = brute_force_bipartite_copies(a, b, N)
    assert H.m == len(oracle)
    # edge sets agree after mapping pair ids back to vertex pairs
    ours = {frozenset(frozenset(pair_unrank(v)) for v in edge) for edge in H.edges}
    assert ours == oracle


@pytest.mark.parametrize("r,N", [(3, 6), (4, 7), (5, 8)])
def test_complete_copies_have_uniform_degrees(r, N):
    H = subgraph_hypergraph(complete(r), N)
    profile = degree_profile(H)
    assert H.m == comb(N, r)
    assert profile.max_degree == profile.min_degree == comb(N - 2, r - 2)


@pytest.mark.parametrize(
    "spec,N",
    [(complete(3), 7), (complete(4), 7), (complete_bipartite(2, 2), 6), (complete_bipartite(2, 3), 7)],
)
def test_degree_regularity_across_patterns(spec, N):
    profile = degree_profile(subgraph_hypergraph(spec, N))
    assert profile.max_degree == profile.min_degree


@pytest.mark.parametrize("N", [6, 7, 9])
def test_k4_max_codegree_counts_copies_through_two_host_edges(N):
    # two host edges sharing a vertex lie in N-3 common K4 copies
    profile = degree_profile(subgraph_hypergraph(complete(4), N))
    assert profile.max_codegree == N - 3


def test_generator_output_revalidates():
    H = subgraph_hypergraph(complete(3), 6)
    again = Hypergraph(n=H.n, k=H.k, edges=H.edges)
    assert again == H


def test_subgraph_budget_guard():
    with pytest.raises(BudgetError):
        subgraph_hypergraph(complete(3), 500)  # C(500,3) > 1e7


def test_edge_budget_guards_disjoint_and_random():
    # the budget counts the m*k = 15 vertex ids of the edge list
    with pytest.raises(BudgetError):
        disjoint_edges(5, 3, budget=14)
    with pytest.raises(BudgetError):
        random_uniform(9, 5, 3, seed=1, budget=14)
    assert disjoint_edges(5, 3, budget=15).m == random_uniform(9, 5, 3, seed=1, budget=15).m == 5


def test_subgraph_requires_enough_vertices():
    with pytest.raises(InfeasibleError):
        subgraph_hypergraph(complete(4), 3)


def test_disjoint_edges_shapes():
    H = disjoint_edges(3, 3)
    assert H.n == 9
    assert degree_profile(H).max_codegree == 1
    assert disjoint_edges(1, 2).edges == ((0, 1),)
    big = disjoint_edges(200, 3)
    assert big.n == 600
    assert int(degree_profile(big).deg.sum()) == 600


def test_random_uniform_exhaustion_forces_full_set():
    for seed in (1, 99):
        H = random_uniform(6, 20, 3, seed=seed)
        assert H.edges == tuple(combinations(range(6), 3))


def test_random_uniform_deterministic():
    assert random_uniform(10, 5, 3, seed=7) == random_uniform(10, 5, 3, seed=7)


def test_random_uniform_infeasible():
    with pytest.raises(InfeasibleError):
        random_uniform(4, 5, 3, seed=1)


def test_pair_rank_examples():
    assert pair_rank(0, 1) == 0
    assert pair_rank(1, 0) == 0
    assert [pair_rank(a, b) for a, b in [(0, 2), (1, 2), (0, 3)]] == [1, 2, 3]


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=200)
def test_pair_rank_roundtrip(idx):
    a, b = pair_unrank(idx)
    assert a < b
    assert pair_rank(a, b) == idx
