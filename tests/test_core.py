import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertail import (
    Hypergraph,
    codegree,
    complete,
    degree_profile,
    stats_of,
    subgraph_hypergraph,
)
from hypertail.generators import disjoint_edges


def test_validate_basic_construction():
    H = Hypergraph(n=5, k=3, edges=[{0, 1, 2}, {0, 1, 3}, {2, 3, 4}])
    assert H.m == 3
    assert H.n == 5
    assert H.edges == ((0, 1, 2), (0, 1, 3), (2, 3, 4))


def test_validate_rejects_duplicate_edges():
    with pytest.raises(ValueError, match="duplicate"):
        Hypergraph(n=3, k=3, edges=[(0, 1, 2), (2, 1, 0)])


def test_validate_rejects_out_of_range_vertex():
    with pytest.raises(ValueError, match="outside"):
        Hypergraph(n=4, k=3, edges=[(0, 1, 5)])


def test_validate_rejects_wrong_cardinality():
    with pytest.raises(ValueError):
        Hypergraph(n=4, k=3, edges=[(0, 1)])
    with pytest.raises(ValueError):
        Hypergraph(n=4, k=3, edges=[(0, 1, 1)])


def test_validate_rejects_bad_k():
    with pytest.raises(ValueError):
        Hypergraph(n=3, k=0, edges=[])


def test_incidence_is_consistent():
    H = Hypergraph(n=5, k=3, edges=[(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    for v in range(H.n):
        for e in H.incidence[v]:
            assert v in H.edges[e]
    for e, edge in enumerate(H.edges):
        for v in edge:
            assert e in H.incidence[v]


def test_degree_profile_hand_example():
    H = Hypergraph(n=5, k=3, edges=[(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    profile = degree_profile(H)
    assert profile.deg.tolist() == [2, 2, 2, 2, 1]
    assert profile.max_degree == 2
    assert profile.min_degree == 1
    assert profile.max_codegree == 2  # pair {0, 1} sits in two edges


def test_degree_profile_disjoint_edges():
    profile = degree_profile(disjoint_edges(7, 3))
    assert profile.max_degree == 1
    assert profile.min_degree == 1
    assert profile.max_codegree == 1  # partners inside one edge co-occur once


def test_degree_profile_fully_disjoint_pairs_have_zero_codegree():
    H = disjoint_edges(4, 3)
    assert codegree(H, 0, 3) == 0
    assert codegree(H, 0, 1) == 1


def test_triangle_hypergraph_profile():
    # n = C(4,2), m = C(4,3), every K_N-edge lies in N-2 triangles
    H = subgraph_hypergraph(complete(3), 4)
    profile = degree_profile(H)
    assert (H.n, H.m, H.k) == (6, 4, 3)
    assert profile.max_degree == profile.min_degree == 2
    assert profile.max_codegree == 1


@pytest.mark.parametrize("N", [4, 5, 7, 9])
def test_triangle_hypergraph_scaling(N):
    from math import comb

    H = subgraph_hypergraph(complete(3), N)
    profile = degree_profile(H)
    assert H.n == comb(N, 2)
    assert H.m == comb(N, 3)
    assert profile.max_degree == profile.min_degree == N - 2
    assert profile.max_codegree == 1


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    k = draw(st.integers(min_value=1, max_value=min(4, n)))
    from itertools import combinations

    universe = list(combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(universe), unique=True, max_size=len(universe)))
    return Hypergraph(n=n, k=k, edges=edges)


@given(hypergraphs())
@settings(max_examples=200, deadline=None)
def test_degree_sum_identity(H):
    profile = degree_profile(H)
    assert int(profile.deg.sum()) == H.k * H.m


@given(hypergraphs())
@settings(max_examples=100, deadline=None)
def test_profile_bounds(H):
    profile = degree_profile(H)
    assert profile.min_degree <= profile.max_degree
    assert 0 <= profile.max_codegree <= profile.max_degree


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_codegree_query_matches_brute_force(H):
    profile = degree_profile(H)
    best = 0
    for u in range(H.n):
        for v in range(u + 1, H.n):
            direct = sum(1 for edge in H.edges if u in edge and v in edge)
            assert codegree(H, u, v) == direct
            assert direct <= min(profile.deg[u], profile.deg[v])
            best = max(best, direct)
    assert profile.max_codegree == best


def test_degree_profile_is_computed_once():
    H = subgraph_hypergraph(complete(3), 6)
    stats = stats_of(H)
    profile = degree_profile(H)
    assert degree_profile(H) is profile
    assert vars(H)["profile"] is profile  # the one stats_of built
    assert (stats.max_degree, stats.min_degree, stats.max_codegree) == (
        profile.max_degree,
        profile.min_degree,
        profile.max_codegree,
    )


def test_degree_profile_is_pure():
    H = subgraph_hypergraph(complete(3), 5)
    a, b = degree_profile(H), degree_profile(H)
    assert np.array_equal(a.deg, b.deg)
    assert (a.max_degree, a.min_degree, a.max_codegree) == (
        b.max_degree,
        b.min_degree,
        b.max_codegree,
    )
