import hashlib
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypertail import (
    BudgetError,
    Hypergraph,
    InfeasibleError,
    complete,
    complete_bipartite,
    disjoint_edges,
    generators,
    pair_rank,
    pair_unrank,
    random_uniform,
    stats_of,
    subgraph_hypergraph,
)
from hypertail.hgr import dumps


def brute_force_bipartite_copies(a, b, N):
    """Independent oracle: distinct edge sets of K_{a,b} copies in K_N."""
    copies = set()
    for left in combinations(range(N), a):
        rest = [x for x in range(N) if x not in left]
        for right in combinations(rest, b):
            copies.add(frozenset(frozenset((x, y)) for x in left for y in right))
    return copies


def brute_force_complete_copies(r, N):
    """Independent oracle: distinct edge sets of K_r copies in K_N."""
    return {
        frozenset(frozenset(pair) for pair in combinations(sub, 2))
        for sub in combinations(range(N), r)
    }


def reference_copies(spec, N):
    """The tuple-per-copy generator the numpy enumeration replaced: one tuple
    of pair ranks per copy, in the order of ``itertools.combinations``."""
    if spec.family == "complete":
        r = spec.parts[0]
        for sub in combinations(range(N), r):
            yield tuple(pair_rank(x, y) for x, y in combinations(sub, 2))
    else:
        a, b = spec.parts
        for left in combinations(range(N), a):
            rest = [x for x in range(N) if x not in left]
            for right in combinations(rest, b):
                if a == b and left > right:
                    continue  # unordered side pair: count each split once
                yield tuple(pair_rank(x, y) for x in left for y in right)


def test_triangle_n4_counts():
    H = subgraph_hypergraph(complete(3), 4)
    assert (H.n, H.m, H.k) == (6, comb(4, 3), 3)


def test_triangle_n10_counts():
    H = subgraph_hypergraph(complete(3), 10)
    stats = stats_of(H)
    assert (H.n, H.m) == (45, 120)
    assert stats.max_degree == 8


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


@pytest.mark.parametrize("r,N", [(2, 5), (3, 7), (4, 7), (5, 8)])
def test_complete_copies_match_brute_force(r, N):
    H = subgraph_hypergraph(complete(r), N)
    ours = {frozenset(frozenset(pair_unrank(v)) for v in edge) for edge in H.edges}
    assert H.m == len(ours)  # no two copies share an edge set
    assert ours == brute_force_complete_copies(r, N)


@st.composite
def patterns(draw):
    if draw(st.booleans()):
        spec = complete(draw(st.integers(2, 6)))
    else:
        a = draw(st.integers(1, 4))
        spec = complete_bipartite(a, draw(st.integers(a, 9 - a)))
    return spec, draw(st.integers(spec.v_g, 9))


@given(patterns())
@settings(max_examples=120, deadline=None)
@example((complete(2), 2))
@example((complete(2), 9))
@example((complete(6), 6))
@example((complete_bipartite(1, 1), 2))
@example((complete_bipartite(1, 8), 9))
@example((complete_bipartite(3, 3), 6))
@example((complete_bipartite(4, 4), 9))
@example((complete_bipartite(4, 5), 9))
def test_subgraph_hypergraph_equals_reference(case):
    spec, N = case
    reference = Hypergraph(n=comb(N, 2), k=spec.e_g, edges=list(reference_copies(spec, N)))
    assert subgraph_hypergraph(spec, N) == reference


@pytest.mark.parametrize("r,N", [(2, 6), (3, 12), (4, 9), (5, 9), (6, 8)])
def test_complete_rows_arrive_canonical(r, N):
    # the enumeration order already is the constructor's, so it sorts nothing
    rows = generators._pattern_edges(complete(r), N)
    assert np.array_equal(rows, subgraph_hypergraph(complete(r), N).edges_arr)


@pytest.mark.parametrize("n,m,k,seed", [(8, 30, 5, 1), (9, 30, 4, 2), (12, 40, 10, 3), (30, 200, 3, 5)])
def test_random_uniform_draws_the_reference_universe(n, m, k, seed):
    # the enumerated-universe path indexes the k-sets in combinations order
    universe = list(combinations(range(n), k))
    picks = np.random.default_rng(seed).choice(len(universe), size=m, replace=False)
    reference = Hypergraph(n=n, k=k, edges=[universe[i] for i in picks.tolist()])
    assert random_uniform(n, m, k, seed=seed) == reference


# sha256 of the HGR text of mid-size instances of every family, as written
# by the tuple-per-copy generators; the numpy builders must match them byte
# for byte (the random instance takes the enumerated-universe path)
PINNED_HGR = [
    (lambda: subgraph_hypergraph(complete(3), 30),
     "1defddbeac72ec29694210720d92d4abda89e14b3d5c95ee775d0cd61ca10069"),
    (lambda: subgraph_hypergraph(complete(4), 9),
     "e734059ad3abc788b987e0015d8127af8051b668bbf3604d0f4a765df13cff69"),
    (lambda: subgraph_hypergraph(complete_bipartite(2, 3), 8),
     "30837877b069a2c0479390b2019bf189d94b2b6adca6fb1ee6cafe81691e7bea"),
    (lambda: subgraph_hypergraph(complete_bipartite(3, 3), 7),
     "cb430d9ebbb213e620413d0ba0f9df965450986b38f0b49ae87e652e88e1c7b4"),
    (lambda: disjoint_edges(200, 3),
     "1039e60ea5e0b191156a3a4e21b9e185679790ff6f423f266d198e85eb961ec5"),
    (lambda: random_uniform(30, 200, 3, seed=5),
     "35bc09a196bac1971e0e540c1e4994faa6f5a333c04b2fb62b09049fe28658bc"),
]


@pytest.mark.parametrize(
    "build,digest",
    PINNED_HGR,
    ids=["K3-N30", "K4-N9", "K23-N8", "K33-N7", "disjoint-200x3", "random-30-200-3"],
)
def test_hgr_bytes_are_pinned(build, digest):
    assert hashlib.sha256(dumps(build()).encode()).hexdigest() == digest


@pytest.mark.parametrize("spec,N", [(complete(3), 60), (complete_bipartite(2, 3), 12)])
def test_enumeration_transient_memory(spec, N):
    # numpy temporaries stay within a few copies of the (m, k) edge array
    subgraph_hypergraph(spec, N)  # warm caches and imports outside the trace
    tracemalloc.start()
    try:
        H = subgraph_hypergraph(spec, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * H.m * H.k * 8


def test_near_complete_universe_builds_no_wide_intermediate():
    # the 120 14-sets of 16 vertices: enumerating every j-subset on the way,
    # C(16, 8) = 12870 of them at j = 8, would peak at about 2.5 MB
    random_uniform(16, 100, 14, seed=1)
    tracemalloc.start()
    try:
        random_uniform(16, 100, 14, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


@pytest.mark.parametrize("r,N", [(3, 6), (4, 7), (5, 8)])
def test_complete_copies_have_uniform_degrees(r, N):
    H = subgraph_hypergraph(complete(r), N)
    stats = stats_of(H)
    assert H.m == comb(N, r)
    assert stats.max_degree == stats.min_degree == comb(N - 2, r - 2)


@pytest.mark.parametrize(
    "spec,N",
    [(complete(3), 7), (complete(4), 7), (complete_bipartite(2, 2), 6), (complete_bipartite(2, 3), 7)],
)
def test_degree_regularity_across_patterns(spec, N):
    stats = stats_of(subgraph_hypergraph(spec, N))
    assert stats.max_degree == stats.min_degree


@pytest.mark.parametrize("N", [6, 7, 9])
def test_k4_max_codegree_counts_copies_through_two_host_edges(N):
    # two host edges sharing a vertex lie in N-3 common K4 copies
    stats = stats_of(subgraph_hypergraph(complete(4), N))
    assert stats.max_codegree == N - 3


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
    assert stats_of(H).max_codegree == 1
    assert disjoint_edges(1, 2).edges == ((0, 1),)
    big = disjoint_edges(200, 3)
    assert big.n == 600
    assert int(big.deg.sum()) == 600


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
