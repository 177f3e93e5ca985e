import tracemalloc
from collections import Counter, defaultdict
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypertail import (
    Hypergraph,
    NicenessParams,
    TrialConfig,
    codegree,
    complete,
    core,
    stats_of,
    subgraph_hypergraph,
    verify_p4,
)
from hypertail.generators import disjoint_edges


def test_validate_basic_construction():
    H = Hypergraph(n=5, k=3, edges=[{0, 1, 2}, {0, 1, 3}, {2, 3, 4}])
    assert H.m == 3
    assert H.n == 5
    assert H.edges_arr.tolist() == [[0, 1, 2], [0, 1, 3], [2, 3, 4]]


@pytest.mark.parametrize(
    "rows",
    [[[0, 1, 2], [0, 1, 3], [2, 3, 4]], [[2, 1, 0], [0, 1, 3], [4, 3, 2]], [[0, 1, 3], [0, 1, 2]]],
    ids=["canonical", "unsorted-rows", "unsorted-list"],
)
def test_constructor_copies_a_callers_array(rows):
    given = np.array(rows, dtype=np.int64)
    before = given.copy()
    H = Hypergraph(n=5, k=3, edges=given)
    assert np.array_equal(given, before) and given.flags.writeable
    assert not np.shares_memory(H.edges_arr, given) and not H.edges_arr.flags.writeable
    assert H.edges_arr.tolist() == sorted(sorted(row) for row in rows)
    # the reader and the generators hand their own array over: kept exactly
    # when it is canonical, else sorted in a copy, the array left as it was
    owned = Hypergraph(n=5, k=3, edges=given, _owned=True)
    assert owned == H and (owned.edges_arr is given) == (H.edges_arr.tolist() == rows)
    assert np.array_equal(given, before)


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


@pytest.mark.parametrize("edges", [
    [(0.5, 1.9), (2, 3)],
    np.array([[0.7, 1.2]]),
    [(0, 1), (2.5, 3)],
    [("0", "1")],
])
def test_validate_rejects_ids_that_are_not_integers(edges):
    # an int64 cast alone would truncate 0.5 and 1.9 to (0, 1)
    with pytest.raises(ValueError, match="not an integer"):
        Hypergraph(n=4, k=2, edges=edges)


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


def test_edges_at_is_incidence_as_read_only_arrays():
    # vertex 5 is isolated; K3 N=6 has 10-edge runs at every vertex
    isolated = Hypergraph(n=6, k=3, edges=[(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    for H in (isolated, subgraph_hypergraph(complete(3), 6)):
        for v in range(H.n):
            at = H.edges_at(v)
            assert at.tolist() == list(H.incidence[v]) and not at.flags.writeable


def test_stats_hand_example():
    H = Hypergraph(n=5, k=3, edges=[(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    stats = stats_of(H)
    assert H.deg.tolist() == [2, 2, 2, 2, 1]
    assert (stats.n, stats.m, stats.k) == (5, 3, 3)
    assert stats.max_degree == 2
    assert stats.min_degree == 1
    assert stats.max_codegree == 2  # pair {0, 1} sits in two edges


def test_stats_disjoint_edges():
    stats = stats_of(disjoint_edges(7, 3))
    assert stats.max_degree == 1
    assert stats.min_degree == 1
    assert stats.max_codegree == 1  # partners inside one edge co-occur once


def test_fully_disjoint_pairs_have_zero_codegree():
    H = disjoint_edges(4, 3)
    assert codegree(H, 0, 3) == 0
    assert codegree(H, 0, 1) == 1


def test_triangle_hypergraph_profile():
    # n = C(4,2), m = C(4,3), every K_N-edge lies in N-2 triangles
    H = subgraph_hypergraph(complete(3), 4)
    stats = stats_of(H)
    assert (H.n, H.m, H.k) == (6, 4, 3)
    assert stats.max_degree == stats.min_degree == 2
    assert stats.max_codegree == 1


@pytest.mark.parametrize("N", [4, 5, 7, 9])
def test_triangle_hypergraph_scaling(N):
    from math import comb

    H = subgraph_hypergraph(complete(3), N)
    stats = stats_of(H)
    assert H.n == comb(N, 2)
    assert H.m == comb(N, 3)
    assert stats.max_degree == stats.min_degree == N - 2
    assert stats.max_codegree == 1


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    k = draw(st.integers(min_value=1, max_value=min(4, n)))
    universe = list(combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(universe), unique=True, max_size=len(universe)))
    return Hypergraph(n=n, k=k, edges=edges)


@given(hypergraphs())
@settings(max_examples=200, deadline=None)
def test_degree_sum_identity(H):
    assert int(H.deg.sum()) == H.k * H.m


@given(hypergraphs())
@settings(max_examples=100, deadline=None)
def test_profile_bounds(H):
    stats = stats_of(H)
    assert (stats.max_degree, stats.min_degree) == (H.deg.max(), H.deg.min())
    assert stats.min_degree <= stats.max_degree
    assert 0 <= stats.max_codegree <= stats.max_degree


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_codegree_query_matches_brute_force(H):
    best = 0
    for u in range(H.n):
        for v in range(u + 1, H.n):
            direct = sum(1 for edge in H.edges_arr.tolist() if u in edge and v in edge)
            assert codegree(H, u, v) == direct
            assert direct <= min(H.deg[u], H.deg[v])
            best = max(best, direct)
    assert stats_of(H).max_codegree == best


def test_stats_are_computed_once():
    H = subgraph_hypergraph(complete(3), 6)
    stats = stats_of(H)
    assert stats_of(H) is stats
    assert vars(H)["stats"] is stats and vars(H)["deg"] is H.deg
    assert not H.deg.flags.writeable
    assert (stats.max_degree, stats.min_degree, stats.max_codegree) == (
        int(H.deg.max()),
        int(H.deg.min()),
        H.max_codegree,
    )


def test_stats_are_pure():
    H = subgraph_hypergraph(complete(3), 5)
    twin = Hypergraph(n=H.n, k=H.k, edges=H.edges_arr.tolist())
    assert np.array_equal(H.deg, twin.deg)
    assert stats_of(H) == stats_of(twin)


def reference_pair_index(H):
    """(count, u, v, edge_pair_ids) by ``np.unique`` over the (a, b) rows of the
    pairs inside the edges, the way the library built its pair index before
    it ranked sorted codes.  It unique-sorts whole rows where the library
    once sorted codes a * n + b, which overflowed int64 past n = 3 037 000 499."""
    pairs = np.array(list(combinations(range(H.k), 2)), dtype=np.int64).reshape(-1, 2)
    rows = np.stack((H.edges_arr[:, pairs[:, 0]], H.edges_arr[:, pairs[:, 1]]), axis=-1)
    uniq, inverse = np.unique(rows.reshape(-1, 2), axis=0, return_inverse=True)
    return len(uniq), uniq[:, 0], uniq[:, 1], inverse.reshape(H.m, len(pairs))


def reference_max_codegree(H):
    pairs = Counter(pair for e in H.edges_arr.tolist() for pair in combinations(e, 2))
    return max(pairs.values(), default=0)


@st.composite
def sparse_hypergraphs(draw):
    """Small hypergraphs whose ids are 0..n-1 with n <= 10 (int32 pair codes),
    or a few sparse ids near 2^20 (int64 codes) or near 2^40 (codes from
    ranks), with n 10 above them."""
    k = draw(st.integers(1, 4))
    top = draw(st.sampled_from([None, 2**20, 2**40]))
    if top is None:
        n = draw(st.integers(k, 10))
        ids = list(range(n))
    else:
        n = top + 10
        ids = sorted(draw(st.sets(st.integers(top - 10, n - 1), min_size=k, max_size=8)))
    universe = list(combinations(ids, k))
    edges = draw(st.lists(st.sampled_from(universe), unique=True, max_size=12))
    return Hypergraph(n=n, k=k, edges=edges)


@given(sparse_hypergraphs())
@example(Hypergraph(n=2**40, k=2, edges=[(2**40 - 3, 2**40 - 1), (2**40 - 2, 2**40 - 1)]))
@example(Hypergraph(n=5, k=3, edges=[]))
@settings(max_examples=200, deadline=None)
def test_pair_index_and_max_codegree_match_the_reference(H):
    pairs = H.pair_index
    count, u, v, ids = reference_pair_index(H)
    assert pairs.count == count
    assert pairs.u.tolist() == u.tolist() and pairs.v.tolist() == v.tolist()
    assert pairs.edge_pair_ids.tolist() == ids.tolist()
    assert H.max_codegree == reference_max_codegree(H)
    if H.n < 2**40:  # an n-sized degree array
        assert stats_of(H).max_codegree == reference_max_codegree(H)


def bucket_columns(buckets, pad):
    """The padded columns of incidence bucket tables, unpadded, checking the
    layout: ascending power-of-two heights, each under twice its column."""
    heights = [len(table) for table in buckets]
    assert heights == sorted(set(heights)) and all(h & (h - 1) == 0 for h in heights)
    columns = []
    for table in buckets:
        for column in table.T.tolist():
            ids = [e for e in column if e != pad]
            assert column == ids + [pad] * (len(column) - len(ids)) and len(column) < 2 * len(ids)
            columns.append(ids)
    return sorted(columns)


@given(sparse_hypergraphs())
@example(Hypergraph(n=5, k=3, edges=[]))
@example(Hypergraph(n=6, k=2, edges=[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)]))
@settings(max_examples=100, deadline=None)
def test_incidence_buckets_group_the_edges_of_each_vertex_and_pair(H):
    assume(H.n < 2**40)  # the buckets count per vertex id
    at_vertex, at_pair = defaultdict(list), defaultdict(list)
    edges, pair_ids_of = H.edges_arr.tolist(), H.pair_index.edge_pair_ids.tolist()
    for e, (edge, pair_ids) in enumerate(zip(edges, pair_ids_of)):
        for v in edge:
            at_vertex[v].append(e)
        for pair in pair_ids:
            at_pair[pair].append(e)
    assert bucket_columns(H.incidence_buckets, H.m) == sorted(at_vertex.values())
    assert bucket_columns(H.pair_incidence_buckets, H.m) == sorted(at_pair.values())


def test_vertex_tables_build_within_five_edge_arrays():
    # K3 on K_80: 82 160 edges, each vertex in 78 of them, so one (128, 3160)
    # table of 3.1 MiB. Holding the gather index, the gathered ids, the mask
    # and the padded table at once peaked at 11.6 MiB; padding the gathered
    # ids in place peaks at 8.2 MiB, the grouping that stays cached included
    subgraph_hypergraph(complete(3), 8).incidence_buckets  # warm numpy outside the trace
    H = subgraph_hypergraph(complete(3), 80)
    tracemalloc.start()
    try:
        H.incidence_buckets
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * H.edges_arr.nbytes


def test_pair_grouping_copies_no_pair_id_array(monkeypatch):
    # K4 on K_12: 495 edges of 15 pairs each, a 59 400 B pair id array.
    # Counting the pairs with np.bincount copied that read-only array, and
    # dividing the edge ids out of place made a second id array (numpy elides
    # that temporary only for large arrays): 2.3 arrays were held before the
    # tables were built; the pair index's counts and an in-place division
    # leave 1.35
    subgraph_hypergraph(complete(4), 6).pair_incidence_buckets  # warm numpy outside the trace
    H = subgraph_hypergraph(complete(4), 12)
    H.pair_index
    tables, peaks = core._tables, []

    def traced_tables(ids, sizes, pad):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return tables(ids, sizes, pad)

    monkeypatch.setattr(core, "_tables", traced_tables)
    tracemalloc.start()
    try:
        H.pair_incidence_buckets
    finally:
        tracemalloc.stop()
    ids = H.pair_index.edge_pair_ids
    assert peaks[0] < 1.5 * ids.nbytes
    assert H.pair_index.codeg.tolist() == np.bincount(ids.ravel()).tolist()


def test_pair_codes_do_not_overflow_past_int64():
    n = 2**40
    H = Hypergraph(n=n, k=2, edges=[(n - 3, n - 1), (n - 2, n - 1)])
    pairs = H.pair_index
    assert pairs.u.tolist() == [n - 3, n - 2]
    assert pairs.v.tolist() == [n - 1, n - 1]
    assert pairs.edge_pair_ids.tolist() == [[0], [1]]
    assert H.max_codegree == 1
    # two edges sharing the pair {n - 2, n - 1}
    H = Hypergraph(n=n, k=3, edges=[(0, n - 2, n - 1), (1, n - 2, n - 1)])
    assert H.max_codegree == 2
    assert H.pair_index.u.tolist() == [0, 0, 1, 1, n - 2]


def test_linear_hypergraphs_build_no_pair_index():
    H = subgraph_hypergraph(complete(3), 8)  # two triangles share at most one edge of K_8
    assert stats_of(H).max_codegree == 1
    assert "pair_index" not in vars(H)
    params = NicenessParams(p=0.3, lam=1.0, gamma_cap=2.0, b=1)
    evidence = verify_p4(H, params, [0.3, 0.9], TrialConfig(master_seed=1, trials=70, workers=2))
    assert all(point.trigger for point in evidence.points)
    assert {point.max_codeg_seen for point in evidence.points} == {1}
    assert "pair_index" not in vars(H)
