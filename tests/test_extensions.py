from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertail import (
    BudgetError,
    NicenessParams,
    RootEmbedding,
    TrialConfig,
    TrialStream,
    build_rooted,
    complete,
    complete_bipartite,
    count_extensions,
    expected_extensions,
    is_balanced,
    extension_cap_check,
    rooted_graph,
    sample_gnq,
    subgraph_hypergraph,
    z_identity_check,
)
from hypertail.extensions import ExtensionCapReport, GraphSample, RootedGraph, rooted_size
from hypertail.montecarlo import LANE_EXTENSION


def oracle_is_balanced(rg):
    """Independent definitional enumeration over all vertex subsets."""
    edges = {frozenset(e) for e in rg.edges}
    roots = set(range(rg.root_count))
    nonroots = [v for v in range(rg.vertex_count) if v not in roots]

    def rooted_density(vertices):
        non_root_edges = [
            e for e in edges if e <= vertices and not e <= roots
        ]
        return len(non_root_edges) / len(vertices - roots)

    full = rooted_density(set(range(rg.vertex_count)))
    for size in range(1, len(nonroots) + 1):
        for chosen in combinations(nonroots, size):
            if rooted_density(roots | set(chosen)) > full:
                return False
    return True


# --- build_rooted ----------------------------------------------------------


def test_build_rooted_k4():
    rg = build_rooted(complete(4), 2)
    assert (rg.root_count, rg.s, rg.t) == (2, 2, 5)
    assert rg.density == pytest.approx(2.5)


def test_build_rooted_k22_opposite_sides():
    rg = build_rooted(complete_bipartite(2, 2), 2)
    assert (rg.root_count, rg.s, rg.t) == (2, 2, 3)
    assert rg.density == pytest.approx(1.5)
    assert rg.has_edge(0, 1)  # roots are an edge of the pattern


def test_build_rooted_k3_special_case():
    rg = build_rooted(complete(3), 2)
    assert (rg.s, rg.t) == (1, 2)
    assert rg.density == pytest.approx(2.0)


def test_build_rooted_three_roots_third_is_neighbour_of_first():
    rg = build_rooted(complete_bipartite(2, 3), 3)
    assert rg.has_edge(0, 2)  # third root adjacent to the first
    assert (rg.s, rg.t) == (2, 4)


def test_build_rooted_rejects_too_small():
    with pytest.raises(ValueError):
        build_rooted(complete(3), 3)  # would leave no non-root vertex
    with pytest.raises(ValueError):
        build_rooted(complete(2), 2)


def reference_build_rooted(spec, root_count):
    """Root a pattern by naming its vertices by side, ordering the roots
    first, then relabelling that order to 0..v-1."""
    if root_count not in (2, 3):
        raise ValueError("root_count must be 2 or 3")
    if spec.v_g < root_count + 1:
        raise ValueError("too few vertices")
    if spec.family == "complete":
        order = list(range(spec.parts[0]))
    else:
        a, b = spec.parts
        left = [("L", i) for i in range(a)]
        right = [("R", i) for i in range(b)]
        order = [left[0], right[0]]
        if root_count == 3:
            if b < 2:
                raise ValueError("no third root adjacent to the first")
            order.append(right[1])
        order += [v for v in left + right if v not in order]
    relabel = {v: i for i, v in enumerate(order)}
    edges = set()
    if spec.family == "complete":
        for x, y in combinations(order, 2):
            edges.add(tuple(sorted((relabel[x], relabel[y]))))
    else:
        for x in (v for v in order if v[0] == "L"):
            for y in (v for v in order if v[0] == "R"):
                edges.add(tuple(sorted((relabel[x], relabel[y]))))
    return RootedGraph(vertex_count=spec.v_g, root_count=root_count, edges=frozenset(edges))


@pytest.mark.parametrize("roots", [2, 3])
def test_build_rooted_equals_reference(roots):
    # K2 and K{1,1} are rejected at both root counts, K3, K{1,2} at 3 roots
    specs = [complete(r) for r in range(2, 7)]
    specs += [complete_bipartite(a, b) for a in range(1, 9) for b in range(a, 10 - a)]
    for spec in specs:
        try:
            want = reference_build_rooted(spec, roots)
        except ValueError:
            with pytest.raises(ValueError):
                build_rooted(spec, roots)
            continue
        assert build_rooted(spec, roots) == want, spec.label


@pytest.mark.parametrize("roots", [2, 3])
def test_rooted_size_matches_build_rooted(roots):
    specs = [complete(r) for r in range(2, 7)]
    specs += [complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 5)]
    for spec in specs:
        if spec.v_g > roots:  # build_rooted rejects the rest through rooted_size
            rg = build_rooted(spec, roots)
            assert rooted_size(spec, roots) == (rg.s, rg.t), spec.label


# --- balancedness ----------------------------------------------------------


def test_balanced_trivial_triangle():
    assert is_balanced(build_rooted(complete(3), 2))


@pytest.mark.parametrize("spec", [complete(4), complete(5), complete_bipartite(2, 2), complete_bipartite(2, 3)])
@pytest.mark.parametrize("roots", [2, 3])
def test_balanced_standard_patterns(spec, roots):
    rg = build_rooted(spec, roots)
    assert is_balanced(rg)
    assert oracle_is_balanced(rg)


def test_balanced_star_rooted_at_leaf():
    # star on {0 (leaf root), 1 (center), 2, 3}; density 3/3 = 1
    rg = rooted_graph(4, 1, [(0, 1), (1, 2), (1, 3)])
    assert is_balanced(rg)
    assert oracle_is_balanced(rg)


def test_unbalanced_triangle_with_pendant_path():
    # triangle through the root plus a pendant: subgraph {0,1,2} has
    # density 3/2 > full 4/3
    rg = rooted_graph(4, 1, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert rg.density == pytest.approx(4 / 3)
    assert not is_balanced(rg)
    assert not oracle_is_balanced(rg)


def test_balanced_budget_guard():
    edges = [(0, i) for i in range(1, 23)]
    rg = rooted_graph(23, 1, edges)
    with pytest.raises(BudgetError):
        is_balanced(rg)


def test_balanced_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 120:
        total = int(rng.integers(2, 7))
        roots = int(rng.integers(1, total))
        pairs = list(combinations(range(total), 2))
        mask = rng.random(len(pairs)) < 0.5
        edges = [p for p, keep in zip(pairs, mask) if keep]
        if not any(b >= roots for _, b in edges):
            continue  # density zero everywhere; still fine but uninformative
        rg = rooted_graph(total, roots, edges)
        assert is_balanced(rg) == oracle_is_balanced(rg)
        checked += 1


# --- count_extensions ------------------------------------------------------


def full_sample(N):
    return GraphSample(N=N, kept=np.ones(comb(N, 2), dtype=bool))


def empty_sample(N):
    return GraphSample(N=N, kept=np.zeros(comb(N, 2), dtype=bool))


@pytest.mark.parametrize("N,q", [(2, 0.5), (7, 0.3), (12, 0.6)])
def test_sample_neighbour_masks_match_has_edge(N, q):
    for trial in range(5):
        sample = sample_gnq(N, q, TrialStream(97, trial))
        nbrs = sample.nbrs
        assert sample.nbrs is nbrs  # built once
        for u in range(N):
            assert not nbrs[u] >> u & 1
            assert nbrs[u] >> N == 0
            for v in range(N):
                if v != u:
                    assert bool(nbrs[u] >> v & 1) == sample.has_edge(u, v)


def test_extensions_complete_host_triangle():
    rg = build_rooted(complete(3), 2)
    for N in (5, 8, 11):
        count = count_extensions(rg, RootEmbedding((0, 1)), full_sample(N))
        assert count.z_sets == N - 2
        assert count.z_labeled == count.z_sets  # s = 1


def test_extensions_empty_host():
    rg = build_rooted(complete(4), 2)
    count = count_extensions(rg, RootEmbedding((0, 1)), empty_sample(7))
    assert count.z_sets == count.z_labeled == count.z_subgraphs == 0


def test_extensions_triangle_equals_common_neighbours():
    rg = build_rooted(complete(3), 2)
    for trial in range(30):
        sample = sample_gnq(9, 0.5, TrialStream(83, trial))
        count = count_extensions(rg, RootEmbedding((2, 5)), sample)
        common = sum(
            1
            for w in range(9)
            if w not in (2, 5) and sample.has_edge(2, w) and sample.has_edge(5, w)
        )
        assert count.z_sets == common


def test_extensions_labeled_factorial_identity_for_complete():
    rg = build_rooted(complete(4), 2)  # s = 2
    for trial in range(15):
        sample = sample_gnq(8, 0.6, TrialStream(89, trial))
        count = count_extensions(rg, RootEmbedding((0, 3)), sample)
        # no pattern non-edge outside the roots: copies are induced copies
        assert count_extensions(rg, RootEmbedding((0, 3)), sample, induced=False) == count
        assert count.z_labeled == count.z_sets * 2
        assert count.z_subgraphs == count.z_sets
        assert count.z_sets <= comb(8 - 2, 2)


def oracle_scan_extensions(rg, embedding, sample, induced):
    """Brute force over every s-subset of candidates and every ordering of it;
    returns (z_sets, z_labeled, z_subgraphs)."""
    r, s = rg.root_count, rg.s
    roots = embedding.vertices
    candidates = [v for v in range(sample.N) if v not in roots]
    # every pair the pattern constrains: root/non-root and non-root/non-root
    pairs = [(a, b) for b in range(r, r + s) for a in range(b)]
    z_sets = z_labeled = 0
    subgraphs = set()
    for chosen in combinations(candidates, s):
        found = False
        for perm in permutations(chosen):
            image = roots + perm
            got = {(a, b): sample.has_edge(image[a], image[b]) for a, b in pairs}
            if induced:
                ok = all(got[a, b] == rg.has_edge(a, b) for a, b in pairs)
            else:
                ok = all(got[a, b] for a, b in pairs if rg.has_edge(a, b))
            if ok:
                z_labeled += 1
                found = True
                subgraphs.add(frozenset(
                    tuple(sorted((image[a], image[b]))) for a, b in pairs if rg.has_edge(a, b)
                ))
        z_sets += found
    return z_sets, z_labeled, len(subgraphs)


SCAN_SPECS = [
    complete(3), complete(4), complete_bipartite(1, 2), complete_bipartite(2, 2),
    complete_bipartite(2, 3),
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SCAN_SPECS), st.sampled_from([2, 3]), st.booleans(), st.data())
def test_extensions_match_brute_force(spec, roots, induced, data):
    assume(spec.v_g > roots)  # K3 and K{1,2} have no 3-root version
    rg = build_rooted(spec, roots)
    N = data.draw(st.integers(rg.vertex_count, 8))
    kept = data.draw(st.lists(st.booleans(), min_size=comb(N, 2), max_size=comb(N, 2)))
    sample = GraphSample(N=N, kept=np.array(kept, dtype=bool))
    embedding = RootEmbedding(tuple(data.draw(st.permutations(range(N)))[:roots]))
    count = count_extensions(rg, embedding, sample, induced=induced)
    assert (count.z_sets, count.z_labeled, count.z_subgraphs) == oracle_scan_extensions(
        rg, embedding, sample, induced
    )


def test_extensions_numpy_roots_beyond_64_host_vertices():
    # the scan keeps host vertex sets as Python-int bitmasks; a numpy root id
    # would shift within 64 bits and let root 1 carry a second label
    rg = build_rooted(complete_bipartite(2, 2), 2)
    sample = full_sample(70)
    count = count_extensions(rg, RootEmbedding((np.int64(0), np.int64(65))), sample, False)
    assert count == count_extensions(rg, RootEmbedding((0, 65)), sample, False)
    assert count.z_labeled == 68 * 67


def test_extensions_validation():
    rg = build_rooted(complete(4), 2)
    with pytest.raises(ValueError):
        count_extensions(rg, RootEmbedding((0, 1, 2)), full_sample(6))
    with pytest.raises(ValueError):
        count_extensions(rg, RootEmbedding((0, 1)), full_sample(3))
    # root ids outside the host graph's [0, N)
    for roots in ((-1, 0), (0, 9)):
        with pytest.raises(ValueError):
            count_extensions(build_rooted(complete(3), 2), RootEmbedding(roots), full_sample(6))


# --- expected_extensions ---------------------------------------------------


def mc_mean_z(spec, N, q, trials, seed, roots=2):
    rg = build_rooted(spec, roots)
    embedding = RootEmbedding(tuple(range(roots)))
    values = [
        count_extensions(rg, embedding, sample_gnq(N, q, TrialStream(seed, t))).z_sets
        for t in range(trials)
    ]
    arr = np.array(values, dtype=float)
    return arr.mean(), arr.std(ddof=1) / np.sqrt(trials)


def test_expected_extensions_triangle_closed_form():
    for N, q in [(8, 0.3), (10, 0.6)]:
        assert expected_extensions(complete(3), 2, N, q) == pytest.approx((N - 2) * q**2)


def test_expected_extensions_k4_closed_form():
    assert expected_extensions(complete(4), 2, 9, 0.4) == pytest.approx(comb(7, 2) * 0.4**5)


def test_expected_extensions_full_retention_limit():
    # q -> 1 gives the deterministic count C(N-2, r-2) for complete patterns
    assert expected_extensions(complete(4), 2, 9, 1 - 1e-12) == pytest.approx(comb(7, 2), rel=1e-9)


@pytest.mark.parametrize(
    "spec,N,q",
    [
        (complete(3), 9, 0.45),
        (complete(4), 8, 0.6),
        (complete_bipartite(2, 2), 8, 0.5),
        (complete_bipartite(2, 3), 8, 0.6),
    ],
)
def test_expected_extensions_matches_monte_carlo(spec, N, q):
    mean, se = mc_mean_z(spec, N, q, trials=3000, seed=97)
    expected = expected_extensions(spec, 2, N, q)
    assert abs(mean - expected) <= 4 * max(se, 1e-12)


def test_expected_extensions_three_roots_matches_monte_carlo():
    mean, se = mc_mean_z(complete(4), 9, 0.55, trials=3000, seed=101, roots=3)
    expected = expected_extensions(complete(4), 3, 9, 0.55)
    assert abs(mean - expected) <= 4 * max(se, 1e-12)


# --- z identity ------------------------------------------------------------


def test_z_identity_small_triangle():
    report = z_identity_check(complete(3), 6, 0.5, TrialConfig(master_seed=103, trials=400))
    assert report.all_equal
    assert report.trials_conditioned > 0


def test_z_identity_conditioned_target():
    report = z_identity_check(
        complete(3), 6, 0.5, TrialConfig(master_seed=107, trials=1), conditioned_target=50
    )
    assert report.trials_conditioned == 50
    assert report.all_equal


def test_z_identity_stops_at_the_target_th_conditioned_trial():
    # the root edge is pair rank 0, so trial t is conditioned iff its first uniform is below q
    q, target, seed = 0.3, 25, 163
    hits = [t for t in range(1000) if TrialStream(seed, t, LANE_EXTENSION).uniforms(1)[0] < q]
    for workers in (1, 3):
        cfg = TrialConfig(master_seed=seed, trials=1, workers=workers)
        report = z_identity_check(complete(3), 6, q, cfg, conditioned_target=target)
        assert report.trials_conditioned == target
        assert report.trials_total == hits[target - 1] + 1


def test_z_identity_near_full_retention_matches_degree():
    # q -> 1: extension count equals the root edge's full degree C(N-2, v-2)
    report = z_identity_check(complete(3), 7, 1 - 1e-12, TrialConfig(master_seed=109, trials=20))
    assert report.all_equal
    assert report.z1_mean == pytest.approx(comb(5, 1))


def test_z_identity_bipartite_subgraph_semantics():
    report = z_identity_check(
        complete_bipartite(2, 2), 6, 0.6, TrialConfig(master_seed=113, trials=300)
    )
    assert report.all_equal


def test_z_identity_asymmetric_bipartite():
    report = z_identity_check(
        complete_bipartite(1, 3), 6, 0.7, TrialConfig(master_seed=127, trials=200)
    )
    assert report.all_equal


def test_z_identity_k5():
    report = z_identity_check(complete(5), 9, 0.8, TrialConfig(master_seed=151, trials=60))
    assert report.all_equal
    assert report.trials_conditioned > 0


# --- extension cap checks --------------------------------------------------


def test_extension_cap_generous_cap_zero_violations():
    params = NicenessParams(p=0.3, lam=2, gamma_cap=1000.0, b=1)
    report = extension_cap_check(
        complete(4), 10, 0.8, params, TrialConfig(master_seed=131, trials=150)
    )
    assert report.z1_violations == 0


def test_extension_cap_tiny_q_zero_violations():
    params = NicenessParams(p=0.005, lam=2, gamma_cap=2.0, b=1)
    report = extension_cap_check(
        complete(3), 10, 0.01, params, TrialConfig(master_seed=137, trials=300)
    )
    assert report.z1_violations == 0


def test_extension_cap_reproducible():
    params = NicenessParams(p=0.5, lam=2, gamma_cap=3.0, b=1)
    cfg = TrialConfig(master_seed=139, trials=100)
    a = extension_cap_check(complete(4), 12, 0.8, params, cfg)
    b = extension_cap_check(complete(4), 12, 0.8, params, cfg)
    assert a == b
    assert report_fields_defined(a)


def test_extension_cap_does_not_depend_on_worker_count():
    params = NicenessParams(p=0.2, lam=2, gamma_cap=4.0, b=1)
    a, b = (
        extension_cap_check(
            complete(4), 6, 0.5, params, TrialConfig(master_seed=149, trials=20, workers=w)
        )
        for w in (1, 3)
    )
    assert a == b
    assert a.z2_checked == 20 and a.z2_violations > 0


def test_extension_cap_bipartite_report_is_pinned():
    # bipartite caps cannot run from the CLI (`ext` stores --b-side and --b
    # in one field), so this report, captured from a known-good build, is
    # pinned here
    params = NicenessParams(p=0.2, lam=2, gamma_cap=4.0, b=1)
    report = extension_cap_check(
        complete_bipartite(2, 3), 8, 0.5, params, TrialConfig(master_seed=5, trials=60)
    )
    assert report == ExtensionCapReport(
        spec_label="K{2,3}", N=8, p=0.2, q=0.5, trials=60, trigger=True, z1_cap=7.5,
        z1_violations=4, z1_ci=(0.011427298514927176, 0.19534347347277684),
        z2_checked=60, z2_violations=36, z2_ci=(0.4262024548007906, 0.7575260048690783),
        threshold=0.054946916666202536, supported=False,
    )


def report_fields_defined(report):
    return (
        report.z1_ci[0] <= report.z1_ci[1]
        and (report.z2_ci is None or report.z2_ci[0] <= report.z2_ci[1])
        and report.threshold > 0
    )


def test_codegree_dominated_by_three_root_extensions():
    """Every co-degree of the percolated hypergraph is at most twice the
    worst three-root extension count, exhaustively over root embeddings."""
    spec, N, q = complete(4), 7, 0.6
    H = subgraph_hypergraph(spec, N)
    rg2 = build_rooted(spec, 3)
    for trial in range(10):
        sample = sample_gnq(N, q, TrialStream(149, trial))
        z_max = 0
        for triple in combinations(range(N), 3):
            for perm in permutations(triple):
                z = count_extensions(rg2, RootEmbedding(perm), sample).z_sets
                z_max = max(z_max, z)
        # true maximum co-degree of the percolated hypergraph
        alive = sample.kept[H.edges_arr].all(axis=1)
        counts = {}
        for e in np.flatnonzero(alive):
            for u, v in combinations(H.edges_arr[e].tolist(), 2):
                counts[(u, v)] = counts.get((u, v), 0) + 1
        max_codeg = max(counts.values(), default=0)
        assert max_codeg <= 2 * z_max
