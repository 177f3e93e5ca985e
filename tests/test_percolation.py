import math
from collections import Counter
from contextlib import nullcontext
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypertail import (
    Hypergraph,
    InfeasibleError,
    TrialStream,
    build_schedule,
    check_preconditions,
    complete,
    disjoint_edges,
    lipschitz_bound,
    random_uniform,
    run_exposure,
    stats_of,
    subgraph_hypergraph,
)
from hypertail import percolation
from hypertail.percolation import (
    RoundState,
    codeg_holds,
    codeg_trigger,
    codegree_sums,
    surviving_degrees,
    surviving_edge_counts,
    surviving_edge_mask,
    surviving_extremes,
    surviving_pair_counts,
)


def recount_edges(H, kept):
    """Independent oracle: python-loop count of fully surviving edges."""
    return sum(1 for edge in H.edges if all(kept[v] for v in edge))


def recount_deg_sq(H, kept):
    deg = [0] * H.n
    for edge in H.edges:
        if all(kept[v] for v in edge):
            for v in edge:
                deg[v] += 1
    return sum(d * d for d in deg)


# --- one-round percolation -----------------------------------------------


def percolate(H, q, stream):
    """Keep each vertex with probability q: the round-1 state of a one-round chain."""
    schedule = build_schedule(q, H.n, eps_range=(1e-9, 1 - 1e-15), force_rounds=1)
    return run_exposure(H, schedule, stream)[1]


def test_percolate_near_full_retention_keeps_everything():
    H = subgraph_hypergraph(complete(3), 8)
    state = percolate(H, 1 - 1e-15, TrialStream(3, 0))
    assert state.edge_count == H.m
    assert state.kept.all()


def test_percolate_is_deterministic_per_trial():
    H = disjoint_edges(20, 3)
    a = percolate(H, 0.4, TrialStream(11, 5))
    b = percolate(H, 0.4, TrialStream(11, 5))
    assert np.array_equal(a.kept, b.kept)
    assert a.edge_count == b.edge_count
    c = percolate(H, 0.4, TrialStream(11, 6))
    assert not np.array_equal(a.kept, c.kept)


def test_percolate_consistency_invariants():
    H = subgraph_hypergraph(complete(3), 9)
    for trial in range(50):
        state = percolate(H, 0.5, TrialStream(2, trial))
        assert state.edge_count == recount_edges(H, state.kept)
        assert int(state.deg.sum()) == H.k * state.edge_count
        assert not state.deg[~state.kept].any()


def test_percolate_rejects_bad_q():
    H = disjoint_edges(2, 2)
    for q in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError):
            percolate(H, q, TrialStream(1, 0))


def test_percolate_mean_tracks_binomial():
    H = disjoint_edges(200, 3)
    trials = 4000
    xs = [percolate(H, 0.3, TrialStream(17, t)).edge_count for t in range(trials)]
    sigma = math.sqrt(200 * 0.027 * 0.973)
    assert abs(np.mean(xs) - 5.4) < 4 * sigma / math.sqrt(trials)


def test_surviving_codegree_query():
    H = subgraph_hypergraph(complete(3), 6)
    state = percolate(H, 0.7, TrialStream(23, 1))
    pairs = H.pair_index
    counts = surviving_pair_counts(H, state.alive)
    codeg = {(int(a), int(b)): int(c) for a, b, c in zip(pairs.u, pairs.v, counts)}
    for u in range(0, H.n, 3):
        for v in range(u + 1, min(u + 3, H.n)):
            direct = sum(1 for e, edge in enumerate(H.edges) if state.alive[e] and u in edge and v in edge)
            assert codeg.get((u, v), 0) == direct


@pytest.mark.parametrize("words", [0, 5, 40_000])  # 40 000 words take three bincount chunks
def test_surviving_edge_counts_count_each_bit(words):
    rng = np.random.default_rng(words)
    alive = rng.integers(0, 1 << 64, size=words, dtype=np.uint64, endpoint=False)
    alive[::3] = 0
    alive[1::7] &= np.uint64(0x8000_0000_0000_0001)
    bits = [int(((alive >> np.uint64(j)) & np.uint64(1)).sum()) for j in range(64)]
    assert surviving_edge_counts(alive).tolist() == bits


def recount_extremes(H, words, size, codeg):
    """Independent oracle: per trial j, (max degree, min positive degree, max
    co-degree or 0) of the edges whose word has bit j set."""
    out = []
    for j in range(size):
        alive = [edge for edge, word in zip(H.edges, words) if word >> j & 1]
        deg = Counter(v for edge in alive for v in edge)
        pairs = Counter(pair for edge in alive for pair in combinations(edge, 2))
        out.append((
            max(deg.values(), default=0),
            min(deg.values(), default=0),
            max(pairs.values(), default=0) if codeg else 0,
        ))
    return [list(column) for column in zip(*out)]


@st.composite
def extremes_blocks(draw):
    """(H, words, size): H of any k >= 1, m >= 0, irregular, possibly
    non-linear, with isolated vertices; one word per edge, bits >= size 0."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 9))
    subsets = list(combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(subsets), max_size=24, unique=True)) if subsets else []
    size = draw(st.integers(1, 64))
    word = st.one_of(
        st.just(0), st.integers(0, size - 1).map(lambda bit: 1 << bit), st.integers(0, 2**size - 1)
    )
    words = draw(st.lists(word, min_size=len(edges), max_size=len(edges)))
    return Hypergraph(n, k, edges), words, size


K4_ON_6 = Hypergraph(6, 4, list(combinations(range(6), 4)))  # co-degrees 6


@given(block=extremes_blocks(), codeg=st.booleans(), tight=st.booleans())
@example(block=(K4_ON_6, [1 << 63, 0, 5] + [0] * 12, 64), codeg=True, tight=False)  # listing
@example(block=(K4_ON_6, [2**64 - 1] * 15, 64), codeg=True, tight=False)  # planes
@example(block=(K4_ON_6, [2**64 - 1] * 15, 64), codeg=True, tight=True)
@example(block=(Hypergraph(70_000, 2, [(0, 1), (1, 69_999), (5, 6)]), [3, 1 << 40, 6], 64),
         codeg=True, tight=False)  # a degree table of 7 trials at a time
@example(block=(Hypergraph(3, 1, [(0,), (2,)]), [2**64 - 1, 1 << 63], 64), codeg=True, tight=False)
@example(block=(Hypergraph(4, 2, []), [], 1), codeg=True, tight=False)
@settings(max_examples=300, deadline=None)
def test_surviving_extremes_match_a_per_trial_recount(block, codeg, tight):
    # tight: one trial per degree table, a few keys per bincount and one
    # column per adder tree, so that every chunk loop turns more than once
    H, words, size = block
    alive = np.array(words, dtype=np.uint64)
    limits = mock.patch.multiple(percolation, _TALLY=4, _PLANE_WORDS=1) if tight else nullcontext()
    with limits:
        got = surviving_extremes(H, alive, size, codeg).tolist()
    assert got == recount_extremes(H, words, size, codeg)


@pytest.mark.parametrize("n", [1, 2, 3, 30])
def test_codeg_holds_agrees_on_scalars_and_arrays(n):
    # n = 1 has no pairs, and ln 1 = 0 must not be raised to the power -3
    cmax = [0, 0, 0] if n == 1 else [0, 0, 1, 1, 2, 3, 6, 1]
    dmin = [0, 1, 4, 0, 5, 90, 2000, 1][: len(cmax)]
    expected = [not c or c <= d * math.log(n) ** -3 for c, d in zip(cmax, dmin)]
    assert [codeg_holds(c, d, n) for c, d in zip(cmax, dmin)] == expected
    assert codeg_holds(np.array(cmax), np.array(dmin), n).tolist() == expected


def test_surviving_extremes_take_the_planes_above_one_bit_per_edge():
    for bits, planes in ((1, False), (2, True)):
        H = subgraph_hypergraph(complete(3), 8)
        alive = np.full(H.m, (1 << bits) - 1, dtype=np.uint64)
        got = surviving_extremes(H, alive, 64, codeg=True).tolist()
        assert got == recount_extremes(H, alive.tolist(), 64, True)
        assert ("incidence_buckets" in vars(H)) == planes


# --- schedules -----------------------------------------------------------


def test_schedule_strict_exact_power():
    s = build_schedule(1e-6, 10**9, strict_mode=True)
    assert s.rounds == 2
    assert s.epsilon == pytest.approx(1e-3, rel=1e-12)


def test_schedule_strict_fractional_power():
    s = build_schedule(10**-4.5, 10**9, strict_mode=True)
    assert s.rounds == 1
    assert s.epsilon == pytest.approx(10**-4.5, rel=1e-12)


def test_schedule_test_range_with_forced_rounds():
    s = build_schedule(0.125, 66, eps_range=(0.1, 0.5), force_rounds=3)
    assert s.rounds == 3
    assert s.epsilon == pytest.approx(0.5, rel=1e-12)
    assert s.epsilon**3 == pytest.approx(0.125, rel=1e-12)


def test_schedule_snaps_exact_integer_ratio():
    s = build_schedule(0.125, 66, eps_range=(0.1, 0.5))
    assert s.rounds == 3


def test_schedule_infeasible_p_above_range():
    with pytest.raises(InfeasibleError):
        build_schedule(0.5, 100, eps_range=(1e-6, 1e-3))


def test_schedule_strict_mode_round_limit():
    # p = 1e-6 needs 2 rounds but ln(5) < 2
    with pytest.raises(InfeasibleError):
        build_schedule(1e-6, 5, strict_mode=True)


def test_schedule_epsilon_out_of_range():
    with pytest.raises(InfeasibleError):
        build_schedule(0.2, 100, eps_range=(0.4, 0.5), force_rounds=1)


@given(st.floats(min_value=1e-30, max_value=1e-3))
@settings(max_examples=200, deadline=None)
def test_schedule_reproduces_p_in_strict_range(p):
    schedule = build_schedule(p, 10**9)
    assert schedule.epsilon ** schedule.rounds == pytest.approx(p, rel=1e-12)
    lo, hi = schedule.eps_range
    assert lo * (1 - 1e-12) <= schedule.epsilon <= hi * (1 + 1e-12)


# --- exposure ------------------------------------------------------------


def test_exposure_round0_is_everything():
    H = subgraph_hypergraph(complete(3), 7)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    states = run_exposure(H, schedule, TrialStream(5, 0))
    assert states[0].kept.all()
    assert states[0].edge_count == H.m
    assert len(states) == schedule.rounds + 1


def test_exposure_monotone_and_consistent():
    H = subgraph_hypergraph(complete(3), 9)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    for trial in range(30):
        states = run_exposure(H, schedule, TrialStream(29, trial))
        for prev, cur in zip(states, states[1:]):
            assert not (cur.kept & ~prev.kept).any()  # V_{i+1} subset of V_i
            assert cur.edge_count <= prev.edge_count
            assert (cur.deg <= prev.deg).all()
        for state in states:
            assert state.edge_count == recount_edges(H, state.kept)
            assert int(state.deg.sum()) == H.k * state.edge_count
            assert state.deg_sq_sum == int((state.deg**2).sum())


def test_round_statistics_derive_on_first_use():
    H = subgraph_hypergraph(complete(3), 9)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    for trial in range(10):
        states = run_exposure(H, schedule, TrialStream(43, trial))
        for state in states:
            assert state.edge_count == recount_edges(H, state.kept)
            assert "deg" not in vars(state) and "deg_sq_sum" not in vars(state)
            # a state built from the drawn survivors alone gives the same statistics
            bare = RoundState(H, schedule, state.index, state.kept)
            assert bare.edge_count == recount_edges(H, state.kept)
            assert bare.deg_sq_sum == recount_deg_sq(H, state.kept)


def test_round_trigger_and_eta_derive_on_first_use():
    H = subgraph_hypergraph(complete(3), 9)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    for state in run_exposure(H, schedule, TrialStream(47, 0)):
        assert "codeg_trigger" not in vars(state) and "eta" not in vars(state)
        q = schedule.epsilon**state.index
        assert state.codeg_trigger == codeg_trigger(schedule.p, q, H)
        assert state.eta == (H.k * math.log(H.n) ** -3 if state.codeg_trigger else 1.0)
        assert "codeg_trigger" in vars(state) and "eta" in vars(state)


def test_exposure_absorbs_empty_rounds():
    H = disjoint_edges(4, 3)
    schedule = build_schedule(0.001, H.n, eps_range=(0.05, 0.1), force_rounds=3)
    for trial in range(200):
        states = run_exposure(H, schedule, TrialStream(3, trial))
        if not states[1].kept.any():
            assert all(not s.kept.any() and s.edge_count == 0 and s.deg_sq_sum == 0 for s in states[2:])
            break
    else:
        pytest.fail("no trial with an empty first round; pick a different seed")


def test_single_round_exposure_equals_percolate_stream():
    # one round consumes the same uniform row as a single percolation
    H = subgraph_hypergraph(complete(3), 8)
    schedule = build_schedule(0.3, H.n, eps_range=(0.1, 0.5), force_rounds=1)
    for trial in range(10):
        states = run_exposure(H, schedule, TrialStream(41, trial))
        kept = TrialStream(41, trial).uniforms(H.n) < 0.3
        assert np.array_equal(states[1].kept, kept)
        assert states[1].edge_count == recount_edges(H, kept)


def test_codegree_sum_identity():
    H = subgraph_hypergraph(complete(3), 9)
    for trial in range(20):
        kept = TrialStream(7, trial).uniforms(H.n) < 0.5
        alive = surviving_edge_mask(H, kept)
        sums = codegree_sums(H, alive)
        deg = surviving_degrees(H, alive)
        assert (sums == (H.k - 1) * deg).all()
        assert (sums <= (H.k - 1) * deg).all()


# --- preconditions -------------------------------------------------------


def make_schedule_and_states(H, trial=0, seed=19):
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    states = run_exposure(H, schedule, TrialStream(seed, trial))
    return schedule, states


def test_preconditions_round0_window_has_zero_slack():
    H = subgraph_hypergraph(complete(3), 10)
    schedule, states = make_schedule_and_states(H)
    report = check_preconditions(states[0], lam=3.0, gamma_cap=5.0)
    lo, hi = report.window
    assert (lo + hi) / 2 == pytest.approx(H.m, rel=1e-12)
    assert report.holds[0]
    assert report.holds[2]  # max degree <= max(2 Delta, Gamma)


def test_preconditions_round0_codeg_matches_global_condition():
    # at round 0 condition (4) reduces to max_codegree <= min_degree / ln^3 n
    for H in (subgraph_hypergraph(complete(3), 12), disjoint_edges(50, 3)):
        schedule, states = make_schedule_and_states(H)
        report = check_preconditions(states[0], lam=3.0, gamma_cap=5.0)
        stats = stats_of(H)
        expected = (not states[0].codeg_trigger) or (
            stats.max_codegree <= stats.min_degree * math.log(H.n) ** -3
        )
        assert report.holds[3] == expected


@st.composite
def small_uniform(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(k, 10))
    m = draw(st.integers(1, min(15, math.comb(n, k))))
    return random_uniform(n, m, k, seed=draw(st.integers(0, 2**32 - 1)))


def recount_codeg_condition(H, alive, trigger):
    """Independent oracle for condition (4): python-loop co-degrees and degrees."""
    deg = [0] * H.n
    codeg = {}
    for edge, live in zip(H.edges, alive):
        if live:
            for v in edge:
                deg[v] += 1
            for pair in combinations(edge, 2):
                codeg[pair] = codeg.get(pair, 0) + 1
    if not trigger or not codeg:
        return True
    return max(codeg.values()) <= min(d for d in deg if d > 0) * math.log(H.n) ** -3


@given(
    small_uniform(),
    st.integers(0, 2**32 - 1),
    st.integers(0, 1000),
    st.integers(1, 3),
    st.sampled_from([0.3, 0.5, 0.8]),
)
@settings(max_examples=300, deadline=None)
def test_every_round_matches_recount_of_alive_and_codeg_condition(H, seed, trial, rounds, eps):
    schedule = build_schedule(eps**rounds, H.n, eps_range=(0.1, 0.9), force_rounds=rounds)
    for state in run_exposure(H, schedule, TrialStream(seed, trial)):
        alive = [all(state.kept[v] for v in edge) for edge in H.edges]
        assert state.alive.tolist() == alive
        report = check_preconditions(state, lam=2.0, gamma_cap=4.0)
        assert report.holds[3] == recount_codeg_condition(H, alive, state.codeg_trigger)


@pytest.mark.parametrize(
    "n,clique,holds",
    [(100, 99, True), (4, 3, False)],
    ids=["K99-plus-isolated", "triangle-plus-isolated"],
)
def test_codeg_condition_skips_degree0_survivors(n, clique, holds):
    # round 0 keeps the isolated vertex; (4) compares against the minimum positive
    # degree, clique - 1, so it holds iff 1 <= (clique - 1) / ln^3 n
    H = Hypergraph(n=n, k=2, edges=list(combinations(range(clique), 2)))
    schedule, states = make_schedule_and_states(H)
    assert states[0].codeg_trigger
    report = check_preconditions(states[0], lam=3.0, gamma_cap=5.0)
    assert report.holds[3] == holds


def test_preconditions_detect_window_violation():
    # needs p^k m >> 1 so the round-1 window excludes 0
    H = disjoint_edges(10_000, 3)
    schedule, states = make_schedule_and_states(H)
    dead = RoundState(H, schedule, 1, np.zeros(H.n, dtype=bool))
    report = check_preconditions(dead, lam=0.01, gamma_cap=5.0)
    assert report.window[0] > 0
    assert not report.holds[0]


def test_preconditions_are_pure():
    H = subgraph_hypergraph(complete(3), 10)
    schedule, states = make_schedule_and_states(H)
    a = check_preconditions(states[2], lam=2.0, gamma_cap=4.0)
    b = check_preconditions(states[2], lam=2.0, gamma_cap=4.0)
    assert a == b


def test_preconditions_on_a_linear_H_build_no_pair_index():
    # K3 on K_N is linear: with an edge alive, the surviving co-degree maximum is 1
    H = subgraph_hypergraph(complete(3), 30)
    schedule = build_schedule(0.25, H.n, eps_range=(0.1, 0.5), force_rounds=2)
    states = run_exposure(H, schedule, TrialStream(5, 0))
    reports = [check_preconditions(state, lam=2.0, gamma_cap=4.0) for state in states]
    assert all(state.codeg_trigger and state.edge_count for state in states)
    assert "pair_index" not in vars(H) and H.max_codegree == 1
    for state, report in zip(states, reports):
        assert report.holds[3] == recount_codeg_condition(H, state.alive.tolist(), True)


def test_hand_built_state_gives_the_chains_report():
    for H in (subgraph_hypergraph(complete(3), 10), disjoint_edges(50, 3)):
        schedule, states = make_schedule_and_states(H, seed=53)
        for state in states:
            bare = RoundState(H, schedule, state.index, state.kept.copy())
            assert check_preconditions(bare, lam=2.0, gamma_cap=4.0) == check_preconditions(
                state, lam=2.0, gamma_cap=4.0
            )


def test_precondition_formulas_match_scripted_recomputation():
    # frozen 50-digit recomputation for round 2 of H_{K3}(10), p=1/8, eps=1/2
    H = subgraph_hypergraph(complete(3), 10)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    states = run_exposure(H, schedule, TrialStream(71, 0))
    report = check_preconditions(states[2], lam=2.5, gamma_cap=4.0)
    lo, hi = report.window
    assert (lo + hi) / 2 == pytest.approx(1.875, rel=1e-12)
    assert (hi - lo) / 2 == pytest.approx(12.587195875174105, rel=1e-12)
    assert report.deg_sq_bound == pytest.approx(51.706749408076762, rel=1e-12)
    assert report.deg_cap == pytest.approx(4.0, rel=1e-12)
    assert report.t1 == pytest.approx(1.089276566120836, rel=1e-12)
    assert report.t2 == pytest.approx(0.70919032123950419, rel=1e-12)
    # co-degree trigger fires at every round of this instance
    assert all(state.codeg_trigger for state in states)
    assert states[0].eta == pytest.approx(H.k / math.log(H.n) ** 3, rel=1e-12)


def test_exposure_round_marginals_track_epsilon_powers():
    # round i keeps each vertex with probability eps^i
    H = subgraph_hypergraph(complete(3), 10)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    trials = 3000
    kept_count = np.zeros(schedule.rounds + 1)
    for t in range(trials):
        for state in run_exposure(H, schedule, TrialStream(73, t)):
            kept_count[state.index] += state.kept.sum()
    for i in range(schedule.rounds + 1):
        q = schedule.epsilon**i
        mean = kept_count[i] / (trials * H.n)
        se = math.sqrt(q * (1 - q) / (trials * H.n)) if 0 < q < 1 else 0.0
        assert abs(mean - q) <= 5 * se + 1e-12


def test_precondition_radii_positive():
    H = subgraph_hypergraph(complete(3), 10)
    schedule, states = make_schedule_and_states(H)
    for state in states:
        report = check_preconditions(state, lam=2.0, gamma_cap=4.0)
        assert report.t1 > 0
        assert report.t2 > 0


# --- per-vertex change bounds -------------------------------------------


def test_lipschitz_bound_isolated_vertex():
    H = disjoint_edges(3, 3)
    schedule = build_schedule(0.2, H.n, eps_range=(0.1, 0.5), force_rounds=1)
    states = run_exposure(H, schedule, TrialStream(2, 4))
    state = states[1]
    survivors = np.flatnonzero(state.kept)
    isolated = [v for v in survivors if state.deg[v] == 0]
    if not isolated:
        pytest.skip("seed produced no isolated survivor")
    assert lipschitz_bound(H, state, int(isolated[0])) == 0


def test_lipschitz_bound_disjoint_unit_degree():
    H = disjoint_edges(5, 3)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    states = run_exposure(H, schedule, TrialStream(1, 0))
    state = states[0]
    # full survival: every vertex has degree 1, k-1 partners of co-degree 1
    assert lipschitz_bound(H, state, 0) == 1 + 4 * (H.k - 1)


@pytest.mark.parametrize("v", [-1, 15])  # n = 15
def test_lipschitz_bound_rejects_vertex_outside_range(v):
    H = disjoint_edges(5, 3)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    state = run_exposure(H, schedule, TrialStream(1, 0))[0]
    with pytest.raises(ValueError, match=f"vertex {v} is not in \\[0, 15\\)"):
        lipschitz_bound(H, state, v)


def test_lipschitz_bound_requires_survivor():
    H = disjoint_edges(3, 3)
    schedule = build_schedule(0.2, H.n, eps_range=(0.1, 0.5), force_rounds=1)
    states = run_exposure(H, schedule, TrialStream(2, 0))
    dropped = np.flatnonzero(~states[1].kept)
    if dropped.size:
        with pytest.raises(ValueError):
            lipschitz_bound(H, states[1], int(dropped[0]))


def test_toggle_audit_small_instances():
    """Flipping one vertex outcome moves X by <= deg and Y by <= the bound."""
    H = subgraph_hypergraph(complete(3), 7)
    schedule = build_schedule(0.125, H.n, eps_range=(0.1, 0.5), force_rounds=3)
    audited = 0
    for trial in range(25):
        states = run_exposure(H, schedule, TrialStream(31, trial))
        for i in range(schedule.rounds):
            state, nxt = states[i], states[i + 1]
            x1, y1 = recount_edges(H, nxt.kept), recount_deg_sq(H, nxt.kept)
            for v in np.flatnonzero(state.kept)[:6]:
                flipped = nxt.kept.copy()
                flipped[v] = not flipped[v]
                x2 = recount_edges(H, flipped)
                y2 = recount_deg_sq(H, flipped)
                assert abs(x2 - x1) <= state.deg[v]
                assert abs(y2 - y1) <= lipschitz_bound(H, state, int(v))
                audited += 1
    assert audited > 100
