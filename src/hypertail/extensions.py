"""Rooted pattern graphs, balancedness, and extension counts over sampled graphs.

A rooted graph fixes root labels; an extension embeds the non-root part into
a sampled graph so that the pattern's adjacencies to the roots and inside the
non-root part are reproduced.  Edges inside the root set are never inspected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from .bounds import NicenessParams
from .core import BudgetError, InfeasibleError
from .generators import GraphSpec, pair_rank, pair_unrank, subgraph_hypergraph
from .montecarlo import LANE_EXTENSION, TrialConfig, _mean_stderr, _per_trial, clopper_pearson
from .percolation import codeg_trigger, degree_cap
from .rng import TrialStream

BALANCE_BUDGET = 20


@dataclass(frozen=True)
class RootedGraph:
    """A labeled graph with roots 0..r-1 and non-roots r..r+s-1.

    ``edges`` are sorted label pairs.  ``t`` counts the edges not induced by
    the root set and the density is t / s.
    """

    vertex_count: int
    root_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.root_count < 1 or self.vertex_count <= self.root_count:
            raise ValueError("need at least one root and one non-root vertex")
        for a, b in self.edges:
            if not (0 <= a < b < self.vertex_count):
                raise ValueError(f"edge ({a}, {b}) is not a sorted pair of vertex labels")

    @property
    def s(self) -> int:
        return self.vertex_count - self.root_count

    @property
    def t(self) -> int:
        r = self.root_count
        return sum(1 for a, b in self.edges if b >= r)

    @property
    def density(self) -> float:
        return self.t / self.s

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges


@dataclass(frozen=True)
class RootEmbedding:
    """Distinct host-graph vertices carrying the root labels, in label order."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("root embedding vertices must be distinct")


@dataclass(frozen=True)
class GraphSample:
    """A sampled graph on N vertices as a bitmap over K_N edge ids."""

    N: int
    kept: np.ndarray

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.kept[pair_rank(a, b)])

    @cached_property
    def nbrs(self) -> list[int]:
        """Each vertex's neighbours as a bitmask: bit v of entry u is set when
        edge uv is kept."""
        nbrs = [0] * self.N
        for e in np.flatnonzero(self.kept).tolist():
            u, v = pair_unrank(e)
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        return nbrs


@dataclass(frozen=True)
class ExtensionCount:
    """Extension counts for one rooted graph, root embedding and sample.

    ``z_sets`` counts non-root vertex sets admitting at least one valid
    labeling, ``z_labeled`` counts the labelings, and ``z_subgraphs`` counts
    the distinct embedded edge sets; for complete patterns all labelings of a
    set produce the same edge set, so z_labeled = z_sets * s!.
    """

    z_sets: int
    z_labeled: int
    z_subgraphs: int


def rooted_graph(vertex_count: int, root_count: int, edges) -> RootedGraph:
    """Build a rooted graph from arbitrary (sorted or not) vertex pairs."""
    canon = frozenset((min(a, b), max(a, b)) for a, b in edges)
    return RootedGraph(vertex_count=vertex_count, root_count=root_count, edges=canon)


def rooted_size(spec: GraphSpec, root_count: int) -> tuple[int, int]:
    """``(s, t)`` of ``build_rooted(spec, root_count)``, from the spec alone:
    it raises the same errors but enumerates none of the v_G^2 label pairs."""
    if root_count not in (2, 3):
        raise ValueError("root_count must be 2 or 3")
    if spec.v_g < root_count + 1:
        raise ValueError(f"{spec.label} has too few vertices for {root_count} roots")
    # K_r joins every root pair; in K_{a,b} root 0 is joined to the others only
    inside = comb(root_count, 2) if spec.family == "complete" else root_count - 1
    return spec.v_g - root_count, spec.e_g - inside


def build_rooted(spec: GraphSpec, root_count: int) -> RootedGraph:
    """Root a pattern graph at an edge (2 roots) or an edge plus one fixed
    neighbour of the first root (3 roots).

    With 2 roots the pattern needs at least 3 vertices, with 3 roots at least
    4 (the non-root part must be nonempty).  For bipartite patterns the third
    root is canonically taken from the second root's side.
    """
    rooted_size(spec, root_count)  # the root count and size checks
    n = spec.v_g
    if spec.family == "complete":
        return rooted_graph(n, root_count, combinations(range(n), 2))
    # root 0 is on the left side and the other roots on the right (a <= b and
    # v_g > root_count leave b >= 2); the other a - 1 left vertices take the
    # labels that follow the roots
    a = spec.parts[0]
    left = {0, *range(root_count, root_count + a - 1)}
    return rooted_graph(n, root_count, ((x, y) for x in left for y in range(n) if y not in left))


def check_balance_budget(s: int) -> None:
    """Raise :class:`BudgetError` when ``is_balanced`` would enumerate more
    than 2^BALANCE_BUDGET subsets of ``s`` non-root vertices."""
    if s > BALANCE_BUDGET:
        raise BudgetError(f"balancedness enumeration over 2^{s} subsets exceeds budget")


def is_balanced(rg: RootedGraph) -> bool:
    """Whether no root-containing induced subgraph beats the full density.

    Enumerates every nonempty subset of the non-root vertices: 2^s subsets,
    so s above ``BALANCE_BUDGET`` (20) raises :class:`BudgetError`.
    """
    check_balance_budget(rg.s)
    full = rg.density
    roots = range(rg.root_count)
    nonroots = range(rg.root_count, rg.vertex_count)
    for size in range(1, rg.s + 1):
        for chosen in combinations(nonroots, size):
            vertices = set(roots) | set(chosen)
            t = sum(
                1 for a, b in rg.edges if a in vertices and b in vertices and b >= rg.root_count
            )
            if t / size > full:
                return False
    return True


def _scan_extensions(rg: RootedGraph, embedding: RootEmbedding, sample: GraphSample, induced: bool):
    """Enumerate valid labelings; returns (z_sets, z_labeled, embedded edge sets).

    A backtracking search places y_1..y_s one at a time.  The host vertices
    that may carry the next label form one bitmask: the common neighbours of
    the placed vertices the pattern joins to that label, less (when
    ``induced``) the neighbours of the other placed vertices, less the placed
    vertices themselves.  The neighbour masks are the sample's
    :attr:`GraphSample.nbrs`, so scans of one sample build them once.
    """
    r, s = rg.root_count, rg.s
    if len(embedding.vertices) != r:
        raise ValueError(f"embedding carries {len(embedding.vertices)} roots, pattern has {r}")
    if not all(0 <= v < sample.N for v in embedding.vertices):
        raise ValueError(f"root vertices {embedding.vertices} are not all in [0, {sample.N})")
    if sample.N - r < s:
        raise ValueError("host graph has too few vertices outside the roots")
    nbrs = sample.nbrs
    # for each non-root label, the earlier labels it is and is not joined to
    joined = {y: [x for x in range(y) if rg.has_edge(x, y)] for y in range(r, rg.vertex_count)}
    apart = {y: [x for x in range(y) if not rg.has_edge(x, y)] for y in joined}
    edges = [e for e in rg.edges if e[1] >= r]
    everyone = (1 << sample.N) - 1
    placed = [int(v) for v in embedding.vertices]  # host vertex of each label placed so far
    vertex_sets, subgraphs = set(), set()
    z_labeled = 0

    def extend(label: int, taken: int):
        nonlocal z_labeled
        if label == rg.vertex_count:
            z_labeled += 1
            vertex_sets.add(frozenset(placed[r:]))
            subgraphs.add(frozenset(tuple(sorted((placed[a], placed[b]))) for a, b in edges))
            return
        mask = everyone & ~taken
        for x in joined[label]:
            mask &= nbrs[placed[x]]
        if induced:
            for x in apart[label]:
                mask &= ~nbrs[placed[x]]
        while mask:
            bit = mask & -mask
            mask ^= bit
            placed.append(bit.bit_length() - 1)
            extend(label + 1, taken | bit)
            placed.pop()

    extend(r, sum(1 << v for v in placed))
    return len(vertex_sets), z_labeled, subgraphs


def count_extensions(
    rg: RootedGraph, embedding: RootEmbedding, sample: GraphSample, induced: bool = True
) -> ExtensionCount:
    """Count extensions of the rooted pattern from a root embedding.

    A labeling y_1..y_s of a candidate vertex set is valid when pattern
    root/non-root and non-root/non-root adjacencies are reproduced in the
    sample; with ``induced=True`` non-adjacencies must be reproduced as well.
    Pairs inside the root embedding are never inspected.
    """
    z_sets, z_labeled, subgraphs = _scan_extensions(rg, embedding, sample, induced)
    return ExtensionCount(
        z_sets=z_sets,
        z_labeled=z_labeled,
        z_subgraphs=len(subgraphs),
    )


def sample_gnq(N: int, q: float, stream: TrialStream) -> GraphSample:
    """Sample a graph on N vertices keeping every K_N edge with probability q."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"retention probability must lie in (0, 1), got {q}")
    kept = stream.uniforms(comb(N, 2)) < q
    return GraphSample(N=N, kept=kept)


def expected_extensions(spec: GraphSpec, root_count: int, N: int, q: float) -> float:
    """Exact expected number of extension vertex sets in a q-sampled graph.

    Complete patterns impose only edge requirements; bipartite patterns also
    require non-adjacencies (the counting is of exact embedded copies), and
    the same non-root set can extend through several side splits, which are
    disjoint events.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"retention probability must lie in (0, 1), got {q}")
    s, t = rooted_size(spec, root_count)
    if spec.family == "complete":
        return comb(N - root_count, s) * q**t
    a, _ = spec.parts
    splits = comb(s, a - 1)  # side assignments of the non-root set; disjoint events
    quantified = root_count * s + comb(s, 2)
    return comb(N - root_count, s) * splits * q**t * (1.0 - q) ** (quantified - t)


@dataclass(frozen=True)
class ZIdentityReport:
    spec_label: str
    N: int
    q: float
    trials_total: int
    trials_conditioned: int
    mismatches: int
    all_equal: bool
    z1_mean: float
    z1_stderr: float
    expected_z1: float


def z_identity_check(
    spec: GraphSpec,
    N: int,
    q: float,
    cfg: TrialConfig,
    conditioned_target: int | None = None,
) -> ZIdentityReport:
    """Per-trial identity between the surviving degree of the root edge and
    the extension count from its endpoints.

    On trials where the root edge survives, its degree in the percolated
    subgraph-count hypergraph must equal the number of extensions, exactly.
    The extensions are counted as copies: the distinct embedded edge sets,
    with no non-adjacency constraint, over every root orientation.  This is
    the count the identity is exact for; for complete patterns it equals the
    number of extending vertex sets.
    """
    if conditioned_target is not None and conditioned_target < 1:
        raise ValueError(f"conditioned target must be >= 1, got {conditioned_target}")
    H = subgraph_hypergraph(spec, N)
    e1 = pair_rank(0, 1)
    rg = build_rooted(spec, 2)
    # for asymmetric bipartite patterns a copy may place either endpoint of
    # the root edge on either side, so both root orientations are scanned
    orientations = [RootEmbedding(vertices=(0, 1))]
    if spec.family == "complete_bipartite" and spec.parts[0] != spec.parts[1]:
        orientations.append(RootEmbedding(vertices=(1, 0)))
    edge_arr = H.edges_arr[(H.edges_arr == e1).any(axis=1)]  # the edges through e1

    def trial(stream: TrialStream) -> tuple[int, bool, bool]:  # Z1, root edge kept, mismatch
        sample = sample_gnq(N, q, stream)
        z1 = len(set().union(*(_scan_extensions(rg, r, sample, False)[2] for r in orientations)))
        hit = bool(sample.kept[e1])
        return z1, hit, hit and int(sample.kept[edge_arr].all(axis=1).sum()) != z1

    target = conditioned_target
    if target is None:
        rows = _per_trial(cfg, LANE_EXTENSION, trial)
    else:
        samples = max(1000, math.ceil(target / q * 20))
        rows, conditioned = [], 0
        # a trial adds at most one conditioned hit, so no chunk runs past the target-th
        while conditioned < target and len(rows) < samples:
            chunk = min(target - conditioned, samples - len(rows))
            part = _per_trial(replace(cfg, trials=chunk), LANE_EXTENSION, trial, first=len(rows))
            conditioned += sum(hit for _, hit, _ in part)
            rows += part
        if conditioned < target:
            raise InfeasibleError(
                f"only {conditioned} of {target} conditioned trials after {samples} samples at q={q}"
            )
    z_values, hits, misses = zip(*rows)
    conditioned, mismatches = sum(hits), sum(misses)
    z1_mean, z1_stderr = _mean_stderr(np.array(z_values, dtype=np.float64))
    # every copy needs its t edges present; a bipartite non-root set extends
    # through each side split of it
    splits = 1 if spec.family == "complete" else comb(rg.s, spec.parts[0] - 1)
    expected = len(orientations) * comb(N - 2, rg.s) * splits * q**rg.t
    return ZIdentityReport(
        spec_label=spec.label,
        N=N,
        q=q,
        trials_total=len(rows),
        trials_conditioned=conditioned,
        mismatches=mismatches,
        all_equal=mismatches == 0,
        z1_mean=z1_mean,
        z1_stderr=z1_stderr,
        expected_z1=expected,
    )


@dataclass(frozen=True)
class ExtensionCapReport:
    spec_label: str
    N: int
    p: float
    q: float
    trials: int
    trigger: bool
    z1_cap: float
    z1_violations: int
    z1_ci: tuple[float, float]
    z2_checked: int
    z2_violations: int
    z2_ci: tuple[float, float] | None
    threshold: float
    supported: bool


def extension_cap_check(
    spec: GraphSpec,
    N: int,
    q: float,
    params: NicenessParams,
    cfg: TrialConfig,
) -> ExtensionCapReport:
    """Monte Carlo check of the extension-count cap and of the two-root vs
    three-root comparison.

    Each trial samples a graph and a random root embedding; violations of
    Z1 <= max{2 q^(k-1) Delta, Gamma} are counted, and when the co-degree
    trigger fires, violations of Z2 <= Z1 / ln^4 n as well.  Violation
    frequencies carry exact CIs and are compared against 3 e^(-b lambda^2).
    """
    if not params.p <= q < 1.0:
        raise ValueError("q must lie in [p, 1)")
    H = subgraph_hypergraph(spec, N)
    log_n = math.log(H.n)
    trigger = codeg_trigger(params.p, q, H)
    rg1 = build_rooted(spec, 2)
    rg2 = build_rooted(spec, 3) if spec.v_g >= 4 else None
    cap = degree_cap(q, H, params.gamma_cap)
    z2_on = trigger and rg2 is not None

    def trial(stream: TrialStream) -> tuple[bool, bool]:  # whether Z1, Z2 break their caps
        gen = stream.generator()
        roots = tuple(int(x) for x in gen.choice(N, size=3, replace=False))
        sample = GraphSample(N=N, kept=gen.random(comb(N, 2)) < q)
        z1 = count_extensions(rg1, RootEmbedding(roots[:2]), sample, induced=False).z_sets
        if not z2_on:
            return z1 > cap, False
        z2 = count_extensions(rg2, RootEmbedding(roots), sample, induced=False).z_sets
        return z1 > cap, z2 > z1 * log_n**-4

    z1_viol, z2_viol = map(sum, zip(*_per_trial(cfg, LANE_EXTENSION, trial)))
    z2_checked = cfg.trials if z2_on else 0
    threshold = 3.0 * math.exp(-params.b * params.lam**2)
    z1_ci = clopper_pearson(z1_viol, cfg.trials, cfg.significance)
    z2_ci = clopper_pearson(z2_viol, z2_checked, cfg.significance) if z2_checked else None
    supported = z1_ci[1] <= threshold and (z2_ci is None or z2_ci[1] <= threshold)
    return ExtensionCapReport(
        spec_label=spec.label,
        N=N,
        p=params.p,
        q=q,
        trials=cfg.trials,
        trigger=trigger,
        z1_cap=cap,
        z1_violations=z1_viol,
        z1_ci=z1_ci,
        z2_checked=z2_checked,
        z2_violations=z2_viol,
        z2_ci=z2_ci,
        threshold=threshold,
        supported=supported,
    )
