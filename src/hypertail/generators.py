"""Hypergraph builders: subgraph-count hypergraphs, disjoint edges, random k-sets."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, isqrt

import numpy as np

from .core import BudgetError, Hypergraph, InfeasibleError

DEFAULT_ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class GraphSpec:
    """A fixed pattern graph: complete K_r or complete bipartite K_{a,b}."""

    family: str
    parts: tuple[int, ...]

    def __post_init__(self):
        if self.family == "complete":
            (r,) = self.parts
            if r < 2:
                raise ValueError("complete graph needs at least 2 vertices")
        elif self.family == "complete_bipartite":
            a, b = self.parts
            if not 1 <= a <= b:
                raise ValueError("bipartite sides must satisfy 1 <= a <= b")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def v_g(self) -> int:
        return sum(self.parts) if self.family == "complete_bipartite" else self.parts[0]

    @property
    def e_g(self) -> int:
        if self.family == "complete_bipartite":
            a, b = self.parts
            return a * b
        r = self.parts[0]
        return r * (r - 1) // 2

    @property
    def label(self) -> str:
        if self.family == "complete":
            return f"K{self.parts[0]}"
        return "K{%d,%d}" % self.parts


def complete(r: int) -> GraphSpec:
    return GraphSpec(family="complete", parts=(r,))


def complete_bipartite(a: int, b: int) -> GraphSpec:
    if a > b:
        a, b = b, a
    return GraphSpec(family="complete_bipartite", parts=(a, b))


def pair_rank(a: int, b: int) -> int:
    """Colexicographic rank of the unordered pair {a, b}: O(1) both ways."""
    if a == b:
        raise ValueError("pair endpoints must be distinct")
    if a > b:
        a, b = b, a
    return b * (b - 1) // 2 + a


def pair_unrank(idx: int) -> tuple[int, int]:
    """Inverse of :func:`pair_rank`."""
    b = (1 + isqrt(8 * idx + 1)) // 2
    a = idx - b * (b - 1) // 2
    return a, b


def _copies(spec: GraphSpec, N: int):
    """Yield the edge set of every distinct copy of the pattern inside K_N."""
    if spec.family == "complete":
        r = spec.parts[0]
        for sub in combinations(range(N), r):
            yield tuple(pair_rank(x, y) for x, y in combinations(sub, 2))
    else:
        a, b = spec.parts
        for left in combinations(range(N), a):
            left_set = set(left)
            rest = [x for x in range(N) if x not in left_set]
            for right in combinations(rest, b):
                if a == b and left > right:
                    continue  # unordered side pair: count each split once
                yield tuple(pair_rank(x, y) for x in left for y in right)


def subgraph_hypergraph(spec: GraphSpec, N: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> Hypergraph:
    """The e_G-uniform hypergraph whose vertices are K_N edges and whose
    hyperedges are the edge sets of all copies of the pattern in K_N."""
    if N < spec.v_g:
        raise InfeasibleError(f"N={N} is smaller than the pattern's {spec.v_g} vertices")
    if spec.family == "complete":
        m = comb(N, spec.parts[0])
    else:
        a, b = spec.parts
        m = comb(N, a) * comb(N - a, b)
        if a == b:
            m //= 2
    if m > budget:
        raise BudgetError(f"enumeration of {m} copies exceeds budget {budget}")
    edges = list(_copies(spec, N))  # enumerate here, so traces charge it to this layer
    return Hypergraph(n=comb(N, 2), k=spec.e_g, edges=edges)


def _check_edge_budget(m: int, k: int, budget: int) -> None:
    """The edge list holds m*k vertex ids; refuse it above ``budget``."""
    if m * k > budget:
        raise BudgetError(f"{m} edges of {k} vertices ({m * k} vertex ids) exceed budget {budget}")


def disjoint_edges(m_edges: int, k: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> Hypergraph:
    """m pairwise disjoint k-edges on n = m*k <= budget vertices."""
    if m_edges < 1 or k < 1:
        raise ValueError("disjoint_edges needs m_edges >= 1 and k >= 1")
    _check_edge_budget(m_edges, k, budget)
    edges = [tuple(range(i * k, (i + 1) * k)) for i in range(m_edges)]
    return Hypergraph(n=m_edges * k, k=k, edges=edges)


def random_uniform(
    n: int, m: int, k: int, seed: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Hypergraph:
    """m distinct uniformly random k-sets on n vertices, m*k <= budget,
    deterministic per seed; drawn from the enumerated universe when it has at
    most min(budget, 10^6) members, else by rejection."""
    _check_edge_budget(m, k, budget)
    total = comb(n, k)
    if m > total:
        raise InfeasibleError(f"cannot place {m} distinct {k}-sets on {n} vertices (max {total})")
    rng = np.random.default_rng(seed)
    if total <= min(budget, 10**6):
        universe = list(combinations(range(n), k))
        picks = rng.choice(total, size=m, replace=False)
        edges = [universe[i] for i in picks.tolist()]
    else:
        edges = set()
        while len(edges) < m:
            edges.add(tuple(sorted(rng.choice(n, size=k, replace=False).tolist())))
    return Hypergraph(n=n, k=k, edges=edges)
