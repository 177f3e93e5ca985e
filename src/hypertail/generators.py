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


def _extend(prefixes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each prefix row followed by every row of ``rows`` whose first entry
    exceeds the prefix's last, in order.

    ``rows`` are ascending rows in lexicographic order, so the rows that
    follow one prefix are a suffix of them, found by binary search.
    """
    if rows.shape[1]:
        starts = np.searchsorted(rows[:, 0], prefixes[:, -1], side="right")
    else:  # the one empty row follows every prefix
        starts = np.zeros(len(prefixes), dtype=np.int64)
    counts = len(rows) - starts
    picks = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    return np.hstack([np.repeat(prefixes, counts, axis=0), rows[picks]])


def _subsets(N: int, r: int) -> np.ndarray:
    """The r-subsets of range(N) as ascending int64 rows, in the lexicographic
    order of ``itertools.combinations``."""
    rows = np.zeros((1, 0), dtype=np.int64)
    for t in range(1, r + 1):
        # the last t entries of an r-subset: the first of them leaves room for r-t below
        rows = _extend(np.arange(r - t, N, dtype=np.int64)[:, None], rows)
    return rows


def _colex(pairs) -> list[tuple[int, int]]:
    """Pairs u < v in colexicographic order: the order of their pair ranks."""
    return sorted(((min(u, v), max(u, v)) for u, v in pairs), key=lambda uv: uv[::-1])


def _pattern_edges(spec: GraphSpec, N: int) -> np.ndarray:
    """The (m, e_G) pair ids of every distinct copy of the pattern inside K_N,
    each row ascending."""
    if spec.family == "complete":
        r = spec.parts[0]
        # every pair s_0 < s_1 in colex order (the pair_unrank of 0, 1, ...),
        # each followed by every (r-2)-subset above it: ordered so, the rows of
        # pair ranks come in lexicographic order and the constructor sorts nothing
        upper = np.repeat(np.arange(N, dtype=np.int64), np.arange(N))
        pairs = np.column_stack([np.arange(len(upper)) - upper * (upper - 1) // 2, upper])
        sub = _extend(pairs, _subsets(N, r - 2))
        positions = [_colex(combinations(range(r), 2))]
    else:
        a, b = spec.parts
        sub = _subsets(N, a + b)
        # every split of a copy's a+b vertices into a left and a right side; with
        # equal sides the splits come in swapped pairs, so keep the one whose left
        # side holds the copy's first vertex
        lefts = [left for left in combinations(range(a + b), a) if a < b or left[0] == 0]
        positions = [
            _colex((u, v) for u in left for v in range(a + b) if v not in left) for left in lefts
        ]
    # positions[s][c]: the two positions in a copy's vertex row whose pair is
    # the c-th smallest edge of split s
    lo, hi = np.array(positions).transpose(2, 0, 1)
    out = np.empty((len(sub), len(positions), spec.e_g), dtype=np.int64)
    for c in range(spec.e_g):
        top = sub[:, hi[:, c]]
        out[:, :, c] = top * (top - 1) // 2 + sub[:, lo[:, c]]
    return out.reshape(-1, spec.e_g)


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
    edges = _pattern_edges(spec, N)  # enumerate here, so traces charge it to this layer
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
    edges = np.arange(m_edges * k, dtype=np.int64).reshape(m_edges, k)
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
        picks = rng.choice(total, size=m, replace=False)
        edges = _subsets(n, k)[picks]
    else:
        edges = set()
        while len(edges) < m:
            edges.add(tuple(sorted(rng.choice(n, size=k, replace=False).tolist())))
    return Hypergraph(n=n, k=k, edges=edges)
