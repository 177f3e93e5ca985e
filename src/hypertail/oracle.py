"""Exact ground truth for the surviving-edge count: moments and full law.

Everything here is brute force on purpose: these functions are the oracles
the Monte Carlo estimators are tested against, so they must stay independent
of the simulation code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .core import BudgetError, Hypergraph

DEFAULT_PAIR_BUDGET = 20_000
DEFAULT_ENUMERATION_LIMIT = 22


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law of the surviving-edge count over all 2^n vertex subsets."""

    probabilities: dict[int, float]

    def mean(self) -> float:
        return fsum(x * p for x, p in self.probabilities.items())

    def variance(self) -> float:
        mu = self.mean()
        return fsum(p * (x - mu) ** 2 for x, p in self.probabilities.items())

    def tail(self, center: float, t: float) -> float:
        """P(|X - center| >= t)."""
        return fsum(p for x, p in self.probabilities.items() if abs(x - center) >= t)


def _check_p(p: float):
    if not 0.0 < p < 1.0:
        raise ValueError(f"retention probability must lie in (0, 1), got {p}")


def exact_expectation(H: Hypergraph, p: float) -> float:
    """E[X] = p^k * m: each edge survives iff its k vertices are all kept."""
    _check_p(p)
    return p**H.k * H.m


def exact_variance(H: Hypergraph, p: float, pair_budget: int = DEFAULT_PAIR_BUDGET) -> float:
    """Var(X) from pairwise union sizes.

    Var(X) = sum_e (p^k - p^2k) + sum over ordered pairs of distinct edges of
    (p^|e U e'| - p^2k).  Pairs of disjoint edges contribute 0, so only pairs
    sharing a vertex are enumerated (via the incidence index).
    """
    _check_p(p)
    if H.m > pair_budget:
        raise BudgetError(f"pairwise variance scan over m={H.m} exceeds budget {pair_budget}")
    k = H.k
    p2k = p ** (2 * k)
    terms = [p**k - p2k] * H.m
    edge_sets = [set(edge) for edge in H.edges]
    for i, edge in enumerate(edge_sets):
        overlapping = set()
        for v in edge:
            overlapping.update(H.incidence[v])
        overlapping.discard(i)
        for j in overlapping:
            union = 2 * k - len(edge & edge_sets[j])
            term = p**union - p2k
            assert term >= 0.0  # |e U e'| <= 2k forces nonnegative covariance
            terms.append(term)
    return fsum(terms)


def exact_distribution(
    H: Hypergraph, p: float, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> ExactDistribution:
    """Exact law of X by enumerating all 2^n vertex subsets.

    Subsets are grouped by (edge count, subset size); the final probabilities
    are compensated sums, keeping the result well inside 1e-12 of the exact
    moments.
    """
    _check_p(p)
    if H.n > limit:
        raise BudgetError(f"2^{H.n} enumeration exceeds limit n <= {limit}")
    n, m = H.n, H.m
    subsets = np.arange(1 << n, dtype=np.uint64)
    edge_count = np.zeros(1 << n, dtype=np.int64)
    for edge in H.edges:
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
    return ExactDistribution(probabilities=probabilities)
