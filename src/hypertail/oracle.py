"""Exact ground truth for the surviving-edge count: moments and full law.

These functions are the oracles the Monte Carlo estimators are tested
against, so they stay independent of the simulation code paths.  The law is
an exact count over all 2^n vertex subsets, factored into a product of two
0/1 matrices over the high and low halves of the subset bits and streamed
over blocks of high-half rows: time O(m 2^n) in BLAS, memory
O(2^ceil(n/2) chunk + block) whatever m is.  Its reference, one masked pass
over every subset per edge, lives in the tests.  The variance is an exact
count: the edge-intersection profile gives how many edge pairs meet in each
number of vertices, and the terms are summed without rounding error.  Its
brute-force reference, a scan over every ordered pair of overlapping edges,
lives in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, fsum

import numpy as np

from .core import BudgetError, Hypergraph

DEFAULT_PAIR_BUDGET = 20_000
ROWS_PER_BUDGETED_EDGE = 64  # 2^6: every vertex of a 6-uniform edge shared
DEFAULT_ENUMERATION_LIMIT = 22
CHUNK_ENTRIES = 1 << 20  # entries of the two 0/1 matrices per chunk of edges
BLOCK_ENTRIES = 1 << 18  # subsets, the entries of the key, per block of high-half rows


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


def intersection_profile(H: Hypergraph, pair_budget: int | None = None) -> tuple[int, ...]:
    """(B_1, ..., B_{k-1}), where B_j ordered pairs of distinct edges meet in exactly j vertices.

    A_i = sum over i-subsets T of d_T^2 counts ordered edge pairs (e, e), too,
    weighted by the C(|e & e'|, i) i-subsets they share, so
    A_i = sum_{j >= i} C(j, i) B_j with B_k = m (edges are distinct).  A
    subset with a vertex of degree 1 lies in one edge only, so
    A_i = m C(k, i) + sum (d_T^2 - d_T) over the i-subsets T of each edge's
    shared vertices (degree >= 2).  Those rows are sorted and their run
    lengths squared; the triangular system is then solved from j = k - 1 down.

    ``pair_budget`` (default DEFAULT_PAIR_BUDGET) caps the subset rows,
    counted as the sum over edges of 2^(shared vertices), at
    ROWS_PER_BUDGETED_EDGE per budgeted edge.  That cap bounds the work: the
    other arrays are O(n + mk), the size of H itself.
    """
    budget = DEFAULT_PAIR_BUDGET if pair_budget is None else pair_budget
    k, m = H.k, H.m
    shared = (H.deg >= 2)[H.edges_arr]
    sizes = np.count_nonzero(shared, axis=1)
    by_size = np.bincount(sizes, minlength=k + 1).tolist()
    rows_needed = sum(count << s for s, count in enumerate(by_size))
    if rows_needed > ROWS_PER_BUDGETED_EDGE * budget:
        raise BudgetError(
            f"variance profile over {rows_needed} subset rows exceeds budget "
            f"{ROWS_PER_BUDGETED_EDGE * budget} ({ROWS_PER_BUDGETED_EDGE} rows per budgeted edge)"
        )
    groups = {}  # groups[s]: the ascending shared vertices of the edges with s of them
    for s in range(1, k + 1):
        if by_size[s]:
            pick = sizes == s
            edges = H.edges_arr[pick]
            groups[s] = edges if s == k else edges[shared[pick]].reshape(-1, s)
    counts = [0] * (k + 1)
    counts[k] = m
    for i in range(k - 1, 0, -1):
        pieces = [
            group[:, np.array(list(combinations(range(s), i)))].reshape(-1, i)
            for s, group in groups.items()
            if s >= i
        ]
        repeats = 0
        if pieces:
            rows = np.concatenate(pieces)
            rows = rows[np.lexsort(rows.T[::-1])]
            starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
            runs = np.diff(np.r_[starts, len(rows)])
            repeats = int(runs @ runs) - len(rows)  # <= m len(rows): int64 outlasts memory
        pairs = m * comb(k, i) + repeats
        counts[i] = pairs - sum(comb(j, i) * counts[j] for j in range(i + 1, k + 1))
    return tuple(counts[1:k])


def exact_variance(H: Hypergraph, p: float, pair_budget: int | None = None) -> float:
    """Var(X) from the edge-intersection profile.

    Var(X) = m (p^k - p^2k) + sum_j B_j (p^(2k-j) - p^2k), where B_j counts
    ordered pairs of distinct edges meeting in exactly j vertices; disjoint
    pairs contribute 0.  The terms are summed exactly as rationals and
    rounded once, so the result is the correctly rounded sum of all
    m + sum_j B_j pairwise terms.  ``pair_budget`` is the profile's budget.
    """
    from fractions import Fraction  # imports decimal: kept off the CLI's import path

    _check_p(p)
    k = H.k
    p2k = p ** (2 * k)
    weighted = [(H.m, p**k - p2k)]
    for j, pairs in enumerate(intersection_profile(H, pair_budget), start=1):
        if pairs:
            term = p ** (2 * k - j) - p2k
            assert term >= 0.0  # |e U e'| <= 2k forces nonnegative covariance
            weighted.append((pairs, term))
    return float(sum(count * Fraction(term) for count, term in weighted))


def _contains(subsets: np.ndarray, masks: np.ndarray, dtype) -> np.ndarray:
    """The 0/1 matrix [s & mask == mask], subsets down and masks across."""
    return ((subsets[:, None] & masks) == masks).astype(dtype)


def exact_distribution(
    H: Hypergraph, p: float, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> ExactDistribution:
    """Exact law of X by counting the edges inside each of the 2^n vertex subsets.

    With S = hi * 2^l + lo for l = n // 2, edge e lies in S exactly when hi
    holds e's high bits and lo its low bits, so the edge counts of all
    subsets are the product of a 2^(n-l) x m and an m x 2^l 0/1 matrix.  The
    product runs in float32, exact while every partial sum, an integer below
    (m + 1)(n + 1), stays below 2^24, as it does for every n <= 22; otherwise
    in float64.  The product is taken a block of high-half rows at a time,
    BLOCK_ENTRIES subsets per block, each summed over chunks of edges whose
    two matrices hold CHUNK_ENTRIES entries together; a single chunk keeps
    its low-half matrix for every block.  Each block's subsets are grouped by
    (edge count, subset size) in one bincount and added into an (m + 1) x
    (n + 1) integer table, the same whatever the blocking, so the working
    memory is O(2^ceil(n/2) chunk + block) whatever m is and never the
    whole 2^n.  The final probabilities are compensated sums, keeping the
    result well inside 1e-12 of the exact moments.
    """
    _check_p(p)
    if H.n > limit:
        raise BudgetError(f"2^{H.n} enumeration exceeds limit n <= {limit}")
    n, m = H.n, H.m
    low, high = n // 2, n - n // 2
    lo, low_bits = np.arange(1 << low), (1 << low) - 1
    masks = np.left_shift(1, H.edges_arr).sum(axis=1)
    dtype = np.float32 if (m + 1) * (n + 1) <= 1 << 24 else np.float64
    rows = min(max(1, BLOCK_ENTRIES >> low), 1 << high)
    chunk = max(1, CHUNK_ENTRIES // (rows + lo.size))
    parts = [masks[start : start + chunk] for start in range(0, m, chunk)]
    lo_size = np.bitwise_count(lo)
    # with one chunk of edges, its low-half matrix serves every block
    kept = _contains(lo, parts[0] & low_bits, dtype) if len(parts) == 1 else None
    joint = np.zeros((m + 1) * (n + 1), dtype=np.int64)
    # one key, product and index buffer serve every block, so no block takes fresh pages
    buffers = [np.empty((rows, lo.size), dtype=kind) for kind in (dtype, dtype, np.intp)]
    for top in range(0, 1 << high, rows):
        hi = np.arange(top, min(top + rows, 1 << high))
        key, product, index = (buffer[: hi.size] for buffer in buffers)
        # key[hi, lo] = (n + 1) * (edges inside S) + |S|
        np.add.outer(np.bitwise_count(hi), lo_size, out=key)
        for part in parts:
            lo_holds = _contains(lo, part & low_bits, dtype) if kept is None else kept
            np.matmul(_contains(hi, part >> low, dtype), lo_holds.T, out=product)
            product *= n + 1
            key += product
        np.copyto(index, key, casting="unsafe")
        joint += np.bincount(index.ravel(), minlength=joint.size)
    joint = joint.reshape(m + 1, n + 1)
    weight = [p**c * (1.0 - p) ** (n - c) for c in range(n + 1)]
    probabilities = {}
    for x in np.flatnonzero(joint.any(axis=1)).tolist():
        row = joint[x]
        probabilities[x] = fsum(int(row[c]) * weight[c] for c in range(n + 1) if row[c])
    return ExactDistribution(probabilities=probabilities)
