"""k-uniform hypergraphs with incidence index, degree and co-degree statistics."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_BUILD = threading.RLock()  # re-entrant: one item's build reads others


class BudgetError(RuntimeError):
    """An enumeration or variance profile would exceed its configured budget."""


class InfeasibleError(RuntimeError):
    """The requested parameters admit no valid construction."""


def _strictly_lex_ascending(rows: np.ndarray) -> bool:
    """Whether every row is lexicographically above the row before it.

    Walks the columns while some pair of consecutive rows is still tied, so
    it needs only a few bool arrays of length m.
    """
    tied = np.ones(max(len(rows) - 1, 0), dtype=bool)
    for later, earlier in zip(rows[1:].T, rows[:-1].T):
        if (tied & (later < earlier)).any():
            return False
        tied &= later == earlier
        if not tied.any():
            return True
    return False  # two rows agree in every column


def _stable_order(keys: np.ndarray, count: int) -> np.ndarray:
    """The stable argsort of the flat ``keys``, whose values are in [0, count)."""
    # a stable sort of 16-bit keys is a radix sort
    return np.argsort(keys.astype(np.uint16) if count <= 1 << 16 else keys, kind="stable")


class _built_once(cached_property):
    """A ``cached_property`` built under one module lock, so that only the first
    thread to read an item builds it (Python 3.12 dropped the lock it had)."""

    def __get__(self, instance, owner=None):
        with _BUILD:
            return super().__get__(instance, owner)


def _tables(ids: np.ndarray, sizes: np.ndarray, pad: int) -> tuple[np.ndarray, ...]:
    """The groups of ``ids`` in power-of-two tables: group g is the
    ``sizes[g]`` ids that follow the groups before it.

    The groups of D' ids, D' rounded up to a power of two D, share one
    (D, groups) intp table: column c holds one group's ids, in order, padded
    with ``pad``.  Tables go by ascending D; empty groups are in none.
    Rounding wastes at most half of each table.
    """
    starts = np.cumsum(sizes) - sizes
    widths = np.left_shift(1, np.frexp(np.maximum(sizes, 1) - 1)[1])  # smallest 2^e >= size
    tables = []
    for D in np.unique(widths[sizes > 0]).tolist():
        groups = np.flatnonzero((widths == D) & (sizes > 0))
        slot = np.arange(D)[:, None]
        table = ids[np.minimum(starts[groups] + slot, len(ids) - 1)]
        table[slot >= sizes[groups]] = pad
        table.setflags(write=False)
        tables.append(table)
    return tuple(tables)


def _int64_rows(edges, k: int) -> np.ndarray:
    """A fresh (m, k) int64 array of ``edges``, an array or an iterable of
    k-sequences of integers."""
    raw = edges if isinstance(edges, np.ndarray) else [tuple(edge) for edge in edges]
    try:
        rows = np.array(raw, dtype=np.int64).reshape(len(raw), k)
    except ValueError:  # ragged rows, or rows of another length
        wrong = [edge for edge in raw if len(edge) != k]
        if not wrong:
            raise
        raise ValueError(f"edge {tuple(wrong[0])} does not have {k} distinct vertices") from None
    if not (isinstance(raw, np.ndarray) and raw.dtype.kind in "iu"):
        given = np.reshape(raw, rows.shape)  # the int64 cast truncates 0.5 to 0
        cut = np.flatnonzero((rows != given).any(axis=1))
        if cut.size:
            edge = tuple(given[cut[0]].tolist())
            raise ValueError(f"edge {edge} has a vertex id that is not an integer")
    return rows


class Hypergraph:
    """Immutable k-uniform hypergraph on vertex ids 0..n-1.

    ``edges_arr`` is the (m, k) int64 array of the edges: each row strictly
    increasing, rows in lexicographic order, no duplicates.  ``edges`` and
    ``incidence`` are tuple views of it.  Every derived item is built once,
    on first use, by whichever thread reads it first, so instances are safe
    to share across worker threads.

    The constructor copies the given edges, so the caller's array stays as
    it was and writeable.  The reader and the generators build a fresh
    (m, k) int64 array for each hypergraph and hand it over with
    ``_owned=True``: already canonical, that array itself becomes
    ``edges_arr`` (made read-only); otherwise it is copied before any sort.
    So ``H.edges_arr is rows`` after ``Hypergraph(n, k, rows, _owned=True)``
    exactly when ``rows`` was canonical.
    """

    def __init__(self, n: int, k: int, edges, *, _owned: bool = False):
        if k < 1:
            raise ValueError(f"uniformity k must be >= 1, got {k}")
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        rows = edges if _owned else _int64_rows(edges, k)
        # canonical rows (strictly increasing, strictly lex-ascending) skip both
        # sorts; compared one column pair at a time, since one (m, k - 1)
        # comparison took 5x as long on K3 N=100 (k - 1 entries per inner loop)
        canonical = all((rows[:, j + 1] > rows[:, j]).all() for j in range(k - 1))
        repeated = np.zeros(len(rows), dtype=bool)
        if not canonical:
            if rows is edges:  # an owned array is sorted only in a copy
                rows = rows.copy()
            rows.sort(axis=1)
            repeated = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        bad = np.flatnonzero(repeated | (rows[:, 0] < 0) | (rows[:, -1] >= n))
        if bad.size:
            edge = tuple(rows[bad[0]].tolist())
            if repeated[bad[0]]:
                raise ValueError(f"edge {edge} does not have {k} distinct vertices")
            raise ValueError(f"edge {edge} has a vertex id outside [0, {n})")
        if not (canonical and _strictly_lex_ascending(rows)):
            rows = rows[np.lexsort(rows.T[::-1])]
            dup = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
            if dup.size:
                raise ValueError(f"duplicate edge {tuple(rows[dup[0] + 1].tolist())}")
        # a writeable alias of the ids for deg: np.bincount copies a read-only input
        self._ids = rows.reshape(-1)
        rows.setflags(write=False)
        self.n = int(n)
        self.k = int(k)
        self.m = len(rows)
        self.edges_arr = rows

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.k == other.k
            and np.array_equal(self.edges_arr, other.edges_arr)
        )

    def __hash__(self):
        return hash((self.n, self.k, self.edges_arr.tobytes()))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m}, k={self.k})"

    @_built_once
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The rows of ``edges_arr`` as k-tuples."""
        return tuple(map(tuple, self.edges_arr.tolist()))

    @_built_once
    def _incident(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, starts): the ids of the edges containing v, ascending, are
        ``ids[starts[v] : starts[v + 1]]`` (read-only)."""
        ids = _stable_order(self.edges_arr.ravel(), self.n) // self.k
        ids.setflags(write=False)
        starts = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.deg, out=starts[1:])
        return ids, starts

    def edges_at(self, v: int) -> np.ndarray:
        """The ids of the edges containing vertex v, ascending (a read-only view)."""
        ids, starts = self._incident
        return ids[starts[v] : starts[v + 1]]

    @_built_once
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """``incidence[v]``: the ids of the edges containing v, ascending."""
        ids, starts = (a.tolist() for a in self._incident)
        return tuple(tuple(ids[a:b]) for a, b in zip(starts, starts[1:]))

    @_built_once
    def incidence_buckets(self) -> tuple[np.ndarray, ...]:
        """The ids of the edges at each vertex, in the power-of-two tables of
        :func:`_tables`, padded with m; isolated vertices are left out."""
        return _tables(self._incident[0], self.deg, self.m)

    @_built_once
    def pair_incidence_buckets(self) -> tuple[np.ndarray, ...]:
        """The ids of the edges at each pair of :attr:`pair_index`, in the
        power-of-two tables of :func:`_tables`, padded with m."""
        index = self.pair_index
        keys = index.edge_pair_ids
        ids = _stable_order(keys.ravel(), index.count)
        ids //= keys.shape[1]
        return _tables(ids, index.codeg, self.m)

    def _pair_codes(self) -> tuple[np.ndarray, int, np.ndarray | None]:
        """(codes, base, labels): ``codes[j, e]`` is ``a * base + b`` for the
        j-th vertex pair a < b inside edge e, in one fresh (C(k, 2), m) array.

        a and b are the vertex ids themselves while n^2 fits in int64, and
        their ranks in ``labels``, the ids that occur, beyond that.  The codes
        are int32 when n^2 fits in it.
        """
        rows, base, labels = self.edges_arr, self.n, None
        if base * base > 2**63:
            labels, rows = np.unique(rows, return_inverse=True)
            rows, base = rows.reshape(self.edges_arr.shape), len(labels)
        dtype = np.int32 if base * base <= 2**31 else np.int64
        pairs = zip(*np.triu_indices(self.k, 1))  # in combinations(range(k), 2) order
        codes = np.empty((self.k * (self.k - 1) // 2, self.m), dtype=dtype)
        for code, (a, b) in zip(codes, pairs):  # each row in place, cast as it is filled
            np.multiply(rows[:, a], base, out=code, dtype=dtype, casting="unsafe")
            np.add(code, rows[:, b], out=code, dtype=dtype, casting="unsafe")
        return codes, base, labels

    @_built_once
    def pair_index(self) -> "PairIndex":
        """Index of all vertex pairs that co-occur in at least one edge.

        A pair's dense id is the rank of its code among the distinct codes.
        """
        codes, base, labels = self._pair_codes()
        uniq, ids, codeg = np.unique(codes.T, return_inverse=True, return_counts=True)
        ids = ids.reshape(codes.T.shape)
        uniq = uniq.astype(np.int64)
        u, v = uniq // base, uniq % base
        if labels is not None:
            u, v = labels[u], labels[v]
        for a in (ids, u, v, codeg):
            a.setflags(write=False)
        return PairIndex(count=len(uniq), u=u, v=v, edge_pair_ids=ids, codeg=codeg)

    @_built_once
    def max_codegree(self) -> int:
        """The largest co-degree: the longest run of equal codes among the
        sorted codes of the vertex pairs inside the edges (0 without pairs).

        It builds neither :attr:`pair_index` nor an n-sized array.  When no
        two neighbouring sorted codes are equal, as on a linear H, every run
        has length 1 and no run is measured.
        """
        codes = self._pair_codes()[0].ravel()  # a fresh array: sorted in place
        codes.sort()
        if not (codes[1:] == codes[:-1]).any():
            return int(codes.size > 0)
        ends = np.flatnonzero(codes[1:] != codes[:-1])  # the last index of each run but the last
        return int(np.diff(ends, prepend=-1, append=codes.size - 1).max())

    @_built_once
    def deg(self) -> np.ndarray:
        """``deg[v]``: the number of edges containing v (read-only)."""
        deg = np.bincount(self._ids, minlength=self.n)
        deg.setflags(write=False)
        return deg

    @_built_once
    def stats(self) -> "HypergraphStats":
        """n, m, k, the max/min degree and :attr:`max_codegree`; read it
        through :func:`stats_of`."""
        return HypergraphStats(
            n=self.n,
            m=self.m,
            k=self.k,
            max_degree=int(self.deg.max()),
            min_degree=int(self.deg.min()),
            max_codegree=self.max_codegree,
        )


@dataclass(frozen=True)
class PairIndex:
    """Co-occurring vertex pairs of a hypergraph.

    ``edge_pair_ids[e, j]`` is the dense id of the j-th vertex pair inside
    edge e; ``u``/``v`` give the endpoints of each dense pair id, and
    ``codeg`` the number of edges that contain it.
    """

    count: int
    u: np.ndarray
    v: np.ndarray
    edge_pair_ids: np.ndarray
    codeg: np.ndarray


@dataclass(frozen=True)
class HypergraphStats:
    """The six numbers of a hypergraph that the analytic conditions and bounds read."""

    n: int
    m: int
    k: int
    max_degree: int
    min_degree: int
    max_codegree: int


def codegree(H: Hypergraph, u: int, v: int) -> int:
    """Number of edges containing both u and v (u != v)."""
    if u == v:
        raise ValueError("co-degree is defined for distinct vertices")
    for w in (u, v):
        if not 0 <= w < H.n:
            raise ValueError(f"vertex id {w} outside [0, {H.n})")
    return np.intersect1d(H.edges_at(u), H.edges_at(v), assume_unique=True).size


def stats_of(H: Hypergraph) -> HypergraphStats:
    """H's scalar statistics, computed once per H."""
    return H.stats
