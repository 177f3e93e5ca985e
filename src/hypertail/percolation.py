"""Vertex percolation and the iterative exposure chain.

A single percolation keeps every vertex independently with probability q.
The exposure chain realises the same law in rounds: starting from the full
vertex set, each round keeps the previous survivors independently with
probability epsilon, and after I rounds with epsilon^I = p the surviving set
is distributed exactly as a single percolation at p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Hypergraph, InfeasibleError, stats_of
from .rng import TrialStream

STRICT_EPS_RANGE = (1e-6, 1e-3)
_REL_TOL = 1e-12


@dataclass(frozen=True)
class ExposureSchedule:
    """Round count I and per-round retention epsilon with epsilon^I = p."""

    p: float
    epsilon: float
    rounds: int
    eps_range: tuple[float, float]
    strict_mode: bool = False

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("schedule needs at least one round")
        if abs(self.epsilon**self.rounds - self.p) > _REL_TOL * self.p:
            raise ValueError("epsilon^rounds does not reproduce p to 1e-12 relative error")


@dataclass(frozen=True, eq=False)
class RoundState:
    """The survivors ``kept`` of H's vertices after round ``index`` of ``schedule``.

    Every other attribute derives from these four, each once, on first use:
    the edge and degree statistics from ``kept``, and ``codeg_trigger`` and
    ``eta`` from the round's retention level epsilon^index.
    """

    H: Hypergraph
    schedule: ExposureSchedule
    index: int
    kept: np.ndarray

    @cached_property
    def codeg_trigger(self) -> bool:
        """Whether this round is in the regime where the co-degree smallness
        condition is switched on."""
        return codeg_trigger(self.schedule.p, self.schedule.epsilon**self.index, self.H)

    @cached_property
    def eta(self) -> float:
        """The pair-overlap factor: k / ln^3 n when triggered, else 1."""
        return self.H.k * math.log(self.H.n) ** -3 if self.codeg_trigger else 1.0

    @cached_property
    def alive(self) -> np.ndarray:
        """Flags the edges whose k vertices all survive."""
        return surviving_edge_mask(self.H, self.kept)

    @cached_property
    def edge_count(self) -> int:
        return int(self.alive.sum())

    @cached_property
    def deg(self) -> np.ndarray:
        return surviving_degrees(self.H, self.alive)

    @cached_property
    def deg_sq_sum(self) -> int:
        return int((self.deg**2).sum())


@dataclass(frozen=True)
class PreconditionReport:
    """Evaluation of the four per-round conditions that keep the chain's
    induction alive, with the bounds they compare against and the next
    round's deviation radii t1, t2."""

    index: int
    holds: tuple[bool, bool, bool, bool]
    window: tuple[float, float]
    deg_sq_bound: float
    deg_cap: float
    t1: float
    t2: float


def surviving_edge_mask(H: Hypergraph, kept: np.ndarray) -> np.ndarray:
    """Per edge, the AND of its k vertices' entries of ``kept``.

    With one bool flag per vertex this is a bool mask over edges: True where
    all k vertices survive.  With one ``uint64`` word per vertex, whose bit j
    says whether trial j of a block kept the vertex, it is one word per edge
    whose bit j says whether the edge survives in trial j.
    """
    cols = H.edges_arr.T
    alive = kept[cols[0]]
    for col in cols[1:]:
        alive &= kept[col]
    return alive


# _BYTE_BITS[v, i] is bit i of the byte v.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int64)
_BYTE_SLOTS = 256 * np.arange(8, dtype=np.intp)
_COUNT_CHUNK = 1 << 14  # words per bincount: bounds its intp keys to 1 MB


def surviving_edge_counts(alive: np.ndarray) -> np.ndarray:
    """The 64 per-trial edge counts of a block's ``alive`` words (see
    :func:`surviving_edge_mask`): entry j counts the words with bit j set."""
    octets = alive[alive != 0].astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    # hist[b, v]: how many words have the value v in byte b
    hist = np.zeros(8 * 256, dtype=np.int64)
    for lo in range(0, len(octets), _COUNT_CHUNK):
        keys = octets[lo : lo + _COUNT_CHUNK] + _BYTE_SLOTS
        hist += np.bincount(keys.ravel(), minlength=8 * 256)
    return (hist.reshape(8, 256) @ _BYTE_BITS).ravel()  # row b, column i: trial 8b + i


# The listing path: at most _TALLY entries in a (trials, n) degree table and
# _TALLY keys per bincount.  A block whose set bits exceed _DENSE per edge
# takes the counter planes, each adder tree over at most _PLANE_WORDS words.
_TALLY = 1 << 19
_DENSE = 1.0
_PLANE_WORDS = 1 << 17
_ONE = np.uint64(1)


def surviving_extremes(H: Hypergraph, alive: np.ndarray, size: int, codeg: bool) -> np.ndarray:
    """A (3, size) array whose column j holds, for trial j of a block's
    ``alive`` words: the max surviving degree, the min positive surviving
    degree (0 when no edge survives) and, when ``codeg``, the max surviving
    co-degree (else 0).

    No trial is visited on its own.  A sparse block, with at most
    ``_DENSE * m`` set bits, lists every (edge, trial) set bit of its nonzero
    words at once (:func:`_set_bits`) and tallies them into a (trial, vertex)
    degree table (:func:`_listed_extremes`); its co-degree maxima are the
    longest runs of equal sorted (trial, pair) keys.  A denser block adds its
    words per vertex in bit-sliced counters and reads each trial's extremes
    off the counter planes (:func:`_plane_extremes`), at a cost that does not
    grow with q.  What a path reads of H (the pair index, the bucket tables)
    is built once, by the first block to take that path, on any thread.

    On a linear H (every co-degree at most 1, as for triangles of K_N) the
    co-degree maximum of a trial is H's own when some edge survives and 0
    otherwise, so no pair is counted and no pair index is built.
    """
    top = stats_of(H).max_codegree
    pairs = codeg and top > 1
    if int(np.bitwise_count(alive).sum()) > _DENSE * H.m:
        out = _plane_extremes(H, alive, size, pairs)
    else:
        out = _listed_extremes(H, alive, size, pairs)
    if codeg and not pairs:
        out[2] = np.where(out[0] > 0, top, 0)
    return out


def _set_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, bit) of every set bit of the uint64 ``words``, by peeling each
    word's lowest set bit until no word is left nonzero."""
    index = np.arange(len(words))
    indices, bits = [index[:0]], [np.zeros(0, dtype=np.uint8)]
    while words.size:
        below = words - _ONE
        lowest = np.bitwise_count(words ^ below)  # the lowest set bit's position + 1
        lowest -= np.uint8(1)
        bits.append(lowest)
        indices.append(index)
        words = words & below
        keep = np.flatnonzero(words)
        words, index = words[keep], index[keep]
    return np.concatenate(indices), np.concatenate(bits)


def _listed_extremes(H: Hypergraph, alive: np.ndarray, size: int, pairs: bool) -> np.ndarray:
    """:func:`surviving_extremes` from the list of the block's set bits.

    Degrees go into a (trials, n) table, one ``bincount`` of (trial, vertex)
    keys per ``_TALLY`` keys of the list, for as many trials at a time as keep the
    table within ``_TALLY`` entries.  The min positive degree of a row is
    read with 0 wrapped to the top of uint64.
    """
    n, out = H.n, np.zeros((3, size), dtype=np.int64)
    live = np.flatnonzero(alive != 0)  # faster than on the words themselves
    word, trial = _set_bits(alive[live])
    edge = live[word]
    group = max(1, min(size, _TALLY // n))
    cuts = [0, len(edge)]
    if group < size:  # list the bits trial by trial: a radix sort of 8-bit trials
        order = np.argsort(trial, kind="stable")
        edge, trial = edge[order], trial[order]
        cuts = np.searchsorted(trial, np.arange(0, size + group, group)).tolist()
    step = max(1, _TALLY // H.k)
    for lo, a, b in zip(range(0, size, group), cuts, cuts[1:]):
        span, deg = slice(lo, min(lo + group, size)), None
        for c in range(a, max(b, a + 1), step):  # once at least, for the table
            chunk = slice(c, min(c + step, b))
            keys = np.take(H.edges_arr, edge[chunk], axis=0)  # faster than [] here
            keys += (trial[chunk] * np.intp(n) - lo * n)[:, None]
            tally = np.bincount(keys.ravel(), minlength=(span.stop - lo) * n)
            deg = tally if deg is None else np.add(deg, tally, out=deg)
        deg = deg.reshape(-1, n)
        out[0, span] = deg.max(axis=1)
        deg = deg.view(np.uint64)
        deg -= _ONE
        out[1, span] = deg.min(axis=1) + _ONE
    if pairs:
        index = H.pair_index
        keys = index.edge_pair_ids[edge] + trial.astype(np.int64)[:, None] * index.count
        keys, runs = np.unique(keys, return_counts=True)
        np.maximum.at(out[2], keys // index.count, runs)
    return out


def _plane_extremes(H: Hypergraph, alive: np.ndarray, size: int, pairs: bool) -> np.ndarray:
    """:func:`surviving_extremes` from bit-sliced counters: bit j of
    ``planes[i, v]`` is bit i of vertex v's degree in trial j."""
    words = np.append(alive, np.uint64(0))  # the padding id m reads 0
    out = np.zeros((3, size), dtype=np.int64)
    planes = _counter_planes(H.incidence_buckets, words)
    out[0] = _trial_values(_top_bits(planes, ~np.uint64(0)), size)
    # the min positive degree is the max of the complemented counters among
    # the vertices with a positive degree
    positive = np.bitwise_or.reduce(planes, axis=0)
    low = _top_bits(~planes, positive)
    out[1] = _trial_values(~low & np.bitwise_or.reduce(positive), size)
    if pairs:
        planes = _counter_planes(H.pair_incidence_buckets, words)
        out[2] = _trial_values(_top_bits(planes, ~np.uint64(0)), size)
    return out


def _counter_planes(buckets: tuple[np.ndarray, ...], words: np.ndarray) -> np.ndarray:
    """The (bits, columns) counter planes of ``words`` summed down each
    column of each bucket table (see :func:`core._tables`), in column
    chunks of at most ``_PLANE_WORDS`` words."""
    depth = len(buckets[-1]).bit_length() if buckets else 0  # tables go by height
    planes = np.zeros((depth, sum(table.shape[1] for table in buckets)), dtype=np.uint64)
    c = 0
    for table in buckets:
        step = max(1, _PLANE_WORDS // len(table))
        for lo in range(0, table.shape[1], step):
            sums = _column_sums(words[table[:, lo : lo + step]])
            planes[: len(sums), c : c + len(sums[0])] = sums
            c += len(sums[0])
    return planes


def _column_sums(addends: np.ndarray) -> list[np.ndarray]:
    """The bit-sliced sums down the columns of a (2^e, w) uint64 array: e + 1
    planes of w words, least significant first, where bit j of plane i in
    column c is bit i of the number of rows whose column c has bit j set.

    An adder tree adds the first half of the rows to the second half, in
    place, bit plane by bit plane (a ripple-carry adder), until one row is
    left; the halves of a row-major array are contiguous.
    """
    level = [addends]
    while len(level[0]) > 1:
        half = len(level[0]) // 2
        a, b = [p[:half] for p in level], [p[half:] for p in level]
        carry = a[0] & b[0]
        a[0] ^= b[0]
        both = np.empty_like(carry)
        for x, y in zip(a[1:], b[1:]):
            np.bitwise_and(x, y, out=both)
            y ^= x
            np.bitwise_xor(y, carry, out=x)
            carry &= y
            carry |= both
        level = a + [carry]
    return [p[0] for p in level]


def _top_bits(planes: np.ndarray, candidates) -> np.ndarray:
    """Per plane i from the top, the OR over the columns still in the
    running for the largest counter of each trial: bit j of entry i is bit i
    of trial j's maximum over the columns whose ``candidates`` bit j is set."""
    candidates = np.broadcast_to(candidates, planes.shape[1:]).copy()
    bits = np.zeros(len(planes), dtype=np.uint64)
    for i in range(len(planes) - 1, -1, -1):
        bits[i] = np.bitwise_or.reduce(planes[i] & candidates)
        candidates &= planes[i] | ~bits[i]
    return bits


def _trial_values(bits: np.ndarray, size: int) -> np.ndarray:
    """The ``size`` integers whose bit i, for trial j, is bit j of ``bits[i]``."""
    trial = (bits[:, None] >> np.arange(size, dtype=np.uint64)) & _ONE
    return (trial << np.arange(len(bits), dtype=np.uint64)[:, None]).sum(axis=0).astype(np.int64)


def surviving_degrees(H: Hypergraph, alive: np.ndarray) -> np.ndarray:
    """Per-vertex degree counting only the edges flagged in ``alive``."""
    return np.bincount(H.edges_arr[alive].ravel(), minlength=H.n)


def surviving_pair_counts(H: Hypergraph, alive: np.ndarray) -> np.ndarray:
    """Co-degree of every co-occurring pair, restricted to surviving edges."""
    pairs = H.pair_index
    return np.bincount(pairs.edge_pair_ids[alive].ravel(), minlength=pairs.count)


def codeg_holds(max_codeg, min_pos_deg, n: int) -> np.ndarray:
    """Condition (4) on one trial's surviving edges, or elementwise on arrays
    of trials: the max co-degree is at most (min positive degree) / ln^3 n.
    True where no pair survives; ln n (0 at n = 1) is read only if one does."""
    max_codeg = np.asarray(max_codeg)
    if not max_codeg.any():
        return max_codeg == 0
    return (max_codeg == 0) | (max_codeg <= min_pos_deg * math.log(n) ** -3)


def degree_cap(q: float, H: Hypergraph, gamma_cap: float) -> float:
    """Condition (3)'s cap on surviving degrees at retention q: max{2 q^(k-1) Delta, Gamma}."""
    return max(2.0 * q ** (H.k - 1) * stats_of(H).max_degree, gamma_cap)


def codegree_sums(H: Hypergraph, alive: np.ndarray) -> np.ndarray:
    """For each vertex v, sum of surviving co-degrees over all partners u.

    Computed from the pair index, deliberately not via degrees, so it can be
    cross-checked against (k-1) * deg as a bookkeeping identity.
    """
    pairs = H.pair_index
    counts = surviving_pair_counts(H, alive)
    out = np.zeros(H.n, dtype=np.int64)
    if pairs.count:
        np.add.at(out, pairs.u, counts)
        np.add.at(out, pairs.v, counts)
    return out


def build_schedule(
    p: float,
    n: int,
    eps_range: tuple[float, float] | None = None,
    strict_mode: bool = False,
    force_rounds: int | None = None,
) -> ExposureSchedule:
    """Construct (epsilon, I) with epsilon^I = p.

    The round count maximises I subject to epsilon <= eps_max, i.e.
    I = max(1, floor(ln p / ln eps_max)); ratios within 1e-9 of an integer
    are snapped so that exact powers are recognised.  ``force_rounds``
    overrides I.  The range defaults to [1e-6, 1e-3]; strict mode pins it
    there, so it takes no ``eps_range``, and enforces I <= ln n.
    """
    if strict_mode and eps_range is not None:
        raise ValueError(f"strict mode pins the retention range to {STRICT_EPS_RANGE}; give none")
    if eps_range is None:
        eps_range = STRICT_EPS_RANGE
    eps_min, eps_max = eps_range
    if not 0.0 < eps_min <= eps_max < 1.0:
        raise ValueError(f"invalid retention range {eps_range}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"target probability must lie in (0, 1), got {p}")
    if n < 2:
        raise InfeasibleError(f"the exposure chain divides by ln n, not positive at n = {n}")
    if p > eps_max * (1.0 + _REL_TOL):
        raise InfeasibleError(f"p={p} exceeds the maximum per-round retention {eps_max}")
    if force_rounds is not None:
        rounds = int(force_rounds)
        if rounds < 1:
            raise ValueError("force_rounds must be >= 1")
    else:
        ratio = math.log(p) / math.log(eps_max)
        nearest = round(ratio)
        rounds = int(nearest) if abs(ratio - nearest) <= 1e-9 else math.floor(ratio)
        rounds = max(1, rounds)
    epsilon = p ** (1.0 / rounds)
    if epsilon < eps_min * (1.0 - _REL_TOL) or epsilon > eps_max * (1.0 + _REL_TOL):
        raise InfeasibleError(
            f"per-round retention {epsilon} falls outside [{eps_min}, {eps_max}] for p={p}, I={rounds}"
        )
    if strict_mode and rounds > math.log(n):
        raise InfeasibleError(f"round count {rounds} exceeds ln n = {math.log(n):.3f} in strict mode")
    return ExposureSchedule(
        p=p, epsilon=epsilon, rounds=rounds, eps_range=eps_range, strict_mode=strict_mode
    )


def codeg_trigger(p: float, q: float, H: Hypergraph) -> bool:
    """Whether the co-degree condition is switched on at retention level q:
    p^(1/2) * q^(k-3/2) * max_degree^2 * n * ln n >= m."""
    lhs = math.sqrt(p) * q ** (H.k - 1.5) * stats_of(H).max_degree ** 2 * H.n * math.log(H.n)
    return lhs >= H.m


def run_exposure(
    H: Hypergraph,
    schedule: ExposureSchedule,
    stream: TrialStream,
) -> list[RoundState]:
    """Run the full exposure chain, returning states for rounds 0..I.

    Round 0 is the deterministic full vertex set.  Round i filters round
    i-1's survivors using row i-1 of the stream's uniform matrix, so any
    round's outcome for any vertex can be replayed in isolation.
    """
    uniforms = stream.uniform_matrix(schedule.rounds, H.n)
    kept = np.ones(H.n, dtype=bool)
    states = []
    for i in range(schedule.rounds + 1):
        if i:
            kept = kept & (uniforms[i - 1] < schedule.epsilon)
        states.append(RoundState(H, schedule, i, kept))
    return states


def check_preconditions(state: RoundState, lam: float, gamma_cap: float) -> PreconditionReport:
    """Evaluate the four inductive conditions at this round, exactly as stated.

    (1) the edge count sits in its shrinking window; (2) the degree-square sum
    is bounded; (3) every surviving degree respects max{2 eps^((k-1)i) Delta,
    Gamma}; (4) when the co-degree trigger fires, every surviving co-degree is
    at most (min positive surviving degree) / ln^3 n.
    """
    H, schedule, i = state.H, state.schedule, state.index
    eps, p, k = schedule.epsilon, schedule.p, H.k
    n, m = H.n, H.m
    stats = stats_of(H)
    delta_max = stats.max_degree
    if p**k * m == 0:  # no edges, or p^k underflows
        raise InfeasibleError(f"the round conditions divide by p^k m, which is 0 at m={m}, p={p}")
    log_n = math.log(n)

    center = eps ** (k * i) * m
    radius = i * (p**k * m) ** -0.5 * center + lam * math.sqrt(eps ** ((k + 1) * i) * m / p)
    window = (center - radius, center + radius)
    holds_window = window[0] <= state.edge_count <= window[1]

    deg_sq_bound = eps ** ((2 * k - 1) * i) * delta_max**2 * n * (1 + 3 * i * log_n**-2) + (
        6 * k * eps ** ((k + 0.5) * i) * m / math.sqrt(p)
    )
    holds_deg_sq = state.deg_sq_sum <= deg_sq_bound

    # not degree_cap(eps**i, ...): (eps**i) ** (k - 1) can differ in the last bit
    deg_cap = max(2 * eps ** ((k - 1) * i) * delta_max, gamma_cap)
    holds_cap = int(state.deg.max()) <= deg_cap

    holds_codeg = True
    if state.codeg_trigger and state.edge_count:  # so some degree is positive
        deg = state.deg
        # on a linear H (every co-degree at most 1) the surviving maximum is
        # H's own once an edge survives: 1, or 0 for k = 1, which has no pairs
        top = stats.max_codegree
        max_codeg = top if top <= 1 else int(surviving_pair_counts(H, state.alive).max())
        holds_codeg = bool(codeg_holds(max_codeg, int(deg[deg > 0].min()), n))

    t1 = (p**k * m) ** -0.5 * eps ** (k * (i + 1)) * m + (1 - eps) * lam * math.sqrt(
        eps ** ((k + 1) * (i + 1)) * m / p
    )
    t2 = eps ** ((2 * k - 1) * (i + 1)) * delta_max**2 * n * log_n**-2 + (
        k * eps ** ((k + 0.5) * (i + 1)) * m / math.sqrt(p)
    )

    return PreconditionReport(
        index=i,
        holds=(holds_window, holds_deg_sq, holds_cap, holds_codeg),
        window=window,
        deg_sq_bound=deg_sq_bound,
        deg_cap=deg_cap,
        t1=t1,
        t2=t2,
    )


def lipschitz_bound(H: Hypergraph, state: RoundState, v: int) -> int:
    """Worst-case change of the next round's degree-square sum when vertex v's
    retention outcome is flipped: deg(v)^2 + 4 * sum_u codeg(u, v) * deg(u)."""
    if not 0 <= v < H.n:
        raise ValueError(f"vertex {v} is not in [0, {H.n})")
    if not state.kept[v]:
        raise ValueError(f"vertex {v} is not a survivor of round {state.index}")
    at = H.edges_at(v)
    rows = H.edges_arr[at[state.alive[at]]]
    partners, codeg = np.unique(rows[rows != v], return_counts=True)
    return int(state.deg[v]) ** 2 + 4 * int((codeg * state.deg[partners]).sum())
