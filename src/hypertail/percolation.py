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

from .core import Hypergraph, InfeasibleError, degree_profile
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


def surviving_extremes(H: Hypergraph, alive: np.ndarray, size: int, codeg: bool) -> np.ndarray:
    """A (3, size) array whose column j holds, for trial j of a block's
    ``alive`` words: the max surviving degree, the min positive surviving
    degree (0 when no edge survives) and, when ``codeg``, the max surviving
    co-degree (else 0).

    Only the nonzero words are read: their edges are gathered once, and their
    bytes transposed so that each 8-trial byte is contiguous.  Trials then go
    8 at a time, one byte of each nonzero word.  While those 8 trials keep at
    most m/2 (trial, edge) pairs, degrees are one ``bincount`` of (trial,
    vertex) keys and co-degree maxima the longest runs of equal sorted
    (trial, pair) keys, so no table of all pairs per trial is built.  Denser
    trials go one at a time, a ``bincount`` over the nonzero words' edges
    that the trial keeps, which is faster there (measured on K3 at N = 30 and
    100) and keeps the arrays to one trial's size.

    On a linear H (every co-degree at most 1, as for triangles of K_N) the
    co-degree maximum of a trial is H's own when some edge survives and 0
    otherwise, so no pair is counted and no pair index is built.
    """
    n, top = H.n, degree_profile(H).max_codegree
    pairs = H.pair_index if codeg and top > 1 else None
    live = np.flatnonzero(alive)
    edges = H.edges_arr[live]
    pair_ids = pairs.edge_pair_ids[live] if pairs is not None else None
    # octets[b, w]: byte b of the w-th nonzero word, i.e. its trials 8b..8b+7
    octets = alive[live].astype("<u8", copy=False).view(np.uint8).reshape(-1, 8).T.copy()
    out = np.zeros((3, size), dtype=np.int64)
    for lo in range(0, size, 8):
        byte, span = octets[lo // 8], slice(lo, min(lo + 8, size))
        count = span.stop - lo
        if 2 * int(np.bitwise_count(byte).sum()) <= H.m:
            word = np.flatnonzero(byte)
            row, trial = np.nonzero(np.unpackbits(byte[word][:, None], axis=1, bitorder="little"))
            word = word[row]
            keys = trial[:, None] * n + edges[word]
            deg = np.bincount(keys.ravel(), minlength=8 * n).reshape(8, n)[:count]
            if pairs is not None:
                keys = np.sort(trial[:, None] * pairs.count + pair_ids[word], axis=None)
                starts = np.flatnonzero(np.diff(keys, prepend=-1))
                runs = np.diff(starts, append=keys.size)
                np.maximum.at(out[2, span], keys[starts] // pairs.count, runs)
        else:
            masks = [(byte & (1 << i)) != 0 for i in range(count)]
            deg = np.stack([np.bincount(edges[mask].ravel(), minlength=n) for mask in masks])
            if pairs is not None:
                out[2, span] = [
                    np.bincount(pair_ids[mask].ravel(), minlength=pairs.count).max()
                    for mask in masks
                ]
        out[0, span] = deg.max(axis=1)
        low = deg.min(axis=1, initial=H.m + 1, where=deg > 0)  # H.m + 1: no edge survives
        out[1, span] = np.where(low > H.m, 0, low)
    if codeg and pairs is None:
        out[2] = np.where(out[0] > 0, top, 0)
    return out


def surviving_degrees(H: Hypergraph, alive: np.ndarray) -> np.ndarray:
    """Per-vertex degree counting only the edges flagged in ``alive``."""
    return np.bincount(H.edges_arr[alive].ravel(), minlength=H.n)


def surviving_pair_counts(H: Hypergraph, alive: np.ndarray) -> np.ndarray:
    """Co-degree of every co-occurring pair, restricted to surviving edges."""
    pairs = H.pair_index
    return np.bincount(pairs.edge_pair_ids[alive].ravel(), minlength=pairs.count)


def codeg_holds(max_codeg: int, min_pos_deg: int, n: int) -> bool:
    """Condition (4) on one trial's surviving edges: the max co-degree is at
    most (min positive degree) / ln^3 n.  True when no pair survives."""
    return not max_codeg or max_codeg <= min_pos_deg * math.log(n) ** -3


def degree_cap(q: float, H: Hypergraph, gamma_cap: float) -> float:
    """Condition (3)'s cap on surviving degrees at retention q: max{2 q^(k-1) Delta, Gamma}."""
    return max(2.0 * q ** (H.k - 1) * degree_profile(H).max_degree, gamma_cap)


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
    lhs = math.sqrt(p) * q ** (H.k - 1.5) * degree_profile(H).max_degree ** 2 * H.n * math.log(H.n)
    return lhs >= H.m


def run_exposure(
    H: Hypergraph,
    schedule: ExposureSchedule,
    stream: TrialStream,
    profile=None,
) -> list[RoundState]:
    """Run the full exposure chain, returning states for rounds 0..I.

    Round 0 is the deterministic full vertex set.  Round i filters round
    i-1's survivors using row i-1 of the stream's uniform matrix, so any
    round's outcome for any vertex can be replayed in isolation.  ``profile``
    is accepted for callers that still pass one, and ignored: H holds its
    own degree profile.
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
    profile = degree_profile(H)
    delta_max = profile.max_degree
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
        top = profile.max_codegree
        max_codeg = top if top <= 1 else int(surviving_pair_counts(H, state.alive).max())
        holds_codeg = codeg_holds(max_codeg, int(deg[deg > 0].min()), n)

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
    codeg: dict[int, int] = {}
    for e in H.incidence[v]:
        if state.alive[e]:
            for u in H.edges[e]:
                if u != v:
                    codeg[u] = codeg.get(u, 0) + 1
    deg_v = int(state.deg[v])
    return deg_v**2 + 4 * sum(c * int(state.deg[u]) for u, c in codeg.items())
