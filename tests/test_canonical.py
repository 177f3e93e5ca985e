"""The array canonicaliser and HGR reader against small-n pure-Python references.

``reference_canonical`` and ``reference_loads`` check one edge and one line at
a time, the way the library did before it canonicalised with array
operations; they are kept here as brute-force oracles.
"""

import re
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertail import Hypergraph, complete, hgr, subgraph_hypergraph
from hypertail.hgr import dumps, loads


def reference_canonical(n, k, edges):
    """(edges, incidence) of the canonical form of an edge list, or ValueError."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    canonical = []
    for raw in edges:
        edge = tuple(sorted(raw))
        if len(edge) != k or len(set(edge)) != k:
            raise ValueError(f"edge {tuple(raw)} does not have {k} distinct vertices")
        if edge[0] < 0 or edge[-1] >= n:
            raise ValueError(f"edge {edge} has a vertex id outside [0, {n})")
        canonical.append(edge)
    canonical.sort()
    for prev, cur in zip(canonical, canonical[1:]):
        if prev == cur:
            raise ValueError(f"duplicate edge {cur}")
    incidence = [[] for _ in range(n)]
    for idx, edge in enumerate(canonical):
        for v in edge:
            incidence[v].append(idx)
    return tuple(canonical), tuple(tuple(lst) for lst in incidence)


def _ints(line):
    parts = line.split(" ")
    for part in parts:
        if not (part.isascii() and part.isdigit()) or (part[0] == "0" and len(part) > 1):
            raise ValueError(f"{part!r} is not an ASCII decimal without leading zeros")
    return [int(p) for p in parts]


def reference_loads(text):
    """(k, n, edges, incidence) of a canonical HGR text, or ValueError."""
    if not text.endswith("\n") or "\r" in text:
        raise ValueError("lines must end with LF")
    lines = text.split("\n")[:-1]
    header = _ints(lines[0])
    if len(header) != 3:
        raise ValueError("header must be 'k n m'")
    k, n, m = header
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines")
    edges = []
    for line in lines[1:]:
        ids = _ints(line)
        if len(ids) != k:
            raise ValueError(f"expected {k} vertex ids")
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("edge must be strictly increasing")
        if ids[-1] >= 2**63 - 1:
            raise ValueError("vertex id too large")
        edges.append(tuple(ids))
    for prev, cur in zip(edges, edges[1:]):
        if prev >= cur:
            raise ValueError("edge list must be sorted lexicographically")
    return (k, n) + reference_canonical(n, k, edges)


def _edges_and_incidence(H):
    """H's edges and the ids of the edges at each vertex, as tuples like the references'."""
    edges = tuple(map(tuple, H.edges_arr.tolist()))
    return edges, tuple(tuple(H.edges_at(v).tolist()) for v in range(H.n))


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError:
        return None


_FAULTS = (
    lambda edge, n: edge[:-1],  # a vertex short
    lambda edge, n: edge + edge[:1],  # a vertex long, with a repeat
    lambda edge, n: edge[:-1] + edge[:1],  # a repeated vertex when k >= 2
    lambda edge, n: edge[:-1] + [n],  # an id above the range
    lambda edge, n: [-1] + edge[1:],  # a negative id
)
# Four of five edges stay valid, so that many lists hold a single fault.
_KEEP = (lambda edge, n: edge,) * 4 * len(_FAULTS)


@st.composite
def raw_edge_lists(draw):
    """Edge lists of valid edges in any vertex order, with repeats, and with
    now and then an edge of the wrong length, a repeated vertex or an id
    outside [0, n)."""
    n = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=min(4, n)))
    fine = st.permutations(range(n)).map(lambda perm: perm[:k])
    edge = st.builds(lambda e, change: change(e, n), fine, st.sampled_from(_FAULTS + _KEEP))
    return n, k, draw(st.lists(edge, max_size=8))


@given(raw_edge_lists())
@settings(max_examples=400, deadline=None)
def test_constructor_matches_reference(case):
    n, k, edges = case
    expected = _outcome(reference_canonical, n, k, edges)
    if expected is None:
        with pytest.raises(ValueError):
            Hypergraph(n=n, k=k, edges=edges)
    else:
        H = Hypergraph(n=n, k=k, edges=edges)
        assert _edges_and_incidence(H) == expected


@st.composite
def mutated_hgr(draw):
    """The HGR text of a small hypergraph after a few random token swaps,
    line swaps, space insertions and zero insertions."""
    n = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=min(4, n)))
    universe = list(combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(universe), unique=True, max_size=6))
    text = dumps(Hypergraph(n=n, k=k, edges=edges))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["tokens", "lines", "space", "zero"]))
        if kind == "tokens":
            parts = re.split(r"([ \n])", text)
            i, j = (draw(st.sampled_from(range(0, len(parts) - 1, 2))) for _ in range(2))
            parts[i], parts[j] = parts[j], parts[i]
            text = "".join(parts)
        elif kind == "lines":
            lines = text.split("\n")[:-1]
            i, j = (draw(st.integers(min_value=0, max_value=len(lines) - 1)) for _ in range(2))
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines) + "\n"
        else:
            at = draw(st.integers(min_value=0, max_value=len(text)))
            text = text[:at] + (" " if kind == "space" else "0") + text[at:]
    return text


@given(mutated_hgr())
@settings(max_examples=400, deadline=None)
def test_reader_matches_reference(text):
    expected = _outcome(reference_loads, text)
    H = _outcome(loads, text)
    assert (H is None) == (expected is None)
    if H is not None:
        assert (H.k, H.n, *_edges_and_incidence(H)) == expected


@given(mutated_hgr(), st.integers(min_value=1, max_value=16))
@settings(max_examples=400, deadline=None)
def test_reader_matches_reference_across_chunks(text, chunk):
    # chunks of a few bytes: most files span many, and many lines are longer
    # than one chunk
    expected = _outcome(reference_loads, text)
    with mock.patch.object(hgr, "_CHUNK", chunk):
        H = _outcome(loads, text)
    assert (H is None) == (expected is None)
    if H is not None:
        assert (H.k, H.n, *_edges_and_incidence(H)) == expected


def test_reader_round_trips_k3_n30_in_small_chunks(monkeypatch):
    # lines of 6 to 12 bytes: an 8-byte chunk holds one line, or is one longer line
    monkeypatch.setattr(hgr, "_CHUNK", 8)
    H = subgraph_hypergraph(complete(3), 30)
    text = dumps(H)
    assert loads(text) == H and loads(text.encode()) == H


def _edges_or_message(n, k, rows):
    try:
        H = Hypergraph(n=n, k=k, edges=rows)
    except ValueError as exc:
        return str(exc)
    return _edges_and_incidence(H)


@given(raw_edge_lists(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_increasing_rows_match_the_sorting_path(case, lex_order):
    # rows already strictly increasing skip the sorts; the same rows reversed
    # (k >= 2) are sorted first, and both give the same edges or message
    n, k, edges = case
    rows = [sorted(edge) for edge in edges if len(edge) == k]
    if lex_order:
        rows.sort()
    assert _edges_or_message(n, k, rows) == _edges_or_message(n, k, [row[::-1] for row in rows])
