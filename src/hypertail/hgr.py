"""Bit-exact text interchange format for hypergraphs.

Line 1 is ``k n m``; then m lines of k vertex ids.  Numbers are ASCII
decimals below 2^63 - 1 without leading zeros, separated by single spaces.
Every edge is sorted ascending, the edge list is sorted lexicographically,
lines end with LF, and there is no trailing whitespace.  Readers reject any
deviation.
"""

from __future__ import annotations

import numpy as np

from .core import Hypergraph


class HgrFormatError(ValueError):
    """The file is not in canonical form."""


def dumps(H: Hypergraph) -> str:
    line = " ".join(["%d"] * H.k) + "\n"
    return f"{H.k} {H.n} {H.m}\n" + (line * H.m) % tuple(H.edges_arr.ravel().tolist())


def write_hgr(H: Hypergraph, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps(H))


def _decode(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The numbers whose digits are ``buf[starts:ends]``, as int64.

    Digit j from the right of each number is ``buf[ends - 1 - j]``.  The
    digits add up in uint32 while no number has more than 9 of them, else in
    uint64, which holds every 19-digit number; a wider number, or one of
    2^63 - 1 or more, raises HgrFormatError.
    """
    widths = ends - starts
    width = int(widths.max(initial=0))
    if width > 19:
        raise HgrFormatError("vertex ids must be below 2^63 - 1")
    acc = np.uint32 if width <= 9 else np.uint64
    widths = widths.astype(np.uint8)
    pos = ends - 1
    values = (buf[pos] - np.uint8(ord("0"))).astype(acc)
    for j in range(1, width):
        pos -= 1
        digit = buf[pos] - np.uint8(ord("0"))
        digit *= widths > j  # 0 where the number has no digit j
        values += digit.astype(acc) * acc(10**j)
    if values.max(initial=0) >= 2**63 - 1:
        raise HgrFormatError("vertex ids must be below 2^63 - 1")
    return values.astype(np.int64)


def loads(text: str) -> Hypergraph:
    if not text.endswith("\n"):
        raise HgrFormatError("file must end with a newline")
    if "\r" in text:
        raise HgrFormatError("file must use LF line endings")
    raw = text.encode()
    buf = np.frombuffer(raw, dtype=np.uint8)
    is_sep = (buf == ord(" ")) | (buf == ord("\n"))
    ends = np.flatnonzero(is_sep)  # the separator after each number
    starts = np.concatenate(([0], ends[:-1] + 1))
    digit = (buf >= ord("0")) & (buf <= ord("9"))
    padded = starts[(ends == starts) | (buf[starts] == ord("0")) & (ends - starts > 1)]
    stray = np.concatenate((np.flatnonzero(~(digit | is_sep)), padded))
    if stray.size:
        line = raw.count(b"\n", 0, stray.min()) + 1
        raise HgrFormatError(f"line {line}: not single-spaced ASCII decimals without leading zeros")
    line_ends = np.flatnonzero(buf[ends] == ord("\n"))  # the last number of each line
    if line_ends[0] != 2:
        raise HgrFormatError("header must be 'k n m'")
    k, n, m = map(int, text[: ends[2]].split(" "))
    if max(k, n, m) >= np.iinfo(np.int64).max:
        raise HgrFormatError("header numbers must be below 2^63 - 1")
    if len(line_ends) - 1 != m:
        raise HgrFormatError(f"expected {m} edge lines, found {len(line_ends) - 1}")
    wrong = np.flatnonzero(np.diff(line_ends) != k)
    if wrong.size:
        raise HgrFormatError(f"line {wrong[0] + 2}: expected {k} vertex ids")
    rows = _decode(buf, starts[3:], ends[3:]).reshape(m, k)
    H = Hypergraph(n=n, k=k, edges=rows)
    if not np.array_equal(rows, H.edges_arr):
        raise HgrFormatError("edges must be sorted ascending and listed in lexicographic order")
    return H


def read_hgr(path) -> Hypergraph:
    with open(path, "r", newline="") as fh:
        return loads(fh.read())
