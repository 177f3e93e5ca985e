"""Bit-exact text interchange format for hypergraphs.

Line 1 is ``k n m``; then m lines of k vertex ids.  Numbers are ASCII
decimals below 2^63 - 1 without leading zeros, separated by single spaces.
Every edge is sorted ascending, the edge list is sorted lexicographically,
lines end with LF, and there is no trailing whitespace.  Readers reject any
deviation.

Both directions work on bytes, a chunk at a time, so that every temporary of
a chunk stays in a core's L2 cache.  The reader takes the file in whole-line
chunks of about ``_CHUNK`` bytes: it checks and decodes each chunk into its
rows of one preallocated (m, k) array, and hands that array over to the
``Hypergraph`` constructor.  Rows in canonical order the constructor keeps
as they are, as ``edges_arr``, so the edges are never copied.  Any other rows
it sorts in a copy (or rejects, as it would a caller's), and the reader,
given back another array than its own, rejects the file; so the rows are not
compared again either.  The writer takes the edge array in blocks of rows
whose lines fill at most ``_CHUNK`` bytes, formats each block into one uint8
buffer and writes it out, so no vertex id becomes a Python int; ``dumps``
joins the same blocks.
"""

from __future__ import annotations

import numpy as np

from .core import Hypergraph

# Bytes per parse chunk and per written block.  Reading the 2.3 MB K3 N=100
# file, chunks of 64-512 KiB were fastest and 128 KiB by a hair; 16-32 KiB
# chunks pay more per chunk, and 1 MiB or more spill their temporaries out of
# a core's 2 MB L2 (2-vCPU Xeon, numpy 2.4.6).  Writing it, blocks of
# 64-512 KiB were as fast as each other, 16 KiB and 1 MiB 15-30% slower.
_CHUNK = 1 << 17


class HgrFormatError(ValueError):
    """The file is not in canonical form."""


# An id and the separator after it take as many bytes as there are entries
# here that the id reaches: 0 twice, then 10, 100, ..., 10^18.
_STEPS = np.array([0, 0] + [10**w for w in range(1, 19)], dtype=np.int64)


def _edge_lines(rows: np.ndarray, top: int) -> np.ndarray:
    """The HGR lines of ``rows``, a nonempty (r, k) block of edges whose ids
    have at most ``top`` digits, as uint8."""
    ids = rows.ravel()
    ends = _STEPS.searchsorted(ids, "right").cumsum()  # one past each id's separator
    buf = np.empty(top + 1 + int(ends[-1]), dtype=np.uint8)  # top + 1 spare bytes, then the lines
    rest = ids.astype(np.uint32) if top <= 9 else ids  # uint32 divides faster
    # Digit j (of 10^j) of every id goes to line byte ends - 2 - j, most
    # significant first.  An id of j digits or fewer writes a "0" before its
    # first digit instead: into a spare byte, a separator (written last), or a
    # digit of an earlier id, whose own write comes at a lower j, so later.
    for j in range(top - 1, -1, -1):
        digit, rest = np.divmod(rest, 10**j)
        digit += ord("0")
        buf[top - 1 - j :][ends] = digit
    k = rows.shape[1]
    buf[top:][ends.reshape(-1, k)] = np.frombuffer(b" " * (k - 1) + b"\n", dtype=np.uint8)
    return buf[top + 1 :]


def _pieces(H: Hypergraph):
    """The bytes of H's HGR file: the header, then the lines of each block of
    rows, at most _CHUNK bytes unless it is one longer line."""
    yield f"{H.k} {H.n} {H.m}\n".encode()
    top = len(str(H.n - 1))  # digits of the largest possible id
    step = max(1, _CHUNK // (H.k * (top + 1)))  # lines of the longest kind per block
    for lo in range(0, H.m, step):
        yield _edge_lines(H.edges_arr[lo : lo + step], top)


def dumps(H: Hypergraph) -> str:
    return b"".join(_pieces(H)).decode()


def write_hgr(H: Hypergraph, path) -> None:
    with open(path, "wb") as fh:
        for piece in _pieces(H):
            fh.write(piece)


def _decode(buf: np.ndarray, ends: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The numbers of ``widths`` digits ending before ``buf[ends]``, as
    uint32 or uint64.

    Digit j from the right of each number is ``buf[ends - 1 - j]``.  The
    digits add up in uint32 while no number has more than 9 of them, else in
    uint64, which holds every 19-digit number; a wider number, or one of
    2^63 - 1 or more, raises HgrFormatError.
    """
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
    return values


def _numbers(raw: bytes, lo: int, hi: int, line: int):
    """The whole lines ``raw[lo:hi]`` as a uint8 array, the separator after
    each number in it, the numbers' widths, and which separators are LF.

    Raises HgrFormatError, numbering lines from ``line``, at the first line
    with a byte that is not a digit, space or LF, an empty number, or a
    leading zero.
    """
    buf = np.frombuffer(raw, dtype=np.uint8, count=hi - lo, offset=lo)
    ends = np.flatnonzero(buf < ord("0"))  # digits are the bytes "0" to "9"
    starts = np.concatenate(([0], ends[:-1] + 1))
    widths = ends - starts
    sep = buf[ends]
    nl = sep == ord("\n")
    stray = np.concatenate((
        ends[~nl & (sep != ord(" "))],
        np.flatnonzero(buf > ord("9")),
        starts[(widths == 0) | (buf[starts] == ord("0")) & (widths > 1)],
    ))
    if stray.size:
        line += raw.count(b"\n", lo, lo + int(stray.min()))
        raise HgrFormatError(f"line {line}: not single-spaced ASCII decimals without leading zeros")
    return buf, ends, widths, nl


def _chunks(raw: bytes, lo: int):
    """(lo, hi) of consecutive whole-line pieces of ``raw[lo:]``, each of at
    most _CHUNK bytes unless it is one longer line."""
    while lo < len(raw):
        hi = raw.rfind(b"\n", lo, lo + _CHUNK) + 1 or raw.index(b"\n", lo) + 1
        yield lo, hi
        lo = hi


def loads(text: str | bytes) -> Hypergraph:
    """The hypergraph of an HGR file's text or bytes; HgrFormatError (a
    ValueError) if they are not in canonical form."""
    raw = text.encode() if isinstance(text, str) else text
    if not raw.endswith(b"\n"):
        raise HgrFormatError("file must end with a newline")
    if b"\r" in raw:
        raise HgrFormatError("file must use LF line endings")
    head = raw.index(b"\n") + 1
    if len(_numbers(raw, 0, head, 1)[1]) != 3:
        raise HgrFormatError("header must be 'k n m'")
    k, n, m = map(int, raw[: head - 1].split(b" "))
    if max(k, n, m) >= np.iinfo(np.int64).max:
        raise HgrFormatError("header numbers must be below 2^63 - 1")
    # each id takes a digit and a separator, so when m*k ids would not fit
    # in the file, some line fails the id count before the array fills
    ids = np.empty(min(m * k, len(raw) // 2), dtype=np.int64)
    done = 0  # edge lines before the next chunk; edge line i is line i + 2
    for lo, hi in _chunks(raw, head):
        buf, ends, widths, nl = _numbers(raw, lo, hi, done + 2)
        lines = np.count_nonzero(nl)
        if done + lines <= m:  # else the edge-line count is wrong
            # k ids per line: the LFs end exactly the numbers k, 2k, ...
            if not (len(nl) == lines * k and nl[k - 1 :: k].all()):
                wrong = np.flatnonzero(np.diff(np.flatnonzero(nl), prepend=-1) != k)
                raise HgrFormatError(f"line {done + 2 + wrong[0]}: expected {k} vertex ids")
            ids[done * k : done * k + len(ends)] = _decode(buf, ends, widths)
        done += lines
    if done != m:
        raise HgrFormatError(f"expected {m} edge lines, found {done}")
    rows = ids.reshape(m, k)
    H = Hypergraph(n=n, k=k, edges=rows, _owned=True)
    if H.edges_arr is not rows:  # not canonical: the constructor sorted a copy
        raise HgrFormatError("edges must be sorted ascending and listed in lexicographic order")
    return H


def read_hgr(path) -> Hypergraph:
    with open(path, "rb") as fh:
        return loads(fh.read())
