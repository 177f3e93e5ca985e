import gc
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypertail
from hypertail import Hypergraph, cli, complete, disjoint_edges, extensions, hgr, subgraph_hypergraph
from hypertail.cli import dispatch
from hypertail.hgr import HgrFormatError, dumps, loads, read_hgr, write_hgr


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# --- HGR format ------------------------------------------------------------


def test_hgr_round_trip(tmp_path):
    H = subgraph_hypergraph(complete(3), 6)
    path = tmp_path / "h.hgr"
    write_hgr(H, path)
    assert read_hgr(path) == H


def test_hgr_golden_bytes():
    # colex pair ids: (0,1)=0 (0,2)=1 (1,2)=2 (0,3)=3 (1,3)=4 (2,3)=5
    H = subgraph_hypergraph(complete(3), 4)
    text = dumps(H)
    assert text == (
        "3 6 4\n"
        "0 1 2\n"
        "0 3 4\n"
        "1 3 5\n"
        "2 4 5\n"
    )


def test_hgr_rejects_trailing_whitespace():
    with pytest.raises(HgrFormatError):
        loads("2 3 1\n0 1 \n")


def test_hgr_rejects_crlf():
    with pytest.raises(HgrFormatError):
        loads("2 3 1\r\n0 1\r\n")


def test_hgr_rejects_unsorted_edge():
    with pytest.raises(HgrFormatError):
        loads("2 3 1\n1 0\n")


def test_hgr_rejects_unsorted_edge_list():
    with pytest.raises(HgrFormatError):
        loads("2 4 2\n2 3\n0 1\n")


def test_hgr_rejects_wrong_edge_count():
    with pytest.raises(HgrFormatError):
        loads("2 3 2\n0 1\n")


def test_hgr_rejects_bad_header():
    with pytest.raises(HgrFormatError):
        loads("2 3\n")
    with pytest.raises(HgrFormatError):
        loads("a 3 0\n")


def test_hgr_rejects_missing_final_newline():
    with pytest.raises(HgrFormatError):
        loads("2 3 1\n0 1")


@pytest.mark.parametrize(
    "text",
    [
        "2 3 1\n0 01\n",
        "02 3 1\n0 1\n",
        "2 3 1\n0 １\n",
        "2 3 1\n0 99999999999999999999\n",
        "1 9223372036854775806 1\n9223372036854775807\n",
        "1 9223372036854775806 1\n9999999999999999999\n",
        "1 100000000000000000000 1\n9223372036854775806\n",
    ],
    ids=[
        "leading-zero", "header-leading-zero", "fullwidth-digit", "id-above-int64",
        "id-int64-max", "id-19-nines", "n-above-int64",
    ],
)
def test_hgr_rejects_noncanonical_numbers(tmp_path, text):
    with pytest.raises(HgrFormatError):
        loads(text)
    path = tmp_path / "h.hgr"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(["stats", "--in", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# 1 to 19 digits, neighbours of every width on one line, up to 2^63 - 3
_WIDE_IDS = sorted({10**w for w in range(19)} | {10**w - 1 for w in range(1, 19)} | {2**63 - 3})


def test_hgr_round_trips_ids_of_every_width():
    H = Hypergraph(n=2**63 - 2, k=2, edges=list(zip(_WIDE_IDS, _WIDE_IDS[1:])))
    text = dumps(H)
    assert loads(text) == H and dumps(loads(text)) == text
    single = loads("1 9223372036854775806 1\n9223372036854775805\n")
    assert single.edges_arr.tolist() == [[2**63 - 3]]


def test_hgr_disjoint_round_trip(tmp_path):
    H = disjoint_edges(4, 2)
    path = tmp_path / "d.hgr"
    write_hgr(H, path)
    assert read_hgr(path) == H


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_hgr_round_trips_random_hypergraphs(seed):
    from hypertail import random_uniform

    H = random_uniform(9, 8, 3, seed=seed)
    assert loads(dumps(H)) == H


def _percent_hgr(H):
    """H's HGR text by one `%` format over every id as a Python int: the
    reference for the chunked writer."""
    line = " ".join(["%d"] * H.k) + "\n"
    return f"{H.k} {H.n} {H.m}\n" + (line * H.m) % tuple(H.edges_arr.ravel().tolist())


@pytest.mark.parametrize(
    "H",
    [
        Hypergraph(n=5, k=1, edges=[(0,), (3,), (4,)]),
        Hypergraph(n=4, k=3, edges=[]),
        Hypergraph(n=1, k=1, edges=[]),
        Hypergraph(n=2**63 - 2, k=2, edges=list(zip(_WIDE_IDS, _WIDE_IDS[1:]))),
        Hypergraph(n=2**63 - 2, k=3, edges=[(0, 9, 2**63 - 3), (1, 10**18 - 1, 10**18)]),
        Hypergraph(n=2**63 - 2, k=2, edges=[(0, 1), (2, 3)]),
        Hypergraph(n=10**10, k=2, edges=[(0, 2**32 - 1), (1, 2**32), (2, 10**10 - 1)]),
        subgraph_hypergraph(complete(3), 12),
        disjoint_edges(40, 4),
    ],
    ids=[
        "k1", "m0", "n1-m0", "every-width", "19-digit-n", "19-digit-n-small-ids", "10-digit-n",
        "k3-n12", "disjoint",
    ],
)
@pytest.mark.parametrize("chunk", [8, 48, 200, hgr._CHUNK], ids=lambda c: f"chunk{c}")
def test_writer_matches_percent_reference(tmp_path, monkeypatch, H, chunk):
    # blocks of 8-200 bytes, one line to a few dozen, so most files span
    # many blocks; at the default chunk each file is one block
    monkeypatch.setattr(hgr, "_CHUNK", chunk)
    expected = _percent_hgr(H)
    assert dumps(H) == expected
    write_hgr(H, tmp_path / "h.hgr")
    assert (tmp_path / "h.hgr").read_bytes() == expected.encode()


def test_writer_transient_memory_is_flat(tmp_path):
    # K3 on K_80, 82 160 edges: formatting every id as a Python int first
    # peaks at 11.4 MiB; blocks of 128 KiB of lines peak near 1 MiB, for any m
    H = subgraph_hypergraph(complete(3), 80)
    path = tmp_path / "k3.hgr"
    write_hgr(H, path)  # warm imports and caches outside the trace
    tracemalloc.start()
    try:
        write_hgr(H, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.m == 82_160 and peak < 4 * 2**20


_K3N8 = dumps(subgraph_hypergraph(complete(3), 8)).split("\n")[:-1]  # 57 lines, 452 bytes
_BAD = "not single-spaced ASCII decimals without leading zeros"


def _k3n8(*edge_lines):
    """K3 on K_8 as HGR text, with lines 41.. replaced by ``edge_lines``."""
    return "\n".join(_K3N8[:40] + list(edge_lines)) + "\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (_k3n8("9 24 25 ", *_K3N8[41:]), f"line 41: {_BAD}"),
        (_k3n8("9 024 25", *_K3N8[41:]), f"line 41: {_BAD}"),
        (_k3n8("9 24 2x", *_K3N8[41:]), f"line 41: {_BAD}"),
        (_k3n8("9 24", *_K3N8[41:]), "line 41: expected 3 vertex ids"),
        (_k3n8(*_K3N8[41:]), "expected 56 edge lines, found 55"),
        (_k3n8(*_K3N8[40:41], *_K3N8[40:]), "expected 56 edge lines, found 57"),
        (_k3n8("9 24 9223372036854775807", *_K3N8[41:]), "vertex ids must be below 2^63 - 1"),
        (
            _k3n8("9 25 24", *_K3N8[41:]),
            "edges must be sorted ascending and listed in lexicographic order",
        ),
        (
            _k3n8(_K3N8[41], _K3N8[40], *_K3N8[42:]),
            "edges must be sorted ascending and listed in lexicographic order",
        ),
        (_k3n8(*_K3N8[40:])[:-1], "file must end with a newline"),
        (_k3n8(*_K3N8[40:]).replace("\n", "\r\n"), "file must use LF line endings"),
    ],
    ids=[
        "trailing-space", "leading-zero", "non-digit", "short-line", "line-too-few",
        "line-too-many", "id-int64-max", "unsorted-edge", "unsorted-edge-list",
        "no-final-newline", "crlf",
    ],
)
def test_hgr_messages_past_the_first_chunk(monkeypatch, text, message):
    # the fault sits about 300 bytes in: several 32-byte chunks after the first
    for chunk in (32, len(text)):
        monkeypatch.setattr(hgr, "_CHUNK", chunk)
        with pytest.raises(HgrFormatError) as exc:
            loads(text)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "text,error,message",
    [
        (
            _k3n8("9 25 24", *_K3N8[41:]),
            HgrFormatError,
            "edges must be sorted ascending and listed in lexicographic order",
        ),
        (
            _k3n8(_K3N8[41], _K3N8[40], *_K3N8[42:]),
            HgrFormatError,
            "edges must be sorted ascending and listed in lexicographic order",
        ),
        (_k3n8(_K3N8[40], *_K3N8[40:-1]), ValueError, "duplicate edge (9, 24, 25)"),
        # the range check comes first, on the row as sorted
        (
            _k3n8("9 28 24", *_K3N8[41:]),
            ValueError,
            "edge (9, 24, 28) has a vertex id outside [0, 28)",
        ),
        (
            _k3n8("9 9 24", *_K3N8[41:]),
            ValueError,
            "edge (9, 9, 24) does not have 3 distinct vertices",
        ),
    ],
    ids=["unsorted-row", "swapped-lines", "duplicate-line", "unsorted-row-out-of-range",
         "unsorted-row-repeated-id"],
)
def test_hgr_rows_the_constructor_sorts_are_rejected(text, error, message):
    with pytest.raises(error) as exc:
        loads(text)
    assert type(exc.value) is error and str(exc.value) == message


def test_reader_keeps_its_edge_array():
    # K3 on K_100, 161 700 edges: the reader's (m, 3) array becomes edges_arr,
    # so the read peaks near one edge array (5.1 MiB, 1.37x), where a second
    # copy and its comparison peaked at 8.3 MiB (2.24x)
    raw = dumps(subgraph_hypergraph(complete(3), 100)).encode()
    loads(raw)  # warm numpy outside the trace
    tracemalloc.start()
    try:
        H = loads(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.m == 161_700 and not H.edges_arr.flags.writeable
    assert peak < 1.5 * H.edges_arr.nbytes


@pytest.mark.parametrize(
    "raw", [b"2 3 1\n0 \xff\n", "2 3 1\n0 １\n".encode()], ids=["byte-ff", "fullwidth-digit"]
)
def test_hgr_rejects_non_ascii_bytes(tmp_path, raw):
    # the reader never decodes the file, so a byte that is not UTF-8 is one
    # more stray byte
    path = tmp_path / "h.hgr"
    path.write_bytes(raw)
    with pytest.raises(HgrFormatError, match=f"^line 2: {_BAD}$"):
        read_hgr(path)
    assert run(["stats", "--in", str(path)]) == (1, "", f"error: line 2: {_BAD}\n")


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300)
def test_json_floats_round_trip(x):
    from hypertail.cli import _dump

    assert float(json.loads(_dump(x))) == x


def test_json_rejects_non_finite():
    from hypertail.cli import _dump

    with pytest.raises(ValueError):
        _dump(float("inf"))
    with pytest.raises(ValueError):
        _dump(float("nan"))


# --- CLI -------------------------------------------------------------------


def test_gen_writes_expected_header(tmp_path):
    path = tmp_path / "h.hgr"
    code, out, _ = run(["gen", "--family", "complete", "--r", "3", "--N", "10", "--out", str(path)])
    assert code == 0
    assert path.read_text().splitlines()[0] == "3 45 120"
    record = json.loads(out)
    assert record["cmd"] == "gen"
    assert record["result"]["m"] == 120


def test_gen_to_stdout_is_hgr_text():
    code, out, _ = run(["gen", "--family", "disjoint", "--m", "3", "--k", "3"])
    assert code == 0
    assert out.splitlines()[0] == "3 9 3"


def test_gen_prints_the_bytes_it_writes(tmp_path):
    argv = [sys.executable, "-m", "hypertail", "gen", "--family", "complete", "--r", "3", "--N", "12"]
    env = {**os.environ, "PYTHONPATH": str(Path(hypertail.__file__).parents[1])}
    path = tmp_path / "k3.hgr"
    printed = subprocess.run(argv, capture_output=True, timeout=120, env=env, check=True).stdout
    subprocess.run(argv + ["--out", str(path)], capture_output=True, timeout=120, env=env, check=True)
    assert printed.startswith(b"3 66 220\n") and printed == path.read_bytes()


def test_oracle_record_matches_pinned_values(tmp_path):
    path = tmp_path / "t.hgr"
    run(["gen", "--family", "complete", "--r", "3", "--N", "4", "--out", str(path)])
    code, out, _ = run(["oracle", "--in", str(path), "--p", "0.5", "--dist"])
    assert code == 0
    record = json.loads(out)
    assert record["result"]["expectation"] == pytest.approx(0.5)
    assert record["result"]["variance"] == pytest.approx(0.625)
    assert record["result"]["distribution_mean"] == pytest.approx(0.5)


def test_stats_record(tmp_path):
    path = tmp_path / "t.hgr"
    run(["gen", "--family", "complete", "--r", "3", "--N", "10", "--out", str(path)])
    code, out, _ = run(["stats", "--in", str(path)])
    record = json.loads(out)
    assert record["result"] == {
        "n": 45,
        "m": 120,
        "k": 3,
        "max_degree": 8,
        "min_degree": 8,
        "max_codegree": 1,
        "degree_sum": 360,
    }


def test_nice_record_has_all_conditions(tmp_path):
    path = tmp_path / "t.hgr"
    run(["gen", "--family", "complete", "--r", "3", "--N", "10", "--out", str(path)])
    code, out, _ = run(
        ["nice", "--in", str(path), "--p", "1e-3", "--lambda", "3", "--n0", "10"]
    )
    record = json.loads(out)
    result = record["result"]
    assert set(result) == {"p1", "p2", "p3", "p4", "analytic_ok"}
    assert result["p4"]["status"] == "assumed"
    assert result["p1"]["holds"] is True  # n = 45 >= 10, k = 3, p <= 1e-3


def test_bound_record_echoes_terms(tmp_path):
    path = tmp_path / "t.hgr"
    run(["gen", "--family", "complete", "--r", "3", "--N", "10", "--out", str(path)])
    code, out, _ = run(
        ["bound", "--in", str(path), "--p", "1e-3", "--lambda", "3", "--gamma", "10", "--b", "1"]
    )
    record = json.loads(out)
    assert len(record["result"]["gamma1_terms"]) == 3
    assert len(record["result"]["gamma2_terms"]) == 2
    assert record["result"]["prob_bound"] <= 1.0


def test_regime_record():
    code, out, _ = run(["regime", "--family", "complete", "--r", "3", "--N", "50", "--c1", "0.05"])
    record = json.loads(out)
    assert record["result"]["rho1"] == pytest.approx(1.0)
    assert record["result"]["rho2"] == pytest.approx(0.5)


def test_mcdiarmid_record():
    code, out, _ = run(["mcdiarmid", "--t", "2", "--lipschitz", "1,1,1,1"])
    record = json.loads(out)
    assert record["result"]["bound"] == pytest.approx(0.2706705664732254)


def test_warnings_go_to_the_given_stderr_each_call():
    for _ in range(2):  # a warning shown once per process would be missing the second time
        code, out, err = run(["mcdiarmid", "--t", "1", "--lipschitz", "0,0"])
        assert code == 0 and json.loads(out)["result"]["bound"] == 0
        lines = err.splitlines()
        assert lines[0] == "warning: all Lipschitz coefficients are zero: deviation is impossible"
        assert len(lines) == 2 and lines[1].startswith("# mcdiarmid finished in ")


@pytest.mark.parametrize(
    "t,lipschitz,bound",
    [("1e-201", "1e-200", 1.0), ("1e200", "1e200", 0.2706705664732254)],
)
def test_mcdiarmid_record_outside_double_range(t, lipschitz, bound):
    # t^2 and a^2 underflow (overflow) a double; t/a = 0.1 (1) does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(["mcdiarmid", "--t", t, "--lipschitz", lipschitz])
    assert code == 0
    assert json.loads(out)["result"]["bound"] == pytest.approx(bound, rel=1e-12)


def test_simulate_tail_replay_byte_identical(tmp_path):
    path = tmp_path / "d.hgr"
    run(["gen", "--family", "disjoint", "--m", "50", "--k", "3", "--out", str(path)])
    argv = ["simulate", "--in", str(path), "--p", "0.3", "--task", "tail",
            "--thresholds", "1,2,4", "--trials", "400", "--seed", "21"]
    _, first, _ = run(argv)
    _, second, _ = run(argv)
    assert first == second


def test_simulate_workers_do_not_change_counts(tmp_path):
    path = tmp_path / "d.hgr"
    run(["gen", "--family", "disjoint", "--m", "50", "--k", "3", "--out", str(path)])
    base = ["simulate", "--in", str(path), "--p", "0.3", "--task", "tail",
            "--thresholds", "1,2", "--trials", "600", "--seed", "5"]
    _, one, _ = run(base + ["--workers", "1"])
    _, eight, _ = run(base + ["--workers", "8"])
    counts = lambda text: [e["exceed_count"] for e in json.loads(text)["result"]["estimates"]]
    assert counts(one) == counts(eight)
    # every other campaign that echoes --workers: the same bytes but the echoed count
    k3 = tmp_path / "k3.hgr"
    write_hgr(subgraph_hypergraph(complete(3), 6), k3)
    nice = ["--lambda", "2", "--gamma", "4", "--b", "1", "--trials", "40", "--seed", "8"]
    for argv in (
        ["simulate", "--in", str(k3), "--p", "0.1", "--task", "p4", "--p4-grid", "0.2,0.3", *nice],
        ["nice", "--in", str(k3), "--p", "0.1", "--p4-grid", "0.2,0.3", *nice],
        ["ext", "--task", "caps", "--family", "complete", "--r", "4", "--N", "6", "--p", "0.2",
         "--q", "0.5", "--lambda", "2", "--gamma", "4", "--b", "1", "--trials", "20",
         "--seed", "15"],
        ["simulate", "--in", str(k3), "--p", "0.125", "--task", "deg-square-sum",
         "--eps-range", "0.1,0.5", "--force-rounds", "3", "--lambda", "2", "--gamma", "2",
         "--trials", "30", "--seed", "11"],
        ["ext", "--task", "zcheck", "--family", "complete", "--r", "3", "--N", "6", "--q", "0.5",
         "--trials", "30", "--seed", "3"],
        ["ext", "--task", "zcheck", "--family", "complete", "--r", "3", "--N", "6", "--q", "0.5",
         "--trials", "1", "--seed", "3", "--conditioned", "20"],
        ["simulate", "--in", str(k3), "--p", "0.125", "--task", "deg-moment",
         "--eps-range", "0.1,0.5", "--force-rounds", "3", "--round", "1", "--vertices", "6",
         "--continuations", "300", "--seed", "4"],
    ):
        code, one, _ = run(argv + ["--workers", "1"])
        assert code == 0 and '"workers":1' in one
        assert run(argv + ["--workers", "2"])[1] == one.replace('"workers":1', '"workers":2')


def test_simulate_requires_seed(tmp_path):
    path = tmp_path / "d.hgr"
    run(["gen", "--family", "disjoint", "--m", "5", "--k", "3", "--out", str(path)])
    code, _, err = run(["simulate", "--in", str(path), "--p", "0.3", "--trials", "10"])
    assert code == 1
    assert "seed" in err


def test_simulate_auto_seed_recorded(tmp_path):
    path = tmp_path / "d.hgr"
    run(["gen", "--family", "disjoint", "--m", "5", "--k", "3", "--out", str(path)])
    code, out, _ = run(["simulate", "--in", path.as_posix(), "--p", "0.3", "--task", "tail",
                        "--thresholds", "1", "--trials", "10", "--seed", "auto"])
    assert code == 0
    record = json.loads(out)
    assert record["params"]["seed_auto"] is True
    assert isinstance(record["params"]["seed"], int)


def test_expose_round_zero_aggregates(tmp_path):
    path = tmp_path / "t.hgr"
    run(["gen", "--family", "complete", "--r", "3", "--N", "8", "--out", str(path)])
    code, out, _ = run(
        ["expose", "--in", str(path), "--p", "0.125", "--eps-range", "0.1,0.5",
         "--force-rounds", "3", "--trials", "50", "--seed", "9", "--lambda", "2", "--gamma", "4"]
    )
    record = json.loads(out)
    rounds = record["result"]["per_round"]
    assert len(rounds) == 4
    assert rounds[0]["mean_edge_count"] == pytest.approx(56.0)  # C(8,3) every trial


def test_ext_balanced_record():
    code, out, _ = run(["ext", "--task", "balanced", "--family", "complete", "--r", "4", "--roots", "2"])
    record = json.loads(out)
    assert record["result"]["balanced"] is True
    assert record["result"]["density"] == pytest.approx(2.5)


def test_ext_zcheck_record():
    code, out, _ = run(
        ["ext", "--task", "zcheck", "--family", "complete", "--r", "3", "--N", "6",
         "--q", "0.5", "--trials", "100", "--seed", "3"]
    )
    record = json.loads(out)
    assert record["result"]["all_equal"] is True


@pytest.mark.parametrize("task, extra", [("balanced", []),
                                         ("expected", ["--N", "30", "--q", "0.5"])])
@pytest.mark.parametrize("pattern", [["complete", "--r", "23"],
                                     ["complete-bipartite", "--a", "1", "--b-side", "22"]])
def test_ext_past_the_balance_budget_builds_no_pattern(monkeypatch, task, extra, pattern):
    # s = 21 non-root vertices: both tasks read s and t from the spec alone
    def refuse(*args):
        raise AssertionError("the rooted pattern was built")

    monkeypatch.setattr(extensions, "rooted_graph", refuse)
    code, out, err = run(["ext", "--task", task, "--family", *pattern, *extra])
    if task == "balanced":
        error = "error: balancedness enumeration over 2^21 subsets exceeds budget\n"
        assert (code, out, err) == (2, "", error)
    else:
        assert code == 0 and json.loads(out)["result"]["expected_extensions"] > 0


def test_ext_expected_record():
    code, out, _ = run(
        ["ext", "--task", "expected", "--family", "complete", "--r", "3", "--N", "10", "--q", "0.5"]
    )
    record = json.loads(out)
    assert record["result"]["expected_extensions"] == pytest.approx(8 * 0.25)


def test_exit_codes():
    code, _, _ = run(["gen", "--family", "random", "--n", "4", "--m", "5", "--k", "3", "--seed", "1"])
    assert code == 2  # infeasible
    code, _, _ = run(["gen", "--family", "complete", "--r", "3", "--N", "500"])
    assert code == 2  # enumeration budget
    code, _, _ = run(["gen", "--family", "nonsense"])
    assert code == 1  # usage
    code, _, _ = run(["nomatch"])
    assert code == 1  # unknown command
    code, _, _ = run(["stats", "--in", "/nonexistent/x.hgr"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["expose", "--in", "d.hgr", "--p", "0.125", "--eps-range", "0.1,0.5", "--trials", "0"],
    ["simulate", "--in", "d.hgr", "--p", "0.3", "--thresholds", "nan"],
    ["simulate", "--in", "d.hgr", "--p", "0.3", "--thresholds", "1,inf"],
], ids=["expose-zero-trials", "threshold-nan", "threshold-inf"])
def test_inputs_that_would_emit_non_finite_values_are_usage_errors(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_hgr(disjoint_edges(4, 3), tmp_path / "d.hgr")
    code, out, err = run(argv + ["--seed", "1"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture
def no_trials(monkeypatch):
    """Fail the test if a Monte Carlo trial runs."""
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(hypertail.montecarlo, "_per_trial", no_trial)
    monkeypatch.setattr(hypertail.montecarlo, "_per_block", no_trial)


@pytest.mark.parametrize("argv, name", [
    (["expose", "--p", "0.125", "--eps-range", "0.1,0.5", "--lambda", "nan"], "lam"),
    (["expose", "--p", "0.125", "--eps-range", "0.1,0.5", "--gamma", "nan"], "gamma_cap"),
    (["nice", "--p", "0.3", "--lambda", "nan", "--gamma", "1", "--b", "1", "--p4-grid", "0.5"],
     "lam"),
    (["nice", "--p", "0.3", "--lambda", "1", "--gamma", "1", "--b", "nan", "--p4-grid", "0.5"],
     "b"),
], ids=["expose-lambda", "expose-gamma", "nice-lambda", "nice-b"])
def test_nan_parameters_fail_before_any_trial(tmp_path, no_trials, argv, name):
    # NaN passes a `value <= 0` test; it must not reach the campaign
    write_hgr(disjoint_edges(4, 3), tmp_path / "d.hgr")
    code, out, err = run(argv + ["--in", str(tmp_path / "d.hgr"), "--seed", "1"])
    assert (code, out, err) == (1, "", f"error: {name} must be positive\n")


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--in", "d.hgr", "--p", "0.3", "--task", "subgaussian", "--lambdas", "nan",
      "--seed", "1"], "lambda grid must be positive"),
    (["mcdiarmid", "--t", "nan", "--lipschitz", "1,1"], "deviation t must be >= 0"),
    (["mcdiarmid", "--t", "2", "--lipschitz", "1,nan"], "Lipschitz coefficients must be >= 0"),
    (["regime", "--family", "complete", "--r", "3", "--N", "50", "--c1", "nan"],
     "c1 must be positive"),
], ids=["subgaussian-lambdas", "mcdiarmid-t", "mcdiarmid-lipschitz", "regime-c1"])
def test_nan_library_inputs_fail_before_any_trial(tmp_path, monkeypatch, no_trials, argv, message):
    # as above, for the checks that keep their own messages
    monkeypatch.chdir(tmp_path)
    write_hgr(disjoint_edges(4, 3), tmp_path / "d.hgr")
    assert run(argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("text, argv", [
    ("1 1 1\n0\n", ["nice", "--p", "0.1", "--lambda", "2"]),
    ("1 1 1\n0\n", ["bound", "--p", "0.1", "--lambda", "2", "--gamma", "4", "--b", "1"]),
    ("1 1 1\n0\n", ["expose", "--p", "0.125", "--eps-range", "0.1,0.5", "--seed", "1"]),
    ("3 5 0\n", ["bound", "--p", "0.1", "--lambda", "2", "--gamma", "4", "--b", "1"]),
    ("3 5 0\n", ["expose", "--p", "0.125", "--eps-range", "0.1,0.5", "--seed", "1"]),
], ids=["nice-n1", "bound-n1", "expose-n1", "bound-m0", "expose-m0"])
def test_degenerate_instances_are_infeasible(tmp_path, text, argv):
    path = tmp_path / "h.hgr"
    path.write_text(text)
    code, out, err = run(argv + ["--in", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# Each subcommand with a valid argv, and a value for each flag it no longer takes.
NO_EFFECT_ARGV = {
    "gen": ["gen", "--family", "disjoint", "--m", "2", "--k", "2"],
    "stats": ["stats", "--in", "d.hgr"],
    "nice": ["nice", "--in", "d.hgr", "--p", "0.3", "--lambda", "1"],
    "nice-p4-grid": ["nice", "--in", "d.hgr", "--p", "0.3", "--lambda", "1", "--gamma", "1",
                     "--b", "1", "--p4-grid", "0.5", "--trials", "2", "--seed", "1"],
    "bound": ["bound", "--in", "d.hgr", "--p", "0.3", "--lambda", "1", "--gamma", "1", "--b", "1"],
    "regime": ["regime", "--family", "complete", "--r", "3", "--N", "10", "--c1", "1"],
    "mcdiarmid": ["mcdiarmid", "--t", "1", "--lipschitz", "1,1"],
    "expose": ["expose", "--in", "d.hgr", "--p", "0.125", "--eps-range", "0.1,0.5",
               "--trials", "2", "--seed", "1"],
    "ext": ["ext", "--task", "expected", "--family", "complete", "--r", "3", "--N", "10",
            "--q", "0.5"],
    "expose-strict": ["expose", "--in", "d.hgr", "--p", "0.001", "--strict",
                      "--trials", "2", "--seed", "1"],
    **{f"simulate-{task}": ["simulate", "--in", "d.hgr", "--p", "0.125", "--task", task,
                            "--seed", "1", *extra]
       for task, extra in [
           ("tail", ["--thresholds", "1", "--trials", "2"]),
           ("p4", ["--p4-grid", "0.2", "--trials", "2"]),
           ("subgaussian", ["--lambdas", "1", "--trials", "2"]),
           ("deg-moment", ["--eps-range", "0.1,0.5", "--vertices", "2", "--continuations", "5"]),
           ("deg-square-sum", ["--eps-range", "0.1,0.5", "--trials", "2"]),
       ]},
}
NO_EFFECT_VALUES = {"--trials": "5", "--workers": "2", "--significance": "0.05",
                    "--budget": "100000", "--seed": "1", "--eps-range": "0.1,0.5",
                    "--thresholds": "1", "--p4-grid": "0.2", "--lambda": "1", "--gamma": "1",
                    "--b": "1", "--bk": "0.01", "--n0": "10", "--lambdas": "1",
                    "--variance-source": "plugin", "--round": "0", "--vertices": "2",
                    "--continuations": "5"}


@pytest.mark.parametrize("command, flag", [
    *[("gen", flag) for flag in ("--trials", "--workers", "--significance")],
    *[("expose", flag) for flag in ("--workers", "--significance")],
    *[(command, "--budget")
      for command in ("stats", "nice", "bound", "regime", "mcdiarmid", "expose", "ext")],
    # one flag from each other task's row, and --n0, which no task reads
    *[("simulate-tail", flag)
      for flag in ("--p4-grid", "--lambdas", "--round", "--lambda", "--n0")],
    *[("simulate-p4", flag)
      for flag in ("--thresholds", "--budget", "--continuations", "--eps-range", "--n0")],
    *[("simulate-subgaussian", flag)
      for flag in ("--thresholds", "--b", "--vertices", "--lambda", "--n0")],
    *[("simulate-deg-moment", flag)
      for flag in ("--thresholds", "--bk", "--variance-source", "--gamma", "--n0")],
    *[("simulate-deg-square-sum", flag)
      for flag in ("--thresholds", "--p4-grid", "--budget", "--round", "--n0")],
    # the stochastic flags, --gamma and --b drive nice's P4 grid only; strict mode pins the
    # retention range
    *[("nice", flag)
      for flag in ("--seed", "--trials", "--workers", "--significance", "--gamma", "--b")],
    ("expose-strict", "--eps-range"),
    # the niceness constants a command's outcome does not depend on, and the sample size and
    # CI level of the tasks that set neither
    ("bound", "--n0"),
    ("nice", "--bk"),
    ("nice-p4-grid", "--bk"),
    ("simulate-p4", "--bk"),
    ("simulate-deg-moment", "--trials"),
    ("simulate-deg-moment", "--significance"),
    ("simulate-deg-square-sum", "--significance"),
])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    write_hgr(disjoint_edges(4, 3), tmp_path / "d.hgr")
    assert run(NO_EFFECT_ARGV[command])[0] == 0
    code, out, err = run(NO_EFFECT_ARGV[command] + [flag, NO_EFFECT_VALUES[flag]])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(NO_EFFECT_ARGV))
def test_config_is_an_unrecognized_argument(tmp_path, monkeypatch, command):
    # every value a record depends on comes from its own argv
    monkeypatch.chdir(tmp_path)
    write_hgr(disjoint_edges(4, 3), tmp_path / "d.hgr")
    argv = NO_EFFECT_ARGV[command] + ["--config", "x"]
    assert run(argv) == (1, "", "error: unrecognized arguments: --config x\n")


def test_every_flag_is_taken_by_some_command_or_task():
    taken = set(cli.COMMON)
    for _, flags, _ in (*cli.COMMANDS.values(), *cli.TASKS.values()):
        taken.update(flags)
    assert set(cli.FLAGS) - taken == set()


@pytest.mark.parametrize("argv, flag", [
    (["gen", "--family", "disjoint", "--m", "2", "--k", "3"], ["--r", "5"]),
    (["gen", "--family", "complete", "--r", "3", "--N", "5"], ["--seed", "3"]),
    (["gen", "--family", "complete-bipartite", "--a", "2", "--b-side", "2", "--N", "5"],
     ["--k", "3"]),
    (["gen", "--family", "random", "--n", "9", "--m", "5", "--k", "3", "--seed", "3"],
     ["--N", "5"]),
    (["regime", "--family", "complete", "--r", "3", "--N", "10", "--c1", "0.05"], ["--a", "2"]),
    (["regime", "--family", "complete-bipartite", "--a", "2", "--b-side", "2", "--N", "10",
      "--c1", "0.05"], ["--r", "3"]),
], ids=["gen-disjoint-r", "gen-complete-seed", "gen-bipartite-k", "gen-random-N",
        "regime-complete-a", "regime-bipartite-r"])
def test_flags_a_family_does_not_read_are_rejected(argv, flag):
    assert run(argv)[0] == 0
    code, out, err = run(argv + flag)
    assert (code, out) == (1, "")
    assert err == f"error: unrecognized arguments: {' '.join(flag)}\n"


K3_N5 = ["--in", "k3.hgr"]


@pytest.mark.parametrize("argv, expected, flag", [
    # a float range overflows or underflows into a division by zero
    (["bound", *K3_N5, "--p", "1e-300", "--lambda", "1", "--gamma", "1", "--b", "1"], 2, "--p 1e-300"),
    (["regime", "--family", "complete", "--r", "3", "--N", "0", "--c1", "0.05"], 2, None),
    (["regime", "--family", "complete", "--r", "3", "--N", "10", "--c1", "1e308"], 2, "--c1 1e+308"),
    (["simulate", "--task", "subgaussian", *K3_N5, "--p", "0.3", "--lambdas", "1e-300",
      "--trials", "10", "--seed", "1"], 2, "--lambdas 1e-300"),
    (["simulate", "--task", "subgaussian", *K3_N5, "--p", "0.3", "--lambdas", "1e300",
      "--trials", "10", "--seed", "1"], 2, "--lambdas 1e+300"),
    # a parameter outside its domain
    (["ext", "--task", "expected", "--family", "complete", "--r", "3", "--N", "10",
      "--q", "1.5"], 1, None),
    (["ext", "--task", "expected", "--family", "complete", "--r", "3", "--N", "10",
      "--q", "-0.5"], 1, None),
    (["expose", *K3_N5, "--p", "0.125", "--eps-range", "0.1,0.5", "--trials", "2",
      "--seed", "1", "--lambda", "-1.0"], 1, None),
    (["expose", *K3_N5, "--p", "0.125", "--eps-range", "0.1,0.5", "--trials", "2",
      "--seed", "1", "--lambda", "-2.5e-05"], 1, None),
    (["simulate", "--task", "deg-square-sum", *K3_N5, "--p", "0.125", "--eps-range", "0.1,0.5",
      "--trials", "2", "--seed", "1", "--gamma", "0"], 1, None),
], ids=["bound-tiny-p", "regime-N0", "regime-huge-c1", "subgaussian-tiny-lambda",
        "subgaussian-huge-lambda", "expected-q-above-1", "expected-q-negative",
        "expose-negative-lambda", "expose-negative-exponent-lambda", "deg-square-sum-zero-gamma"])
def test_out_of_range_inputs_are_one_error_line(tmp_path, monkeypatch, argv, expected, flag):
    monkeypatch.chdir(tmp_path)
    write_hgr(subgraph_hypergraph(complete(3), 5), tmp_path / "k3.hgr")
    code, out, err = run(argv)
    assert (code, out) == (expected, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if flag is not None:  # a float overflow or underflow names the flag to change
        assert flag in err


ZCHECK = ["ext", "--task", "zcheck", "--family", "complete", "--r", "3", "--N", "6", "--q", "0.5",
          "--trials", "5", "--seed", "1"]
DEG_MOMENT = ["simulate", "--task", "deg-moment", *K3_N5, "--p", "0.125", "--eps-range", "0.1,0.5",
              "--seed", "1"]


@pytest.mark.parametrize("argv", [
    [*ZCHECK, "--conditioned", "0"],
    [*ZCHECK, "--conditioned", "-3"],
    [*DEG_MOMENT, "--continuations", "0"],
    [*DEG_MOMENT, "--vertices", "-2"],
], ids=["conditioned-0", "conditioned-negative", "continuations-0", "vertices-negative"])
def test_counts_below_their_minimum_are_one_error_line(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_hgr(subgraph_hypergraph(complete(3), 5), tmp_path / "k3.hgr")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"got {argv[-1]}" in err
    # no vertex to check is a valid, empty check
    code, out, _ = run([*DEG_MOMENT, "--vertices", "0"])
    assert code == 0 and json.loads(out)["result"]["entries"] == []


def test_oracle_variance_of_long_edges_and_its_row_budget(tmp_path):
    # a 40-vertex edge shares no vertex: its variance is one term, found at once
    path = tmp_path / "d.hgr"
    assert run(["gen", "--family", "disjoint", "--m", "1", "--k", "40", "--out", str(path)])[0] == 0
    code, out, _ = run(["oracle", "--in", str(path), "--p", "0.3"])
    assert code == 0
    assert json.loads(out)["result"]["variance"] == 0.3**40 - 0.3**80
    # the 9 edges of K8 on 9 vertices share every vertex: 9 * 2^8 subset rows > 64 * 30
    write_hgr(Hypergraph(n=9, k=8, edges=list(combinations(range(9), 8))), path)
    code, out, err = run(["oracle", "--in", str(path), "--p", "0.3", "--budget", "30"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "subset rows exceeds budget" in err
    assert run(["oracle", "--in", str(path), "--p", "0.3", "--budget", "36"])[0] == 0


def test_oracle_budget_caps_enumeration_in_subsets(tmp_path):
    # 20000 edges is ample for the variance profile (m = 5), but 2^15 subsets exceed it
    path = tmp_path / "d.hgr"
    write_hgr(disjoint_edges(5, 3), path)
    code, out, err = run(["oracle", "--in", str(path), "--p", "0.3", "--dist", "--budget", "20000"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    code, _, _ = run(["oracle", "--in", str(path), "--p", "0.3", "--dist", "--budget", "40000"])
    assert code == 0


def test_oracle_dist_past_the_default_limit(tmp_path):
    # disjoint 8x3 has n = 24: refused at the default n <= 22, allowed by --budget 2^24
    path = tmp_path / "d.hgr"
    write_hgr(disjoint_edges(8, 3), path)
    argv = ["oracle", "--in", str(path), "--p", "0.3", "--dist"]
    code, out, _ = run(argv + ["--budget", str(2**24)])
    assert (code, out.count("\n")) == (0, 1)
    result = json.loads(out)["result"]
    q = 0.3**3
    assert [x for x, _ in result["distribution"]] == list(range(9))
    for x, pr in result["distribution"]:
        assert pr == pytest.approx(comb(8, x) * q**x * (1 - q) ** (8 - x), abs=1e-12)
    assert result["distribution_mean"] == pytest.approx(result["expectation"], abs=1e-12)
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["gen", "--N", "6"],
    ["regime", "--N", "6", "--c1", "0.05"],
    ["ext", "--task", "balanced"],
], ids=["gen", "regime", "ext"])
def test_missing_bipartite_side_names_its_flag(argv):
    argv = [argv[0], "--family", "complete-bipartite", "--a", "2", *argv[1:]]
    error = "error: --family complete-bipartite requires --a and --b-side\n"
    assert run(argv) == (1, "", error)
    assert run(argv + ["--b-side", "3"])[0] == 0  # following the message works


EXT_K3 = ["--family", "complete", "--r", "3", "--N", "6", "--q", "0.5", "--trials", "5",
          "--seed", "1"]
TAIL_K3 = ["simulate", "--task", "tail", *K3_N5, "--p", "0.3", "--trials", "5"]


@pytest.mark.parametrize("argv, message", [
    (["gen", "--family", "complete", "--N", "5"], "--family complete requires --r"),
    (["gen", "--family", "complete", "--r", "3"], "pattern families require --N"),
    (["gen", "--family", "disjoint", "--m", "2"], "--family disjoint requires --m and --k"),
    (["gen", "--family", "random", "--m", "2", "--k", "2", "--seed", "1"],
     "--family random requires --n, --m and --k"),
    (["regime", "--family", "disjoint", "--N", "10", "--c1", "0.05"],
     "unsupported pattern family 'disjoint'"),
    (["regime", "--family", "complete", "--N", "10", "--c1", "0.05"],
     "--family complete requires --r"),
    (["simulate", "--task", "nope", *K3_N5, "--p", "0.3", "--seed", "1"],
     "unknown simulate task 'nope'"),
    ([*DEG_MOMENT, "--round", "9"], "--round must lie in [0, 3]"),
    (["ext", "--task", "expected", "--family", "complete", "--r", "3", "--q", "0.5"],
     "--task expected requires --N and --q"),
    (["ext", "--task", "zcheck", "--family", "complete", "--r", "3", "--N", "6", "--trials", "5",
      "--seed", "1"], "--task zcheck requires --N and --q"),
    (["ext", "--task", "caps", *EXT_K3], "--task caps requires --p"),
    (["ext", "--task", "nope", *EXT_K3], "unknown ext task 'nope'"),
    (["ext", "--task", "balanced", "--family", "disjoint"], "unsupported pattern family 'disjoint'"),
    ([*TAIL_K3, "--thresholds", ",", "--seed", "1"], "expected a comma-separated list of numbers"),
    ([*TAIL_K3, "--thresholds", "1", "--seed", "x"], "--seed must be an integer or 'auto', got 'x'"),
], ids=["gen-complete-no-r", "gen-complete-no-N", "gen-disjoint-no-k", "gen-random-no-n",
        "regime-disjoint", "regime-complete-no-r", "simulate-unknown-task",
        "deg-moment-round-past-schedule", "ext-expected-no-N", "ext-zcheck-no-q",
        "ext-caps-no-p", "ext-unknown-task", "ext-balanced-disjoint", "thresholds-empty",
        "seed-not-integer"])
def test_usage_errors_are_one_line_naming_the_fault(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    write_hgr(subgraph_hypergraph(complete(3), 5), tmp_path / "k3.hgr")
    assert run(argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "disjoint", "--m", "2", "--k", "2", "--budget", "0"],
    ["gen", "--family", "complete", "--r", "3", "--N", "5", "--budget", "-1"],
    ["oracle", "--in", "d.hgr", "--p", "0.3", "--budget", "0"],
    ["simulate", "--task", "subgaussian", "--in", "d.hgr", "--p", "0.3", "--lambdas", "1",
     "--trials", "5", "--seed", "1", "--budget", "0"],
], ids=["gen-flag", "gen-negative", "oracle-flag", "subgaussian"])
def test_budget_below_one_is_usage_error(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_hgr(disjoint_edges(4, 3), tmp_path / "d.hgr")
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "disjoint", "--m", "5", "--k", "3"],
    ["gen", "--family", "random", "--n", "9", "--m", "5", "--k", "3", "--seed", "1"],
    ["gen", "--family", "disjoint", "--m", "1", "--k", "1000"],
    ["gen", "--family", "random", "--n", "1200", "--m", "2", "--k", "600", "--seed", "1"],
], ids=["disjoint", "random", "disjoint-wide", "random-wide"])
def test_gen_budget_bounds_edge_count(argv):
    # the budget counts the m*k vertex ids of the edge list, so a large k alone exceeds it
    size = int(argv[argv.index("--m") + 1]) * int(argv[argv.index("--k") + 1])
    code, out, err = run(argv + ["--budget", str(size - 1)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert run(argv + ["--budget", str(size)])[0] == 0


def test_malformed_hgr_is_usage_error(tmp_path):
    bad = tmp_path / "bad.hgr"
    bad.write_text("3 4\n")
    code, _, err = run(["stats", "--in", str(bad)])
    assert code == 1
    assert "header" in err


def test_records_go_to_out_file(tmp_path):
    path = tmp_path / "d.hgr"
    run(["gen", "--family", "disjoint", "--m", "10", "--k", "3", "--out", str(path)])
    target = tmp_path / "records.jsonl"
    code, out, _ = run(["oracle", "--in", str(path), "--p", "0.4", "--out", str(target)])
    assert code == 0
    assert out == ""
    record = json.loads(target.read_text())
    assert record["cmd"] == "oracle"


def test_wall_time_on_stderr_not_in_record(tmp_path):
    path = tmp_path / "d.hgr"
    run(["gen", "--family", "disjoint", "--m", "5", "--k", "3", "--out", str(path)])
    code, out, err = run(["oracle", "--in", str(path), "--p", "0.4"])
    assert "finished in" in err
    assert "time" not in json.loads(out)


def test_dispatch_leaves_no_cyclic_garbage(tmp_path):
    # what only the cyclic collector frees is freed whenever allocation counts
    # trigger it; a parser built per call left ~800 such objects per command,
    # and where they sat in the heap moved a long-lived process's peak RSS
    path = tmp_path / "k3.hgr"
    commands = [
        ["gen", "--family", "complete", "--r", "3", "--N", "8", "--out", str(path)],
        ["stats", "--in", str(path)],
        ["bound", "--in", str(path), "--p", "0.2", "--lambda", "2", "--gamma", "10", "--b", "1"],
        ["simulate", "--in", str(path), "--p", "0.2", "--task", "tail", "--thresholds", "2,4",
         "--trials", "8", "--seed", "1"],
        ["simulate", "--in", str(path), "--p", "0.05", "--task", "p4", "--p4-grid", "0.1,0.2",
         "--trials", "8", "--seed", "1"],
    ]
    for argv in commands:  # build the parsers and finish lazy imports first
        assert run(argv)[0] == 0
    gc.collect()
    gc.disable()
    try:
        for argv in commands:
            assert run(argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_floats_serialized_with_17_digits(tmp_path):
    path = tmp_path / "d.hgr"
    run(["gen", "--family", "disjoint", "--m", "10", "--k", "3", "--out", str(path)])
    _, out, _ = run(["oracle", "--in", str(path), "--p", "0.3"])
    assert '"p":0.29999999999999999' in out


def test_simulate_p4_task(tmp_path):
    path = tmp_path / "d.hgr"
    run(["gen", "--family", "disjoint", "--m", "20", "--k", "3", "--out", str(path)])
    code, out, _ = run(["simulate", "--in", str(path), "--p", "0.1", "--task", "p4",
                        "--p4-grid", "0.1,0.15", "--lambda", "2", "--gamma", "1", "--b", "1",
                        "--trials", "100", "--seed", "19"])
    assert code == 0
    record = json.loads(out)
    assert len(record["result"]["grid"]) == 2
    assert all(pt["violations"] == 0 for pt in record["result"]["grid"])


def test_simulate_degree_moment_task(tmp_path):
    path = tmp_path / "t.hgr"
    run(["gen", "--family", "complete", "--r", "3", "--N", "8", "--out", str(path)])
    code, out, _ = run(["simulate", "--in", str(path), "--p", "0.125", "--task", "deg-moment",
                        "--eps-range", "0.1,0.5", "--force-rounds", "3", "--round", "1",
                        "--vertices", "4", "--continuations", "400", "--seed", "23"])
    assert code == 0
    record = json.loads(out)
    assert record["result"]["holds"] is True
    assert len(record["result"]["entries"]) <= 4


def test_simulate_degree_square_sum_task(tmp_path):
    path = tmp_path / "d.hgr"
    run(["gen", "--family", "disjoint", "--m", "20", "--k", "3", "--out", str(path)])
    code, out, _ = run(["simulate", "--in", str(path), "--p", "0.125", "--task", "deg-square-sum",
                        "--eps-range", "0.1,0.5", "--force-rounds", "3",
                        "--lambda", "2", "--gamma", "2", "--trials", "100", "--seed", "29"])
    assert code == 0
    record = json.loads(out)
    assert record["result"]["holds"] is True


def test_ext_caps_task():
    code, out, _ = run(["ext", "--task", "caps", "--family", "complete", "--r", "3", "--N", "8",
                        "--p", "0.2", "--q", "0.5", "--lambda", "2", "--gamma", "1000",
                        "--b", "1", "--trials", "50", "--seed", "31"])
    assert code == 0
    record = json.loads(out)
    assert record["result"]["z1_violations"] == 0


# One record per command and per simulate and ext task, with a value other than
# the default for every flag that changes a result.
REPLAY_CASES = {
    "gen": ["gen", "--family", "complete-bipartite", "--a", "3", "--b-side", "2", "--N", "6",
            "--budget", "5000", "--out", "g.hgr"],
    "stats": ["stats", "--in", "k3.hgr"],
    "nice": ["nice", "--in", "k3.hgr", "--p", "0.1", "--lambda", "2", "--n0", "10"],
    "nice-p4-grid": ["nice", "--in", "k3.hgr", "--p", "0.1", "--lambda", "2", "--n0", "10",
                     "--gamma", "4", "--b", "0.5", "--p4-grid", "0.2,0.3", "--trials", "40",
                     "--workers", "2", "--significance", "0.05", "--seed", "5"],
    "bound": ["bound", "--in", "k3.hgr", "--p", "0.1", "--lambda", "2", "--gamma", "4",
              "--b", "0.5", "--bk", "0.05"],
    "regime": ["regime", "--family", "complete", "--r", "4", "--N", "50", "--c1", "0.1"],
    "oracle": ["oracle", "--in", "k3.hgr", "--p", "0.3", "--dist"],
    "mcdiarmid": ["mcdiarmid", "--t", "2", "--lipschitz", "1,0.5,0.25"],
    "expose": ["expose", "--in", "k3.hgr", "--p", "0.125", "--eps-range", "0.1,0.5",
               "--force-rounds", "3", "--lambda", "2", "--gamma", "4", "--trials", "20",
               "--seed", "12"],
    "expose-strict": ["expose", "--in", "k3.hgr", "--p", "1e-6", "--strict",
                      "--force-rounds", "2", "--lambda", "2", "--gamma", "4", "--trials", "5",
                      "--seed", "1"],
    "simulate-tail": ["simulate", "--in", "disj.hgr", "--p", "0.3", "--task", "tail",
                      "--thresholds", "1,3", "--trials", "300", "--workers", "2",
                      "--significance", "0.05", "--seed", "33"],
    "simulate-p4": ["simulate", "--in", "k3.hgr", "--p", "0.1", "--task", "p4",
                    "--p4-grid", "0.2,0.3", "--lambda", "2", "--gamma", "4", "--b", "0.5",
                    "--trials", "60", "--significance", "0.05", "--seed", "8"],
    "simulate-subgaussian": ["simulate", "--in", "k3.hgr", "--p", "0.3", "--task", "subgaussian",
                             "--lambdas", "0.5,1", "--variance-source", "plugin",
                             "--trials", "200", "--significance", "0.05", "--seed", "9"],
    "simulate-deg-moment": ["simulate", "--in", "k3.hgr", "--p", "0.125", "--task", "deg-moment",
                            "--eps-range", "0.1,0.5", "--force-rounds", "3", "--round", "1",
                            "--vertices", "3", "--continuations", "100", "--seed", "10"],
    "simulate-deg-square-sum": ["simulate", "--in", "k3.hgr", "--p", "0.125",
                                "--task", "deg-square-sum", "--eps-range", "0.1,0.5",
                                "--force-rounds", "3", "--lambda", "2", "--gamma", "2",
                                "--trials", "50", "--seed", "11"],
    "ext-balanced": ["ext", "--task", "balanced", "--family", "complete", "--r", "4",
                     "--roots", "3"],
    "ext-expected": ["ext", "--task", "expected", "--family", "complete-bipartite", "--a", "2",
                     "--b-side", "3", "--roots", "3", "--N", "8", "--q", "0.4"],
    "ext-zcheck": ["ext", "--task", "zcheck", "--family", "complete", "--r", "3", "--N", "6",
                   "--q", "0.5", "--conditioned", "5", "--seed", "13"],
    "ext-caps": ["ext", "--task", "caps", "--family", "complete", "--r", "3", "--N", "7",
                 "--p", "0.2", "--q", "0.5", "--lambda", "2", "--gamma", "1000", "--b", "1",
                 "--trials", "30", "--significance", "0.05", "--seed", "15"],
}


def params_argv(record) -> list[str]:
    """The argv a record's params give: each key as the flag of its name, save
    the keys that encode flags, which are mapped back by hand."""
    params = dict(record["params"])
    argv = [record["cmd"]]
    pattern = params.pop("pattern", None)
    if pattern is not None:  # "K3" or "K{2,3}"
        sides = pattern[1:].strip("{}").split(",")
        argv += ["--r", *sides] if len(sides) == 1 else ["--a", sides[0], "--b-side", sides[1]]
    if "epsilon" in params:  # the schedule: epsilon = p^(1/rounds)
        eps, rounds, strict = (params.pop(key) for key in ("epsilon", "rounds", "strict_mode"))
        argv += ["--strict"] if strict else ["--eps-range", f"{eps!r},{eps!r}"]
        argv += ["--force-rounds", str(rounds)]
    for key, value in params.items():
        if value is None or value is False or key == "seed_auto":
            continue
        argv.append("--" + key.replace("_", "-"))
        if isinstance(value, list):
            argv.append(",".join(map(repr, value)))
        elif value is not True:
            argv.append(value if isinstance(value, str) else repr(value))
    if record["cmd"] == "gen":  # --out is never echoed, and gen prints a record only with it
        argv += ["--out", record["result"]["path"]]
    return argv


def test_record_is_replayable_from_its_own_params(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_hgr(subgraph_hypergraph(complete(3), 6), tmp_path / "k3.hgr")
    write_hgr(disjoint_edges(40, 3), tmp_path / "disj.hgr")
    for case, argv in REPLAY_CASES.items():
        code, out, err = run(argv)
        assert code == 0, (case, err)
        replay_argv = params_argv(json.loads(out))
        code, replay, err = run(replay_argv)
        assert code == 0, (case, err)
        assert replay == out, (case, replay_argv)


def test_default_p4_grid_above_its_top_is_a_usage_error(tmp_path, monkeypatch):
    # the default grid runs from --p up to 0.9
    monkeypatch.chdir(tmp_path)
    write_hgr(disjoint_edges(4, 3), tmp_path / "d.hgr")
    argv = ["simulate", "--task", "p4", "--in", "d.hgr", "--trials", "5", "--seed", "1"]
    code, out, err = run([*argv, "--p", "0.95"])
    assert (code, out) == (1, "")
    assert err == "error: --p 0.95 is above 0.9, the default q grid's top; give --p4-grid\n"
    assert run([*argv, "--p", "0.95", "--p4-grid", "0.96"])[0] == 0  # following the message works
    code, out, _ = run([*argv, "--p", "0.9"])
    assert code == 0 and len(json.loads(out)["result"]["grid"]) == 8


def test_allocation_failure_is_one_error_line(tmp_path):
    # header n sizes an n-long degree array: 8 GB, past a 2 GiB address-space limit
    path = tmp_path / "big.hgr"
    path.write_text("1 1000000000 1\n999999999\n")
    limit = 2 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "hypertail", "stats", "--in", str(path)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(hypertail.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats takes longer to import than the rest of the CLI together,
    # and scipy.special about as long as the rest
    code = "import sys, hypertail.cli; print({'scipy.stats', 'scipy.special'} & set(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(hypertail.__file__).parents[1])},
    )
    assert (proc.returncode, proc.stdout) == (0, "set()\n")


@st.composite
def tiny_hgr_text(draw):
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    subsets = list(combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(subsets), max_size=6, unique=True)) if subsets else []
    return dumps(Hypergraph(n, k, edges))


@st.composite
def exposure_argv(draw):
    argv = draw(st.sampled_from([["expose"], ["simulate", "--task", "deg-square-sum"]]))
    number = st.one_of(
        st.sampled_from([0.0, 1.0, -0.5, 1e-300, 1e-4, 0.1, 0.125, 0.5]), st.floats(1e-12, 0.99)
    )
    argv += ["--p", repr(draw(number)), "--seed", "3"]
    argv += ["--trials", str(draw(st.integers(-1, 3)))]
    if draw(st.booleans()):
        argv += ["--eps-range", f"{draw(number)!r},{draw(number)!r}"]
    if draw(st.booleans()):
        argv += ["--force-rounds", str(draw(st.integers(1, 4)))]
    for flag in ("--lambda", "--gamma"):
        argv += [flag, repr(draw(st.one_of(st.sampled_from([0.0, -1.0]), st.floats(-3, 3))))]
    return argv


@given(tiny_hgr_text(), exposure_argv())
@example(  # p^k underflows to 0, and the round conditions divide by p^k m
    text="2 2 1\n0 1\n",
    argv=["expose", "--p", "1e-300", "--seed", "3", "--trials", "1",
          "--lambda", "0.0", "--gamma", "0.0"],
)
@example(  # the same with lambda and gamma in their domain, so the p^k m guard is reached
    text="2 2 1\n0 1\n",
    argv=["expose", "--p", "1e-300", "--seed", "3", "--trials", "1",
          "--lambda", "1.0", "--gamma", "1.0"],
)
@settings(max_examples=300, deadline=None)
def test_exposure_commands_exit_cleanly(tmp_path_factory, text, argv):
    """An exception escaping dispatch here is a traceback from the command line."""
    path = tmp_path_factory.getbasetemp() / "fuzz.hgr"
    path.write_text(text)
    argv = argv + ["--in", str(path)]
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert run(argv)[1] == out


@st.composite
def command_argv(draw):
    """Argv for gen, stats, bound, nice, regime, oracle, mcdiarmid and every simulate task;
    "{in}" names the HGR file."""
    edge = st.sampled_from([0.0, 1.0, -0.5, 1e-300, 1e300])
    prob = st.one_of(st.floats(1e-4, 0.99), edge)
    positive = st.one_of(st.floats(0.01, 10), edge)
    count = st.one_of(st.integers(-1, 3), st.integers(1, 3))

    def listed(number):
        return st.lists(number, min_size=1, max_size=3).map(lambda xs: ",".join(map(repr, xs)))

    command = draw(st.sampled_from(
        ["gen", "stats", "bound", "nice", "regime", "oracle", "mcdiarmid", "tail", "p4",
         "subgaussian", "deg-moment", "deg-square-sum"]
    ))
    if command == "stats":
        return ["stats", "--in", "{in}"]
    if command == "mcdiarmid":
        return ["mcdiarmid", "--t", repr(draw(positive)),
                "--lipschitz", draw(listed(st.one_of(st.floats(-1, 10), edge)))]
    if command == "gen":  # small sizes, so every draw is quick
        family = draw(st.sampled_from(["complete", "complete-bipartite", "disjoint", "random"]))
        flags = {"--family": family}
        if family == "complete":
            flags.update({"--r": draw(st.integers(-1, 5)), "--N": draw(st.integers(-2, 9))})
        elif family == "complete-bipartite":
            flags.update({"--a": draw(st.integers(0, 3)), "--b-side": draw(st.integers(0, 3)),
                          "--N": draw(st.integers(-2, 9))})
        else:
            flags.update({"--m": draw(st.integers(-1, 30)), "--k": draw(st.integers(-1, 4))})
        if family == "random":
            flags.update({"--n": draw(st.integers(-1, 10)), "--seed": "3"})
        if draw(st.booleans()):
            flags["--budget"] = draw(st.integers(-1, 40))
        return ["gen", *(str(a) for item in flags.items() for a in item)]
    if command == "regime":
        flags = {"--family": draw(st.sampled_from(["complete", "complete-bipartite"])),
                 "--c1": draw(positive)}
        if draw(st.booleans()):
            flags["--N"] = draw(st.integers(-2, 12))
        if flags["--family"] == "complete":
            flags["--r"] = draw(st.integers(-1, 5))
        else:
            flags.update({"--a": draw(st.integers(0, 3)), "--b-side": draw(st.integers(0, 3))})
        return ["regime", *(str(a) for item in flags.items() for a in item)]
    argv = [command] if command in ("bound", "nice", "oracle") else ["simulate", "--task", command]
    flags = {"--in": "{in}", "--p": draw(prob)}
    # nice draws only with --p4-grid, and reads --gamma and --b only then
    drawn = command not in ("bound", "oracle") and (command != "nice" or draw(st.booleans()))
    if command in ("bound", "nice", "p4", "deg-square-sum"):
        flags["--lambda"] = draw(positive)
    if command in ("bound", "p4", "deg-square-sum") or command == "nice" and drawn:
        flags["--gamma"] = draw(positive)
    if command in ("bound", "p4") or command == "nice" and drawn:
        flags["--b"] = draw(positive)
    if command == "bound" and draw(st.booleans()):
        flags["--bk"] = draw(positive)
    if command == "nice" and draw(st.booleans()):
        flags["--n0"] = draw(st.integers(-1, 20))
    if command == "oracle" and draw(st.booleans()):
        flags["--budget"] = draw(st.integers(-1, 300))
    if drawn:
        flags["--seed"] = "3"
        if command != "deg-moment":  # its trial count is the number of vertices
            flags["--trials"] = draw(count)
        if command == "nice" or command == "p4" and draw(st.booleans()):
            flags["--p4-grid"] = draw(listed(prob))
    if command == "tail":
        flags["--thresholds"] = draw(listed(positive))
    if command == "subgaussian":
        flags["--lambdas"] = draw(listed(positive))
        flags["--variance-source"] = draw(st.sampled_from(["exact", "plugin", "none"]))
    if command in ("deg-moment", "deg-square-sum"):
        if draw(st.booleans()):
            flags["--eps-range"] = draw(st.one_of(st.just("0.01,0.9"), listed(prob)))
        if draw(st.booleans()):
            flags["--force-rounds"] = draw(count)
    if command == "deg-moment":
        flags.update({"--round": draw(count), "--vertices": draw(count),
                      "--continuations": draw(st.integers(0, 20))})
    argv += [str(a) for item in flags.items() for a in item]
    if command == "oracle" and draw(st.booleans()):
        argv.append("--dist")
    return argv


@given(tiny_hgr_text(), command_argv())
@example(text="3 3 1\n0 1 2\n", argv=["bound", "--in", "{in}", "--p", "1e-300", "--lambda", "1",
                                      "--gamma", "1", "--b", "1"])
@example(text="3 3 1\n0 1 2\n", argv=["regime", "--family", "complete", "--r", "3", "--N", "0",
                                      "--c1", "0.05"])
@example(text="3 3 1\n0 1 2\n", argv=["regime", "--family", "complete", "--r", "3", "--N", "10",
                                      "--c1", "1e308"])
@example(text="3 3 1\n0 1 2\n", argv=["regime", "--family", "complete", "--r", "3", "--c1", "0.05"])
@example(text="3 3 1\n0 1 2\n", argv=["simulate", "--task", "subgaussian", "--in", "{in}",
                                      "--p", "0.3", "--lambdas", "1e-300", "--seed", "3",
                                      "--trials", "3"])
@example(text="3 3 1\n0 1 2\n", argv=["simulate", "--task", "subgaussian", "--in", "{in}",
                                      "--p", "0.3", "--lambdas", "1e300", "--seed", "3",
                                      "--trials", "3"])
@example(text="3 3 1\n0 1 2\n", argv=["gen", "--family", "disjoint", "--m", "2", "--k", "2",
                                      "--budget", "0"])
@example(text="3 3 1\n0 1 2\n", argv=["gen", "--family", "random", "--n", "9", "--m", "5",
                                      "--k", "3", "--seed", "3", "--budget", "4"])
@settings(max_examples=300, deadline=None)
def test_commands_exit_cleanly(tmp_path_factory, text, argv):
    """An exception escaping dispatch here is a traceback from the command line."""
    path = tmp_path_factory.getbasetemp() / "fuzz.hgr"
    path.write_text(text)
    argv = [str(path) if arg == "{in}" else arg for arg in argv]
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert run(argv)[1] == out
