"""Byte-level pins of the record every subcommand and task emits.

Each case runs one argv on a tiny instance and compares a SHA-256 of the
record's ``cmd``, ``params`` and ``result`` (floats kept as the emitted
17-digit text; ``versions`` left out) with a digest captured from a known-good
build.  ``gen`` without ``--out`` prints HGR text, which is digested as is.
Paths in the records are relative: every case runs inside one directory.

The params tests check, for every command and task, that a record echoes each
flag it is given under the flag's own name, save the flags one table pins as
left out, each with its reason.
"""

import hashlib
import io
import json

import pytest

from hypertail import Hypergraph, complete, disjoint_edges, subgraph_hypergraph
from hypertail.cli import FLAGS, dispatch
from hypertail.hgr import write_hgr

NICE = ["--p", "0.1", "--lambda", "2", "--n0", "10"]
NICE_GRID = [*NICE, "--gamma", "4", "--b", "1"]
BOUND = ["--p", "0.1", "--lambda", "2", "--gamma", "4", "--b", "1", "--bk", "0.01"]
SCHEDULE = ["--eps-range", "0.1,0.5", "--force-rounds", "3"]

CASES = {
    "gen-complete-out": ["gen", "--family", "complete", "--r", "3", "--N", "5", "--out", "g.hgr"],
    "gen-complete-stdout": ["gen", "--family", "complete", "--r", "3", "--N", "5"],
    "gen-bipartite-out": ["gen", "--family", "complete-bipartite", "--a", "1", "--b-side", "2",
                          "--N", "5", "--out", "g.hgr"],
    "gen-bipartite-stdout": ["gen", "--family", "complete-bipartite", "--a", "1", "--b-side", "2",
                             "--N", "5"],
    "gen-disjoint-out": ["gen", "--family", "disjoint", "--m", "4", "--k", "3", "--out", "g.hgr"],
    "gen-disjoint-stdout": ["gen", "--family", "disjoint", "--m", "4", "--k", "3"],
    "gen-random-out": ["gen", "--family", "random", "--n", "9", "--m", "6", "--k", "3",
                       "--seed", "4", "--out", "g.hgr"],
    "gen-random-stdout": ["gen", "--family", "random", "--n", "9", "--m", "6", "--k", "3",
                          "--seed", "4"],
    "stats": ["stats", "--in", "k3.hgr"],
    "stats-isolated": ["stats", "--in", "isolated.hgr"],
    "stats-k1": ["stats", "--in", "k1.hgr"],
    "nice": ["nice", "--in", "k3.hgr", *NICE],
    "nice-p4-grid": ["nice", "--in", "k3.hgr", *NICE_GRID, "--p4-grid", "0.2,0.3",
                     "--trials", "60", "--seed", "5"],
    "bound": ["bound", "--in", "k3.hgr", *BOUND],
    "regime-complete": ["regime", "--family", "complete", "--r", "3", "--N", "50", "--c1", "0.05"],
    "regime-bipartite": ["regime", "--family", "complete-bipartite", "--a", "2", "--b-side", "2",
                         "--N", "50", "--c1", "0.05"],
    "oracle": ["oracle", "--in", "k3.hgr", "--p", "0.3"],
    "oracle-dist": ["oracle", "--in", "k3.hgr", "--p", "0.3", "--dist"],
    "mcdiarmid": ["mcdiarmid", "--t", "2", "--lipschitz", "1,0.5,0.25"],
    "simulate-tail": ["simulate", "--in", "disj.hgr", "--p", "0.3", "--task", "tail",
                      "--thresholds", "1,2", "--trials", "200", "--seed", "7"],
    "simulate-p4": ["simulate", "--in", "k3.hgr", "--p", "0.1", "--task", "p4",
                    "--p4-grid", "0.2,0.3", "--lambda", "2", "--gamma", "4", "--b", "1",
                    "--trials", "100", "--seed", "8"],
    "simulate-subgaussian-exact": ["simulate", "--in", "k3.hgr", "--p", "0.3",
                                   "--task", "subgaussian", "--lambdas", "0.5,1",
                                   "--variance-source", "exact", "--trials", "200",
                                   "--seed", "9"],
    "simulate-subgaussian-plugin": ["simulate", "--in", "k3.hgr", "--p", "0.3",
                                    "--task", "subgaussian", "--lambdas", "0.5,1",
                                    "--variance-source", "plugin", "--trials", "200",
                                    "--seed", "9"],
    "simulate-deg-moment": ["simulate", "--in", "k3.hgr", "--p", "0.125", "--task", "deg-moment",
                            *SCHEDULE, "--round", "1", "--vertices", "3",
                            "--continuations", "100", "--seed", "10"],
    "simulate-deg-square-sum": ["simulate", "--in", "k3.hgr", "--p", "0.125",
                                "--task", "deg-square-sum", *SCHEDULE, "--lambda", "2",
                                "--gamma", "2", "--trials", "50", "--seed", "11"],
    "expose": ["expose", "--in", "k3.hgr", "--p", "0.125", *SCHEDULE, "--lambda", "2",
               "--gamma", "4", "--trials", "30", "--seed", "12"],
    "ext-balanced": ["ext", "--task", "balanced", "--family", "complete", "--r", "4",
                     "--roots", "2"],
    "ext-expected": ["ext", "--task", "expected", "--family", "complete", "--r", "3",
                     "--N", "8", "--q", "0.5"],
    "ext-zcheck-complete": ["ext", "--task", "zcheck", "--family", "complete", "--r", "3",
                            "--N", "6", "--q", "0.5", "--trials", "30", "--seed", "13"],
    "ext-zcheck-bipartite": ["ext", "--task", "zcheck", "--family", "complete-bipartite",
                             "--a", "2", "--b-side", "2", "--N", "6", "--q", "0.5",
                             "--trials", "20", "--seed", "14"],
    "ext-caps": ["ext", "--task", "caps", "--family", "complete", "--r", "3", "--N", "7",
                 "--p", "0.2", "--q", "0.5", "--lambda", "2", "--gamma", "1000", "--b", "1",
                 "--trials", "30", "--seed", "15"],
    "ext-caps-three-roots": ["ext", "--task", "caps", "--family", "complete", "--r", "4",
                             "--N", "8", "--p", "0.2", "--q", "0.5", "--lambda", "2",
                             "--gamma", "4", "--b", "1", "--trials", "60", "--seed", "3"],
}

DIGESTS = {
    "bound": "5a0362fc0417cd4cbb378e67509cf9f738db43c54d8ca11d4c8953ed8c74a9b0",
    "expose": "23068ceccf5ed01aaa5ecb62a9bec64563ec5d3702a07a207f03b4df47875d2c",
    "ext-balanced": "69cd01a1b9369ee20e49e4f91b6350b7b75ea65ed6a91cb5251209ea01fb9870",
    "ext-caps": "33c543b2cbfd932fa153c1dced2610545009c1848fef51b5508ea2eb7dee74f2",
    "ext-caps-three-roots": "3b37d982c576c40208f17c4c2f389def5e7340cd335cfb6b72fea1e637d37f0f",
    "ext-expected": "15ac680bcf94a7b19fafde9ce0decc601886d7a5958429a05add7c6253ae179c",
    "ext-zcheck-bipartite": "282c59e810b7a6e4569468fe423001fb9b3a515be9dddba5966f6250f1476e09",
    "ext-zcheck-complete": "9e91fd224314cf2803965e445c256fea9a3d7e12cafabc9068cc69733cbb40f0",
    "gen-bipartite-out": "6539eed148c5a9c22d96e2b72f5cac70e05a823671cc96db90fe0901fb78005f",
    "gen-bipartite-stdout": "597d89486a17d4de5dee29d1b1bbf0ee7ab906b934f92f56f801df7845b1b511",
    "gen-complete-out": "52a35a5702a7c427f80bf8d150da7908d11be2d065aa05e6b2516988d6db0bd6",
    "gen-complete-stdout": "0c728ac3c863c355ce06da481ec85342208553224100e6ac54792e981f9b62e3",
    "gen-disjoint-out": "03cc4277a92064ee25dfd9e3373c341e3bdb79eaaad1505f6c971ac37ed7aef0",
    "gen-disjoint-stdout": "6c71cc2f5b6b3badb372af251ab8500198f9c0c92717589927e1a16565e8c343",
    "gen-random-out": "275bdb4be33400330f30551c432831d3f9f8bedee3e7056d937fb3a0bcc1c9aa",
    "gen-random-stdout": "2c2d3bfd8342057bf9cd7667ce1ac96397562c78bde6fd2d92a802605e7e3b00",
    "mcdiarmid": "6fb68c9fc359d48e3eb4c15eaf5d23d8b0f96834f9a5815a1b046ae8c18f3f89",
    "nice": "df4d791ae14089609beedc8ee224152bb90efb5fadb3e03e5bb009a478ffc421",
    "nice-p4-grid": "dc2174d13daff2aef4a85a789d73c73e6d4c2b73674bcbaea5eacdb7c0ff2538",
    "oracle": "a2ea4465d0d8bfcb8ea1f81f53d62792249d9e711414b2ecf49bd71be7aaf790",
    "oracle-dist": "574f242cfac414de9803677452f6abc00d57ef02859b35de612d2ab959e8488f",
    "regime-bipartite": "ce813f2a0582350625a0df040f5c6bf4696747b972e900a74410f0f12892d909",
    "regime-complete": "668253fb3b4c9b91d4e744882d5feb1dfb825084bf029419a279665d774667a1",
    "simulate-deg-moment": "630af75adcaa85a5d00bc9c34dd8260ae37f33d4a6df91215e0cf81441566f90",
    "simulate-deg-square-sum": "70728bd4957d5d6372deccc0ddf058d58cac7148e5cd56dd028ca5a909c93f3a",
    "simulate-p4": "87f806069b4b53ff8c9b50b2610cea76ab3a89b373690a1319989b2a22ec5f57",
    "simulate-subgaussian-exact": "1a612ac92c5828ae77fc88262fb59a7a5218bd901d59552641df86da4684d653",
    "simulate-subgaussian-plugin": "576fa8534acf1b7fe069008023e93ef016a174d741d020c81693f5f0aa2b7c76",
    "simulate-tail": "13c32195e4d77faa6966d58b89b04491e5a2c694957bc6181112bc63139ca283",
    "stats": "f9d106ac22dc0eff2efb38a59aa8411e86e998f10bd3d2a801456020e81cc4b9",
    "stats-isolated": "ad1ea9442dbcb5554308cdb8899c7b66e7fba5a013015293fe2b501838e30817",
    "stats-k1": "779adeec30a67ca107a8a096a97e271d6c3566e1f361db5304371e617eb23b69",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("records")
    write_hgr(subgraph_hypergraph(complete(3), 6), path / "k3.hgr")
    write_hgr(disjoint_edges(6, 3), path / "disj.hgr")
    write_hgr(Hypergraph(6, 2, [(0, 1), (1, 2), (1, 3)]), path / "isolated.hgr")  # 4 and 5 isolated
    write_hgr(Hypergraph(3, 1, [(0,), (1,), (2,)]), path / "k1.hgr")
    return path


def digest(out: str, raw: bool) -> str:
    if raw:
        body = out
    else:
        rec = json.loads(out, parse_float=str)
        body = json.dumps({key: rec[key] for key in ("cmd", "params", "result")},
                          sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def emit(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    assert dispatch(argv, stdout=out, stderr=err) == 0, err.getvalue()
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_bytes_are_pinned(case, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    argv = CASES[case]
    out = emit(argv)
    raw = argv[0] == "gen" and "--out" not in argv
    if not raw:
        assert out.count("\n") == 1
    assert digest(out, raw) == DIGESTS[case]


# --- params ----------------------------------------------------------------

# Every flag a record's params leave out, by command (and task), with its
# reason.  Every other flag on an argv but --out is echoed under
# its name without the leading dashes, hyphens made underscores.
#   encoded  another key carries the value: ``pattern``, or the exposure
#            schedule's ``epsilon``, ``rounds`` and ``strict_mode``
#   gate     it only decides whether the command can run
#   unread   ext takes it in its shared flag set, but the task does not read it
PATTERN_FLAGS = {"--r": "encoded", "--a": "encoded", "--b-side": "encoded"}
SCHEDULE_FLAGS = {"--eps-range": "encoded", "--force-rounds": "encoded", "--strict": "encoded"}
NICE_FLAGS = ("--p", "--lambda", "--gamma", "--b", "--bk", "--n0")
OMITTED = {
    "gen": PATTERN_FLAGS,
    "regime": PATTERN_FLAGS,
    "oracle": {"--budget": "gate"},
    "expose": SCHEDULE_FLAGS,
    "simulate subgaussian": {"--budget": "gate"},
    "simulate deg-moment": SCHEDULE_FLAGS,
    "simulate deg-square-sum": SCHEDULE_FLAGS,
    "ext balanced": {
        **PATTERN_FLAGS,
        **dict.fromkeys(("--seed", "--trials", "--workers", "--significance", "--N", "--q"),
                        "unread"),
        **dict.fromkeys(NICE_FLAGS + ("--conditioned",), "unread"),
    },
    "ext expected": {
        **PATTERN_FLAGS,
        **dict.fromkeys(("--seed", "--trials", "--workers", "--significance"), "unread"),
        **dict.fromkeys(NICE_FLAGS + ("--conditioned",), "unread"),
    },
    "ext zcheck": {
        **PATTERN_FLAGS,
        **dict.fromkeys(("--significance", "--roots") + NICE_FLAGS, "unread"),
    },
    "ext caps": {
        **PATTERN_FLAGS,
        **dict.fromkeys(("--roots", "--bk", "--n0", "--conditioned"), "unread"),
    },
}

# ext's flags besides the pattern's and --task, each with a valid value
EXT_FLAGS = ["--roots", "2", "--N", "6", "--q", "0.5", "--seed", "1", "--trials", "5",
             "--workers", "1", "--significance", "0.05", "--p", "0.1", "--lambda", "2",
             "--gamma", "3", "--b", "1", "--bk", "0.1", "--n0", "5", "--conditioned", "3"]
BIPARTITE = ["--family", "complete-bipartite", "--a", "2", "--b-side", "2"]

# argv beyond CASES that give every flag OMITTED lists
OMISSION_CASES = {
    "gen-budget": ["gen", "--family", "complete", "--r", "3", "--N", "5", "--budget", "100",
                   "--out", "g.hgr"],
    "nice-p4-grid-significance": ["nice", "--in", "k3.hgr", *NICE_GRID, "--p4-grid", "0.2",
                                  "--trials", "20", "--workers", "1", "--significance", "0.05",
                                  "--seed", "5"],
    "oracle-budget": ["oracle", "--in", "k3.hgr", "--p", "0.3", "--dist", "--budget", "40000"],
    "expose-strict": ["expose", "--in", "k3.hgr", "--p", "1e-6", "--strict", "--force-rounds", "2",
                      "--lambda", "2", "--gamma", "4", "--trials", "5", "--seed", "1"],
    "simulate-subgaussian-budget": ["simulate", "--in", "k3.hgr", "--p", "0.3",
                                    "--task", "subgaussian", "--lambdas", "0.5",
                                    "--budget", "1000", "--trials", "20", "--seed", "1"],
    "simulate-deg-moment-strict": ["simulate", "--in", "k3.hgr", "--p", "1e-6",
                                   "--task", "deg-moment", "--strict", "--round", "1",
                                   "--vertices", "2", "--continuations", "20", "--seed", "1"],
    "simulate-deg-square-sum-strict": ["simulate", "--in", "k3.hgr", "--p", "1e-6",
                                       "--task", "deg-square-sum", "--strict", "--trials", "5",
                                       "--seed", "1"],
    "ext-balanced-all": ["ext", "--task", "balanced", "--family", "complete", "--r", "4",
                         *EXT_FLAGS],
    "ext-balanced-bipartite": ["ext", "--task", "balanced", *BIPARTITE],
    "ext-expected-all": ["ext", "--task", "expected", "--family", "complete", "--r", "3",
                         *EXT_FLAGS],
    "ext-expected-bipartite": ["ext", "--task", "expected", *BIPARTITE, "--N", "6", "--q", "0.5"],
    "ext-zcheck-all": ["ext", "--task", "zcheck", "--family", "complete", "--r", "3", *EXT_FLAGS],
    "ext-caps-all": ["ext", "--task", "caps", "--family", "complete", "--r", "3", *EXT_FLAGS],
    "ext-caps-bipartite": ["ext", "--task", "caps", *BIPARTITE, "--N", "6", "--p", "0.2",
                           "--q", "0.5", "--lambda", "2", "--gamma", "1000", "--trials", "10",
                           "--seed", "1"],
}

# gen without --out prints HGR text, not a record
RECORD_CASES = {
    name: argv for name, argv in {**CASES, **OMISSION_CASES}.items()
    if argv[0] != "gen" or "--out" in argv
}


def omission_row(argv) -> str:
    """The OMITTED row that ``argv``'s record is checked against."""
    if argv[0] in ("simulate", "ext"):
        return f"{argv[0]} {argv[argv.index('--task') + 1]}"
    if argv[0] == "nice" and "--p4-grid" in argv:
        return "nice --p4-grid"
    return argv[0]


def given_flags(argv) -> list[str]:
    return [tok for tok in argv if tok.startswith("--") and tok != "--out"]


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_params_echo_each_flag_under_its_own_name(case, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    argv = RECORD_CASES[case]
    params = json.loads(emit(argv))["params"]
    omitted = OMITTED.get(omission_row(argv), {})
    for flag in given_flags(argv):
        key = flag.lstrip("-").replace("-", "_")
        if flag in omitted:
            assert key not in params, f"{flag} is pinned as {omitted[flag]} but echoed"
            continue
        assert key in params, f"{flag} is neither echoed nor pinned"
        options = FLAGS[flag]
        if options.get("action") == "store_true":
            assert params[key] is True, flag
        elif "type" in options:
            assert params[key] == options["type"](argv[argv.index(flag) + 1]), flag


def test_every_pinned_omission_is_given_by_some_argv():
    given = {
        (omission_row(argv), flag) for argv in RECORD_CASES.values() for flag in given_flags(argv)
    }
    pinned = {(row, flag) for row, flags in OMITTED.items() for flag in flags}
    assert pinned - given == set()
    reasons = {reason for flags in OMITTED.values() for reason in flags.values()}
    assert reasons == {"encoded", "gate", "unread"}
