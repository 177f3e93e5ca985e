"""The benchmark's workloads: fixed instances, fixed command mixes.

Each workload is a list of ``gen --out`` set-up commands followed by the
command list one pass runs.  Argv strings carry ``{work}`` where the run's
scratch directory goes.  Every ``--seed`` is derived from the workload seed,
so one seed fixes every input of a run.  Trial counts give passes of a few
seconds on a 2-core x86 machine; ``smoke`` shrinks instances and trial
counts so the benchmark's own tests finish in seconds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import count

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the seed-independent facts its record must show.

    ``trials`` is the number of Monte Carlo trials the command completes; it
    is 0 exactly for the deterministic commands, which take no ``--seed``.
    ``kind`` selects the fact check.
    """

    argv: tuple[str, ...]
    trials: int = 0
    kind: str = "plain"

    def template(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Command, ...]
    commands: tuple[Command, ...]


def derive_seed(workload_seed: int, workload: str, index: int) -> int:
    """63-bit master seed of the index-th stochastic command of a workload."""
    digest = hashlib.sha256(f"{workload}/{index}/{workload_seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _gen(out: str, *family: str) -> Command:
    return Command(("gen", "--family", *family, "--out", "{work}/" + out))


def _seeds(workload_seed: int, workload: str):
    return (str(derive_seed(workload_seed, workload, i)) for i in count(1))


def _scaled(trials: int, smoke: bool) -> int:
    return max(4, trials // 100) if smoke else trials


def mc_large(seed: int, smoke: bool) -> Workload:
    seeds = _seeds(seed, "mc-large")
    hgr = "{work}/k3.hgr"
    tail, p4 = _scaled(400, smoke), _scaled(100, smoke)
    nice = ("--lambda", "2", "--gamma", "10", "--b", "1")
    return Workload(
        name="mc-large",
        setup=(_gen("k3.hgr", "complete", "--r", "3", "--N", "30" if smoke else "100"),),
        commands=(
            Command(("stats", "--in", hgr)),
            Command(("bound", "--in", hgr, "--p", "0.05", *nice)),
            Command(
                ("simulate", "--in", hgr, "--p", "0.05", "--task", "tail",
                 "--thresholds", "5,10,20", "--trials", str(tail), "--seed", next(seeds)),
                trials=tail, kind="estimates",
            ),
            Command(
                ("simulate", "--in", hgr, "--p", "0.05", "--task", "p4", "--p4-grid", "0.1,0.2",
                 *nice, "--trials", str(p4), "--seed", next(seeds)),
                trials=2 * p4, kind="grid",
            ),
        ),
    )


def mc_small(seed: int, smoke: bool) -> Workload:
    seeds = _seeds(seed, "mc-small")
    trials, z23 = _scaled(10_000, smoke), _scaled(20, smoke)
    return Workload(
        name="mc-small",
        setup=(
            _gen("k3.hgr", "complete", "--r", "3", "--N", "30"),
            _gen("disjoint.hgr", "disjoint", "--m", "200", "--k", "3"),
            _gen("k3n7.hgr", "complete", "--r", "3", "--N", "7"),
        ),
        commands=(
            Command(
                ("simulate", "--in", "{work}/k3.hgr", "--p", "0.3", "--task", "subgaussian",
                 "--lambdas", "0.5,1,2", "--variance-source", "exact",
                 "--trials", str(trials), "--seed", next(seeds)),
                trials=trials, kind="estimates",
            ),
            Command(
                ("simulate", "--in", "{work}/disjoint.hgr", "--p", "0.3", "--task", "tail",
                 "--thresholds", "2,4,8", "--trials", str(trials), "--seed", next(seeds)),
                trials=trials, kind="estimates",
            ),
            # brute-force ground truth on tiny instances: the 2^21-subset law
            # and the extension scans
            Command(("oracle", "--in", "{work}/k3n7.hgr", "--p", "0.3", "--dist"), kind="dist"),
            Command(
                ("ext", "--task", "zcheck", "--family", "complete-bipartite", "--a", "2",
                 "--b-side", "3", "--N", "11", "--q", "0.5", "--trials", str(z23),
                 "--seed", next(seeds)),
                trials=z23, kind="zcheck",
            ),
            Command(("ext", "--task", "balanced", "--family", "complete-bipartite", "--a", "4",
                     "--b-side", "8", "--roots", "2")),
        ),
    )


BUILDERS = {"mc-large": mc_large, "mc-small": mc_small}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return BUILDERS[name](seed, smoke)
