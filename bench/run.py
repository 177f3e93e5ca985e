#!/usr/bin/env python3
"""Benchmark of the hypertail CLI: two workloads, record checks, per-layer trace.

One workload per process, one command after another (a closed loop with one
client), driven in-process through ``hypertail.cli.dispatch``:

    python3 bench/run.py --workload mc-large --seed 1 --seconds 60 --trace 0
    python3 bench/run.py                 # every workload, untraced and traced
    python3 bench/run.py --smoke --seconds 1
    python3 bench/run.py --capture-golden

The program is imported from ``src/`` of the checkout holding this file.  The
last stdout line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Scratch files
go to ``.bench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
sys.path.insert(0, str(BENCH))

from spans import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, NAMES, Command, Workload, build  # noqa: E402

DEFAULT_SECONDS = 60
REL_TOL = 1e-12

# Layer self-time shares: the workload with most of the layer's work, then
# the one with little of it.  Printed and checked by the all-workloads run.
# `cli` and `montecarlo` have no contrast: both workloads lean on them.
CONTRASTS = {
    "hgr.self_s": ("mc-large", "mc-small"),
    "generators.self_s": ("mc-large", "mc-small"),
    "core.self_s": ("mc-large", "mc-small"),
    "rng.self_s": ("mc-small", "mc-large"),
    "percolation.self_s": ("mc-large", "mc-small"),
    "oracle.self_s": ("mc-small", "mc-large"),
    "extensions.self_s": ("mc-small", "mc-large"),
    "bounds.eval_s": ("mc-large", "mc-small"),
}
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import hypertail.cli; print(time.perf_counter() - t)"
)


def load_spec() -> dict[str, dict[str, str]]:
    """Metric name -> unit for each section of BENCHMARK.json, in its order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def import_cli():
    """The hypertail.cli module from this checkout's src/, or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import hypertail.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import hypertail from {SRC}: {exc}")
    if Path(hypertail.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: hypertail was imported from outside {SRC}")
    return hypertail.cli


def child_import_s() -> float:
    """Seconds to import hypertail.cli in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def machine() -> dict:
    import numpy
    import scipy

    def first(path: str, key: str | None = None) -> str:
        try:
            with open(path) as fh:
                for line in fh:
                    if key is None:
                        return line.strip()
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpu": first("/proc/cpuinfo", "model name"),
        "l3": first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def record_digest(line: str, work: str) -> str:
    """Digest of a record's cmd and result as emitted (17-digit float text kept)."""
    raw = json.loads(line, parse_float=str)
    body = json.dumps({"cmd": raw["cmd"], "result": raw["result"]}, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(body.replace(json.dumps(work)[1:-1], "{work}").encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def record_facts(cmd: Command, rec: dict) -> list[str]:
    """Seed-independent facts the record of ``cmd`` must show."""
    result = rec["result"]
    if cmd.kind == "estimates":
        ok = result["estimates"] and all(e["trials"] == cmd.trials for e in result["estimates"])
        return [] if ok else [f"estimates do not all carry {cmd.trials} trials"]
    if cmd.kind == "grid":
        ok = result["grid"] and all(
            pt["trials"] * len(result["grid"]) == cmd.trials for pt in result["grid"]
        )
        return [] if ok else [f"grid points do not share {cmd.trials} trials evenly"]
    if cmd.kind == "zcheck":
        problems = []
        if result["mismatches"] != 0:
            problems.append(f"zcheck reports {result['mismatches']} mismatches")
        if result["trials_total"] != cmd.trials:
            problems.append(f"zcheck ran {result['trials_total']} trials, not {cmd.trials}")
        return problems
    if cmd.kind == "dist":
        ok = _close(result["distribution_mean"], result["expectation"])
        ok = ok and _close(result["distribution_variance"], result["variance"])
        return [] if ok else ["exact law disagrees with the exact moments"]
    return []


class Runner:
    """Runs commands through ``cli.dispatch``, checks their records, counts failures.

    ``dispatch`` is looked up on ``cli`` at each call, so a tracer installed
    later wraps it too.  ``golden`` maps argv templates to record digests.
    Every command needs a matching digest at the default seed; at other
    seeds only deterministic commands do.  With ``capture`` set, digests are
    stored there instead.
    """

    def __init__(self, cli, work: str, golden: dict, default_seed: bool, capture=None):
        self.cli, self.work, self.golden = cli, work, golden
        self.default_seed, self.capture = default_seed, capture
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run(self, cmd: Command) -> float:
        """Run one command; returns the seconds dispatch took."""
        argv = [arg.replace("{work}", self.work) for arg in cmd.argv]
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        start = perf_counter()
        try:
            code = self.cli.dispatch(argv, stdout=out, stderr=err)
        except Exception as exc:  # a raising command is a failed op; the loop goes on
            elapsed = perf_counter() - start
            where = traceback.extract_tb(exc.__traceback__)[-1]
            problems = [f"raised {type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"]
        else:
            elapsed = perf_counter() - start
            problems = (
                [f"exit {code}: {err.getvalue().strip()}"] if code != 0
                else self.check(cmd, out.getvalue())
            )
        if problems:
            self.failed += 1
            self.problems.extend(f"{cmd.template()}: {p}" for p in problems)
        return elapsed

    def check(self, cmd: Command, text: str) -> list[str]:
        lines = text.splitlines()
        if len(lines) != 1:
            return [f"expected one record, got {len(lines)} lines"]
        digest = record_digest(lines[0], self.work)
        problems = record_facts(cmd, json.loads(lines[0]))
        if self.capture is not None:
            self.capture[cmd.template()] = digest
            return problems
        want = self.golden.get(cmd.template())
        if want is None and (self.default_seed or not cmd.trials):
            problems.append("no golden digest for this argv")
        elif want is not None and want != digest:
            problems.append("record differs from its golden digest")
        return problems

    def run_pass(self, wl: Workload) -> tuple[float, float]:
        """One pass of the command list: (seconds, seconds in stochastic commands)."""
        wall = stochastic = 0.0
        for cmd in wl.commands:
            elapsed = self.run(cmd)
            wall += elapsed
            if cmd.trials:
                stochastic += elapsed
        return wall, stochastic


def setup(runner: Runner, wl: Workload) -> float:
    """One set-up: import hypertail.cli in a fresh interpreter, then the gen commands."""
    return child_import_s() + sum(runner.run(c) for c in wl.setup)


def untraced(runner: Runner, wl: Workload, seconds: float) -> tuple[dict, int]:
    """Passes for ``seconds``, with a set-up before every second pass.

    Set-ups take less of the run than passes that way.  No set-up or pass
    starts that would end later.  ``setup_s`` is the median set-up;
    ``wall_s`` and ``trials_per_s`` come from the fastest pass, because
    other tenants of a shared host slow each CPU in phases of seconds to
    minutes, and a median pass records how long those phases lasted.
    """
    trials = sum(c.trials for c in wl.commands)
    setups, walls, rates = [], [], []
    start = perf_counter()
    while True:
        redo = len(walls) % 2 == 0
        if walls and perf_counter() - start + redo * setups[-1] + walls[-1] > seconds:
            break
        if redo:
            setups.append(setup(runner, wl))
        wall, in_trials = runner.run_pass(wl)
        walls.append(wall)
        rates.append(trials / in_trials)
    metrics = {
        "setup_s": median(setups),
        "wall_s": min(walls),
        "trials_per_s": max(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, len(walls)


def traced(runner: Runner, wl: Workload, seconds: float) -> tuple[dict, int]:
    """Rounds of one untraced pass and one traced unit for ``seconds``, at least two.

    A unit imports hypertail.cli in a fresh interpreter (``cli.import_s``,
    outside the trace), then runs the gen commands and one pass traced
    (``trace.wall_s``).  ``trace.overhead_s`` compares the traced passes
    with the untraced passes of the same rounds.
    """
    for cmd in wl.setup:
        runner.run(cmd)
    tracer = Tracer()
    units, plain, walls = [], [], []
    start = perf_counter()
    while len(units) < 2 or (
        perf_counter() - start + plain[-1] + units[-1]["cli.import_s"] + units[-1]["trace.wall_s"]
        <= seconds
    ):
        plain.append(runner.run_pass(wl)[0])
        imported = child_import_s()
        tracer.reset()
        tracer.install()
        try:
            gen = sum(runner.run(c) for c in wl.setup)
            wall = runner.run_pass(wl)[0]
        finally:
            tracer.uninstall()
        unit = tracer.layer_metrics()
        unit["cli.import_s"] = imported
        unit["trace.wall_s"] = gen + wall
        units.append(unit)
        walls.append(wall)
    metrics = {name: median(u[name] for u in units) for name in units[0]}
    metrics["trace.overhead_s"] = median(walls) - median(plain)
    return metrics, len(units)


def scratch_dir(name: str) -> Path:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work"))


def remove_scratch(work: Path) -> None:
    shutil.rmtree(work)
    try:
        work.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def load_golden(workload: str, smoke: bool) -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)["smoke" if smoke else "full"].get(workload, {})


def run_workload(args) -> int:
    units = load_spec()["per_layer" if args.trace else "end_to_end"]
    cli = import_cli()
    wl = build(args.workload, args.seed, args.smoke)
    work = scratch_dir(wl.name)
    try:
        runner = Runner(cli, str(work), load_golden(wl.name, args.smoke),
                        args.seed == DEFAULT_SEED)
        measure = traced if args.trace else untraced
        measured, passes = measure(runner, wl, args.seconds)
    finally:
        remove_scratch(work)
    metrics = {name: measured[name] for name in units}
    info = dict(machine(), workload=wl.name, seed=args.seed, smoke=args.smoke,
                trace=args.trace, passes=passes)
    print("# machine " + json.dumps(info, sort_keys=True))
    for problem in runner.problems[:20]:
        print(f"# FAILED {problem}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced.

    Exits 1 when a command fails or a layer's self-time share is not larger
    on the workloads with most of its work than on those with little of it.
    """
    results, ok = {}, True
    for name in NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            for line in lines[:-1]:
                if line.startswith("# machine") and name == NAMES[0] and trace == 0:
                    print(line)
                elif line.startswith("# FAILED"):
                    print(f"{name}: {line}")
            if done.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            results[(name, trace)] = result
            frac = result["failed"] / result["attempted"]
            print(f"{name} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} failed_ops_frac={frac:g}")
            for metric, m in result["metrics"].items():
                print(f"  {name:9s} {metric:28s} {m['value']:14.6g} {m['unit']}")
    print("self-time share of traced wall time (most work in > little in):")
    for metric, (most, little) in CONTRASTS.items():
        if (most, 1) in results and (little, 1) in results:
            share = {
                name: results[(name, 1)]["metrics"][metric]["value"]
                / results[(name, 1)]["metrics"]["trace.wall_s"]["value"]
                for name in (most, little)
            }
            met = share[most] > share[little]
            ok = ok and met
            print(f"  {metric:18s} {'met' if met else 'NOT MET'}: "
                  f"{most}={share[most]:.3g} {little}={share[little]:.3g}")
    return 0 if ok else 1


def capture_golden() -> int:
    """Write golden digests of every record at the default seed, full and smoke."""
    cli = import_cli()
    golden = {"seed": DEFAULT_SEED}
    for mode, smoke in (("full", False), ("smoke", True)):
        golden[mode] = {}
        for name in NAMES:
            wl = build(name, DEFAULT_SEED, smoke)
            work = scratch_dir(name)
            try:
                digests = {}
                runner = Runner(cli, str(work), {}, False, capture=digests)
                for cmd in wl.setup + wl.commands:
                    runner.run(cmd)
            finally:
                remove_scratch(work)
            if runner.failed:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
            golden[mode][name] = digests
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=NAMES, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances and trial counts")
    parser.add_argument("--capture-golden", action="store_true",
                        help="rewrite golden.json from the current program")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.capture_golden:
        return capture_golden()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
