"""Tests of the benchmark itself: ``python3 -m pytest bench -q`` from the repo root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, NAMES, Command, build  # noqa: E402

cli = run.import_cli()
import hypertail  # noqa: E402
from hypertail import montecarlo, percolation  # noqa: E402


def runner(tmp_path, workload="mc-small", seed=DEFAULT_SEED, golden=None):
    if golden is None:
        golden = run.load_golden(workload, smoke=True)
    return run.Runner(cli, str(tmp_path), golden, seed == DEFAULT_SEED)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_smoke_records_pass_their_checks(tmp_path, name, seed):
    wl = build(name, seed, smoke=True)
    r = runner(tmp_path, name, seed)
    for cmd in wl.setup + wl.commands:
        r.run(cmd)
    assert r.problems == []
    assert (r.attempted, r.failed) == (len(wl.setup) + len(wl.commands), 0)


def test_raising_command_counts_as_failed_and_loop_goes_on(tmp_path):
    # --b is the probability constant, so the bipartite side arrives as a float
    bad = Command(("ext", "--task", "zcheck", "--family", "complete-bipartite", "--a", "2",
                   "--b", "3", "--N", "11", "--q", "0.5", "--trials", "4", "--seed", "1"),
                  trials=4, kind="zcheck")
    wl = build("mc-small", DEFAULT_SEED, smoke=True)
    r = runner(tmp_path)
    r.run(bad)
    r.run(wl.commands[-1])
    assert (r.attempted, r.failed) == (2, 1)
    assert len(r.problems) == 1 and "raised TypeError" in r.problems[0]


def test_usage_error_and_digest_mismatch_are_failures(tmp_path):
    wl = build("mc-small", DEFAULT_SEED, smoke=True)
    balanced = wl.commands[-1]
    r = runner(tmp_path, golden={balanced.template(): "0" * 64})
    r.run(balanced)
    r.run(Command(("oracle", "--in", str(tmp_path / "missing.hgr"), "--p", "0.3")))
    assert r.failed == 2
    assert "golden digest" in r.problems[0] and "exit 1" in r.problems[1]


def test_dist_check_catches_disagreeing_moments():
    cmd = Command(("oracle",), kind="dist")
    good = {"expectation": 1.0, "variance": 2.0, "distribution_mean": 1.0,
            "distribution_variance": 2.0 * (1 + 1e-13)}
    assert run.record_facts(cmd, {"result": good}) == []
    bad = dict(good, distribution_variance=2.0 * (1 + 1e-9))
    assert run.record_facts(cmd, {"result": bad}) != []


def _scan_length(H):
    """What exact_variance's loop visits: ordered overlapping edge pairs."""
    total = 0
    for i, edge in enumerate(H.edges):
        seen = set()
        for v in edge:
            seen.update(H.incidence[v])
        total += len(seen) - 1
    return total


@pytest.mark.parametrize("n,m,k", [(8, 20, 3), (9, 40, 4), (7, 15, 2), (6, 1, 3)])
def test_overlapping_pairs_matches_the_pair_scan(n, m, k):
    H = hypertail.random_uniform(n, m, k, seed=n * m)
    assert spans.overlapping_pairs(H) == _scan_length(H)


def test_tracer_counts_repeat_and_self_times_add_up(tmp_path):
    original = percolation.surviving_edge_mask
    wl = build("mc-large", DEFAULT_SEED, smoke=True)
    r = runner(tmp_path, "mc-large")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert montecarlo.surviving_edge_mask is not original
        units = []
        for _ in range(2):
            tracer.reset()
            wall = sum(r.run(c) for c in wl.setup + wl.commands)
            own = tracer.self_times()
            assert min(own.values()) >= 0
            assert own["cli.dispatch"] > 0
            # the residual is the wrappers' bookkeeping around the outermost spans
            assert sum(own.values()) + tracer.count_s == pytest.approx(wall, rel=0.02)
            units.append(tracer.layer_metrics())
    finally:
        tracer.uninstall()
    assert montecarlo.surviving_edge_mask is original is percolation.surviving_edge_mask
    assert not hasattr(hypertail.TrialStream.uniforms, "__wrapped__")
    assert r.failed == 0
    for name in spans.COUNT_METRICS:
        assert units[0][name] == units[1][name]
    assert units[0]["percolation.mask_calls"] > 0 and units[0]["montecarlo.trials"] > 0


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_single_run_prints_the_contract_result(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-small", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-small", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
