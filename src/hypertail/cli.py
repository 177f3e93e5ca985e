"""Command-line front end: generation, IO, bound evaluation and campaigns.

Every command emits one JSON object per line with keys ``cmd``, ``params``,
``result`` and ``versions``; floats are serialized with 17 significant
digits, so identical argv (and master seed) reproduce identical bytes.
Wall-clock timings go to stderr, never into records.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import secrets
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np
import scipy

from . import __version__, bounds, extensions, generators, hgr, montecarlo, oracle, percolation
from .core import BudgetError, InfeasibleError, stats_of
from .rng import TrialStream


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _dump(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats and sorted keys."""
    if obj is None or isinstance(obj, (bool, np.bool_)):
        return json.dumps(bool(obj) if obj is not None else None)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("non-finite value in output record")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_dump(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_dump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _versions() -> dict:
    return {"hypertail": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _record(cmd: str, params: dict, result) -> dict:
    """One output record.  ``params`` echoes the command's flags through
    :func:`_echo` and adds by hand only values that no flag holds as given:
    the resolved ``seed`` and ``seed_auto``, ``gen``'s resolved ``budget``,
    parsed number lists, the ``pattern`` label and ``expose``'s schedule."""
    return {"cmd": cmd, "params": params, "result": result, "versions": _versions()}


def _result(report, drop=(), **extra) -> dict:
    """A record's ``result``: the dataclass ``report``'s fields less ``drop``, plus ``extra``."""
    out = asdict(report)
    for key in drop:
        del out[key]
    out.update(extra)
    return out


def _load_config(path) -> dict:
    config = {}
    if path is None:
        return config
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"config line {line!r} is not key=value")
            key, value = line.split("=", 1)
            config[key.strip()] = value.strip()
    return config


# The flags a --config file may supply: their type and the default used when
# neither the command line nor the file gives a value.
CONFIG_KEYS = {
    "seed": (str, None),
    "trials": (int, 1000),
    "workers": (int, 1),
    "budget": (int, None),
}


def _apply_config(args, config: dict) -> None:
    """Set every config-suppliable flag left unset: from the file, else its default."""
    for key, (cast, default) in CONFIG_KEYS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, cast(config[key]) if key in config else default)
    if getattr(args, "budget", None) is not None and args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {args.budget}")


def _resolve_seed(args) -> tuple[int, bool]:
    if args.seed is None:
        raise UsageError("stochastic command requires --seed (use '--seed auto' to draw one)")
    if args.seed == "auto":
        return secrets.randbits(63), True
    try:
        return int(args.seed), False
    except ValueError as exc:
        raise UsageError(f"--seed must be an integer or 'auto', got {args.seed!r}") from exc


@contextmanager
def _blame_flag(flags: dict):
    """Re-raise a float overflow or underflow naming the flag to change: of
    ``flags`` (flag -> the values it gave), the one whose value lies most
    orders of magnitude from 1."""
    try:
        yield
    except ArithmeticError as exc:
        reach = [
            (abs(math.log10(abs(v))) if v else math.inf, flag, v)
            for flag, values in flags.items()
            for v in values
        ]
        _, flag, value = max(reach)
        message = f"{flag} {value} is out of double-precision range here ({type(exc).__name__})"
        raise ArithmeticError(message) from None


def _floats(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok]
    if not values:
        raise UsageError("expected a comma-separated list of numbers")
    return values


def _graph_spec(args) -> generators.GraphSpec:
    if args.family == "complete":
        if args.r is None:
            raise UsageError("--family complete requires --r")
        return generators.complete(args.r)
    if args.family == "complete-bipartite":
        if args.a is None or args.b is None:
            raise UsageError("--family complete-bipartite requires --a and --b-side")
        return generators.complete_bipartite(args.a, args.b)
    raise UsageError(f"unsupported pattern family {args.family!r}")


def _trial_config(args, seed) -> montecarlo.TrialConfig:
    return montecarlo.TrialConfig(
        master_seed=seed,
        trials=args.trials,
        significance=args.significance,
        workers=args.workers,
    )


def _niceness_params(args) -> bounds.NicenessParams:
    return bounds.NicenessParams(
        p=args.p,
        lam=args.lam,
        gamma_cap=args.gamma,
        b=args.b,
        b_k=args.bk,
        n0=getattr(args, "n0", bounds.DEFAULT_N0),  # simulate --task p4 takes no --n0
    )


def _key(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _echo(args, flags) -> dict:
    """The values of ``flags`` as record params.  A flag's key is its name
    without the leading dashes and with hyphens made underscores
    (``--p4-grid`` -> ``p4_grid``, ``--in`` -> ``in``); its value is the
    attribute named by its ``dest`` in FLAGS."""
    return {_key(flag): getattr(args, FLAGS[flag].get("dest", _key(flag))) for flag in flags}


def _cmd_gen(args):
    if args.family not in GEN_FAMILIES:
        raise UsageError(f"unknown family {args.family!r}")
    _parse_only(args, ("--family", "--budget") + GEN_FAMILIES[args.family])
    budget = args.budget or generators.DEFAULT_ENUMERATION_BUDGET
    params = {**_echo(args, ("--family",)), "budget": budget}
    if args.family in PATTERN_FAMILIES:
        spec = _graph_spec(args)
        if args.N is None:
            raise UsageError("pattern families require --N")
        H = generators.subgraph_hypergraph(spec, args.N, budget=budget)
        params.update(_echo(args, ("--N",)), pattern=spec.label)
    elif args.family == "disjoint":
        if args.m is None or args.k is None:
            raise UsageError("--family disjoint requires --m and --k")
        H = generators.disjoint_edges(args.m, args.k, budget=budget)
        params.update(_echo(args, ("--m", "--k")))
    else:
        if args.n is None or args.m is None or args.k is None:
            raise UsageError("--family random requires --n, --m and --k")
        seed, auto = _resolve_seed(args)
        H = generators.random_uniform(args.n, args.m, args.k, seed=seed, budget=budget)
        params.update(_echo(args, ("--n", "--m", "--k")), seed=seed, seed_auto=auto)
    if args.out:
        hgr.write_hgr(H, args.out)
        return _record("gen", params, {"path": args.out, "k": H.k, "n": H.n, "m": H.m})
    return hgr.dumps(H)


def _cmd_stats(args):
    H = hgr.read_hgr(args.infile)
    result = _result(stats_of(H), degree_sum=H.m * H.k)
    return _record("stats", _echo(args, ("--in",)), result)


# The grid point fields a nice record keeps; simulate --task p4 keeps them all.
_NICE_GRID_KEYS = ("q", "trials", "violations", "ci_high", "trigger", "supported")


def _cmd_nice(args):
    H = hgr.read_hgr(args.infile)
    stats = stats_of(H)
    params = _niceness_params(args)
    evidence = None
    record_params = _echo(args, ("--in",) + NICENESS)
    if args.p4_grid is None:  # the stochastic flags drive the P4 grid only
        _parse_only(args, ("--in",) + NICENESS)
    else:
        seed, auto = _resolve_seed(args)
        cfg = _trial_config(args, seed)
        grid = _floats(args.p4_grid)
        evidence = montecarlo.verify_p4(H, params, grid, cfg)
        record_params.update(
            _echo(args, ("--trials", "--workers")), p4_grid=grid, seed=seed, seed_auto=auto
        )
    report = bounds.check_nice(stats, params, p4_evidence=evidence)
    p4 = {"status": report.p4_status}
    if evidence is not None:
        p4.update(
            threshold=evidence.threshold,
            supported=evidence.supported,
            grid=[{key: getattr(pt, key) for key in _NICE_GRID_KEYS} for pt in evidence.points],
        )
    result = _result(report, drop=("p4_status",), p4=p4, analytic_ok=report.analytic_ok)
    return _record("nice", record_params, result)


def _cmd_bound(args):
    H = hgr.read_hgr(args.infile)
    floats = _echo(args, NICENESS[:-1])  # main_bound's floats: all but --n0
    with _blame_flag({f"--{key}": [value] for key, value in floats.items()}):
        mb = bounds.main_bound(stats_of(H), _niceness_params(args))
    return _record("bound", _echo(args, ("--in",) + NICENESS), asdict(mb))


def _cmd_regime(args):
    spec = _graph_spec(args)
    _parse_only(args, ("--family", "--c1") + PATTERN_FAMILIES[args.family])
    with _blame_flag({"--N": [args.N], "--c1": [args.c1]}):
        reg = bounds.regime(spec, args.N, args.c1)
    params = {**_echo(args, ("--family", "--N", "--c1")), "pattern": spec.label}
    return _record("regime", params, _result(reg, pattern=spec.label))


def _cmd_oracle(args):
    H = hgr.read_hgr(args.infile)
    result = {
        "expectation": oracle.exact_expectation(H, args.p),
        "variance": oracle.exact_variance(H, args.p, pair_budget=args.budget),
    }
    if args.dist:
        # --budget B allows 2^n <= B subsets
        limit = args.budget.bit_length() - 1 if args.budget else oracle.DEFAULT_ENUMERATION_LIMIT
        dist = oracle.exact_distribution(H, args.p, limit=limit)
        result["distribution"] = [[x, dist.probabilities[x]] for x in sorted(dist.probabilities)]
        result["distribution_mean"] = dist.mean()
        result["distribution_variance"] = dist.variance()
    return _record("oracle", _echo(args, ("--in", "--p", "--dist")), result)


def _cmd_mcdiarmid(args):
    coeffs = _floats(args.lipschitz)
    value = bounds.mcdiarmid(args.t, coeffs)
    params = {**_echo(args, ("--t",)), "lipschitz": coeffs}
    return _record("mcdiarmid", params, {"bound": value})


def _schedule_from_args(args, n: int) -> percolation.ExposureSchedule:
    eps_range = tuple(_floats(args.eps_range)) if args.eps_range else None
    if eps_range is not None and len(eps_range) != 2:
        raise UsageError("--eps-range expects 'lo,hi'")
    return percolation.build_schedule(
        args.p, n, eps_range=eps_range, strict_mode=args.strict_mode, force_rounds=args.force_rounds
    )


def _cmd_expose(args):
    H = hgr.read_hgr(args.infile)
    schedule = _schedule_from_args(args, H.n)
    seed, auto = _resolve_seed(args)
    cfg = montecarlo.TrialConfig(master_seed=seed, trials=args.trials)
    per_round, _ = montecarlo.run_exposure_campaign(
        H, schedule, args.lam, args.gamma, cfg, montecarlo.LANE_EXPOSURE
    )
    params = {
        **_echo(args, ("--in", "--p", "--lambda", "--gamma", "--trials")),
        "epsilon": schedule.epsilon,
        "rounds": schedule.rounds,
        "strict_mode": schedule.strict_mode,
        "seed": seed,
        "seed_auto": auto,
    }
    return _record("expose", params, {"per_round": [asdict(r) for r in per_round]})


def _simulate_tail(args, H, cfg, params):
    thresholds = _floats(args.thresholds)
    estimates = montecarlo.estimate_tail(H, args.p, thresholds, cfg)
    params["thresholds"] = thresholds
    return {
        "center": oracle.exact_expectation(H, args.p),
        "estimates": [asdict(est) for est in estimates],
    }


def _simulate_p4(args, H, cfg, params):
    nice = _niceness_params(args)
    grid = _floats(args.p4_grid) if args.p4_grid else list(montecarlo.geometric_q_grid(args.p))
    evidence = montecarlo.verify_p4(H, nice, grid, cfg)
    params.update(_echo(args, ("--lambda", "--gamma", "--b", "--bk")), p4_grid=grid)
    result = asdict(evidence)
    result["grid"] = result.pop("points")
    return result


def _simulate_subgaussian(args, H, cfg, params):
    lambdas = _floats(args.lambdas)
    with _blame_flag({"--p": [args.p], "--lambdas": lambdas}):
        fit = montecarlo.fit_subgaussian(
            H, args.p, lambdas, args.variance_source, cfg, pair_budget=args.budget
        )
    params.update(_echo(args, ("--variance-source",)), lambdas=lambdas)
    return _result(fit, drop=("lambdas",))


def _simulate_deg_moment(args, H, cfg, params):
    schedule = _schedule_from_args(args, H.n)
    if not 0 <= args.round <= schedule.rounds:
        raise UsageError(f"--round must lie in [0, {schedule.rounds}]")
    stream = TrialStream(cfg.master_seed, 0, montecarlo.LANE_EXPOSURE)
    state = percolation.run_exposure(H, schedule, stream)[args.round]
    report = montecarlo.check_degree_moment(
        H, state, schedule, cfg, vertices=args.vertices, continuations=args.continuations
    )
    params.update(_echo(args, ("--round", "--continuations")))
    return _result(report, holds=report.holds)


def _simulate_deg_square_sum(args, H, cfg, params):
    schedule = _schedule_from_args(args, H.n)
    report = montecarlo.check_degree_square_sum(H, schedule, args.lam, args.gamma, cfg)
    params.update(_echo(args, ("--lambda", "--gamma")))
    return _result(report, holds=report.holds)


def _cmd_simulate(args):
    if args.task not in TASKS:
        raise UsageError(f"unknown simulate task {args.task!r}")
    handler, flags, required = TASKS[args.task]
    seed, auto = _resolve_seed(args)
    _parse_only(args, SIMULATE + flags, required)
    params = {**_echo(args, SIMULATE), "seed": seed, "seed_auto": auto}  # the seed as resolved
    result = handler(args, hgr.read_hgr(args.infile), _trial_config(args, seed), params)
    return _record("simulate", params, result)


def _cmd_ext(args):
    spec = _graph_spec(args)
    params = {**_echo(args, ("--family", "--task")), "pattern": spec.label}
    if args.task == "balanced":
        rg = extensions.build_rooted(spec, args.roots)
        result = {
            "roots": args.roots,
            "s": rg.s,
            "t": rg.t,
            "density": rg.density,
            "balanced": extensions.is_balanced(rg),
        }
        params.update(_echo(args, ("--roots",)))
        return _record("ext", params, result)
    if args.task == "expected":
        if args.N is None or args.q is None:
            raise UsageError("--task expected requires --N and --q")
        value = extensions.expected_extensions(spec, args.roots, args.N, args.q)
        params.update(_echo(args, ("--roots", "--N", "--q")))
        return _record("ext", params, {"expected_extensions": value})
    if args.N is None or args.q is None:
        raise UsageError(f"--task {args.task} requires --N and --q")
    seed, auto = _resolve_seed(args)
    cfg = _trial_config(args, seed)
    params.update(_echo(args, ("--N", "--q", "--trials", "--workers")), seed=seed, seed_auto=auto)
    if args.task == "zcheck":
        report = extensions.z_identity_check(
            spec, args.N, args.q, cfg, conditioned_target=args.conditioned
        )
    elif args.task == "caps":
        if args.p is None:
            raise UsageError("--task caps requires --p")
        nice = _niceness_params(args)
        report = extensions.extension_cap_check(spec, args.N, args.q, nice, cfg)
        params.update(_echo(args, ("--p", "--lambda", "--gamma", "--b")))
    else:
        raise UsageError(f"unknown ext task {args.task!r}")
    return _record("ext", params, asdict(report))


# Every flag once, with its argparse options.  A subcommand takes the flags
# COMMANDS lists for it; the ones it lists as required must be given.
FLAGS = {
    # every command
    "--out": {},
    "--config": {},
    # _apply_config sets --budget, --seed, --trials and --workers when they
    # are not given; gen, oracle and simulate take --budget
    "--budget": {"type": int},
    # stochastic
    "--seed": {},
    "--trials": {"type": int},
    "--workers": {"type": int},
    "--significance": {"type": float, "default": 0.01},
    # input
    "--in": {"dest": "infile", "required": True},
    # pattern; --b-side shares its dest with --b, so in ext the default of
    # --b-side (declared first) is the one argparse keeps
    "--family": {"required": True},
    "--r": {"type": int},
    "--a": {"type": int},
    "--b-side": {"dest": "b", "type": int},
    "--N": {"type": int},
    # niceness
    "--p": {"type": float},
    "--lambda": {"dest": "lam", "type": float, "default": 1.0},
    "--gamma": {"type": float, "default": 1.0},
    "--b": {"type": float, "default": 1.0},
    "--bk": {"type": float, "default": bounds.DEFAULT_B_K},
    "--n0": {"type": int, "default": bounds.DEFAULT_N0},
    # exposure schedule
    "--eps-range": {},
    "--strict": {"dest": "strict_mode", "action": "store_true"},
    "--force-rounds": {"type": int},
    # the rest; ext requires --task, simulate defaults it
    "--n": {"type": int},
    "--m": {"type": int},
    "--k": {"type": int},
    "--c1": {"type": float, "required": True},
    "--dist": {"action": "store_true"},
    "--task": {"default": "tail"},
    "--thresholds": {},
    "--lambdas": {},
    "--variance-source": {"default": "exact"},
    "--p4-grid": {},
    "--round": {"type": int, "default": 0},
    "--vertices": {"type": int, "default": 20},
    "--continuations": {"type": int, "default": 10_000},
    "--roots": {"type": int, "default": 2},
    "--q": {"type": float},
    "--conditioned": {"type": int},
    "--t": {"type": float, "required": True},
    "--lipschitz": {"required": True},
}

COMMON = ("--out", "--config")
STOCHASTIC = ("--seed", "--trials", "--workers", "--significance")
PATTERN = ("--family", "--r", "--a", "--b-side", "--N")
# A family's flags besides --family: gen and regime take only those of the
# family they are given, and gen --budget as well.
PATTERN_FAMILIES = {"complete": ("--r", "--N"), "complete-bipartite": ("--a", "--b-side", "--N")}
GEN_FAMILIES = {
    **PATTERN_FAMILIES,
    "disjoint": ("--m", "--k"),
    "random": ("--n", "--m", "--k", "--seed"),
}
NICENESS = ("--p", "--lambda", "--gamma", "--b", "--bk", "--n0")
SCHEDULE = ("--eps-range", "--strict", "--force-rounds")

# Every simulate task takes SIMULATE, and its record echoes them.  A task's row
# is (handler, flags besides COMMON and SIMULATE, flags it requires); the
# handler adds its own keys to the record's params and returns its result.
SIMULATE = ("--in", "--task", "--p") + STOCHASTIC
TASKS = {
    "tail": (_simulate_tail, ("--thresholds",), ("--thresholds",)),
    "p4": (_simulate_p4, ("--p4-grid", "--lambda", "--gamma", "--b", "--bk"), ()),
    "subgaussian": (
        _simulate_subgaussian, ("--lambdas", "--variance-source", "--budget"), ("--lambdas",)
    ),
    "deg-moment": (
        _simulate_deg_moment, SCHEDULE + ("--round", "--vertices", "--continuations"), ()
    ),
    "deg-square-sum": (_simulate_deg_square_sum, SCHEDULE + ("--lambda", "--gamma"), ()),
}
# simulate parses every task's flags first; _cmd_simulate rejects those its task does not take
TASK_FLAGS = tuple(dict.fromkeys(flag for row in TASKS.values() for flag in row[1]))

# subcommand: (handler, flags besides COMMON, flags it requires)
COMMANDS = {
    "gen": (_cmd_gen, ("--budget", "--seed") + PATTERN + ("--n", "--m", "--k"), ()),
    "stats": (_cmd_stats, ("--in",), ()),
    "nice": (
        _cmd_nice,
        STOCHASTIC + ("--in",) + NICENESS + ("--p4-grid",),
        ("--p", "--lambda", "--gamma", "--b"),
    ),
    "bound": (_cmd_bound, ("--in",) + NICENESS, ("--p", "--lambda", "--gamma", "--b")),
    "regime": (_cmd_regime, PATTERN + ("--c1",), ("--N",)),
    "oracle": (_cmd_oracle, ("--budget", "--in", "--p", "--dist"), ("--p",)),
    "simulate": (_cmd_simulate, SIMULATE + TASK_FLAGS, ("--p",)),
    "expose": (
        _cmd_expose,
        ("--seed", "--trials", "--in", "--p") + SCHEDULE + ("--lambda", "--gamma"),
        ("--p",),
    ),
    "ext": (
        _cmd_ext,
        STOCHASTIC + PATTERN + ("--task", "--roots", "--q") + NICENESS + ("--conditioned",),
        ("--task",),
    ),
    "mcdiarmid": (_cmd_mcdiarmid, ("--t", "--lipschitz"), ()),
}


def _add_flags(parser: _Parser, flags, required) -> _Parser:
    parser.allow_abbrev = False  # else a parser with --lambdas alone reads --lambda as it
    for flag in COMMON + flags:
        options = dict(FLAGS[flag], required=True) if flag in required else FLAGS[flag]
        parser.add_argument(flag, **options)
    return parser


@functools.cache
def _only_parser(flags, required) -> _Parser:
    return _add_flags(_Parser(), flags, required)


def _parse_only(args, flags, required=()) -> None:
    """Parse the command's argv again with only ``flags``; any other is a usage error."""
    _only_parser(flags, required).parse_args(args.argv[1:])


def build_parser() -> _Parser:
    parser = _Parser(prog="hypertail")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags, required) in COMMANDS.items():
        _add_flags(sub.add_parser(name), flags, required).set_defaults(handler=handler)
    return parser


@functools.cache
def _command_parser() -> _Parser:
    # built once: a parser is a web of reference cycles, and one per call
    # left that garbage for the cyclic collector to free at unrelated times
    return build_parser()


def dispatch(argv=None, stdout=None, stderr=None) -> int:
    """Parse argv, run the subcommand, emit its record; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else argv
    parser = _command_parser()
    started = time.perf_counter()
    try:
        # the filters in force still apply; a shown warning is kept for stderr
        with warnings.catch_warnings(record=True) as caught:
            args = parser.parse_args(argv, argparse.Namespace(argv=argv))
            _apply_config(args, _load_config(args.config))
            output = args.handler(args)
        if isinstance(output, dict):
            output = _dump(output) + "\n"
            if args.out and args.command != "gen":
                with open(args.out, "w", newline="\n") as fh:
                    fh.write(output)
                output = ""
        stdout.write(output)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    except (BudgetError, InfeasibleError, MemoryError, ArithmeticError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=stderr)
        return 2
    for caught_warning in caught:
        print(f"warning: {caught_warning.message}", file=stderr)
    elapsed = time.perf_counter() - started
    print(f"# {args.command} finished in {elapsed:.3f}s", file=stderr)
    return 0


def main() -> None:
    sys.exit(dispatch())
