"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of every hypertail module (and
a few named private kernels and methods) and rebinds every module-level name
that refers to them, so calls through ``from .x import y`` bindings are seen
too.  Each call records a span (name, start, end, parent); a layer's self
time is its spans' durations minus the part their child spans cover.  Work
counts are derived from the wrapped calls' arguments and results, so they
repeat exactly; they are evaluated once the outermost span has closed, so
their cost falls in no span.  The program's source is not changed.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from itertools import combinations
from math import comb, factorial
from time import perf_counter

import numpy as np

LAYERS = (
    "cli", "hgr", "generators", "core", "rng", "montecarlo",
    "percolation", "oracle", "extensions", "bounds",
)

# Private kernels with metrics of their own, wrapped besides public functions.
PRIVATE = {"cli._dump", "extensions._scan_extensions"}
# Per-element helpers called millions of times; a span each would swamp them,
# so their time stays with their callers.
SKIP = {"generators.pair_rank", "generators.pair_unrank"}
METHODS = (
    ("core", "Hypergraph", "__init__"),
    ("rng", "TrialStream", "generator"),
    ("rng", "TrialStream", "uniforms"),
    ("rng", "TrialStream", "uniform_matrix"),
)
CACHED = (("core", "Hypergraph", "pair_index"),)

# Named self-time metrics: the spans whose self time each one sums.
TIME_METRICS = {
    "cli.dump_s": ("cli._dump",),
    "hgr.parse_s": ("hgr.read_hgr", "hgr.loads"),
    "hgr.write_s": ("hgr.write_hgr", "hgr.dumps"),
    "generators.enumerate_s": ("generators.subgraph_hypergraph",),
    "core.build_s": ("core.Hypergraph.__init__", "core.validate"),
    "core.pair_index_s": ("core.Hypergraph.pair_index",),
    "core.profile_s": ("core.degree_profile", "core.stats_of"),
    "rng.draw_s": (
        "rng.TrialStream.generator", "rng.TrialStream.uniforms", "rng.TrialStream.uniform_matrix",
    ),
    "montecarlo.edge_count_s": ("montecarlo.edge_count_samples",),
    "montecarlo.p4_s": ("montecarlo.verify_p4",),
    "montecarlo.aggregate_s": ("montecarlo.estimate_tail", "montecarlo.clopper_pearson"),
    "percolation.edge_mask_s": ("percolation.surviving_edge_mask",),
    "percolation.degrees_s": ("percolation.surviving_degrees",),
    "percolation.pair_counts_s": ("percolation.surviving_pair_counts",),
    "oracle.variance_s": ("oracle.exact_variance",),
    "oracle.distribution_s": ("oracle.exact_distribution",),
    "extensions.scan_s": ("extensions._scan_extensions", "extensions.count_extensions"),
    "extensions.balance_s": ("extensions.is_balanced",),
}


def overlapping_pairs(H) -> int:
    """Ordered pairs of distinct edges sharing a vertex: the pair scan's length.

    By inclusion-exclusion over the vertex subsets T of each edge, the union
    of the incidence lists of e's vertices has sum_T (-1)^(|T|+1) d_T members,
    so summing over edges gives sum_T (-1)^(|T|+1) d_T^2, minus m for e itself.
    """
    total = 0
    for j in range(1, H.k + 1):
        rows = np.stack([H.edges_arr[:, list(c)] for c in combinations(range(H.k), j)])
        rows = rows.reshape(-1, j)
        _, counts = np.unique(rows, axis=0, return_counts=True)
        total += (-1) ** (j + 1) * int((counts.astype(np.int64) ** 2).sum())
    return total - H.m


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_build(c, a, kw, r):
    c["core.builds"] += 1
    c["core.edges_built"] += a[0].m


def _count_mask(c, a, kw, r):
    H = _arg(a, kw, 0, "H")
    c["percolation.mask_calls"] += 1
    c["percolation.gather_bytes"] += H.m * H.k * 9  # bool flag + int64 index per gather


def _count_scan(c, a, kw, r):
    rg, sample = _arg(a, kw, 0, "rg"), _arg(a, kw, 2, "sample")
    c["extensions.scans"] += 1
    c["extensions.labelings"] += comb(sample.N - rg.root_count, rg.s) * factorial(rg.s)


COUNTERS = {
    "hgr.read_hgr": lambda c, a, kw, r: c.update({"hgr.parse_calls": 1}),
    "hgr.loads": lambda c, a, kw, r: c.update({"hgr.bytes_parsed": len(_arg(a, kw, 0, "text"))}),
    "generators.subgraph_hypergraph": lambda c, a, kw, r: c.update({"generators.copies": r.m}),
    "core.Hypergraph.__init__": _count_build,
    "rng.TrialStream.generator": lambda c, a, kw, r: c.update({"rng.streams": 1}),
    "rng.TrialStream.uniforms": lambda c, a, kw, r: c.update(
        {"rng.uniforms": _arg(a, kw, 1, "count")}
    ),
    "rng.TrialStream.uniform_matrix": lambda c, a, kw, r: c.update(
        {"rng.uniforms": _arg(a, kw, 1, "rows") * _arg(a, kw, 2, "cols")}
    ),
    "montecarlo.edge_count_samples": lambda c, a, kw, r: c.update(
        {"montecarlo.trials": _arg(a, kw, 2, "cfg").trials}
    ),
    "montecarlo.verify_p4": lambda c, a, kw, r: c.update(
        {"montecarlo.trials": len(tuple(_arg(a, kw, 2, "q_grid"))) * _arg(a, kw, 3, "cfg").trials}
    ),
    "percolation.surviving_edge_mask": _count_mask,
    "oracle.exact_variance": lambda c, a, kw, r: c.update(
        {"oracle.variance_pairs": overlapping_pairs(_arg(a, kw, 0, "H"))}
    ),
    "oracle.exact_distribution": lambda c, a, kw, r: c.update(
        {"oracle.subsets": 1 << _arg(a, kw, 0, "H").n}
    ),
    "extensions._scan_extensions": _count_scan,
}

COUNT_METRICS = (
    "hgr.parse_calls", "hgr.bytes_parsed", "generators.copies", "core.builds",
    "core.edges_built", "rng.streams", "rng.uniforms", "montecarlo.trials",
    "percolation.mask_calls", "percolation.gather_bytes", "oracle.variance_pairs",
    "oracle.subsets", "extensions.scans", "extensions.labelings",
)


class Tracer:
    """Spans and work counts of the wrapped hypertail calls."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.pending: list[tuple] = []
        self.count_s = 0.0  # seconds spent evaluating counts, outside every span
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans and counts; the wrappers keep these same lists."""
        for record in (self.names, self.starts, self.ends, self.parents, self.stack, self.pending):
            record.clear()
        self.counts.clear()
        self.count_s = 0.0

    def wrap(self, fn, name: str):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack
        )
        counts, pending, count = self.counts, self.pending, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == name:  # recursion stays in the outer span
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if count is not None:
                pending.append((count, args, kwargs, result))
            if not stack:
                begin = perf_counter()
                for count_call, *call in pending:
                    count_call(counts, *call)
                pending.clear()
                self.count_s += perf_counter() - begin
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced name and rebind each of its module-level bindings."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"hypertail.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and (not attr.startswith("_") or name in PRIVATE)
                    and name not in SKIP
                ):
                    wrappers[id(obj)] = self.wrap(obj, name)  # keeps obj alive via __wrapped__
        for modname, module in list(sys.modules.items()):
            if modname != "hypertail" and not modname.startswith("hypertail."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._set(module, attr, wrappers[id(obj)])
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"hypertail.{layer}"], cls_name)
            self._set(cls, attr, self.wrap(cls.__dict__[attr], f"{layer}.{cls_name}.{attr}"))
        for layer, cls_name, attr in CACHED:
            cls = getattr(sys.modules[f"hypertail.{layer}"], cls_name)
            prop = functools.cached_property(
                self.wrap(cls.__dict__[attr].func, f"{layer}.{cls_name}.{attr}")
            )
            prop.__set_name__(cls, attr)
            self._set(cls, attr, prop)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def self_times(self) -> Counter:
        """Self time per span name, in seconds."""
        duration = [end - start for start, end in zip(self.starts, self.ends)]
        own = list(duration)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= duration[i]
        totals: Counter = Counter()
        for name, seconds in zip(self.names, own):
            totals[name] += seconds
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer time and count of the spans recorded since reset."""
        own = self.self_times()
        layer_self = Counter()
        for name, seconds in own.items():
            layer_self[name.split(".", 1)[0]] += seconds
        out = {metric: sum(own[n] for n in spans) for metric, spans in TIME_METRICS.items()}
        out["cli.other_s"] = layer_self["cli"] - out["cli.dump_s"]
        for layer in LAYERS[1:-1]:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["bounds.eval_s"] = layer_self["bounds"]
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric]
        return out
