"""Per-layer tracing from outside the program.

`install` wraps every public function of the layer modules, and
`cli.Emitter.write`, wherever the function is bound: in its own module and
in every other `skewdyn` module that imported it.  Each call records a
span (name, parent, start, end) in memory; self time is the span's
duration minus its child spans.  Counts come from a call's arguments and
result after its span closes, inside a `perfbench.counts` span of their
own.  Each thread keeps its own span stack, so spans opened
in worker threads (the fiber images of `render`) have no parent and their
self times add up across threads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("poly", "engine", "sets", "critpost", "families", "chain",
          "contin", "cli")


def distinct_rows(points) -> int:
    """Number of byte-distinct points (rows) in a point array."""
    pts = np.ascontiguousarray(points)
    rows = pts.reshape(len(pts), -1)
    return len(np.unique(rows.view(
        np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))))


def _cloud(arg: str, count: str):
    return lambda args, res: {count: len(args[arg]),
                              "distinct": distinct_rows(args[arg].points)}


def _text_bytes(data):
    return len(data.encode() if isinstance(data, str) else data)


# counts recorded per call, keyed by span name
HOOKS = {
    "sets.min_chordal_distance": _cloud("a", "query_points"),
    "critpost.verify_trapping": _cloud("t_cloud", "cloud_points"),
    "sets.directed_hausdorff": lambda a, r: {"query_points": len(a["a"])},
    "sets.cloud_to_csv": lambda a, r: {"bytes": _text_bytes(r)},
    "cli.Emitter.write": lambda a, r: {"bytes": _text_bytes(a["data"])},
    "sets.fiber_slice": lambda a, r: {"cells": r.nx * r.ny},
    "critpost.critical_locus": lambda a, r: {"samples": len(r)},
    "critpost.postcritical_cloud":
        lambda a, r: {"points": len(r), "distinct": distinct_rows(r.points)},
    "contin.continue_orbit": lambda a, r: {"steps": len(r.steps)},
}
# distinct_ratio = distinct / this count
RATIO_BASE = {"sets.min_chordal_distance": "query_points",
              "critpost.verify_trapping": "cloud_points",
              "critpost.postcritical_cloud": "points"}

SUBCOMMANDS = ("render", "certify", "chain", "saddles", "verify-lemma",
               "continue", "separate", "hausdorff")

# (metric, unit, better) as BENCHMARK.json lists them
PER_LAYER = [
    ("sets.min_chordal_distance.self_s", "s", "lower"),
    ("sets.min_chordal_distance.query_points", "count", "lower"),
    ("sets.min_chordal_distance.distinct_ratio", "ratio", "higher"),
    ("critpost.verify_trapping.self_s", "s", "lower"),
    ("critpost.verify_trapping.cloud_points", "count", "lower"),
    ("critpost.verify_trapping.distinct_ratio", "ratio", "higher"),
    ("sets.directed_hausdorff.self_s", "s", "lower"),
    ("sets.directed_hausdorff.query_points", "count", "lower"),
    ("sets.cloud_to_csv.self_s", "s", "lower"),
    ("sets.cloud_to_csv.bytes", "bytes", "lower"),
    ("sets.cloud_to_csv.mb_per_s", "MB/s", "higher"),
    ("cli.Emitter.write.self_s", "s", "lower"),
    ("cli.Emitter.write.bytes", "bytes", "lower"),
    ("sets.sample_base_julia.self_s", "s", "lower"),
    ("sets.sample_fiber_julia.self_s", "s", "lower"),
    ("sets.sample_fiber_julia.calls", "count", "lower"),
    ("sets.sample_J2_inverse.self_s", "s", "lower"),
    ("sets.fiber_slice.self_s", "s", "lower"),
    ("sets.fiber_slice.cells", "count", "lower"),
    ("critpost.attract_or_escape_1d.self_s", "s", "lower"),
    ("critpost.attract_or_escape_1d.calls", "count", "lower"),
    ("families.build_s1s2.self_s", "s", "lower"),
    ("families.make_airplane_skew.self_s", "s", "lower"),
    ("critpost.critical_locus.self_s", "s", "lower"),
    ("critpost.critical_locus.samples", "count", "lower"),
    ("critpost.postcritical_cloud.self_s", "s", "lower"),
    ("critpost.postcritical_cloud.points", "count", "lower"),
    ("critpost.postcritical_cloud.distinct_ratio", "ratio", "higher"),
    ("critpost.acc_cloud.self_s", "s", "lower"),
    ("critpost.acc_full_probe.self_s", "s", "lower"),
    ("critpost.certify_axiom_a.self_s", "s", "lower"),
    ("poly.roots.self_s", "s", "lower"),
    ("poly.roots.calls", "count", "lower"),
    ("poly.compose_fiber.self_s", "s", "lower"),
    ("poly.compose_fiber.calls", "count", "lower"),
    ("critpost.find_saddles.self_s", "s", "lower"),
    ("chain.repelling_periodic_points.self_s", "s", "lower"),
    ("chain.chain_report.self_s", "s", "lower"),
    ("contin.continue_orbit.self_s", "s", "lower"),
    ("contin.continue_orbit.steps", "count", "lower"),
    ("contin.separation_evidence.self_s", "s", "lower"),
    ("engine.derive_escape_radius.self_s", "s", "lower"),
] + [(f"cli.{sub}.s", "s", "lower") for sub in SUBCOMMANDS] + [
    ("process.cpu_s", "s", "lower"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self._local = threading.local()  # per-thread [span index, child s]
        self._lock = threading.Lock()
        self.hook_s = 0.0
        self.reset_round()

    def reset_round(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    @property
    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str):
        stack = self._stack
        with self._lock:
            ix = self._ids.setdefault(name, len(self._ids))
            if ix == len(self.names):
                self.names.append(name)
            self.span_name.append(ix)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_t1.append(float("nan"))
            stack.append([len(self.span_t0), 0.0])
            self.span_t0.append(perf_counter())

    def close(self):
        t1 = perf_counter()
        stack = self._stack
        ix, child = stack.pop()
        with self._lock:
            self.span_t1[ix] = t1
            dur = t1 - self.span_t0[ix]
            name = self.names[self.span_name[ix]]
            self.self_s[name] += dur - child
            self.calls[name] += 1
        if stack:
            stack[-1][1] += dur

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if hook:
                # a span of its own keeps the counting out of the
                # enclosing spans' self time
                t0 = perf_counter()
                self.open("perfbench.counts")
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = hook(bound.arguments, result)
                finally:
                    self.close()
                with self._lock:
                    for key, val in counts.items():
                        self.counts[f"{name}.{key}"] += val
                    self.hook_s += perf_counter() - t0
            return result

        return traced

    def round_metrics(self, cli_s: dict, cpu_s: float) -> dict:
        """This round's per-layer metrics, in PER_LAYER order."""
        got = {f"{n}.self_s": s for n, s in self.self_s.items()}
        got.update({f"{n}.calls": c for n, c in self.calls.items()})
        got.update(self.counts)
        c = self.counts
        for name, base in RATIO_BASE.items():
            pts = c.get(f"{name}.{base}", 0)
            got[f"{name}.distinct_ratio"] = (
                c.get(f"{name}.distinct", 0) / pts if pts else 0.0)
        csv_s = self.self_s.get("sets.cloud_to_csv", 0.0)
        got["sets.cloud_to_csv.mb_per_s"] = (
            c.get("sets.cloud_to_csv.bytes", 0) / csv_s / 1e6 if csv_s else 0.0)
        for sub in SUBCOMMANDS:
            got[f"cli.{sub}.s"] = cli_s.get(sub, 0.0)
        got["process.cpu_s"] = cpu_s
        return {name: float(got.get(name, 0.0)) for name, _, _ in PER_LAYER}

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.span_name),
            parent=np.array(self.span_parent), t0=np.array(self.span_t0),
            t1=np.array(self.span_t1))


def install(tracer: Tracer):
    """Replace each public layer function by its traced wrapper in every
    loaded skewdyn module that binds it."""
    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "skewdyn" or n.startswith("skewdyn."))]
    for layer in LAYERS:
        mod = importlib.import_module(f"skewdyn.{layer}")
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            traced = tracer.wrap(f"{layer}.{attr}", fn)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, traced)
    emitter = importlib.import_module("skewdyn.cli").Emitter
    emitter.write = tracer.wrap("cli.Emitter.write", emitter.write)
