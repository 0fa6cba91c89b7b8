"""Per-layer tracing of stochreg from outside the program.

`install` swaps wrappers in for the public functions at the layer boundaries
(and for the Gram operator's cached eigendecomposition), in every stochreg
module namespace and in the namespaces passed to it, so calls between modules
go through the wrappers. Each wrapper records a span: name, start, end, self
time (the duration minus the time of the spans it called on the same thread)
and a few figures read off its arguments and result. Spans stay in memory;
`Tracer.metrics` turns them into the per-layer metrics. Nothing inside the
program changes, and `install` returns the function that restores it.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_s: float
    cpu_s: float
    info: dict = field(default_factory=dict)


class Tracer:
    """Spans and counts recorded by the wrappers that `install` puts in."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, hook=None, cpu: bool = False):
        """Wrap fn in a span; hook(arguments, result) gives its info, and
        cpu adds the process CPU time spent during the span."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            result = None
            cpu0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                cpu_s = time.process_time() - cpu0 if cpu else 0.0
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                info = {}
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    info = hook(bound.arguments, result)
                with self._lock:
                    self.spans.append(Span(name, t0, t1, t1 - t0 - children[0],
                                           cpu_s, info))
        return wrapper

    def counter(self, name: str, fn, hook):
        """Wrap fn to add hook(arguments) to counts[name]; no span, so its
        time stays with the span that called it."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            with self._lock:
                self.counts[name] += hook(bound.arguments)
            return fn(*args, **kwargs)
        return wrapper

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.counts = defaultdict(float)

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        return layer_metrics(self.spans, self.counts)


# ---------------------------------------------------------------------------
# figures read off the arguments at each boundary

def step_cost(method: str, runs: int, n: int, m: int, steps: int, M: int,
              checkpoints: int, residual: bool) -> tuple[int, int, int]:
    """(flop, bytes, anchor refreshes) of one run_batch call.

    Counted from the shapes: each numpy operation of the update reads and
    writes each of its operands once, 8 bytes per entry. Per lockstep step on
    the runs x m iterate: sgd gathers the rows, takes the row dots and
    updates (4 flop, 9 words per entry); svrg also subtracts the anchor and
    adds its gradient (7 flop, 17 words). An anchor or a landweber step makes
    two runs x n x m contractions (4 R n m flop) that read A twice. A
    checkpoint records the squared error, and the residual when asked.
    """
    rm, rnm = runs * m, runs * n * m
    full_words = 2 * n * m + 2 * runs * n + 4 * rm
    anchors = 0
    if method == "landweber":
        flop = steps * (4 * rnm + 2 * rm)
        words = steps * full_words
    elif method == "svrg":
        anchors = math.ceil(steps / M)
        flop = steps * 7 * rm + anchors * 4 * rnm
        words = steps * 17 * rm + anchors * full_words
    else:
        flop = steps * 4 * rm
        words = steps * 9 * rm
    flop += checkpoints * 3 * rm
    words += checkpoints * 4 * rm
    if residual:
        flop += checkpoints * 2 * rnm
        words += checkpoints * (n * m + runs * n + rm)
    return flop, 8 * words, anchors


def _run_batch_info(args, _result) -> dict:
    inst, cfg, recorder = args["inst"], args["cfg"], args["recorder"]
    runs = len(args["subkeys"])
    n, m = inst.a.shape
    steps = int(recorder.cp[-1])
    checkpoints = int(recorder.cp.size)
    flop, nbytes, anchors = step_cost(
        cfg.method, runs, n, m, steps, cfg.M, checkpoints,
        getattr(recorder, "residual_sq", None) is not None)
    return {"cfg": cfg, "runs": runs, "steps": steps,
            "checkpoints": checkpoints, "anchors": anchors, "flop": flop,
            "bytes": nbytes}


def _cfg_info(args, _result) -> dict:
    return {"cfg": args["cfg"]}


def _transition_info(args, _result) -> dict:
    """The map's identity: the instance and data bytes, step, loop, method."""
    digest = hashlib.sha1(np.ascontiguousarray(args["inst"].a).tobytes())
    digest.update(np.asarray(args["y"], dtype=np.float64).tobytes())
    return {"key": (digest.hexdigest(), float(args["c0"]), int(args["M"]),
                    args["method"])}


def _paths_info(args, _result) -> dict:
    return {"paths": args["inst"].n ** (args["K"] * args["M"])}


def _grid_info(args, _result) -> dict:
    return {"cells": len(args["spec"].cells)}


def _write_info(args, _result) -> dict:
    return {"bytes": len(args["text"].encode("utf-8"))}


def _suite_info(_args, result) -> dict:
    return {"checks": len(result["checks"]) if result else 0}


# (module, attribute, span name, info hook); attributes are module-level
# functions looked up by identity in every namespace. Grid spans also take
# the process CPU time.
_FUNCTIONS = (
    ("solvers", "run_batch", "solvers.run_batch", _run_batch_info),
    ("analysis", "error_curves", "analysis.error_curves", _cfg_info),
    ("analysis", "mc_moments", "analysis.mc_moments", _cfg_info),
    ("analysis", "epoch_transitions", "analysis.epoch_transitions",
     _transition_info),
    ("analysis", "enumerate_exact_moments", "analysis.enumeration",
     _paths_info),
    ("analysis", "enumerate_weighted_second_moment", "analysis.enumeration",
     _paths_info),
    ("analysis", "svrg_variance_terms", "analysis.decomposition", None),
    ("analysis", "sgd_variance_terms", "analysis.decomposition", None),
    ("experiment", "run_grid", "experiment.run_grid", _grid_info),
    ("problems", "precondition", "problems.precondition", None),
    ("problems", "generate", "problems.generate", None),
    ("spectral", "build_gram", "spectral", None),
    ("spectral", "svd", "spectral", None),
    ("fileio", "atomic_write_text", "fileio.write", _write_info),
    ("verify", "run_suite", "verify.run_suite", _suite_info),
)


def install(tracer: Tracer, extra_namespaces=()) -> callable:
    """Put the tracer's wrappers in place; returns the function undoing it."""
    import stochreg
    from stochreg import rng, spectral

    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "stochreg" or name.startswith("stochreg.")]
    modules += list(extra_namespaces)
    undo = []

    def swap(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for mod_name, attr, span_name, hook in _FUNCTIONS:
        original = getattr(getattr(stochreg, mod_name), attr)
        wrapped = tracer.span(span_name, original, hook,
                              cpu=span_name == "experiment.run_grid")
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    swap(mod, key, wrapped)

    swap(rng.IndexStream, "block",
         tracer.span("rng.block", rng.IndexStream.block))
    swap(rng, "raw_block",
         tracer.counter("rng.words", rng.raw_block, lambda a: a["count"]))
    # the Gram eigendecomposition is computed once per operator, lazily
    eig = spectral.GramOperator.__dict__["_eig"]
    traced_eig = functools.cached_property(tracer.span("spectral", eig.func))
    traced_eig.__set_name__(spectral.GramOperator, "_eig")
    swap(spectral.GramOperator, "_eig", traced_eig)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return restore


# ---------------------------------------------------------------------------
# spans to metrics

PER_LAYER = {
    "rng.block.calls": "count",
    "rng.block.self_s": "s",
    "rng.words": "count",
    "solvers.run_batch.calls": "count",
    "solvers.run_batch.self_s": "s",
    "solvers.run_steps": "count",
    "solvers.us_per_run_step": "us",
    "solvers.anchor_refreshes": "count",
    "solvers.checkpoints": "count",
    "solvers.gflop": "Gflop",
    "solvers.gbyte": "GB",
    "solvers.gflop_per_s": "Gflop/s",
    "analysis.error_curves.self_s": "s",
    "analysis.mc_moments.self_s": "s",
    "analysis.passes_per_cell": "count",
    "analysis.useful_step_ratio": "ratio",
    "analysis.epoch_transitions.calls": "count",
    "analysis.epoch_transitions.distinct": "count",
    "analysis.epoch_transitions.self_s": "s",
    "analysis.enumerated_paths": "count",
    "analysis.enumeration.self_s": "s",
    "analysis.decomposition.self_s": "s",
    "experiment.cells": "count",
    "experiment.cell_s.max": "s",
    "experiment.grid_cpu_per_wall": "ratio",
    "experiment.prepare_s": "s",
    "problems.precondition.calls": "count",
    "problems.precondition.self_s": "s",
    "problems.generate.self_s": "s",
    "spectral.calls": "count",
    "spectral.self_s": "s",
    "fileio.files_written": "count",
    "fileio.bytes_written": "bytes",
    "fileio.write.self_s": "s",
    "verify.checks": "count",
    "verify.suite_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], counts: dict) -> dict:
    """Per-layer metrics of one traced round. trace.overhead_s is left to the
    caller, which knows the untraced time."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(s.self_s for s in by_name[name])

    def total(name, key):
        return sum(s.info[key] for s in by_name[name])

    batches = by_name["solvers.run_batch"]
    batch_self = self_s("solvers.run_batch")
    steps = total("solvers.run_batch", "steps")
    gflop = total("solvers.run_batch", "flop") / 1e9
    # a cell is one solver configuration; its useful work is one pass
    passes = defaultdict(list)
    for s in batches:
        passes[s.info["cfg"]].append(s.info["runs"] * s.info["steps"])
    executed = sum(sum(p) for p in passes.values())
    useful = sum(max(p) for p in passes.values())

    grids = by_name["experiment.run_grid"]
    cell_spans = defaultdict(list)
    prepare = 0.0
    for grid in grids:
        inside = [s for name in ("analysis.error_curves", "analysis.mc_moments")
                  for s in by_name[name]
                  if grid.start <= s.start and s.end <= grid.end]
        for s in inside:
            cell_spans[(id(grid), s.info["cfg"])].append(s)
        if inside:
            prepare += min(s.start for s in inside) - grid.start
    cell_times = [max(s.end for s in group) - min(s.start for s in group)
                  for group in cell_spans.values()]
    grid_wall = sum(g.end - g.start for g in grids)

    out = {
        "rng.block.calls": calls("rng.block"),
        "rng.block.self_s": self_s("rng.block"),
        "rng.words": counts.get("rng.words", 0),
        "solvers.run_batch.calls": len(batches),
        "solvers.run_batch.self_s": batch_self,
        "solvers.run_steps": steps,
        "solvers.anchor_refreshes": total("solvers.run_batch", "anchors"),
        "solvers.checkpoints": total("solvers.run_batch", "checkpoints"),
        "solvers.gflop": gflop,
        "solvers.gbyte": total("solvers.run_batch", "bytes") / 1e9,
        "analysis.error_curves.self_s": self_s("analysis.error_curves"),
        "analysis.mc_moments.self_s": self_s("analysis.mc_moments"),
        "analysis.epoch_transitions.calls": calls("analysis.epoch_transitions"),
        "analysis.epoch_transitions.distinct": len(
            {s.info["key"] for s in by_name["analysis.epoch_transitions"]}),
        "analysis.epoch_transitions.self_s": self_s("analysis.epoch_transitions"),
        "analysis.enumerated_paths": total("analysis.enumeration", "paths"),
        "analysis.enumeration.self_s": self_s("analysis.enumeration"),
        "analysis.decomposition.self_s": self_s("analysis.decomposition"),
        "experiment.cells": total("experiment.run_grid", "cells"),
        "experiment.prepare_s": prepare,
        "problems.precondition.calls": calls("problems.precondition"),
        "problems.precondition.self_s": self_s("problems.precondition"),
        "problems.generate.self_s": self_s("problems.generate"),
        "spectral.calls": calls("spectral"),
        "spectral.self_s": self_s("spectral"),
        "fileio.files_written": calls("fileio.write"),
        "fileio.bytes_written": total("fileio.write", "bytes"),
        "fileio.write.self_s": self_s("fileio.write"),
        "verify.checks": total("verify.run_suite", "checks"),
        "verify.suite_s": sum(s.end - s.start
                              for s in by_name["verify.run_suite"]),
    }
    out["solvers.us_per_run_step"] = 1e6 * batch_self / steps if steps else 0.0
    out["solvers.gflop_per_s"] = gflop / batch_self if batch_self else 0.0
    out["analysis.passes_per_cell"] = len(batches) / len(passes) if passes else 0.0
    out["analysis.useful_step_ratio"] = useful / executed if executed else 0.0
    out["experiment.cell_s.max"] = max(cell_times, default=0.0)
    out["experiment.grid_cpu_per_wall"] = (
        sum(g.cpu_s for g in grids) / grid_wall if grid_wall else 0.0)
    return out
