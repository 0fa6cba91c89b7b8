"""The names that code outside the package reads still resolve.

The benchmark's tracer (benchmark/tracing.py) looks functions, a method, a
cached property and a module attribute up by name and swaps wrappers in for
them; a deleted or renamed one breaks every traced benchmark run.  The
benchmark's workloads import from the package's public names, and its
info hooks read the arguments of the calls they wrap by name.
"""

import importlib.util
import sys
from pathlib import Path

import stochreg
from stochreg import experiment, rng, solvers, spectral
from stochreg.problems import add_noise, gen_shaw

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_stochreg_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _bindings() -> dict:
    """Every attribute the tracer may swap: the names in each stochreg
    module and the methods of the two classes it wraps."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "stochreg" or name.startswith("stochreg."):
            out.update(((name, key), value) for key, value in vars(mod).items())
    for cls in (rng.IndexStream, spectral.GramOperator):
        out.update(((cls.__qualname__, key), value)
                   for key, value in vars(cls).items())
    return out


def test_tracer_finds_every_name_it_swaps_and_restores_them():
    tracing = _load_tracing()
    before = _bindings()
    restore = tracing.install(tracing.Tracer())
    try:
        swapped = [key for key, value in _bindings().items()
                   if value is not before[key]]
        assert ("stochreg.solvers", "run_batch") in swapped
        assert ("IndexStream", "block") in swapped
        assert ("GramOperator", "_eig") in swapped
        assert ("stochreg.rng", "raw_block") in swapped
    finally:
        restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_every_public_name_resolves():
    missing = [name for name in stochreg.__all__ if not hasattr(stochreg, name)]
    assert missing == []


def test_tracer_reads_steps_checkpoints_and_residual_off_a_run_batch_call():
    # the traced benchmark runs count steps, checkpoints and flop off the
    # arguments of each run_batch call, the recorder's cp and residual_sq
    # among them
    tracing = _load_tracing()
    inst = gen_shaw(12)
    y = add_noise(inst, 1e-2, seed=3).y
    cfg = solvers.SolverConfig(method="svrg", c0=0.5 * spectral.step_constant(
        inst.a), max_epochs=30.0, M=4, seed=2, checkpoint_every=0.5)
    acct = solvers.EpochAccounting(cfg.method, inst.n, cfg.M)
    total = acct.iterations(cfg.max_epochs)
    cp = solvers.checkpoint_iterations(acct, cfg)
    keys = [(cfg.seed, r) for r in range(3)]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        for residual in (True, False):
            rec = solvers._Recorder(inst, y, cfg, 3, want_residual=residual)
            assert not solvers.run_batch(inst, y, cfg, keys, rec).any()
    finally:
        restore()
    infos = [span.info for span in tracer.spans
             if span.name == "solvers.run_batch"]
    assert len(infos) == 2
    for info, residual in zip(infos, (True, False)):
        assert (info["runs"], info["steps"], info["checkpoints"]) == (
            3, total, cp.size)
        flop, nbytes, anchors = tracing.step_cost(
            "svrg", 3, inst.n, inst.m, total, 4, cp.size, residual)
        assert (info["flop"], info["bytes"], info["anchors"]) == (
            flop, nbytes, anchors)
    assert infos[0]["flop"] > infos[1]["flop"]


def test_tracer_counts_the_cells_of_a_run_grid_call():
    # the traced benchmark's experiment.cells sums the info of each
    # run_grid span, which reads the cells of the call's spec argument
    tracing = _load_tracing()
    spec = experiment.spec_from_dict({
        "problem": "s-shaw", "n": 12, "nu": [0.0, 1.0],
        "epsilon": [5e-2, 1e-2], "runs": 2, "max_epochs": 2.0,
        "methods": [{"method": "sgd", "c0": "1/2*c"},
                    {"method": "landweber"}]})
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        outcomes = experiment.run_grid(spec)
    finally:
        restore()
    assert all(o.row[-1] == "" for o in outcomes)
    infos = [span.info for span in tracer.spans
             if span.name == "experiment.run_grid"]
    assert infos == [{"cells": len(spec.cells)}] and len(spec.cells) == 8
