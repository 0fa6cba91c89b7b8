"""The names that code outside the package reads still resolve.

The benchmark's tracer (benchmark/tracing.py) looks functions, a method, a
cached property and a module attribute up by name and swaps wrappers in for
them; a deleted or renamed one breaks every traced benchmark run.  The
benchmark's workloads import from the package's public names.
"""

import importlib.util
import sys
from pathlib import Path

import stochreg
from stochreg import rng, spectral

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
