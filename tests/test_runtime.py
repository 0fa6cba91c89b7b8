"""The runtime dependencies stay numpy only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import stochreg

# Runs in a fresh interpreter.  Modules the interpreter loads at startup (site
# hooks) are not the package's; modules without an import spec are runtime
# objects that compiled extensions create, not imports.
PROBE = """
import json, sys
before = set(sys.modules)
from stochreg import cli
code = cli.main(["verify", "--level", "fast"])
allowed = set(sys.stdlib_module_names) | {"numpy", "stochreg"}
loaded = {name.split(".")[0] for name, mod in list(sys.modules.items())
          if name not in before and getattr(mod, "__spec__", None) is not None}
print(json.dumps([code, sorted(loaded - allowed)]))
"""


def test_verify_loads_only_numpy_and_the_standard_library():
    env = dict(os.environ,
               PYTHONPATH=str(Path(stochreg.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                          capture_output=True, text=True)
    code, foreign = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert foreign == []
