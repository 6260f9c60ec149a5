"""The package imports numpy and the standard library only, and not the
standard library's exact-arithmetic modules, and exports exactly its public
names."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import graphkalman

SRC = Path(__file__).resolve().parents[1] / "src"

# a fresh interpreter: the test process itself has scipy loaded by other tests
_PROBE = """
import json, sys
import graphkalman, graphkalman.cli, graphkalman.verify
print(json.dumps({
    "file": graphkalman.__file__,
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
    "exact": sorted(name for name in ("fractions", "decimal") if name in sys.modules),
}))
"""


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(done.stdout)
    assert Path(report["file"]).resolve().is_relative_to(SRC)
    assert report["scipy"] == []
    assert report["exact"] == []


def test_import_loads_neither_the_cli_nor_verify():
    # each module loaded costs a fresh process without a bytecode cache its
    # compile time (verify.py alone about 12 ms), and a library import needs
    # neither the cli, verify nor numpy.random, which loads on the first draw
    probe = (
        "import json, sys, graphkalman; print(json.dumps(["
        "'numpy.random' in sys.modules, sorted(name for name in sys.modules if name.startswith('graphkalman.'))]))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    random_loaded, loaded = json.loads(done.stdout)
    assert not random_loaded
    modules = ["dynamics", "errors", "experiment", "filters", "graphs", "kalman", "spectral"]
    assert loaded == [f"graphkalman.{name}" for name in modules]


def test_exports_are_sorted_unique_and_exactly_the_public_names():
    # a fold that moves a name between modules can leave an export stale or missing
    exports = graphkalman.__all__
    assert exports == sorted(set(exports))
    public = {
        name for name, value in vars(graphkalman).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exports) == public
