"""The package imports numpy and the standard library only, and not the
standard library's exact-arithmetic modules."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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
    # compiling verify.py alone costs each fresh process without a bytecode
    # cache about 12 ms, and a library import needs neither module
    probe = "import json, sys, graphkalman; print(json.dumps(sorted(name for name in sys.modules if name.startswith('graphkalman.'))))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout)
    assert "graphkalman.experiment" in loaded
    assert "graphkalman.cli" not in loaded and "graphkalman.verify" not in loaded
