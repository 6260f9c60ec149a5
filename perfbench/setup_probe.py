"""Time one fresh process's set-up before the first heatmap cell.

Usage: python3 perfbench/setup_probe.py ROOT N

Covers `import graphkalman` (numpy and scipy included), the cycle graph C_N
and its Laplacian shift, the eigendecomposition with its distinct
eigenvalues, and the first interpolation at those eigenvalues, which fills
the interpolation cache.  Prints the seconds taken.
"""
import sys
import time

start = time.perf_counter()

from pathlib import Path

from workload import load_program, setup_context

load_program(Path(sys.argv[1]))
setup_context(int(sys.argv[2]))
print(repr(time.perf_counter() - start))
