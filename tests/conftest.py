"""Session set-up: BLAS runs on one thread unless the caller chose.

When neither OPENBLAS_NUM_THREADS nor OMP_NUM_THREADS is set, both are
set to 1 here, before NumPy loads its BLAS, so that a plain `python -m
pytest` runs the fits as CI and perfbench/run.py do. Under two-thread
OpenBLAS the timed fits of test_acceptance.py's criterion 7 stalled at
random, each 500x25 fit taking 210-224 ms instead of 9-12 ms for about
a second at a time.
"""
import os
import sys

# the BLAS reads its thread count once, when NumPy is first imported
assert "numpy" not in sys.modules, "NumPy was imported before conftest.py"
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
