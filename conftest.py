"""Test-session set-up shared by every suite in the repository.

The math libraries are pinned to one thread before the first ``numpy``
import (thread pools read the environment at library load).  The engine
benchmark (``benchmarks/test_perf_engine.py``) compares compute-bound
regimes (cold generation + statistics GEMMs) against IO-bound ones
(disk-warm entry loads), and with a multi-threaded BLAS the cold baseline
silently parallelises while entry IO cannot -- the recorded ratios would
measure the host's thread count rather than the work the cache tiers skip.
Pool workers inherit the pin, so a worker pool does not oversubscribe the
host with one BLAS thread pool per process either.

The pin lives in this root ``conftest.py`` because pytest imports it before
the conftest of any test directory: ``tests/conftest.py`` imports numpy, so
a pin placed beside the benchmarks would arrive too late in a root run.
"""

from __future__ import annotations

import os
import sys

# Whether the pin below can still take effect: thread pools read the
# environment when the math libraries load, so a numpy imported *before*
# this conftest (by a plugin, say) makes the env vars a silent no-op.  Two
# cases still count as pinned:
#
# * numpy has not been imported yet -- the setdefault pin below lands in
#   time, or
# * every thread-count variable was already "1" when the interpreter
#   started (the CI benchmark job exports them at the step level), in which
#   case numpy's import order is irrelevant.
#
# The engine benchmark records the marker in BENCH_engine.json so a
# thread-count-tainted measurement is at least labelled as such, and the CI
# benchmark job *fails* on a tainted pin (conftest modules are not reliably
# importable by name, hence the env-var hand-off).
_PIN_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
_externally_pinned = all(os.environ.get(_v) == "1" for _v in _PIN_VARIABLES)
# setdefault cannot override a pre-existing non-"1" value, so an environment
# carrying e.g. OMP_NUM_THREADS=8 is unpinnable even when numpy has not been
# imported yet (the benchmark's _blas_pinned() re-checks the values too;
# this keeps the marker itself honest).
_pinnable_environment = all(
    os.environ.get(_v) in (None, "1") for _v in _PIN_VARIABLES
)
os.environ["REPRO_BENCH_BLAS_PINNABLE"] = (
    "1"
    if _externally_pinned or (_pinnable_environment and "numpy" not in sys.modules)
    else "0"
)

for _variable in _PIN_VARIABLES:
    os.environ.setdefault(_variable, "1")

