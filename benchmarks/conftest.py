"""Benchmark harness configuration.

Every benchmark regenerates one table or figure of the paper.  The heavy
accelerator sweeps are executed exactly once per benchmark (``rounds=1``)
because the quantity of interest is the *result* (the rows / series of the
table or figure, printed to stdout), not the harness runtime.  Paper-scale
workloads are used wherever they finish in a few tens of seconds; the two
largest sweeps are run at half scale, which preserves every qualitative
trend (the sparsity profiles are unchanged).

The single-thread BLAS pin the engine benchmark records lives in the root
``conftest.py``.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark and return its value."""

    def run(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run
