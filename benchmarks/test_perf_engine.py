"""Performance tracking for the evaluation engine and the cache tiers.

Times the Figure 12/13 network sweep (``run_networks(scale=0.25, seed=1)``)
in five regimes and records the wall-clock numbers in ``BENCH_engine.json``
at the repository root, so the performance trajectory is tracked from the PR
that introduced the engine onward:

* **cold**  -- serial, empty caches: tensor generation + statistics +
  simulator cost models (with cross-simulator sharing),
* **warm**  -- serial, fully populated in-process LRU: pure cost models,
* **two-worker cold** -- empty caches, partitions spread over a 2-process
  pool by the :class:`~repro.runner.SweepRunner`.  A two-process CPU burn
  calibrates the host first: where two processes get less than 1.5 CPUs of
  throughput the pool can only measure the scheduler, so the measurement
  itself is **skipped** (recorded as ``null`` plus a ``two_worker_skipped``
  reason and the burn ratio) rather than published as a misleading sub-1x
  "speedup",
* **disk-warm (tensors)** -- empty in-process LRU over a populated on-disk
  tier that stores tensors only (``store_derived=False``): generation is
  replaced by entry loads but every statistics GEMM reruns,
* **disk-warm (statistics entries)** -- the same over the default tier,
  whose entries carry the dehydrated derived artifacts (matches, full sums,
  compressions, preprocessed variants): loads replace the GEMM work too,
  which is what makes this regime approach the in-process warm path.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.engine import DiskEvaluationCache, clear_default_cache, default_cache
from repro.experiments.sweeps import run_networks

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Two processes must get at least this many CPUs of throughput (2 / the
#: burn ratio) for the 2-worker measurement to mean anything.
MIN_POOL_CAPACITY = 1.5

_BURN = (
    "import time\n"
    "start = time.perf_counter()\n"
    "total = 0\n"
    "for i in range(1_000_000):\n"
    "    total += i\n"
    "print(time.perf_counter() - start)\n"
)


def _time_run(**kwargs) -> float:
    start = time.perf_counter()
    run_networks(scale=0.25, seed=1, **kwargs)
    return time.perf_counter() - start


def _time_disk_warm(tier: DiskEvaluationCache, samples: int = 3, populate: bool = True) -> float:
    """Populate ``tier`` from cold, then time a run served from it.

    The timed regime runs ``samples`` times and the minimum is recorded:
    entry loads are short (tens of milliseconds) and IO-bound, so a single
    sample is noise-dominated on a busy host, and the minimum is the
    standard noise-robust estimator for the regime's true cost.
    """
    from repro.experiments.sweeps import network_sweep_plan
    from repro.runner import SweepRunner

    runner = SweepRunner(cache_dir=tier)
    plan = network_sweep_plan(scale=0.25, seed=1)
    if populate:
        clear_default_cache()
        runner.run(plan)  # populate (and write-back-enrich) the disk tier
    timings = []
    for _ in range(samples):
        clear_default_cache()
        start = time.perf_counter()
        runner.run(plan)
        timings.append(time.perf_counter() - start)
    return min(timings)


def test_perf_engine_cold_vs_warm():
    """Cold / warm / pool / disk-warm sweep timing; writes BENCH_engine.json."""
    # Cold: nothing cached, every workload is generated and analysed once
    # (one extra throwaway run first so one-time process costs -- lazy
    # imports, BLAS thread-pool spin-up -- do not pollute the numbers).
    # Like the disk-warm regimes, cold is the minimum of two samples: the
    # headline ratios divide two short wall-clock windows, and a load
    # spike inside either window would record the host's scheduler, not
    # the engine.
    clear_default_cache()
    _time_run()
    clear_default_cache()
    cold_seconds = _time_run()
    cold_info = default_cache().cache_info()

    # Warm: every evaluation is served from the in-process cache.
    warm_seconds = _time_run()
    warm_info = default_cache().cache_info()

    clear_default_cache()
    cold_seconds = min(cold_seconds, _time_run())

    # Two-worker cold: the orchestrator partitions the sweep by network and
    # runs the partitions in two worker processes, each starting cold.  The
    # measurement is meaningless without two CPUs of real throughput, which
    # neither os.cpu_count() nor the scheduling affinity reveals (two vCPUs
    # may share one core), so a two-process burn measures it.  Where the
    # capacity falls short the measurement is skipped -- and marked as
    # skipped -- instead of recording pool overhead that reads like a
    # slowdown.
    burn_ratio = _two_process_burn_ratio()
    if 2.0 / burn_ratio >= MIN_POOL_CAPACITY:
        clear_default_cache()
        two_worker_cold_seconds = _time_run(workers=2)
        two_worker_skipped = None
    else:
        two_worker_cold_seconds = None
        two_worker_skipped = (
            "two processes burn at %.2fx the time of one (%.2f CPUs of "
            "throughput, below %.1f); a 2-process pool would only measure "
            "the scheduler" % (burn_ratio, 2.0 / burn_ratio, MIN_POOL_CAPACITY)
        )

    # Disk-warm, twice: once over a tensor-only tier and once over the
    # default tier, whose entries carry the derived statistics.
    tier_root = tempfile.mkdtemp(prefix="bench-eval-cache-")
    try:
        disk_warm_seconds = _time_disk_warm(
            DiskEvaluationCache(os.path.join(tier_root, "tensors"), store_derived=False)
        )
        stats_tier = DiskEvaluationCache(os.path.join(tier_root, "v2"))
        stats_disk_warm_seconds = _time_disk_warm(stats_tier)
        stats_tier_info = stats_tier.cache_info()
        # Both sides of the headline ratio are single-process wall-clock
        # measurements; a load spike during either window (CI neighbours,
        # the rest of the benchmark suite) skews the ratio, so when it
        # lands under the asserted bound, re-measure each side under the
        # current load before concluding the regime regressed.
        for _ in range(2):
            if stats_disk_warm_seconds * 5 <= cold_seconds:
                break
            clear_default_cache()
            cold_seconds = min(cold_seconds, _time_run())
            stats_disk_warm_seconds = min(
                stats_disk_warm_seconds, _time_disk_warm(stats_tier, populate=False)
            )
    finally:
        shutil.rmtree(tier_root, ignore_errors=True)

    record = {
        "benchmark": "run_networks(scale=0.25, seed=1)",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "usable_cpus": _usable_cpus(),
        "blas_pinned": _blas_pinned(),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": round(cold_seconds / warm_seconds, 2) if warm_seconds else None,
        "two_worker_cold_seconds": (
            round(two_worker_cold_seconds, 4) if two_worker_cold_seconds is not None else None
        ),
        "two_worker_speedup": (
            round(cold_seconds / two_worker_cold_seconds, 2)
            if two_worker_cold_seconds
            else None
        ),
        "two_worker_skipped": two_worker_skipped,
        "two_worker_burn_ratio": round(burn_ratio, 2),
        "disk_warm_seconds": round(disk_warm_seconds, 4),
        "stats_disk_warm_seconds": round(stats_disk_warm_seconds, 4),
        "stats_disk_warm_speedup": (
            round(cold_seconds / stats_disk_warm_seconds, 2)
            if stats_disk_warm_seconds
            else None
        ),
        "cold_cache": cold_info,
        "warm_cache": warm_info,
        "stats_disk_tier": stats_tier_info,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(
        "\nBENCH_engine: cold %.3fs, warm %.3fs (%.0fx), 2-worker cold %s, "
        "disk-warm %.3fs (tensors) / %.3fs (v2 stats), written to %s"
        % (
            cold_seconds,
            warm_seconds,
            record["warm_speedup"] or 0.0,
            "%.3fs" % two_worker_cold_seconds if two_worker_cold_seconds else "skipped",
            disk_warm_seconds,
            stats_disk_warm_seconds,
            BENCH_PATH.name,
        )
    )

    # The warm path must skip all tensor generation and statistics work.
    assert warm_info["hits"] > cold_info["hits"]
    assert warm_seconds < cold_seconds
    # The 2-worker cold sweep must beat serial cold wherever the host has
    # the parallel capacity to exploit (the measurement is skipped entirely
    # above when it has not).
    if two_worker_cold_seconds is not None:
        assert two_worker_cold_seconds < cold_seconds
    # The v2 entries must serve the derived statistics, not just tensors:
    # every disk hit of the timed run skips the matches/full-sums GEMMs, so
    # disk-warm must sit much closer to LRU-warm than to cold.
    assert stats_tier_info["refreshes"] > 0  # write-back enrichment happened
    assert stats_disk_warm_seconds * 5 <= cold_seconds
    assert stats_disk_warm_seconds < disk_warm_seconds


def _two_process_burn_ratio(rounds: int = 3) -> float:
    """Seconds of a CPU burn run beside a twin over the seconds alone.

    About 1 means two real cores; about 2 means the two processes share
    one.  A shared host's capacity swings within seconds, so the ratio is
    the median over ``rounds`` alone/paired rounds rather than one sample.
    """

    def burns(count: int) -> list[float]:
        processes = [
            subprocess.Popen([sys.executable, "-c", _BURN], stdout=subprocess.PIPE, text=True)
            for _ in range(count)
        ]
        try:
            return [float(process.communicate(timeout=60)[0]) for process in processes]
        finally:
            for process in processes:
                process.kill()
                process.wait()

    ratios = []
    for _ in range(rounds):
        alone = burns(1)[0]
        ratios.append(statistics.mean(burns(2)) / alone)
    return statistics.median(ratios)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux platforms
        return os.cpu_count() or 1


def _blas_pinned() -> bool:
    """Whether the single-thread BLAS pin (see ``conftest.py``) held.

    ``False`` labels the recorded ratios as potentially thread-count
    dependent (the conftest pin is a no-op when numpy was imported before
    it, and external env settings may allow multiple threads).
    """
    return os.environ.get("REPRO_BENCH_BLAS_PINNABLE") == "1" and all(
        os.environ.get(variable) == "1"
        for variable in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        )
    )
