"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload networks-cold --seed 1 --seconds 20 --trace 0

Each workload runs in its own fresh interpreter (``workload.py``) with
every BLAS thread variable set to ``1`` before numpy loads.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` prints the per-layer metrics
of a separate traced run.  The line before the result records the host
(CPU count, two-process burn ratio, Python and numpy versions) and the
sample count behind the tail percentile.  The last line is the result::

    {"correct": true, "attempted": 51, "failed": 0, "metrics": {...}}

Without the program's sources (``src/repro``) next to this directory the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workload import PER_LAYER_METRICS, PIN_VARIABLES, WORKLOADS  # noqa: E402

#: Fresh interpreters whose set-up time is sampled per run (the measured
#: interpreter's own set-up is one of them); ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Wall-clock limit of a whole run; a workload interpreter still running
#: then is killed and the run fails.
RUN_LIMIT_S = 170.0

_BURN = (
    "import time\n"
    "start = time.perf_counter()\n"
    "total = 0\n"
    "for i in range(1_000_000):\n"
    "    total += i\n"
    "print(time.perf_counter() - start)\n"
)


def pinned_environment() -> dict:
    env = dict(os.environ)
    env.update({variable: "1" for variable in PIN_VARIABLES})
    env.pop("PYTHONPATH", None)  # the workload imports repro from this checkout only
    return env


def burn() -> tuple[float, float]:
    """Seconds of one CPU burn alone, and the two-process burn ratio.

    The ratio is the seconds of the burn run beside a twin over the seconds
    alone.  About 1 means two real cores; about 2 means the two processes
    share one, in which case a worker pool measures the scheduler.  The
    seconds alone track the host's speed from run to run.
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

    alone = burns(1)[0]
    return alone, statistics.mean(burns(2)) / alone


def run_workload(args, mode: str, index: int, deadline: float) -> dict:
    """One workload interpreter; its JSON report (exits on failure)."""
    workdir = ROOT / ".perfbench-work" / ("%d-%d" % (os.getpid(), index))
    command = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", str(workdir),
    ]
    try:
        done = subprocess.run(
            command,
            env=pinned_environment(),
            capture_output=True,
            text=True,
            timeout=max(deadline - time.perf_counter(), 1.0),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit("workload interpreter exited with status %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(seconds: list[float]) -> tuple[float, float]:
    """The highest percentile up to the 90th with at least ten calls above it.

    Returns the value and its percentile rank.  The rank is capped at 90
    because, on a shared host, the last few percent of a run's calls are
    host stalls, and a tail made of them does not repeat from run to run.
    Below eleven calls no percentile has ten above it; the slowest call is
    reported then.
    """
    ordered = sorted(seconds)
    count = len(ordered)
    if count < 11:
        return ordered[-1], 100.0
    index = min(count - 11, int(0.9 * count) - 1)
    return ordered[index], 100.0 * (index + 1) / count


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, context: dict, deadline: float) -> tuple[dict, dict]:
    setups = [run_workload(args, "setup", index, deadline) for index in range(SETUP_SAMPLES - 1)]
    report = run_workload(args, "measure", SETUP_SAMPLES, deadline)
    # Every interpreter's warm-up call is checked, so all of them count.
    totals = {
        key: sum(sample[key] for sample in (*setups, report)) for key in ("attempted", "failed")
    }
    seconds = report["seconds"]
    tail_s, rank = tail(seconds)
    context.update(
        numpy=report["numpy"],
        calls=len(seconds),
        tail_percentile=rank,
        peak_rss_scope=report["peak_rss_scope"],
    )
    metrics = {
        "call_s_p50": metric(statistics.median(seconds), "s"),
        "call_s_tail": metric(tail_s, "s"),
        "layer_sims_per_s": metric(report["sims_completed"] / sum(seconds), "1/s"),
        "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        "ok_frac": metric(1.0 - totals["failed"] / totals["attempted"], "frac"),
        "setup_s": metric(
            statistics.median(sample["setup_s"] for sample in (*setups, report)), "s"
        ),
    }
    return totals, metrics


def per_layer(args, context: dict, deadline: float) -> tuple[dict, dict]:
    report = run_workload(args, "trace", 0, deadline)
    context.update(numpy=report["numpy"], calls=len(report["seconds"]))
    metrics = {
        name: metric(report["per_layer"][name], unit) for name, unit in PER_LAYER_METRICS.items()
    }
    return report, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="LoAS reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("no program sources at %s" % (ROOT / "src" / "repro"), file=sys.stderr)
        return 2
    started = time.perf_counter()
    burn_s, burn_ratio = burn()
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "burn_s": burn_s,
        "burn_ratio": burn_ratio,
        "python": platform.python_version(),
        "blas_threads": 1,
        "model": "unvalidated: no hardware measurement of LoAS exists in the repository, "
        "so simulated cycles and energy are checked for equality, never scored for error",
    }
    report, metrics = (per_layer if args.trace else end_to_end)(
        args, context, started + RUN_LIMIT_S
    )
    context["wall_s"] = time.perf_counter() - started
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
