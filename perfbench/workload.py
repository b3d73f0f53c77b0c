"""One benchmark workload measured in one fresh, BLAS-pinned interpreter.

``run.py`` starts this script once per set-up sample and once per measured
run; it is not meant to be started by hand except to re-record the stored
reference digests::

    python3 perfbench/workload.py --record-references 100

Every workload drives the public :class:`repro.api.Session` with a single
closed-loop client: each ``Session.run`` call is issued only after the
previous one returned.  Only host wall-clock is timed.  The simulated
cycles, traffic and energy are outputs: every call's payload is digested
and compared with a reference, and a mismatch or an exception counts as a
failed call.

The module imports nothing but the standard library at import time, so
``run.py`` and the tests can read its tables without loading numpy.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Thread-count variables every BLAS / OpenMP runtime reads when it loads.
PIN_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Network scale of both ``networks-*`` workloads.  At 0.25 a cold call
#: takes about 0.4 s, so a run of the configured length holds enough calls
#: for a tail percentile above the median (see README.md).
NETWORK_SCALE = 0.25
NETWORK_SIMS_PER_CALL = 200  # 5 simulators x 40 layers of the three networks

DSE_LAYER = "A-L4"
DSE_SCALE = 1.0
DSE_CAPACITIES_KB = tuple(range(8, 8 * 65, 8))  # 64 global-SRAM capacities
DSE_SIMULATORS = ("SparTen-SNN", "GoSPA-SNN", "Gamma-SNN", "LoAS", "PTB", "Stellar")
DSE_SIMS_PER_CALL = len(DSE_CAPACITIES_KB) * len(DSE_SIMULATORS)  # 384

#: Per-call self time of each traced layer is reported as ``<layer>_s``.
SIMULATOR_LAYERS = {
    "LoAS": "core.LoAS_self",
    "SparTen-SNN": "baselines.SparTen-SNN_self",
    "GoSPA-SNN": "baselines.GoSPA-SNN_self",
    "Gamma-SNN": "baselines.Gamma-SNN_self",
    "PTB": "baselines.PTB_self",
    "Stellar": "baselines.Stellar_self",
}
TIMED_LAYERS = (
    "snn.generate",
    "sparse.pack",
    "engine.full_sums",
    "engine.matches",
    "engine.statistics",
    "engine.lif",
    "engine.compress",
    "engine.preprocess",
    "engine.serde_encode",
    "engine.disk_put",
    "engine.writeback",
    "engine.disk_get",
    "engine.serde_decode",
    "engine.evaluate",
    *SIMULATOR_LAYERS.values(),
    "arch.resolve",
    "experiments.build",
    "experiments.shape",
    "runner.partition_self",
    "metrics.aggregate",
    "api.session_self",
)
#: Per-call counts, with their units.
COUNT_METRICS = {
    "snn.generate_calls": "count",
    "engine.refreshes": "count",
    "engine.disk_bytes_written": "bytes",
    "engine.disk_bytes_read": "bytes",
    "engine.lower_hits": "count",
    "engine.lru_hits": "count",
    "engine.lru_misses": "count",
    "engine.lru_hit_ratio": "frac",
}
#: The per-layer metrics of one traced call, with their units.
ROW_METRICS = {**{layer + "_s": "s" for layer in TIMED_LAYERS}, **COUNT_METRICS}
#: Every per-layer metric of the traced run, with its unit.
PER_LAYER_METRICS = {**ROW_METRICS, "trace.overhead_frac": "frac"}


def payload_digest(result) -> str:
    """SHA-256 of a :class:`~repro.api.ScenarioResult` payload.

    The payload goes through the result's own versioned JSON encoding, in
    which every float is written with all its digits, so equal digests mean
    bit-identical simulated numbers.  Provenance (cache counters, paths) is
    left out: it legitimately differs between cache regimes.
    """
    payload = json.loads(result.to_json())["payload"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def stored_reference(family: str, seed: int) -> str | None:
    """The recorded digest of ``family`` at ``seed``, if one is stored."""
    references = json.loads(REFERENCES.read_text())
    return references["digests"][family].get(str(seed))


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
class Workload:
    """One workload: a warm-up, an untimed per-call preparation and a call.

    ``must_be_zero`` names per-call counts of layers the workload bypasses;
    the traced run fails any call in which one of them is not zero.
    """

    name = ""
    family = ""
    sims_per_call = 0
    must_be_zero: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.session = self.new_session()

    def new_session(self):
        from repro.api import Session

        return Session()

    def warm_up(self) -> str:
        """Bring the workload to its measured state; the warm-up call's digest."""
        self.prepare()
        try:
            return payload_digest(self.call())
        finally:
            self.finish()

    def prepare(self) -> None:
        """Untimed work before each call."""

    def call(self):
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed work after each call."""

    def tiers(self) -> tuple:
        """Disk tiers the current call uses (their counters are read per call)."""
        return ()


class NetworksCold(Workload):
    """A user's first run of Figures 12/13: empty LRU, fresh empty disk tier."""

    name = "networks-cold"
    family = "networks"
    sims_per_call = NETWORK_SIMS_PER_CALL
    must_be_zero = (
        "engine.lower_hits",
        "engine.disk_bytes_read",
        "engine.serde_decode_calls",
    )

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._calls = 0
        self._tier = None

    def prepare(self) -> None:
        from repro.engine import DiskEvaluationCache

        self.session.clear_cache()
        self._calls += 1
        self._tier = DiskEvaluationCache(self.workdir / ("cold-%d" % self._calls))

    def call(self):
        return self.session.run(
            "networks", scale=NETWORK_SCALE, seed=self.seed, cache_dir=self._tier
        )

    def finish(self) -> None:
        shutil.rmtree(self._tier.directory, ignore_errors=True)

    def tiers(self) -> tuple:
        return (self._tier,)


class NetworksDiskWarm(Workload):
    """The same sweep served from a disk tier that set-up populated."""

    name = "networks-disk-warm"
    family = "networks"
    sims_per_call = NETWORK_SIMS_PER_CALL
    must_be_zero = ("snn.generate_calls", "engine.lru_misses")

    def new_session(self):
        from repro.api import Session

        return Session(cache_dir=self.workdir / "tier")

    def warm_up(self) -> str:
        # A cold call with the tier attached populates and enriches it; its
        # digest is the reference every disk-warm call must reproduce.
        self.session.clear_cache(disk=True)
        return payload_digest(self.call())

    def prepare(self) -> None:
        self.session.clear_cache()

    def call(self):
        return self.session.run("networks", scale=NETWORK_SCALE, seed=self.seed)

    def tiers(self) -> tuple:
        return (self.session.disk_tier,)


class DseWarm(Workload):
    """A pure-cost SRAM design-space sweep over an LRU warmed in set-up."""

    name = "dse-warm"
    family = "dse"
    sims_per_call = DSE_SIMS_PER_CALL
    must_be_zero = (
        "snn.generate_calls",
        "engine.lru_misses",
        "engine.lower_hits",
        "engine.disk_get_calls",
        "engine.disk_put_calls",
        "engine.disk_bytes_read",
        "engine.disk_bytes_written",
    )

    def call(self):
        return self.session.run(
            "dse-sram-sweep",
            layer=DSE_LAYER,
            scale=DSE_SCALE,
            seed=self.seed,
            capacities_kb=DSE_CAPACITIES_KB,
            simulators=DSE_SIMULATORS,
        )


WORKLOADS = {cls.name: cls for cls in (NetworksCold, NetworksDiskWarm, DseWarm)}


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #
class Tally:
    """Closed-loop call outcomes: per-call seconds and failures.

    ``passed`` counts the measured calls that passed; the warm-up call is
    checked and counted in ``attempted``/``failed`` but not timed.
    """

    def __init__(self, expected: str):
        self.expected = expected
        self.seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.passed = 0

    def check(self, result) -> bool:
        """Whether ``result``'s payload digest is the expected one."""
        return payload_digest(result) == self.expected

    def add(self, seconds: float, ok: bool) -> None:
        self.attempted += 1
        self.seconds.append(seconds)
        if ok:
            self.passed += 1
        else:
            self.failed += 1

    def add_warm_up(self, digest: str) -> None:
        """Count the untimed warm-up call, failed unless ``digest`` is expected."""
        self.attempted += 1
        if digest != self.expected:
            print("warm-up payload differs from the reference", file=sys.stderr)
            self.failed += 1


def timed_call(workload: Workload, tally: Tally, tracer=None):
    """Time and check one prepared call; ``(seconds, ok, trace record)``.

    An exception inside the call is printed and counted as a failure (and
    ``None`` returned); the closed loop carries on with the next call.  The
    garbage left by the previous check is collected before the clock
    starts, so the benchmark's own bookkeeping is not timed.
    """
    gc.collect()
    record = None
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.call()
        else:
            result, record = tracer.call(workload.call)
    except Exception:
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        tally.add(seconds, False)
        workload.finish()
        return None
    seconds = time.perf_counter() - start
    ok = tally.check(result)
    if not ok:
        print("payload digest mismatch in %s call %d" % (workload.name, tally.attempted + 1),
              file=sys.stderr)
    workload.finish()
    tally.add(seconds, ok)
    return seconds, ok, record


def loop(workload: Workload, tally: Tally, seconds: float) -> None:
    """Issue calls back to back until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        workload.prepare()
        timed_call(workload, tally)


def setup(name: str, seed: int, workdir: Path) -> tuple[Workload, Tally, float]:
    """Import ``repro``, fill the scenario registry, build the session, warm up.

    Returns the workload, the tally its calls are counted in and the set-up
    seconds.  The stored reference digest wins when one exists for the
    seed, otherwise the warm-up's digest is the reference.  The warm-up
    call is counted in the tally and fails when it differs from a stored
    reference.  On ``networks-disk-warm`` the warm-up is the cold call that
    fills the tier, so a cold/disk-warm disagreement always fails a call.
    """
    start = time.perf_counter()
    import repro
    from repro.api import Session

    Session().scenarios()
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("repro was imported from %s, not from this checkout" % repro.__file__)
    workload = WORKLOADS[name](seed, workdir)
    warm = workload.warm_up()
    elapsed = time.perf_counter() - start
    tally = Tally(stored_reference(workload.family, seed) or warm)
    tally.add_warm_up(warm)
    return workload, tally, elapsed


# ---------------------------------------------------------------------- #
# Tracing
# ---------------------------------------------------------------------- #
def _count_bytes(counter: str, position: int):
    def count(counts, args, result):
        counts[counter] += len(args[position])

    return count


def layer_probes():
    """Span probes at the boundary of every layer the workloads reach."""
    import functools

    from repro.api.session import Session
    from repro.arch.spec import ArchSpec
    from repro.engine.cache import WorkloadEvaluationCache
    from repro.engine.disk_cache import DiskEvaluationCache
    from repro.engine.evaluation import LayerEvaluation
    from repro.engine.serde import DeferredArray
    from repro.runner.scenario import SIMULATOR_FACTORIES
    from repro.snn.workloads import LayerWorkload
    from spans import FunctionProbe, MethodProbe

    named = {
        "full_sums": "engine.full_sums",
        "_join_products": "engine.matches",
    }
    evaluation_probes = [
        MethodProbe(LayerEvaluation, name, named.get(name, "engine.statistics"))
        for name, value in vars(LayerEvaluation).items()
        if isinstance(value, functools.cached_property)
    ]
    simulator_probes = [
        MethodProbe(SIMULATOR_FACTORIES[key], "simulate_layer", layer)
        for key, layer in SIMULATOR_LAYERS.items()
    ]
    return [
        MethodProbe(Session, "run", "api.session_self"),
        FunctionProbe("repro.runner.executor", "_execute_partition", "runner.partition_self"),
        FunctionProbe("repro.metrics.results", "aggregate_results", "metrics.aggregate"),
        FunctionProbe("repro.arch.spec", "resolve_arch", "arch.resolve"),
        MethodProbe(ArchSpec, "with_overrides", "arch.resolve"),
        MethodProbe(WorkloadEvaluationCache, "evaluate", "engine.evaluate"),
        MethodProbe(WorkloadEvaluationCache, "_flush_locked", "engine.writeback"),
        MethodProbe(DiskEvaluationCache, "get", "engine.disk_get"),
        MethodProbe(DiskEvaluationCache, "put", "engine.disk_put"),
        MethodProbe(
            DiskEvaluationCache,
            "_write_atomically",
            "engine.disk_put",
            _count_bytes("engine.disk_bytes_written", 2),
        ),
        FunctionProbe("repro.engine.backend", "pack_entry", "engine.serde_encode"),
        FunctionProbe(
            "repro.engine.backend",
            "unpack_entry",
            "engine.serde_decode",
            _count_bytes("engine.disk_bytes_read", 0),
        ),
        MethodProbe(DeferredArray, "materialise", "engine.serde_decode"),
        MethodProbe(LayerEvaluation, "output_spikes", "engine.lif"),
        MethodProbe(LayerEvaluation, "compress_output", "engine.compress"),
        MethodProbe(LayerEvaluation, "preprocessed", "engine.preprocess"),
        *evaluation_probes,
        FunctionProbe("repro.sparse.packed", "pack_spike_words", "sparse.pack"),
        MethodProbe(LayerWorkload, "generate", "snn.generate"),
        *simulator_probes,
    ]


class ScenarioProbes:
    """Spans around every sweep scenario's ``build`` and ``shape`` callables.

    Scenarios are frozen registry entries, so the traced copies are
    registered in their place and the originals re-registered afterwards.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._originals = []

    def __enter__(self):
        import dataclasses

        from repro.runner.scenario import get_scenario, list_scenarios, register_scenario

        for name in list_scenarios():
            scenario = get_scenario(name)
            if scenario.build is None:
                continue
            traced = dataclasses.replace(
                scenario,
                build=self.tracer.wrap(scenario.build, "experiments.build", None),
                shape=self.tracer.wrap(scenario.shape, "experiments.shape", None),
            )
            self._originals.append(scenario)
            register_scenario(traced, replace=True)
        return self

    def __exit__(self, *exc_info):
        from repro.runner.scenario import register_scenario

        while self._originals:
            register_scenario(self._originals.pop(), replace=True)


def call_counts(record, lru_before, lru_after, refreshes: int) -> dict:
    """Flat per-call counts: spans per layer plus the cache counter deltas."""
    counts = {layer + "_calls": record.spans.get(layer, 0) for layer in TIMED_LAYERS}
    counts["engine.disk_bytes_written"] = record.counts.get("engine.disk_bytes_written", 0)
    counts["engine.disk_bytes_read"] = record.counts.get("engine.disk_bytes_read", 0)
    counts["engine.refreshes"] = refreshes
    hits = lru_after.hits - lru_before.hits
    misses = lru_after.misses - lru_before.misses
    lower = lru_after.disk_hits - lru_before.disk_hits
    counts["engine.lru_hits"] = hits
    counts["engine.lru_misses"] = misses
    counts["engine.lower_hits"] = lower
    requests = hits + misses + lower
    counts["engine.lru_hit_ratio"] = hits / requests if requests else 0.0
    return counts


def trace_violations(workload: Workload, seconds: float, record, counts: dict) -> list[str]:
    """The traced-run consistency checks one call fails (empty when it passes)."""
    problems = []
    total = record.total_self_s()
    if abs(total - record.root_s) > 1e-6 or total > seconds:
        problems.append(
            "self times sum to %.6f s; root spans took %.6f s of a %.6f s call"
            % (total, record.root_s, seconds)
        )
    # Work outside every span is judged in thread CPU time: on a shared host
    # a preemption between the clock and the root span adds wall-clock time
    # that no code spent.
    outside = record.call_cpu_s - record.root_cpu_s
    if outside > max(0.002 * seconds, 200e-6):
        problems.append("%.6f s of CPU outside the traced spans" % outside)
    simulated = sum(record.spans.get(layer, 0) for layer in SIMULATOR_LAYERS.values())
    if simulated != workload.sims_per_call:
        problems.append("%d simulator calls, expected %d" % (simulated, workload.sims_per_call))
    for name in workload.must_be_zero:
        if counts[name]:
            problems.append("%s is %r on a workload that bypasses it" % (name, counts[name]))
    return problems


def traced_call(workload: Workload, tally: Tally, tracer) -> dict | None:
    """One prepared, traced and checked call; its per-layer metrics row.

    ``None`` when the call failed its output check or a trace check.
    """
    from repro.engine import default_cache

    workload.prepare()
    lru_before = default_cache().stats()
    refreshes_before = [tier.refreshes for tier in workload.tiers()]
    outcome = timed_call(workload, tally, tracer)
    if outcome is None:
        return None
    seconds, ok, record = outcome
    refreshes = sum(
        tier.refreshes - before for tier, before in zip(workload.tiers(), refreshes_before)
    )
    counts = call_counts(record, lru_before, default_cache().stats(), refreshes)
    problems = trace_violations(workload, seconds, record, counts)
    if problems:
        print("trace check failed: " + "; ".join(problems), file=sys.stderr)
        if ok:
            tally.failed += 1
            tally.passed -= 1
        return None
    if not ok:
        return None
    return {
        **{layer + "_s": record.self_s.get(layer, 0.0) for layer in TIMED_LAYERS},
        **{name: counts[name] for name in COUNT_METRICS},
    }


def traced_loop(workload: Workload, tally: Tally, seconds: float) -> list[dict]:
    """Closed-loop traced calls; one per-layer metrics row per passing call."""
    from spans import Tracer

    tracer = Tracer(layer_probes())
    rows = []
    with tracer, ScenarioProbes(tracer):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            row = traced_call(workload, tally, tracer)
            if row is not None:
                rows.append(row)
    return rows


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def pin_is_clean() -> bool:
    """Every thread variable is ``1`` and numpy is not loaded yet."""
    return all(os.environ.get(v) == "1" for v in PIN_VARIABLES) and "numpy" not in sys.modules


def reset_peak_rss() -> bool:
    """Reset the process's resident-memory high-water mark (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(since_reset: bool) -> float:
    """Peak resident MB since the last reset, or of the whole process."""
    if since_reset:
        with open("/proc/self/status") as status:
            return int(re.search(r"VmHWM:\s+(\d+) kB", status.read()).group(1)) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args) -> dict:
    workload, tally, setup_s = setup(args.workload, args.seed, args.workdir)
    out = {"setup_s": setup_s}
    if args.mode == "measure":
        # The peak covers the measured calls only, not the warm-up: on
        # networks-disk-warm that is a cold call, which would set it.
        gc.collect()
        since_reset = reset_peak_rss()
        loop(workload, tally, args.seconds)
        out["peak_rss_mb"] = peak_rss_mb(since_reset)
        out["peak_rss_scope"] = "measured calls" if since_reset else "process"
        out["sims_completed"] = tally.passed * workload.sims_per_call
    elif args.mode == "trace":
        # Half the run untraced, half traced: the trace's own cost is the
        # difference of the two medians.
        loop(workload, tally, args.seconds / 2.0)
        untraced = statistics.median(tally.seconds) if tally.seconds else float("nan")
        first_traced = len(tally.seconds)
        rows = traced_loop(workload, tally, args.seconds / 2.0)
        traced = tally.seconds[first_traced:]
        layers = {
            name: statistics.median(row[name] for row in rows) if rows else 0.0
            for name in ROW_METRICS
        }
        layers["trace.overhead_frac"] = (
            statistics.median(traced) / untraced - 1.0 if traced else float("nan")
        )
        out["per_layer"] = layers
    out.update(seconds=tally.seconds, attempted=tally.attempted, failed=tally.failed)
    return out


def record_references(count: int) -> None:
    """Write the payload digests of every family for seeds ``0..count-1``."""
    import tempfile

    digests = {"networks": {}, "dse": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        for seed in range(count):
            for cls in (NetworksCold, DseWarm):
                digests[cls.family][str(seed)] = cls(seed, Path(workdir)).warm_up()
    document = {
        "about": "sha256 of the Session.run payload JSON (see payload_digest) per seed; "
        "seed 1 is the scenarios' default seed and the one the benchmark was developed on; "
        "the other seeds are held out",
        "digests": digests,
    }
    REFERENCES.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), default="measure")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--record-references", type=int, metavar="SEEDS")
    args = parser.parse_args(argv)
    if not pin_is_clean():
        print("BLAS thread pin is tainted; refusing to record", file=sys.stderr)
        return 3
    sys.path.insert(0, str(ROOT / "src"))
    if args.record_references:
        record_references(args.record_references)
        return 0
    if None in (args.workload, args.seed, args.seconds, args.workdir):
        parser.error("--workload, --seed, --seconds and --workdir are required")
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = measure(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    import numpy

    out["numpy"] = numpy.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
