"""Tests of the benchmark itself: tracer hygiene, output check, cache deltas.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import time

import run
import workload
from spans import FunctionProbe, MethodProbe, Tracer

if str(workload.ROOT / "src") not in sys.path:
    sys.path.insert(0, str(workload.ROOT / "src"))


def _bindings(probes):
    """Every (owner, attribute) -> object a probe set would replace."""
    found = {}
    for probe in probes:
        if isinstance(probe, FunctionProbe):
            target = getattr(sys.modules[probe.module], probe.name)
            for name, module in list(sys.modules.items()):
                if module is not None and (name == "repro" or name.startswith("repro.")):
                    for attribute, value in vars(module).items():
                        if value is target:
                            found[(name, attribute)] = value
        else:
            found[(probe.cls, probe.name)] = probe.cls.__dict__[probe.name]
    return found


def _scenarios():
    from repro.runner.scenario import get_scenario, list_scenarios

    return {name: get_scenario(name) for name in list_scenarios()}


def test_wrappers_are_removed_afterwards(tmp_path):
    import repro.experiments  # noqa: F401 -- fills the scenario registry

    probes = workload.layer_probes()
    before = _bindings(probes)
    scenarios = _scenarios()
    tracer = Tracer(probes)
    dse = workload.DseWarm(1, tmp_path)
    tally = workload.Tally(dse.warm_up())
    with tracer, workload.ScenarioProbes(tracer):
        assert any(
            current is not before[key] for key, current in _bindings(probes).items()
        ), "nothing was wrapped"
        assert workload.traced_call(dse, tally, tracer) is not None
    after = _bindings(probes)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert all(_scenarios()[name] is scenario for name, scenario in scenarios.items())
    assert tally.failed == 0


def test_mutated_payload_is_counted_as_failed(tmp_path):
    dse = workload.DseWarm(1, tmp_path)
    expected = workload.stored_reference("dse", 1)
    assert dse.warm_up() == expected
    result = dse.call()
    tally = workload.Tally(expected)
    assert tally.check(result)
    row = result.payload["SRAM=8KB"]["LoAS"]
    mutated = dataclasses.replace(
        result,
        payload={**result.payload, "SRAM=8KB": {**result.payload["SRAM=8KB"],
                                                 "LoAS": {**row, "cycles": row["cycles"] + 1}}},
    )
    outputs = [result, mutated, RuntimeError("simulator crashed")]

    class Replay(workload.DseWarm):
        def call(self):
            output = outputs.pop(0)
            if isinstance(output, Exception):
                raise output
            return output

    replay = Replay(1, tmp_path)
    for _ in range(3):
        workload.timed_call(replay, tally)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_warm_up_that_differs_from_the_reference_fails(tmp_path, monkeypatch):
    dse, tally, _ = workload.setup("dse-warm", 1, tmp_path / "right")
    assert (tally.attempted, tally.failed) == (1, 0)
    monkeypatch.setattr(workload, "stored_reference", lambda family, seed: "0" * 64)
    dse, tally, _ = workload.setup("dse-warm", 1, tmp_path / "wrong")
    assert (tally.attempted, tally.failed) == (1, 1)


def test_disk_warm_fails_when_its_cold_warm_up_disagrees(tmp_path, monkeypatch):
    # The disk-warm calls match the reference; only the cold call that
    # filled the tier does not.  That disagreement must still fail a call.
    monkeypatch.setattr(workload, "NETWORK_SCALE", 0.05)
    reference = workload.NetworksCold(1, tmp_path / "cold").warm_up()
    monkeypatch.setattr(workload, "stored_reference", lambda family, seed: reference)

    class WrongCold(workload.NetworksDiskWarm):
        def warm_up(self):
            super().warm_up()
            return "0" * 64

    monkeypatch.setitem(workload.WORKLOADS, "networks-disk-warm", WrongCold)
    disk_warm, tally, _ = workload.setup("networks-disk-warm", 1, tmp_path / "warm")
    disk_warm.prepare()
    workload.timed_call(disk_warm, tally)
    assert (tally.attempted, tally.failed, tally.passed) == (2, 1, 1)


def test_peak_rss_covers_only_what_follows_the_reset():
    ballast = bytearray(64 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    del ballast
    with_ballast = workload.peak_rss_mb(True)
    assert workload.reset_peak_rss()
    assert workload.peak_rss_mb(True) < with_ballast - 32


def test_per_call_cache_deltas_are_not_cumulative(tmp_path, monkeypatch):
    monkeypatch.setattr(workload, "NETWORK_SCALE", 0.05)
    cold = workload.NetworksCold(1, tmp_path)
    tally = workload.Tally(cold.warm_up())
    tracer = Tracer(workload.layer_probes())
    with tracer, workload.ScenarioProbes(tracer):
        rows = [workload.traced_call(cold, tally, tracer) for _ in range(3)]
    assert tally.failed == 0
    for row in rows:
        assert row["engine.lru_misses"] == 80
        assert row["snn.generate_calls"] == 80
        assert row["engine.lru_hits"] == 0
        assert row["engine.refreshes"] == 80
        assert row["engine.lower_hits"] == 0
        assert row["engine.disk_bytes_read"] == 0


def test_bypassed_layer_with_work_fails_the_call(tmp_path):
    dse = workload.DseWarm(1, tmp_path)
    dse.warm_up()
    tracer = Tracer(workload.layer_probes())
    with tracer:
        dse.prepare()
        result, record = tracer.call(dse.call)
    assert workload.payload_digest(result) == workload.stored_reference("dse", 1)
    from repro.engine import default_cache

    stats = default_cache().stats()
    counts = workload.call_counts(record, stats, stats, 0)
    total = record.total_self_s()
    assert workload.trace_violations(dse, total, record, counts) == []
    counts["snn.generate_calls"] = 1
    assert workload.trace_violations(dse, total, record, counts) == [
        "snn.generate_calls is 1 on a workload that bypasses it"
    ]
    counts["snn.generate_calls"] = 0
    assert workload.trace_violations(dse, total / 2, record, counts)[0].startswith(
        "self times sum to"
    )

    def work_outside_the_spans():
        deadline = time.thread_time() + 0.01
        while time.thread_time() < deadline:
            pass
        return dse.call()

    with tracer:
        dse.prepare()
        start = time.perf_counter()
        _, record = tracer.call(work_outside_the_spans)
        seconds = time.perf_counter() - start
    problems = workload.trace_violations(dse, seconds, record, counts)
    assert len(problems) == 1 and problems[0].endswith("of CPU outside the traced spans")


def test_cached_property_wrapper_is_bound_and_recorded():
    import numpy as np
    from repro.engine.evaluation import LayerEvaluation

    spikes = np.zeros((2, 3, 4), dtype=np.uint8)
    spikes[0, 1, 2] = 1
    tracer = Tracer([MethodProbe(LayerEvaluation, "full_sums", "engine.full_sums")])
    with tracer:
        _, record = tracer.call(lambda: LayerEvaluation(spikes, np.ones((3, 5))).full_sums)
    assert record.spans["engine.full_sums"] == 1
    assert record.self_s["engine.full_sums"] > 0


def test_tail_is_the_highest_percentile_with_ten_calls_above():
    assert run.tail([float(v) for v in range(40)]) == (29.0, 75.0)
    assert run.tail([float(v) for v in range(100)]) == (89.0, 90.0)
    assert run.tail([float(v) for v in range(1000)]) == (899.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(workload.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(workload.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
