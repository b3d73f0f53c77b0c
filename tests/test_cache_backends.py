"""Evaluation cache: entry format, degradation, serde losslessness, identity.

The LRU over its optional disk tier must be invisible to results: scenario
sweeps are bit-identical whether evaluations come from regeneration, the
LRU or disk entries carrying derived statistics -- serial and pooled
alike.  Degraded entries (torn payloads, files in the retired zip format)
must be dropped and regenerated, never fail the sweep.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import LoASSimulator
from repro.engine import DiskEvaluationCache, WorkloadEvaluationCache, clear_default_cache
from repro.engine.backend import CacheEntry, pack_entry, unpack_entry
from repro.engine.cache import generator_fingerprint, workload_fingerprint
from repro.engine.serde import DeferredArray, encode_state, pack_payload, unpack_payload
from repro.snn.network import LayerShape
from repro.snn.workloads import LayerWorkload, SparsityProfile

from test_runner import assert_sweeps_identical, legacy_run_networks


def make_workload(name="tiny", m=8, k=160, n=32, t=4) -> LayerWorkload:
    profile = SparsityProfile(0.881, 0.765, 0.868, 0.968)
    return LayerWorkload(LayerShape(name, m=m, k=k, n=n, t=t), profile)


def assert_simulations_identical(a, b):
    assert a.cycles == b.cycles
    assert a.dram.as_dict() == b.dram.as_dict()
    assert dict(a.energy.entries) == dict(b.energy.entries)
    assert a.ops == b.ops


@pytest.fixture
def tier(tmp_path) -> DiskEvaluationCache:
    return DiskEvaluationCache(tmp_path / "evals")


def consumed_evaluation(
    cache: WorkloadEvaluationCache, workload, seed=3, preprocess=True, disk_tier=None
):
    """Evaluate and run a simulator over the result (enriching it)."""
    evaluation = cache.evaluate(workload, np.random.default_rng(seed), disk_tier=disk_tier)
    result = LoASSimulator().simulate_workload(workload, evaluation=evaluation)
    if preprocess:
        LoASSimulator().simulate_workload(
            workload, evaluation=evaluation, preprocess=True
        )
    return evaluation, result


# --------------------------------------------------------------------- #
# Dehydrate / hydrate round trip
# --------------------------------------------------------------------- #
class TestDehydration:
    def test_round_trip_is_bit_identical_and_preseeded(self, tiny_workload):
        cache = WorkloadEvaluationCache()
        evaluation, reference = consumed_evaluation(cache, tiny_workload)
        entry = CacheEntry(evaluation, np.random.default_rng(0).bit_generator.state)
        hydrated = unpack_entry(pack_entry(entry)).evaluation

        assert np.array_equal(hydrated.spikes, evaluation.spikes)
        assert hydrated.spikes.dtype == evaluation.spikes.dtype
        assert np.array_equal(hydrated.weights, evaluation.weights)
        assert hydrated.weights.dtype == evaluation.weights.dtype
        # The statistics GEMM outputs arrive pre-seeded, not recomputed.
        assert "matches" in hydrated.__dict__
        assert np.array_equal(hydrated.matches, evaluation.matches)
        assert hydrated.matches.dtype == evaluation.matches.dtype
        # Memoised compressions (and the preprocessed child's) survive; the
        # child itself rebuilds lazily (masking the dense spikes) on first
        # preprocessed() call, with its derived arrays served from the entry.
        assert set(hydrated._compressions) == set(evaluation._compressions)
        assert 1 in hydrated._pending_preprocessed and not hydrated._preprocessed
        child, reference_child = hydrated.preprocessed(1), evaluation._preprocessed[1]
        assert "matches" in child.__dict__  # seeded, not recomputed
        assert np.array_equal(child.matches, reference_child.matches)
        assert set(child._compressions) == set(reference_child._compressions)
        result = LoASSimulator().simulate_workload(tiny_workload, evaluation=hydrated)
        assert_simulations_identical(result, reference)

    def test_enrichment_grows_with_derived_state(self, tiny_workload):
        cache = WorkloadEvaluationCache()
        evaluation = cache.evaluate(tiny_workload, np.random.default_rng(3))
        fresh = evaluation.enrichment
        evaluation.statistics
        assert evaluation.enrichment > fresh


# --------------------------------------------------------------------- #
# v2 disk entries
# --------------------------------------------------------------------- #
class TestDiskV2:
    def test_writeback_enriches_the_stored_entry(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache()
        _, reference = consumed_evaluation(cache, tiny_workload, disk_tier=tier)
        assert tier.stores == 1 and tier.refreshes == 0
        assert cache.flush_writebacks() == 1
        assert tier.refreshes == 1

        cold = WorkloadEvaluationCache()
        loaded = cold.evaluate(tiny_workload, np.random.default_rng(3), disk_tier=tier)
        assert cold.disk_hits == 1 and cold.misses == 0
        assert "matches" in loaded.__dict__  # statistics served from disk
        assert loaded._compressions  # compression served from disk
        result = LoASSimulator().simulate_workload(tiny_workload, evaluation=loaded)
        assert_simulations_identical(result, reference)

    def test_store_derived_false_strips_the_derived_state(self, tmp_path, tiny_workload):
        tier = DiskEvaluationCache(tmp_path / "evals", store_derived=False)
        cache = WorkloadEvaluationCache()
        consumed_evaluation(cache, tiny_workload, disk_tier=tier)
        cache.flush_writebacks()
        assert tier.refreshes == 0  # nothing to enrich a tensor-only tier with
        loaded = WorkloadEvaluationCache().evaluate(
            tiny_workload, np.random.default_rng(3), disk_tier=tier
        )
        assert "matches" not in loaded.__dict__

    def test_unflushed_entries_stay_tensor_only_but_loadable(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache()
        cache.evaluate(tiny_workload, np.random.default_rng(3), disk_tier=tier)
        loaded = WorkloadEvaluationCache().evaluate(
            tiny_workload, np.random.default_rng(3), disk_tier=tier
        )
        assert "matches" not in loaded.__dict__
        assert np.array_equal(
            loaded.matches,
            WorkloadEvaluationCache().evaluate(
                tiny_workload, np.random.default_rng(3)
            ).matches,
        )


# --------------------------------------------------------------------- #
# Degradation: retired zip entries, torn payloads
# --------------------------------------------------------------------- #
def write_v1_entry(tier: DiskEvaluationCache, workload, seed: int):
    """Publish an entry in the retired ``np.savez`` (v1) format."""
    rng = np.random.default_rng(seed)
    key = (workload_fingerprint(workload, False), generator_fingerprint(rng))
    spikes, weights = workload.generate(rng=rng)
    payload = json.dumps(encode_state(rng.bit_generator.state)).encode("utf-8")
    buffer = io.BytesIO()
    np.savez(
        buffer,
        spikes=spikes,
        weights=weights,
        state=np.frombuffer(payload, dtype=np.uint8),
    )
    path = tier.entry_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(buffer.getvalue())
    return key


class TestDegradation:
    def test_v1_entry_is_dropped_and_regenerated_as_flat_container(
        self, tier, tiny_workload
    ):
        key = write_v1_entry(tier, tiny_workload, seed=3)
        path = tier.entry_path(key)
        assert path.read_bytes().startswith(b"PK")  # a zip archive
        # The zip bytes fail the container magic: a counted, deleted miss.
        assert tier.get(key) is None
        assert tier.corrupt_dropped == 1
        assert not path.exists()

        # Through the cache: the workload is regenerated bit-identically and
        # the rewritten entry is a flat container.
        write_v1_entry(tier, tiny_workload, seed=3)
        reference = LoASSimulator().simulate_workload(
            tiny_workload, rng=np.random.default_rng(3)
        )
        cache = WorkloadEvaluationCache()
        regenerated, result = consumed_evaluation(
            cache, tiny_workload, preprocess=False, disk_tier=tier
        )
        assert tier.corrupt_dropped == 2
        assert cache.misses == 1 and cache.disk_hits == 0
        assert "matches" in regenerated.__dict__
        assert_simulations_identical(result, reference)
        assert path.read_bytes().startswith(b"RPRC\x02\n")

    def test_torn_v2_statistics_payload_falls_back_to_recompute(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache()
        _, reference = consumed_evaluation(cache, tiny_workload, disk_tier=tier)
        cache.flush_writebacks()
        (entry_file,) = tier._entry_files()
        payload = entry_file.read_bytes()
        entry_file.write_bytes(payload[: int(len(payload) * 0.6)])  # torn write

        cold = WorkloadEvaluationCache()
        rng = np.random.default_rng(3)
        regenerated = cold.evaluate(tiny_workload, rng, disk_tier=tier)
        assert tier.corrupt_dropped == 1
        assert cold.misses == 1 and cold.disk_hits == 0
        result = LoASSimulator().simulate_workload(tiny_workload, evaluation=regenerated)
        assert_simulations_identical(result, reference)
        # The regeneration re-published a clean entry over the torn one.
        assert len(tier) == 1

    def test_v2_meta_naming_missing_arrays_is_corrupt(self, tier, tiny_workload):
        cache = WorkloadEvaluationCache()
        evaluation, _ = consumed_evaluation(cache, tiny_workload, disk_tier=tier)
        cache.flush_writebacks()
        (entry_file,) = tier._entry_files()
        # Rebuild the entry with meta claiming derived arrays the container
        # does not hold -- the hydration must treat it as corruption.
        arrays, meta = evaluation.dehydrate()
        arrays = {
            name: array for name, array in arrays.items() if not name.startswith("d_")
        }
        arrays["state"] = np.frombuffer(
            json.dumps(encode_state(np.random.default_rng(3).bit_generator.state)).encode(),
            dtype=np.uint8,
        )
        entry_file.write_bytes(pack_payload(arrays, meta))
        cold = WorkloadEvaluationCache()
        cold.evaluate(tiny_workload, np.random.default_rng(3), disk_tier=tier)
        assert tier.corrupt_dropped == 1 and cold.misses == 1


# --------------------------------------------------------------------- #
# Serde: the entry container is lossless
# --------------------------------------------------------------------- #
_INTEGER_DTYPES = (
    np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64
)
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)


def _integer_elements(dtype):
    info = np.iinfo(dtype)
    return st.one_of(
        st.integers(0, 1),  # bit-packable
        st.integers(max(info.min, -300), min(info.max, 300)),  # downcastable
        st.integers(info.min, info.max),
        st.sampled_from([info.min, info.max]),  # e.g. the uint64 maximum
    )


_FLOAT_ELEMENTS = st.one_of(
    st.integers(-(2**31), 2**31).map(float),  # integer-valued: compactable
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
)


@st.composite
def payload_arrays(draw):
    kind = draw(st.sampled_from(["bool", "integer", "float64"]))
    shape = draw(_SHAPES)
    if kind == "bool":
        return draw(hnp.arrays(np.bool_, shape))
    if kind == "integer":
        dtype = draw(st.sampled_from(_INTEGER_DTYPES))
        return draw(hnp.arrays(dtype, shape, elements=_integer_elements(dtype)))
    return draw(hnp.arrays(np.float64, shape, elements=_FLOAT_ELEMENTS))


class TestSerde:
    @settings(max_examples=150, deadline=None)
    @example(arrays={"a": np.array([-0.0, 1.0, 2.0])}, defer=False)
    @given(
        arrays=st.dictionaries(
            st.sampled_from(["a", "spikes", "weights", "d_matches"]),
            payload_arrays(),
            max_size=4,
        ),
        defer=st.booleans(),
    )
    def test_pack_payload_round_trips_exactly(self, arrays, defer):
        meta = {"schema": 2, "note": "x"}
        data = pack_payload(arrays, meta)
        deferred = frozenset(arrays) if defer else frozenset()
        decoded, decoded_meta = unpack_payload(data, defer=deferred)
        assert decoded_meta == meta
        assert list(decoded) == list(arrays)
        for name, array in arrays.items():
            value = decoded[name]
            if defer:
                assert isinstance(value, DeferredArray)
                assert value.shape == array.shape and value.dtype == array.dtype
                value = value.materialise()
            assert value.dtype == array.dtype
            assert value.shape == array.shape
            assert value.tobytes() == array.tobytes()
        for cut in range(len(data)):
            with pytest.raises((ValueError, struct.error)):
                unpack_payload(data[:cut], defer=deferred)


# --------------------------------------------------------------------- #
# Bit-identity across cache configurations (acceptance)
# --------------------------------------------------------------------- #
SCALE = 0.06
NETWORKS = ("alexnet", "vgg16")  # two (workload, seed) partitions: real pool
SEED = 1


@pytest.mark.timeout(300)
class TestTierStackEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        return legacy_run_networks(networks=NETWORKS, scale=SCALE, seed=SEED)

    @staticmethod
    def run_stack(workers, tier=None, repeat=1, mp_context=None):
        from repro.experiments.sweeps import network_sweep_plan
        from repro.runner import SweepRunner

        plan = network_sweep_plan(networks=NETWORKS, scale=SCALE, seed=SEED)
        runner = SweepRunner(workers=workers, cache_dir=tier, mp_context=mp_context)
        nested = None
        for _ in range(repeat):
            clear_default_cache()
            nested = runner.run(plan).nested()
        clear_default_cache()
        return nested

    @pytest.mark.parametrize("workers", [0, 2])
    def test_memory_only_matches_legacy(self, reference, workers):
        assert_sweeps_identical(reference, self.run_stack(workers))

    @pytest.mark.parametrize(
        "workers, mp_context", [(0, None), (2, "fork"), (2, "spawn")]
    )
    def test_memory_disk_matches_legacy(self, reference, workers, mp_context, tmp_path):
        tier = DiskEvaluationCache(tmp_path / "evals")
        # repeat=2: the second run is served from the disk entries.
        assert_sweeps_identical(
            reference, self.run_stack(workers, tier, repeat=2, mp_context=mp_context)
        )
        assert len(tier) > 0
        if workers:
            # The pool pickled the tier into its tasks, so the workers wrote
            # every entry; this process's copy never stored one.
            assert tier.stores == 0
