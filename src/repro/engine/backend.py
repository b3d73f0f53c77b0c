"""The value the evaluation cache stores, and its byte form on disk.

The evaluation cache is one in-process LRU
(:class:`~repro.engine.cache.WorkloadEvaluationCache`) over at most one
on-disk tier (:class:`~repro.engine.disk_cache.DiskEvaluationCache`).  What
moves between them is a :class:`CacheEntry`; the disk tier serialises it
with :func:`pack_entry` / :func:`unpack_entry`
(:meth:`LayerEvaluation.dehydrate` under the flat
:mod:`repro.engine.serde` container).  :class:`CacheStats` is the counter
snapshot both levels report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .evaluation import LayerEvaluation
from .serde import decode_state, encode_state, pack_payload, unpack_payload

__all__ = ["CacheEntry", "CacheStats", "pack_entry", "unpack_entry"]


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one cache level.

    Shared by the in-process LRU
    (:class:`~repro.engine.cache.WorkloadEvaluationCache`) and the disk
    tier; fields that do not apply to a level keep their defaults.

    Attributes
    ----------
    hits / misses:
        Lookups served from / absent from this level since the last reset.
    evictions:
        Entries dropped to respect the level's capacity bound (the LRU's
        ``maxsize``, the disk tier's ``max_bytes``).
    entries:
        Entries currently held.
    disk_hits:
        LRU only -- lookups absent from the LRU but served by the disk
        tier.  Counted separately from ``misses`` (which only counts full
        misses that regenerated tensors), so total lookups are
        ``hits + disk_hits + misses``.
    maxsize:
        LRU only -- the entry-count bound.
    stores:
        Disk tier only -- entries published since the last reset.
    refreshes:
        Disk tier only -- already-stored entries re-published with more
        derived artifacts by the write-back pass.
    corrupt_dropped:
        Disk tier only -- torn/corrupt entries deleted on load.
    total_bytes:
        Disk tier only -- sum of entry sizes currently held.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    disk_hits: int = 0
    maxsize: int | None = None
    stores: int = 0
    refreshes: int = 0
    corrupt_dropped: int = 0
    total_bytes: int | None = None

    def as_dict(self) -> dict[str, int]:
        """The populated counters as a plain dict (``None`` fields omitted)."""
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
        }
        if self.maxsize is not None:
            out["disk_hits"] = self.disk_hits
            out["maxsize"] = self.maxsize
        if self.total_bytes is not None:
            out["stores"] = self.stores
            out["refreshes"] = self.refreshes
            out["corrupt_dropped"] = self.corrupt_dropped
            out["total_bytes"] = self.total_bytes
        return out


@dataclass
class CacheEntry:
    """The value one cache key addresses, in the LRU or on disk.

    ``evaluation`` carries the generated tensors plus whatever derived
    artifacts have been computed (see :meth:`LayerEvaluation.dehydrate`);
    ``state_after`` is the post-generation bit-generator state used to
    fast-forward the caller's generator on a hit.
    """

    evaluation: LayerEvaluation
    state_after: dict


def pack_entry(entry: CacheEntry) -> bytes:
    """One entry as self-contained bytes (the disk tier's file contents)."""
    arrays, meta = entry.evaluation.dehydrate()
    arrays = dict(arrays)
    arrays["state"] = np.frombuffer(
        json.dumps(encode_state(entry.state_after)).encode("utf-8"), dtype=np.uint8
    )
    return pack_payload(arrays, meta)


def unpack_entry(data: bytes) -> CacheEntry:
    """Inverse of :func:`pack_entry`; raises on a torn/corrupt container.

    The dense tensors are deferred (:class:`~repro.engine.serde.DeferredArray`):
    an enriched entry's consumers read the pre-seeded derived arrays, so the
    tensor bytes decode only if something actually touches them.
    """
    arrays, meta = unpack_payload(data, defer={"spikes", "weights"})
    state = decode_state(json.loads(bytes(arrays.pop("state")).decode("utf-8")))
    return CacheEntry(LayerEvaluation.hydrate(arrays, meta), state)
