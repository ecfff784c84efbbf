"""Out-of-core shard runtime: crash-safe spill and executor.

The shard runtime counts a graph in vertex shards whose CSR slices are
spilled to mmap-backed ``.npy`` files under a spill directory, so the
counting working set is bounded by a configured watermark instead of
the resident arrays.  Per-root additivity of the SCT recursion makes
the partition exact (Finocchi et al., "Clique counting in MapReduce").

Modules
-------
``safeio``    atomic tmp+fsync+rename writes, content checksums, and
              the single seam where I/O faults are injected
``planner``   vertex-range shard planner generalizing the PR 5 chunk
              planner to a byte watermark
``spill``     per-shard CSR slice extraction and ``.npy`` spill files
``executor``  the driver: spill → verify → count → fold, with bounded
              seeded retries, quarantine, and the degradation ladder;
              its progress log (:mod:`repro.runtime.progress`) under
              the spill directory is the resume mechanism

Public entry point: :func:`count_sharded` (re-exported here).
"""

from __future__ import annotations

__all__ = [
    "count_sharded",
    "plan_shards",
    "Shard",
    "ShardPlan",
]

_LAZY = {
    "count_sharded": "repro.shard.executor",
    "plan_shards": "repro.shard.planner",
    "Shard": "repro.shard.planner",
    "ShardPlan": "repro.shard.planner",
}


def __getattr__(name: str):
    # Lazy exports (PEP 562): repro.runtime.progress routes writes
    # through repro.shard.safeio, and the executor imports the runtime
    # package — eager imports here would close an import cycle.
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
