"""Vertex-shard planner: contiguous root ranges under a byte watermark.

Generalizes the PR 5 chunk planner (which balances *work* across pool
workers) to balance *bytes*: each shard is a contiguous root range
``[lo, hi)`` whose spilled CSR slice is estimated to fit under the
configured watermark, so the executor's counting working set stays
bounded no matter how large the resident graph is.

The per-root byte estimate is a safe upper bound on what the slice
must hold to count root ``v``:

* the root's DAG out-neighborhood (``8 * deg⁺(v)`` bytes of indices),
  plus
* the *full undirected adjacency row* of every out-neighbor
  (``Σ_{u ∈ N⁺(v)} 8 * deg(u)`` bytes) — full rows, because the
  structures charge each member's complete degree and test member
  adjacency against the slice's rows; truncating them would change
  counts and work counters.

Closure rows shared between roots of the same shard are counted once
per root, so the estimate over-counts — the safe direction: a shard
never exceeds its watermark because of a shared row.

A root whose own estimate exceeds the watermark still gets a
(singleton) shard: a root is the atomic unit of the SCT recursion and
cannot be split.  The plan fingerprint hashes the cut array together
with the graph and DAG fingerprints, and keys the ledger (resuming
against a different plan, graph, or ordering is refused).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import CountingError
from repro.runtime.checkpoint import graph_fingerprint

__all__ = ["Shard", "ShardPlan", "plan_shards", "estimate_root_bytes"]

_BYTES_PER_ENTRY = 8  # int64 CSR index entries


@dataclass(frozen=True)
class Shard:
    """One contiguous root range ``[lo, hi)`` with its byte estimate."""

    index: int
    lo: int
    hi: int
    est_bytes: int

    @property
    def num_roots(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class ShardPlan:
    """An ordered, exhaustive partition of ``[0, n)`` into shards."""

    shards: tuple[Shard, ...]
    shard_bytes: int
    fingerprint: str

    @property
    def num_shards(self) -> int:
        return len(self.shards)


def estimate_root_bytes(graph, dag) -> np.ndarray:
    """Per-root spill-slice byte estimates (int64 array of length n)."""
    n = dag.num_vertices
    member_cost = _BYTES_PER_ENTRY * graph.degrees.astype(np.int64)
    ddeg = dag.degrees.astype(np.int64)
    costs = _BYTES_PER_ENTRY * ddeg
    if dag.indices.size:
        entry_root = np.repeat(np.arange(n, dtype=np.int64), ddeg)
        costs = costs + np.bincount(
            entry_root, weights=member_cost[dag.indices], minlength=n
        ).astype(np.int64)
    return costs


def plan_shards(graph, dag, *, shard_bytes: int) -> ShardPlan:
    """Greedily cut ``[0, n)`` into shards under ``shard_bytes``."""
    if shard_bytes < 1:
        raise CountingError(f"shard_bytes must be >= 1, got {shard_bytes}")
    n = dag.num_vertices
    costs = estimate_root_bytes(graph, dag)
    shards: list[Shard] = []
    lo = 0
    acc = 0
    for v in range(n):
        c = int(costs[v])
        if v > lo and acc + c > shard_bytes:
            shards.append(Shard(len(shards), lo, v, acc))
            lo, acc = v, 0
        acc += c
    if n > lo:
        shards.append(Shard(len(shards), lo, n, acc))
    bounds = np.array(
        [[s.lo, s.hi] for s in shards], dtype=np.int64
    ).reshape(-1, 2)
    h = hashlib.sha256()
    h.update(graph_fingerprint(graph).encode())
    h.update(graph_fingerprint(dag).encode())
    h.update(np.int64(shard_bytes).tobytes())
    h.update(bounds.tobytes())
    return ShardPlan(
        shards=tuple(shards),
        shard_bytes=int(shard_bytes),
        fingerprint=h.hexdigest()[:16],
    )
