"""Per-shard CSR slices spilled to mmap-backed ``.npy`` files.

A shard's slice holds exactly what :meth:`SCTEngine.count_roots` reads
when counting roots ``[lo, hi)``, in full-size CSR form (``indptr`` of
length ``n + 1``) so vertex ids need no remapping:

* **DAG slice** — rows ``lo..hi-1`` keep their out-neighbor lists;
  every other row is empty;
* **graph slice** — the *complete undirected rows* of every vertex in
  the closure (the union of the shard roots' DAG out-neighborhoods);
  every other row is empty.  Full rows are load-bearing: a structure
  reads each root's ``build_words`` charge (the sum of its members'
  degrees) from the slice's degrees and tests member adjacency against
  edge keys built from the slice's rows, so a truncated row would
  silently change counters (and, for counts, correctness).

Each of the four arrays is serialized with ``np.save`` into memory and
written through :func:`repro.shard.safeio.atomic_write_bytes`, giving
a content checksum per file; the loader verifies every checksum before
``np.load(mmap_mode="r")`` maps the arrays, so a torn or corrupt spill
is detected *before* any counting touches it.  The mapped arrays back
``CSRGraph(validate=False)`` instances — data is paged in on demand,
which is the whole point of spilling.
"""

from __future__ import annotations

import io
import os

import numpy as np

from repro.graph.csr import CSRGraph
from repro.shard import safeio

__all__ = [
    "SPILL_ARRAYS",
    "shard_paths",
    "slice_arrays",
    "write_shard_spill",
    "load_shard_slice",
]

#: The four arrays persisted per shard, in write (and verify) order.
SPILL_ARRAYS = ("graph_indptr", "graph_indices", "dag_indptr", "dag_indices")


def shard_paths(spill_dir: str | os.PathLike[str], index: int) -> dict:
    """Map array name -> spill file path for shard ``index``."""
    base = os.fspath(spill_dir)
    return {
        name: os.path.join(base, f"shard{index:05d}.{name}.npy")
        for name in SPILL_ARRAYS
    }


def slice_arrays(graph, dag, lo: int, hi: int) -> dict:
    """Extract the four slice arrays for roots ``[lo, hi)``."""
    n = dag.num_vertices
    ddeg = dag.degrees.astype(np.int64)
    gdeg = graph.degrees.astype(np.int64)

    d_counts = np.zeros(n, dtype=np.int64)
    d_counts[lo:hi] = ddeg[lo:hi]
    d_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(d_counts, out=d_indptr[1:])
    d_indices = np.ascontiguousarray(
        dag.indices[dag.indptr[lo] : dag.indptr[hi]], dtype=np.int64
    )

    keep = np.zeros(n, dtype=bool)
    if d_indices.size:
        keep[np.unique(d_indices)] = True
    g_counts = np.where(keep, gdeg, 0)
    g_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(g_counts, out=g_indptr[1:])
    if graph.indices.size:
        entry_row = np.repeat(np.arange(n, dtype=np.int64), gdeg)
        g_indices = np.ascontiguousarray(
            graph.indices[keep[entry_row]], dtype=np.int64
        )
    else:
        g_indices = np.empty(0, dtype=np.int64)

    return {
        "graph_indptr": g_indptr,
        "graph_indices": g_indices,
        "dag_indptr": d_indptr,
        "dag_indices": d_indices,
    }


def write_shard_spill(
    spill_dir: str | os.PathLike[str], shard, graph, dag, *, faults=None
) -> dict:
    """Spill one shard's slice; return its manifest.

    The manifest maps array name to ``{"checksum", "bytes"}`` and is
    recorded in the ledger so a resumed run can re-verify artifacts it
    did not write itself.
    """
    arrays = slice_arrays(graph, dag, shard.lo, shard.hi)
    paths = shard_paths(spill_dir, shard.index)
    manifest: dict = {}
    for name in SPILL_ARRAYS:
        buf = io.BytesIO()
        np.save(buf, arrays[name], allow_pickle=False)
        data = buf.getvalue()
        checksum = safeio.atomic_write_bytes(paths[name], data, faults=faults)
        manifest[name] = {"checksum": checksum, "bytes": len(data)}
    return manifest


def load_shard_slice(
    spill_dir: str | os.PathLike[str], shard, manifest: dict, *, faults=None
):
    """Verify and mmap one shard's slice; return ``(graph, dag)``.

    Every file is checksum-verified before any array is mapped.  On a
    mismatch the offending file is quarantined (renamed ``.corrupt``)
    and :class:`~repro.errors.IOIntegrityError` propagates with the
    quarantined name attached — the executor's cue to respill and
    retry.
    """
    from repro.errors import IOIntegrityError

    paths = shard_paths(spill_dir, shard.index)
    for name in SPILL_ARRAYS:
        try:
            safeio.verify_file(
                paths[name], manifest[name]["checksum"], faults=faults
            )
        except IOIntegrityError as exc:
            exc.quarantined = safeio.quarantine(paths[name])
            raise
    arrays = {
        name: np.load(paths[name], mmap_mode="r") for name in SPILL_ARRAYS
    }
    sliced_graph = CSRGraph(
        arrays["graph_indptr"],
        arrays["graph_indices"],
        directed=False,
        validate=False,
    )
    sliced_dag = CSRGraph(
        arrays["dag_indptr"],
        arrays["dag_indices"],
        directed=True,
        validate=False,
    )
    return sliced_graph, sliced_dag
