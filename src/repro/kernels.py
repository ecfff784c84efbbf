"""The bitset kernel of the counting hot path.

One backend, ``"bigint"``.  A root's adjacency rows are a plain list of
Python ints, one big-int bitset per row over local ids ``[0, d)``
(:func:`words_to_ints` builds them from the structures' packed words),
and the recursion's candidate masks are big-ints too, so ``&`` and
``int.bit_count()`` do the word-parallel work in CPython's C layer.
The engines write the intersect inline — ``child = rows[w] & P;
cc = child.bit_count()`` — and call one plain function,
:func:`pivot_select`, for the scan whose rules fix every
:class:`~repro.counting.counters.Counters` field.  Why the NumPy
word-array backend was removed is recorded in ``docs/kernels.md``.

Nothing here counts calls: ``kernel_calls_total`` is derived from the
counters the engines already keep (:func:`tally`) and published once
per root loop (:func:`repro.obs.record_kernel_calls`).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.errors import CountingError

__all__ = [
    "NAME",
    "KERNEL",
    "OPS",
    "kernel_name",
    "words_to_ints",
    "pivot_select",
    "tally",
]

#: The backend's name, recorded in descriptors, results and metric labels.
NAME = "bigint"

#: The backend as an engine exposes it: ``engine.kernel.name == "bigint"``.
KERNEL = SimpleNamespace(name=NAME)

#: The ops ``kernel_calls_total`` counts, in the order of a tally list.
OPS = ("alloc_rows", "load_rows", "pivot_select", "intersect_count")


def kernel_name(kernel: str | None = None) -> str:
    """The backend a ``kernel=`` argument names.

    ``None`` and ``"bigint"`` name the one backend; anything else,
    an object included, raises :class:`~repro.errors.CountingError`.
    """
    if kernel is None or (isinstance(kernel, str) and kernel == NAME):
        return NAME
    raise CountingError(
        f"unknown kernel {kernel!r}; the only backend is {NAME!r}"
    )


def words_to_ints(words: np.ndarray) -> list[int]:
    """Big-int rows from packed ``(d, W)`` little-endian uint64 words:
    row ``i``'s local id ``j`` is bit ``j % 64`` of ``words[i, j // 64]``."""
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    nb = 8 * words.shape[1]
    blob = words.tobytes()
    return [
        int.from_bytes(blob[i:i + nb], "little")
        for i in range(0, len(blob), nb)
    ]


def pivot_select(
    rows: list[int], P: int, pc: int
) -> tuple[int, int, int, int]:
    """Choose the pivot maximizing ``|rows[i] ∩ P|`` over ``i ∈ P``.

    Returns ``(best, best_row, best_cnt, edge_sum)``: the pivot's local
    id, ``rows[best] & P``, its popcount, and the engine's edge-granular
    work charge.  ``pc`` is ``P``'s popcount (every caller has it).
    The scan's rules fix the pivot tree, and with it every counter:

    * candidates are scanned in ascending local-id order;
    * ties keep the *first* maximum;
    * the scan stops at the first *perfect* pivot (``count == pc - 1``,
      adjacent to every other candidate);
    * ``edge_sum`` is the popcount of each row scanned, up to and
      including the stopping point.
    """
    best = -1
    best_cnt = -1
    best_row = 0
    edge_sum = 0
    scan = P
    while scan:
        low = scan & -scan
        r = rows[low.bit_length() - 1] & P
        c = r.bit_count()
        edge_sum += c
        if c > best_cnt:
            best_cnt = c
            best = low.bit_length() - 1
            best_row = r
            if c == pc - 1:
                break  # perfect pivot: adjacent to all others
        scan ^= low
    return best, best_row, best_cnt, edge_sum


def tally(
    calls: list[int], ctr, roots: int, loaded: int,
    skipped_nodes: int = 0, skipped_ends: int = 0, hits: int = 0,
) -> None:
    """Add to ``calls`` (in :data:`OPS` order) the kernel calls of
    ``roots`` pivot walks whose summed counters are ``ctr``, ``loaded``
    of them over a non-empty subgraph.

    ``ctr`` counts whole trees.  A walk with a subtree memo skips the
    subtrees below its ``hits`` hit nodes: ``skipped_nodes`` nodes, of
    which ``skipped_ends`` are leaves or early exits.  So the walk
    entered ``entered = nodes - skipped_nodes`` nodes, ``ends = leaves
    + early exits - skipped_ends`` of them leaves or early exits.

    Each walk allocated one root's rows, and loaded them if it had any.
    Every entered node is a pivot selection, a leaf or an early exit (a
    hit selects its pivot before its lookup).  Every entered node but
    the root is the pivot child or one of the branch intersections of
    an entered node that selected a pivot and was not a hit.  So
    ``pivot_select = entered - ends`` and ``intersect_count = ends +
    hits - roots``.
    """
    ends = ctr.leaves + ctr.early_terminations - skipped_ends
    calls[0] += roots
    calls[1] += loaded
    calls[2] += ctr.function_calls - skipped_nodes - ends
    calls[3] += ends + hits - roots
