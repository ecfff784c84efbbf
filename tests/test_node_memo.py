"""The SCT recursions' subtree memo against the memo-free reference walker.

Inside one root, ``SCTEngine._make_rec_k`` / ``_make_rec_all`` reuse a
subtree already walked under the same ``(P, held, pivots)``: a hit adds
the stored counter deltas and returns the stored count (or all-k row
segment).  The 40-graph corpus never hits it (its graphs have at most
32 vertices and hardly any node with six candidates and no perfect
pivot repeats), so these inputs are built to: complete multipartite
graphs (part-mates are non-adjacent twins, so their branch children
repeat the pivot's), cliques planted over such a pocket, and the
livejournal analog's heaviest roots.  Counts, rows, ``Counters`` and
per-root vectors must equal :func:`tests.backends.reference_walk_root`'s
bit for bit, and every run must actually hit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels, obs
from repro.counting.binomial import binomial, binomial_row
from repro.counting.sct import SCTEngine
from repro.counting.structures import STRUCTURES
from repro.datasets import load
from repro.graph.generators import (
    complete_multipartite,
    erdos_renyi,
    overlay,
    planted_cliques,
)
from repro.ordering import core_ordering, directionalize

from tests.backends import BigIntKernel, reference_roots

STRUCTURE_NAMES = ("dense", "sparse", "remap")


def _plants_on_pocket(seed: int):
    """Overlapping cliques planted across a complete multipartite
    pocket, over a sparse background."""
    n = 40
    return overlay(
        n,
        erdos_renyi(n, 0.05, seed=seed).edge_array(),
        planted_cliques(n, [10, 9, 9, 8, 8], seed=seed, overlap=0.5,
                        pool=np.arange(10, n)),
        complete_multipartite([3] * 6).edge_array(),
    )


_SMALL = [
    ("multipartite-3x8", complete_multipartite([3] * 8)),
    ("multipartite-2x10", complete_multipartite([2] * 10)),
    ("multipartite-4x6", complete_multipartite([4] * 6)),
    ("plants-on-pocket", _plants_on_pocket(2)),
]


def _livejournal_roots():
    """The livejournal analog under core ordering and 24 of its roots:
    ranks 8-31 by k=8 tree size, wide and repetitive enough to hit,
    small enough for the reference walker."""
    g = load("livejournal")
    dag = directionalize(g, core_ordering(g))
    work = SCTEngine(g, dag).count(8).per_root_work
    return g, dag, np.argsort(-work, kind="stable")[8:32].tolist()


def _reference(struct, roots, k=None, *, cap=None, length=None,
               early_termination=True):
    """``(count or untrimmed row, totals, per-root Counters)`` of the
    memo-free reference walker over ``roots``."""
    total = 0
    row = [0] * (length or 0)

    def leaf(held, pivots, held_ids, pivot_ids):
        nonlocal total
        if k is not None:
            total += binomial(pivots, k - held)
        else:
            brow = binomial_row(pivots)
            for s in range(held, min(held + pivots + 1, cap)):
                row[s] += brow[s - held]

    totals, per_root = reference_roots(
        BigIntKernel(), struct, roots, leaf, k=k, cap=cap,
        early_termination=early_termination,
        prune=k is not None and early_termination,
    )
    return (total if k is not None else row), totals, per_root


def _trim(row):
    row = list(row)
    while len(row) > 1 and row[-1] == 0:
        row.pop()
    return row


def _node_hits(reg) -> int:
    return reg.total("sct_node_memo_hits_total")


def _assert_matches(got, want, totals, per_root):
    """``got`` (a CountResult or RootBatchResult) equals the reference."""
    if got.all_counts is None:
        assert got.count == want
    else:
        assert _trim(got.all_counts) == _trim(want)
    assert got.counters.as_dict() == totals.as_dict()
    assert list(got.per_root_work) == [c.work for c in per_root]
    assert list(got.per_root_memory) == [
        float(c.peak_subgraph_bytes) for c in per_root
    ]


def _check_runs(engine, struct, roots, *, whole: bool):
    """Every SCT count path over ``roots`` against the reference, each
    run hitting the memo.  ``whole`` also runs ``count`` and
    ``count_all`` (``roots`` is then every vertex).

    ``max_k=4`` makes all-k subtrees end at the size cap, so a stored
    row segment and the early exits below a node depend on its
    ``held``; with no ``max_k`` they do not."""
    runs = [(5, True, None), (8, True, None), (5, False, None),
            (None, True, None), (None, True, 4)]
    for k, et, max_k in runs:
        length, cap = engine._allk_shape(max_k)
        want, totals, per_root = _reference(
            struct, roots, k, cap=cap, length=length, early_termination=et,
        )
        entry_points = [lambda: engine.count_roots(
            roots, k, max_k=max_k, early_termination=et)]
        if whole:
            entry_points.append(
                (lambda: engine.count_all(max_k)) if k is None
                else (lambda: engine.count(k, early_termination=et))
            )
        for run in entry_points:
            with obs.collecting() as reg:
                got = run()
            _assert_matches(got, want, totals, per_root)
            assert _node_hits(reg) > 0, (k, et, max_k)


@pytest.mark.parametrize("structure", STRUCTURE_NAMES)
@pytest.mark.parametrize("name,g", _SMALL, ids=[n for n, _ in _SMALL])
def test_memo_hits_match_reference_walker(name, g, structure):
    dag = directionalize(g, core_ordering(g))
    engine = SCTEngine(g, dag, structure)
    struct = STRUCTURES[structure](g, dag)
    _check_runs(engine, struct, list(range(g.num_vertices)), whole=True)


def test_memo_hits_match_reference_walker_on_livejournal_roots():
    g, dag, roots = _livejournal_roots()
    engine = SCTEngine(g, dag)
    _check_runs(engine, STRUCTURES["remap"](g, dag), roots, whole=False)


# ----------------------------------------------------------------------
# kernel calls: counted as made
# ----------------------------------------------------------------------
class _Rows(list):
    """A root's rows that count the engine's inline intersects: the
    branch loop's ``rows[w]`` is its only subscript of the list."""

    def __getitem__(self, i):
        self.made["intersect_count"] += 1
        return list.__getitem__(self, i)


def _count_calls_made(monkeypatch) -> dict:
    """Count the pivot scans and inline intersects the engines make."""
    made = {"pivot_select": 0, "intersect_count": 0}
    scan = kernels.pivot_select
    load = kernels.words_to_ints
    _Rows.made = made

    def pivot_select(rows, P, pc):
        made["pivot_select"] += 1
        return scan(list(rows), P, pc)

    monkeypatch.setattr(kernels, "pivot_select", pivot_select)
    monkeypatch.setattr(kernels, "words_to_ints",
                        lambda words: _Rows(load(words)))
    return made


def _derived(reg) -> dict:
    return {
        op: reg.value("kernel_calls_total", kernel="bigint", op=op)
        for op in ("pivot_select", "intersect_count")
    }


def test_derived_kernel_calls_count_calls_made(monkeypatch):
    # kernel_calls_total derives both ops from the nodes a walk entered
    # and its hits; a hit skips its subtree's scans and intersects, so
    # the derived counts must be the calls actually made, fewer than
    # the full tree's.
    made = _count_calls_made(monkeypatch)
    for name, g in _SMALL:
        dag = directionalize(g, core_ordering(g))
        engine = SCTEngine(g, dag)
        for run in (lambda: engine.count(5), lambda: engine.count(8),
                    lambda: engine.count(5, early_termination=False),
                    lambda: engine.count_all()):
            made.update(pivot_select=0, intersect_count=0)
            with obs.collecting() as reg:
                got = run()
            assert _derived(reg) == made, name
            assert _node_hits(reg) > 0
            c = got.counters
            assert made["pivot_select"] < (
                c.function_calls - c.leaves - c.early_terminations
            ), name


def test_livejournal_scans_a_small_share_of_its_tree(monkeypatch):
    # A timing-free guard on the memo's reach: on the livejournal
    # analog at k=8 the pivot scans made are at most 1% of the tree's
    # nodes (a third of them without the memo).
    made = _count_calls_made(monkeypatch)
    g = load("livejournal")
    engine = SCTEngine(g, core_ordering(g))
    with obs.collecting() as reg:
        got = engine.count(8)
    assert _derived(reg) == made
    assert made["pivot_select"] <= 0.01 * got.counters.function_calls
    assert _node_hits(reg) > 0
    assert reg.total("sct_node_memo_misses_total") > 0


def test_node_memo_counters_absent_without_lookups():
    # A loop that looks up no subtree creates no node-memo counter.
    g = erdos_renyi(40, 0.1, seed=3)
    with obs.collecting() as reg:
        SCTEngine(g, core_ordering(g)).count(3)
    names = {e["name"] for e in reg.as_dict()["counters"]}
    assert "sct_memo_misses_total" in names
    assert not names & {"sct_node_memo_hits_total",
                        "sct_node_memo_misses_total"}
