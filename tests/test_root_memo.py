"""The root-subgraph memo against a memo-free oracle.

:class:`~repro.counting.sct.SCTEngine`'s root loop counts each distinct
block-induced subgraph once per call and folds a repeat's stored tally
(see ``SCTEngine._fold_roots``).  The oracle here never sees the memo:
it builds every root alone with ``structure.build(v)``, runs the
one-root recursions (``_count_root_k`` / ``_count_ctx_all``) into
fresh :class:`Counters` and merges them root by root in loop order.
Counts, rows, counters and per-root vectors must agree bit for bit.

One engine serves every call of a graph, so a memo that outlived its
call (or ignored ``k``) would fold another call's tallies and fail.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.backends import KERNEL_NAMES, backend
from tests.corpus import GRAPHS, ordering
from repro import obs
from repro.counting.counters import Counters
from repro.counting.sct import SCTEngine
from repro.graph.generators import chung_lu, power_law_degrees
from repro.ordering import core_ordering
from repro.ordering.directionalize import directionalize
from repro.parallel import plan_chunks

STRUCTURE_NAMES = ("dense", "sparse", "remap")


def _oracle(engine, roots, k=None, *, max_k=None, early_termination=True):
    """``(count or row, counters, per-root work, per-root memory)`` of
    ``roots`` folded one memo-free root at a time."""
    totals = Counters()
    work: list[float] = []
    memory: list[float] = []
    total = 0
    row = None
    if k is None:
        length, cap = engine._allk_shape(max_k)
        row = [0] * length
    for v in roots:
        ctr = Counters()
        if k is None:
            local = engine._count_ctx_all(
                engine.structure.build(int(v)), cap, length, ctr
            )
            for s in range(length):
                row[s] += local[s]
        else:
            total += engine._count_root_k(int(v), k, ctr, early_termination)
        totals.merge(ctr)
        work.append(ctr.work)
        memory.append(float(ctr.peak_subgraph_bytes))
    return (total if k is not None else row), totals, work, memory


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _trim(row):
    row = list(row)
    while len(row) > 1 and row[-1] == 0:
        row.pop()
    return row


def _assert_run_matches(engine, n, k=None, *, max_k=None,
                        early_termination=True):
    if k is None:
        got = engine.count_all(max_k=max_k)
    else:
        got = engine.count(k, early_termination=early_termination)
    want, counters, work, memory = _oracle(
        engine, range(n), k, max_k=max_k,
        early_termination=early_termination,
    )
    if k is None:
        assert got.all_counts == _trim(want)
    else:
        assert got.count == want
    assert got.counters.as_dict() == counters.as_dict()
    assert _bits(got.per_root_work) == _bits(work)
    assert _bits(got.per_root_memory) == _bits(memory)


def _assert_chunks_match(engine, dag, k=None):
    for chunk in plan_chunks(dag.degrees, 2, 4):
        got = engine.count_roots(chunk, k)
        want, counters, work, memory = _oracle(engine, chunk, k)
        assert (got.all_counts if k is None else got.count) == want
        assert got.counters.as_dict() == counters.as_dict()
        assert _bits(got.per_root_work) == _bits(work)
        assert _bits(got.per_root_memory) == _bits(memory)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("structure", STRUCTURE_NAMES)
def test_memoized_loops_match_memo_free_oracle(structure, kernel):
    for name, g in GRAPHS:
        dag = directionalize(g, ordering(name, g))
        engine = SCTEngine(g, dag, structure)
        n = g.num_vertices
        with backend(kernel):
            for k in (3, 4, 5):
                _assert_run_matches(engine, n, k)
            _assert_run_matches(engine, n, 4, early_termination=False)
            _assert_run_matches(engine, n)
            _assert_run_matches(engine, n, max_k=4)
            _assert_chunks_match(engine, dag, 4)
            _assert_chunks_match(engine, dag, None)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_memo_hits_on_sparse_power_law_graph(kernel):
    # Many small roots whose induced subgraphs repeat: the memo must
    # actually serve them, and still match the oracle.
    g = chung_lu(power_law_degrees(1500, 2.5, min_degree=2.0, seed=23),
                 seed=29)
    dag = directionalize(g, core_ordering(g))
    engine = SCTEngine(g, dag)
    with backend(kernel), obs.collecting() as reg:
        engine.count(4)
    labels = {"engine": "sct", "structure": "remap", "kernel": "bigint"}
    hits = reg.value("sct_memo_hits_total", **labels)
    misses = reg.value("sct_memo_misses_total", **labels)
    assert hits > misses > 0
    # A hit loads no rows: one alloc_rows per counted root only.
    pruned = (dag.degrees > 0) & (dag.degrees < 3)
    built = int((~pruned).sum())
    assert reg.value("kernel_calls_total", kernel="bigint",
                     op="alloc_rows") == built - hits
    with backend(kernel):
        _assert_run_matches(engine, g.num_vertices, 4)


def test_hits_fold_the_stored_tally_whole(monkeypatch):
    # Every hit follows its own miss in the same loop, so a hit that
    # dropped a max-folded field (depth, memory) would not move any
    # total.  Seed the memo with a tally no root produces instead: each
    # one-member root then folds it, field by field.
    import repro.counting.sct as sct

    seeded = sct._RootTally(
        result=1000, nodes=7, leaves=5, early_exits=3, set_op_words=11.0,
        index_lookups=13.5, max_depth=50, memory_bytes=10**6,
    )
    one_row = bytes(8)  # the key of every d = 1 subgraph

    name, g = GRAPHS[3]
    dag = directionalize(g, ordering(name, g))
    engine = SCTEngine(g, dag)
    want, counters, work, memory = _oracle(
        engine, range(g.num_vertices), 4, early_termination=False
    )
    ones = np.flatnonzero(dag.degrees == 1)
    assert ones.size
    build_many = engine.structure.build_many

    def seeded_build_many(roots, memo=None):
        memo[one_row] = seeded
        return build_many(roots, memo)

    monkeypatch.setattr(engine.structure, "build_many", seeded_build_many)
    got = engine.count(4, early_termination=False)
    assert got.count == want + 1000 * ones.size
    assert got.counters.max_depth == 50
    assert got.counters.peak_subgraph_bytes == 10**6
    _, replaced, _, _ = _oracle(engine, ones, 4, early_termination=False)
    for field, add in (("function_calls", 7), ("leaves", 5),
                       ("early_terminations", 3)):
        assert getattr(got.counters, field) == (
            getattr(counters, field) - getattr(replaced, field)
            + add * ones.size
        ), field
    for v in ones.tolist():
        bw = engine.structure.estimate(v)[1]
        assert got.per_root_work[v] == 11.0 + 13.5 + bw
        assert got.per_root_memory[v] == 1e6
