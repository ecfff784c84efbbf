"""Batched root setup: ``build_many`` against one-root ``build``.

The counting loops take their contexts from
:meth:`SubgraphStructure.build_many`, which induces a block of roots
per vectorized pass; the one-root callers use :meth:`build`.  Both
must hand the recursion the same subgraph and the same charges, and
:meth:`estimate` must predict that charge exactly — the degree prune
charges a skipped root from it.
"""

import numpy as np
import pytest

from repro import obs
from repro.counting.sct import SCTEngine
from repro.counting.structures import STRUCTURES
from repro.counting.structures.base import (
    BLOCK_PAIRS,
    SubgraphStructure,
    plan_blocks,
)
from repro.errors import MemoryBudgetExceededError
from repro.graph.generators import complete_graph, erdos_renyi, overlay
from repro.ordering import core_ordering, directionalize
from repro.parallel.runtime import plan_chunks
from repro.runtime import RunController
from tests.backends import KERNEL_NAMES, backend
from tests.corpus import GRAPHS, ordering


def _orders(dag):
    """Root orders the loops use: id order (serial run, forest build),
    the pool's degree-descending chunks, and a sparse sorted subset
    (the dirty roots of an edit batch)."""
    n = dag.num_vertices
    chunks = plan_chunks(dag.degrees, 2, 4)
    return {
        "ids": np.arange(n),
        "pool": np.concatenate(chunks) if chunks else np.arange(0),
        "dirty": np.arange(n)[np.arange(n) % 3 == 1],
    }


def _assert_same(ctx, ref, v):
    assert ctx.d == ref.d, v
    assert np.array_equal(ctx.out, ref.out), v
    assert ctx.build_words == ref.build_words, v
    assert ctx.memory_bytes == ref.memory_bytes, v
    assert ctx.lookup_weight == ref.lookup_weight, v
    assert [ctx.row(i) for i in range(ctx.d)] == [
        ref.row(i) for i in range(ref.d)
    ], v
    assert ctx.rows == [ref.row(i) for i in range(ref.d)], v


def _naive_rows(adj, out):
    """The induced rows by direct adjacency lookups (the reference)."""
    out = out.tolist()
    return [
        sum(1 << j for j, w in enumerate(out) if w in adj[u]) for u in out
    ]


def _check_pair(g, dag, structure, kernel, orders=None):
    with backend(kernel):
        _check_structures(
            g, dag, STRUCTURES[structure](g, dag),
            STRUCTURES[structure](g, dag), orders,
        )


def _check_structures(g, dag, batch, one, orders):
    adj = g.adjacency_sets()
    for name, roots in (orders or _orders(dag)).items():
        got = batch.build_many(roots)
        for v in roots.tolist():
            ctx = next(got)
            # Compare before anything else allocates rows: a context's
            # rows are valid until its structure's next build.
            ref = one.build(v)
            _assert_same(ctx, ref, (name, v))
            assert [ref.row(i) for i in range(ref.d)] == _naive_rows(
                adj, dag.neighbors(v)
            ), (name, v)
            assert ref.build_words == (
                float(g.degrees[dag.neighbors(v)].sum())
                + batch.member_words * ref.d
            ), (name, v)
            assert batch.estimate(v) == (
                ctx.d, ctx.build_words, ctx.memory_bytes
            ), (name, v)
        with pytest.raises(StopIteration):
            next(got)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_corpus_batch_matches_one_root(structure, kernel):
    for name, g in GRAPHS:
        dag = directionalize(g, ordering(name, g))
        _check_pair(g, dag, structure, kernel)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_wide_and_many_roots(structure, kernel):
    # K70 under the identity order: root 0 has d = 69 (two words per
    # row, d² above the block budget, so its rows are split across
    # passes), root 69 has d = 0; the random graph's several hundred
    # small roots fill several multi-root blocks.
    k70 = complete_graph(70)
    k70_dag = directionalize(k70, np.arange(70))
    assert k70_dag.degree(0) ** 2 > BLOCK_PAIRS and k70_dag.degree(69) == 0
    _check_pair(k70, k70_dag, structure, kernel)
    g = erdos_renyi(300, 0.04, seed=11)
    dag = directionalize(g, core_ordering(g))
    assert _passes(plan_blocks(dag.degrees)) > 1
    _check_pair(g, dag, structure, kernel)


def test_four_word_rows():
    # A 200-clique in a sparse background, identity order: root 0 has
    # d > 192, so its rows span four words, the last one partial.
    g = overlay(220, complete_graph(200), erdos_renyi(220, 0.05, seed=3))
    dag = directionalize(g, np.arange(220))
    assert 192 < dag.degree(0) < 256
    for kernel in KERNEL_NAMES:
        _check_pair(g, dag, "remap", kernel, {"wide": np.array([0, 1, 219])})


def _passes(plan):
    """Induction passes of a block plan: one per multi-root block, one
    per member-row range of a wide root."""
    return sum(1 if rows is None else len(rows) for _, _, rows in plan)


def test_plan_blocks_budget_and_coverage():
    rng = np.random.default_rng(5)
    ds = rng.integers(0, 90, size=400)
    ds[::37] = 0
    covered = []
    for first, stop, rows in plan_blocks(ds):
        if rows is None:
            assert sum(int(d) ** 2 for d in ds[first:stop]) <= BLOCK_PAIRS
            assert all(d <= 64 for d in ds[first:stop])
        else:
            d = int(ds[first])
            assert stop == first + 1 and d > 64
            assert [lo for lo, _ in rows] + [d] == [0] + [hi for _, hi in rows]
            assert all((hi - lo) * d <= BLOCK_PAIRS for lo, hi in rows)
        covered.extend(range(first, stop))
    assert covered == list(range(ds.size))
    assert list(plan_blocks([])) == []


def test_root_setup_phase_counts_blocks():
    # Several hundred small roots plus a 70-clique's few wide ones.
    g = overlay(400, complete_graph(70), erdos_renyi(400, 0.04, seed=7))
    dag = directionalize(g, core_ordering(g))
    assert dag.max_degree > 64
    k = 4
    built = np.flatnonzero(
        ~((dag.degrees > 0) & (dag.degrees < k - 1))
    )
    with obs.collecting(profile=True):
        SCTEngine(g, dag).count(k)
        phases = obs.get_profiler().phases
    setup = phases["root_setup"]
    assert setup.calls == _passes(plan_blocks(dag.degrees[built])) > 1
    assert 0 < setup.wall_seconds <= phases["counting"].wall_seconds


def _pruned(dag, k):
    return (dag.degrees > 0) & (dag.degrees < k - 1)


def test_block_memory_error_maps_to_root_advanced_to(monkeypatch):
    g = erdos_renyi(400, 0.04, seed=7)
    dag = directionalize(g, core_ordering(g))
    built = np.flatnonzero(~_pruned(dag, 4))
    blocks = list(plan_blocks(dag.degrees[built]))
    assert len(blocks) > 2
    victim = int(built[blocks[1][0]])  # first root of the second block
    real = SubgraphStructure._induce_block
    calls = []

    def flaky(self, roots, ds):
        calls.append(1)
        if len(calls) == 2:
            raise MemoryError("induced failure")
        return real(self, roots, ds)

    monkeypatch.setattr(SubgraphStructure, "_induce_block", flaky)
    with pytest.raises(MemoryBudgetExceededError,
                       match=f"at root {victim}$") as ei:
        SCTEngine(g, dag).count(4, controller=RunController())
    assert ei.value.spent.roots_done == victim
