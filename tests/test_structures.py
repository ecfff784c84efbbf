"""The three subgraph structures: identical topology, distinct models."""

import numpy as np
import pytest

from repro.counting.structures import (
    STRUCTURES,
    DenseStructure,
    RemapStructure,
    SparseStructure,
)
from repro.counting.structures.base import SubgraphStructure
from repro.graph.generators import complete_graph, erdos_renyi
from repro.ordering import core_ordering, directionalize
from tests.backends import KERNEL_NAMES, backend


@pytest.fixture(scope="module")
def pair():
    g = erdos_renyi(50, 0.25, seed=31)
    dag = directionalize(g, core_ordering(g))
    return g, dag


def test_registry_names():
    assert set(STRUCTURES) == {"dense", "sparse", "remap"}
    for name, cls in STRUCTURES.items():
        assert cls.name == name


def test_build_local_rows_symmetrized():
    g = complete_graph(4)
    dag = directionalize(g, np.arange(4))
    ctx = RemapStructure(g, dag).build(0)  # members {1, 2, 3}
    # Induced subgraph of K4's out-neighborhood is K3: each row has the
    # other two bits set.
    assert [r.bit_count() for r in ctx.rows] == [2, 2, 2]
    assert ctx.build_words > 0


def test_rows_symmetric_within_subgraph(pair):
    g, dag = pair
    ctx = RemapStructure(g, dag).build(int(np.argmax(dag.degrees)))
    rows = ctx.rows
    d = ctx.d
    for i in range(d):
        for j in range(d):
            assert ((rows[i] >> j) & 1) == ((rows[j] >> i) & 1)
    for i in range(d):
        assert (rows[i] >> i) & 1 == 0  # no self loops


def test_all_structures_same_rows(pair):
    g, dag = pair
    structs = [cls(g, dag) for cls in STRUCTURES.values()]
    for v in range(g.num_vertices):
        ctxs = [s.build(v) for s in structs]
        d = ctxs[0].d
        assert all(c.d == d for c in ctxs)
        for i in range(d):
            ref = ctxs[0].row(i)
            assert all(c.row(i) == ref for c in ctxs[1:])


def test_dense_slot_reuse(pair):
    g, dag = pair
    dense = DenseStructure(g, dag)
    c1 = dense.build(0)
    rows1 = [c1.row(i) for i in range(c1.d)]
    dense.build(1)  # rebuild for another root
    c3 = dense.build(0)  # and back
    assert [c3.row(i) for i in range(c3.d)] == rows1


def test_memory_model_ordering(pair):
    g, dag = pair
    v = int(np.argmax(dag.degrees))
    dense = DenseStructure(g, dag).build(v)
    sparse = SparseStructure(g, dag).build(v)
    remap = RemapStructure(g, dag).build(v)
    assert dense.memory_bytes > sparse.memory_bytes > remap.memory_bytes
    # The dense index alone is |V| pointers.
    assert dense.memory_bytes >= 8 * g.num_vertices


def test_lookup_weights(pair):
    g, dag = pair
    assert DenseStructure(g, dag).build(0).lookup_weight == 1.0
    assert SparseStructure(g, dag).build(0).lookup_weight == 1.2
    assert RemapStructure(g, dag).build(0).lookup_weight == 1.0


def test_structure_requires_graph_dag_pair(pair):
    g, dag = pair
    with pytest.raises(ValueError):
        RemapStructure(g, g)
    with pytest.raises(ValueError):
        RemapStructure(dag, dag)
    g2 = erdos_renyi(10, 0.3, seed=1)
    with pytest.raises(ValueError):
        RemapStructure(g2, dag)


def test_zero_outdegree_root(pair):
    g, dag = pair
    sinks = [v for v in range(g.num_vertices) if dag.degree(v) == 0]
    assert sinks, "core ordering guarantees at least one sink"
    ctx = RemapStructure(g, dag).build(sinks[0])
    assert ctx.d == 0


def test_bitset_bytes_model(pair):
    g, dag = pair
    s = RemapStructure(g, dag)
    assert s.bitset_bytes(0) == 0
    assert s.bitset_bytes(64) == 64 * 8
    assert s.bitset_bytes(65) == 65 * 2 * 8


# ----------------------------------------------------------------------
# kernel plumbing and the dense stale-slot regression
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_structures_same_rows_across_kernels(pair, kernel):
    # Every structure hands the recursion the same rows, as a plain
    # list its row accessor indexes, whichever loader built them.
    g, dag = pair
    for cls in STRUCTURES.values():
        base = cls(g, dag)
        with backend(kernel):
            alt = cls(g, dag)
            for v in range(0, g.num_vertices, 7):
                cb = base.build(v)
                ca = alt.build(v)
                assert ca.d == cb.d
                assert type(ca.rows) is list
                assert ca.rows == cb.rows
                for i in range(cb.d):
                    assert ca.row(i) == cb.row(i), (cls.name, v, i)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_dense_no_stale_adjacency_between_roots(pair, kernel):
    """Regression: back-to-back builds must not leak adjacency.

    The dense structure reuses one |V|-sized slot array across roots;
    a reset bug (stale ``_touched`` bookkeeping) would let root A's
    rows alias into root B's subgraph.  Compare every back-to-back
    build against a fresh structure that cannot have stale state.
    """
    g, dag = pair
    shared = DenseStructure(g, dag)
    roots = sorted(range(g.num_vertices),
                   key=lambda v: -dag.degree(v))[:6]
    with backend(kernel):
        for v in roots + list(reversed(roots)):  # back-to-back revisits
            got = shared.build(v)
            fresh = DenseStructure(g, dag).build(v)
            assert got.d == fresh.d
            for i in range(got.d):
                assert got.row(i) == fresh.row(i), (v, i)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_dense_exception_mid_build_leaves_clean_slots(pair, kernel, monkeypatch):
    """A failed induction must leave the slot index clean: the next
    build starts from zeroed slots and an empty touched list — on the
    one-root path and inside a ``build_many`` block alike."""
    g, dag = pair
    dense = DenseStructure(g, dag)
    hub = int(np.argmax(dag.degrees))
    ref = DenseStructure(g, dag).build(hub)
    ref_rows = [ref.row(i) for i in range(ref.d)]

    def boom(*args, **kwargs):
        raise MemoryError("induced failure mid-build")

    for fail in (lambda: dense.build(hub),
                 lambda: next(dense.build_many([hub, 0]))):
        with backend(kernel):
            dense.build(hub)  # populate slots with a large root
            with monkeypatch.context() as mp:
                mp.setattr(SubgraphStructure, "_induce_rows", boom)
                mp.setattr(SubgraphStructure, "_induce_block", boom)
                with pytest.raises(MemoryError):
                    fail()

            # The failed build reset everything it had touched; no
            # stale adjacency from the first build may survive.
            assert dense._touched == []
            assert all(s == 0 for s in dense._slots)
            got = dense.build(hub)
            assert [got.row(i) for i in range(got.d)] == ref_rows
