"""Cross-engine differential suite — the kernel layer's correctness net.

Forty seeded random graphs (R-MAT, Chung-Lu, planted-clique overlays)
are counted by every engine {SCT, Pivoter baseline, Arb-Count
enumeration} over every subgraph structure {dense, sparse, remap} and
both test bitset backends (the program's bigint and the word-array
implementation in ``tests/backends.py``), for target-k and all-k runs.
Every combination must return *exactly* the same counts, anchored to
the brute-force reference at k = 3 and 4; and the instrumentation
:class:`~repro.counting.counters.Counters` must be bit-identical across
backends, because the performance model may never be able to tell
which backend produced a run.  The corpus graphs have at most 32
vertices, so a web-graph analog with roots several words wide holds
the pivoting paths to both backends and to the enumeration engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.counting import (
    count_all_sizes,
    count_kcliques,
    count_kcliques_enumeration,
)
from repro.counting.forest import build_forest
from repro.counting.peredge import per_edge_counts
from repro.counting.pervertex import per_vertex_counts
from repro.counting.pivoter import run_pivoter
from repro.counting.sct import SCTEngine
from repro.datasets import load
from repro.ordering import core_ordering, directionalize
from repro.runtime import RunController

from tests.backends import KERNEL_NAMES, make_kernel
from tests.corpus import GRAPHS as _GRAPHS
from tests.corpus import IDS as _IDS
from tests.corpus import ordering as _ordering
from tests.corpus import truth as _truth

STRUCTURES_ALL = ("dense", "sparse", "remap")
BACKENDS = KERNEL_NAMES


def test_registry_covers_backends():
    # Each backend reaches the engines as itself: were an instance
    # swapped for the default, every cross-backend check here would
    # hold bigint against bigint.
    assert set(BACKENDS) == {"bigint", "wordarray"}
    name, g = _GRAPHS[0]
    for backend in BACKENDS:
        r = count_kcliques(g, 3, _ordering(name, g),
                           kernel=make_kernel(backend))
        assert r.kernel == backend


def test_suite_shape():
    assert len(_GRAPHS) == 40
    # The suite must exercise both sub-word and multi-word subgraphs.
    assert any(g.num_vertices > 16 for _, g in _GRAPHS)
    assert all(g.num_vertices <= 32 for _, g in _GRAPHS)


@pytest.mark.parametrize("name,g", _GRAPHS, ids=_IDS)
def test_sct_all_structures_all_backends(name, g):
    o = _ordering(name, g)
    for k in (3, 4):
        expect = _truth(name, g, k)
        for structure in STRUCTURES_ALL:
            for backend in BACKENDS:
                r = count_kcliques(g, k, o, structure=structure,
                                   kernel=make_kernel(backend))
                assert r.count == expect, (
                    f"{name}: SCT {structure}/{backend} k={k} "
                    f"got {r.count}, brute force {expect}"
                )
                assert r.kernel == backend
                assert r.structure == structure


@pytest.mark.parametrize("name,g", _GRAPHS, ids=_IDS)
def test_arbcount_all_structures_all_backends(name, g):
    o = _ordering(name, g)
    for k, structures in ((3, ("remap",)), (4, STRUCTURES_ALL)):
        expect = _truth(name, g, k)
        for structure in structures:
            for backend in BACKENDS:
                r = count_kcliques_enumeration(g, k, o, structure=structure,
                                               kernel=make_kernel(backend))
                assert r.count == expect, (
                    f"{name}: arbcount {structure}/{backend} k={k} "
                    f"got {r.count}, brute force {expect}"
                )


@pytest.mark.parametrize("name,g", _GRAPHS, ids=_IDS)
def test_pivoter_baseline_both_backends(name, g):
    expect = _truth(name, g, 4)
    for backend in BACKENDS:
        run = run_pivoter(g, 4, kernel=make_kernel(backend))
        assert run.result.count == expect, f"{name}: pivoter/{backend}"
        assert run.result.structure == "dense"


@pytest.mark.parametrize("name,g", _GRAPHS, ids=_IDS)
def test_all_k_identical_across_combos(name, g):
    o = _ordering(name, g)
    reference = None
    for structure in STRUCTURES_ALL:
        for backend in BACKENDS:
            counts = count_all_sizes(g, o, structure=structure,
                                     kernel=make_kernel(backend)).all_counts
            if reference is None:
                reference = counts
            else:
                assert counts == reference, (
                    f"{name}: all-k {structure}/{backend} diverged"
                )
    # Anchors: vertices, edges, and the brute-forced sizes.
    assert reference[1] == g.num_vertices
    assert reference[2] == g.num_edges
    for k in (3, 4):
        got = reference[k] if k < len(reference) else 0
        assert got == _truth(name, g, k)
    # Target-k and all-k must agree at every counted size.
    for k in range(1, len(reference)):
        assert reference[k] == count_kcliques(g, k, o).count


# ----------------------------------------------------------------------
# Counters consistency: the perf model must be backend-invariant
# (identical lookups, build_words, set-op words, tree shape).
# ----------------------------------------------------------------------
_COUNTER_GRAPHS = _GRAPHS[::5]  # every fifth graph, all three families


@pytest.mark.parametrize("name,g", _COUNTER_GRAPHS,
                         ids=[n for n, _ in _COUNTER_GRAPHS])
@pytest.mark.parametrize("structure", STRUCTURES_ALL)
def test_counters_backend_invariant(name, g, structure):
    o = _ordering(name, g)

    def runs(backend):
        return (
            count_kcliques(g, 4, o, structure=structure,
                           kernel=make_kernel(backend)),
            count_all_sizes(g, o, structure=structure,
                            kernel=make_kernel(backend)),
            count_kcliques_enumeration(g, 4, o, structure=structure,
                                       kernel=make_kernel(backend)),
        )

    for ref, other in zip(runs("bigint"), runs("wordarray")):
        assert ref.counters.as_dict() == other.counters.as_dict(), (
            f"{name}/{structure}: counters differ between backends "
            f"(k={ref.k})"
        )
        assert np.array_equal(ref.per_root_work, other.per_root_work)
        assert np.array_equal(ref.per_root_memory, other.per_root_memory)


@pytest.mark.parametrize("name,g", _GRAPHS, ids=_IDS)
def test_attribution_walks_the_target_k_tree(name, g):
    # The attribution engines walk exactly the tree SCTEngine.count
    # walks: the nodes they charge a controller equal its node count.
    o = _ordering(name, g)
    for structure in STRUCTURES_ALL:
        for k in (2, 3, 4, 5):
            nodes = SCTEngine(g, o, structure).count(k).counters
            for engine in (per_vertex_counts, per_edge_counts):
                ctl = RunController()
                engine(g, k, o, structure=structure, controller=ctl)
                assert ctl.spent.nodes == nodes.function_calls, (
                    f"{name}: {engine.__name__} {structure} k={k}"
                )


def test_wide_roots_identical_across_backends():
    # The webedu analog's widest roots span several words per row, so
    # the word-array backend's multi-word passes run inside the
    # engines, not only in isolation.
    g = load("webedu")
    dag = directionalize(g, core_ordering(g))
    assert int((dag.degrees > 128).sum()) > 0

    def runs(backend):
        engine = SCTEngine(g, dag, kernel=make_kernel(backend))
        return (
            engine.count(4),
            engine.count_all(),
            build_forest(g, dag, kernel=make_kernel(backend)),
        )

    (ref_k, ref_all, ref_f), (k4, allk, forest) = map(runs, BACKENDS)
    assert k4.count == ref_k.count
    assert allk.all_counts == ref_all.all_counts
    for ref, other in ((ref_k, k4), (ref_all, allk), (ref_f, forest)):
        assert ref.counters.as_dict() == other.counters.as_dict()
        assert np.array_equal(ref.per_root_work, other.per_root_work)
        assert np.array_equal(ref.per_root_memory, other.per_root_memory)
    for field in ("held_n", "pivot_n", "roots", "held_members",
                  "pivot_members", "per_root_recursion"):
        assert np.array_equal(getattr(ref_f, field), getattr(forest, field))


def test_wide_roots_match_enumeration():
    # The same wide roots, held to an algorithm that takes no pivots:
    # the pivoting paths must count the 4-cliques exactly as the
    # enumeration engine does.
    g = load("webedu")
    dag = directionalize(g, core_ordering(g))
    assert int((dag.degrees > 128).sum()) > 0
    expect = count_kcliques_enumeration(g, 4, dag).count
    engine = SCTEngine(g, dag)
    assert engine.count(4).count == expect
    assert engine.count_all().all_counts[4] == expect
    assert build_forest(g, dag).count(4) == expect
