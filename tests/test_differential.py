"""Cross-engine differential suite — the kernel layer's correctness net.

Forty seeded random graphs (R-MAT, Chung-Lu, planted-clique overlays)
are counted by every engine {SCT, Pivoter baseline, Arb-Count
enumeration} over every subgraph structure {dense, sparse, remap} and
both test backends (the program as it is, and the program with the
word-array backend's pivot scan and row loader swapped in, see
``tests/backends.py``), for target-k and all-k runs.  Every combination
must return *exactly* the same counts, anchored to the brute-force
reference at k = 3 and 4; and the instrumentation
:class:`~repro.counting.counters.Counters` must be bit-identical across
backends, because the performance model may never be able to tell
which backend produced a run.

The production recursions are also held to the reference walker — the
kernel-based leaf walker the engines ran before the kernel seam was
deleted — on the corpus x 3 structures: counts, all-k rows, per-root
tallies, Counters, forest leaves, attribution, and the kernel calls the
engines derive from their counters against those a counting kernel
sees.  The corpus graphs have at most 32 vertices, so a web-graph
analog with roots several words wide holds the pivoting paths to both
backends and to the enumeration engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.counting import (
    count_all_sizes,
    count_kcliques,
    count_kcliques_enumeration,
)
from repro import kernels, obs
from repro.counting.binomial import binomial, binomial_row
from repro.counting.forest import build_forest, collect_root_leaves
from repro.counting.peredge import per_edge_counts
from repro.counting.pervertex import per_vertex_counts
from repro.counting.pivoter import run_pivoter
from repro.counting.profiles import per_vertex_profiles
from repro.counting.sct import SCTEngine
from repro.counting.structures import STRUCTURES
from repro.datasets import load
from repro.graph.generators import erdos_renyi
from repro.ordering import core_ordering, directionalize
from repro.runtime import RunController

from tests.backends import (
    KERNEL_NAMES,
    BigIntKernel,
    CountingKernel,
    WordArrayKernel,
    backend as use_backend,
    reference_roots,
)
from tests.corpus import GRAPHS as _GRAPHS
from tests.corpus import IDS as _IDS
from tests.corpus import ordering as _ordering
from tests.corpus import truth as _truth

STRUCTURES_ALL = ("dense", "sparse", "remap")
BACKENDS = KERNEL_NAMES


def test_registry_covers_backends():
    # Each backend reaches the engines: under the word-array backend
    # every pivot scan goes through it (were the program's own scan
    # left in place, every cross-backend check here would hold the
    # program against itself), and runs still report the one backend.
    assert set(BACKENDS) == {"bigint", "wordarray"}
    name, g = _GRAPHS[0]
    own = kernels.pivot_select
    for backend in BACKENDS:
        with use_backend(backend):
            assert (kernels.pivot_select is own) == (backend == "bigint")
            r = count_kcliques(g, 3, _ordering(name, g))
        assert r.kernel == "bigint"
    assert kernels.pivot_select is own


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
                with use_backend(backend):
                    r = count_kcliques(g, k, o, structure=structure)
                assert r.count == expect, (
                    f"{name}: SCT {structure}/{backend} k={k} "
                    f"got {r.count}, brute force {expect}"
                )
                assert r.kernel == "bigint"
                assert r.structure == structure


@pytest.mark.parametrize("name,g", _GRAPHS, ids=_IDS)
def test_arbcount_all_structures_all_backends(name, g):
    o = _ordering(name, g)
    for k, structures in ((3, ("remap",)), (4, STRUCTURES_ALL)):
        expect = _truth(name, g, k)
        for structure in structures:
            for backend in BACKENDS:
                with use_backend(backend):
                    r = count_kcliques_enumeration(g, k, o,
                                                   structure=structure)
                assert r.count == expect, (
                    f"{name}: arbcount {structure}/{backend} k={k} "
                    f"got {r.count}, brute force {expect}"
                )


@pytest.mark.parametrize("name,g", _GRAPHS, ids=_IDS)
def test_pivoter_baseline_both_backends(name, g):
    expect = _truth(name, g, 4)
    for backend in BACKENDS:
        with use_backend(backend):
            run = run_pivoter(g, 4, kernel="bigint")
        assert run.result.count == expect, f"{name}: pivoter/{backend}"
        assert run.result.structure == "dense"


@pytest.mark.parametrize("name,g", _GRAPHS, ids=_IDS)
def test_all_k_identical_across_combos(name, g):
    o = _ordering(name, g)
    reference = None
    for structure in STRUCTURES_ALL:
        for backend in BACKENDS:
            with use_backend(backend):
                counts = count_all_sizes(g, o, structure=structure).all_counts
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
        with use_backend(backend):
            return (
                count_kcliques(g, 4, o, structure=structure),
                count_all_sizes(g, o, structure=structure),
                count_kcliques_enumeration(g, 4, o, structure=structure),
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
        with use_backend(backend):
            engine = SCTEngine(g, dag)
            return engine.count(4), engine.count_all(), build_forest(g, dag)

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


# ----------------------------------------------------------------------
# The production recursions against the reference walker
# ----------------------------------------------------------------------
_REF_KERNELS = (BigIntKernel, WordArrayKernel)


def _ref_count(kern, struct, k, early_termination=True):
    """Reference target-k count: ``(count, totals, per-root Counters)``."""
    total = 0

    def leaf(held, pivots, held_ids, pivot_ids):
        nonlocal total
        total += binomial(pivots, k - held)

    totals, per_root = reference_roots(
        kern, struct, range(struct.graph.num_vertices), leaf, k=k,
        early_termination=early_termination, prune=early_termination,
    )
    return total, totals, per_root


def _ref_count_all(kern, struct, cap, length):
    """Reference all-k row (trimmed like ``count_all``'s)."""
    row = [0] * length

    def leaf(held, pivots, held_ids, pivot_ids):
        brow = binomial_row(pivots)
        for s in range(held, min(held + pivots + 1, cap)):
            row[s] += brow[s - held]

    totals, per_root = reference_roots(
        kern, struct, range(struct.graph.num_vertices), leaf, cap=cap,
    )
    while len(row) > 1 and row[-1] == 0:
        row.pop()
    return row, totals, per_root


def _ref_leaves(kern, struct, k=None):
    """Reference leaves ``(root, |H|, |Π|, H ids, Π ids)`` in walk order."""
    leaves = []
    v_now = [0]

    def leaf(held, pivots, held_ids, pivot_ids):
        leaves.append(
            (v_now[0], held, pivots, tuple(held_ids), tuple(pivot_ids))
        )

    totals = None
    per_root = []
    for v in range(struct.graph.num_vertices):
        v_now[0] = v
        t, pr = reference_roots(kern, struct, [v], leaf, k=k)
        per_root += pr
        if totals is None:
            totals = t
        else:
            totals.merge(t)
    return leaves, totals, per_root


def _same_vectors(result, per_root):
    assert list(result.per_root_work) == [c.work for c in per_root]
    assert list(result.per_root_memory) == [
        float(c.peak_subgraph_bytes) for c in per_root
    ]


#: Denser than the corpus: nodes with several branch vertices adjacent
#: to each other, which the corpus's sparse graphs hardly produce, so
#: a branch's candidate mask is checked, not only its size.
_DENSE = [(f"er-n26-p40-s{s}", erdos_renyi(26, 0.4, seed=s))
          for s in range(3)]


@pytest.mark.parametrize("name,g", _GRAPHS + _DENSE,
                         ids=_IDS + [n for n, _ in _DENSE])
def test_production_matches_reference_walker(name, g):
    dag = directionalize(g, _ordering(name, g))
    n = g.num_vertices
    for structure in STRUCTURES_ALL:
        engine = SCTEngine(g, dag, structure)
        struct = STRUCTURES[structure](g, dag)
        for kern_cls in _REF_KERNELS:
            kern = kern_cls()
            for k in (3, 4, 5):
                count, totals, per_root = _ref_count(kern, struct, k)
                for r in (engine.count(k), engine.count_roots(range(n), k)):
                    assert r.count == count, (structure, k)
                    assert r.counters.as_dict() == totals.as_dict()
                    _same_vectors(r, per_root)
            count, totals, per_root = _ref_count(kern, struct, 4, False)
            r = engine.count(4, early_termination=False)
            assert r.count == count
            assert r.counters.as_dict() == totals.as_dict()
            _same_vectors(r, per_root)

            length, cap = engine._allk_shape(None)
            row, totals, per_root = _ref_count_all(kern, struct, cap, length)
            r = engine.count_all()
            assert r.all_counts == row
            assert r.counters.as_dict() == totals.as_dict()
            _same_vectors(r, per_root)
            batch = engine.count_roots(range(n), None)
            assert batch.all_counts[:len(row)] == row
            assert batch.counters.as_dict() == totals.as_dict()

        # The forest's leaves and per-root vectors are the walk's.
        leaves, totals, per_root = _ref_leaves(BigIntKernel(), struct)
        forest = build_forest(g, dag, structure)
        assert forest.roots.tolist() == [lf[0] for lf in leaves]
        assert forest.held_n.tolist() == [lf[1] for lf in leaves]
        assert forest.pivot_n.tolist() == [lf[2] for lf in leaves]
        assert forest.held_members.tolist() == [
            u for lf in leaves for u in lf[3]
        ]
        assert forest.pivot_members.tolist() == [
            u for lf in leaves for u in lf[4]
        ]
        assert forest.counters.as_dict() == totals.as_dict()
        assert forest.per_root_work.tolist() == [c.work for c in per_root]
        assert forest.per_root_recursion.tolist() == [
            c.recursion_work for c in per_root
        ]

        # Attribution walks the target-k tree and credits its leaves.
        for k in (3, 4):
            leaves, _, _ = _ref_leaves(BigIntKernel(), struct, k)
            per = [0] * n
            edges: dict = {}
            for _, held, pivots, h_ids, p_ids in leaves:
                j = k - held
                c_all = binomial(pivots, j)
                if not c_all:
                    continue
                c_in = binomial(pivots - 1, j - 1)
                c_pp = binomial(pivots - 2, j - 2)
                for u in h_ids:
                    per[u] += c_all
                for u in p_ids:
                    per[u] += c_in
                for coef, pairs in (
                    (c_all, [(a, b) for i, a in enumerate(h_ids)
                             for b in h_ids[i + 1:]]),
                    (c_in, [(a, b) for a in h_ids for b in p_ids]),
                    (c_pp, [(a, b) for i, a in enumerate(p_ids)
                            for b in p_ids[i + 1:]]),
                ):
                    for a, b in pairs:
                        if coef:
                            key = (min(a, b), max(a, b))
                            edges[key] = edges.get(key, 0) + coef
            assert per_vertex_counts(g, k, dag, structure) == per
            assert per_edge_counts(g, k, dag, structure) == edges


def _calls(reg):
    return {
        op: reg.value("kernel_calls_total", kernel="bigint", op=op)
        for op in kernels.OPS
    }


@pytest.mark.parametrize("name,g", _COUNTER_GRAPHS,
                         ids=[n for n, _ in _COUNTER_GRAPHS])
@pytest.mark.parametrize("structure", STRUCTURES_ALL)
def test_derived_kernel_calls_match_counted_calls(
        name, g, structure, monkeypatch):
    # kernel_calls_total is derived from the engines' counters; it must
    # equal the calls a counting kernel sees in the reference walker on
    # the same trees.  The root memo is off so that every root is
    # walked, as the reference walks it.
    import repro.counting.sct as sct

    monkeypatch.setattr(sct, "_MEMO_MAX", 0)
    dag = directionalize(g, _ordering(name, g))
    n = g.num_vertices
    struct = STRUCTURES[structure](g, dag)
    cap = SCTEngine(g, dag, structure)._allk_shape(None)[1]
    sink = lambda *leaf: None  # noqa: E731 - the calls are the point
    runs = {
        "count": (lambda: SCTEngine(g, dag, structure).count(4),
                  dict(k=4, prune=True)),
        "count_no_et": (
            lambda: SCTEngine(g, dag, structure).count(
                5, early_termination=False),
            dict(k=5, early_termination=False)),
        "count_all": (lambda: SCTEngine(g, dag, structure).count_all(),
                      dict(cap=cap)),
        "forest": (lambda: build_forest(g, dag, structure), {}),
        "per_vertex": (lambda: per_vertex_counts(g, 4, dag, structure),
                       dict(k=4)),
        "per_edge": (lambda: per_edge_counts(g, 3, dag, structure),
                     dict(k=3)),
        "profiles": (lambda: per_vertex_profiles(g, dag, structure),
                     dict(cap=cap)),
    }
    for run, (go, tree) in runs.items():
        counted = CountingKernel(WordArrayKernel())
        reference_roots(counted, struct, range(n), sink, **tree)
        with obs.collecting() as reg:
            go()
        assert _calls(reg) == counted.calls, run
    assert counted.calls["pivot_select"] > 0


def test_forest_leaves_match_reference_on_wide_roots():
    # Leaves several words wide, recorded by the production walker,
    # are the reference walker's.
    g = load("webedu")
    dag = directionalize(g, core_ordering(g))
    struct = STRUCTURES["remap"](g, dag)
    wide = [int(v) for v in np.flatnonzero(dag.degrees > 128)[:2]]
    assert wide
    for v in wide:
        _, _, ctr, got = collect_root_leaves(v, struct.build(v))
        ref: list = []

        def leaf(held, pivots, held_ids, pivot_ids):
            ref.append((held, pivots, tuple(held_ids), tuple(pivot_ids)))

        totals, _ = reference_roots(WordArrayKernel(), struct, [v], leaf)
        assert got == ref
        assert ctr.as_dict() == totals.as_dict()
