"""Materialized-forest differential + property suite.

A :class:`~repro.counting.forest.SCTForest` built once must answer
every counting query **bit-identically** to the direct engines: total
counts, the all-k distribution, per-vertex and per-edge attribution —
across the shared 40-graph corpus, on both test bitset backends
(``tests/backends.py``), and for a checkpoint-resumed build.  On top of the differential net, property
tests pin the uniform clique sampler (real cliques, seeded
determinism, leaf-weight proportions on a planted two-clique graph),
the degradation ladder (member spill vs hard memory failure), the
in-process cache, and the ``.npz`` persistence round-trip.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.counting import (
    count_all_sizes,
    count_kcliques,
    per_edge_counts,
    per_vertex_counts,
    per_vertex_profiles,
)
from repro.counting.allk import clique_size_distribution, max_clique_size
from repro.counting.forest import (
    SCTForest,
    build_forest,
    clear_forest_cache,
    get_forest,
    load_forest,
)
from repro.counting.sct import SCTEngine
from repro.errors import (
    CheckpointError,
    CountingError,
    MemoryBudgetExceededError,
    RunInterrupted,
)
from repro.graph.build import from_edge_list
from repro.graph.generators import erdos_renyi, path_graph
from repro.ordering import core_ordering
from repro.runtime import FaultPlan, FaultSpec, RunController
from repro.runtime.budget import Budget

from tests.backends import KERNEL_NAMES, backend as use_backend
from tests.corpus import GRAPHS, IDS
from tests.corpus import ordering as corpus_ordering
from tests.corpus import truth as corpus_truth
from tests.logs import read_log

BACKENDS = KERNEL_NAMES


@pytest.fixture
def g():
    return erdos_renyi(50, 0.25, seed=23)


def _assert_forests_identical(a: SCTForest, b: SCTForest) -> None:
    """Bit-identical forests: every array, counter and the descriptor."""
    assert a.num_vertices == b.num_vertices
    assert np.array_equal(a.held_n, b.held_n)
    assert np.array_equal(a.pivot_n, b.pivot_n)
    assert np.array_equal(a.roots, b.roots)
    assert a.has_members == b.has_members
    if a.has_members:
        assert np.array_equal(a.held_members, b.held_members)
        assert np.array_equal(a.pivot_members, b.pivot_members)
    assert np.array_equal(a.per_root_work, b.per_root_work)
    assert np.array_equal(a.per_root_memory, b.per_root_memory)
    assert np.array_equal(a.per_root_recursion, b.per_root_recursion)
    assert a.counters.as_dict() == b.counters.as_dict()
    assert a.descriptor == b.descriptor
    assert a.count_all() == b.count_all()


# ----------------------------------------------------------------------
# Differential net: forest-served queries == direct engines, corpus-wide
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,g", GRAPHS, ids=IDS)
def test_forest_matches_direct_engines(name, g):
    o = corpus_ordering(name, g)
    reference_allk = None
    for backend in BACKENDS:
        with use_backend(backend):
            forest = build_forest(g, o)
            allk = count_all_sizes(g, o).all_counts
            counts = {k: count_kcliques(g, k, o).count for k in (3, 4)}
            per_vertex = per_vertex_counts(g, 3, o)
            per_edge = per_edge_counts(g, 3, o)
        assert forest.count_all() == allk, (
            f"{name}/{backend}: forest all-k diverged"
        )
        if reference_allk is None:
            reference_allk = allk
        else:
            assert allk == reference_allk, f"{name}: backends diverged"
        assert forest.max_clique_size() == len(allk) - 1
        for k in (3, 4):
            expect = corpus_truth(name, g, k)
            assert forest.count(k) == expect, (
                f"{name}/{backend}: forest count({k}) != brute force"
            )
            assert forest.count(k) == counts[k]
        assert forest.per_vertex(3) == per_vertex, (
            f"{name}/{backend}: per-vertex diverged"
        )
        assert forest.per_edge(3) == per_edge, (
            f"{name}/{backend}: per-edge diverged"
        )


_COUNTER_GRAPHS = GRAPHS[::5]


@pytest.mark.parametrize("name,g", _COUNTER_GRAPHS,
                         ids=[n for n, _ in _COUNTER_GRAPHS])
def test_forest_counters_backend_invariant(name, g):
    """The build's instrumentation must not betray the backend."""
    o = corpus_ordering(name, g)
    ref = build_forest(g, o, kernel="bigint")
    with use_backend("wordarray"):
        other = build_forest(g, o)
    assert ref.counters.as_dict() == other.counters.as_dict()
    assert np.array_equal(ref.per_root_work, other.per_root_work)
    assert np.array_equal(ref.per_root_memory, other.per_root_memory)
    assert np.array_equal(ref.held_n, other.held_n)
    assert np.array_equal(ref.pivot_n, other.pivot_n)


def test_forest_per_vertex_sum_invariant(g):
    """Per-vertex counts sum to k x (total k-cliques)."""
    forest = build_forest(g, core_ordering(g))
    for k in (3, 4, 5):
        assert sum(forest.per_vertex(k)) == k * forest.count(k)
        assert sum(forest.per_edge(k).values()) == (
            k * (k - 1) // 2 * forest.count(k)
        )


def test_forest_profiles_and_wrapper_paths(g):
    """The ``forest=`` short-circuits in the query wrappers serve the
    same answers as the direct recursion."""
    o = core_ordering(g)
    forest = build_forest(g, o)
    assert per_vertex_counts(g, 4, o, forest=forest) == \
        per_vertex_counts(g, 4, o)
    assert per_edge_counts(g, 3, o, forest=forest) == \
        per_edge_counts(g, 3, o)
    assert per_vertex_profiles(g, o, forest=forest) == \
        per_vertex_profiles(g, o)
    assert clique_size_distribution(g, o, forest=forest) == \
        clique_size_distribution(g, o)
    assert max_clique_size(g, o, forest=forest) == max_clique_size(g, o)


def test_engine_forest_accessor(g):
    """``SCTEngine.forest()`` serves the engine's own counts."""
    engine = SCTEngine(g, core_ordering(g))
    forest = engine.forest(cache=False)
    for k in (3, 5):
        assert forest.count(k) == engine.count(k).count
    assert forest.descriptor["kernel"] == engine.kernel.name
    assert forest.descriptor["structure"] == engine.structure.name


# ----------------------------------------------------------------------
# Checkpoint/resume: an interrupted build resumes bit-identically
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("at_op", [1, 7, 25])
def test_forest_build_resume_bit_identical(tmp_path, g, kernel, at_op):
    with use_backend(kernel):
        base = build_forest(g, core_ordering(g))
        path = tmp_path / "ck.json"
        ctl = RunController(
            checkpoint_path=path,
            faults=FaultPlan(FaultSpec("interrupt", at_op=at_op)),
        )
        with pytest.raises(RunInterrupted):
            build_forest(g, core_ordering(g), controller=ctl)
        resumed = build_forest(
            g, core_ordering(g),
            controller=RunController(checkpoint_path=path, resume=True),
        )
    _assert_forests_identical(resumed, base)
    # The resumed forest still answers every query correctly.
    assert resumed.per_vertex(4) == base.per_vertex(4)


def test_forest_multi_interrupt_chain(tmp_path, g):
    base = build_forest(g, core_ordering(g))
    path = tmp_path / "ck.json"
    resume = False
    forest = None
    for at_op in (5, 9, 3, None):
        faults = (
            FaultPlan(FaultSpec("interrupt", at_op=at_op))
            if at_op is not None else None
        )
        ctl = RunController(checkpoint_path=path, resume=resume,
                            faults=faults)
        if at_op is not None:
            with pytest.raises(RunInterrupted):
                build_forest(g, core_ordering(g), controller=ctl)
        else:
            forest = build_forest(g, core_ordering(g), controller=ctl)
        resume = True
    _assert_forests_identical(forest, base)


# ----------------------------------------------------------------------
# Degradation ladder: member spill vs hard memory failure
# ----------------------------------------------------------------------
def _member_spill_budget(forest: SCTForest) -> int:
    """A watermark the counts-only model fits under but the full
    member-recording model does not (derived, not hard-coded)."""
    leaf_bytes = 12 * forest.num_leaves
    member_bytes = 4 * (forest.held_members.size
                        + forest.pivot_members.size)
    peak = forest.counters.peak_subgraph_bytes
    budget = leaf_bytes + member_bytes - 1
    assert budget >= max(peak, leaf_bytes), (
        "graph too small to separate the spill rungs"
    )
    return budget


def test_memory_budget_hard_raise_without_degrade(g):
    full = build_forest(g, core_ordering(g))
    budget = _member_spill_budget(full)
    ctl = RunController(Budget(max_memory_bytes=budget))
    with pytest.raises(MemoryBudgetExceededError):
        build_forest(g, core_ordering(g), controller=ctl)


@pytest.mark.parametrize("shrink", [1, 2])
def test_memory_abort_checkpoints_whole_roots(tmp_path, g, shrink):
    """The forest's own footprint, with a root's leaves in it, is
    metered before they land: an abort checkpoints exactly the roots
    it counted, a resume under the same watermark aborts again, and one
    without it finishes bit-identically."""
    full = build_forest(g, core_ordering(g))
    budget = Budget(max_memory_bytes=_member_spill_budget(full) // shrink)
    path = tmp_path / "ck.json"
    with pytest.raises(MemoryBudgetExceededError):
        build_forest(g, core_ordering(g), controller=RunController(
            budget, checkpoint_path=path))
    records, spent, _ = read_log(path)
    assert [v for v, _ in records] == list(range(spent.roots_done))
    assert spent.roots_done > 0
    with pytest.raises(MemoryBudgetExceededError):
        build_forest(g, core_ordering(g), controller=RunController(
            budget, checkpoint_path=path, resume=True))
    resumed = build_forest(g, core_ordering(g), controller=RunController(
        checkpoint_path=path, resume=True))
    _assert_forests_identical(resumed, full)


def test_memory_budget_spills_members_with_degrade(g):
    full = build_forest(g, core_ordering(g))
    budget = _member_spill_budget(full)
    ctl = RunController(Budget(max_memory_bytes=budget), degrade=True)
    spilled = build_forest(g, core_ordering(g), controller=ctl)
    assert spilled.degraded_from == "members"
    assert not spilled.has_members
    # Counting stays exact; attribution honestly refuses.
    assert spilled.count_all() == full.count_all()
    assert spilled.max_clique_size() == full.max_clique_size()
    with pytest.raises(CountingError, match="member"):
        spilled.per_vertex(3)
    with pytest.raises(CountingError, match="member"):
        spilled.per_edge(3)


def test_subgraph_footprint_beyond_budget_raises_even_degraded(g):
    """Spilling member arrays cannot fix a watermark below the per-root
    subgraph footprint itself — that must still raise."""
    full = build_forest(g, core_ordering(g))
    tiny = max(1, full.counters.peak_subgraph_bytes // 2)
    ctl = RunController(Budget(max_memory_bytes=tiny), degrade=True)
    with pytest.raises(MemoryBudgetExceededError):
        build_forest(g, core_ordering(g), controller=ctl)


def test_members_false_is_counts_only(g):
    forest = build_forest(g, core_ordering(g), members=False)
    full = build_forest(g, core_ordering(g))
    assert not forest.has_members
    assert forest.degraded_from is None  # asked for, not degraded to
    assert forest.count_all() == full.count_all()
    with pytest.raises(CountingError, match="member"):
        forest.per_vertex(3)
    with pytest.raises(CountingError, match="member"):
        forest.sample_cliques(3, 1, rng=0)


# ----------------------------------------------------------------------
# Persistence + cache
# ----------------------------------------------------------------------
def test_save_load_roundtrip(tmp_path, g):
    forest = build_forest(g, core_ordering(g))
    path = tmp_path / "forest.npz"
    forest.save(path)
    loaded = load_forest(path, g)
    _assert_forests_identical(loaded, forest)
    assert loaded.per_edge(3) == forest.per_edge(3)
    # No .tmp debris from the atomic write.
    assert [p.name for p in tmp_path.iterdir()] == ["forest.npz"]


def test_load_refuses_format_v1(tmp_path, g):
    """A version-1 file predates the stored recursion shares: loading it
    must refuse (not quarantine) rather than guess them."""
    import json

    forest = build_forest(g, core_ordering(g))
    meta = {
        "format_version": 1,
        "num_vertices": forest.num_vertices,
        "descriptor": forest.descriptor,
        "counters": forest.counters.as_dict(),
        "degraded_from": None,
        "has_members": False,
    }
    path = tmp_path / "v1.npz"
    np.savez_compressed(
        path,
        held_n=forest.held_n, pivot_n=forest.pivot_n, roots=forest.roots,
        per_root_work=forest.per_root_work,
        per_root_memory=forest.per_root_memory,
        meta_json=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    )
    with pytest.raises(CheckpointError, match="format version 1"):
        load_forest(path, g)
    assert path.exists()


def test_nbytes_counts_every_array(g):
    forest = build_forest(g, core_ordering(g))
    arrays = (
        forest.held_n, forest.pivot_n, forest.roots, forest.held_off,
        forest.pivot_off, forest.per_root_work, forest.per_root_memory,
        forest.per_root_recursion, forest.held_members,
        forest.pivot_members,
    )
    assert forest.nbytes == sum(a.nbytes for a in arrays)
    assert forest.per_root_recursion.nbytes == 8 * g.num_vertices


def test_load_refuses_wrong_graph(tmp_path, g):
    forest = build_forest(g, core_ordering(g))
    path = tmp_path / "forest.npz"
    forest.save(path)
    other = erdos_renyi(50, 0.25, seed=24)
    with pytest.raises(CheckpointError, match="graph_fingerprint"):
        load_forest(path, other)


def test_load_refuses_corrupt_file(tmp_path):
    path = tmp_path / "forest.npz"
    path.write_bytes(b"not a forest")
    with pytest.raises(CheckpointError):
        load_forest(path)


def test_get_forest_cache_identity(g):
    clear_forest_cache()
    o = core_ordering(g)
    a = get_forest(g, o)
    assert get_forest(g, o) is a
    # A different structure is a different cache entry.
    b = get_forest(g, o, "dense")
    assert b is not a
    assert get_forest(g, o, "dense") is b
    clear_forest_cache()
    assert get_forest(g, o) is not a
    clear_forest_cache()


# ----------------------------------------------------------------------
# sample_cliques: real cliques, determinism, leaf-weight proportions
# ----------------------------------------------------------------------
def test_sample_cliques_are_real_cliques(g):
    forest = build_forest(g, core_ordering(g))
    adj = g.adjacency_sets()
    for k in (3, 4, 5):
        for clique in forest.sample_cliques(k, 50, rng=7):
            assert len(clique) == k
            assert len(set(clique)) == k
            assert clique == tuple(sorted(clique))
            for u, v in combinations(clique, 2):
                assert v in adj[u], f"sampled non-edge ({u}, {v})"


def test_sample_cliques_seeded_determinism(g):
    forest = build_forest(g, core_ordering(g))
    a = forest.sample_cliques(4, 100, rng=42)
    b = forest.sample_cliques(4, 100, rng=42)
    assert a == b
    c = forest.sample_cliques(4, 100, rng=np.random.default_rng(42))
    assert c == a


def test_sample_cliques_uniform_proportions():
    """Disjoint K6 + K4: of the 24 triangles, 20 live in the K6, so a
    uniform sampler must put ~5/6 of its draws there."""
    edges = list(combinations(range(6), 2)) + \
        list(combinations(range(6, 10), 2))
    g = from_edge_list(edges)
    forest = build_forest(g, core_ordering(g))
    assert forest.count(3) == 20 + 4
    n = 3000
    samples = forest.sample_cliques(3, n, rng=1234)
    in_k6 = sum(1 for c in samples if max(c) < 6)
    expected = 20 / 24
    # ~6 sigma of the binomial, deterministic under the seeded rng.
    assert abs(in_k6 / n - expected) < 0.04
    # Every individual triangle should appear (support coverage).
    assert len(set(samples)) == 24


def test_sample_cliques_errors():
    g = path_graph(6)  # no triangles
    forest = build_forest(g, core_ordering(g))
    with pytest.raises(CountingError, match="no 3-cliques"):
        forest.sample_cliques(3, 10, rng=0)
    with pytest.raises(CountingError):
        forest.sample_cliques(0, 10, rng=0)
    with pytest.raises(CountingError):
        forest.sample_cliques(3, -1, rng=0)


# ----------------------------------------------------------------------
# hardened .npz loading: quarantine, typed errors, rebuild fallback
# ----------------------------------------------------------------------
def test_truncated_forest_quarantined_with_typed_error(tmp_path, g):
    """The byte-truncation regression: a torn .npz raises
    ForestFormatError naming the path, and the corpse is quarantined
    as .corrupt instead of staying under the real name."""
    from repro.counting.forest import load_or_rebuild_forest
    from repro.errors import ForestFormatError

    path = tmp_path / "forest.npz"
    build_forest(g, core_ordering(g)).save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ForestFormatError, match="corrupt forest") as ei:
        load_forest(path)
    assert str(path) in str(ei.value)
    assert not path.exists()
    assert (tmp_path / "forest.npz.corrupt").exists()
    # ForestFormatError subclasses CheckpointError, so existing
    # callers catching the broad type keep working.
    assert isinstance(ei.value, CheckpointError)


def test_missing_forest_is_not_quarantined(tmp_path):
    from repro.errors import ForestFormatError

    with pytest.raises(CheckpointError, match="cannot read") as ei:
        load_forest(tmp_path / "absent.npz")
    assert not isinstance(ei.value, ForestFormatError)
    assert list(tmp_path.iterdir()) == []


def test_load_or_rebuild_heals_corrupt_artifact(tmp_path, g):
    from repro.counting.forest import clear_forest_cache, load_or_rebuild_forest
    from repro.errors import DegradedResultWarning

    clear_forest_cache()
    path = tmp_path / "forest.npz"
    original = build_forest(g, core_ordering(g))
    original.save(path)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.warns(DegradedResultWarning, match="rebuilding forest"):
        forest, rebuilt = load_or_rebuild_forest(path, g)
    assert rebuilt
    assert forest.count(3) == original.count(3)
    assert forest.count_all() == original.count_all()
    # The artifact was healed in place: the next load is clean.
    healed, rebuilt2 = load_or_rebuild_forest(path, g)
    assert not rebuilt2
    assert healed.count(3) == original.count(3)


def test_load_or_rebuild_does_not_mask_missing_file(tmp_path, g):
    from repro.counting.forest import load_or_rebuild_forest

    with pytest.raises(CheckpointError, match="cannot read"):
        load_or_rebuild_forest(tmp_path / "absent.npz", g)


def test_forest_save_routes_through_safeio_faults(tmp_path, g):
    forest = build_forest(g, core_ordering(g))
    faults = FaultPlan(FaultSpec("io_enospc", at_op=1))
    with pytest.raises(CheckpointError, match="cannot write"):
        forest.save(tmp_path / "forest.npz", faults=faults)
    assert list(tmp_path.iterdir()) == []


def test_cli_forest_use_rebuilds_from_corrupt_file(tmp_path, g, capsys):
    from repro.cli import main
    from repro.counting.forest import clear_forest_cache
    from repro.graph.io import write_edge_list

    clear_forest_cache()
    edges = tmp_path / "g.txt"
    write_edge_list(g, edges)
    path = tmp_path / "forest.npz"
    build_forest(g, core_ordering(g)).save(path)
    expected = SCTEngine(g, core_ordering(g)).count(3)
    path.write_bytes(path.read_bytes()[:80])
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        code = main(["count", "--edge-list", str(edges), "-k", "3",
                     "--forest", "use", "--forest-path", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "rebuilt; corrupt file quarantined" in out
    assert f"3-cliques: {expected.count:,}" in out
