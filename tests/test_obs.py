"""Invariant suite for the observability layer.

Three families of guarantees, held over the shared 40-graph corpus and
both test backends (``tests/backends.py``):

1. **Observation is free of side effects** — counts, counters and
   per-root arrays are bit-identical with metrics on vs. off, on both
   backends, for every engine (SCT, enumeration, Pivoter config,
   hybrid, forest).
2. **The registry speaks the engines' exact integers** — every
   canonical metric equals the private tally it replaced:
   ``engine_nodes_visited_total`` == recursion ``function_calls`` ==
   the controller's ``spent.nodes`` on clean runs; kernel call counts
   are backend-invariant and do not depend on when an engine was
   built; memo lookups cover exactly the block-induced roots; forest
   cache hits + misses == ``get_forest`` calls; ordering/stats
   migrations reproduce their old values.
3. **The plumbing itself** — registry label identity, no-op singletons
   on the disabled path, profiler accumulation, bench-harness bridges.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np
import pytest

from tests.corpus import GRAPHS, IDS, ordering, truth
from repro import obs
from repro.bench.harness import (
    metrics_summary_lines,
    run_with_metrics,
    write_json_artifact,
)
from repro.core import count_cliques
from repro.core.hybrid import count_cliques_hybrid
from repro.counting import count_kcliques, profiles
from repro.counting.arbcount import count_kcliques_enumeration
from repro.counting.counters import Counters
from repro.counting.forest import build_forest, get_forest
from repro.counting.peredge import per_edge_counts
from repro.counting.pervertex import per_vertex_counts
from repro.counting.profiles import per_vertex_profiles
from repro.counting.pivoter import run_pivoter
from repro.counting.sct import SCTEngine
from repro.graph.generators import complete_graph, erdos_renyi, overlay
from repro.graph.stats import count_triangles, heuristic_inputs
from repro.kernels import OPS as KERNEL_OPS
from repro.obs import (
    COUNTER_METRICS,
    MetricsRegistry,
    NOOP_METRIC,
    Profiler,
)
from repro.ordering import core_ordering, degree_ordering
from repro.ordering.directionalize import directionalize
from repro.errors import NodeBudgetExceededError
from repro.runtime import Budget, RunController

from tests.backends import KERNEL_NAMES, backend


def _kernel_calls(reg: MetricsRegistry) -> dict[str, int]:
    return {
        op: reg.value("kernel_calls_total", kernel="bigint", op=op)
        for op in KERNEL_OPS
    }


def _assert_identical(a, b):
    assert a.count == b.count
    assert a.all_counts == b.all_counts
    assert a.counters.as_dict() == b.counters.as_dict()
    assert np.array_equal(a.per_root_work, b.per_root_work)
    assert np.array_equal(a.per_root_memory, b.per_root_memory)


# ======================================================================
# 1. observation changes nothing — every engine, both kernels
# ======================================================================
@pytest.mark.parametrize("name,g", GRAPHS, ids=IDS)
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_sct_counts_bit_identical_obs_on_off(name, g, kernel):
    o = ordering(name, g)
    with backend(kernel):
        base = count_kcliques(g, 4, o)
        with obs.collecting() as reg:
            observed = count_kcliques(g, 4, o)
    _assert_identical(base, observed)
    assert base.count == truth(name, g, 4)
    # ...and the registry speaks the same exact integers.
    assert (
        reg.total("engine_nodes_visited_total")
        == base.counters.function_calls
    )


@pytest.mark.parametrize(
    "name,g", GRAPHS[::5], ids=IDS[::5]
)
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_enumeration_counts_bit_identical_obs_on_off(name, g, kernel):
    o = ordering(name, g)
    with backend(kernel):
        base = count_kcliques_enumeration(g, 4, o)
        with obs.collecting() as reg:
            observed = count_kcliques_enumeration(g, 4, o)
    _assert_identical(base, observed)
    assert reg.value(
        "engine_nodes_visited_total", engine="enumeration",
        structure="remap", kernel="bigint",
    ) == base.counters.function_calls


def test_pipeline_counts_bit_identical_obs_on_off():
    name, g = GRAPHS[1]
    base = count_cliques(g, 4)
    with obs.collecting(trace=True, profile=True):
        observed = count_cliques(g, 4)
    assert observed.count == base.count == truth(name, g, 4)
    assert (
        observed.counting.counters.as_dict()
        == base.counting.counters.as_dict()
    )


def test_hybrid_counts_bit_identical_obs_on_off():
    name, g = GRAPHS[2]
    base = count_cliques_hybrid(g, 3)
    with obs.collecting(trace=True):
        observed = count_cliques_hybrid(g, 3)
    assert observed.count == base.count == truth(name, g, 3)


def test_pivoter_counts_bit_identical_obs_on_off():
    name, g = GRAPHS[3]
    base = run_pivoter(g, 4)
    with obs.collecting(profile=True):
        observed = run_pivoter(g, 4)
    assert (
        observed.result.count == base.result.count == truth(name, g, 4)
    )
    assert (
        observed.result.counters.as_dict()
        == base.result.counters.as_dict()
    )


def test_forest_counts_bit_identical_obs_on_off():
    name, g = GRAPHS[4]
    o = ordering(name, g)
    base = build_forest(g, o)
    with obs.collecting():
        observed = build_forest(g, o)
    assert observed.count_all() == base.count_all()
    assert observed.count(3) == truth(name, g, 3)


# ======================================================================
# 2a. kernel call counts are backend-invariant (same DAG)
# ======================================================================
@pytest.mark.parametrize("name,g", GRAPHS, ids=IDS)
def test_kernel_call_counts_identical_across_backends(name, g):
    # Every backend runs the same recursion, so every per-op call count
    # must match exactly (the per-root work counters themselves are
    # held exactly equal by test_differential, and the derived counts
    # to a counting kernel's by its reference-walker suite).
    o = ordering(name, g)
    calls = {}
    for kernel in KERNEL_NAMES:
        with backend(kernel), obs.collecting() as reg:
            count_kcliques(g, 4, o)
        calls[kernel] = _kernel_calls(reg)
    ref = KERNEL_NAMES[0]
    for kernel in KERNEL_NAMES[1:]:
        assert calls[ref] == calls[kernel], kernel
    # The engine did touch the kernel contract on any non-trivial graph.
    for kernel in KERNEL_NAMES:
        assert sum(calls[kernel].values()) > 0


def test_kernel_call_counts_enumeration_backend_invariant():
    # The enumeration engine only uses the single-row ops, so its call
    # counts stay identical across every backend.
    name, g = GRAPHS[7]
    o = ordering(name, g)
    calls = {}
    for kernel in KERNEL_NAMES:
        with backend(kernel), obs.collecting() as reg:
            count_kcliques_enumeration(g, 4, o)
        calls[kernel] = _kernel_calls(reg)
    for kernel in KERNEL_NAMES[1:]:
        assert calls[KERNEL_NAMES[0]] == calls[kernel]
    assert calls[KERNEL_NAMES[0]]["intersect_count"] > 0
    assert calls[KERNEL_NAMES[0]]["pivot_select"] == 0


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("k", [4, None])
def test_memo_lookups_cover_block_roots_only(kernel, k):
    # Every root induced in a multi-root block (d <= 64) is looked up
    # exactly once, hit or miss; the 66-clique's widest root is induced
    # alone in row passes and never looked up.
    g = overlay(300, complete_graph(66), erdos_renyi(300, 0.03, seed=5))
    dag = directionalize(g, core_ordering(g))
    with backend(kernel), obs.collecting() as reg:
        engine = SCTEngine(g, dag)
        if k is None:
            engine.count_all()
        else:
            engine.count(k)
    d = dag.degrees
    built = d if k is None else d[~((d > 0) & (d < k - 1))]
    assert (built > 64).sum() >= 1
    labels = {"engine": "sct", "structure": "remap", "kernel": "bigint"}
    hits = reg.value("sct_memo_hits_total", **labels)
    misses = reg.value("sct_memo_misses_total", **labels)
    assert hits > 0 and misses > 0
    assert hits + misses == (built <= 64).sum()


# ======================================================================
# 2b. registry totals == controller budget meter, over every root loop
# ======================================================================
def _edit_batch(g, o):
    # Toggle the pairs among the first four vertices: a batch that
    # dirties a handful of roots whatever the graph.
    forest = build_forest(g, o)
    edits = [("-" if g.has_edge(u, v) else "+", u, v)
             for u, v in ((0, 1), (0, 2), (1, 3), (2, 3))]
    return lambda ctl: forest.copy().apply_edits(
        edits, controller=ctl).counters


def _profiles(g, o, controller):
    # Profiles take no controller; hand one to the attribution loop.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profiles, "walk_roots",
                   partial(profiles.walk_roots, controller=controller))
        per_vertex_profiles(g, o)


#: Every serial root loop: a set-up (not observed) returning the run
#: under a controller, which returns its Counters where it has them.
ROOT_LOOPS = {
    "count": lambda g, o: lambda ctl: count_kcliques(
        g, 4, o, controller=ctl).counters,
    "count_all": lambda g, o: lambda ctl: SCTEngine(g, o).count_all(
        controller=ctl).counters,
    "forest": lambda g, o: lambda ctl: build_forest(
        g, o, controller=ctl).counters,
    "apply_edits": _edit_batch,
    "per_vertex": lambda g, o: lambda ctl: per_vertex_counts(
        g, 4, o, controller=ctl) and None,
    "per_edge": lambda g, o: lambda ctl: per_edge_counts(
        g, 3, o, controller=ctl) and None,
    "profiles": lambda g, o: lambda ctl: _profiles(g, o, ctl),
    "enumeration": lambda g, o: lambda ctl: count_kcliques_enumeration(
        g, 4, o, controller=ctl).counters,
}


@pytest.mark.parametrize("name,g,loop", [
    # The SCT count keeps the bare graph ids this test had before it
    # covered every loop.
    pytest.param(name, g, loop, id=i if loop == "count" else f"{i}-{loop}")
    for (name, g), i in zip(GRAPHS[::4], IDS[::4])
    for loop in sorted(ROOT_LOOPS)
])
def test_nodes_visited_matches_controller_spent(name, g, loop):
    go = ROOT_LOOPS[loop](g, ordering(name, g))
    with obs.collecting() as reg:
        ctl = RunController()
        counters = go(ctl)
    nodes = reg.total("engine_nodes_visited_total")
    if counters is not None:
        assert nodes == counters.function_calls
    assert nodes == ctl.spent.nodes
    # guard() mirrored the meter into the runtime gauges on exit.
    assert reg.value("runtime_nodes_spent") == ctl.spent.nodes
    assert reg.value("runtime_roots_done") == ctl.spent.roots_done
    assert (
        reg.value("runtime_peak_memory_bytes")
        == ctl.spent.peak_memory_bytes
    )


@pytest.mark.parametrize("loop", sorted(ROOT_LOOPS))
def test_roots_total_matches_controller_roots_done(loop):
    name, g = GRAPHS[5]
    go = ROOT_LOOPS[loop](g, ordering(name, g))
    with obs.collecting() as reg:
        ctl = RunController()
        go(ctl)
    assert reg.total("engine_roots_total") == ctl.spent.roots_done > 0


def test_checkpoint_writes_counted(tmp_path):
    name, g = GRAPHS[6]
    with obs.collecting() as reg:
        ctl = RunController(
            checkpoint_path=tmp_path / "ck.json", checkpoint_every=4
        )
        count_kcliques(g, 4, ordering(name, g), controller=ctl)
    complete = reg.value("runtime_checkpoint_writes_total", kind="complete")
    progress = reg.value("runtime_checkpoint_writes_total", kind="progress")
    assert complete == 1  # the guard's final save
    assert progress == g.num_vertices // 4  # one autosave per 4 roots


@pytest.mark.parametrize("loop", sorted(ROOT_LOOPS))
def test_budget_abort_still_publishes_partial_totals(loop):
    g = erdos_renyi(40, 0.3, seed=11)
    go = ROOT_LOOPS[loop](g, core_ordering(g))
    with obs.collecting() as reg:
        ctl = RunController(Budget(max_nodes=50))
        with pytest.raises(NodeBudgetExceededError):
            go(ctl)
    # The loop's `finally` published what was actually done before the
    # abort; the controller additionally charged the overflowing root,
    # which the loop metered before folding it, so its meter is above
    # the loop's published total.
    published = reg.total("engine_nodes_visited_total")
    assert 0 < published < ctl.spent.nodes


# ======================================================================
# 2c. forest cache and query accounting
# ======================================================================
def test_forest_cache_hits_plus_misses_equals_calls():
    g = erdos_renyi(30, 0.3, seed=97531)  # unique seed: cold cache
    o = core_ordering(g)
    with obs.collecting() as reg:
        calls = 0
        get_forest(g, o); calls += 1          # miss (cold)
        get_forest(g, o); calls += 1          # hit
        get_forest(g, o); calls += 1          # hit
        get_forest(g, o, cache=False); calls += 1  # forced miss
        hits = reg.value("forest_cache_hits_total")
        misses = reg.value("forest_cache_misses_total")
    assert hits + misses == calls
    assert hits == 2
    assert misses == 2


def test_forest_query_counters_per_query():
    name, g = GRAPHS[8]
    o = ordering(name, g)
    forest = build_forest(g, o)
    with obs.collecting() as reg:
        forest.count(3)
        forest.count(4)
        forest.count_all()
        forest.max_clique_size()
        forest.per_vertex(3)
        forest.per_edge(3)
    # per_vertex internally cross-checks through count(k), so the
    # "count" cell sees the two direct queries plus that internal one.
    assert reg.value("forest_queries_total", query="count") == 3
    assert reg.value("forest_queries_total", query="count_all") == 1
    assert reg.value("forest_queries_total", query="max_clique_size") == 1
    assert reg.value("forest_queries_total", query="per_vertex") == 1
    assert reg.value("forest_queries_total", query="per_edge") == 1


def test_forest_build_records_model_gauges():
    name, g = GRAPHS[9]
    with obs.collecting() as reg:
        forest = build_forest(g, ordering(name, g))
    assert reg.value("forest_leaves") == forest.num_leaves
    assert reg.value("forest_model_bytes") > 0
    assert reg.total("engine_runs_total") == 1


# ======================================================================
# 2d. ordering / stats tallies migrated onto the registry
# ======================================================================
@pytest.mark.parametrize("factory,name", [
    (core_ordering, "core"),
    (degree_ordering, "degree"),
])
def test_ordering_metrics_match_cost(factory, name):
    _, g = GRAPHS[10]
    with obs.collecting() as reg:
        o = factory(g)
    assert reg.value("ordering_computed_total", ordering=o.name) == 1
    assert (
        reg.value("ordering_rounds_total", ordering=o.name)
        == o.cost.num_rounds
    )
    assert (
        reg.value("ordering_work_units_total", ordering=o.name)
        == o.cost.total_work
    )
    assert (
        reg.value("ordering_num_vertices", ordering=o.name)
        == o.num_vertices
    )


def test_ordering_unchanged_by_observation():
    _, g = GRAPHS[11]
    base = core_ordering(g)
    with obs.collecting():
        observed = core_ordering(g)
    assert np.array_equal(base.rank, observed.rank)
    assert base.cost == observed.cost


def test_stats_heuristic_metrics_and_invariance():
    _, g = GRAPHS[12]
    base = heuristic_inputs(g)
    with obs.collecting() as reg:
        observed = heuristic_inputs(g)
        heuristic_inputs(g)
    assert observed == base
    assert reg.value("stats_heuristic_evals_total") == 2
    assert reg.value("stats_heuristic_work_total") > 0


def test_stats_triangle_metrics_match_truth():
    name, g = GRAPHS[13]
    with obs.collecting() as reg:
        total = count_triangles(g)
    assert total == truth(name, g, 3)
    assert reg.value("stats_triangles_found_total") == total
    assert reg.value("stats_triangle_scans_total") == g.num_edges


# ======================================================================
# 3. the plumbing: registry semantics
# ======================================================================
def test_counter_label_order_insensitive():
    reg = MetricsRegistry()
    reg.counter("x_total", a="1", b="2").inc(3)
    reg.counter("x_total", b="2", a="1").inc(4)
    assert reg.value("x_total", a="1", b="2") == 7
    assert len(reg) == 1


def test_total_sums_across_labels():
    reg = MetricsRegistry()
    reg.counter("x_total", k="a").inc(5)
    reg.counter("x_total", k="b").inc(7)
    reg.counter("y_total").inc(100)
    assert reg.total("x_total") == 12
    assert reg.value("x_total", k="a") == 5
    assert reg.value("x_total", k="missing") == 0


def test_counter_big_integers_stay_exact():
    reg = MetricsRegistry()
    big = (1 << 70) + 1
    reg.counter("x_total").inc(big)
    reg.counter("x_total").inc(1)
    assert reg.value("x_total") == big + 1  # no float rounding


def test_gauge_set_and_max():
    reg = MetricsRegistry()
    gauge = reg.gauge("g")
    gauge.set(10)
    gauge.max(5)
    assert reg.value("g") == 10
    gauge.max(20)
    assert reg.value("g") == 20


def test_histogram_buckets_and_moments():
    reg = MetricsRegistry()
    h = reg.histogram("h")
    for v in (0, 1, 2, 3, 100):
        h.observe(v)
    assert h.count == 5
    assert h.sum == 106
    assert h.min == 0 and h.max == 100
    assert h.mean == pytest.approx(106 / 5)
    assert sum(h.buckets.values()) == 5


def test_disabled_registry_hands_out_noop():
    reg = MetricsRegistry(enabled=False)
    assert reg.counter("x") is NOOP_METRIC
    assert reg.gauge("x") is NOOP_METRIC
    assert reg.histogram("x") is NOOP_METRIC
    reg.counter("x").inc(5)
    assert len(reg) == 0
    assert reg.value("x") == 0


def test_registry_reset_keeps_enabled_flag():
    reg = MetricsRegistry()
    reg.counter("x").inc()
    reg.reset()
    assert len(reg) == 0
    assert reg.enabled


def test_record_counters_catalog_mapping():
    reg = MetricsRegistry()
    c = Counters(function_calls=7, leaves=3, set_op_words=10.5,
                 index_lookups=2.4, subgraph_builds=2, build_words=5.0,
                 early_terminations=1, max_depth=4,
                 peak_subgraph_bytes=128)
    reg.record_counters(c, engine="sct")
    d = c.as_dict()
    for field, metric in COUNTER_METRICS.items():
        assert reg.value(metric, engine="sct") == d[field]
    assert reg.value("engine_max_depth", engine="sct") == 4
    assert reg.value("engine_peak_subgraph_bytes", engine="sct") == 128
    assert reg.value("engine_runs_total", engine="sct") == 1
    assert reg.value("engine_work_units_total", engine="sct") == c.work


def test_counters_publish_method_routes_to_registry():
    with obs.collecting() as reg:
        Counters(function_calls=9).publish(engine="test")
    assert reg.value("engine_nodes_visited_total", engine="test") == 9


def test_as_dict_and_write_json_roundtrip(tmp_path):
    reg = MetricsRegistry()
    reg.counter("x_total", k="a").inc(3)
    reg.gauge("g").set(7)
    reg.histogram("h").observe(2)
    path = tmp_path / "metrics.json"
    reg.write_json(path)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(reg.as_dict()))
    assert loaded["counters"][0] == {
        "name": "x_total", "labels": {"k": "a"}, "value": 3,
    }
    assert loaded["gauges"][0]["value"] == 7
    assert loaded["histograms"][0]["count"] == 1


# ======================================================================
# 3b. global state and scoping
# ======================================================================
def test_global_default_is_disabled():
    assert not obs.enabled()
    assert not obs.get_tracer().enabled
    assert not obs.get_profiler().enabled


def test_collecting_scopes_and_restores():
    before = obs.get_registry()
    with obs.collecting() as reg:
        assert obs.get_registry() is reg
        assert obs.enabled()
    assert obs.get_registry() is before
    assert not obs.enabled()


def test_collecting_restores_on_exception():
    before = obs.get_registry()
    with pytest.raises(RuntimeError):
        with obs.collecting():
            raise RuntimeError("boom")
    assert obs.get_registry() is before
    assert not obs.enabled()


def test_enable_disable_global():
    obs.enable(trace=True, profile=True)
    try:
        assert obs.enabled()
        assert obs.get_tracer().enabled
        assert obs.get_profiler().enabled
    finally:
        obs.disable()
    assert not obs.enabled()
    assert not obs.get_tracer().enabled
    assert not obs.get_profiler().enabled
    obs.get_registry().reset()
    obs.get_tracer().reset()
    obs.get_profiler().reset()


def test_hooks_are_noops_when_disabled():
    obs.record_run(Counters(function_calls=3), engine="x", structure="y",
                   kernel="z", roots=1)
    obs.degradation("sampling")
    obs.checkpoint_write(complete=True)
    obs.record_ordering(core_ordering(GRAPHS[0][1]))
    assert len(obs.get_registry()) == 0
    assert obs.get_tracer().records == []


# ======================================================================
# 3c. kernel call counts, derived once per root loop
# ======================================================================
def test_kernel_calls_unpublished_when_disabled():
    # Metrics off: no tally is kept and nothing reaches the registry.
    assert obs.kernel_tally() is None
    g = erdos_renyi(40, 0.3, seed=1)
    dag = directionalize(g, core_ordering(g))
    SCTEngine(g, dag).count(4)
    build_forest(g, dag)
    assert len(obs.get_registry()) == 0
    with obs.collecting():
        assert obs.kernel_tally() == [0, 0, 0, 0]


def test_kernel_calls_independent_of_construction_time():
    # The counts are published by the root loop into whichever
    # registry is live when it runs, so an engine built outside a
    # metrics scope reports exactly what one built inside does — and
    # its forest, built through a fresh structure, reports the calls
    # of its own walk.
    g = erdos_renyi(60, 0.3, seed=1)
    dag = directionalize(g, core_ordering(g))
    outside = SCTEngine(g, dag)
    with obs.collecting() as reg_in:
        SCTEngine(g, dag).count(4)
    with obs.collecting() as reg_out:
        outside.count(4)
    assert _kernel_calls(reg_out) == _kernel_calls(reg_in)
    assert _kernel_calls(reg_in)["pivot_select"] > 0
    assert (reg_out.total("engine_nodes_visited_total")
            == reg_in.total("engine_nodes_visited_total"))
    with obs.collecting() as reg_forest:
        outside.forest(cache=False)
    with obs.collecting() as reg_build:
        build_forest(g, dag)
    assert _kernel_calls(reg_forest) == _kernel_calls(reg_build)
    assert _kernel_calls(reg_forest)["pivot_select"] > 0


# ======================================================================
# 3d. profiler
# ======================================================================
def test_profiler_accumulates_same_name_phases():
    prof = Profiler(enabled=True)
    for _ in range(3):
        with prof.phase("counting"):
            pass
    assert prof.phases["counting"].calls == 3
    assert prof.phases["counting"].wall_seconds >= 0.0


def test_profiler_note_memory_updates_active_phases():
    prof = Profiler(enabled=True)
    with prof.phase("outer"):
        with prof.phase("inner"):
            prof.note_memory(512)
        prof.note_memory(128)
    assert prof.phases["inner"].peak_memory_bytes == 512
    assert prof.phases["outer"].peak_memory_bytes == 512


def test_profiler_disabled_records_nothing():
    prof = Profiler(enabled=False)
    with prof.phase("counting"):
        prof.note_memory(1024)
    assert prof.phases == {}


def test_profile_end_to_end_counting_phase():
    name, g = GRAPHS[14]
    with obs.collecting(profile=True):
        count_kcliques(g, 4, ordering(name, g))
        prof = obs.get_profiler()
        assert prof.phases["counting"].calls == 1
        assert prof.phases["counting"].peak_memory_bytes > 0
        lines = prof.summary_lines()
    assert any("counting" in line for line in lines)


# ======================================================================
# 3e. bench-harness bridges
# ======================================================================
def test_run_with_metrics_returns_detached_registry():
    name, g = GRAPHS[15]
    o = ordering(name, g)
    r, reg = run_with_metrics(count_kcliques, g, 4, o)
    assert r.count == truth(name, g, 4)
    assert reg.total("engine_nodes_visited_total") == r.counters.function_calls
    assert not obs.enabled()  # global default untouched
    assert obs.get_registry() is not reg


def test_metrics_summary_lines_mention_canonical_names():
    name, g = GRAPHS[16]
    _, reg = run_with_metrics(count_kcliques, g, 4, ordering(name, g))
    lines = metrics_summary_lines(reg)
    assert any("engine_nodes_visited_total" in line for line in lines)
    assert any("kernel_calls_total" in line for line in lines)


def test_write_json_artifact_embeds_registry(tmp_path):
    name, g = GRAPHS[17]
    _, reg = run_with_metrics(count_kcliques, g, 4, ordering(name, g))
    path = write_json_artifact(
        tmp_path / "bench.json", {"result": 1}, registry=reg
    )
    loaded = json.loads(path.read_text())
    assert loaded["metrics"] == json.loads(json.dumps(reg.as_dict()))
    assert loaded["result"] == 1
