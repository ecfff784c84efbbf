"""The SCT pivot recursion: correctness against oracles and closed forms."""

import math

import numpy as np
import pytest

from repro.counting import (
    CountResult,
    SCTEngine,
    brute_force_all_sizes,
    brute_force_count,
    count_all_sizes,
    count_kcliques,
)
from repro.errors import CountingError
from repro.graph.build import from_edge_list
from repro.graph.generators import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    path_graph,
    star_graph,
    turan_graph,
)
from repro.ordering import core_ordering, degree_ordering, directionalize


# ----------------------------------------------------------- closed forms
def test_complete_graph_counts():
    g = complete_graph(10)
    o = core_ordering(g)
    for k in range(1, 11):
        assert count_kcliques(g, k, o).count == math.comb(10, k)


def test_k1_is_vertex_count():
    g = erdos_renyi(30, 0.2, seed=1)
    assert count_kcliques(g, 1, core_ordering(g)).count == 30


def test_k2_is_edge_count():
    g = erdos_renyi(30, 0.2, seed=2)
    assert count_kcliques(g, 2, core_ordering(g)).count == g.num_edges


def test_k_larger_than_graph():
    g = complete_graph(4)
    assert count_kcliques(g, 5, core_ordering(g)).count == 0


def test_turan_graph_zero():
    t = turan_graph(12, 4)
    assert count_kcliques(t, 5, core_ordering(t)).count == 0


def test_multipartite_elementary_symmetric():
    # k-cliques of a complete multipartite graph = e_k(part sizes).
    sizes = [2, 3, 4]
    g = complete_multipartite(sizes)
    o = core_ordering(g)
    # e_1 = 9, e_2 = 2*3+2*4+3*4 = 26, e_3 = 24.
    assert count_kcliques(g, 1, o).count == 9
    assert count_kcliques(g, 2, o).count == 26
    assert count_kcliques(g, 3, o).count == 24
    assert count_kcliques(g, 4, o).count == 0


def test_star_and_path_no_triangles():
    for g in (star_graph(6), path_graph(7), cycle_graph(8)):
        assert count_kcliques(g, 3, core_ordering(g)).count == 0


def test_empty_graph():
    g = empty_graph(5)
    o = core_ordering(g)
    assert count_kcliques(g, 1, o).count == 5
    assert count_kcliques(g, 2, o).count == 0


def test_zero_vertex_graph():
    g = empty_graph(0)
    assert count_kcliques(g, 1, core_ordering(g)).count == 0


# ------------------------------------------------------------ brute force
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p", [0.25, 0.55])
def test_random_graphs_match_brute_force(seed, p):
    g = erdos_renyi(13, p, seed=seed)
    o = core_ordering(g)
    for k in range(1, 10):
        assert count_kcliques(g, k, o).count == brute_force_count(g, k)


def test_all_structures_agree(small_suite):
    for g in small_suite:
        o = core_ordering(g)
        for k in (2, 3, 4):
            counts = {
                s: count_kcliques(g, k, o, structure=s).count
                for s in ("dense", "sparse", "remap")
            }
            assert len(set(counts.values())) == 1, counts


def test_all_orderings_agree():
    g = erdos_renyi(40, 0.3, seed=7)
    ref = count_kcliques(g, 4, core_ordering(g)).count
    assert count_kcliques(g, 4, degree_ordering(g)).count == ref
    rng = np.random.default_rng(0)
    from repro.ordering.base import Ordering

    rand = Ordering(name="random", rank=rng.permutation(40))
    assert count_kcliques(g, 4, rand).count == ref


# ----------------------------------------------------------------- all-k
def test_all_k_matches_brute_force(small_suite):
    for g in small_suite:
        got = count_all_sizes(g, core_ordering(g)).all_counts
        assert got == brute_force_all_sizes(g)


def test_all_k_consistent_with_single_k():
    g = erdos_renyi(35, 0.3, seed=8)
    o = core_ordering(g)
    dist = count_all_sizes(g, o).all_counts
    for k in range(1, len(dist)):
        assert count_kcliques(g, k, o).count == dist[k]


def test_all_k_max_k_truncation():
    g = complete_graph(8)
    r = count_all_sizes(g, core_ordering(g), max_k=3)
    assert len(r.all_counts) == 4
    assert r.all_counts[3] == math.comb(8, 3)


def test_max_clique_size_property():
    g = complete_graph(6)
    r = count_all_sizes(g, core_ordering(g))
    assert r.max_clique_size == 6
    r2 = count_kcliques(g, 3, core_ordering(g))
    with pytest.raises(CountingError):
        _ = r2.max_clique_size


# ------------------------------------------------------------- API shape
def test_engine_accepts_dag_directly():
    g = erdos_renyi(25, 0.3, seed=9)
    o = core_ordering(g)
    dag = directionalize(g, o)
    assert SCTEngine(g, dag).count(3).count == count_kcliques(g, 3, o).count


def test_engine_accepts_rank_array():
    g = erdos_renyi(25, 0.3, seed=9)
    o = core_ordering(g)
    assert (
        SCTEngine(g, o.rank).count(3).count
        == count_kcliques(g, 3, o).count
    )


def test_invalid_k():
    g = complete_graph(4)
    with pytest.raises(CountingError):
        count_kcliques(g, 0, core_ordering(g))


def test_count_root_rejects_missing_roots_and_bad_k():
    # A root outside [0, n) and k < 1 raise CountingError, as in
    # count_roots, instead of counting a wrapped-around vertex, an
    # empty answer or a raw IndexError.
    g = erdos_renyi(40, 0.3, seed=1)
    engine = SCTEngine(g, core_ordering(g))
    for v in (-1, 40):
        with pytest.raises(CountingError, match="out of range"):
            engine.count_root(v, 3)
        with pytest.raises(CountingError, match="out of range"):
            engine.count_root_all(v)
        with pytest.raises(CountingError, match="out of range"):
            engine.count_roots([v], 3)
    for k in (0, -2):
        with pytest.raises(CountingError, match="k must be >= 1"):
            engine.count_root(0, k)
    total = sum(engine.count_root(v, 3) for v in range(40))
    assert total == engine.count(3).count
    row = [0] * len(engine.count_all().all_counts)
    for v in range(40):
        for s, c in enumerate(engine.count_root_all(v)):
            if c:
                row[s] += c
    assert row == engine.count_all().all_counts


def test_directed_input_rejected():
    g = complete_graph(4)
    dag = directionalize(g, core_ordering(g))
    with pytest.raises(CountingError):
        SCTEngine(dag, core_ordering(g))
    with pytest.raises(CountingError):
        SCTEngine(g, g)  # second undirected graph is not a DAG


def test_unknown_structure():
    g = complete_graph(4)
    with pytest.raises(CountingError, match="unknown structure"):
        SCTEngine(g, core_ordering(g), structure="btree")


def test_result_metadata():
    g = erdos_renyi(20, 0.3, seed=10)
    r = count_kcliques(g, 3, core_ordering(g), structure="sparse")
    assert isinstance(r, CountResult)
    assert r.k == 3
    assert r.structure == "sparse"
    assert r.per_root_work.shape == (20,)
    assert r.counters.function_calls >= 20  # at least one call per root
    assert r.counters.subgraph_builds == 20


def test_per_root_work_sums_to_total():
    g = erdos_renyi(20, 0.3, seed=11)
    r = count_kcliques(g, 4, core_ordering(g))
    assert r.per_root_work.sum() == pytest.approx(r.counters.work)


def test_early_termination_fires():
    # With k far above reach, nearly everything prunes.
    g = erdos_renyi(30, 0.2, seed=12)
    r = count_kcliques(g, 10, core_ordering(g))
    assert r.count == 0
    assert r.counters.early_terminations > 0


def test_max_depth_bounded_by_largest_clique():
    g = complete_graph(9)
    r = count_all_sizes(g, core_ordering(g))
    assert r.counters.max_depth == 9


def test_disconnected_graph():
    # Two disjoint K4s.
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a + 4, b + 4) for a in range(4) for b in range(a + 1, 4)]
    g = from_edge_list(edges)
    assert count_kcliques(g, 4, core_ordering(g)).count == 2
    assert count_kcliques(g, 3, core_ordering(g)).count == 8
