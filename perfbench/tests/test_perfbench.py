"""Tests of the benchmark itself (not of the program).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


# -- inputs ------------------------------------------------------------------
def _stream_digest(seed):
    e, n = inputs.sparse_wide_graph(seed, 0, 500)
    return inputs.stream_digest(inputs.mirror_stream(
        inputs.edit_batches(seed, e, n, 4)))


@pytest.mark.parametrize("make", [
    lambda s: inputs.digest(inputs.clique_rich_graph(s, 0)[0]),
    lambda s: inputs.digest(inputs.sparse_wide_graph(s, 1, 2000)[0]),
    _stream_digest,
])
def test_same_seed_same_digest_other_seed_other_digest(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_graphs_of_one_run_differ():
    a = inputs.digest(inputs.clique_rich_graph(7, 0)[0])
    b = inputs.digest(inputs.clique_rich_graph(7, 1)[0])
    assert a != b


def test_stream_edits_are_valid_and_cycle_back():
    e, n = inputs.sparse_wide_graph(3, 0, 800)
    start = {tuple(r) for r in inputs.canonical_edges(e).tolist()}
    present = set(start)
    stream = inputs.mirror_stream(inputs.edit_batches(3, e, n, 5))
    assert len(stream) == 10
    for batch in stream:
        pairs = [(u, v) for _, u, v in batch]
        assert len(set(pairs)) == len(pairs) == 32
        for op, u, v in batch:
            assert u < v and ((u, v) in present) == (op == "-")
        for op, u, v in batch:
            (present.add if op == "+" else present.discard)((u, v))
    assert present == start


# -- reference answers ---------------------------------------------------------
def _nx_count(e, n, k):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(e.tolist())
    return sum(1 for c in nx.enumerate_all_cliques(g) if len(c) == k)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_reference_count_matches_networkx(k):
    e, n = inputs.sparse_wide_graph(5, 0, 400)
    e = np.concatenate((e, inputs._clique_edges(np.arange(7))))
    assert reference.count_kcliques(e, n, k) == _nx_count(e, n, k)


def test_stream_counter_matches_recount():
    e, n = inputs.sparse_wide_graph(9, 0, 300)
    counter = reference.StreamCounter(e, n)
    edges = {tuple(r) for r in inputs.canonical_edges(e).tolist()}
    for batch in inputs.edit_batches(9, e, n, 3):
        counter.apply(batch)
        for op, u, v in batch:
            (edges.add if op == "+" else edges.discard)((u, v))
    arr = np.array(sorted(edges))
    assert counter.counts[2] == len(edges)
    assert counter.counts[3] == _nx_count(arr, n, 3)
    assert counter.counts[4] == _nx_count(arr, n, 4)


# -- timing arithmetic -----------------------------------------------------------
def test_normalization_rescales_by_nominal_over_observed():
    slow = [2 * timing.NOMINAL_ITER_S] * 3
    assert timing.normalize(0.5, slow) == pytest.approx(0.25)
    s = timing.Sample(0.5, [timing.NOMINAL_ITER_S, 3 * timing.NOMINAL_ITER_S])
    assert s.norm_s == pytest.approx(0.25)
    assert s.factor == pytest.approx(0.5)


def test_timed_excludes_in_call_samples_from_the_call_time():
    import time

    out, s = timing.timed(time.sleep, 0.05)
    assert out is None
    assert len(s.iter_times_s) >= 3  # before, >= 1 during, after
    assert 0.045 < s.wall_s < 0.2


@pytest.mark.parametrize("n,p,value", [(20, 50, 10), (100, 90, 90),
                                       (11, 9, 1), (37, 72, 27)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p, value):
    xs = list(range(1, n + 1))[::-1]
    assert timing.tail_percentile(xs) == (p, value)


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(ValueError):
        timing.tail_percentile(range(10))


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("op", 0) as op:
        with tr.span("a", 0) as a:
            pass
        with tr.span("b", 0) as b:
            pass
    assert tr.self_time(op) == pytest.approx(
        op.duration - a.duration - b.duration)
    assert tr.self_time(a) == pytest.approx(a.duration)


# -- correctness accounting ---------------------------------------------------------
class _Tiny(workloads.SparseWide):
    """sparse-wide's op on 300-vertex graphs, fast enough for a test."""

    def _recipe(self, index):
        return inputs.sparse_wide_graph(self.seed, index, 300)


class _OffByOne(_Tiny):
    def op(self, i):
        out = super().op(i)
        out.count += 1
        return out


@pytest.mark.parametrize("cls,bad", [(_Tiny, False), (_OffByOne, True)])
def test_planted_wrong_result_drives_error_rate_up(monkeypatch, cls, bad):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", cls)
    monkeypatch.setitem(bench.WORKLOADS, "tiny", cls)
    raw = bench.measure("tiny", 1, 0.0, False, log=lambda _: None)
    assert raw["attempted"] >= bench.MIN_OPS
    assert (raw["failed"] == raw["attempted"]) if bad else raw["failed"] == 0


@pytest.mark.parametrize("cls", [_Tiny, workloads.EdgeStream])
def test_traced_counts_repeat_exactly(monkeypatch, tmp_path, cls):
    """Two traced runs of one seed, of different lengths, report the
    same exact counts."""
    monkeypatch.setattr(workloads, "SPARSE_VERTICES", 400)
    monkeypatch.setitem(bench.WORKLOADS, "tiny", cls)
    monkeypatch.setattr(bench, "TRACE_DIR", tmp_path)
    runs = [bench.measure("tiny", 2, seconds, True, log=lambda _: None)
            for seconds in (0.0, 1.0)]
    assert all(r["failed"] == 0 for r in runs)
    assert runs[0]["attempted"] < runs[1]["attempted"]
    layers = [{**r["layers"], **r["extra"]} for r in runs]
    counts = [k for k, unit in bench.PER_LAYER.items()
              if unit in ("count", "bytes") and k in layers[0]]
    assert "sct.nodes" in counts and "kernels.calls.pivot_select" in counts
    assert [layers[0][k] for k in counts] == [layers[1][k] for k in counts]
    assert (tmp_path / "trace-tiny-seed2.jsonl").is_file()


class _WrongStream(workloads.EdgeStream):
    def read(self):
        per_vertex, per_edge = super().read()
        return [c + 1 for c in per_vertex], per_edge


def test_planted_wrong_stream_read_is_caught(monkeypatch):
    monkeypatch.setattr(workloads, "SPARSE_VERTICES", 400)
    monkeypatch.setitem(bench.WORKLOADS, "tiny-stream", _WrongStream)
    raw = bench.measure("tiny-stream", 1, 0.0, False, log=lambda _: None)
    assert raw["failed"] == raw["attempted"] > 0


# -- the command against BENCHMARK.json ------------------------------------------
def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_the_code():
    spec = _spec()
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench.PER_LAYER


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_with_its_unit(trace, key):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edge-stream",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in _spec()[key]}


def test_command_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and perfbench/."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clique-rich",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
