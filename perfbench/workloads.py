"""The four workloads: inputs, set-up, the timed op, its check, and the
traced replay of the op as its sequence of public layer calls.

Each workload draws its inputs from the seed (:mod:`inputs`), computes
reference answers with a different algorithm (:mod:`reference`), and
then serves one closed-loop client: op ``i`` runs on input
``i mod cycle``.  Nothing here imports the program until
:meth:`Workload.setup`, which is timed as the program's set-up.
"""

from __future__ import annotations

import numpy as np

import inputs
import reference
from timing import Sample, peak_rss_mb, timed

#: Graphs drawn per run; the client cycles through them.
GRAPHS_PER_RUN = 9
#: Paper-scale |V| handed to the Sec. III-E heuristic on sparse-wide,
#: so it takes the approx-core branch as it would at full size.
PAPER_SCALE_VERTICES = 4.0e6
#: Consecutive edit batches of the edge stream; the stream then undoes
#: them in reverse, so one cycle is twice this many ops (a run uses
#: fewer than this many).
STREAM_BATCHES = 120
SPARSE_VERTICES = 10_000
POOL_PROCESSES = 2

#: Exact counters read from the program's registry per traced op.
_REGISTRY_COUNTS = {
    "ordering.rounds": "ordering_rounds_total",
    "ordering.work_units": "ordering_work_units_total",
    "sct.nodes": "engine_nodes_visited_total",
    "sct.leaves": "engine_leaves_total",
    "sct.early_exits": "engine_early_exits_total",
    "sct.set_op_words": "engine_set_op_words_total",
}
KERNEL_OPS = (
    "alloc_rows", "set_row", "load_rows", "intersect", "intersect_count",
    "count_rows", "pivot_select", "intersect_count_sweep",
    "pivot_select_sweep", "expand_children",
)


def _kernel_calls(reg) -> dict[str, int]:
    calls = dict.fromkeys(KERNEL_OPS, 0)
    for m in reg.collect():
        if m.name == "kernel_calls_total":
            op = dict(m.labels)["op"]
            calls[op] = calls.get(op, 0) + m.value
    return calls


def _registry_counts(reg, calls_before=None) -> dict:
    """An op's exact counters from its registry scope; kernel calls
    counted since ``calls_before`` when given."""
    calls = _kernel_calls(reg)
    before = calls_before or dict.fromkeys(KERNEL_OPS, 0)
    out = {m: reg.total(c) for m, c in _REGISTRY_COUNTS.items()}
    out.update({f"kernels.calls.{op}": calls[op] - before[op]
                for op in KERNEL_OPS})
    return out


class Workload:
    """Base: subclasses fill in the inputs, the op and its check."""

    name = ""
    cycle = 1
    #: traced ops whose exact counters are reported (a fixed prefix, so
    #: two traced runs of one seed report identical counts)
    count_window = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.digests: list[str] = []

    # -- untimed --------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def compute_references(self) -> None:
        raise NotImplementedError

    # -- timed set-up ---------------------------------------------------
    def setup(self, clock) -> None:
        """Import the program and build every input, timing each part
        with ``clock(name, fn)``."""
        def do_import():
            import repro  # noqa: F401 - the import is what is timed

        clock("import", do_import)
        from repro import from_edge_array

        self.graphs = clock("csr_build", lambda: [
            from_edge_array(e, num_vertices=n) for e, n in self.edges
        ])

    def setup_metrics(self) -> dict:
        """Per-layer values the set-up itself determines."""
        return {}

    # -- ops --------------------------------------------------------------
    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def timed_op(self, i: int) -> tuple[bool, list[Sample]]:
        """Run op ``i`` timed, check it untimed; ``(ok, samples)``."""
        out, s = timed(self.op, i)
        return self.check(i, out), [s]

    def traced_op(self, i: int, tr, op_id: int) -> tuple[object, dict]:
        """Replay op ``i`` as layer calls under ``tr``; return the output
        and the op's per-layer values (raw seconds and exact counts)."""
        raise NotImplementedError

    def describe_inputs(self) -> list[str]:
        return [f"{self.name}[{j}] n={n} m={len(e)} digest={d}"
                for j, ((e, n), d) in enumerate(zip(self.edges, self.digests))]


class CountingWorkload(Workload):
    """``count_cliques(g, k)`` over a cycle of seeded graphs."""

    processes: int | None = None
    config_kwargs: dict = {}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cycle = self.count_window = GRAPHS_PER_RUN

    def _recipe(self, index: int):
        raise NotImplementedError

    def generate(self) -> None:
        self.edges = [self._recipe(j) for j in range(self.cycle)]
        self.digests = [inputs.digest(e) for e, _ in self.edges]

    def compute_references(self) -> None:
        self.expected = [reference.count_kcliques(e, n, self.k)
                         for e, n in self.edges]

    def setup(self, clock) -> None:
        super().setup(clock)
        from repro import PivotScaleConfig

        self.config = PivotScaleConfig(processes=self.processes,
                                       **self.config_kwargs)

    def op(self, i: int):
        from repro import count_cliques

        return count_cliques(self.graphs[i % self.cycle], self.k, self.config)

    def check(self, i: int, out) -> bool:
        # Traced ops return count_roots' batch result, which is never
        # approximate.
        return (not getattr(out, "approximate", False)
                and out.count == self.expected[i % self.cycle])

    # -- traced replay ----------------------------------------------------
    def _ordering(self, g, tr, op_id):
        from repro.ordering.directionalize import directionalize
        from repro.ordering.heuristic import compute_ordering, select_ordering

        cfg = self.config
        with tr.span("ordering.select", op_id):
            decision = select_ordering(
                g, cfg.heuristic,
                effective_num_vertices=cfg.effective_num_vertices)
        with tr.span("ordering.compute", op_id):
            ordering = compute_ordering(g, decision, cfg.heuristic)
        with tr.span("ordering.directionalize", op_id):
            dag = directionalize(g, ordering)
        return ordering, dag

    def _simulate(self, g, dag, ordering, counting, tr, op_id):
        from repro.parallel.simulate import simulate_counting, simulate_ordering

        cfg = self.config
        eff_nv = cfg.effective_num_vertices or float(g.num_vertices)
        scale = eff_nv / max(1.0, float(g.num_vertices))
        with tr.span("simulate.model", op_id):
            simulate_counting(
                counting, threads=cfg.threads, machine=cfg.machine,
                scheduler=cfg.scheduler, effective_num_vertices=eff_nv,
                max_out_degree=dag.max_degree, work_scale=scale)
            simulate_ordering(ordering.cost, threads=cfg.threads,
                              machine=cfg.machine, work_scale=scale)

    def traced_op(self, i, tr, op_id):
        from repro import obs
        from repro.counting.sct import CountResult, SCTEngine

        g = self.graphs[i % self.cycle]
        cfg = self.config
        k = self.k
        with obs.collecting() as reg, tr.span("op", op_id):
            ordering, dag = self._ordering(g, tr, op_id)
            with tr.span("sct.engine", op_id):
                engine = SCTEngine(g, dag, structure=cfg.structure,
                                   kernel=cfg.kernel)
            # count_roots skips building roots too small for a k-clique,
            # so the probe builds exactly the roots it builds.
            build_words = 0.0
            with tr.span("structures.build", op_id) as sb:
                for v in np.flatnonzero(dag.degrees >= k - 1).tolist():
                    build_words += engine.structure.build(v).build_words
            calls_before = _kernel_calls(reg)
            with tr.span("sct.count_roots", op_id) as cr:
                res = engine.count_roots(range(g.num_vertices), k)
            counting = CountResult(
                count=res.count, all_counts=None, k=k, counters=res.counters,
                per_root_work=np.asarray(res.per_root_work),
                per_root_memory=np.asarray(res.per_root_memory),
                structure=engine.structure.name, kernel=engine.kernel.name)
            self._simulate(g, dag, ordering, counting, tr, op_id)
        values = _registry_counts(reg, calls_before)
        values.update({
            "structures.build_s": sb.duration,
            "sct.count_roots_s": cr.duration,
            "sct.recursion_s": cr.duration - sb.duration,
            "structures.build_words": build_words,
        })
        return res, values


class CliqueRich(CountingWorkload):
    name = "clique-rich"
    k = 6

    def _recipe(self, index):
        return inputs.clique_rich_graph(self.seed, index)


class SparseWide(CountingWorkload):
    name = "sparse-wide"
    k = 4

    config_kwargs = {"effective_num_vertices": PAPER_SCALE_VERTICES}

    def _recipe(self, index):
        return inputs.sparse_wide_graph(self.seed, index, SPARSE_VERTICES)


class CliqueRichPool(CliqueRich):
    name = "clique-rich-pool"
    processes = POOL_PROCESSES

    def traced_op(self, i, tr, op_id):
        from repro import obs
        from repro.counting.sct import SCTEngine
        from repro.parallel import plan_chunks, publish_graph_pair
        from repro.parallel.runtime import parallel_count

        g = self.graphs[i % self.cycle]
        cfg = self.config
        with obs.collecting() as reg, tr.span("op", op_id):
            ordering, dag = self._ordering(g, tr, op_id)
            with tr.span("parallel.shm_publish", op_id):
                publish_graph_pair(g, dag).unlink()
            with tr.span("parallel.plan_chunks", op_id):
                chunks = plan_chunks(dag.degrees, self.processes,
                                     cfg.par_chunks)
            with tr.span("parallel.count", op_id) as pc:
                counting = parallel_count(
                    g, dag, k=self.k, structure=cfg.structure,
                    kernel=cfg.kernel, processes=self.processes,
                    chunks_per_process=cfg.par_chunks)
            self._simulate(g, dag, ordering, counting, tr, op_id)
        # The single-process baseline runs outside the op and outside
        # the metrics scope, so it neither inflates the op nor its counts.
        with tr.span("parallel.serial_baseline", op_id) as sb:
            engine = SCTEngine(g, dag, structure=cfg.structure,
                               kernel=cfg.kernel)
            engine.count_roots(range(g.num_vertices), self.k)
        values = _registry_counts(reg)
        values.update({
            "parallel.count_s": pc.duration,
            "parallel.serial_s": sb.duration,
            "sct.count_roots_s": sb.duration,
            "parallel.chunks": len(chunks),
            "parallel.worker_retries": reg.total("runtime_worker_retries"),
            "parallel.worker_peak_rss_mb": peak_rss_mb(children=True),
        })
        return counting, values


class EdgeStream(Workload):
    """A live SCT forest under a replayed edge stream.

    One step is an update (``apply_edits`` of one batch, then
    ``count_all``) followed by a read (``per_vertex(k)`` and
    ``per_edge(k)``).  The stream is the seeded batches in order, then
    their inverses in reverse, so it cycles back to the start graph.
    """

    name = "edge-stream"
    k = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cycle = 2 * STREAM_BATCHES
        self.count_window = 4

    def generate(self) -> None:
        e, n = inputs.sparse_wide_graph(self.seed, 0, SPARSE_VERTICES)
        self.edges = [(e, n)]
        self.stream = inputs.mirror_stream(
            inputs.edit_batches(self.seed, e, n, STREAM_BATCHES))
        self.digests = [inputs.digest(e)]

    def describe_inputs(self) -> list[str]:
        return super().describe_inputs() + [
            f"{self.name} stream batches={len(self.stream)} "
            f"digest={inputs.stream_digest(self.stream)}"
        ]

    def compute_references(self) -> None:
        # One pass over the cycle suffices: it ends on the start graph.
        counter = reference.StreamCounter(*self.edges[0])
        self.expected = []
        for batch in self.stream:
            counter.apply(batch)
            self.expected.append(list(counter.counts))

    def setup(self, clock) -> None:
        super().setup(clock)
        from repro.counting.forest import SCTForest
        from repro.ordering import core_ordering

        g = self.graphs[0]
        self.forest = clock(
            "forest_build", lambda: SCTForest.build(g, core_ordering(g)))

    def setup_metrics(self) -> dict:
        return {"forest.leaves": self.forest.num_leaves,
                "forest.bytes": self.forest.nbytes}

    def update(self, i: int):
        self.forest.apply_edits(self.stream[i % self.cycle])
        return self.forest.count_all()

    def read(self):
        return self.forest.per_vertex(self.k), self.forest.per_edge(self.k)

    def check_update(self, i: int, counts) -> bool:
        return list(counts[1:5]) == self.expected[i % self.cycle][1:5]

    def check_read(self, i: int, out) -> bool:
        per_vertex, per_edge = out
        sv, se = reference.attribution_sums(
            self.k, self.expected[i % self.cycle][self.k])
        return sum(per_vertex) == sv and sum(per_edge.values()) == se

    def check(self, i: int, out) -> bool:
        counts, read = out
        return self.check_update(i, counts) and self.check_read(i, read)

    def timed_op(self, i: int) -> tuple[bool, list[Sample]]:
        """The update and the read are timed separately, so the read
        latency can be reported on its own."""
        counts, su = timed(self.update, i)
        ok = self.check_update(i, counts)
        out, sr = timed(self.read)
        return ok and self.check_read(i, out), [su, sr]

    def traced_op(self, i, tr, op_id):
        from repro import obs
        from repro.counting.dynamic import (
            dirty_roots, edit_graph, extend_rank, normalize_edits)

        f = self.forest
        batch = self.stream[i % self.cycle]
        old = _leaf_snapshot(f)
        with obs.collecting() as reg, tr.span("op", op_id):
            g = f.graph
            with tr.span("dynamic.normalize", op_id) as sn:
                adds, dels, _ = normalize_edits(g, batch)
            with tr.span("dynamic.edit_graph", op_id) as se:
                new_g = edit_graph(g, adds, dels)
            with tr.span("dynamic.dirty_roots", op_id) as sd:
                dirty_roots(g, new_g, extend_rank(f.rank, new_g.num_vertices),
                            adds, dels)
            with tr.span("dynamic.apply", op_id) as sa:
                report = f.apply_edits(batch)
            with tr.span("forest.count_all", op_id) as sc:
                counts = f.count_all()
            with tr.span("forest.per_vertex", op_id) as sv:
                per_vertex = f.per_vertex(self.k)
            with tr.span("forest.per_edge", op_id) as sp:
                per_edge = f.per_edge(self.k)
        changed = _roots_changed(old, _leaf_snapshot(f), report.dirty_roots)
        values = _registry_counts(reg)
        values.update({
            "dynamic.apply_s": sa.duration,
            "dynamic.normalize_s": sn.duration,
            "dynamic.edit_graph_s": se.duration,
            "dynamic.dirty_roots_s": sd.duration,
            "forest.count_all_s": sc.duration,
            "forest.per_vertex_s": sv.duration,
            "forest.per_edge_s": sp.duration,
            "dynamic.roots_dirty": reg.total("forest_roots_dirty_total"),
            "dynamic.roots_recomputed":
                reg.total("forest_roots_recomputed_total"),
            "dynamic.roots_changed": changed,
            "dynamic.edits_applied": reg.total("forest_edits_applied_total"),
            "dynamic.edits_skipped": reg.total("forest_edits_skipped_total"),
        })
        return (counts, (per_vertex, per_edge)), values


def _leaf_snapshot(forest):
    """Copies of the forest's per-leaf arrays (cheap NumPy copies)."""
    return tuple(a.copy() for a in (
        forest.roots, forest.held_n, forest.pivot_n, forest.held_off,
        forest.pivot_off, forest.held_members, forest.pivot_members))


def _roots_changed(old, new, roots) -> int:
    """How many of ``roots`` own a different leaf list in ``new``."""
    changed = 0
    for r in np.asarray(roots).tolist():
        if _root_leaves(old, r) != _root_leaves(new, r):
            changed += 1
    return changed


def _root_leaves(snap, r: int):
    roots, held_n, pivot_n, held_off, pivot_off, hm, pm = snap
    a, b = np.searchsorted(roots, [r, r + 1])
    return (held_n[a:b].tolist(), pivot_n[a:b].tolist(),
            hm[held_off[a]:held_off[b]].tolist(),
            pm[pivot_off[a]:pivot_off[b]].tolist())


WORKLOADS = {w.name: w for w in (CliqueRich, SparseWide, CliqueRichPool,
                                  EdgeStream)}
