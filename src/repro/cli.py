"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``count``     count k-cliques on a dataset analog or an edge-list file
``dist``      print the clique-size distribution
``datasets``  list the built-in dataset analogs (Table I)
``orderings`` compare all orderings on a graph (quality + modeled time)
``report``    regenerate EXPERIMENTS.md
``figures``   render every paper figure as SVG
``validate``  graph health report (invariants, degeneracy, components)
``stream``    apply an edge-edit stream batch-by-batch, serving counts
              from an incrementally patched forest (see docs/dynamic.md)
``bench``     benchmark run store: run, compare, promote baselines
              (see docs/benchmarking.md)

Examples::

    python -m repro count --dataset orkut -k 8
    python -m repro count --edge-list my.el -k 5 --structure sparse
    python -m repro count --dataset orkut -k 9 --max-nodes 100000 --degrade
    python -m repro dist --dataset dblp --checkpoint run.ckpt
    python -m repro dist --dataset dblp --checkpoint run.ckpt --resume
    python -m repro stream --dataset dblp --edits edits.txt -k 5 --batch-size 16
    python -m repro orderings --dataset skitter

Exit codes: 0 success, 2 usage/input error, 3 budget exhausted without
``--degrade``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import BudgetExceededError, CountingError, ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PivotScale reproduction: scalable exact k-clique counting",
    )
    grp = parser.add_argument_group(
        "observability (see docs/observability.md)"
    )
    grp.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write the run's metrics registry as JSON")
    grp.add_argument("--trace-out", default=None, metavar="PATH",
                     help="stream span/event records as JSON lines")
    grp.add_argument("--profile", action="store_true",
                     help="print a per-phase wall/CPU/memory breakdown")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--dataset", help="built-in analog name")
        src.add_argument("--edge-list", help="path to a whitespace edge list")

    def add_forest(p: argparse.ArgumentParser) -> None:
        grp = p.add_argument_group("materialized SCT forest")
        grp.add_argument(
            "--forest", choices=("auto", "build", "use", "off"),
            default="auto",
            help="auto: build one forest when several queries share the "
                 "graph (e.g. count + --per-vertex); build: always "
                 "build (saved to --forest-path when given); use: load "
                 "a saved forest and answer every query from it; off: "
                 "always re-recurse",
        )
        grp.add_argument("--forest-path", default=None, metavar="PATH",
                         help=".npz file to save (--forest build) or "
                              "load (--forest use) the forest")

    def add_parallel(p: argparse.ArgumentParser) -> None:
        grp = p.add_argument_group("process parallelism")
        grp.add_argument("--processes", type=int, default=None,
                         help="worker processes for the counting phase "
                              "(>= 2 enables the shared-memory parallel "
                              "runtime; default/1 = serial)")
        grp.add_argument("--par-chunks", type=int, default=4,
                         metavar="N",
                         help="root chunks per process for the dynamic "
                              "scheduler (default 4)")

    def add_resilience(p: argparse.ArgumentParser) -> None:
        grp = p.add_argument_group("resilience")
        grp.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="wall-clock budget for the counting phase")
        grp.add_argument("--max-nodes", type=int, default=None,
                         help="recursion-node budget")
        grp.add_argument("--max-memory", type=int, default=None,
                         metavar="BYTES",
                         help="per-root subgraph memory watermark")
        grp.add_argument("--checkpoint", default=None, metavar="PATH",
                         help="append per-root progress to a progress "
                              "log (stream: one log per batch, "
                              "PATH.1, PATH.2, ...); not with --shard-mb")
        grp.add_argument("--resume", action="store_true",
                         help="resume from --checkpoint, or from the "
                              "shard ledger under --spill-dir when "
                              "--shard-mb is set (bit-identical)")
        grp.add_argument("--degrade", action="store_true",
                         help="on budget exhaustion, return a flagged "
                              "sampling estimate instead of failing")

    def add_sharding(p: argparse.ArgumentParser) -> None:
        grp = p.add_argument_group(
            "out-of-core sharding (see docs/sharding.md)"
        )
        grp.add_argument("--shard-mb", type=float, default=None,
                         metavar="MIB",
                         help="count out-of-core through the crash-safe "
                              "shard runtime, keeping each shard's "
                              "spilled CSR slice under this watermark")
        grp.add_argument("--spill-dir", default=None, metavar="DIR",
                         help="directory for shard spill files and the "
                              "resume ledger (required with --shard-mb)")

    p_count = sub.add_parser("count", help="count k-cliques")
    add_graph_source(p_count)
    p_count.add_argument("-k", type=int, required=True, help="clique size")
    p_count.add_argument(
        "--structure", choices=("dense", "sparse", "remap"), default="remap"
    )
    p_count.add_argument(
        "--ordering",
        choices=("heuristic", "core", "degree", "approx_core", "kcore",
                 "centrality"),
        default="heuristic",
    )
    p_count.add_argument("--threads", type=int, default=64,
                         help="modeled thread count")
    p_count.add_argument("--per-vertex", action="store_true",
                         help="also print the top-10 per-vertex counts")
    add_parallel(p_count)
    add_forest(p_count)
    add_resilience(p_count)
    add_sharding(p_count)

    p_dist = sub.add_parser("dist", help="clique-size distribution")
    add_graph_source(p_dist)
    p_dist.add_argument("--max-k", type=int, default=None)
    add_parallel(p_dist)
    add_forest(p_dist)
    add_resilience(p_dist)
    add_sharding(p_dist)

    sub.add_parser("datasets", help="list dataset analogs")

    p_ord = sub.add_parser("orderings", help="compare all orderings")
    add_graph_source(p_ord)
    p_ord.add_argument("-k", type=int, default=8)

    p_rep = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p_rep.add_argument("--output", default="EXPERIMENTS.md")

    p_fig = sub.add_parser("figures", help="render all paper figures as SVG")
    p_fig.add_argument("--output-dir", default="figures")

    p_val = sub.add_parser("validate", help="graph health report")
    add_graph_source(p_val)

    p_stream = sub.add_parser(
        "stream",
        help="incremental counts under an edge-edit stream "
             "(see docs/dynamic.md)",
    )
    add_graph_source(p_stream)
    p_stream.add_argument(
        "--edits", required=True, metavar="PATH",
        help="edit file: one '+ u v' (insert) or '- u v' (delete) per "
             "line, applied in order; '#' starts a comment",
    )
    p_stream.add_argument(
        "-k", type=int, default=None,
        help="report this clique size after each batch "
             "(default: the full distribution)",
    )
    p_stream.add_argument("--max-k", type=int, default=None,
                          help="cap the reported distribution")
    p_stream.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="edits applied per batch (default: the whole file as one "
             "batch); counts are emitted after every batch",
    )
    p_stream.add_argument(
        "--policy", choices=("patch", "reorder", "auto"), default="patch",
        help="patch: keep the build-time order, recompute only dirty "
             "roots (default); reorder: full rebuild under a fresh "
             "degeneracy order each batch; auto: patch until cumulative "
             "edits exceed --reorder-ratio x |E|",
    )
    p_stream.add_argument("--reorder-ratio", type=float, default=0.25,
                          metavar="R",
                          help="auto-policy patch budget as a fraction "
                               "of |E| (default 0.25)")
    p_stream.add_argument(
        "--structure", choices=("dense", "sparse", "remap"), default="remap"
    )
    add_resilience(p_stream)

    from repro.bench.platform.cli import add_bench_parser

    add_bench_parser(sub)
    return parser


def _load_graph(args):
    from repro.datasets import get_spec, load
    from repro.graph.io import read_edge_list

    if args.dataset:
        spec = get_spec(args.dataset)
        return load(args.dataset), spec.effective_num_vertices
    return read_edge_list(args.edge_list), None


def _resilience_kwargs(args) -> dict:
    return {
        "deadline_seconds": args.deadline,
        "max_nodes": args.max_nodes,
        "max_memory_bytes": args.max_memory,
        "checkpoint_path": args.checkpoint,
        "resume": args.resume,
        "degrade": args.degrade,
        "shard_mb": args.shard_mb,
        "spill_dir": args.spill_dir,
    }


def _print_budget(spent) -> None:
    if spent is not None:
        print(f"budget spent: {spent.nodes:,} nodes, "
              f"{spent.seconds:.3f} s, {spent.roots_done:,} roots")


def _forest(args, g, ordering=None, structure="remap", controller=None):
    """The forest ``--forest`` asks for, and where it came from.

    ``use`` loads ``--forest-path`` (required; a corrupt ``.npz`` is
    quarantined and the forest rebuilt from the graph, see
    docs/robustness.md); ``build`` and ``auto`` build it under
    ``ordering``, and ``build`` saves it to ``--forest-path`` when
    given.
    """
    from repro.counting.forest import get_forest, load_or_rebuild_forest

    if args.forest == "use":
        if args.forest_path is None:
            raise CountingError("--forest use requires --forest-path")
        forest, rebuilt = load_or_rebuild_forest(
            args.forest_path, g, structure=structure, controller=controller
        )
        return forest, ("rebuilt; corrupt file quarantined"
                        if rebuilt else f"loaded from {args.forest_path}")
    forest = get_forest(g, ordering, structure, controller=controller)
    if args.forest == "build" and args.forest_path is not None:
        forest.save(args.forest_path)
        return forest, f"built, saved to {args.forest_path}"
    return forest, "built"


def _cmd_count(args) -> int:
    from repro.core import PivotScaleConfig, count_cliques

    g, eff = _load_graph(args)
    cfg = PivotScaleConfig(
        structure=args.structure,
        ordering=args.ordering,
        threads=args.threads,
        processes=args.processes,
        par_chunks=args.par_chunks,
        effective_num_vertices=eff,
        **_resilience_kwargs(args),
    )

    if args.forest == "use":
        # Serve every query from a previously materialized forest —
        # no recursion at all.
        forest, origin = _forest(args, g, structure=cfg.structure)
        print(f"graph: {g}")
        print(f"forest: {forest.num_leaves:,} leaves ({origin})")
        print(f"{args.k}-cliques: {forest.count(args.k):,}")
        if args.per_vertex:
            _print_top_per_vertex(forest.per_vertex(args.k))
        return 0

    r = count_cliques(g, args.k, cfg)
    print(f"graph: {g}")
    print(f"ordering: {r.ordering.name} (max out-degree {r.max_out_degree})")
    if r.decision is not None:
        print(f"heuristic: {r.decision.reason}")
    if r.approximate:
        print(f"{args.k}-cliques: ~{r.count:,.0f} "
              f"(approximate; degraded from {r.degraded_from})")
    else:
        print(f"{args.k}-cliques: {r.count:,}")
    _print_budget(r.budget_spent)
    print(f"modeled {args.threads}-thread time: "
          f"{r.total_model_seconds:.6g} s "
          f"(wall: {r.wall_seconds:.3f} s single-core)")

    # "build" always materializes the forest; "auto" does so only when
    # a second query (per-vertex) makes the build pay for itself.
    forest = None
    if args.forest == "build" or (args.forest == "auto" and args.per_vertex):
        forest, _ = _forest(args, g, r.ordering, cfg.structure)
        print(f"forest: {forest.num_leaves:,} leaves "
              f"({forest.nbytes:,} bytes materialized)")
        if args.forest == "build" and args.forest_path is not None:
            print(f"forest saved to {args.forest_path}")
    if args.per_vertex:
        from repro.counting import per_vertex_counts

        per = per_vertex_counts(g, args.k, r.ordering, forest=forest)
        _print_top_per_vertex(per)
    return 0


def _print_top_per_vertex(per: list) -> None:
    top = sorted(range(len(per)), key=per.__getitem__, reverse=True)[:10]
    print("top per-vertex counts:")
    for v in top:
        if per[v]:
            print(f"  vertex {v}: {per[v]:,}")


def _cmd_dist(args) -> int:
    from repro.core import PivotScaleConfig, count_cliques_all_sizes
    from repro.ordering import core_ordering

    g, _ = _load_graph(args)
    cfg = PivotScaleConfig(ordering="core",
                           processes=args.processes,
                           par_chunks=args.par_chunks,
                           **_resilience_kwargs(args))

    if args.forest in ("build", "use"):
        # The whole distribution is one Pascal-row fold over the
        # materialized leaves.
        ctl = cfg.make_controller()
        forest, origin = _forest(args, g, core_ordering(g), controller=ctl)
        print(f"graph: {g}")
        print(f"forest: {forest.num_leaves:,} leaves ({origin})")
        for k, c in enumerate(forest.count_all(args.max_k)):
            if k >= 1 and c:
                print(f"  k={k:3d}: {c:,}")
        if ctl is not None:
            _print_budget(ctl.spent_snapshot())
        return 0

    r = count_cliques_all_sizes(g, cfg, max_k=args.max_k)
    print(f"graph: {g}")
    if r.approximate:
        print(f"(approximate; degraded from {r.degraded_from})")
    for k, c in enumerate(r.all_counts):
        if k >= 1 and c:
            print(f"  k={k:3d}: ~{c:,.0f}" if r.approximate
                  else f"  k={k:3d}: {c:,}")
    _print_budget(r.budget_spent)
    return 0


def _cmd_datasets(_args) -> int:
    from repro.datasets import REGISTRY

    print(f"{'name':12s} {'paper graph':12s} {'|V|(paper)':>11s} "
          f"{'k_max':>6s} {'best ordering':>14s}")
    for name, spec in REGISTRY.items():
        kmax = spec.paper_kmax if spec.paper_kmax is not None else "-"
        print(f"{name:12s} {spec.title:12s} {spec.paper_vertices_m:>10.1f}M "
              f"{kmax!s:>6s} {spec.best_ordering:>14s}")
    return 0


def _cmd_orderings(args) -> int:
    from repro.bench.harness import Table, fmt_seconds
    from repro.counting import count_kcliques
    from repro.ordering import (
        approx_core_ordering,
        centrality_ordering,
        core_ordering,
        degree_ordering,
        kcore_ordering,
        max_out_degree,
    )
    from repro.ordering.arborder import (
        barenboim_elkin_ordering,
        goodrich_pszona_ordering,
    )
    from repro.parallel import simulate_counting, simulate_ordering

    g, eff = _load_graph(args)
    scale = (eff / g.num_vertices) if eff else 1.0
    orderings = {
        "core": core_ordering(g),
        "approx_core(-0.5)": approx_core_ordering(g, -0.5),
        "kcore": kcore_ordering(g),
        "barenboim-elkin": barenboim_elkin_ordering(g),
        "goodrich-pszona": goodrich_pszona_ordering(g),
        "centrality": centrality_ordering(g),
        "degree": degree_ordering(g),
    }
    t = Table(
        f"orderings on {g!r} (k={args.k})",
        ["ordering", "max out-deg", "rounds", "order(s)", "count(s)"],
    )
    for label, o in orderings.items():
        maxout = max_out_degree(g, o)
        threads = 1 if label == "core" else 64
        o_s = simulate_ordering(o.cost, threads=threads,
                                work_scale=scale).seconds
        r = count_kcliques(g, args.k, o)
        c_s = simulate_counting(
            r, threads=64,
            effective_num_vertices=eff or g.num_vertices,
            max_out_degree=maxout, work_scale=scale,
        ).seconds
        t.add(label, maxout, o.cost.num_rounds or "-", fmt_seconds(o_s),
              fmt_seconds(c_s))
    t.show()
    return 0


def _cmd_report(args) -> int:
    from repro.bench.report import main as report_main

    return report_main([args.output])


def _cmd_figures(args) -> int:
    from repro.bench.figures import main as figures_main

    return figures_main([args.output_dir])


def _cmd_validate(args) -> int:
    from repro.graph.validate import validate_graph

    g, _ = _load_graph(args)
    print(validate_graph(g).summary())
    return 0


def _cmd_stream(args) -> int:
    from dataclasses import replace

    from repro.core import PivotScaleConfig
    from repro.counting.dynamic import iter_batches, read_edit_file
    from repro.counting.forest import get_forest
    from repro.ordering import core_ordering

    if args.reorder_ratio <= 0:
        raise CountingError("reorder_ratio must be > 0")
    g, _ = _load_graph(args)
    # Budgets and checkpoints apply per batch: each batch gets a fresh
    # controller and its own progress log, <checkpoint>.<batch>, which
    # it resumes under --resume when the log exists (a finished batch
    # replays without recomputing a root).
    cfg = PivotScaleConfig(
        structure=args.structure,
        deadline_seconds=args.deadline,
        max_nodes=args.max_nodes,
        max_memory_bytes=args.max_memory,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        degrade=args.degrade,
    )
    edits = read_edit_file(args.edits)
    forest = get_forest(g, core_ordering(g), cfg.structure)
    print(f"graph: {g}")
    print(f"forest: {forest.num_leaves:,} leaves")
    _stream_counts(forest, args)
    for i, batch in enumerate(iter_batches(edits, args.batch_size), 1):
        batch_cfg = cfg
        if cfg.checkpoint_path is not None:
            log = f"{cfg.checkpoint_path}.{i}"
            batch_cfg = replace(cfg, checkpoint_path=log,
                                resume=cfg.resume and os.path.exists(log))
        ctl = batch_cfg.make_controller()
        rep = forest.apply_edits(
            batch, policy=args.policy, reorder_ratio=args.reorder_ratio,
            controller=ctl,
        )
        how = "reordered" if rep.reordered else "patched"
        print(f"batch {i}: +{len(rep.added)} -{len(rep.removed)} edges "
              f"(skipped {rep.skipped}) | {rep.dirty_roots.size} dirty, "
              f"{rep.roots_recomputed} recomputed ({how}) | "
              f"{forest.num_leaves:,} leaves")
        _stream_counts(forest, args)
        if ctl is not None:
            _print_budget(ctl.spent_snapshot())
    return 0


def _stream_counts(forest, args) -> None:
    if args.k is not None:
        print(f"  {args.k}-cliques: {forest.count(args.k):,}")
        return
    for k, c in enumerate(forest.count_all(args.max_k)):
        if k >= 1 and c:
            print(f"  k={k:3d}: {c:,}")


def _cmd_bench(args) -> int:
    from repro.bench.platform.cli import cmd_bench

    return cmd_bench(args)


def _setup_observability(args):
    """Enable the obs layer per the global flags; returns a finisher
    callable that flushes outputs (runs even when the command fails, so
    a budget-aborted run still leaves its metrics/trace behind)."""
    from repro import obs

    wants = args.metrics_out or args.trace_out or args.profile
    if not wants:
        return lambda: None
    sink = open(args.trace_out, "w", encoding="utf-8") \
        if args.trace_out else None
    obs.enable(trace_sink=sink, profile=args.profile)

    def finish() -> None:
        if args.metrics_out:
            obs.get_registry().write_json(args.metrics_out)
            print(f"metrics written to {args.metrics_out}", file=sys.stderr)
        if sink is not None:
            sink.close()
            print(f"trace written to {args.trace_out}", file=sys.stderr)
        if args.profile:
            for line in obs.get_profiler().summary_lines():
                print(line, file=sys.stderr)
        obs.disable()

    return finish


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "dist": _cmd_dist,
        "datasets": _cmd_datasets,
        "orderings": _cmd_orderings,
        "report": _cmd_report,
        "figures": _cmd_figures,
        "validate": _cmd_validate,
        "stream": _cmd_stream,
        "bench": _cmd_bench,
    }
    finish = _setup_observability(args)
    try:
        return handlers[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        if exc.spent is not None:
            print(f"  spent: {exc.spent.as_dict()}", file=sys.stderr)
        print("  (re-run with --degrade for a flagged approximation, or "
              "--checkpoint/--resume to continue later)", file=sys.stderr)
        return 3
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        finish()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
