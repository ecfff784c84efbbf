"""Materialized-forest benchmark: query folds vs repeated recursion.

The :class:`~repro.counting.forest.SCTForest` exists so that a workload
asking several questions of one graph — a k = 3..10 sweep plus a
per-vertex query is the canonical example — pays the pivot recursion
once instead of once per question.  This bench times exactly that
workload both ways on every graph:

* **direct** — one ``SCTEngine.count(k)`` run per k plus one
  ``per_vertex_counts`` run, i.e. nine full traversals;
* **forest** — the same queries answered from an already-built forest
  (array folds; the one-time build cost is measured and reported
  separately, with the break-even query count, but is *not* part of
  the gated query time — the forest's contract is amortization).

Every count is checked bit-identical between the two paths before any
timing is trusted.  The gate requires the forest-served workload to be
**>= 5x** faster than the repeated direct runs on every graph; CI runs
``--smoke`` on every push and fails on a gate miss or any count
mismatch.

Usage::

    python benchmarks/bench_forest.py [--smoke] [--out BENCH_forest.json]
"""

import argparse
import sys
import time

from repro.bench.harness import Table, fmt_seconds, time_samples, write_json_artifact
from repro.bench.platform import add_store_args, store_and_check
from repro.counting.forest import build_forest
from repro.counting.pervertex import per_vertex_counts
from repro.counting.sct import SCTEngine
from repro.datasets import load
from repro.graph.generators import chung_lu, erdos_renyi, power_law_degrees
from repro.ordering import core_ordering, directionalize

#: The gated workload: one count per k in this sweep + one per-vertex
#: query at PV_K.
K_SWEEP = tuple(range(3, 11))
PV_K = 5

#: Acceptance: forest-served queries >= 5x faster than repeated direct
#: engine runs, on every graph.
GATE = 5.0

#: The backend segment of the stored sample keys and result rows, kept
#: so new runs stay comparable with the recorded history and baseline.
BACKEND = "bigint"


def _bench_graphs(smoke: bool, seed: int):
    """(name, graph) pairs; small synthetic corpus + one analog.

    Every synthetic graph derives from the explicit ``seed`` so a
    stored record names exactly the workload it measured.
    """
    if smoke:
        return [
            ("er-120", erdos_renyi(120, 0.3, seed=seed)),
            ("cl-150", chung_lu(power_law_degrees(150, 2.3, 40,
                                                  seed=seed + 1),
                                seed=seed + 1)),
        ]
    return [
        ("er-300", erdos_renyi(300, 0.25, seed=seed)),
        ("cl-400", chung_lu(power_law_degrees(400, 2.3, 60, seed=seed + 1),
                            seed=seed + 1)),
        ("dblp", load("dblp")),
    ]


def _direct_workload(graph, dag):
    """The repeated-engine path: k-sweep + per-vertex, re-recursing."""
    engine = SCTEngine(graph, dag)
    counts = {k: engine.count(k).count for k in K_SWEEP}
    per = per_vertex_counts(graph, PV_K, dag)
    return counts, per


def _forest_workload(forest):
    """The same queries, served from the materialized leaves."""
    counts = {k: forest.count(k) for k in K_SWEEP}
    per = forest.per_vertex(PV_K)
    return counts, per


def _work_metrics(seed):
    """Exact work counters for the record: one deterministic small
    forest build + query pass under observation."""
    from repro import obs

    g = erdos_renyi(90, 0.3, seed=seed)
    dag = directionalize(g, core_ordering(g))
    with obs.collecting() as registry:
        forest = build_forest(g, dag)
        forest.count(PV_K)
        forest.per_vertex(PV_K)
    return registry


def run_forest_bench(*, smoke, number, repeats, out_path, seed=11,
                     graphs=None, store_args=None):
    """Time the sweep workload direct-vs-forest; returns the payload."""
    if graphs is None:
        graphs = _bench_graphs(smoke, seed)
    table = Table(
        title=f"forest vs repeated recursion (k={K_SWEEP[0]}..{K_SWEEP[-1]} "
              f"sweep + per-vertex k={PV_K})",
        columns=["graph", "kernel", "direct", "queries", "speedup",
                 "build", "break-even"],
    )
    results = []
    gate_pass = True
    counts_match = True
    store_samples: dict[str, list[float]] = {}

    for gname, g in graphs:
        dag = directionalize(g, core_ordering(g))
        # Correctness first: both paths, bit-identical.
        d_counts, d_per = _direct_workload(g, dag)
        t_build0 = time.perf_counter()
        forest = build_forest(g, dag)
        build_s = time.perf_counter() - t_build0
        f_counts, f_per = _forest_workload(forest)
        ok = f_counts == d_counts and f_per == d_per
        counts_match = counts_match and ok

        direct_samples = time_samples(
            lambda: _direct_workload(g, dag),
            number=number, repeats=repeats,
        )
        query_samples = time_samples(
            lambda: _forest_workload(forest),
            number=max(number, 10), repeats=repeats,
        )
        direct_s = min(direct_samples)
        query_s = min(query_samples)
        store_samples[f"{gname}.{BACKEND}.direct_s"] = direct_samples
        store_samples[f"{gname}.{BACKEND}.query_s"] = query_samples
        speedup = direct_s / query_s
        # Queries-to-break-even: after this many workload
        # repetitions the build has paid for itself.
        saved_per_query = direct_s - query_s
        breakeven = (
            build_s / saved_per_query if saved_per_query > 0 else
            float("inf")
        )
        combo_pass = speedup >= GATE and ok
        gate_pass = gate_pass and combo_pass
        results.append({
            "graph": gname,
            "kernel": BACKEND,
            "num_leaves": forest.num_leaves,
            "forest_bytes": forest.nbytes,
            "direct_s": direct_s,
            "forest_query_s": query_s,
            "forest_build_s": build_s,
            "speedup": round(speedup, 2),
            "breakeven_workloads": round(breakeven, 3),
            "counts_match": ok,
            "pass": combo_pass,
        })
        table.add(
            gname, BACKEND, fmt_seconds(direct_s), fmt_seconds(query_s),
            f"{speedup:.0f}x", fmt_seconds(build_s),
            f"{breakeven:.2f}",
        )

    table.note(
        f"gate: forest-served queries >= {GATE:.0f}x faster with "
        f"bit-identical counts -> {'PASS' if gate_pass else 'FAIL'}"
    )
    table.note(
        "break-even: workload repetitions after which the one-time "
        "build has paid for itself (build is excluded from the gated "
        "query time)"
    )
    table.show()

    payload = {
        "bench": "forest",
        "config": {
            "smoke": smoke,
            "k_sweep": list(K_SWEEP),
            "per_vertex_k": PV_K,
            "number": number,
            "repeats": repeats,
            "seed": seed,
        },
        "results": results,
        "gate": {
            "threshold": GATE,
            "counts_match": counts_match,
            "pass": gate_pass,
        },
    }
    artifact = write_json_artifact(out_path, payload)
    print(f"wrote {artifact}")

    # Run-store migration: direct/query samples per graph;
    # the >= 5x threshold stays as the hard floor, the stored baseline
    # does regression detection on the raw query times.
    _, comparison, store_rc = store_and_check(
        "forest", payload, store_samples, seed=seed, args=store_args,
        registry=_work_metrics(seed),
    )
    payload["store_result"] = {
        "regressed": bool(comparison.regressed) if comparison else False,
        "exit": store_rc,
    }
    return payload


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="materialized-forest query speedup benchmark")
    ap.add_argument("--smoke", action="store_true",
                    help="small graphs, few repeats (CI)")
    ap.add_argument("--out", default="BENCH_forest.json",
                    help="JSON artifact path (default: %(default)s)")
    ap.add_argument("--seed", type=int, default=11,
                    help="base RNG seed for the synthetic bench graphs")
    add_store_args(ap)
    args = ap.parse_args(argv)

    cfg = (dict(smoke=True, number=1, repeats=2) if args.smoke
           else dict(smoke=False, number=1, repeats=3))
    payload = run_forest_bench(out_path=args.out, seed=args.seed,
                               store_args=args, **cfg)
    if not payload["gate"]["counts_match"]:
        print("FAIL: forest-served counts diverged from the direct "
              "engines", file=sys.stderr)
        return 1
    if not payload["gate"]["pass"]:
        print("FAIL: forest-served queries missed the "
              f">={GATE:.0f}x speedup gate", file=sys.stderr)
        return 1
    return payload["store_result"]["exit"]


if __name__ == "__main__":
    raise SystemExit(main())
