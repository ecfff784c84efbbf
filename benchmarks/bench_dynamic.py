"""Incremental-update benchmark: small-batch ``apply_edits`` vs rebuild.

:meth:`~repro.counting.forest.SCTForest.apply_edits` exists so that a
long-lived forest tracking an edge stream pays pivot recursion only for
the dirty roots of each batch instead of re-running the full build.
This bench times exactly that trade on every graph:

* **apply** — a small batch (one insert + one delete) applied to a
  clone of the resident forest (the clone is made *outside* the timed
  region; ``apply_edits`` mutates in place);
* **rebuild** — ``SCTForest.build`` over the post-edit graph under the
  same maintained rank, i.e. what a stream consumer would pay without
  the incremental path.

Exactness is checked before any timing is trusted: the patched clone
must be bit-identical to the rebuilt forest (leaf arrays, offsets and
work/memory vectors).  The gate requires the incremental apply to be
**>= 5x** faster than the rebuild on every graph.

The bench graphs are deliberately *sparse*: the dirty-root rule marks
an edit's lower-ranked endpoint and the common neighbours of its
endpoints ranked below both, so on dense graphs — where a pair's
common neighbourhood is a constant fraction of all vertices — a single
edit can dirty a constant fraction of all roots and the incremental
path approaches a rebuild by design (that regime is what the
``reorder``/``auto`` policies are for).  Sparse graphs are also the
realistic streaming regime.

Usage::

    python benchmarks/bench_dynamic.py [--smoke] [--out BENCH_dynamic.json]
"""

import argparse
import sys
import time

import numpy as np

from repro.bench.harness import Table, fmt_seconds, time_samples, write_json_artifact
from repro.bench.platform import add_store_args, store_and_check
from repro.counting.forest import SCTForest
from repro.datasets import load
from repro.graph.generators import chung_lu, erdos_renyi, power_law_degrees
from repro.ordering import core_ordering

#: The gated workload: one absent-pair insert + one present-edge delete.
EDITS_PER_BATCH = 2

#: Acceptance: small-batch apply_edits >= 5x faster than a full rebuild,
#: on every graph, with bit-identical forests.
GATE = 5.0

STRUCTURE = "remap"

#: The backend segment of the stored sample keys and result rows, kept
#: so new runs stay comparable with the recorded history and baseline.
BACKEND = "bigint"


def _bench_graphs(smoke: bool, seed: int):
    """(name, graph) pairs; sparse synthetic corpus + one analog.

    Every synthetic graph derives from the explicit ``seed`` so a
    stored record names exactly the workload it measured.  Smoke keeps
    the two synthetic graphs (they are already CI-sized) and drops the
    analog; shrinking further would thin the gate margin, not the
    runtime (see module docstring on sparsity).
    """
    synthetic = [
        ("er-1200", erdos_renyi(1200, 0.008, seed=seed)),
        ("cl-900", chung_lu(power_law_degrees(900, 2.4, 3.0, seed=seed + 1),
                            seed=seed + 1)),
    ]
    if smoke:
        return synthetic
    return synthetic + [("dblp", load("dblp"))]


def _make_batch(g, seed):
    """One absent-pair insert + one present-edge delete, from ``seed``."""
    rng = np.random.default_rng(seed)
    n = g.num_vertices
    while True:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v and not g.has_edge(u, v):
            break
    edges = g.edge_array()
    du, dv = (int(x) for x in edges[int(rng.integers(0, len(edges)))])
    return [("+", u, v), ("-", du, dv)]


def _same_forest(a, b):
    """Bit-identity of everything the build would have produced."""
    return (
        np.array_equal(a.roots, b.roots)
        and np.array_equal(a.held_n, b.held_n)
        and np.array_equal(a.pivot_n, b.pivot_n)
        and np.array_equal(a.held_members, b.held_members)
        and np.array_equal(a.pivot_members, b.pivot_members)
        and np.array_equal(a.held_off, b.held_off)
        and np.array_equal(a.pivot_off, b.pivot_off)
        and np.array_equal(a.per_root_work, b.per_root_work)
        and np.array_equal(a.per_root_memory, b.per_root_memory)
    )


def _time_apply(forest, batch, *, number, repeats):
    """Like :func:`time_samples` but with the clone outside the timer:
    ``apply_edits`` mutates the forest, so every call needs a fresh
    copy whose cost is not the incremental path's to pay."""
    samples = []
    for _ in range(repeats):
        total = 0.0
        for _ in range(number):
            clone = forest.copy()
            t0 = time.perf_counter()
            clone.apply_edits(batch)
            total += time.perf_counter() - t0
        samples.append(total / number)
    return samples


def _work_metrics(seed):
    """Exact work counters for the record: one deterministic small
    build + edit batch under observation."""
    from repro import obs

    g = erdos_renyi(200, 0.03, seed=seed)
    ordering = core_ordering(g)
    with obs.collecting() as registry:
        forest = SCTForest.build(g, ordering, STRUCTURE)
        forest.apply_edits(_make_batch(g, seed + 1))
    return registry


def run_dynamic_bench(*, smoke, number, repeats, out_path, seed=11,
                      graphs=None, store_args=None):
    """Time small-batch apply vs rebuild; returns the payload."""
    if graphs is None:
        graphs = _bench_graphs(smoke, seed)
    table = Table(
        title=f"incremental apply_edits vs full rebuild "
              f"({EDITS_PER_BATCH}-edit batch)",
        columns=["graph", "kernel", "dirty", "apply", "rebuild", "speedup"],
    )
    results = []
    gate_pass = True
    exact = True
    store_samples: dict[str, list[float]] = {}

    for gname, g in graphs:
        ordering = core_ordering(g)
        batch = _make_batch(g, seed + 17)
        forest = SCTForest.build(g, ordering, STRUCTURE)
        # Correctness first: the patched clone must be bit-identical
        # to a rebuild over the post-edit graph.
        clone = forest.copy()
        report = clone.apply_edits(batch)
        rebuilt = SCTForest.build(report.graph, clone.rank, STRUCTURE)
        ok = _same_forest(clone, rebuilt)
        exact = exact and ok

        apply_samples = _time_apply(forest, batch, number=number,
                                    repeats=repeats)
        rebuild_samples = time_samples(
            lambda: SCTForest.build(report.graph, clone.rank, STRUCTURE),
            number=number, repeats=repeats,
        )
        apply_s = min(apply_samples)
        rebuild_s = min(rebuild_samples)
        store_samples[f"{gname}.{BACKEND}.apply_s"] = apply_samples
        store_samples[f"{gname}.{BACKEND}.rebuild_s"] = rebuild_samples
        speedup = rebuild_s / apply_s
        combo_pass = speedup >= GATE and ok
        gate_pass = gate_pass and combo_pass
        results.append({
            "graph": gname,
            "kernel": BACKEND,
            "num_leaves": clone.num_leaves,
            "dirty_roots": int(report.dirty_roots.size),
            "total_roots": report.graph.num_vertices,
            "apply_s": apply_s,
            "rebuild_s": rebuild_s,
            "speedup": round(speedup, 2),
            "exact": ok,
            "pass": combo_pass,
        })
        table.add(
            gname, BACKEND,
            f"{report.dirty_roots.size}/{report.graph.num_vertices}",
            fmt_seconds(apply_s), fmt_seconds(rebuild_s),
            f"{speedup:.0f}x",
        )

    table.note(
        f"gate: incremental apply >= {GATE:.0f}x faster than rebuild "
        f"with a bit-identical forest -> {'PASS' if gate_pass else 'FAIL'}"
    )
    table.note(
        "dirty: roots re-run by the pivot recursion / total roots "
        "(the rebuild re-runs all of them)"
    )
    table.show()

    payload = {
        "bench": "dynamic",
        "config": {
            "smoke": smoke,
            "edits_per_batch": EDITS_PER_BATCH,
            "structure": STRUCTURE,
            "number": number,
            "repeats": repeats,
            "seed": seed,
        },
        "results": results,
        "gate": {
            "threshold": GATE,
            "exact": exact,
            "pass": gate_pass,
        },
    }
    artifact = write_json_artifact(out_path, payload)
    print(f"wrote {artifact}")

    # Run store: apply/rebuild samples per graph; the >= 5x
    # threshold stays as the hard floor, the stored baseline does
    # regression detection on the raw times.
    _, comparison, store_rc = store_and_check(
        "dynamic", payload, store_samples, seed=seed, args=store_args,
        registry=_work_metrics(seed),
    )
    payload["store_result"] = {
        "regressed": bool(comparison.regressed) if comparison else False,
        "exit": store_rc,
    }
    return payload


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="incremental apply_edits speedup benchmark")
    ap.add_argument("--smoke", action="store_true",
                    help="synthetic graphs only, few repeats (CI)")
    ap.add_argument("--out", default="BENCH_dynamic.json",
                    help="JSON artifact path (default: %(default)s)")
    ap.add_argument("--seed", type=int, default=11,
                    help="base RNG seed for the synthetic bench graphs")
    add_store_args(ap)
    args = ap.parse_args(argv)

    cfg = (dict(smoke=True, number=1, repeats=2) if args.smoke
           else dict(smoke=False, number=1, repeats=3))
    payload = run_dynamic_bench(out_path=args.out, seed=args.seed,
                                store_args=args, **cfg)
    if not payload["gate"]["exact"]:
        print("FAIL: patched forest diverged from a full rebuild",
              file=sys.stderr)
        return 1
    if not payload["gate"]["pass"]:
        print(f"FAIL: incremental apply missed the >={GATE:.0f}x "
              "speedup gate", file=sys.stderr)
        return 1
    return payload["store_result"]["exit"]


if __name__ == "__main__":
    raise SystemExit(main())
