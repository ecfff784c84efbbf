"""Microbenchmarks of the hot kernels (real wall-clock timing).

Unlike the table/figure benches (which reproduce the paper's modeled
results), these time the actual Python kernels so performance
regressions in the implementation are visible.  Two entry points:

* ``pytest benchmarks/bench_kernels.py`` — pytest-benchmark timings of
  ordering, structure-build, counting, and every bitset-kernel backend;
* ``python benchmarks/bench_kernels.py [--smoke]`` — a standalone
  old-vs-new kernel comparison on a dense-structure root.  It times
  the fused ``count_rows`` (intersect + popcount) over the whole root,
  plus an end-to-end SCT ``count_kcliques`` run per backend, writes a
  ``BENCH_kernels.json`` artifact, and exits nonzero on a missed gate:
  the word-array backend must beat big-int by ``FULL_GATE`` /
  ``SMOKE_GATE`` on intersect/popcount and must stay above the
  ``E2E_GATE`` floor end-to-end.  The end-to-end floor is a *parity*
  guard, not a speedup claim: on CPython, big-int bitsets are already
  word-parallel C and the SCT tree concentrates its work in
  small-candidate subtrees, where both backends run the same big-int
  scan.
"""

import argparse
import sys

import numpy as np
import pytest

from repro.bench.harness import Table, fmt_rate, time_samples, write_json_artifact
from repro.bench.platform import add_store_args, store_and_check
from repro.counting import count_kcliques
from repro.counting.structures import STRUCTURES, DenseStructure
from repro.graph.generators import erdos_renyi
from repro.kernels import KERNELS
from repro.ordering import (
    approx_core_ordering,
    core_ordering,
    degree_ordering,
    directionalize,
)

# ----------------------------------------------------------------------
# pytest-benchmark suite (excluded from tier-1; run via benchmarks/)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def skitter():
    from repro.datasets import load

    return load("skitter")


@pytest.fixture(scope="module")
def skitter_dag(skitter):
    return directionalize(skitter, core_ordering(skitter))


def test_kernel_core_ordering(benchmark, skitter):
    benchmark(core_ordering, skitter)


def test_kernel_degree_ordering(benchmark, skitter):
    benchmark(degree_ordering, skitter)


def test_kernel_approx_core_ordering(benchmark, skitter):
    benchmark(approx_core_ordering, skitter, -0.5)


def test_kernel_directionalize(benchmark, skitter):
    ordering = core_ordering(skitter)
    benchmark(directionalize, skitter, ordering)


@pytest.mark.parametrize("structure", ["dense", "sparse", "remap"])
def test_kernel_subgraph_build(benchmark, skitter, skitter_dag, structure):
    struct = STRUCTURES[structure](skitter, skitter_dag)
    hub = int(np.argmax(skitter_dag.degrees))
    benchmark(struct.build, hub)


@pytest.mark.parametrize("structure", ["dense", "sparse", "remap"])
def test_kernel_counting_k8(benchmark, skitter, structure):
    ordering = core_ordering(skitter)
    result = benchmark.pedantic(
        count_kcliques, args=(skitter, 8, ordering),
        kwargs={"structure": structure}, rounds=2, iterations=1,
    )
    assert result.count > 0


@pytest.fixture(scope="module")
def hub_root(bench_seed):
    """A large-degree dense-structure root, built per backend."""
    g = erdos_renyi(900, 0.6, seed=bench_seed)
    dag = directionalize(g, core_ordering(g))
    hub = int(np.argmax(dag.degrees))
    return {
        backend: DenseStructure(g, dag, kernel=backend).build(hub)
        for backend in KERNELS
    }


@pytest.mark.parametrize("backend", sorted(KERNELS))
def test_kernel_count_rows(benchmark, hub_root, backend):
    ctx = hub_root[backend]
    P = (1 << ctx.d) - 1
    benchmark(ctx.kernel.count_rows, ctx.rows, P)


@pytest.mark.parametrize("backend", sorted(KERNELS))
def test_kernel_pivot_select(benchmark, hub_root, backend):
    ctx = hub_root[backend]
    P = (1 << ctx.d) - 1
    benchmark(ctx.kernel.pivot_select, ctx.rows, P, ctx.d)


@pytest.mark.parametrize("backend", sorted(KERNELS))
def test_kernel_counting_wordarray_vs_bigint(benchmark, backend,
                                             bench_seed):
    g = erdos_renyi(300, 0.25, seed=bench_seed + 4)
    ordering = core_ordering(g)
    result = benchmark.pedantic(
        count_kcliques, args=(g, 6, ordering),
        kwargs={"kernel": backend}, rounds=2, iterations=1,
    )
    assert result.count > 0


# ----------------------------------------------------------------------
# standalone old-vs-new comparison (the CI smoke gate)
# ----------------------------------------------------------------------

#: Full-mode acceptance: word-array >= 2x on intersect/popcount.
FULL_GATE = 2.0
#: Smoke-mode acceptance: word-array must never be slower than big-int
#: on the fused kernels it exists to accelerate.
SMOKE_GATE = 1.0

#: End-to-end floor: a full SCT count on the word-array backend must
#: stay within ~1.7x of big-int wall-clock (see module docstring —
#: this is a parity/regression guard, not a speedup claim).
E2E_GATE = 0.6

#: The ops the gate applies to.
GATED_OPS = ("intersect_popcount",)


def _bench_ops(ctx, *, number, repeats):
    """Per-repeat timing samples of the kernel ops on one built root:
    ``intersect_popcount`` times ``count_rows`` over every row."""
    kern, rows = ctx.kernel, ctx.rows
    P = (1 << ctx.d) - 1
    ops = {"intersect_popcount": lambda: kern.count_rows(rows, P)}
    return {
        name: time_samples(fn, number=number, repeats=repeats)
        for name, fn in ops.items()
    }


def _bench_e2e(backends, *, n, p, k, seed, repeats):
    """End-to-end ``count_kcliques`` wall-clock per backend.

    Returns ``(samples, count)``; counts are asserted identical across
    backends (the bit-identical contract, enforced even in a bench)."""
    import time

    g = erdos_renyi(n, p, seed=seed)
    ordering = core_ordering(g)
    samples = {}
    count = None
    for backend in backends:
        reps = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = count_kcliques(g, k, ordering, kernel=backend)
            reps.append(time.perf_counter() - t0)
            if count is None:
                count = result.count
            elif result.count != count:
                raise AssertionError(
                    f"backend {backend!r} count {result.count} != {count}"
                )
        samples[backend] = reps
    return samples, count


def _work_metrics(seed):
    """Exact work counters for the record: a deterministic small count
    on every backend, whose engine/kernel totals depend only
    on the seed (any drift is an algorithmic change, not timing
    noise)."""
    from repro import obs

    g = erdos_renyi(120, 0.3, seed=seed)
    ordering = core_ordering(g)
    with obs.collecting() as registry:
        for backend in KERNELS:
            count_kcliques(g, 4, ordering, kernel=backend)
    return registry


def run_kernel_bench(*, n, p, seed, number, repeats, gate, e2e, out_path,
                     store_args=None):
    """Old-vs-new kernel comparison on a dense-structure hub root.

    Returns the payload dict (also written to ``out_path``); the
    ``gate`` entry records whether the word-array backend met the
    required speedup on the fused kernel and the end-to-end floor.  ``e2e`` is the ``(n, p, k)`` config of the end-to-end SCT
    count.  The invocation is also appended to the run store and
    checked against the promoted baseline (``payload["store_result"]``,
    never written to the legacy artifact).
    """
    backends = list(KERNELS)
    g = erdos_renyi(n, p, seed=seed)
    dag = directionalize(g, core_ordering(g))
    hub = int(np.argmax(dag.degrees))

    timings = {}
    d = int(dag.degrees[hub])
    words = (d + 63) // 64
    for backend in backends:
        ctx = DenseStructure(g, dag, kernel=backend).build(hub)
        timings[backend] = _bench_ops(ctx, number=number, repeats=repeats)

    table = Table(
        title=f"bitset kernels, dense root d={d} ({words} words)",
        columns=["op", "bigint", "wordarray", "speedup", "wa words/s"],
    )
    ops_payload = {}
    for op in timings["bigint"]:
        bi = min(timings["bigint"][op])
        wa = min(timings["wordarray"][op])
        speedup = bi / wa
        words_per_s = d * words / wa
        ops_payload[op] = {
            "speedup": round(speedup, 3),
            "wordarray_words_per_s": words_per_s,
            "gated": op in GATED_OPS,
            "gate_threshold": gate if op in GATED_OPS else None,
        }
        for backend in backends:
            ops_payload[op][f"{backend}_s"] = min(timings[backend][op])
        table.add(op, f"{bi * 1e6:.1f}us", f"{wa * 1e6:.1f}us",
                  f"{speedup:.2f}x", fmt_rate(words_per_s))

    e2e_n, e2e_p, e2e_k = e2e
    e2e_samples, e2e_count = _bench_e2e(
        backends, n=e2e_n, p=e2e_p, k=e2e_k, seed=seed,
        repeats=max(3, repeats - 1),
    )
    e2e_bi = min(e2e_samples["bigint"])
    e2e_wa = min(e2e_samples["wordarray"])
    e2e_speedup = e2e_bi / e2e_wa
    e2e_payload = {
        "config": {"n": e2e_n, "p": e2e_p, "k": e2e_k},
        "count": str(e2e_count),
        "speedup": round(e2e_speedup, 3),
        "gate_threshold": E2E_GATE,
    }
    for backend in backends:
        e2e_payload[f"{backend}_s"] = min(e2e_samples[backend])
    table.add("sct_count_e2e", f"{e2e_bi:.3f}s", f"{e2e_wa:.3f}s",
              f"{e2e_speedup:.2f}x", "-")

    gate_pass = all(
        ops_payload[op]["speedup"] >= gate for op in GATED_OPS
    ) and e2e_speedup >= E2E_GATE
    table.note(
        f"gate: intersect/popcount >= {gate:.1f}x, end-to-end >= "
        f"{E2E_GATE:.1f}x -> {'PASS' if gate_pass else 'FAIL'}"
    )
    table.show()

    payload = {
        "bench": "kernels",
        "config": {"n": n, "p": p, "seed": seed,
                   "number": number, "repeats": repeats},
        "backends": backends,
        "root": {"d": d, "words": words},
        "ops": ops_payload,
        "end_to_end": e2e_payload,
        "gate": {"threshold": gate, "e2e_threshold": E2E_GATE,
                 "ops": list(GATED_OPS), "pass": gate_pass},
    }
    artifact = write_json_artifact(out_path, payload)
    print(f"wrote {artifact}")

    # Run-store migration: append this invocation (per-repeat samples,
    # exact work counters, legacy gate verdict) and compare against the
    # promoted stored baseline.  The fixed thresholds above survive as
    # hard floors; the store comparison is the statistical gate.
    samples = {
        f"{backend}.{op}": timings[backend][op]
        for backend in timings for op in timings[backend]
    }
    for backend in backends:
        samples[f"{backend}.sct_count_e2e"] = e2e_samples[backend]
    _, comparison, store_rc = store_and_check(
        "kernels", payload, samples, seed=seed, args=store_args,
        registry=_work_metrics(seed),
    )
    payload["store_result"] = {
        "regressed": bool(comparison.regressed) if comparison else False,
        "exit": store_rc,
    }
    return payload


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="old-vs-new bitset kernel comparison")
    ap.add_argument("--smoke", action="store_true",
                    help="small graph, few repeats, relaxed gate (CI)")
    ap.add_argument("--out", default="BENCH_kernels.json",
                    help="JSON artifact path (default: %(default)s)")
    ap.add_argument("--n", type=int, default=None,
                    help="graph size (default: 1200 full, 500 smoke)")
    ap.add_argument("--p", type=float, default=None,
                    help="edge probability (default: 0.6 full, 0.5 smoke)")
    ap.add_argument("--seed", type=int, default=7)
    add_store_args(ap)
    args = ap.parse_args(argv)

    if args.smoke:
        cfg = dict(n=args.n or 500, p=args.p or 0.5, seed=args.seed,
                   number=10, repeats=3, gate=SMOKE_GATE,
                   e2e=(200, 0.4, 7))
    else:
        cfg = dict(n=args.n or 1200, p=args.p or 0.6, seed=args.seed,
                   number=20, repeats=5, gate=FULL_GATE,
                   e2e=(300, 0.4, 7))

    payload = run_kernel_bench(out_path=args.out, store_args=args, **cfg)
    if not payload["gate"]["pass"]:
        print("FAIL: word-array kernels missed the speedup gate",
              file=sys.stderr)
        return 1
    return payload["store_result"]["exit"]


if __name__ == "__main__":
    raise SystemExit(main())
