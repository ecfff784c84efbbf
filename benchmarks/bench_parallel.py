"""Real process-parallel runtime benchmark (wall-clock, gated).

Times the shared-memory process pool against the serial SCT engine on
the same graph and ordering, with a persistent pool so pool startup is
excluded and what remains is what the runtime adds: chunk planning,
task pickling, shared-memory attach, and result folding.

Two gates, written to ``BENCH_parallel.json``:

* **overhead** (always on): at ``--processes 2`` the parallel wall time
  must stay within ``OVERHEAD_GATE`` (25%) of serial.  On a single
  core the pool cannot be faster — two workers time-slice the same
  total work — so this bounds the scheduling tax instead.
* **speedup** (auto-enabled only when ``os.cpu_count() > 1``): with
  real cores available the pool must actually beat serial
  (``SPEEDUP_GATE``, a deliberately lenient 1.05x — CI runners are
  noisy and share cores).

Both read the *median* of the paired per-repeat ratios, not the ratio
of the two variants' minima.  Serial and pool take turns, one count
each per repeat in rotated order, as ``bench_obs.py`` times its
variants: timed in two separate blocks of two repeats, a slow phase of
a shared host fell on one variant only (three smoke runs of unchanged
code on a 2-vCPU host read 0.97x, 1.94x and 1.88x).

Also verifies the parallel count is bit-identical to serial before
timing anything; a wrong answer fails faster than a slow one.

Usage::

    python benchmarks/bench_parallel.py           # full mode
    python benchmarks/bench_parallel.py --smoke   # CI: smaller graph
"""

import argparse
import os
import statistics
import sys
from contextlib import nullcontext

from repro import obs
from repro.bench.harness import (
    Table,
    fmt_seconds,
    time_interleaved,
    write_json_artifact,
)
from repro.bench.platform import add_store_args, store_and_check
from repro.counting.sct import SCTEngine
from repro.graph.generators import erdos_renyi
from repro.ordering import core_ordering, directionalize
from repro.parallel import ParallelRuntime, count_kcliques_processes

#: Parallel wall at procs=2 must stay within this fraction over serial.
OVERHEAD_GATE = 0.25
#: Required speedup at procs=2 when the host has real cores to use.
SPEEDUP_GATE = 1.05


def run_parallel_bench(*, n, p, k, seed, processes, chunks_per_process,
                       repeats, out_path, store_args=None):
    g = erdos_renyi(n, p, seed=seed)
    o = core_ordering(g)
    dag = directionalize(g, o)
    engine = SCTEngine(g, dag)

    # correctness first: a fast wrong answer is still wrong (and the
    # instrumented run doubles as the record's exact-work fingerprint)
    with obs.collecting() as registry:
        serial_result = engine.count(k)
    with ParallelRuntime(processes) as rt:
        par_result = count_kcliques_processes(
            g, k, dag, processes=processes, runtime=rt,
            chunks_per_process=chunks_per_process,
        )
        assert par_result.count == serial_result.count, (
            f"parallel {par_result.count} != serial {serial_result.count}"
        )
        samples = time_interleaved(
            {"serial": nullcontext, "pool": nullcontext},
            {
                "serial": [lambda: engine.count(k)],
                "pool": [lambda: count_kcliques_processes(
                    g, k, dag, processes=processes, runtime=rt,
                    chunks_per_process=chunks_per_process,
                )],
            },
            repeats=repeats,
        )
    serial_samples, par_samples = samples["serial"], samples["pool"]
    serial_s = min(serial_samples)
    par_s = min(par_samples)

    ratios = [q / s for q, s in zip(par_samples, serial_samples)]
    overhead = statistics.median(ratios) - 1.0
    speedup = statistics.median(
        s / q for s, q in zip(serial_samples, par_samples))
    cores = os.cpu_count() or 1
    speedup_gated = cores > 1
    overhead_pass = overhead <= OVERHEAD_GATE
    speedup_pass = (not speedup_gated) or speedup >= SPEEDUP_GATE
    gate_pass = overhead_pass and speedup_pass

    t = Table(
        title=f"process pool vs serial SCT (n={n}, p={p}, k={k}, "
              f"{processes} procs, {cores} cores)",
        columns=["variant", "wall", "vs serial"],
    )
    t.add("serial", fmt_seconds(serial_s), "1.00x")
    t.add(f"pool({processes})", fmt_seconds(par_s), f"{speedup:.2f}x")
    t.note(
        f"overhead {overhead * 100:+.1f}% (gate <= {OVERHEAD_GATE * 100:.0f}%)"
        + (f", speedup gate >= {SPEEDUP_GATE:.2f}x" if speedup_gated
           else ", speedup gate off (single core)")
        + f" -> {'PASS' if gate_pass else 'FAIL'}"
    )
    t.show()

    payload = {
        "bench": "parallel",
        "config": {
            "n": n, "p": p, "k": k, "seed": seed,
            "processes": processes,
            "chunks_per_process": chunks_per_process,
            "repeats": repeats, "cpu_count": cores,
        },
        "count": serial_result.count,
        "serial_s": serial_s,
        "parallel_s": par_s,
        "overhead": round(overhead, 4),
        "speedup": round(speedup, 4),
        "gate": {
            "overhead_threshold": OVERHEAD_GATE,
            "overhead_pass": overhead_pass,
            "speedup_threshold": SPEEDUP_GATE,
            "speedup_gated": speedup_gated,
            "speedup_pass": speedup_pass,
            "pass": gate_pass,
        },
    }
    artifact = write_json_artifact(out_path, payload)
    print(f"wrote {artifact}")

    # Run-store migration: raw serial/parallel samples plus the paired
    # per-repeat overhead ratio; the fixed 25%/1.05x thresholds above
    # stay as hard floors, statistics against the stored baseline do
    # the regression detection.
    store_samples = {
        "serial_s": serial_samples,
        "parallel_s": par_samples,
        "overhead_ratio": ratios,
    }
    _, comparison, store_rc = store_and_check(
        "parallel", payload, store_samples, seed=seed, args=store_args,
        registry=registry,
    )
    payload["store_result"] = {
        "regressed": bool(comparison.regressed) if comparison else False,
        "exit": store_rc,
    }
    return payload


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="process-parallel runtime overhead/speedup gate")
    ap.add_argument("--smoke", action="store_true",
                    help="smaller graph (CI)")
    ap.add_argument("--out", default="BENCH_parallel.json",
                    help="JSON artifact path (default: %(default)s)")
    ap.add_argument("--processes", type=int, default=2,
                    help="worker processes to gate (default: 2)")
    ap.add_argument("--par-chunks", type=int, default=4)
    ap.add_argument("--k", type=int, default=7,
                    help="clique size (default: %(default)s)")
    ap.add_argument("--seed", type=int, default=13)
    add_store_args(ap)
    args = ap.parse_args(argv)

    # Sized so serial wall is a few hundred ms: long enough that the
    # per-run fixed costs (publish, attach, task pickling) sit well
    # inside the overhead gate, short enough for CI.
    if args.smoke:
        cfg = dict(n=300, p=0.3, k=args.k, repeats=9)
    else:
        cfg = dict(n=400, p=0.25, k=args.k, repeats=9)

    payload = run_parallel_bench(
        seed=args.seed, processes=args.processes,
        chunks_per_process=args.par_chunks, out_path=args.out,
        store_args=args, **cfg,
    )
    if not payload["gate"]["pass"]:
        print("FAIL: parallel runtime missed its gate", file=sys.stderr)
        return 1
    return payload["store_result"]["exit"]


if __name__ == "__main__":
    raise SystemExit(main())
