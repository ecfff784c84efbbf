"""``repro bench`` — run-store verbs for the benchmark platform.

Verbs
-----
``bench run <name...|all>``      run gated benches (optionally N times),
                                 each invocation appending to the store
``bench compare``                statistical gate vs promoted baselines
``bench baseline promote``       make a stored run the new baseline
``bench baseline show``          print the promoted baselines
``bench history <bench>``        per-metric median time series

Examples::

    python -m repro bench run all --smoke --repeat 3
    python -m repro bench compare --strict
    python -m repro bench baseline promote forest
    python -m repro bench history forest --metric er-120.bigint.query_s
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import time
from pathlib import Path

from repro.bench.platform.adapter import default_store_root
from repro.bench.platform.baseline import BaselineRegistry
from repro.bench.platform.report import ExperimentReport
from repro.bench.platform.store import RunStore

__all__ = ["add_bench_parser", "cmd_bench", "GATED_BENCHES"]

#: The benches migrated onto the run store (``bench run all``).
GATED_BENCHES = ("forest", "obs", "parallel", "shard", "dynamic")

#: Environment override for where the ``bench_*.py`` scripts live.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


def add_bench_parser(sub) -> None:
    """Attach the ``bench`` subcommand to the main CLI's subparsers."""
    p = sub.add_parser(
        "bench",
        help="benchmark run store: run, compare, promote baselines",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="run-store directory (default: benchmarks/runs)")
    verbs = p.add_subparsers(dest="bench_verb", required=True)

    p_run = verbs.add_parser("run", help="run gated benches, record runs")
    p_run.add_argument("names", nargs="+",
                       help=f"bench names ({', '.join(GATED_BENCHES)}) "
                            f"or 'all'")
    p_run.add_argument("--smoke", action="store_true",
                       help="pass --smoke through to each bench")
    p_run.add_argument("--seed", type=int, default=None,
                       help="explicit RNG seed passed to every bench")
    p_run.add_argument("--repeat", type=int, default=1, metavar="N",
                       help="invoke each bench N times (more stored "
                            "samples -> more statistical power)")
    p_run.add_argument("--bench-dir", default=None, metavar="DIR",
                       help="directory holding bench_*.py (default: "
                            f"./benchmarks, or ${BENCH_DIR_ENV})")
    p_run.add_argument("--no-stat-gate", action="store_true",
                       help="record runs but never fail on statistics")

    p_cmp = verbs.add_parser(
        "compare", help="statistical gate vs the promoted baselines")
    p_cmp.add_argument("--bench", action="append", default=None,
                       help="restrict to these benches (repeatable)")
    p_cmp.add_argument("--alpha", type=float, default=0.05,
                       help="Mann-Whitney significance (default 0.05)")
    p_cmp.add_argument("--min-effect", type=float, default=1.10,
                       help="practical slowdown floor (default 1.10x)")
    p_cmp.add_argument("--window", type=int, default=3,
                       help="pool samples from the newest N runs "
                            "(default 3)")
    p_cmp.add_argument("--strict", action="store_true",
                       help="exit 1 on a confirmed regression")
    p_cmp.add_argument("--ignore-machine", action="store_true",
                       help="treat cross-machine comparisons as "
                            "confirmable (default: advisory only)")

    p_base = verbs.add_parser("baseline", help="manage promoted baselines")
    base_verbs = p_base.add_subparsers(dest="baseline_verb", required=True)
    p_prom = base_verbs.add_parser(
        "promote", help="promote a stored run to baseline")
    p_prom.add_argument("bench",
                        help="bench name, or 'all' for every stored bench")
    p_prom.add_argument("--run-id", default=None,
                        help="run to promote (default: the latest)")
    p_prom.add_argument("--if-missing", action="store_true",
                        help="only promote benches with no baseline yet")
    base_verbs.add_parser("show", help="print the promoted baselines")

    p_hist = verbs.add_parser("history", help="per-metric time series")
    p_hist.add_argument("bench")
    p_hist.add_argument("--metric", action="append", default=None,
                        help="restrict to these metrics (repeatable)")


# ----------------------------------------------------------------------
# bench-script discovery + invocation
# ----------------------------------------------------------------------
def _find_bench_dir(explicit: str | None) -> Path:
    if explicit:
        path = Path(explicit)
    elif os.environ.get(BENCH_DIR_ENV):
        path = Path(os.environ[BENCH_DIR_ENV])
    else:
        cwd_benchmarks = Path("benchmarks")
        if cwd_benchmarks.is_dir():
            path = cwd_benchmarks
        else:
            path = Path(__file__).resolve().parents[4] / "benchmarks"
    if not path.is_dir():
        raise FileNotFoundError(
            f"bench directory {path} not found — pass --bench-dir or set "
            f"${BENCH_DIR_ENV}"
        )
    return path


def _load_bench_main(bench_dir: Path, name: str):
    script = bench_dir / f"bench_{name}.py"
    if not script.exists():
        raise FileNotFoundError(f"no such bench: {script}")
    spec = importlib.util.spec_from_file_location(
        f"repro_bench_script_{name}", script
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not hasattr(module, "main"):
        raise AttributeError(f"{script} has no main()")
    return module.main


def _cmd_run(args) -> int:
    names = list(args.names)
    if names == ["all"]:
        names = list(GATED_BENCHES)
    bench_dir = _find_bench_dir(args.bench_dir)
    worst = 0
    for name in names:
        main = _load_bench_main(bench_dir, name)
        argv = []
        if args.smoke:
            argv.append("--smoke")
        if args.seed is not None:
            argv.extend(["--seed", str(args.seed)])
        if args.store_dir:
            argv.extend(["--store-dir", args.store_dir])
        if args.no_stat_gate:
            argv.append("--no-stat-gate")
        for i in range(args.repeat):
            print(f"=== bench {name} (invocation {i + 1}/{args.repeat}) ===")
            t0 = time.perf_counter()
            rc = int(main(list(argv)) or 0)
            print(f"=== bench {name} done in "
                  f"{time.perf_counter() - t0:.1f}s (exit {rc}) ===")
            worst = max(worst, rc)
    return worst


# ----------------------------------------------------------------------
# compare / baseline / history
# ----------------------------------------------------------------------
def _store(args) -> RunStore:
    return RunStore(args.store_dir or default_store_root())


def _cmd_compare(args) -> int:
    store = _store(args)
    report = ExperimentReport(
        store, alpha=args.alpha, min_effect=args.min_effect,
        window=args.window,
    )
    benches = args.bench or list(report.benches)
    regressed = []
    for bench in benches:
        cmp_ = report.regressions(bench)
        for line in cmp_.describe_lines():
            print(line)
        confirmed = cmp_.regressed or (
            args.ignore_machine and cmp_.advisory_regressions
            and not cmp_.machine_match
        )
        if confirmed:
            regressed.append(bench)
    if not benches:
        print(f"(run store {store.root} is empty)")
    if regressed:
        print(f"confirmed regressions: {', '.join(regressed)}",
              file=sys.stderr)
        return 1 if args.strict else 0
    print("no confirmed regressions")
    return 0


def _cmd_baseline(args) -> int:
    store = _store(args)
    registry = BaselineRegistry.for_store(store)
    if args.baseline_verb == "show":
        entries = registry.load()
        if not entries:
            print(f"(no promoted baselines in {registry.path})")
            return 0
        for bench, entry in sorted(entries.items()):
            print(f"{bench}: {entry['run_id']} "
                  f"(git {str(entry.get('git_hash'))[:12]}, "
                  f"promoted {entry.get('promoted_at', '-')})")
        return 0

    benches = store.benches() if args.bench == "all" else [args.bench]
    if not benches:
        print("nothing to promote: run store is empty", file=sys.stderr)
        return 2
    for bench in benches:
        if args.if_missing and registry.get(bench) is not None:
            print(f"{bench}: baseline already promoted, skipping")
            continue
        record = (store.get(bench, args.run_id) if args.run_id
                  else store.latest(bench))
        if record is None:
            print(f"{bench}: no stored run "
                  f"{args.run_id or '(empty history)'}", file=sys.stderr)
            return 2
        registry.promote(record)
        print(f"{bench}: promoted {record.run_id} "
              f"(git {str(record.git_hash)[:12]})")
    return 0


def _cmd_history(args) -> int:
    report = ExperimentReport(_store(args))
    metrics = args.metric or list(report.metrics(args.bench))
    if not metrics:
        print(f"(no stored runs for {args.bench!r})", file=sys.stderr)
        return 2
    for metric in metrics:
        series = report.time_series(args.bench, metric)
        if not series:
            continue
        print(f"{args.bench}.{metric}:")
        unit = "" if metric.endswith("_ratio") else "s"
        for run_id, ts, git_hash, median in series:
            stamp = time.strftime("%Y-%m-%d %H:%M", time.gmtime(ts))
            print(f"  {stamp}  {median:12.6g}{unit}  "
                  f"git={str(git_hash)[:10]}  {run_id}")
    return 0


def cmd_bench(args) -> int:
    """Dispatch for the ``bench`` subcommand."""
    try:
        if args.bench_verb == "run":
            return _cmd_run(args)
        if args.bench_verb == "compare":
            return _cmd_compare(args)
        if args.bench_verb == "baseline":
            return _cmd_baseline(args)
        if args.bench_verb == "history":
            return _cmd_history(args)
    except (FileNotFoundError, AttributeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unknown bench verb {args.bench_verb!r}")
