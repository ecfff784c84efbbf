"""Observability overhead benchmark (real wall-clock timing).

The observability layer's contract is that **disabled is free**: every
hook the engines call when metrics are off costs one boolean check per
run or per root, never per recursion node.  This bench holds that
contract to a number.  Two entry points:

* ``pytest benchmarks/bench_obs.py`` — the no-op fast-path unit tests
  (``span()`` hands out the shared singleton, a disabled registry
  records nothing);
* ``python benchmarks/bench_obs.py [--smoke]`` — times a k=3..10
  counting sweep three ways: with the obs hooks monkeypatched out
  entirely (the "layer does not exist" baseline), with the shipped
  disabled hooks (what every user runs), and with metrics enabled (for
  the record; not gated).  Writes ``BENCH_obs.json`` and exits nonzero
  if the disabled-hook overhead exceeds the <5% gate.

The gate reads the *median* of the paired per-repeat ratios
(disabled_i / stripped_i), not the ratio of the two variants' minima.
A shared host's speed can drift by up to 2x within tens of
milliseconds, about one sweep: timed a whole sweep per variant, one
lucky or unlucky repeat moved the minima's ratio by several points
(three smoke runs of unchanged code read +4.9%, -0.7% and -1.0%).  So
the variants take turns per count call (a few milliseconds each), each
repeat's sweep time is the sum of its calls, and the median of many
such pairs moves with the code only.
"""

import argparse
import statistics
import sys
from contextlib import contextmanager, nullcontext

from repro import obs
from repro.bench.harness import (
    Table,
    fmt_seconds,
    time_interleaved,
    write_json_artifact,
)
from repro.bench.platform import add_store_args, store_and_check
from repro.counting import count_kcliques
from repro.graph.generators import erdos_renyi
from repro.obs import NOOP_METRIC, NOOP_SPAN, MetricsRegistry
from repro.ordering import core_ordering

#: Acceptance: the shipped disabled hooks may cost at most this much
#: over a build with no observability layer at all.
OVERHEAD_GATE_PCT = 5.0

KS = tuple(range(3, 11))


# ----------------------------------------------------------------------
# pytest suite: the no-op fast path, pinned as unit tests
# ----------------------------------------------------------------------
def test_noop_span_fast_path():
    """Disabled ``span()`` returns the shared singleton — no per-span
    allocation, no records, no clock reads."""
    assert not obs.enabled()
    s = obs.span("anything", engine="sct", k=8)
    assert s is NOOP_SPAN
    assert obs.span("other") is s
    with s as inner:
        inner.event("ignored")
    assert obs.get_tracer().records == []


def test_disabled_registry_noop_metric_fast_path():
    reg = MetricsRegistry(enabled=False)
    assert reg.counter("kernel_calls_total", kernel="bigint") is NOOP_METRIC
    reg.counter("x").inc(10**18)
    assert len(reg) == 0


def test_disabled_hooks_record_nothing():
    obs.degradation("sampling")
    obs.checkpoint_write()
    obs.note_memory(1 << 30)
    assert len(obs.get_registry()) == 0
    assert obs.get_tracer().records == []
    assert obs.get_profiler().phases == {}


# ----------------------------------------------------------------------
# standalone overhead gate (CI smoke)
# ----------------------------------------------------------------------
class _StubSpan:
    """What "no observability layer" would cost: a bare context."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def event(self, name, **attrs):
        pass


_STUB = _StubSpan()

#: The obs attributes the engines touch on the hot (per-run / per-root)
#: path; the baseline replaces them with minimal stand-ins.
_HOOKS = {
    "span": lambda name, **attrs: _STUB,
    "phase": lambda name: _STUB,
    "event": lambda name, **attrs: None,
    "note_memory": lambda peak: None,
    "record_run": lambda counters, **kw: None,
    "record_counters": lambda counters, **kw: None,
    "record_memo": lambda hits, misses, node_hits, node_misses, **kw: None,
    "record_ordering": lambda ordering: None,
    "kernel_tally": lambda: None,
    "record_kernel_calls": lambda calls: None,
    "degradation": lambda rung, **attrs: None,
    "checkpoint_write": lambda **kw: None,
}


@contextmanager
def _stripped_hooks():
    """The obs hooks monkeypatched out entirely, for the block."""
    saved = {name: getattr(obs, name) for name in _HOOKS}
    for name, stub in _HOOKS.items():
        setattr(obs, name, stub)
    try:
        yield
    finally:
        for name, hook in saved.items():
            setattr(obs, name, hook)


def _paired_pct(samples, name):
    """Overhead of ``name`` over the stripped baseline, in percent: the
    median of the paired per-repeat ratios."""
    ratios = [a / b for a, b in zip(samples[name], samples["stripped"])]
    return (statistics.median(ratios) - 1.0) * 100.0


def run_obs_bench(*, n, p, seed, number, repeats, out_path,
                  store_args=None):
    """Time the k-sweep stripped vs. disabled vs. enabled.

    Returns the payload dict (also written to ``out_path``); the
    ``gate`` entry records whether the shipped disabled hooks stayed
    under :data:`OVERHEAD_GATE_PCT` percent overhead on the whole
    sweep.
    """
    g = erdos_renyi(n, p, seed=seed)
    ordering = core_ordering(g)

    calls = [
        lambda k=k: count_kcliques(g, k, ordering).count for k in KS
    ]

    def sweep():
        return sum(call() for call in calls)

    variants = {
        "stripped": _stripped_hooks,
        "disabled": nullcontext,
        "enabled": obs.collecting,
    }

    assert not obs.enabled(), "bench must start from the shipped default"
    # Warm once (ordering caches, allocator) so no arm pays setup, and
    # pin the contract the timing rests on: observation never changes
    # counts.
    checksum = sweep()
    for context in variants.values():
        with context():
            assert sweep() == checksum

    samples = time_interleaved(
        variants, dict.fromkeys(variants, calls), number=number,
        repeats=repeats,
    )
    t_stripped = min(samples["stripped"])
    t_disabled = min(samples["disabled"])
    t_enabled = min(samples["enabled"])

    overhead_pct = _paired_pct(samples, "disabled")
    enabled_pct = _paired_pct(samples, "enabled")
    gate_pass = overhead_pct < OVERHEAD_GATE_PCT

    table = Table(
        title=f"observability overhead, k={KS[0]}..{KS[-1]} sweep "
              f"(n={n}, p={p})",
        columns=["variant", "min sweep(s)", "median paired ratio"],
    )
    table.add("hooks stripped", fmt_seconds(t_stripped), "1.000x")
    table.add("disabled (shipped)", fmt_seconds(t_disabled),
              f"{1 + overhead_pct / 100:.3f}x")
    table.add("metrics enabled", fmt_seconds(t_enabled),
              f"{1 + enabled_pct / 100:.3f}x")
    table.note(
        f"gate: disabled overhead {overhead_pct:+.2f}% < "
        f"{OVERHEAD_GATE_PCT:.0f}% -> {'PASS' if gate_pass else 'FAIL'}"
    )
    table.note("enabled-path cost is informational (opt-in, not gated)")
    table.show()

    payload = {
        "bench": "obs",
        "config": {"n": n, "p": p, "seed": seed, "ks": list(KS),
                   "number": number, "repeats": repeats},
        "sweep_seconds": {
            "stripped": t_stripped,
            "disabled": t_disabled,
            "enabled": t_enabled,
        },
        "overhead_pct": {
            "disabled": round(overhead_pct, 3),
            "enabled": round(enabled_pct, 3),
        },
        "gate": {"threshold_pct": OVERHEAD_GATE_PCT, "pass": gate_pass},
    }
    artifact = write_json_artifact(out_path, payload)
    print(f"wrote {artifact}")

    # Run-store migration: the stored metric of record is the *paired*
    # per-repeat overhead ratio (disabled_i / stripped_i — interleaving
    # makes repeat i comparable across variants), plus the raw variant
    # samples; exact work counters come from one instrumented sweep.
    store_samples = {
        "stripped_s": samples["stripped"],
        "disabled_s": samples["disabled"],
        "enabled_s": samples["enabled"],
        "overhead_ratio": [
            d / s for d, s in zip(samples["disabled"], samples["stripped"])
        ],
    }
    with obs.collecting() as registry:
        sweep()
    _, comparison, store_rc = store_and_check(
        "obs", payload, store_samples, seed=seed, args=store_args,
        registry=registry,
    )
    payload["store_result"] = {
        "regressed": bool(comparison.regressed) if comparison else False,
        "exit": store_rc,
    }
    return payload


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="disabled-observability overhead gate")
    ap.add_argument("--smoke", action="store_true",
                    help="small graph, few repeats (CI)")
    ap.add_argument("--out", default="BENCH_obs.json",
                    help="JSON artifact path (default: %(default)s)")
    ap.add_argument("--n", type=int, default=None,
                    help="graph size (default: 150 full, 70 smoke)")
    ap.add_argument("--p", type=float, default=None,
                    help="edge probability (default: 0.3)")
    ap.add_argument("--seed", type=int, default=7)
    add_store_args(ap)
    args = ap.parse_args(argv)

    if args.smoke:
        cfg = dict(n=args.n or 70, p=args.p or 0.3, seed=args.seed,
                   number=1, repeats=31)
    else:
        cfg = dict(n=args.n or 150, p=args.p or 0.3, seed=args.seed,
                   number=1, repeats=31)

    payload = run_obs_bench(out_path=args.out, store_args=args, **cfg)
    if not payload["gate"]["pass"]:
        print("FAIL: disabled observability hooks exceeded the "
              f"{OVERHEAD_GATE_PCT:.0f}% overhead gate", file=sys.stderr)
        return 1
    return payload["store_result"]["exit"]


if __name__ == "__main__":
    raise SystemExit(main())
