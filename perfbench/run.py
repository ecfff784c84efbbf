"""PivotScale clique-counting benchmark: one command per workload run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload clique-rich --seed 1 --seconds 12 --trace 0

The command byte-compiles the program, takes several set-up samples in
fresh processes, then runs the measured closed loop in one more fresh
process (``PYTHONHASHSEED`` fixed, program imported from ``src/``).
It prints context lines and, last, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  See ``perfbench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("clique-rich", "sparse-wide", "clique-rich-pool",
                  "edge-stream")
#: Fresh-process set-up samples taken before the measured run (whose own
#: set-up is one more sample).
SETUP_PROBES = 3
#: Wall-clock budget for the whole command; children that would overrun
#: it are killed, so a run always ends within its time limit.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def _child(role: str, args, deadline: float) -> tuple[list[str], dict]:
    """Run one child role; return its context lines and JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {role} child")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A session of its own, so a timeout kills the child's pool workers
    # along with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{role} child timed out after {timeout:.0f} s") \
            from exc
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err)
        raise BenchError(f"{role} child exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "probe", "measure"),
                   default="main", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role != "main":
        from bench import child_main

        child_main(args.role, args.workload, args.seed, args.seconds,
                   bool(args.trace))
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        # Byte-compile once, so no set-up sample pays for compilation.
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src" / "repro")], check=True,
                       capture_output=True, timeout=BUDGET_S / 2)
        setups = [_child("probe", args, deadline)[1]["setup"]
                  for _ in range(SETUP_PROBES)]
        lines, raw = _child("measure", args, deadline)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    setups.append(raw["setup"])
    from bench import summarize

    metrics = summarize(raw, setups, bool(args.trace))
    attempted, failed = raw["attempted"], raw["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
