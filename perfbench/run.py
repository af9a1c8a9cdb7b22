"""pamlab benchmark: closed-loop CLI ops, checked outputs, per-layer traces.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload gap-d2 --seed 1 --seconds 45 --trace 0

One client runs ops back to back, in this process, for ``--seconds``; every
op's outputs are checked.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of the workload.  ``--trace 1`` reports the
per-layer metrics: for ``--seconds`` it runs pairs of ops of the workload,
one untraced and one traced; then one traced op of every other workload and
the layer probes.  It writes the spans to ``.perfbench_work/``.
``--workload all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_pamlab() -> bool:
    """Import pamlab from this checkout's ``src``; False if it is not there."""
    if not (SRC / "pamlab" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import pamlab
    return Path(pamlab.__file__).resolve().parent == SRC / "pamlab"


def units() -> dict:
    """Each metric's unit, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(names, args) -> int:
    """Every workload in its own process; prints each one's result line."""
    status = 0
    for name in names:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}")
        if done.returncode or not lines:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_pamlab():
        print(f"perfbench: no pamlab sources under {SRC}", file=sys.stderr)
        return 2
    import bench
    import workloads as wl

    if args.workload == "all":
        return run_all(list(wl.WORKLOADS), args)
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from"
              f" {', '.join(wl.WORKLOADS)} or all", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    refs = wl.load_reference()
    out = bench.WORK / f"{w.name}-{os.getpid()}"
    try:
        if args.trace:
            loops, values, info = bench.traced(w, refs, args, out)
        else:
            loops, values, info = bench.end_to_end(w, refs[w.name], args, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    failed = sum(lp.failed for lp in loops)
    print(json.dumps(info))
    unit = units()
    for name, value in values.items():
        print(f"{w.name} {name} = {value:.6g} {unit[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(lp.attempted for lp in loops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
