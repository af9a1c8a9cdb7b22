"""Record a baseline: two sets of benchmark runs summarized into baseline.json.

Run from the root of a source checkout::

    python3 perfbench/collect.py --runs 10

Every workload of BENCHMARK.json runs ``--runs`` times untraced with seeds
1..runs, then ``--runs`` times again with the next seeds; each run is its
own process of ``run_seconds``.  For each set, every end-to-end metric gets
its median, quartiles and spread (quartile distance over median); the drift
is how much worse the second set's median is than the first's, as a share
of the first.  A spread (but that of ``setup_s``) or a drift above the
metric's bound is printed as over.  Then each workload runs once traced,
for the per-layer numbers and the tracing overhead.  The machine, Python
and numpy versions are recorded alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: {json.dumps(result)}",
          flush=True)
    return result


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "values": values}


def drift(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    worse = second - first if better == "lower" else first - second
    return worse / first


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    import numpy
    report = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "runs": args.runs, "seconds": seconds,
        "end_to_end": {w: {"sets": []} for w in workloads}, "traced": {},
    }
    for k in range(SETS):
        seeds = range(k * args.runs + 1, (k + 1) * args.runs + 1)
        for w in workloads:
            results = [run_once(w, seed, seconds, 0) for seed in seeds]
            report["end_to_end"][w]["sets"].append({
                "seeds": list(seeds),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {name: summarize([r["metrics"][name]["value"]
                                             for r in results])
                            for name in metrics}})
    for w in workloads:
        result = run_once(w, 1, seconds, 1)
        report["traced"][w] = {
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}
    for w, entry in report["end_to_end"].items():
        first, last = entry["sets"][0]["metrics"], entry["sets"][-1]["metrics"]
        entry["drift"] = {name: drift(first[name]["median"],
                                      last[name]["median"], m["better"])
                          for name, m in metrics.items()}
        for name, m in metrics.items():
            sets = [s["metrics"][name] for s in entry["sets"]]
            spreads = [s["spread"] for s in sets]
            over = entry["drift"][name] > m["bound"] or (
                name != "setup_s" and max(spreads) > m["bound"])
            medians = " ".join(f"{s['median']:.6g}" for s in sets)
            print(f"{w:9s} {name:12s} medians {medians} {m['unit']}"
                  f"  spreads {' '.join(f'{x:.4f}' for x in spreads)}"
                  f"  drift {entry['drift'][name]:+.4f}  bound {m['bound']}"
                  f"{'  OVER' if over else ''}")
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
