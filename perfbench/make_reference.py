"""Regenerate ``reference.json``: the pinned op seeds and their outputs.

Run from the root of a source checkout::

    python3 perfbench/make_reference.py

For every pinned seed of every workload it runs one op and stores the
SHA-256 of each data file.  For solve-d2 it also stores L_t and the argmax
at each output time, which every solve op is checked against.  Run it only
when the reference itself must change, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import import_pamlab

# pool sizes: each run draws its ops from these, so a run of ten seeds
# covers most of a pool
POOL = {"gap-d2": 16, "gap-d3": 12, "solve-d2": 24}


def main() -> int:
    if not import_pamlab():
        print("no pamlab sources under src/", file=sys.stderr)
        return 2
    import bench
    import workloads as wl

    out = bench.WORK / "reference"
    reference = {}
    try:
        for name, size in POOL.items():
            w = wl.WORKLOADS[name]
            entry = {"seeds": list(range(1, size + 1)), "golden": {}}
            if w.command == "solve":
                entry["solve"] = {}
            for seed in entry["seeds"]:
                wl.fresh_dir(out)
                rc = wl.run_cli(w, seed, out)
                if rc != 0:
                    raise SystemExit(f"{name} seed {seed}: exit code {rc}")
                entry["golden"][str(seed)] = wl.data_hashes(out)
                if w.command == "solve":
                    entry["solve"][str(seed)] = wl.solve_values(out)
                wl.check_op(w, rc, out, entry, seed)
                print(f"{name} seed {seed} done", flush=True)
            reference[name] = entry
    finally:
        shutil.rmtree(out, ignore_errors=True)
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1,
                                            sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
