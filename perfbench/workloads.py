"""The benchmark's workloads: the CLI arguments of one op and its checks.

Each op is one in-process ``pamlab.cli.main`` call with ``threads=1``.  Its
master seed comes from a pinned pool (``reference.json``), so every op's
outputs can be checked against stored reference values.  Which pool seeds a
run uses, and in which order, follows from the benchmark's ``--seed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from pamlab import cli, geometry

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

GAP_SEEDS_PER_OP = 8
SOLVE_TOL = 1e-9
SOLVE_TIMES = (2.5, 5.0, 7.5, 10.0)
REL_TOL = 1e-6

# captured before any tracer wraps it; clearing it makes every solve op
# build its box, as one `pamlab solve` process does
_BUILD_BOX = geometry.build_box


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    overrides: tuple

    def argv(self, seed: int, out: Path, threads: int = 1) -> list:
        args = [self.command, "--seed", str(seed), "--out", str(out),
                "--threads", str(threads)]
        for item in self.overrides:
            args += ["--override", item]
        return args


def _gap(d: int) -> Workload:
    return Workload(
        name=f"gap-d{d}", command="ensemble",
        overrides=("ensemble.kind=gap", f"run.dimension={d}",
                   "ensemble.t=1000", f"ensemble.n_seeds={GAP_SEEDS_PER_OP}"))


# gap-d2 is dominated by exceedance sampling (53k records from 95M sites),
# gap-d3 by unranking (471k records from 4.4e11 sites, a 9x larger working
# set), and solve-d2 by the dense generator's matvecs with no sparse sampling
# at all; a change to one of these layers should leave the others' workloads
# unmoved.
WORKLOADS = {w.name: w for w in (
    _gap(2),
    _gap(3),
    Workload(
        name="solve-d2", command="solve",
        overrides=("run.dimension=2", "solve.t_end=10",
                   "solve.output_times=" + ",".join(map(str, SOLVE_TIMES)),
                   f"solver.tol={SOLVE_TOL!r}")),
)}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def op_order(pool: list, seed: int) -> list:
    """The pool seeds in the order the ops of benchmark seed ``seed`` use."""
    return random.Random(seed).sample(pool, len(pool))


def run_cli(w: Workload, seed: int, out: Path, threads: int = 1) -> int:
    """One op: the CLI call alone, its console output discarded."""
    if w.command == "solve":
        _BUILD_BOX.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(w.argv(seed, out, threads))


def data_hashes(out: Path) -> dict:
    """SHA-256 of every file the run record lists, checked against disk.

    Raises ValueError when a listed digest does not match its file.
    """
    record = json.loads((out / "run_record.json").read_text())
    hashes = {}
    for entry in record["files"]:
        data = (out / entry["path"]).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != entry["sha256"]:
            raise ValueError(f"{entry['path']}: digest differs from record")
        hashes[entry["path"]] = digest
    return hashes


def check_gap(out: Path) -> None:
    """All seeds present with a finite gap >= 0 (the CLI fails otherwise)."""
    rows = [json.loads(line) for line in
            (out / "ensemble_gap.jsonl").read_text().splitlines()]
    if len(rows) != GAP_SEEDS_PER_OP:
        raise ValueError(f"{len(rows)} gap rows, expected {GAP_SEEDS_PER_OP}")
    for row in rows:
        gap = row["sample"]
        if not (isinstance(gap, float) and math.isfinite(gap) and gap >= 0.0):
            raise ValueError(f"gap {gap!r} is not finite and >= 0")


def solve_values(out: Path) -> list:
    """t, L_t = logMass / t and argmax at each output time of a solve op."""
    lines = (out / "trajectory.jsonl").read_text().splitlines()
    return [{"t": row["t"], "L_t": row["logMass"] / row["t"],
             "argmax": row["argmax"]} for row in map(json.loads, lines)]


def check_solve(out: Path, expected: list) -> None:
    """Boundary bound under tol; L_t and argmax match the reference."""
    summary = json.loads((out / "solve_summary.json").read_text())
    if not summary["boundary_mass_bound"] < SOLVE_TOL:
        raise ValueError(
            f"boundary mass bound {summary['boundary_mass_bound']} >= tol")
    got = solve_values(out)
    if len(got) != len(expected):
        raise ValueError(f"{len(got)} output times, expected {len(expected)}")
    for row, ref in zip(got, expected):
        if row["t"] != ref["t"]:
            raise ValueError(f"output time {row['t']} != {ref['t']}")
        if not math.isclose(row["L_t"], ref["L_t"], rel_tol=REL_TOL,
                            abs_tol=0.0):
            raise ValueError(
                f"L_t {row['L_t']!r} at t={row['t']} != {ref['L_t']!r}")
        if row["argmax"] != ref["argmax"]:
            raise ValueError(f"argmax {row['argmax']} at t={row['t']}"
                             f" != {ref['argmax']}")


def check_op(w: Workload, rc: int, out: Path, ref: dict, seed: int) -> dict:
    """Check one op's outputs; returns its data-file hashes.

    Raises ValueError (or OSError, KeyError) when the op is wrong.
    """
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    hashes = data_hashes(out)
    if w.command == "solve":
        check_solve(out, ref["solve"][str(seed)])
    else:
        check_gap(out)
    return hashes


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
