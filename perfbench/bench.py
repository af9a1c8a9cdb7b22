"""The benchmark's measurements: timed loops, set-up time, traces, probes."""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import workloads as wl
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 12   # before the loop, and again after it
# layer probes, at the sizes the workloads use
PROBE_WORDS = 1 << 22          # one site-stream window of sample_dense
PROBE_UNRANK_RADIUS = 6908     # choose_box_radius(1000, d), the gap box
PROBE_UNRANK_DRAWS = 1 << 16
PROBE_APPLY_REPEATS = 200
PROBE_THREAD_PAIRS = 3

# a fresh interpreter's cost before its first op: the CLI import plus
# parsing the workload's configuration
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pamlab.cli
from pamlab import config
config.parse_config("", sys.argv[2:])
print(repr(time.perf_counter() - t0))
"""


class Loop:
    """A closed loop of ops of one workload: one client, no think time."""

    def __init__(self, w, ref: dict, seed: int, out: Path):
        self.w, self.ref, self.out = w, ref, out
        self.seeds = wl.op_order(ref["seeds"], seed)
        self.used = []
        self.latencies = []
        self.failed = 0
        self.matched = 0
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.elapsed

    def op(self, tracer=None, threads: int = 1) -> float:
        """Run and check one op; returns its latency."""
        seed = self.seeds[self.attempted % len(self.seeds)]
        self.used.append(seed)
        wl.fresh_dir(self.out)

        def call():
            return wl.run_cli(self.w, seed, self.out, threads)

        t0 = time.perf_counter()
        try:
            rc = call() if tracer is None else tracer.run_op(self.attempted,
                                                              call)
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
            rc = None
        latency = time.perf_counter() - t0
        self.latencies.append(latency)
        try:
            hashes = wl.check_op(self.w, rc, self.out, self.ref, seed)
        except (ValueError, OSError, KeyError) as err:
            self.failed += 1
            print(f"{self.w.name} seed {seed}: op failed: {err}",
                  file=sys.stderr)
        else:
            self.matched += hashes == self.ref["golden"][str(seed)]
        return latency

    def run(self, seconds: float, between=None) -> "Loop":
        """Ops back to back until ``seconds`` have passed (at least one).

        ``between()`` runs after each op but the last, off the clock.
        """
        t0 = time.perf_counter()
        paused = 0.0
        while True:
            self.op()
            self.elapsed = time.perf_counter() - t0 - paused
            if self.elapsed >= seconds:
                return self
            if between is not None:
                p0 = time.perf_counter()
                between()
                paused += time.perf_counter() - p0


class SetupTimer:
    """Set-up time samples: import plus config parsing, fresh interpreters."""

    def __init__(self, w):
        self.argv = [sys.executable, "-c", SETUP_CODE, str(SRC),
                     *w.overrides, "run.master_seed=1", "run.threads=1"]
        self.times = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            done = subprocess.run(self.argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=60, check=True)
            self.times.append(float(done.stdout.split()[-1]))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(w, ref: dict, args, out: Path) -> tuple:
    """The timed loop and set-up time; the end-to-end metrics.

    Set-up is sampled in fresh interpreters before, between and after the
    ops, at least ``2 * SETUP_REPEATS`` times; ``setup_s`` is the fastest
    sample, since the host's slow spells only ever add to it.
    """
    setup = SetupTimer(w)
    setup.sample(SETUP_REPEATS)
    loop = Loop(w, ref, args.seed, out).run(args.seconds, setup.sample)
    setup.sample(SETUP_REPEATS)
    values = {
        "ops_per_s": loop.ops_per_s,
        "op_s.p50": statistics.median(loop.latencies),
        "setup_s": min(setup.times),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"workload": w.name, "ops": loop.attempted,
            "outputs_match": loop.matched / loop.attempted,
            "op_seeds": loop.used,
            "op_latencies_s": loop.latencies,
            "setup_times_s": setup.times}
    return [loop], values, info


# --- traced run --------------------------------------------------------------

def install_tracer(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics name."""
    from pamlab import (cli, config, geometry, limits, potential, randomness,
                        solver, variational)

    def written(args, path):
        return {"emit.bytes": path.stat().st_size}

    def steps(args, traj):
        accepted = getattr(traj, "accepted_steps", 0)
        rejected = getattr(traj, "rejected_steps", 0)
        return {"accepted_steps": accepted,
                "attempted_steps": accepted + rejected,
                "box_sites": args[0].size}

    t = tracer
    t.wrap_function(config, "parse_config", "config.parse_config")
    t.wrap_function(randomness, "site_exponentials",
                    "randomness.site_exponentials")
    t.wrap_function(geometry, "unrank", "geometry.unrank",
                    lambda args, coords: {"unrank.sites": np.size(args[1])})
    t.wrap_function(geometry, "build_box", "geometry.build_box")
    t.wrap_function(potential, "sample_dense", "potential.sample_dense")
    t.wrap_function(potential, "sample_exceedances",
                    "potential.sample_exceedances",
                    lambda args, f: {"records": f.size})
    t.wrap_function(variational, "psi_top2", "variational.psi_top2")
    t.wrap_function(limits, "gap_ensemble", "limits.gap_ensemble")
    t.wrap_function(solver, "integrate", "solver.integrate", steps)
    t.wrap_method(solver.GeneratorOperator, "apply", "solver.apply")
    t.wrap_function(solver, "trajectory_to_jsonl",
                    "solver.trajectory_to_jsonl")
    t.wrap_method(cli.RunWriter, "emit_text", "cli.emit", written)
    t.wrap_method(cli.RunWriter, "finalize", "cli.emit", written)


# The end-to-end metric each layer metric should move, and where:
#   potential.sample_exceedances.*, potential.records_per_seed and
#     variational.certified_ratio: ops_per_s on gap-d2 (nearly all of the
#     op) and gap-d3 (about a quarter of it).
#   geometry.unrank.*: ops_per_s on gap-d3 (about two thirds of the op).
#   variational.psi_top2.* and limits.gap_ensemble.self_s: ops_per_s on
#     gap-d2 and gap-d3; a small share until sampling gets faster.
#   solver.*, potential.sample_dense, randomness.site_exponentials and
#     geometry.build_box: op_s.p50 on solve-d2 (solver.apply about 3/4).
#   cli.emit.*: every workload, a small share.
#   config.parse_config.self_s: setup_s.
# Probes: randomness.site_words -> solve-d2; geometry.unrank.dN -> gap-d2
# and gap-d3; solver.apply.sites_per_s -> solve-d2;
# limits.threads2_speedup -> gap-d2 ops_per_s if ops ran at threads=2.

def layer_metrics(w, tracer: Tracer, loop: Loop) -> dict:
    """Per-op means of the self times and counts of a workload's traced ops.

    ``op_s`` is the mean op latency, so each self time reads as its share.
    """
    n = loop.attempted
    self_s = self_times(tracer.spans)
    calls = Counter(s.name for s in tracer.spans)
    c = tracer.counts

    def own(name):
        return self_s.get(name, 0.0) / n

    m = {"op_s": statistics.fmean(loop.latencies),
         "cli.emit.self_s": own("cli.emit"),
         "cli.emit.bytes": c["emit.bytes"] / n,
         "config.parse_config.self_s": own("config.parse_config"),
         "geometry.unrank.self_s": own("geometry.unrank"),
         "geometry.unrank.sites": c["unrank.sites"] / n}
    if w.command == "ensemble":
        seeds = n * wl.GAP_SEEDS_PER_OP
        sampled = calls["potential.sample_exceedances"]
        m.update({
            "potential.sample_exceedances.self_s":
                own("potential.sample_exceedances"),
            "potential.sample_exceedances.calls_per_seed": sampled / seeds,
            "potential.records_per_seed": c["records"] / seeds,
            "variational.certified_ratio":
                (n - loop.failed) * wl.GAP_SEEDS_PER_OP / max(sampled, 1),
            "variational.psi_top2.self_s": own("variational.psi_top2"),
            "variational.psi_top2.calls": calls["variational.psi_top2"] / n,
            "limits.gap_ensemble.self_s": own("limits.gap_ensemble"),
        })
    else:
        m.update({
            "solver.integrate.self_s": own("solver.integrate"),
            "solver.apply.self_s": own("solver.apply"),
            "solver.apply.calls": calls["solver.apply"] / n,
            "solver.accepted_steps": c["accepted_steps"] / n,
            "solver.attempted_steps": c["attempted_steps"] / n,
            "solver.box_sites": c["box_sites"] / n,
            "potential.sample_dense.self_s": own("potential.sample_dense"),
            "randomness.site_exponentials.self_s":
                own("randomness.site_exponentials"),
            "geometry.build_box.self_s": own("geometry.build_box"),
            "solver.trajectory_to_jsonl.self_s":
                own("solver.trajectory_to_jsonl"),
        })
    return {f"{w.name}.{k}": v for k, v in m.items()}


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes(seed: int, refs: dict, out: Path) -> tuple:
    """Layer throughputs at pinned sizes, untraced; plus the threads probe.

    Returns the metrics and the loops of the threads probe, whose ops count
    as attempted ops of the run.
    """
    from pamlab import geometry, potential, randomness, solver

    m = {}
    m["randomness.site_words.words_per_s"] = PROBE_WORDS / _median_time(
        lambda: randomness.site_words(seed, 1 << 30, PROBE_WORDS), 5)
    rng = np.random.default_rng(seed)
    for d in (1, 2, 3):
        total = geometry.ball_size(d, PROBE_UNRANK_RADIUS)
        idx = np.unique(rng.integers(0, total, size=PROBE_UNRANK_DRAWS))
        m[f"geometry.unrank.d{d}.sites_per_s"] = idx.size / _median_time(
            lambda: geometry.unrank(d, idx), 5)
    f = potential.sample_dense(2, solver.choose_box_radius(10.0, 2),
                               seed=refs["solve-d2"]["seeds"][0])
    op = solver.build_generator(f)
    v = rng.random(op.size)
    m["solver.apply.sites_per_s"] = op.size / _median_time(
        lambda: op.apply(v), PROBE_APPLY_REPEATS)
    # pairs of gap-d2 ops at threads=1 and threads=2, each pair on one
    # pinned seed, alternating which goes first; the median latency ratio
    gap = wl.WORKLOADS["gap-d2"]
    loops = {k: Loop(gap, refs[gap.name], seed, out) for k in (1, 2)}
    ratios = []
    for i in range(PROBE_THREAD_PAIRS):
        order = (1, 2) if i % 2 == 0 else (2, 1)
        latency = {k: loops[k].op(threads=k) for k in order}
        ratios.append(latency[1] / latency[2])
    m["limits.threads2_speedup"] = statistics.median(ratios)
    return m, list(loops.values())


def traced_op(loop: Loop, tracer: Tracer) -> float:
    """One op of ``loop`` with the wrappers installed only around it."""
    install_tracer(tracer)
    try:
        return loop.op(tracer)
    finally:
        tracer.remove()


def traced(w, refs: dict, args, out: Path) -> tuple:
    """The per-layer metrics of every workload, the overhead, the probes.

    ``w`` runs pairs of ops on the same pinned seed for ``args.seconds``,
    one untraced and one traced, alternating which goes first; the ratio
    of their mean latencies is the tracing overhead.  Every other workload
    runs one traced op, so that each traced run reports the same metrics
    whichever workload it was asked for.
    """
    spans_path = WORK / f"spans-{w.name}-seed{args.seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    tracers = {name: Tracer() for name in wl.WORKLOADS}
    loops = {name: Loop(other, refs[name], args.seed, out)
             for name, other in wl.WORKLOADS.items()}
    untraced = Loop(w, refs[w.name], args.seed, out)
    t0 = time.perf_counter()
    while True:
        pair = [untraced.op,
                lambda: traced_op(loops[w.name], tracers[w.name])]
        if untraced.attempted % 2:
            pair.reverse()
        for step in pair:
            step()
        if time.perf_counter() - t0 >= args.seconds:
            break
    values = {}
    for name, other in wl.WORKLOADS.items():
        if other is not w:
            traced_op(loops[name], tracers[name])
        values.update(layer_metrics(other, tracers[name], loops[name]))
        tracers[name].write_jsonl(spans_path, name)
    values["trace.ops_per_s_ratio"] = (
        statistics.fmean(untraced.latencies)
        / statistics.fmean(loops[w.name].latencies))
    probe_values, probe_loops = probes(args.seed, refs, out)
    values.update(probe_values)
    info = {"workload": w.name, "spans": str(spans_path.relative_to(ROOT))}
    return ([untraced, *loops.values(), *probe_loops],
            values, info)
