"""Batch front-end: subcommands, run records, and file emission.

Exit codes: 0 success, 2 config error, 3 resource-cap violation,
4 numerical failure.  Every emitted data file is listed (with its SHA-256)
in the run record; data files contain no timestamps, so a rerun with the
same config reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, config as cfgmod, limits, randomness, variational
from .config import ExperimentConfig
from .errors import ConfigError, NumericalError, PamlabError, ResourceCapError
from .geometry import ball_size
from .oracle import dense_exponential_oracle
from .potential import (DistributionSpec, PotentialField, certify, order_stats,
                        sample_dense, sample_exceedances, write_field_binary,
                        write_field_text)
from .solver import (choose_box_radius, growth_rate, integrate,
                     localization_site, mass_within, trajectory_to_jsonl)

OUTPUT_ROOT_ENV = "PAMLAB_OUTPUT_ROOT"


def _spec_for(cfg: ExperimentConfig) -> DistributionSpec:
    return DistributionSpec(cfg.family, cfg.family_param)


def _out_dir(cfg: ExperimentConfig, cli_out) -> Path:
    out = Path(cli_out) if cli_out else Path(cfg.output_dir)
    if not out.is_absolute():
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root:
            out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


class RunWriter:
    """Collects emitted files and finalizes the run record."""

    def __init__(self, cfg: ExperimentConfig, out: Path, command: str):
        self.cfg = cfg
        self.out = out
        self.command = command
        self.files = []
        self.started = time.time()

    def emit_text(self, name: str, text: str) -> Path:
        path = self.out / name
        path.write_text(text, encoding="utf-8")
        self._register(path)
        return path

    def register(self, path: Path) -> None:
        self._register(path)

    def _register(self, path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.files.append({"path": path.name, "sha256": digest,
                           "bytes": path.stat().st_size})

    def finalize(self) -> Path:
        record = {
            "command": self.command,
            "config_hash": cfgmod.config_hash(self.cfg),
            "artifact_version": __version__,
            "started_at": self.started,
            "finished_at": time.time(),
            "files": self.files,
        }
        path = self.out / "run_record.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path


def cmd_sample(cfg: ExperimentConfig, out: Path) -> int:
    writer = RunWriter(cfg, out, "sample")
    spec = _spec_for(cfg)
    if cfg.sample_threshold is None:
        f = sample_dense(cfg.dimension, cfg.sample_radius, spec,
                         cfg.master_seed, memory_gib=cfg.memory_gib)
    else:
        f = sample_exceedances(cfg.dimension, cfg.sample_radius,
                               cfg.sample_threshold, cfg.master_seed,
                               spec=spec, method=cfg.sample_method,
                               record_cap=cfg.record_cap)
    write_field_text(f, out / "field.txt")
    write_field_binary(f, out / "field.bin")
    writer.register(out / "field.txt")
    writer.register(out / "field.bin")
    k = min(10, f.values.shape[0])
    table = order_stats(f, k).entries if k else []
    print(f"sites: {f.values.shape[0]}")
    if k:
        print(f"max value: {f.values.max():.6g}")
        for rank_, value, site in table:
            print(f"  M({rank_}) = {value:.6g} at {site}")
    writer.finalize()
    return 0


def cmd_solve(cfg: ExperimentConfig, out: Path) -> int:
    writer = RunWriter(cfg, out, "solve")
    d = cfg.dimension
    radius = choose_box_radius(cfg.solve_t_end, d, cfg.box_policy)
    if cfg.solve_zero_potential:
        f = PotentialField.from_values(
            d, radius, np.zeros(ball_size(d, radius)), _spec_for(cfg),
            cfg.master_seed)
    else:
        f = sample_dense(d, radius, _spec_for(cfg), cfg.master_seed,
                         memory_gib=cfg.memory_gib)
    times = list(cfg.solve_output_times) or [cfg.solve_t_end]
    traj = integrate(f, cfg.solve_t_end, times, tol=cfg.tol)
    final = traj.profiles[-1]
    site = localization_site(final)
    summary = {
        "t": final.time,
        "L_t": growth_rate(final) if final.time > 0 else None,
        "argmax": [int(c) for c in site],
        "boundary_mass_bound": traj.boundary_mass_bound,
        "accepted_steps": traj.accepted_steps,
        "matvecs": traj.matvecs,
        "concentration": {},
    }
    if final.time > variational.T_DOMAIN_MIN:
        r_t = variational.scale(final.time, d).r_t
        for delta in cfg.solve_deltas:
            summary["concentration"][f"{delta:g}"] = mass_within(
                final, site, delta * r_t)
    if f.size == 1:
        exact = (float(f.values[0]) - 2 * d) * final.time
        resid = abs(final.log_mass - exact)
        print(f"single-site closed form: logMass {final.log_mass:.12g} "
              f"expected {exact:.12g} residual {resid:.3g}")
        if resid > 100 * cfg.tol * max(1.0, abs(exact)):
            raise NumericalError("single-site closed-form check failed")
    elif f.size <= 200:
        ref = dense_exponential_oracle(f, final.time)
        resid = abs(final.log_mass - ref.log_mass) / max(1.0, abs(ref.log_mass))
        summary["oracle_residual"] = resid
        print(f"oracle residual: {resid:.3g}")
    writer.emit_text("trajectory.jsonl", trajectory_to_jsonl(
        traj, radii=[1.0, 2.0, 5.0]))
    writer.emit_text("solve_summary.json",
                     json.dumps(summary, sort_keys=True) + "\n")
    print(f"L_t = {summary['L_t']}; argmax {summary['argmax']}")
    writer.finalize()
    return 0


def cmd_variational(cfg: ExperimentConfig, out: Path) -> int:
    writer = RunWriter(cfg, out, "variational")
    d = cfg.dimension
    t = cfg.variational_t
    r, u0 = variational.sparse_start(t, d, cfg.variational_threshold)
    rows = [variational.CSV_HEADER]
    jsonl = []

    def summarize(f):
        summary = variational.variational_summary(f, t, c=cfg.variational_c)
        variational.require_certified(summary.top2)
        return summary

    for i in range(cfg.variational_n_seeds):
        seed = randomness.spawn_seed(cfg.master_seed, 21, i)
        _, summary = certify(summarize, d, r, u0, seed, spec=_spec_for(cfg),
                             record_cap=cfg.record_cap)
        rows.append(variational.summary_csv_row(seed, summary))
        jsonl.append(summary.to_json())
    writer.emit_text("variational.csv", "\n".join(rows) + "\n")
    writer.emit_text("variational.jsonl", "\n".join(jsonl) + "\n")
    print(f"{cfg.variational_n_seeds} summaries at t={t}")
    writer.finalize()
    return 0


def cmd_ensemble(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.family != "exponential":
        raise ConfigError("ensemble laws hold for the exponential potential"
                          f" only; run.family is {cfg.family}")
    writer = RunWriter(cfg, out, "ensemble")
    kind = cfg.ensemble_kind
    d, t = cfg.dimension, cfg.ensemble_t
    n = cfg.ensemble_n_seeds
    seed = cfg.master_seed
    threads = cfg.threads
    if kind == "gap":
        rec = limits.gap_ensemble(d, t, n, seed,
                                  threshold=cfg.ensemble_threshold,
                                  threads=threads)
        law = limits.LimitLaw("std_exponential")
    elif kind == "location":
        rec = limits.location_ensemble(d, t, n, seed,
                                       threshold=cfg.ensemble_threshold,
                                       threads=threads)
        law = limits.LimitLaw("laplace_product", d)
    elif kind == "gumbel":
        rec = limits.gumbel_ensemble(d, t, n, seed, proxy=cfg.ensemble_proxy,
                                     threshold=cfg.ensemble_threshold,
                                     tol=cfg.tol, threads=threads)
        law = limits.LimitLaw("gumbel_pam", d)
    elif kind == "concentration":
        grid = list(cfg.ensemble_t_grid) or [t]
        rec = limits.concentration_ensemble(d, grid, cfg.ensemble_delta, n,
                                            seed, tol=cfg.tol, threads=threads)
        law = None
    else:
        rec = limits.disconnected_check(d, cfg.ensemble_n, cfg.ensemble_rho,
                                        n, seed, threads=threads)
        law = None
    writer.emit_text(f"ensemble_{kind}.jsonl", rec.to_jsonl())
    writer.emit_text(f"ensemble_{kind}_summary.json",
                     rec.summary_json() + "\n")
    if law is not None and rec.samples.ndim == 1:
        writer.emit_text(f"ensemble_{kind}_ecdf.csv",
                         limits.ecdf_csv(rec.samples, law))
    print(rec.summary_json())
    writer.finalize()
    return 0


def _report_row(kind: str, summary: dict, cfg: ExperimentConfig):
    """Pass/fail against the configured tolerances, one row per record."""
    tests = summary.get("tests", {})
    if kind == "gap":
        value = tests.get("ks_distance")
        ok = value is not None and value <= cfg.report_gap_ks_max
        return ("gap vs Exp(1) spacing law", value, ok)
    if kind == "location":
        dists = tests.get("ks_distance_per_coord", [])
        band = cfg.report_sign_fraction_band
        ok = (bool(dists) and max(dists) <= cfg.report_location_ks_max
              and band[0] <= tests.get("sign_fraction", -1) <= band[1]
              and all(abs(c) <= cfg.report_correlation_max
                      for c in tests.get("intercoordinate_correlation", [])))
        return ("location vs product-exponential law",
                max(dists) if dists else None, ok)
    if kind == "gumbel":
        return ("centered growth statistic (qualitative)",
                tests.get("ks_distance"), None)
    if kind == "concentration":
        medians = tests.get("median_per_t", [])
        ok = (bool(medians)
              and all(b >= a - 1e-12 for a, b in zip(medians, medians[1:]))
              and medians[-1] >= cfg.report_concentration_min)
        return ("mass concentration near the penalized argmax",
                medians[-1] if medians else None, ok)
    if kind == "disconnected":
        value = tests.get("frequency")
        ok = value is not None and value >= cfg.report_disconnected_min
        return ("top-site set totally disconnected", value, ok)
    return (kind, None, None)


def cmd_report(cfg: ExperimentConfig, run_dir: Path, out: Path) -> int:
    writer = RunWriter(cfg, out, "report")
    rows = []
    for path in sorted(run_dir.glob("**/ensemble_*_summary.json")):
        summary = json.loads(path.read_text())
        kind = summary.get("statistic")
        label, value, ok = _report_row(kind, summary, cfg)
        rows.append({
            "statistic": kind,
            "label": label,
            "value": value,
            "pass": ok,
            "t": summary.get("t"),
            "d": summary.get("d"),
            "n_seeds": summary.get("n_seeds"),
            "source": str(path.relative_to(run_dir)),
        })
    writer.emit_text("report.json", json.dumps(rows, indent=2,
                                               sort_keys=True) + "\n")
    lines = ["statistic,label,value,pass,t,d,n_seeds"]
    for r in rows:
        lines.append(f"{r['statistic']},{r['label']},{r['value']},"
                     f"{r['pass']},{r['t']},{r['d']},{r['n_seeds']}")
    writer.emit_text("report.csv", "\n".join(lines) + "\n")
    for r in rows:
        state = {True: "PASS", False: "FAIL", None: "INFO"}[r["pass"]]
        print(f"[{state}] {r['label']}: {r['value']}")
    print(f"{len(rows)} record(s)")
    writer.finalize()
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pamlab",
        description="desk-scale lattice heat flow in random potential")
    p.add_argument("command", choices=["sample", "solve", "variational",
                                       "ensemble", "report"])
    p.add_argument("run_dir", nargs="?", default=None,
                   help="existing run directory (report only)")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--override", action="append", default=[],
                   metavar="SECTION.KEY=VALUE")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text() if args.config else ""
        overrides = list(args.override)
        if args.seed is not None:
            overrides.append(f"run.master_seed={args.seed}")
        if args.threads is not None:
            overrides.append(f"run.threads={args.threads}")
        cfg = cfgmod.parse_config(text, overrides)
        out = _out_dir(cfg, args.out)
        if args.command == "sample":
            return cmd_sample(cfg, out)
        if args.command == "solve":
            return cmd_solve(cfg, out)
        if args.command == "variational":
            return cmd_variational(cfg, out)
        if args.command == "ensemble":
            return cmd_ensemble(cfg, out)
        run_dir = Path(args.run_dir) if args.run_dir else out
        return cmd_report(cfg, run_dir, out)
    except (ConfigError, FileNotFoundError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ResourceCapError as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return 3
    except (NumericalError, PamlabError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
