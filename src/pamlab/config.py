"""Experiment configuration: sectioned key-value text, canonical hashing.

Configs are INI text.  Parsing produces a typed ExperimentConfig; dumping
produces a canonical form (sorted sections and keys, normalized value
formatting) whose SHA-256 identifies the experiment, so two textually
different but semantically equal configs hash identically.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import re
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .errors import ConfigError

_DEFAULTS = {
    "run": {
        "dimension": "1",
        "family": "exponential",
        "family_param": "",
        "master_seed": "1",
        "output_dir": "run",
        "threads": "1",
    },
    "resources": {
        "memory_gib": "2.0",
        "record_cap": "10000000",
    },
    "solver": {
        "tol": "1e-9",
        "box_policy": "default",
    },
    "sample": {
        "radius": "100",
        "threshold": "",
        "method": "auto",
    },
    "solve": {
        "t_end": "5.0",
        "output_times": "",
        "deltas": "0.5",
        "zero_potential": "false",
    },
    "variational": {
        "t": "100.0",
        "c": "1.0",
        "n_seeds": "4",
        "threshold": "",
    },
    "ensemble": {
        "kind": "gap",
        "t": "1000.0",
        "t_grid": "",
        "n_seeds": "64",
        "delta": "0.5",
        "rho": "0.4",
        "n": "10000",
        "proxy": "variational",
        "threshold": "",
    },
    "report": {
        "gap_ks_max": "0.05",
        "location_ks_max": "0.05",
        "sign_fraction_band": "0.47, 0.53",
        "correlation_max": "0.06",
        "concentration_min": "0.9",
        "disconnected_min": "0.99",
    },
}


def _float_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(tok) for tok in text.replace(",", " ").split())


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of a full experiment configuration."""

    dimension: int
    family: str
    family_param: Optional[float]
    master_seed: int
    output_dir: str
    threads: int
    memory_gib: float
    record_cap: int
    tol: float
    box_policy: str
    sample_radius: int
    sample_threshold: Optional[float]
    sample_method: str
    solve_t_end: float
    solve_output_times: tuple
    solve_deltas: tuple
    solve_zero_potential: bool
    variational_t: float
    variational_c: float
    variational_n_seeds: int
    variational_threshold: Optional[float]
    ensemble_kind: str
    ensemble_t: float
    ensemble_t_grid: tuple
    ensemble_n_seeds: int
    ensemble_delta: float
    ensemble_rho: float
    ensemble_n: int
    ensemble_proxy: str
    ensemble_threshold: Optional[float]
    report: dict


def _raw_defaults() -> dict:
    return {s: dict(kv) for s, kv in _DEFAULTS.items()}


def parse_config(text: str = "", overrides: Optional[list] = None
                 ) -> ExperimentConfig:
    """Parse INI text plus ``section.key=value`` overrides into typed form."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"config syntax: {err}") from err
    raw = _raw_defaults()
    for section in cp.sections():
        if section not in raw:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in cp.items(section):
            if key not in raw[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            raw[section][key] = value.strip()
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must be section.key=value: {item!r}")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in raw or key not in raw[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        raw[section][key] = value.strip()
    return _typed(raw)


def _positive_int(raw, section, key, minimum=1) -> int:
    try:
        v = int(raw[section][key])
    except ValueError as err:
        raise ConfigError(f"{section}.{key} must be an integer") from err
    if v < minimum:
        raise ConfigError(f"{section}.{key} must be >= {minimum}")
    return v


def _positive_float(raw, section, key) -> float:
    try:
        v = float(raw[section][key])
    except ValueError as err:
        raise ConfigError(f"{section}.{key} must be a number") from err
    if not (v > 0 and math.isfinite(v)):
        raise ConfigError(f"{section}.{key} must be positive and finite")
    return v


def _optional_float(raw, section, key) -> Optional[float]:
    text = raw[section][key].strip()
    if not text:
        return None
    try:
        return float(text)
    except ValueError as err:
        raise ConfigError(f"{section}.{key} must be a number or empty") from err


def parse_box_policy(policy: str) -> Optional[int]:
    """Radius of a ``fixed:N`` solver box policy; None for ``default``."""
    if policy == "default":
        return None
    match = re.fullmatch(r"fixed:(\d+)", policy)
    if match is None:
        raise ConfigError("solver.box_policy must be default or fixed:N with"
                          f" N >= 0, got {policy!r}")
    return int(match.group(1))


def _typed(raw: dict) -> ExperimentConfig:
    family = raw["run"]["family"]
    if family not in ("exponential", "weibull", "pareto"):
        raise ConfigError(f"run.family must be exponential|weibull|pareto")
    kind = raw["ensemble"]["kind"]
    if kind not in ("gap", "location", "gumbel", "concentration",
                    "disconnected"):
        raise ConfigError(f"ensemble.kind unknown: {kind!r}")
    method = raw["sample"]["method"]
    if method not in ("auto", "scan", "binomial"):
        raise ConfigError("sample.method must be auto|scan|binomial")
    proxy = raw["ensemble"]["proxy"]
    if proxy not in ("variational", "solver"):
        raise ConfigError("ensemble.proxy must be variational|solver")
    parse_box_policy(raw["solver"]["box_policy"])
    zero = raw["solve"]["zero_potential"].lower()
    if zero not in ("true", "false", "1", "0", "yes", "no"):
        raise ConfigError("solve.zero_potential must be boolean")
    times = _float_list(raw["solve"]["output_times"])
    if any(b < a for a, b in zip(times, times[1:])):
        raise ConfigError("solve.output_times must be sorted")
    report = {
        "gap_ks_max": _positive_float(raw, "report", "gap_ks_max"),
        "location_ks_max": _positive_float(raw, "report", "location_ks_max"),
        "sign_fraction_band": _float_list(raw["report"]["sign_fraction_band"]),
        "correlation_max": _positive_float(raw, "report", "correlation_max"),
        "concentration_min": _positive_float(raw, "report", "concentration_min"),
        "disconnected_min": _positive_float(raw, "report", "disconnected_min"),
    }
    return ExperimentConfig(
        dimension=_positive_int(raw, "run", "dimension"),
        family=family,
        family_param=_optional_float(raw, "run", "family_param"),
        master_seed=int(raw["run"]["master_seed"]),
        output_dir=raw["run"]["output_dir"],
        threads=_positive_int(raw, "run", "threads"),
        memory_gib=_positive_float(raw, "resources", "memory_gib"),
        record_cap=_positive_int(raw, "resources", "record_cap"),
        tol=_positive_float(raw, "solver", "tol"),
        box_policy=raw["solver"]["box_policy"],
        sample_radius=_positive_int(raw, "sample", "radius", minimum=0),
        sample_threshold=_optional_float(raw, "sample", "threshold"),
        sample_method=method,
        solve_t_end=_positive_float(raw, "solve", "t_end"),
        solve_output_times=times,
        solve_deltas=_float_list(raw["solve"]["deltas"]),
        solve_zero_potential=zero in ("true", "1", "yes"),
        variational_t=_positive_float(raw, "variational", "t"),
        variational_c=_positive_float(raw, "variational", "c"),
        variational_n_seeds=_positive_int(raw, "variational", "n_seeds"),
        variational_threshold=_optional_float(raw, "variational", "threshold"),
        ensemble_kind=kind,
        ensemble_t=_positive_float(raw, "ensemble", "t"),
        ensemble_t_grid=_float_list(raw["ensemble"]["t_grid"]),
        ensemble_n_seeds=_positive_int(raw, "ensemble", "n_seeds"),
        ensemble_delta=_positive_float(raw, "ensemble", "delta"),
        ensemble_rho=_positive_float(raw, "ensemble", "rho"),
        ensemble_n=_positive_int(raw, "ensemble", "n"),
        ensemble_proxy=proxy,
        ensemble_threshold=_optional_float(raw, "ensemble", "threshold"),
        report=report,
    )


def _canonical_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ", ".join(repr(float(x)) for x in v)
    if v is None:
        return ""
    return str(v)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Normalized INI rendering; the identity of the experiment."""
    sections: dict = {s: {} for s in _DEFAULTS}
    sections["run"] = {
        "dimension": cfg.dimension, "family": cfg.family,
        "family_param": cfg.family_param, "master_seed": cfg.master_seed,
        "output_dir": cfg.output_dir, "threads": cfg.threads,
    }
    sections["resources"] = {"memory_gib": cfg.memory_gib,
                             "record_cap": cfg.record_cap}
    sections["solver"] = {"tol": cfg.tol, "box_policy": cfg.box_policy}
    sections["sample"] = {"radius": cfg.sample_radius,
                          "threshold": cfg.sample_threshold,
                          "method": cfg.sample_method}
    sections["solve"] = {"t_end": cfg.solve_t_end,
                         "output_times": cfg.solve_output_times,
                         "deltas": cfg.solve_deltas,
                         "zero_potential": cfg.solve_zero_potential}
    sections["variational"] = {"t": cfg.variational_t, "c": cfg.variational_c,
                               "n_seeds": cfg.variational_n_seeds,
                               "threshold": cfg.variational_threshold}
    sections["ensemble"] = {
        "kind": cfg.ensemble_kind, "t": cfg.ensemble_t,
        "t_grid": cfg.ensemble_t_grid, "n_seeds": cfg.ensemble_n_seeds,
        "delta": cfg.ensemble_delta, "rho": cfg.ensemble_rho,
        "n": cfg.ensemble_n, "proxy": cfg.ensemble_proxy,
        "threshold": cfg.ensemble_threshold,
    }
    sections["report"] = {
        "gap_ks_max": cfg.report["gap_ks_max"],
        "location_ks_max": cfg.report["location_ks_max"],
        "sign_fraction_band": tuple(cfg.report["sign_fraction_band"]),
        "correlation_max": cfg.report["correlation_max"],
        "concentration_min": cfg.report["concentration_min"],
        "disconnected_min": cfg.report["disconnected_min"],
    }
    out = io.StringIO()
    for section in sorted(sections):
        out.write(f"[{section}]\n")
        for key in sorted(sections[section]):
            out.write(f"{key} = {_canonical_value(sections[section][key])}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()
