"""Experiment configuration: sectioned key-value text, canonical hashing.

Configs are INI text.  The fields of ExperimentConfig are the schema: each
one declares its INI section, its default text and a ``parse(text, where)``
function that types and validates the value (raising ConfigError).  A
field's INI key is its name less a ``<section>_`` prefix, so ``sample_radius``
is ``[sample] radius`` and ``dimension`` is ``[run] dimension``.

Parsing produces a typed ExperimentConfig; dumping produces a canonical form
(sorted sections and keys, normalized value formatting) whose SHA-256
identifies the experiment, so two textually different but semantically
equal configs hash identically.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import itertools
import math
import re
from dataclasses import dataclass, field, fields
from typing import Optional

from .errors import ConfigError

# --- value parsers: parse(text, where) -> typed value, else ConfigError -------


def _integer(minimum: int, bound: Optional[int] = None):
    """Integer in [minimum, bound), or [minimum, inf) without a bound."""
    def parse(text: str, where: str) -> int:
        try:
            v = int(text)
        except ValueError as err:
            raise ConfigError(f"{where} must be an integer") from err
        if v < minimum:
            raise ConfigError(f"{where} must be >= {minimum}")
        if bound is not None and v >= bound:
            raise ConfigError(f"{where} must be < {bound}")
        return v
    return parse


def _number(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError as err:
        raise ConfigError(f"{where} must be a number") from err


def _positive(text: str, where: str) -> float:
    v = _number(text, where)
    if not (v > 0 and math.isfinite(v)):
        raise ConfigError(f"{where} must be positive and finite")
    return v


def _optional(text: str, where: str) -> Optional[float]:
    return _number(text, where) if text else None


def _floats(text: str, where: str) -> tuple:
    """Comma- or space-separated numbers; empty text is the empty tuple."""
    return tuple(_number(tok, where) for tok in text.replace(",", " ").split())


def _sorted_floats(text: str, where: str) -> tuple:
    v = _floats(text, where)
    if any(b < a for a, b in zip(v, v[1:])):
        raise ConfigError(f"{where} must be sorted")
    return v


def _unit_band(text: str, where: str) -> tuple:
    """Two sorted numbers in [0, 1]: the ends of a closed band."""
    v = _floats(text, where)
    if len(v) != 2 or not 0.0 <= v[0] <= v[1] <= 1.0:
        raise ConfigError(f"{where} must be two sorted numbers in [0, 1]")
    return v


def _choice(*options: str):
    def parse(text: str, where: str) -> str:
        if text not in options:
            raise ConfigError(f"{where} must be {'|'.join(options)},"
                              f" got {text!r}")
        return text
    return parse


_BOOLEANS = {"true": True, "1": True, "yes": True,
             "false": False, "0": False, "no": False}


def _boolean(text: str, where: str) -> bool:
    if text.lower() not in _BOOLEANS:
        raise ConfigError(f"{where} must be boolean")
    return _BOOLEANS[text.lower()]


def _text(text: str, where: str) -> str:
    return text


def parse_box_policy(policy: str) -> Optional[int]:
    """Radius of a ``fixed:N`` solver box policy; None for ``default``."""
    if policy == "default":
        return None
    match = re.fullmatch(r"fixed:(\d+)", policy)
    if match is None:
        raise ConfigError("solver.box_policy must be default or fixed:N with"
                          f" N >= 0, got {policy!r}")
    return int(match.group(1))


def _box_policy(text: str, where: str) -> str:
    parse_box_policy(text)
    return text


# --- the schema ---------------------------------------------------------------


def _key(section: str, default: str, parse):
    return field(metadata={"section": section, "default": default,
                           "parse": parse})


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of a full experiment configuration."""

    dimension: int = _key("run", "1", _integer(1))
    family: str = _key("run", "exponential",
                       _choice("exponential", "weibull", "pareto"))
    family_param: Optional[float] = _key("run", "", _optional)
    master_seed: int = _key("run", "1", _integer(0, 2 ** 64))
    output_dir: str = _key("run", "run", _text)
    threads: int = _key("run", "1", _integer(1))
    memory_gib: float = _key("resources", "2.0", _positive)
    record_cap: int = _key("resources", "10000000", _integer(1))
    tol: float = _key("solver", "1e-9", _positive)
    box_policy: str = _key("solver", "default", _box_policy)
    sample_radius: int = _key("sample", "100", _integer(0))
    sample_threshold: Optional[float] = _key("sample", "", _optional)
    sample_method: str = _key("sample", "auto",
                              _choice("auto", "scan", "binomial"))
    solve_t_end: float = _key("solve", "5.0", _positive)
    solve_output_times: tuple = _key("solve", "", _sorted_floats)
    solve_deltas: tuple = _key("solve", "0.5", _floats)
    solve_zero_potential: bool = _key("solve", "false", _boolean)
    variational_t: float = _key("variational", "100.0", _positive)
    variational_c: float = _key("variational", "1.0", _positive)
    variational_n_seeds: int = _key("variational", "4", _integer(1))
    variational_threshold: Optional[float] = _key("variational", "", _optional)
    ensemble_kind: str = _key("ensemble", "gap", _choice(
        "gap", "location", "gumbel", "concentration", "disconnected"))
    ensemble_t: float = _key("ensemble", "1000.0", _positive)
    ensemble_t_grid: tuple = _key("ensemble", "", _floats)
    ensemble_n_seeds: int = _key("ensemble", "64", _integer(1))
    ensemble_delta: float = _key("ensemble", "0.5", _positive)
    ensemble_rho: float = _key("ensemble", "0.4", _positive)
    ensemble_n: int = _key("ensemble", "10000", _integer(1))
    ensemble_proxy: str = _key("ensemble", "variational",
                               _choice("variational", "solver"))
    ensemble_threshold: Optional[float] = _key("ensemble", "", _optional)
    report_gap_ks_max: float = _key("report", "0.05", _positive)
    report_location_ks_max: float = _key("report", "0.05", _positive)
    report_sign_fraction_band: tuple = _key("report", "0.47, 0.53",
                                            _unit_band)
    report_correlation_max: float = _key("report", "0.06", _positive)
    report_concentration_min: float = _key("report", "0.9", _positive)
    report_disconnected_min: float = _key("report", "0.99", _positive)


# (section, key) -> field, in canonical (sorted) order.
_SCHEMA = dict(sorted(
    ((f.metadata["section"], f.name.removeprefix(f.metadata["section"] + "_")),
     f) for f in fields(ExperimentConfig)))
_SECTIONS = {section for section, _ in _SCHEMA}


def _assign(raw: dict, section: str, key: str, value: str) -> None:
    if (section, key) not in raw:
        raise ConfigError(f"unknown config key {section}.{key}")
    raw[section, key] = value.strip()


def parse_config(text: str = "", overrides: Optional[list] = None
                 ) -> ExperimentConfig:
    """Parse INI text plus ``section.key=value`` overrides into typed form."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"config syntax: {err}") from err
    raw = {sk: f.metadata["default"] for sk, f in _SCHEMA.items()}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in cp.items(section):
            _assign(raw, section, key, value)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must be section.key=value: {item!r}")
        dotted, value = item.split("=", 1)
        _assign(raw, *dotted.split(".", 1), value)
    return ExperimentConfig(**{
        f.name: f.metadata["parse"](raw[section, key], f"{section}.{key}")
        for (section, key), f in _SCHEMA.items()})


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
    out = io.StringIO()
    for section, entries in itertools.groupby(_SCHEMA.items(),
                                               key=lambda e: e[0][0]):
        out.write(f"[{section}]\n")
        for (_, key), f in entries:
            out.write(f"{key} = {_canonical_value(getattr(cfg, f.name))}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()
