"""Config schema: pinned canonical hashes, order invariance, exit codes.

The golden hashes were recorded before the schema moved into the fields of
``ExperimentConfig``; a change in any key, default, parser or canonical
formatting shows up as a hash mismatch.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamlab import cli
from pamlab import config as cf
from pamlab.errors import ConfigError

# One value for every key of every section: lists, a boolean, fixed:N and
# optional floats included.
OVERRIDES = (
    "run.dimension=3", "run.family=weibull", "run.family_param=0.5",
    "run.master_seed=12345678901234567890", "run.output_dir=out/x",
    "run.threads=2",
    "resources.memory_gib=0.5", "resources.record_cap=5000",
    "solver.tol=1e-7", "solver.box_policy=fixed:12",
    "sample.radius=0", "sample.threshold=3.5", "sample.method=binomial",
    "solve.t_end=2.5", "solve.output_times=0.5, 1 2.5",
    "solve.deltas=0.25 0.5", "solve.zero_potential=YES",
    "variational.t=50", "variational.c=2", "variational.n_seeds=3",
    "variational.threshold=-1.5",
    "ensemble.kind=location", "ensemble.t=1e4", "ensemble.t_grid=10,100",
    "ensemble.n_seeds=16", "ensemble.delta=0.25", "ensemble.rho=0.3",
    "ensemble.n=500", "ensemble.proxy=solver", "ensemble.threshold=7",
    "report.gap_ks_max=0.2", "report.location_ks_max=0.1",
    "report.sign_fraction_band=0.4 0.6", "report.correlation_max=.1",
    "report.concentration_min=0.8", "report.disconnected_min=0.95",
)

INI = """
# a hand-written experiment
[report]
gap_ks_max=0.1   ; tighter than the default

[ensemble]
n_seeds   =    32
kind: gumbel
t_grid = 1e2,1e3 ,  1e4
threshold =

[run]
threads=2
Dimension = 2     # keys are case-insensitive
master_seed = 0007

[solve]
output_times = 1 2  3
zero_potential = False
"""

GOLDEN = {
    "default": (
        "", (),
        "19939630a08346262e215da71f798c4c90e3f33d9cf26995797bc9e32873b02d"),
    "every_section": (
        "", OVERRIDES,
        "3fbb42c32fb668490453fbda08762aaa5e931514e9c1bbf45ba7a4bfd04ce75a"),
    "ini": (
        INI, (),
        "71444fa3ba8387326b5397820eeb8b1b8842ddf733aa92eba76811c60804d7f6"),
    "ini_and_overrides": (
        INI, ("ensemble.t=500", "run.dimension=3"),
        "6f373eaaab56860547406d48bea293b3075a4467e7542bee425c662e0c5aaefc"),
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_hash(self, name):
        text, overrides, expected = GOLDEN[name]
        assert cf.config_hash(cf.parse_config(text, list(overrides))) == expected

    def test_schema_size(self):
        assert len(dataclasses.fields(cf.ExperimentConfig)) == 36
        keys = [line for line in cf.canonical_text(cf.parse_config())
                .splitlines() if " = " in line]
        assert len(keys) == 36

    def test_typed_values(self):
        cfg = cf.parse_config("", list(OVERRIDES))
        assert cfg.master_seed == 12345678901234567890
        assert cfg.family_param == 0.5
        assert cfg.solve_output_times == (0.5, 1.0, 2.5)
        assert cfg.solve_zero_potential is True
        assert cfg.report_sign_fraction_band == (0.4, 0.6)
        assert cfg.ensemble_threshold == 7.0
        default = cf.parse_config()
        assert default.sample_threshold is None
        assert default.solve_output_times == ()


_ENTRIES = [item.split("=", 1)[0].split(".", 1) + [item.split("=", 1)[1]]
            for item in OVERRIDES]


@settings(max_examples=60, deadline=None)
@given(order=st.permutations(range(len(_ENTRIES))),
       in_ini=st.lists(st.booleans(), min_size=len(_ENTRIES),
                       max_size=len(_ENTRIES)))
def test_hash_invariant_under_order_and_overrides(order, in_ini):
    """Any section and key order, any INI/override split: one identity."""
    sections: dict = {}
    overrides = []
    for i in order:
        section, key, value = _ENTRIES[i]
        if in_ini[i]:
            sections.setdefault(section, []).append(f"{key} = {value}")
        else:
            overrides.append(f"{section}.{key}={value}")
    text = "".join(f"[{s}]\n" + "\n".join(lines) + "\n\n"
                   for s, lines in sections.items())
    cfg = cf.parse_config(text, overrides)
    assert cf.config_hash(cfg) == GOLDEN["every_section"][2]


BAD = {
    "non_integer": ("", ("run.dimension=two",)),
    "below_minimum": ("", ("run.threads=0",)),
    "bad_choice": ("", ("ensemble.kind=bogus",)),
    "unsorted_output_times": ("", ("solve.output_times=2 1",)),
    "unknown_key": ("", ("run.bogus=1",)),
    "unknown_section": ("[bogus]\nkey = 1\n", ()),
    "negative_seed": ("", ("run.master_seed=-5",)),
    "seed_2_64": ("", (f"run.master_seed={2 ** 64}",)),
    "not_a_number": ("", ("solver.tol=small",)),
    "bad_list": ("", ("solve.deltas=0.5 x",)),
    "bad_boolean": ("", ("solve.zero_potential=maybe",)),
    "not_positive": ("", ("ensemble.delta=0",)),
    "malformed_override": ("", ("run.dimension",)),
    "band_one_value": ("", ("report.sign_fraction_band=0.5",)),
    "band_three_values": ("", ("report.sign_fraction_band=0.4 0.5 0.6",)),
    "band_unsorted": ("", ("report.sign_fraction_band=0.6 0.4",)),
    "band_outside_unit": ("", ("report.sign_fraction_band=0.4 1.5",)),
}


class TestExitCodes:
    @pytest.mark.parametrize("name", sorted(BAD))
    def test_bad_value_exits_2(self, tmp_path, name):
        text, overrides = BAD[name]
        with pytest.raises(ConfigError):
            cf.parse_config(text, list(overrides))
        path = tmp_path / "bad.ini"
        path.write_text(text)
        argv = ["sample", "--config", str(path), "--out", str(tmp_path / "o")]
        for item in overrides:
            argv += ["--override", item]
        assert cli.main(argv) == 2

    @pytest.mark.parametrize("seed,rc", [(-5, 2), (2 ** 64, 2),
                                         (2 ** 64 - 1, 0)])
    def test_seed_width(self, tmp_path, seed, rc):
        assert cli.main(["sample", "--seed", str(seed), "--out", str(tmp_path),
                         "--override", "sample.radius=2"]) == rc

    @pytest.mark.parametrize("band,rc", [("0.5", 2), ("0.4, 0.6", 0)])
    def test_report_sign_fraction_band(self, tmp_path, band, rc):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "ensemble_location_summary.json").write_text(json.dumps({
            "statistic": "location", "t": 100.0, "d": 2, "n_seeds": 8,
            "tests": {"ks_distance_per_coord": [0.01, 0.02],
                      "sign_fraction": 0.5,
                      "intercoordinate_correlation": [0.01]}}))
        out = tmp_path / "report"
        assert cli.main(["report", str(runs), "--out", str(out), "--override",
                         f"report.sign_fraction_band={band}"]) == rc
        assert (out / "report.json").exists() == (rc == 0)

    def test_record_cap_exits_3(self, tmp_path):
        rc = cli.main(["sample", "--out", str(tmp_path),
                       "--override", "sample.threshold=0",
                       "--override", "resources.record_cap=1"])
        assert rc == 3
        assert not (tmp_path / "run_record.json").exists()
