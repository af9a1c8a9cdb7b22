"""CLI runs end to end: pinned data-file hashes, exit codes, config checks.

The golden hashes were recorded before the certification retry loops were
folded into ``potential.certify``; each run below reaches one of its
callers, so a change in seeds, attempt tags, the threshold schedule or the
number of sampler calls shows up as a hash mismatch.  Solver runs are
pinned by value with tolerances instead: their last digits depend on the
integrator, while L_t, the argmax and the mass fractions must not.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from pamlab import cli
from pamlab import config as cf
from pamlab import potential as pt
from pamlab import variational as vr
from pamlab.errors import ConfigError, SparseValidityError


def run_cli(out, *args, overrides=()):
    argv = list(args) + ["--out", str(out)]
    for item in overrides:
        argv += ["--override", item]
    rc = cli.main(argv)
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.iterdir()) if p.name != "run_record.json"}
    return rc, hashes


GAP_D1 = ("run.dimension=1", "ensemble.t=1000", "ensemble.n_seeds=8")

GOLDEN = {
    "gap": (("ensemble",), GAP_D1, {
        "ensemble_gap.jsonl":
            "87b44485efcf412650328b5c7458567445c834428dffe9618585bb94e8608273",
        "ensemble_gap_ecdf.csv":
            "23eb89e703261910852f0a36e9ab3354027dd45b8afebc7b78e85c85a8a7014c",
        "ensemble_gap_summary.json":
            "4e2a1ca871c7b7ba5966e9959aa5753a76c583d8c85f3a2908077b72b53695c0",
    }),
    "location": (("ensemble",), (
        "run.dimension=2", "ensemble.kind=location", "ensemble.t=100",
        "ensemble.n_seeds=8"), {
        "ensemble_location.jsonl":
            "6c89849cc76fccc6ed8e202b89c2ae9f3b9678f74d64e322fc0335d3eaa983f5",
        "ensemble_location_summary.json":
            "7e581e3a15733dbc6d7cea7d55dd1320f8a3ce7cd04986ef6748479f7a178b32",
    }),
    "variational": (("variational",), (
        "run.dimension=1", "variational.n_seeds=2"), {
        "variational.csv":
            "df82be6a3fdf2b2cd05f2c20e3011a93cdc08318cdec27534db484733d5474aa",
        "variational.jsonl":
            "48a2669a33e1cbf28b58c81d3da6a5a27aa4ef47c510056849a43d997773d046",
    }),
    "disconnected": (("ensemble",), (
        "run.dimension=1", "ensemble.kind=disconnected", "ensemble.n=10000",
        "ensemble.n_seeds=8"), {
        "ensemble_disconnected.jsonl":
            "3f57c81711ac5794493d1d6ab39ca7aaf7d678ab5a0ef524d047c95367ef9d14",
        "ensemble_disconnected_summary.json":
            "ecd18f9f8a4231d2cba2bc457696f602c64864c6038ec61a1006e5a7f85dc543",
    }),
    "gumbel": (("ensemble",), (
        "run.dimension=1", "ensemble.kind=gumbel", "ensemble.t=100",
        "ensemble.n_seeds=8"), {
        "ensemble_gumbel.jsonl":
            "d9937b9826c8b62ffe9d7377f6c3e6152c4c7036853930d6660c9acee2ddfe72",
        "ensemble_gumbel_ecdf.csv":
            "581f6e3c3a6f2d688b2e3a56ec10be443f0170150d812e2b51cbbfe332333b69",
        "ensemble_gumbel_summary.json":
            "af12fd0817925f5553fd5de2ef2b5cebb95b7e80768fa4ad6bcef101cb60d5c5",
    }),
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_data_files_match(self, tmp_path, name):
        args, overrides, expected = GOLDEN[name]
        rc, hashes = run_cli(tmp_path, *args, overrides=overrides)
        assert rc == 0
        assert hashes == expected

    def test_gap_identical_across_threads(self, tmp_path):
        runs = {}
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            runs[threads] = run_cli(out, "ensemble", "--threads", str(threads),
                                    overrides=GAP_D1)
        assert runs[1] == runs[2] == (0, GOLDEN["gap"][2])

    def test_binomial_top2_after_one_retry(self):
        u0 = vr.default_sparse_threshold(600.0, 2)
        top = vr.certified_top2(600.0, 2, 5, threshold=u0 + 8)
        assert top.certified and top.threshold == u0 + 6
        assert top.site1.tolist() == [-278, 7]
        assert top.site2.tolist() == [-447, 122]
        assert top.value1 == 15.149841660358259
        assert top.value2 == 13.096179392729207
        assert top.gap == 2.0536622676290524

    def test_binomial_top_k_after_one_retry(self, monkeypatch):
        calls = []
        sample = pt.sample_exceedances

        def counted(*args, **kwargs):
            f = sample(*args, **kwargs)
            calls.append((f.method, f.attempt))
            return f

        monkeypatch.setattr(pt, "sample_exceedances", counted)
        st = pt.sparse_top_k(1, 20_000_000, 3, 7, expected=3.0)
        assert calls == [("binomial", 0), ("binomial", 1)]
        assert st.values.tolist() == [17.956067244879403, 17.75970077534786,
                                      16.747273963926666]
        assert st.coords.ravel().tolist() == [-12279222, -10696903, 14632757]


# Solver outputs by value, recorded with the Dormand-Prince integrator before
# the uniformized series replaced it: (t, L_t, argmax) per output time.
SOLVE_D2 = ("run.dimension=2", "solve.t_end=10",
            "solve.output_times=2.5,5,7.5,10")
SOLVE_PINS = {
    "d2_seed1": (("--seed", "1"), SOLVE_D2, [
        (2.5, 0.9586412180289571, [-1, 1]),
        (5.0, 1.2382278397171707, [-7, -6]),
        (7.5, 1.9846832019667735, [-7, -6]),
        (10.0, 2.5436072312012064, [-7, -6]),
    ]),
    # the mass jumps to a far site between t=7.5 and t=10
    "d2_seed2": (("--seed", "2"), SOLVE_D2, [
        (2.5, 1.6703382831554365, [1, -1]),
        (5.0, 1.6402244100517387, [-1, 3]),
        (7.5, 1.6717944165393197, [-1, 3]),
        (10.0, 2.116675830365296, [16, 13]),
    ]),
    "d1": ((), ("run.dimension=1", "solve.t_end=20"), [
        (20.0, 1.6223833404685972, [-7]),
    ]),
}
CONCENTRATION_PIN = [
    [0.9999995791691992, 0.9999999999606087],
    [0.9999202230611091, 0.06653254987626094],
    [0.9999614955851368, 0.9999998846299031],
    [0.9999999890817299, 0.9999999999997715],
]
GUMBEL_SOLVER_PIN = [
    -1.0112571248715505,
    0.045103914727079975,
    -0.7485987570953525,
    -1.6142506142056499,
    0.03053647771015422,
    -1.7131765429956818,
    0.43121752595279483,
    -0.6742707457423904,
]


class TestSolverPins:
    @pytest.mark.parametrize("name", sorted(SOLVE_PINS))
    def test_solve(self, tmp_path, name):
        args, overrides, expected = SOLVE_PINS[name]
        rc, _ = run_cli(tmp_path, "solve", *args, overrides=overrides)
        assert rc == 0
        rows = [json.loads(line) for line in
                (tmp_path / "trajectory.jsonl").read_text().splitlines()]
        assert [row["t"] for row in rows] == [t for t, _, _ in expected]
        for row, (t, rate, site) in zip(rows, expected):
            assert row["logMass"] / t == pytest.approx(rate, rel=1e-6)
            assert row["argmax"] == site

    def test_concentration(self, tmp_path):
        rc, _ = run_cli(tmp_path, "ensemble", overrides=(
            "run.dimension=1", "ensemble.kind=concentration",
            "ensemble.t_grid=20,40", "ensemble.n_seeds=4"))
        assert rc == 0
        got = [json.loads(line)["sample"] for line in
               (tmp_path / "ensemble_concentration.jsonl").read_text()
               .splitlines()]
        assert np.abs(np.array(got) - CONCENTRATION_PIN).max() <= 1e-6

    def test_gumbel_solver_proxy(self, tmp_path):
        t = 50.0
        rc, _ = run_cli(tmp_path, "ensemble", overrides=(
            "run.dimension=1", "ensemble.kind=gumbel", "ensemble.proxy=solver",
            f"ensemble.t={t}", "ensemble.n_seeds=8"))
        assert rc == 0
        got = [json.loads(line)["sample"] for line in
               (tmp_path / "ensemble_gumbel.jsonl").read_text().splitlines()]
        # each sample is L_t less the centering; L_t is pinned to 1e-6
        # relative, since a sample near 0 would magnify its error
        centering = math.log(t) - math.log(math.log(math.log(t)))
        assert np.array(got) + centering == pytest.approx(
            np.array(GUMBEL_SOLVER_PIN) + centering, rel=1e-6)


class TestUncertified:
    def test_variational_exits_4_without_rows(self, tmp_path):
        rc, hashes = run_cli(tmp_path, "variational", overrides=(
            "variational.threshold=1000", "variational.n_seeds=1"))
        assert rc == 4
        assert hashes == {}

    @pytest.mark.parametrize("fault", ["raises", "uncertified"])
    def test_later_seed_fails(self, tmp_path, monkeypatch, fault):
        summarize = vr.variational_summary
        calls = []

        def faulty(f, t, **kwargs):
            calls.append(f.seed)
            s = summarize(f, t, **kwargs)
            if len(calls) == 1:
                return s
            if fault == "raises":
                raise SparseValidityError("forced")
            return dataclasses.replace(
                s, top2=dataclasses.replace(s.top2, certified=False))

        monkeypatch.setattr(vr, "variational_summary", faulty)
        rc, hashes = run_cli(tmp_path, "variational", overrides=(
            "run.dimension=1", "variational.n_seeds=2"))
        assert rc == 4
        assert "variational.csv" not in hashes
        assert len(set(calls)) == 2

    def test_gumbel_exits_4(self, tmp_path):
        rc, hashes = run_cli(tmp_path, "ensemble", overrides=(
            "ensemble.kind=gumbel", "ensemble.t=100",
            "ensemble.threshold=1000", "ensemble.n_seeds=8"))
        assert rc == 4
        assert hashes == {}


class TestBoxPolicy:
    @pytest.mark.parametrize("policy,radius", [("default", None),
                                               ("fixed:0", 0),
                                               ("fixed:33", 33)])
    def test_accepted(self, policy, radius):
        cfg = cf.parse_config("", [f"solver.box_policy={policy}"])
        assert cfg.box_policy == policy
        assert cf.parse_box_policy(policy) == radius
        assert f"box_policy = {policy}\n" in cf.canonical_text(cfg)

    @pytest.mark.parametrize("policy", ["bogus", "fixed:", "fixed:-1",
                                        "fixed:2.5", "Fixed:3"])
    def test_rejected(self, tmp_path, policy):
        with pytest.raises(ConfigError):
            cf.parse_config("", [f"solver.box_policy={policy}"])
        rc, _ = run_cli(tmp_path, "solve",
                        overrides=(f"solver.box_policy={policy}",))
        assert rc == 2

    def test_fixed_box_solve(self, tmp_path):
        rc, hashes = run_cli(tmp_path, "solve", overrides=(
            "solver.box_policy=fixed:3", "solve.t_end=1"))
        assert rc == 0
        summary = (tmp_path / "solve_summary.json").read_text()
        assert '"oracle_residual"' in summary
        assert set(hashes) == {"trajectory.jsonl", "solve_summary.json"}


class TestEnsembleFamily:
    @pytest.mark.parametrize("family", ["weibull", "pareto"])
    def test_non_exponential_exits_2(self, tmp_path, family):
        rc, hashes = run_cli(tmp_path, "ensemble", overrides=GAP_D1 + (
            f"run.family={family}", "run.family_param=0.5"))
        assert rc == 2
        assert hashes == {}
