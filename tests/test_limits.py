import json
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import kolmogorov

from pamlab import limits as lm
from pamlab import potential as pt
from pamlab import randomness as rn
from pamlab import variational as vr
from pamlab.errors import NumericalError


class TestLaws:
    def test_gumbel_reference_point(self):
        for d in (1, 2):
            law = lm.LimitLaw("gumbel_pam", d)
            x = 2.0 * d + d * math.log(2.0)
            assert lm.law_cdf(law, x) == pytest.approx(math.exp(-1.0),
                                                       rel=1e-12)

    def test_laplace_symmetry(self):
        law = lm.LimitLaw("laplace_product", 2)
        assert lm.law_cdf(law, 0.0) == 0.5
        x = np.linspace(-5, 5, 41)
        f = lm.law_cdf(law, x)
        assert np.allclose(f + f[::-1], 1.0)

    def test_exponential_median(self):
        law = lm.LimitLaw("std_exponential")
        assert lm.law_cdf(law, math.log(2.0)) == pytest.approx(0.5, rel=1e-12)
        assert lm.law_cdf(law, -1.0) == 0.0

    def test_cdfs_valid(self):
        grid = np.linspace(-30, 30, 2001)
        for law in (lm.LimitLaw("gumbel_pam", 2), lm.LimitLaw("std_exponential"),
                    lm.LimitLaw("laplace_product"), lm.LimitLaw("uniform01")):
            f = lm.law_cdf(law, grid)
            assert (np.diff(f) >= 0).all()
            assert f[0] <= 1e-9 and f[-1] >= 1 - 1e-9

    def test_unknown_law(self):
        with pytest.raises(ValueError):
            lm.LimitLaw("cauchy")


class TestKsTest:
    def test_point_mass_against_uniform(self):
        d, _ = lm.ks_test([0.5] * 8, lm.LimitLaw("uniform01"))
        assert d == pytest.approx(0.5, rel=1e-12)

    def test_exact_quantiles(self):
        n = 100
        q = -np.log(1.0 - (np.arange(1, n + 1) - 0.5) / n)
        d, _ = lm.ks_test(q, lm.LimitLaw("std_exponential"))
        assert d == pytest.approx(0.005, abs=1e-12)

    def test_small_sample_guard(self):
        with pytest.raises(ValueError):
            lm.ks_test([0.5], lm.LimitLaw("uniform01"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_numerical_error(self, bad):
        with pytest.raises(NumericalError):
            lm.ks_test([0.5] * 7 + [bad], lm.LimitLaw("uniform01"))

    def test_pvalue_against_reference_series(self):
        # ten (D, N) reference points against an independent evaluation
        points = [(0.05, 100), (0.1, 100), (0.2, 64), (0.04, 1000),
                  (0.3, 30), (0.15, 200), (0.02, 3000), (0.5, 9),
                  (0.08, 400), (0.12, 150)]
        for d, n in points:
            lam = math.sqrt(n) * d
            assert lm.kolmogorov_pvalue(lam) == pytest.approx(
                float(kolmogorov(lam)), abs=1e-8)

    def test_generator_and_test_self_consistent(self):
        # Exp(1) draws against the exponential law: the pair must not
        # reject at the 0.001 level more than rarely
        ok = 0
        for trial in range(100):
            x = rn.site_exponentials(50_000 + trial, 0, 10_000)
            _, p = lm.ks_test(x, lm.LimitLaw("std_exponential"))
            ok += p > 0.001
        assert ok >= 99

    def test_pvalue_edge_cases(self):
        assert lm.kolmogorov_pvalue(0.0) == 1.0
        assert lm.kolmogorov_pvalue(10.0) == pytest.approx(0.0, abs=1e-12)


class TestGapEnsemble:
    def test_small_run_properties(self):
        rec = lm.gap_ensemble(1, 1e4, 32, master_seed=7)
        assert rec.samples.shape == (32,)
        assert (rec.samples >= 0).all()
        assert 0 <= rec.tests["ks_distance"] <= 1
        assert "annulus_ks_distance" in rec.tests

    def test_minimum_sample_count(self):
        rec = lm.gap_ensemble(1, 1e4, 8, master_seed=1)
        assert rec.tests["ks_pvalue"] >= 0.0

    def test_bitwise_reproducible_across_threads(self):
        a = lm.gap_ensemble(1, 1e4, 24, master_seed=3, threads=1)
        b = lm.gap_ensemble(1, 1e4, 24, master_seed=3, threads=8)
        assert np.array_equal(a.samples, b.samples)
        assert a.to_jsonl() == b.to_jsonl()
        assert a.summary_json() == b.summary_json()

    def test_sparse_matches_dense_distribution(self):
        # simulated-law sampler vs full-field scans, two-sample KS
        t, d, n = 1e3, 1, 220
        radius = 6908
        dense_gaps = np.empty(n)
        binom_gaps = np.empty(n)
        u = vr.default_sparse_threshold(t, d)
        for i in range(n):
            f = pt.sample_dense(d, radius, seed=rn.spawn_seed(5, 77, i))
            dense_gaps[i] = vr.psi_top2(f, t).gap
            sf = pt.sample_exceedances(d, radius, u,
                                       seed=rn.spawn_seed(6, 78, i),
                                       method="binomial")
            top = vr.psi_top2(sf, t)
            assert top.certified
            binom_gaps[i] = top.gap
        _, p = stats.ks_2samp(dense_gaps, binom_gaps)
        assert p > 0.001


class TestLocationEnsemble:
    def test_properties(self):
        rec = lm.location_ensemble(2, 1e4, 40, master_seed=9)
        assert rec.samples.shape == (40, 2)
        assert len(rec.tests["ks_distance_per_coord"]) == 2
        assert 0 <= rec.tests["sign_fraction"] <= 1
        assert len(rec.tests["intercoordinate_correlation"]) == 1

    def test_jsonl_round(self):
        rec = lm.location_ensemble(1, 1e4, 16, master_seed=2)
        lines = rec.to_jsonl().strip().splitlines()
        assert len(lines) == 16
        row = json.loads(lines[0])
        assert set(row) == {"seed_index", "field_seed", "sample"}


class TestGumbelEnsemble:
    def test_variational_proxy(self):
        rec = lm.gumbel_ensemble(1, 1e4, 64, master_seed=4)
        assert np.isfinite(rec.samples).all()
        assert np.isfinite(rec.samples.mean())
        assert np.isfinite(rec.samples.var())
        assert "qualitative" in rec.tests["quality"]

    def test_solver_proxy_small(self):
        rec = lm.gumbel_ensemble(1, 20.0, 8, master_seed=4, proxy="solver",
                                 tol=1e-7)
        assert np.isfinite(rec.samples).all()
        with pytest.raises(ValueError):
            lm.gumbel_ensemble(1, 300.0, 8, master_seed=1, proxy="solver")

    def test_proxies_agree_roughly(self):
        # the variational proxy tracks the solved growth rate to O(1)
        rec_s = lm.gumbel_ensemble(1, 40.0, 8, master_seed=11, proxy="solver",
                                   tol=1e-7)
        rec_v = lm.gumbel_ensemble(1, 40.0, 8, master_seed=11,
                                   proxy="variational")
        assert abs(np.median(rec_s.samples) - np.median(rec_v.samples)) < 2.0


class TestConcentration:
    def test_fraction_bounds_and_whole_box(self):
        rec = lm.concentration_ensemble(1, [20.0], 10.0, 4, master_seed=8,
                                        tol=1e-7)
        # delta r_t beyond the box diameter captures everything
        assert np.allclose(rec.samples, 1.0)
        rec2 = lm.concentration_ensemble(1, [20.0, 25.0], 0.25, 4,
                                         master_seed=8, tol=1e-7)
        assert ((rec2.samples >= 0) & (rec2.samples <= 1)).all()
        assert len(rec2.tests["median_per_t"]) == 2


class TestDisconnected:
    def test_planted_adjacent_pair_detected(self):
        sites = np.array([[3, 4], [3, 5], [-7, 0]])
        assert not lm.sites_disconnected(sites, 20)
        sites = np.array([[3, 4], [3, 6], [-7, 0]])
        assert lm.sites_disconnected(sites, 20)

    def test_singleton_always_disconnected(self):
        rec = lm.disconnected_check(1, 120, 0.01, 10, master_seed=3)
        assert rec.meta["m"] == 1
        assert rec.tests["frequency"] == 1.0

    def test_d2_frequency_high(self):
        rec = lm.disconnected_check(2, 10_000, 0.4, 60, master_seed=6)
        assert rec.tests["frequency"] >= 0.95

    def test_rho_guard(self):
        with pytest.raises(ValueError):
            lm.disconnected_check(2, 100, 0.6, 4, master_seed=0)


def test_ecdf_csv_format():
    rec = lm.gap_ensemble(1, 1e4, 16, master_seed=12)
    text = lm.ecdf_csv(rec.samples, lm.LimitLaw("std_exponential"))
    lines = text.strip().splitlines()
    assert lines[0] == "x,F_N,F"
    assert len(lines) == 17
    x, fn, fref = map(float, lines[8].split(","))
    assert 0 <= fn <= 1 and 0 <= fref <= 1
