import json
import math

import numpy as np
import pytest

from pamlab import potential as pt
from pamlab import variational as vr
from pamlab.errors import SparseValidityError


def sparse_from_sites(d, r, sites, values, threshold=0.0):
    coords = np.asarray(sites, dtype=np.int64).reshape(len(sites), d)
    return pt.SparseExceedanceField(
        d, r, threshold, pt.EXPONENTIAL, 0, coords,
        np.asarray(values, dtype=np.float64), "scan")


class TestScale:
    def test_exp_of_exp_squared(self):
        t = math.exp(math.exp(2.0))
        s = vr.scale(t, 1)
        assert s.r_t == pytest.approx(t / 2.0, rel=1e-12)

    def test_t100(self):
        s = vr.scale(100.0, 1)
        assert s.r_t == pytest.approx(100.0 / math.log(math.log(100.0)),
                                      rel=1e-12)
        assert s.r_t == pytest.approx(65.48, abs=0.01)
        assert s.centering == pytest.approx(
            math.log(100.0) - math.log(math.log(math.log(100.0))), rel=1e-12)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            vr.scale(10.0, 1)
        vr.scale(15.2, 1)

    def test_weibull_scale(self):
        gamma = 0.5
        t = 1000.0
        s = vr.scale(t, 2, "weibull", gamma)
        expect = t * math.log(t) ** (1.0 / gamma - 1.0) / math.log(math.log(t))
        assert s.r_t == pytest.approx(expect, rel=1e-12)
        assert s.centering is None
        with pytest.raises(ValueError):
            vr.scale(t, 2, "weibull")


class TestEvlbReference:
    def test_triple_exponential_point(self):
        t = math.exp(math.exp(math.e))
        assert vr.evlb_reference(t, 1, 0.1) == pytest.approx(
            math.log(t) - 2.1, rel=1e-9)

    def test_direct_evaluation(self):
        got = vr.evlb_reference(1e6, 1, 0.1)
        lll = math.log(math.log(math.log(1e6)))
        assert got == pytest.approx(math.log(1e6) - 2.1 * lll, rel=1e-14)
        assert got == pytest.approx(11.788, abs=0.01)

    def test_monotone_beyond_100(self):
        grid = np.geomspace(100.0, 1e9, 60)
        vals = [vr.evlb_reference(float(t), 1, 0.1) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestLowerIndex:
    def test_single_site(self):
        f = pt.PotentialField.from_values(1, 0, [5.0])
        assert vr.lower_index(f, 10.0) == 5.0

    def test_two_site_substitution(self):
        f = sparse_from_sites(1, 10, [[0], [10]], [1.0, math.e ** 2])
        assert vr.lower_index(f, 10.0) == pytest.approx(math.e ** 2 - 2.0,
                                                        rel=1e-14)

    def test_matches_exhaustive_scan(self):
        f = pt.sample_dense(1, 500, seed=7)
        norms = np.abs(f.coords[:, 0]).astype(float)
        brute = (f.values - norms / 50.0
                 * np.maximum(np.log(f.values), 0.0)).max()
        assert vr.lower_index(f, 50.0) == pytest.approx(brute, rel=1e-15)

    def test_log_plus_never_rewards_tiny_values(self):
        # a far site with tiny potential must not dominate
        f = sparse_from_sites(1, 1000, [[0], [1000]], [2.0, 1e-8])
        assert vr.lower_index(f, 10.0) == 2.0

    def test_scan_domain_monotonicity(self):
        f = pt.sample_dense(1, 300, seed=8)
        small = vr.lower_index(f, 40.0, search_radius=100)
        large = vr.lower_index(f, 40.0, search_radius=300)
        assert large >= small

    def test_shift_bracket(self):
        # raising the whole field by b moves the index up by at most b and
        # at least b minus the worst-case change of the log penalty
        f = pt.sample_dense(1, 200, seed=9)
        base_vals = f.values + 1.1  # all above one
        f1 = pt.PotentialField.from_values(1, 200, base_vals)
        b = 0.7
        f2 = pt.PotentialField.from_values(1, 200, base_vals + b)
        t = 40.0
        lo1 = vr.lower_index(f1, t)
        lo2 = vr.lower_index(f2, t)
        worst = (200.0 / t) * (math.log(base_vals.max() + b)
                               - math.log(base_vals.min()))
        assert lo2 <= lo1 + b + 1e-12
        assert lo2 >= lo1 + b - worst - 1e-12

    def test_sparse_guard(self):
        f = sparse_from_sites(1, 100, [[40]], [6.0], threshold=5.9)
        # penalized value 6 - log(6) = 4.21 < threshold: cannot certify
        with pytest.raises(SparseValidityError):
            vr.lower_index(f, 1.0)


class TestUpperIndex:
    def test_constant_field_inner_edge(self):
        a = 2.5
        t = 50.0
        f = pt.PotentialField.from_values(
            1, 400, np.full(801, a))
        inner = max(3.0, t / math.log(t) ** 2)
        z_star = math.ceil(inner)  # penalty increases with |z| here
        expect = a - z_star / t * (math.log(math.log(z_star)) + 1.0)
        assert vr.upper_index(f, t, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_single_distant_site_c0(self):
        t = 50.0
        f = sparse_from_sites(1, 300, [[50]], [9.0])
        got = vr.upper_index(f, t, 0.0)
        assert got == pytest.approx(9.0 - math.log(math.log(50.0)), rel=1e-12)

    def test_matches_exhaustive_scan(self):
        t, c = 50.0, 1.0
        f = pt.sample_dense(1, 500, seed=11)
        norms = np.abs(f.coords[:, 0]).astype(float)
        inner = max(3.0, t / math.log(t) ** 2)
        keep = (norms >= inner) & (norms <= t * math.log(t))
        brute = (f.values[keep] - norms[keep] / t
                 * (np.log(np.log(norms[keep])) + c)).max()
        assert vr.upper_index(f, t, c) == pytest.approx(brute, rel=1e-15)

    def test_empty_annulus(self):
        f = pt.PotentialField.from_values(1, 2, np.ones(5))
        assert vr.upper_index(f, 20.0, 1.0) == -math.inf

    def test_strictly_decreasing_in_c(self):
        f = pt.sample_dense(1, 300, seed=12)
        t = 40.0
        vals = [vr.upper_index(f, t, c) for c in (0.0, 0.5, 1.0, 2.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain_guard(self):
        f = pt.sample_dense(1, 100, seed=1)
        with pytest.raises(ValueError):
            vr.upper_index(f, 10.0, 1.0)


class TestPsiTop2:
    def test_substitution(self):
        f = sparse_from_sites(1, 100, [[50], [1]], [5.0, 0.1])
        top = vr.psi_top2(f, 100.0)
        assert top.value1 == pytest.approx(
            5.0 - 0.5 * math.log(math.log(50.0)), rel=1e-12)
        assert top.value1 == pytest.approx(4.318, abs=5e-4)
        assert tuple(top.site1) == (50,)

    def test_two_dominant_sites_gap(self):
        f = sparse_from_sites(1, 10, [[1], [-1], [5]], [10.0, 9.0, 0.5])
        top = vr.psi_top2(f, 1000.0)
        assert tuple(top.site1) == (1,)
        assert tuple(top.site2) == (-1,)
        assert top.gap == pytest.approx(1.0)

    def test_penalty_clamped_near_origin(self):
        # |z| <= 2 carries no penalty
        f = sparse_from_sites(1, 10, [[2], [4]], [3.0, 3.0])
        top = vr.psi_top2(f, 100.0)
        assert tuple(top.site1) == (2,)
        assert top.value1 == 3.0

    def test_sparse_dense_identical(self):
        dense = pt.sample_dense(1, 2000, seed=3)
        sparse = pt.sample_exceedances(1, 2000, 2.0, seed=3, method="scan")
        a = vr.psi_top2(dense, 200.0)
        b = vr.psi_top2(sparse, 200.0)
        assert np.array_equal(a.site1, b.site1)
        assert np.array_equal(a.site2, b.site2)
        assert (a.value1, a.value2) == (b.value1, b.value2)
        assert b.certified

    def test_uncertified_when_threshold_high(self):
        f = sparse_from_sites(1, 100, [[3], [5]], [9.0, 8.9], threshold=8.85)
        top = vr.psi_top2(f, 25.0)
        assert not top.certified

    def test_gap_positive_in_samples(self):
        for s in range(10):
            f = pt.sample_dense(1, 200, seed=40 + s)
            assert vr.psi_top2(f, 50.0).gap > 0.0

    def test_argmax_stable_under_time_rescaling(self):
        # two-site field built so the ranking is t-independent in a range
        f = sparse_from_sites(1, 200, [[10], [100]], [6.0, 6.5])
        sites = {t: tuple(vr.psi_top2(f, t).site1) for t in (50.0, 100.0)}
        assert sites[50.0] == sites[100.0]

    def test_annulus_variant(self):
        f = pt.sample_dense(1, 300, seed=5)
        full = vr.psi_top2(f, 30.0)
        ann = vr.psi_top2(f, 30.0, annulus_only=True)
        assert ann.value1 <= full.value1 + 1e-15


class TestCertifiedHelpers:
    def test_retry_lowers_threshold(self):
        # absurdly high starting threshold forces retries
        top = vr.certified_top2(1e3, 1, seed=5,
                                threshold=vr.default_sparse_threshold(1e3, 1) + 8)
        base = vr.certified_top2(1e3, 1, seed=5)
        assert top.certified and base.certified
        # both must agree with the dense scan of the same seed
        dense = pt.sample_dense(1, 6908, seed=5)
        ref = vr.psi_top2(dense, 1e3)
        assert np.array_equal(base.site1, ref.site1)

    def test_certified_lower_index(self):
        v = vr.certified_lower_index(1e3, 1, seed=6)
        dense = pt.sample_dense(1, 6908, seed=6)
        assert v == pytest.approx(vr.lower_index(dense, 1e3), rel=1e-14)


class TestEmptySparseFields:
    def test_lower_index_raises(self):
        f = pt.sample_exceedances(1, 10, 50.0, 0)
        assert f.size == 0
        with pytest.raises(SparseValidityError):
            vr.lower_index(f, 1.0)

    def test_upper_index_empty_annulus(self):
        # r=10 lies inside the inner radius t/(log t)^2 ~ 21 at t=1000
        dense = pt.sample_dense(1, 10, seed=2)
        assert vr.upper_index(dense, 1e3, 1.0) == -math.inf
        open_field = sparse_from_sites(1, 10, [[1]], [9.0], threshold=0.0)
        assert vr.upper_index(open_field, 1e3, 1.0) == -math.inf
        cut = sparse_from_sites(1, 10, [[1]], [9.0], threshold=5.0)
        with pytest.raises(SparseValidityError):
            vr.upper_index(cut, 1e3, 1.0)

    def test_certified_lower_index_raises(self):
        with pytest.raises(SparseValidityError):
            vr.certified_lower_index(100.0, 1, 3, threshold=1000.0)


class TestSummary:
    def test_json_and_csv(self):
        f = pt.sample_dense(1, 300, seed=14)
        s = vr.variational_summary(f, 40.0, c=1.0)
        row = json.loads(s.to_json())
        assert set(row) >= {"t", "N_lower", "N_upper", "psi1", "psi2", "gap",
                            "x1", "searchRadius"}
        assert row["gap"] >= 0.0
        csv = vr.summary_csv_row(14, s)
        assert csv.startswith("14,40.0,")
        assert len(csv.split(",")) == len(vr.CSV_HEADER.split(","))
