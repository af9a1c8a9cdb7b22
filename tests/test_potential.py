import math
import struct

import numpy as np
import pytest
from scipy import stats

from pamlab import geometry as g
from pamlab import potential as pt
from pamlab import randomness as rn
from pamlab.errors import ResourceCapError, SparseValidityError


class TestDistributionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            pt.DistributionSpec("exponential", 1.0)
        with pytest.raises(ValueError):
            pt.DistributionSpec("weibull", 1.5)
        with pytest.raises(ValueError):
            pt.DistributionSpec("weibull")
        with pytest.raises(ValueError):
            pt.DistributionSpec("pareto", -1.0)
        pt.DistributionSpec("pareto", 2.5).validate_for_dimension(2)
        with pytest.raises(ValueError):
            pt.DistributionSpec("pareto", 1.5).validate_for_dimension(2)

    def test_survival(self):
        assert pt.EXPONENTIAL.survival(3.0) == pytest.approx(math.exp(-3))
        w = pt.DistributionSpec("weibull", 0.5)
        assert w.survival(4.0) == pytest.approx(math.exp(-2.0))
        p = pt.DistributionSpec("pareto", 2.0)
        assert p.survival(0.5) == 1.0
        assert p.survival(10.0) == pytest.approx(0.01)

    def test_transforms_match_survival(self):
        # empirical check that from_exponential induces the right tail
        e = rn.site_exponentials(5, 0, 200_000)
        for spec, u in [(pt.DistributionSpec("weibull", 0.5), 3.0),
                        (pt.DistributionSpec("pareto", 3.0), 2.0)]:
            x = spec.from_exponential(e)
            frac = (x > u).mean()
            sd = math.sqrt(spec.survival(u) / 200_000)
            assert abs(frac - spec.survival(u)) < 5 * sd


class TestDenseSampling:
    def test_small_field_positive(self):
        f = pt.sample_dense(1, 2, seed=123)
        assert f.values.shape == (5,)
        assert (f.values > 0).all()

    def test_determinism(self):
        a = pt.sample_dense(2, 20, seed=9)
        b = pt.sample_dense(2, 20, seed=9)
        assert np.array_equal(a.values, b.values)
        c = pt.sample_dense(2, 20, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_site_stream_independent_of_radius(self):
        small = pt.sample_dense(2, 5, seed=4)
        large = pt.sample_dense(2, 30, seed=4)
        assert np.array_equal(large.values[:small.size], small.values)
        z = (2, -1)
        assert small.value_at(z) == large.value_at(z)

    def test_empirical_mean(self):
        # law of large numbers at one million exponential draws
        f = pt.sample_dense(1, 500_000, seed=77)
        assert abs(f.values.mean() - 1.0) < 0.01

    def test_memory_budget(self):
        with pytest.raises(ResourceCapError):
            pt.sample_dense(1, 10_000_000, seed=0, memory_gib=0.01)

    @pytest.mark.parametrize("d,r", [(1, 9), (2, 7), (3, 5)])
    def test_coords_come_from_the_box(self, d, r):
        f = pt.sample_dense(d, r, seed=1)
        assert f.coords is g.build_box(d, r).coords
        assert np.array_equal(f.coords,
                              g.unrank(d, np.arange(f.size, dtype=np.int64)))

    def test_coords_leave_the_neighbor_table_unbuilt(self):
        g.build_box.cache_clear()
        f = pt.sample_dense(3, 6, seed=1)
        box = g.build_box(3, 6)
        assert f.coords is box.coords
        assert "nbr" not in vars(box) and "out_degree" not in vars(box)
        assert box.out_degree[0] == 0
        assert "nbr" in vars(box)


class TestExceedanceSampling:
    def test_zero_threshold_is_dense(self):
        sf = pt.sample_exceedances(1, 50, 0.0, seed=3, method="scan")
        assert sf.size == 101
        dense = pt.sample_dense(1, 50, seed=3)
        assert np.array_equal(sf.values, dense.values)

    def test_huge_threshold_empty(self):
        sf = pt.sample_exceedances(1, 50, 40.0, seed=3, method="scan")
        assert sf.size == 0

    def test_scan_couples_to_dense(self):
        dense = pt.sample_dense(1, 200, seed=8)
        sf = pt.sample_exceedances(1, 200, 1.5, seed=8, method="scan")
        mask = dense.values > 1.5
        assert np.array_equal(sf.values, dense.values[mask])
        assert np.array_equal(sf.coords, dense.coords[mask])

    def test_invariants(self):
        sf = pt.sample_exceedances(2, 40, 1.0, seed=5, method="binomial")
        assert (sf.values > 1.0).all()
        assert (g.norm1(sf.coords) <= 40).all()
        keys = g.encode_sites(sf.coords, 40)
        assert len(set(keys.tolist())) == sf.size

    def test_binomial_count_statistics(self):
        # mean count over replicates vs Binomial(101, e^-3), three sigma
        n_rep = 10_000
        counts = np.array([
            pt.sample_exceedances(1, 50, 3.0, seed=s, method="binomial").size
            for s in range(n_rep)])
        p = math.exp(-3.0)
        mean = 101 * p
        sd = math.sqrt(101 * p * (1 - p) / n_rep)
        assert abs(counts.mean() - mean) < 3 * sd

    def test_binomial_conditional_values_lawful(self):
        # conditional law above u must match the dense field's exceedances
        spec = pt.DistributionSpec("weibull", 0.5)
        dense_vals = []
        sparse_vals = []
        for s in range(300):
            dv = pt.sample_dense(1, 100, spec, seed=s).values
            dense_vals.append(dv[dv > 3.0])
            sparse_vals.append(pt.sample_exceedances(
                1, 100, 3.0, seed=s, spec=spec, method="binomial").values)
        dense_vals = np.concatenate(dense_vals)
        sparse_vals = np.concatenate(sparse_vals)
        _, pv = stats.ks_2samp(dense_vals, sparse_vals)
        assert pv > 0.001

    def test_record_cap(self):
        with pytest.raises(ResourceCapError):
            pt.sample_exceedances(1, 10_000_000, 0.1, seed=0, record_cap=1000)

    def test_threshold_guard(self):
        with pytest.raises(ValueError):
            pt.sample_exceedances(1, 50, -1.0, seed=0)


class TestOrderStats:
    def test_explicit_example(self):
        # canonical order for d=1, r=1 is [0, -1, +1]
        f = pt.PotentialField.from_values(1, 1, [0.5, 1.0, 2.0])
        st = pt.order_stats(f, 2)
        assert st.entries == [(1, 2.0, (1,)), (2, 1.0, (-1,))]

    def test_full_sort(self):
        f = pt.sample_dense(1, 30, seed=2)
        st = pt.order_stats(f, f.size)
        assert np.array_equal(np.sort(f.values)[::-1], st.values)

    def test_matches_brute_force(self):
        f = pt.sample_dense(2, 12, seed=6)
        st = pt.order_stats(f, 10)
        brute = np.sort(f.values)[::-1][:10]
        assert np.array_equal(st.values, brute)

    def test_tie_rule_lexicographic(self):
        f = pt.PotentialField.from_values(1, 1, [2.0, 2.0, 2.0])
        st = pt.order_stats(f, 3)
        assert [e[2] for e in st.entries] == [(-1,), (0,), (1,)]

    def test_sparse_equals_dense_above_threshold(self):
        dense = pt.sample_dense(1, 400, seed=10)
        sf = pt.sample_exceedances(1, 400, 2.0, seed=10, method="scan")
        k = int((dense.values > 2.0).sum())
        sd = pt.order_stats(dense, k)
        ss = pt.order_stats(sf, k)
        assert np.array_equal(sd.values, ss.values)
        assert np.array_equal(sd.coords, ss.coords)

    def test_k_too_large_sparse(self):
        sf = pt.sample_exceedances(1, 50, 3.0, seed=1, method="binomial")
        with pytest.raises(SparseValidityError):
            pt.order_stats(sf, sf.size + 1)

    def test_sparse_top_k_certified(self):
        st = pt.sparse_top_k(1, 50_000, 5, seed=3)
        dense = pt.sample_dense(1, 50_000, seed=3)
        brute = pt.order_stats(dense, 5)
        assert np.array_equal(st.values, brute.values)
        assert np.array_equal(st.coords, brute.coords)


class TestCertify:
    @staticmethod
    def record_draws(monkeypatch):
        draws = []
        sample = pt.sample_exceedances

        def recorded(*args, **kwargs):
            f = sample(*args, **kwargs)
            draws.append((f.threshold, f.attempt))
            return f

        monkeypatch.setattr(pt, "sample_exceedances", recorded)
        return draws

    @staticmethod
    def never(f):
        raise SparseValidityError(f"threshold {f.threshold}")

    def test_schedule_stops_after_six_attempts(self, monkeypatch):
        draws = self.record_draws(monkeypatch)
        with pytest.raises(SparseValidityError, match="threshold 10.0"):
            pt.certify(self.never, 1, 30, 20.0, 1)
        assert draws == [(20.0 - 2 * i, i) for i in range(6)]

    def test_schedule_stops_after_zero(self, monkeypatch):
        draws = self.record_draws(monkeypatch)
        with pytest.raises(SparseValidityError, match="threshold 0.0"):
            pt.certify(self.never, 1, 30, 5.0, 1)
        assert draws == [(5.0, 0), (3.0, 1), (1.0, 2), (0.0, 3)]

    def test_returns_first_certified(self, monkeypatch):
        draws = self.record_draws(monkeypatch)

        def needs_ten(f):
            if f.size < 10:
                raise SparseValidityError("too few records")
            return f.size

        f, size = pt.certify(needs_ten, 1, 30, 4.0, 2)
        assert size == f.size >= 10
        assert draws[-1] == (f.threshold, f.attempt)
        assert all(n < 10 for n in (pt.sample_exceedances(
            1, 30, u, 2, attempt=a).size for u, a in draws[:-1]))


class TestEnvelopes:
    def test_domain_guard(self):
        with pytest.raises(ValueError):
            pt.envelope_check(1, [10], 0.5, 1.0, seed=0)

    def test_ratio_bracket_many_seeds(self):
        # M_r / log r concentrates near d; [0.6, 1.6] holds essentially
        # always at r = 1e5 (tail analysis: failure rate ~ 0.2%)
        hits = 0
        for s in range(100):
            row = pt.envelope_check(1, [100_000], 0.5, 1.0, seed=s)[0]
            hits += 0.6 <= row["ratio"] <= 1.6
        assert hits >= 95

    def test_upper_envelope_d2(self):
        # per-seed violation probability ~ 7 percent (exact extreme-value
        # computation: l_r e^{-bound} = 0.072), so demand the match to that
        # rate rather than the nominal 95 percent
        hits = 0
        for s in range(100):
            row = pt.envelope_check(2, [1000], 0.5, 1.0, seed=s)[0]
            hits += row["upper_ok"]
        assert hits >= 85

    def test_lower_envelope_holds(self):
        for s in range(20):
            row = pt.envelope_check(1, [100_000], 0.5, 1.0, seed=s)[0]
            assert row["lower_ok"]


class TestOrderAsymptotics:
    def test_guards(self):
        with pytest.raises(ValueError):
            pt.order_asymptotics_check(1, 1000, 1.5, [0])
        with pytest.raises(ValueError):
            pt.order_asymptotics_check(1, 50, 0.5, [0])

    def test_rank_one_limit(self):
        # beta -> 0 reduces to the running maximum, ratio near d
        samples = pt.order_asymptotics_check(1, 100_000, 1e-9, range(10))
        assert abs(samples.mean() - 1.0) < 0.25

    def test_d1_limit_value(self):
        samples = pt.order_asymptotics_check(1, 100_000, 0.5, range(20))
        assert abs(samples.mean() - 0.5) < 0.15

    def test_d2_limit_value(self):
        samples = pt.order_asymptotics_check(2, 10_000, 0.3, range(20))
        assert abs(samples.mean() - 1.7) < 0.2


def test_order_gap_growth():
    # spacing between top order statistics grows like (sigma - c) log n;
    # empirical frequency of both gap events must not decay as n grows
    sigma, rho, c = 0.25, 0.4, 0.1
    freqs = []
    for n in (1_000, 10_000, 100_000):
        k = int(n ** sigma)
        m = int(n ** rho)
        hits = 0
        for s in range(40):
            st = pt.sparse_top_k(1, n, m, seed=1000 + s)
            e1 = st.value(1) - st.value(k) > (sigma - c) * math.log(n)
            e2 = st.value(k) - st.value(m) > (rho - sigma - c) * math.log(n)
            hits += e1 and e2
        freqs.append(hits / 40)
    assert freqs[0] <= freqs[1] + 0.05
    assert freqs[1] <= freqs[2] + 0.05
    assert freqs[2] >= 0.9


class TestSerialization:
    def test_text_roundtrip_dense(self, tmp_path):
        f = pt.sample_dense(2, 8, seed=3)
        path = tmp_path / "field.txt"
        pt.write_field_text(f, path)
        back = pt.read_field_text(path)
        assert isinstance(back, pt.PotentialField)
        assert np.array_equal(back.values, f.values)
        assert (back.dimension, back.radius, back.seed) == (2, 8, 3)

    def test_text_roundtrip_sparse(self, tmp_path):
        f = pt.sample_exceedances(2, 30, 1.5, seed=4, method="binomial",
                                  spec=pt.DistributionSpec("weibull", 0.5))
        path = tmp_path / "field.txt"
        pt.write_field_text(f, path)
        back = pt.read_field_text(path)
        assert np.array_equal(back.values, f.values)
        assert np.array_equal(back.coords, f.coords)
        assert back.threshold == 1.5
        assert back.spec == f.spec

    def test_binary_roundtrip(self, tmp_path):
        for f in (pt.sample_dense(1, 40, seed=1),
                  pt.sample_exceedances(2, 25, 0.5, seed=2, method="scan")):
            path = tmp_path / "field.bin"
            pt.write_field_binary(f, path)
            back = pt.read_field_binary(path)
            assert np.array_equal(back.values, f.values)
            assert back.radius == f.radius

    def test_binary_roundtrip_seeds_above_2_63(self, tmp_path):
        seeds = [s for s in (rn.spawn_seed(1, 11, i) for i in range(16))
                 if s >= 2 ** 63] + [2 ** 64 - 1]
        assert len(seeds) > 1
        path = tmp_path / "field.bin"
        for s in seeds:
            for f in (pt.sample_dense(1, 3, seed=s),
                      pt.sample_exceedances(1, 30, 1.0, seed=s, method="scan")):
                pt.write_field_binary(f, path)
                assert pt.read_field_binary(path).seed == s

    def test_binary_layout_unchanged_below_2_63(self, tmp_path):
        # the seed slot was signed in v1; seeds below 2^63 have the same
        # bytes either way, so v1 files still read back unchanged
        f = pt.sample_dense(1, 2, seed=5)
        path = tmp_path / "field.bin"
        pt.write_field_binary(f, path)
        v1 = struct.pack("<4sIIqQBBdqd", b"PAMF", 1, 1, 2, 5, 0, 0,
                         float("nan"), 5, float("nan"))
        assert path.read_bytes() == v1 + f.values.astype("<f8").tobytes()

    def test_text_format_one_line_per_site(self, tmp_path):
        f = pt.sample_dense(1, 100, seed=0)
        path = tmp_path / "field.txt"
        pt.write_field_text(f, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 201  # header plus one line per site
