import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate as sci_integrate
from scipy.linalg import expm

from pamlab import oracle as oc
from pamlab import potential as pt
from pamlab import solver as sv
from pamlab.errors import ResourceCapError


def mp_divided_difference_exp(nodes, t, dps=60):
    """High-precision reference via the bidiagonal matrix exponential."""
    mp.mp.dps = dps
    n = len(nodes)
    j = mp.zeros(n)
    for i, x in enumerate(nodes):
        j[i, i] = mp.mpf(float(x)) * mp.mpf(float(t))
        if i + 1 < n:
            j[i, i + 1] = mp.mpf(float(t))
    return float(mp.expm(j)[0, n - 1])


class TestSimplexIntegral:
    def test_two_nodes(self):
        assert oc.simplex_integral([0.0, 1.0], 1.0) == pytest.approx(
            math.e - 1.0, abs=1e-12)

    def test_confluent_pair(self):
        # degenerate integrand over the unit 1-simplex
        assert oc.simplex_integral([0.0, 0.0], 1.0) == pytest.approx(
            1.0, abs=1e-14)

    def test_three_nodes_against_quadrature(self):
        def integrand(t1, t0):
            return math.exp(0.0 * t0 + 1.0 * t1 + (1.0 - t0 - t1) * 2.0)

        ref, err = sci_integrate.dblquad(
            integrand, 0.0, 1.0, 0.0, lambda t0: 1.0 - t0, epsabs=1e-12)
        assert err < 1e-9
        value = oc.simplex_integral([0.0, 1.0, 2.0], 1.0)
        assert value == pytest.approx(ref, abs=1e-6)
        # closed form of the same divided difference: (e-1)^2 / 2
        assert value == pytest.approx((math.e - 1.0) ** 2 / 2.0, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            nodes = rng.uniform(0.0, 6.0, size=rng.integers(2, 6))
            t = float(rng.uniform(0.1, 2.5))
            base = oc.simplex_integral(nodes, t)
            for perm in itertools.permutations(nodes):
                assert oc.simplex_integral(perm, t) == pytest.approx(
                    base, rel=1e-10)

    def test_monotone_in_nodes_and_time(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            nodes = rng.uniform(0.0, 4.0, size=4)
            t = float(rng.uniform(0.2, 2.0))
            base = oc.simplex_integral(nodes, t)
            bumped = nodes.copy()
            bumped[rng.integers(0, 4)] += 0.3
            assert oc.simplex_integral(bumped, t) > base
            assert oc.simplex_integral(nodes, t + 0.1) > base

    def test_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            nodes = rng.uniform(-3.0, 3.0, size=rng.integers(1, 9))
            assert oc.simplex_integral(nodes, float(rng.uniform(0.1, 3))) > 0

    def test_near_confluent_matches_reference(self):
        for gap in (1e-5, 1e-7, 1e-9, 0.0):
            nodes = [1.0, 1.0 + gap]
            mine = oc.simplex_integral(nodes, 0.8)
            ref = mp_divided_difference_exp(nodes, 0.8)
            assert abs(mine - ref) < 1e-8

    def test_clustered_repeated_nodes(self):
        # revisit-heavy node multisets are the hard case for stability
        nodes = [0.2, 0.2, 0.2, 1.7, 1.7, 0.9, 0.9, 0.9, 0.9, 2.4]
        mine = oc.simplex_integral(nodes, 0.5)
        ref = mp_divided_difference_exp(nodes, 0.5)
        assert mine == pytest.approx(ref, rel=1e-12)

    def test_input_guards(self):
        with pytest.raises(ValueError):
            oc.simplex_integral([0.0, math.inf], 1.0)
        with pytest.raises(ValueError):
            oc.simplex_integral([0.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            oc.simplex_integral([], 1.0)


class TestUpperBound:
    def test_two_node_cases(self):
        assert oc.uppb_bound_check([0.0, 1.0], 1.0)
        lhs = oc.simplex_integral([0.0, 5.0], 2.0)
        rhs = math.exp(2.0 * 5.0) / 5.0
        assert lhs <= rhs
        assert oc.uppb_bound_check([0.0, 5.0], 2.0)

    def test_randomized(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(1, 7))
            nodes = rng.uniform(0.0, 8.0, size=n + 1)
            if np.unique(nodes).size != n + 1:
                continue
            t = float(rng.uniform(0.05, 3.0))
            assert oc.uppb_bound_check(nodes, t)
            checked += 1

    def test_requires_unique_maximum(self):
        with pytest.raises(ValueError):
            oc.uppb_bound_check([2.0, 2.0, 1.0], 1.0)


class TestDenseExponentialOracle:
    def test_single_site(self):
        f = pt.PotentialField.from_values(1, 0, [0.0])
        sol = oc.dense_exponential_oracle(f, 1.0)
        assert sol.log_mass == pytest.approx(-2.0, abs=1e-13)
        assert sol.weights[0] == 1.0

    def test_time_zero(self):
        f = pt.sample_dense(1, 4, seed=2)
        sol = oc.dense_exponential_oracle(f, 0.0)
        assert sol.log_mass == 0.0
        assert sol.weights[0] == 1.0
        assert sol.weights[1:].sum() == 0.0

    def test_remainder_certified(self):
        f = pt.sample_dense(1, 6, seed=3)
        sol = oc.dense_exponential_oracle(f, 2.0)
        assert sol.remainder_bound <= 1e-12

    @pytest.mark.parametrize("d,r,t", [(1, 6, 0.7), (1, 9, 2.0), (2, 3, 1.1)])
    def test_matches_expm(self, d, r, t):
        f = pt.sample_dense(d, r, seed=d * 10 + r)
        sol = oc.dense_exponential_oracle(f, t)
        a = sv.build_generator(f).as_dense()
        u = expm(t * a)[:, 0]
        assert sol.log_mass == pytest.approx(math.log(u.sum()), abs=1e-11)
        assert np.abs(sol.weights - u / u.sum()).max() < 1e-12

    def test_site_limit(self):
        f = pt.sample_dense(1, 200, seed=0)
        with pytest.raises(ResourceCapError):
            oc.dense_exponential_oracle(f, 1.0)


class TestPathSum:
    def test_no_jump_term(self):
        f = pt.sample_dense(1, 3, seed=4)
        res = oc.path_sum_all(f, 0.7, 0)
        assert res.values[0] == pytest.approx(
            math.exp((f.values[0] - 2.0) * 0.7), rel=1e-14)
        assert res.values[1:].sum() == 0.0

    def test_zero_potential_mass(self):
        # with xi = 0 the path sum reproduces the in-box walk probability
        f = pt.PotentialField.from_values(1, 3, np.zeros(7))
        res = oc.path_sum_all(f, 0.5, 16)
        ref = oc.dense_exponential_oracle(f, 0.5)
        in_box = math.exp(ref.log_mass)
        assert abs(res.values.sum() - in_box) <= res.tail_bound + 1e-13
        assert res.values.sum() <= 1.0

    def test_cross_oracle_agreement(self):
        f = pt.sample_dense(1, 3, seed=0)
        res = oc.path_sum_all(f, 0.5, 14)
        sol = oc.dense_exponential_oracle(f, 0.5)
        u = sol.weights * math.exp(sol.log_mass)
        assert np.abs(res.values - u).max() <= res.tail_bound + 1e-12

    def test_site_accessor(self):
        f = pt.sample_dense(1, 3, seed=0)
        value, tail = oc.path_sum_fk(f, 0.5, (1,), 10)
        res = oc.path_sum_all(f, 0.5, 10)
        assert value == res.values[2]  # canonical index of +1
        assert tail == res.tail_bound

    def test_tail_bound_decreasing(self):
        f = pt.sample_dense(1, 2, seed=1)
        tails = [oc.path_sum_all(f, 0.5, n).tail_bound for n in (4, 8, 12)]
        assert tails[0] > tails[1] > tails[2]

    def test_budget(self):
        f = pt.sample_dense(2, 6, seed=1)
        with pytest.raises(ResourceCapError):
            oc.path_sum_all(f, 0.5, 18, path_budget=10_000)

    def test_time_guard(self):
        f = pt.sample_dense(1, 2, seed=1)
        with pytest.raises(ValueError):
            oc.path_sum_all(f, 0.0, 4)
