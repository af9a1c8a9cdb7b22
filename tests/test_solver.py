import math

import numpy as np
import pytest

from pamlab import geometry as g
from pamlab import oracle as oc
from pamlab import potential as pt
from pamlab import solver as sv
from pamlab import variational as vr
from pamlab.errors import NumericalError


def reflected_field(f: pt.PotentialField, axis: int) -> pt.PotentialField:
    coords = f.coords.copy()
    coords[:, axis] *= -1
    perm = g.rank(f.dimension, coords)
    values = np.empty_like(f.values)
    values[perm] = f.values
    return pt.PotentialField.from_values(f.dimension, f.radius, values,
                                         f.spec, f.seed)


class TestChooseBoxRadius:
    def test_floor(self):
        assert sv.choose_box_radius(0.5, 1) >= 20
        assert sv.choose_box_radius(1.0, 1) >= 20

    def test_t100_d1(self):
        assert sv.choose_box_radius(100.0, 1) == 461

    def test_fixed_policy(self):
        assert sv.choose_box_radius(50.0, 1, policy="fixed:33") == 33

    def test_guard(self):
        with pytest.raises(ValueError):
            sv.choose_box_radius(0.0, 1)


class TestGenerator:
    def test_single_site(self):
        f = pt.PotentialField.from_values(1, 0, [4.2])
        op = sv.build_generator(f)
        assert op.as_dense() == pytest.approx(np.array([[4.2 - 2.0]]))

    def test_zero_potential_row_sums(self):
        f = pt.PotentialField.from_values(2, 2, np.zeros(g.ball_size(2, 2)))
        a = sv.build_generator(f).as_dense()
        rows = a.sum(axis=1)
        box = g.build_box(2, 2)
        assert np.array_equal(-rows, box.out_degree.astype(float))

    def test_stencil_on_indicator(self):
        f = pt.sample_dense(1, 2, seed=1)
        op = sv.build_generator(f)
        e0 = np.zeros(5)
        e0[0] = 1.0
        out = op.apply(e0)
        # canonical order [0, -1, +1, -2, +2]
        expected = np.array([f.values[0] - 2.0, 1.0, 1.0, 0.0, 0.0])
        assert np.array_equal(out, expected)

    def test_symmetric_quadratic_form(self):
        f = pt.sample_dense(2, 3, seed=5)
        op = sv.build_generator(f)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(op.size)
        w = rng.standard_normal(op.size)
        assert v @ op.apply(w) == pytest.approx(w @ op.apply(v), rel=1e-12)


class TestIntegrate:
    def test_zero_potential_conserves_mass(self):
        f = pt.PotentialField.from_values(1, 60, np.zeros(121))
        traj = sv.integrate(f, 5.0, [5.0], tol=1e-10)
        p = traj.profile_at(5.0)
        assert abs(math.exp(p.log_mass) - 1.0) <= 1e-9

    def test_single_site_closed_form(self):
        f = pt.PotentialField.from_values(1, 0, [3.0])
        traj = sv.integrate(f, 2.0, [2.0], tol=1e-10)
        assert traj.profile_at(2.0).log_mass == pytest.approx(2.0, abs=1e-9)

    def test_matches_dense_oracle(self):
        f = pt.sample_dense(1, 6, seed=0)
        traj = sv.integrate(f, 2.0, [0.5, 1.0, 2.0], tol=1e-9)
        for t in (0.5, 1.0, 2.0):
            p = traj.profile_at(t)
            ref = oc.dense_exponential_oracle(f, t)
            assert p.log_mass == pytest.approx(ref.log_mass, rel=1e-6)
            assert np.abs(p.weights - ref.weights).max() \
                <= 1e-6 * ref.weights.max()

    def test_oracle_equivalence_d2(self):
        f = pt.sample_dense(2, 4, seed=9)  # 41 sites
        traj = sv.integrate(f, 1.0, [1.0], tol=1e-9)
        ref = oc.dense_exponential_oracle(f, 1.0)
        p = traj.profile_at(1.0)
        assert p.log_mass == pytest.approx(ref.log_mass, rel=1e-5, abs=1e-8)
        assert np.abs(p.weights - ref.weights).max() <= 1e-5 * ref.weights.max()

    def test_normalization_and_positivity(self):
        f = pt.sample_dense(1, 40, seed=3)
        traj = sv.integrate(f, 8.0, [1.0, 3.0, 8.0], tol=1e-9)
        for p in traj.profiles:
            assert abs(p.weights.sum() - 1.0) <= 1e-12
            assert (p.weights >= 0.0).all()

    def test_time_zero_profile(self):
        f = pt.sample_dense(1, 10, seed=1)
        traj = sv.integrate(f, 1.0, [0.0, 1.0], tol=1e-9)
        p0 = traj.profile_at(0.0)
        assert p0.log_mass == 0.0
        assert p0.weights[0] == 1.0

    def test_reflection_symmetry(self):
        for d, r, t in ((1, 25, 2.0), (2, 6, 1.0)):
            f = pt.sample_dense(d, r, seed=7)
            fr = reflected_field(f, 0)
            a = sv.integrate(f, t, [t], tol=1e-10).profile_at(t)
            b = sv.integrate(fr, t, [t], tol=1e-10).profile_at(t)
            assert a.log_mass == pytest.approx(b.log_mass, abs=1e-10)
            coords = a.coords.copy()
            coords[:, 0] *= -1
            perm = g.rank(d, coords)
            assert np.abs(a.weights - b.weights[perm]).max() < 1e-10

    def test_potential_monotonicity(self):
        f = pt.sample_dense(1, 12, seed=11)
        base = sv.integrate(f, 1.5, [1.5], tol=1e-10).profile_at(1.5)
        bumped = f.with_value((3,), f.value_at((3,)) + 0.5)
        up = sv.integrate(bumped, 1.5, [1.5], tol=1e-10).profile_at(1.5)
        assert up.log_mass >= base.log_mass - 1e-9

    def test_box_monotonicity(self):
        small = pt.sample_dense(1, 10, seed=13)
        large = pt.sample_dense(1, 14, seed=13)  # same stream prefix
        a = sv.integrate(small, 1.0, [1.0], tol=1e-10).profile_at(1.0)
        b = sv.integrate(large, 1.0, [1.0], tol=1e-10).profile_at(1.0)
        assert b.log_mass >= a.log_mass - 1e-9

    def test_output_grid_independence(self):
        f = pt.sample_dense(1, 20, seed=17)
        coarse = sv.integrate(f, 2.0, [2.0], tol=1e-10).profile_at(2.0)
        fine = sv.integrate(f, 2.0, [0.3, 0.7, 1.1, 1.9, 2.0],
                            tol=1e-10).profile_at(2.0)
        assert coarse.log_mass == pytest.approx(fine.log_mass, abs=1e-8)
        assert np.abs(coarse.weights - fine.weights).max() < 1e-8

    def test_long_run_matches_dense_oracle(self):
        # t * Lambda is about 700 here, so the run rests on renormalizing
        # across some fifty substeps
        f = pt.sample_dense(1, 99, seed=5)
        traj = sv.integrate(f, 100.0, [100.0], tol=1e-9)
        ref = oc.dense_exponential_oracle(f, 100.0)
        p = traj.profile_at(100.0)
        assert traj.accepted_steps > 30
        assert p.log_mass == pytest.approx(ref.log_mass, rel=1e-12)
        assert np.abs(p.weights - ref.weights).max() <= 1e-12

    def test_boundary_bound_under_tol_at_default_box(self):
        d, t, tol = 1, 20.0, 1e-9
        bounds = []
        for radius in (sv.choose_box_radius(t, d), 40, 35, 30, 25):
            f = pt.sample_dense(d, radius, seed=23)
            bounds.append(sv.integrate(f, t, [t], tol=tol).boundary_mass_bound)
        assert bounds[0] < tol
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_matvecs_count_apply_calls(self, monkeypatch):
        calls = []
        apply = sv.GeneratorOperator.apply

        def counted(op, v):
            calls.append(1)
            return apply(op, v)

        monkeypatch.setattr(sv.GeneratorOperator, "apply", counted)
        f = pt.sample_dense(2, 8, seed=4)
        traj = sv.integrate(f, 3.0, [1.0, 3.0], tol=1e-9)
        assert traj.matvecs == len(calls) > 0
        assert traj.accepted_steps >= 2

    def test_boundary_bound_reflects_box_size(self):
        f_small = pt.sample_dense(1, 21, seed=19)
        f_large = pt.sample_dense(1, 60, seed=19)
        b_small = sv.integrate(f_small, 3.0, [3.0], tol=1e-8)
        b_large = sv.integrate(f_large, 3.0, [3.0], tol=1e-8)
        assert b_large.boundary_mass_bound < b_small.boundary_mass_bound

    def test_guards(self):
        f = pt.sample_dense(1, 5, seed=0)
        with pytest.raises(ValueError):
            sv.integrate(f, 1.0, [1.0], tol=1e-15)
        with pytest.raises(ValueError):
            sv.integrate(f, 1.0, [2.0], tol=1e-9)
        with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
            bad = pt.PotentialField.from_values(1, 2, [1.0, 1.0, np.inf, 1.0, 1.0])
            sv.integrate(bad, 1.0, [1.0], tol=1e-9)


class TestProfileQueries:
    def test_growth_rate(self):
        f = pt.PotentialField.from_values(1, 0, [3.0])
        traj = sv.integrate(f, 2.0, [2.0], tol=1e-10)
        assert sv.growth_rate(traj.profile_at(2.0)) == pytest.approx(1.0,
                                                                     abs=1e-9)
        with pytest.raises(ValueError):
            sv.growth_rate(sv.integrate(f, 1.0, [0.0], tol=1e-9).profile_at(0.0))

    def test_localization_origin_at_t0(self):
        f = pt.sample_dense(1, 8, seed=2)
        traj = sv.integrate(f, 0.5, [0.0], tol=1e-9)
        assert tuple(sv.localization_site(traj.profile_at(0.0))) == (0,)

    def test_localization_matches_oracle(self):
        f = pt.sample_dense(1, 6, seed=21)
        traj = sv.integrate(f, 2.0, [2.0], tol=1e-9)
        ref = oc.dense_exponential_oracle(f, 2.0)
        got = sv.localization_site(traj.profile_at(2.0))
        expect = f.coords[int(np.argmax(ref.weights))]
        assert np.array_equal(got, expect)

    def test_mass_within(self):
        f = pt.sample_dense(1, 8, seed=3)
        traj = sv.integrate(f, 1.0, [0.0, 1.0], tol=1e-9)
        p = traj.profile_at(1.0)
        assert sv.mass_within(p, (0,), 16) == pytest.approx(1.0, abs=1e-12)
        site = sv.localization_site(p)
        assert sv.mass_within(p, site, 0.0) == pytest.approx(p.weights.max())
        p0 = traj.profile_at(0.0)
        assert sv.mass_within(p0, (0,), 0.0) == 1.0

    def test_trajectory_jsonl(self):
        f = pt.sample_dense(1, 8, seed=3)
        traj = sv.integrate(f, 1.0, [0.5, 1.0], tol=1e-9)
        text = sv.trajectory_to_jsonl(traj, radii=[1.0])
        lines = text.strip().splitlines()
        assert len(lines) == 2
        import json
        row = json.loads(lines[0])
        assert set(row) == {"t", "logMass", "argmax", "mass_within"}


def test_sandwich_diagnostic():
    # the solved growth rate stays above the lower variational index minus
    # the drift term and a unit of finite-time slack for most seeds
    d, t = 1, 20.0
    radius = sv.choose_box_radius(t, d)
    hits = 0
    n = 20
    for s in range(n):
        f = pt.sample_dense(d, radius, seed=3000 + s)
        lt = sv.growth_rate(sv.integrate(f, t, [t], tol=1e-7).profile_at(t))
        lower = vr.lower_index(f, t)
        hits += lt >= lower - 2 * d - 1.0
    assert hits >= 0.95 * n
