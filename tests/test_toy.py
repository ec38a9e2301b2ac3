"""Closed-form homogeneous solutions and their internal consistency."""

import math

import numpy as np
import pytest

from dampedwave.errors import OutOfValidityWindow
from dampedwave.graphs import (
    RegularizedPotential,
    indicator_graph,
    logarithmic_graph,
    eval_j,
)
from dampedwave.toy import exact_family_toy, phase_level_set, yosida_layer_toy
from dampedwave.weaklimit import SpaceProfile, TestFunction, TimeProfile
from tests.oracles import (
    InvalidEll,
    exact_limit_toy,
    limit_level_set,
    limit_toy_solution,
    toy_weak_identity_residual,
    toy_xi_atom,
)


class TestLimitToy:
    def test_free_flight(self):
        assert exact_limit_toy(0.0, 1.0, -1.0, 0.5) == (0.5, 1.0)

    def test_after_elastic_bounce(self):
        u, v = exact_limit_toy(0.0, 1.0, -1.0, 2.0)
        assert u == pytest.approx(0.0) and v == -1.0

    def test_stick_forever_when_ell_zero(self):
        assert exact_limit_toy(0.0, 1.0, 0.0, 5.0) == (1.0, 0.0)

    def test_positive_ell_at_plus_wall_rejected(self):
        with pytest.raises(InvalidEll):
            exact_limit_toy(0.0, 1.0, 0.5, 2.0)

    def test_atoms_equal_velocity_drops(self):
        sol = limit_toy_solution(0.0, 1.0, -0.5, 10.0)
        for (t_j, vb, va), (t_a, mass) in zip(sol.jumps, sol.atoms):
            assert t_j == t_a
            assert mass == pytest.approx(vb - va)

    def test_segments_continuous_in_u(self):
        sol = limit_toy_solution(0.2, 1.0, -0.7, 12.0)
        for a, b in zip(sol.segments, sol.segments[1:]):
            ua_end = a.eval(a.t1)[0]
            ub_start = b.eval(b.t0)[0]
            assert ua_end == pytest.approx(ub_start, abs=1e-12)

    def test_atom_mass_formula(self):
        assert toy_xi_atom(0.0) == 1.0
        assert toy_xi_atom(-1.0) == 2.0
        with pytest.raises(InvalidEll):
            toy_xi_atom(0.3)


class TestFamilyToy:
    def test_velocity_at_one_is_cosine_of_phase(self):
        for eps in (0.1, 0.01, 1e-3):
            rt = 1.0 - eps * math.pi
            _, v = exact_family_toy(rt, eps, 1.0)
            assert v == pytest.approx(-1.0, abs=1e-12)

    def test_entry_continuity(self):
        rt, eps = 0.95, 0.02
        u, v = exact_family_toy(rt, eps, rt)
        assert u == pytest.approx(rt) and v == pytest.approx(1.0)

    def test_apex(self):
        rt, eps = 0.95, 0.02
        u, v = exact_family_toy(rt, eps, rt + eps * math.pi / 2)
        assert u == pytest.approx(rt + eps)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_refuses_past_first_return(self):
        with pytest.raises(OutOfValidityWindow):
            exact_family_toy(0.9, 0.01, 0.9 + 0.01 * math.pi + 1.9)

    def test_random_phases_match_cosine(self, rng):
        eps = 1e-3
        for rt in rng.uniform(1.0 - eps * math.pi, 1.0, 20):
            _, v = exact_family_toy(rt, eps, 1.0)
            assert v == pytest.approx(math.cos((1.0 - rt) / eps), abs=1e-12)


class TestYosidaLayerToy:
    def test_free_flight(self):
        assert yosida_layer_toy(1e-4, 0.5) == (0.5, 1.0)

    def test_apex_and_exit(self):
        eps = 1e-4
        se = math.sqrt(eps)
        u, v = yosida_layer_toy(eps, 1.0 + math.pi * se / 2)
        assert u == pytest.approx(1.0 + se) and v == pytest.approx(0.0, abs=1e-12)
        u, v = yosida_layer_toy(eps, 1.0 + math.pi * se)
        assert u == pytest.approx(1.0, abs=1e-12) and v == pytest.approx(-1.0)

    def test_energy_constant_along_oracle(self):
        # envelope potential + kinetic stays exactly 1/2 along the arch
        eps = 1e-4
        pot = RegularizedPotential(indicator_graph(), eps)
        from dampedwave.graphs import moreau

        for t in np.linspace(0.1, 1.0 + math.pi * math.sqrt(eps), 57):
            u, v = yosida_layer_toy(eps, float(t))
            e = float(moreau(pot, u)) + 0.5 * v * v
            assert e == pytest.approx(0.5, abs=1e-12)

    def test_family_energy_constant_along_oracle(self):
        from dampedwave.graphs import family_j

        rt, eps = 0.97, 0.01
        for t in np.linspace(0.1, rt + math.pi * eps, 57):
            u, v = exact_family_toy(rt, eps, float(t))
            e = family_j(rt, eps, u) + 0.5 * v * v
            assert e == pytest.approx(0.5, abs=1e-12)

    def test_out_of_window(self):
        with pytest.raises(OutOfValidityWindow):
            yosida_layer_toy(1e-4, 3.5)


class TestPhaseLevelSet:
    def test_hard_constraint_two_disjoint_branches(self):
        ls = limit_level_set(indicator_graph(), 0.5, 101)
        assert not ls.connected
        assert len(ls.branches) == 2
        ups = ls.branches[0]
        assert np.all(np.abs(ups[:, 0]) <= 1.0)
        np.testing.assert_allclose(ups[:, 1], 1.0, atol=1e-9)

    def test_zero_level_is_flat_segment(self):
        ls = limit_level_set(indicator_graph(), 0.0, 51)
        assert ls.connected
        for branch in ls.branches:  # the +v and -v branches coincide
            np.testing.assert_allclose(branch[:, 1], 0.0)
            assert np.max(np.abs(branch[:, 0])) == 1.0

    def test_logarithmic_moderate_level_connected(self):
        g = logarithmic_graph()
        c = float(eval_j(g, 0.9))
        ls = limit_level_set(g, c, 201)
        assert ls.connected
        u_max = np.max(ls.branches[0][:, 0])
        assert u_max == pytest.approx(0.9, abs=1e-6)

    def test_logarithmic_high_level_disconnected(self):
        g = logarithmic_graph()
        ls = limit_level_set(g, 2 * math.log(2.0) + 0.5, 101)
        assert not ls.connected
        assert np.max(ls.branches[0][:, 0]) == 1.0  # j(1) < c: the whole domain

    def test_envelope_level_set(self):
        pot = RegularizedPotential(indicator_graph(), 0.01)
        ls = phase_level_set(pot, 0.5, 101)
        assert ls.connected  # envelope is finite: the curve always closes
        u_max = np.max(ls.branches[0][:, 0])
        assert u_max == pytest.approx(1.0 + math.sqrt(0.01), rel=1e-6)


class TestToyWeakIdentity:
    def dictionary(self, T):
        profiles = [
            TimeProfile("one", T),
            TimeProfile("linear", T),
            TimeProfile("reverse", T),
            TimeProfile("hat", T, center=0.4 * T, halfwidth=0.3 * T),
        ]
        sp = SpaceProfile("one", 1.0)
        return [TestFunction(tp, sp) for tp in profiles]

    @pytest.mark.parametrize("ell", [0.0, -0.3, -1.0])
    def test_residual_at_roundoff(self, ell):
        T = 2.5
        sol = limit_toy_solution(0.0, 1.0, ell, T)
        for phi in self.dictionary(T):
            assert toy_weak_identity_residual(sol, phi, T) <= 1e-12

    def test_residual_multiple_bounces(self):
        T = 9.0
        sol = limit_toy_solution(0.0, 1.0, -1.0, T)
        assert len(sol.atoms) >= 2
        for phi in self.dictionary(T):
            assert toy_weak_identity_residual(sol, phi, T) <= 1e-12

    def test_atom_value_against_formula(self):
        # <xi, phi> = (1 - ell) phi(1) for the first impact
        T = 1.5
        ell = -0.25
        sol = limit_toy_solution(0.0, 1.0, ell, T)
        t_a, mass = sol.atoms[0]
        assert t_a == pytest.approx(1.0)
        assert mass == pytest.approx(toy_xi_atom(ell))
