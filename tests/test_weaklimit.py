"""Reaction measure, weak residuals, subdifferential, jumps, support."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import dampedwave as dw
import dampedwave.cli
from dampedwave.errors import (
    InadmissibleCandidate,
    InadmissibleTestFunction,
)
from dampedwave.graphs import limit_j
from dampedwave.weaklimit import (
    SpacePairings,
    SpaceProfile,
    TestFunction,
    TimeProfile,
    _max_abs,
    accumulate_xi,
    default_dictionary,
    detect_jumps,
    iter_random_candidates,
    l1_mass,
    random_candidates,
    restriction_compat,
    singular_support_check,
    solution_identity_residual,
    static_boundary_example,
    subdifferential_check,
    weak_residual,
)
from tests.conftest import toy_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def zero_run():
    cfg = dw.SimConfig(
        n_nodes=9, bc="neumann", graph_kind="indicator", epsilon=0.5,
        T=0.5, dt=0.05, theta=1.0, u0="zero", u1="zero",
    )
    return dw.simulate(cfg)


class TestAccumulate:
    def test_zero_run_zero_measure(self):
        xi = accumulate_xi(zero_run())
        assert xi.total_l1 == 0.0
        assert l1_mass(xi) == 0.0

    def test_dead_zone_run_zero_measure(self):
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="family", r_threshold=0.9,
            eps_param=0.1, epsilon=None, T=0.5, dt=0.01, theta=0.5,
            u0="zero", u1="constant:1",
        )
        xi = accumulate_xi(dw.simulate(cfg))
        assert xi.total_l1 == 0.0

    def test_toy_jump_mass_two_and_concentrated(self, toy_jump_run):
        traj, xi = toy_jump_run
        se = math.sqrt(1e-6)
        assert xi.total_l1 == pytest.approx(2.0, abs=0.05)
        inside = xi.window_mass(1.0, 8 * se)
        assert inside == pytest.approx(xi.total_l1, abs=1e-9)

    def test_window_profile_shrinks_towards_layer(self, toy_jump_run):
        _, xi = toy_jump_run
        prof = xi.window_profile(1.0, math.sqrt(1e-6))
        assert prof[8] >= prof[4] >= prof[2] >= prof[1]
        assert prof[8] == pytest.approx(2.0, abs=0.05)
        # the arch reaction is sin((t-1)/w): mass within k widths = 1 - cos(k)
        assert prof[1] == pytest.approx(1.0 - math.cos(1.0), rel=0.01)
        assert prof[2] == pytest.approx(1.0 - math.cos(2.0), rel=0.01)

    def test_restriction_mass_monotone_for_positive_measure(self, pressed_run):
        _, xi = pressed_run
        ms = [xi.restrict_mass(t) for t in (0.5, 1.0, 1.5, 2.0)]
        assert all(a <= b + 1e-12 for a, b in zip(ms, ms[1:]))
        assert ms[-1] == pytest.approx(float(np.sum(xi.masses)), rel=1e-9)

    def test_rebin_conserves_mass(self, toy_jump_run):
        _, xi = toy_jump_run
        co = xi.rebin(128)
        assert float(np.sum(co.masses)) == pytest.approx(float(np.sum(xi.masses)), rel=1e-12)

    def test_l1_masses_stable_across_family_sweep(self):
        masses = []
        for eps in (1e-3, 1e-4, 1e-5):
            traj = dw.simulate(toy_config(eps, T=2.0, dt_divisor=10.0))
            masses.append(accumulate_xi(traj).total_l1)
        assert max(masses) / min(masses) < 1.1
        for m in masses:
            assert m == pytest.approx(2.0, rel=0.05)


class TestWeakResidual:
    def test_zero_run_zero_residual(self):
        traj = zero_run()
        xi = accumulate_xi(traj)
        for phi in default_dictionary(traj.grid, 0.5):
            assert weak_residual(traj, xi, phi, 0.5) <= 1e-14

    def test_scales_linearly_in_dt(self):
        eps = 1e-4
        worst = {}
        for divisor in (25.0, 50.0):
            cfg = toy_config(eps, T=2.0, dt_divisor=divisor)
            traj = dw.simulate(cfg)
            xi = accumulate_xi(traj)
            worst[cfg.dt] = max(
                weak_residual(traj, xi, phi, 2.0)
                for phi in default_dictionary(traj.grid, 2.0)
            )
        dts = sorted(worst, reverse=True)
        c_fit = worst[dts[0]] / dts[0]
        assert worst[dts[1]] <= 1.25 * c_fit * dts[1]

    def test_toy_linear_time_test_function(self, toy_jump_run):
        # the reaction term contributes (1 - ell)*phi(1) ~ 2 for phi = t
        traj, xi = toy_jump_run
        phi = TestFunction(TimeProfile("linear", 2.0), SpaceProfile("one", 1.0))
        from dampedwave.weaklimit import xi_pairing_partial

        contrib = xi_pairing_partial(xi, phi, xi.n_t)
        assert contrib == pytest.approx(2.0, rel=0.02)
        assert weak_residual(traj, xi, phi, 2.0) <= 100 * traj.dt

    def test_dirichlet_rejects_nonvanishing_space_factor(self):
        cfg = dw.SimConfig(
            n_nodes=9, bc="dirichlet", graph_kind="indicator", epsilon=1e-2,
            T=0.2, dt=0.02, u0="zero", u1="zero",
        )
        traj = dw.simulate(cfg)
        xi = accumulate_xi(traj)
        phi = TestFunction(TimeProfile("one", 0.2), SpaceProfile("one", 1.0))
        with pytest.raises(InadmissibleTestFunction):
            weak_residual(traj, xi, phi, 0.2)

    def test_1d_dirichlet_residual_budget(self):
        rs = {}
        for dt in (4e-4, 2e-4):
            cfg = dw.SimConfig(
                length=1.0, n_nodes=63, bc="dirichlet", graph_kind="indicator",
                epsilon=1e-3, T=0.2, dt=dt, theta=1.0, u0="sine:1:0.5", u1="zero",
            )
            traj = dw.simulate(cfg)
            xi = accumulate_xi(traj)
            rs[dt] = max(
                weak_residual(traj, xi, phi, 0.2)
                for phi in default_dictionary(traj.grid, 0.2)
                if phi.admissible_for("dirichlet")
            )
        c_fit = rs[4e-4] / 4e-4
        assert rs[2e-4] <= 1.25 * c_fit * 2e-4


    def test_pairings_of_another_run_rejected(self, pressed_run):
        traj, xi = pressed_run
        other = zero_run()
        phi = TestFunction(TimeProfile("one", 2.0), SpaceProfile("one", 1.0))
        with pytest.raises(ValueError):
            weak_residual(traj, xi, phi, 2.0, SpacePairings(other, accumulate_xi(other)))


@pytest.fixture(scope="module")
def shipped_runs():
    """The Dirichlet, forced and Neumann shipped configs, with their measures."""
    runs = {}
    for name in ("dirichlet_sine", "pressed_wall", "neumann_contact"):
        traj = dw.simulate(dw.load_config(CONFIGS / f"{name}.yaml"))
        runs[name] = (traj, accumulate_xi(traj))
    return runs


@pytest.mark.parametrize("name", ["dirichlet_sine", "pressed_wall", "neumann_contact"])
def test_battery_weak_residuals_equal_lone_calls(shipped_runs, monkeypatch, name):
    """Sharing the spatial terms across the battery changes no residual by a bit."""
    traj, xi = shipped_runs[name]
    seen = []

    def recording(traj, xi, phi, t_end, *args):
        r = weak_residual(traj, xi, phi, t_end, *args)
        seen.append((phi, t_end, r))
        return r

    monkeypatch.setattr(dampedwave.cli, "weak_residual", recording)
    dampedwave.cli._standard_checks(traj, xi, dw.energy_series(traj), 0)
    n_phi = sum(phi.admissible_for(traj.grid.bc) for phi in default_dictionary(traj.grid, 1.0))
    assert len(seen) == n_phi >= 12
    for phi, t_end, r in seen:
        assert r == weak_residual(traj, xi, phi, t_end)


class TestSolutionIdentity:
    """Weak form tested with the solution: the measure/state pairing balance."""

    def test_trapezoidal_identity_is_exact(self):
        traj = dw.simulate(toy_config(1e-4, T=2.0, dt_divisor=50.0))
        xi = accumulate_xi(traj)
        assert solution_identity_residual(traj, xi, 0.0, 2.0) <= 1e-10

    def test_backward_scheme_residual_shrinks_with_dt(self, pressed_run):
        traj, xi = pressed_run
        r_coarse = solution_identity_residual(traj, xi, 0.0, 2.0)
        import dataclasses

        fine = dataclasses.replace(traj.cfg, dt=traj.dt / 2.0)
        traj2 = dw.simulate(fine)
        r_fine = solution_identity_residual(traj2, accumulate_xi(traj2), 0.0, 2.0)
        assert r_fine < 0.7 * r_coarse

    def test_subinterval_across_the_jump(self, toy_jump_run):
        traj, xi = toy_jump_run
        r = solution_identity_residual(traj, xi, 0.5, 1.5)
        assert r <= 1e-8


class TestSubdifferential:
    def test_exact_equality_candidate_zero_slack(self):
        # in-range run: v = u is admissible and gives slack exactly 0
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=0.1,
            T=0.5, dt=1e-3, theta=0.5, u0="zero", u1="constant:1",
        )
        traj = dw.simulate(cfg)
        xi = accumulate_xi(traj)
        u_th, _ = traj.theta_states()
        rep = subdifferential_check(traj, xi, [u_th], tol=1e-6)
        assert rep.entries[0].slack == 0.0

    def test_equality_candidate_zero_slack(self, pressed_run):
        traj, xi = pressed_run
        u_th, _ = traj.theta_states()
        v = np.clip(u_th, -1.0, 1.0)
        rep = subdifferential_check(traj, xi, [v], tol=1e-6)
        # v = clip(u): slack is the overshoot pairing, nonnegative, O(sqrt(eps))
        assert rep.all_pass
        assert 0.0 <= rep.entries[0].slack <= 0.5

    def test_random_candidates_pass_toy(self, toy_jump_run, rng):
        traj, xi = toy_jump_run
        cands = random_candidates(traj, 100, rng)
        rep = subdifferential_check(traj, xi, cands, tol=1e-6)
        assert rep.all_pass
        assert rep.worst_slack >= -1e-6

    def test_out_of_range_candidate_rejected(self, pressed_run):
        traj, xi = pressed_run
        u_th, _ = traj.theta_states()
        with pytest.raises(InadmissibleCandidate):
            subdifferential_check(traj, xi, [np.full_like(u_th, 1.5)], tol=1e-6)

    def test_static_boundary_atom_example(self):
        # u(x) = x on (-1, 1), xi = alpha*delta_{x=1}
        alpha = 0.7
        slacks = static_boundary_example(
            alpha,
            [lambda x: x, lambda x: 0.0 * x, lambda x: -np.abs(x), lambda x: np.cos(x)],
        )
        assert all(s >= -1e-15 for s in slacks)
        assert slacks[0] == pytest.approx(0.0, abs=1e-15)  # v = u: equality
        assert slacks[1] == pytest.approx(alpha)  # v = 0: slack alpha*(1-0)


def oracle_subdiff(traj, xi, candidates, tol=1e-6):
    """(slack, passed) per candidate from full-array sums of J(v), J(u) and <xi, v - u>."""
    u_th, _ = traj.theta_states()
    graph, w, dt = traj.reaction.graph, traj.grid.mass_weights, traj.dt

    def J(fields):
        return dt * float(np.sum(limit_j(graph, fields) * w[None, :]))

    ju = J(np.clip(u_th, -1.0, 1.0))
    out = []
    for v in candidates:
        slack = J(v) - ju - float(np.sum(xi.masses * (v - u_th)))
        out.append((slack, slack >= -tol))
    return out


@pytest.fixture(scope="module")
def log_run():
    cfg = dw.SimConfig(
        length=1.0, n_nodes=17, bc="neumann", graph_kind="logarithmic", epsilon=1e-2,
        T=0.5, dt=1e-3, theta=1.0, u0="cosine:1:0.5", u1="constant:1",
    )
    traj = dw.simulate(cfg)
    return traj, accumulate_xi(traj)


class TestSubdifferentialOracle:
    """The one-dot-product slack against the full-array formula."""

    @pytest.mark.parametrize("run", ["toy_jump_run", "pressed_run", "log_run"])
    def test_random_candidates_match_oracle(self, request, run):
        traj, xi = request.getfixturevalue(run)
        def candidates():
            """Those of random_candidates(traj, 100, rng), one at a time."""
            return iter_random_candidates(traj, 100, np.random.default_rng(7))

        rep = subdifferential_check(traj, xi, candidates())
        oracle = oracle_subdiff(traj, xi, candidates())
        assert len(rep.entries) == len(oracle) == 100
        for entry, (slack, passed) in zip(rep.entries, oracle):
            assert entry.slack == pytest.approx(slack, rel=0.0, abs=1e-12)
            assert entry.passed == passed

    def test_log_run_has_a_reaction_to_pair(self, log_run):
        _, xi = log_run
        assert xi.total_l1 > 1e-3

    def test_candidate_just_outside_is_infinite_and_passes(self, pressed_run):
        traj, xi = pressed_run
        v = np.zeros((traj.n_steps, traj.grid.n_nodes))
        v[3, 5] = 1.0 + 5e-13
        rep = subdifferential_check(traj, xi, [v])
        assert rep.entries[0].slack == math.inf
        assert rep.all_pass
        assert oracle_subdiff(traj, xi, [v]) == [(math.inf, True)]

    def test_max_abs_without_abs_array(self, pressed_run):
        traj, _ = pressed_run
        cands = random_candidates(traj, 5, np.random.default_rng(3))
        cands[0][::7] = -0.0
        cands[1][::5] = 0.0
        cands[2][:] = -0.0
        cands[3][:] = 0.0
        cands[4][0, 0] = -1.0
        cands += [np.array([[-0.0, 0.0]]), np.array([[0.0, -0.0]]), np.array([[-0.0]])]
        for v in cands:
            assert _max_abs(v) == np.max(np.abs(v))


class TestSingularSupport:
    def test_zero_measure_empty_report(self):
        traj = zero_run()
        xi = accumulate_xi(traj)
        rep = singular_support_check(xi, traj, threshold=1e-12)
        assert rep.empty

    def test_toy_mass_sits_at_plus_one(self, toy_jump_run):
        traj, xi = toy_jump_run
        rep = singular_support_check(xi, traj, threshold=1e-9)
        assert rep.n_significant > 0
        assert rep.negative_cells == 0
        assert rep.max_misalignment <= 5 * (math.sqrt(1e-6) + traj.dt)

    def test_symmetric_bounce_signs(self):
        # impacts at both walls: positive mass at +1, negative at -1
        eps = 1e-4
        cfg = toy_config(eps, T=4.0, dt_divisor=20.0)
        traj = dw.simulate(cfg)
        xi = accumulate_xi(traj)
        rep = singular_support_check(xi, traj, threshold=1e-6)
        assert rep.positive_cells > 0 and rep.negative_cells > 0
        assert rep.max_misalignment <= 5 * (math.sqrt(eps) + traj.dt)


class TestDetectJumps:
    def test_smooth_run_no_jumps(self):
        cfg = dw.SimConfig(
            length=1.0, n_nodes=48, bc="dirichlet", graph_kind="indicator",
            epsilon=1e-3, T=0.3, dt=1e-3, theta=1.0, u0="sine:1:0.5", u1="zero",
        )
        assert detect_jumps(dw.simulate(cfg)) == []

    def test_toy_single_jump_parameters(self, toy_jump_run):
        traj, _ = toy_jump_run
        events = detect_jumps(traj)
        assert len(events) == 1
        ev = events[0]
        se = math.sqrt(1e-6)
        assert abs(ev.t - 1.0) <= 5 * se
        assert ev.v_before[0] == pytest.approx(1.0, abs=1e-3)
        assert ev.v_after[0] == pytest.approx(-1.0, abs=1e-3)
        assert ev.impulse == pytest.approx(2.0, abs=5e-3)

    def test_family_exit_velocity(self):
        eps = 1e-3
        rt = 1.0 - eps * math.pi
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="family", r_threshold=rt,
            eps_param=eps, epsilon=None, T=2.0, dt=dw.snap_dt(2.0, eps / 50.0),
            theta=0.5, u0="zero", u1="constant:1",
        )
        traj = dw.simulate(cfg)
        events = detect_jumps(traj)
        assert len(events) == 1
        assert events[0].v_after[0] == pytest.approx(-1.0, abs=1e-3)

    def test_two_bounces_two_events(self):
        cfg = toy_config(1e-4, T=4.0, dt_divisor=20.0)
        traj = dw.simulate(cfg)
        events = detect_jumps(traj)
        assert len(events) == 2
        assert events[0].impulse == pytest.approx(2.0, abs=0.01)
        assert events[1].impulse == pytest.approx(-2.0, abs=0.01)

    def test_kappa_must_be_positive(self, toy_jump_run):
        traj, _ = toy_jump_run
        with pytest.raises(ValueError):
            detect_jumps(traj, kappa=0.0)


class TestRestrictionCompat:
    def setup_pair(self, eps=1e-4):
        cfg = toy_config(eps, T=2.0, dt_divisor=50.0)
        full = dw.simulate(cfg)
        sub = dw.simulate(dataclasses.replace(cfg, T=1.0))
        return accumulate_xi(full), accumulate_xi(sub)

    def test_no_mass_near_cut(self):
        xf, xs = self.setup_pair()
        phi = TestFunction(TimeProfile("hat", 2.0, center=0.2, halfwidth=0.1),
                           SpaceProfile("one", 1.0))
        # phi supported well inside (0, 0.3): vanishes at the cut
        assert restriction_compat(xf, xs, phi, 1.0) <= 1e-12

    def test_atom_at_cut_killed_by_vanishing_factor(self):
        xf, xs = self.setup_pair()
        phi = TestFunction(TimeProfile("reverse", 1.0), SpaceProfile("one", 1.0))
        assert phi.vanishes_at(1.0)
        # atom sits at t ~ 1 but phi(1) = 0: compatibility holds to O(dt)
        assert restriction_compat(xf, xs, phi, 1.0) <= 1e-3

    def test_nonvanishing_phi_rejected(self):
        xf, xs = self.setup_pair()
        phi = TestFunction(TimeProfile("one", 2.0), SpaceProfile("one", 1.0))
        with pytest.raises(InadmissibleTestFunction):
            restriction_compat(xf, xs, phi, 1.0)

    def test_cut_inside_concentration_window_is_flagged(self):
        xf, _ = self.setup_pair()
        w = 8 * math.sqrt(1e-4)
        assert xf.concentration_at(1.0, w) > 0.99  # the atom straddles t = 1
        assert xf.concentration_at(0.5, w) == 0.0  # quiet cut time
