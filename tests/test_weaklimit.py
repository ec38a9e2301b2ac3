"""Reaction measure, weak residuals, subdifferential, jumps, support."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dampedwave as dw
import dampedwave.cli
from dampedwave.errors import InadmissibleTestFunction
from dampedwave.graphs import RegularizedPotential, eval_j, limit_is_indicator, log_j_conjugate, resolvent
from dampedwave.grid import Grid
from dampedwave.weaklimit import (
    SpaceProfile,
    TestFunction,
    TimeProfile,
    _median,
    accumulate_xi,
    default_dictionary,
    detect_jumps,
    singular_support_check,
    solution_identity_residual,
    subdifferential_check,
    weak_residual,
    window_profile,
)
from tests.conftest import toy_config
from tests.oracles import (
    candidate_slack,
    concentration_at,
    random_candidates,
    restrict_mass,
    restriction_compat,
    static_boundary_example,
    vanishes_at,
    window_mass,
    xi_masses,
    xi_pairing,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def zero_run():
    cfg = dw.SimConfig(
        n_nodes=9, bc="neumann", graph_kind="indicator", epsilon=0.5,
        T=0.5, dt=0.05, theta=1.0, u0="zero", u1="zero",
    )
    return dw.simulate(cfg)


class TestAccumulate:
    def test_zero_run_zero_measure(self):
        traj = zero_run()
        assert traj.reaction_l1 == 0.0

    def test_dead_zone_run_zero_measure(self):
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="family", r_threshold=0.9,
            eps_param=0.1, epsilon=None, T=0.5, dt=0.01, theta=0.5,
            u0="zero", u1="constant:1",
        )
        traj = dw.simulate(cfg)
        assert traj.reaction_l1 == 0.0

    def test_toy_jump_mass_two_and_concentrated(self, toy_jump_run):
        traj = toy_jump_run
        se = math.sqrt(1e-6)
        assert traj.reaction_l1 == pytest.approx(2.0, abs=0.05)
        inside = window_mass(traj, 1.0, 8 * se)
        assert inside == pytest.approx(traj.reaction_l1, abs=1e-9)

    def test_window_profile_shrinks_towards_layer(self, toy_jump_run):
        traj = toy_jump_run
        prof = window_profile(traj, 1.0, math.sqrt(1e-6))
        assert prof[8] >= prof[4] >= prof[2] >= prof[1]
        assert prof[8] == pytest.approx(2.0, abs=0.05)
        # the arch reaction is sin((t-1)/w): mass within k widths = 1 - cos(k)
        assert prof[1] == pytest.approx(1.0 - math.cos(1.0), rel=0.01)
        assert prof[2] == pytest.approx(1.0 - math.cos(2.0), rel=0.01)

    def test_restriction_mass_monotone_for_positive_measure(self, pressed_run):
        traj = pressed_run
        ms = [restrict_mass(traj, t) for t in (0.5, 1.0, 1.5, 2.0)]
        assert all(a <= b + 1e-12 for a, b in zip(ms, ms[1:]))
        assert ms[-1] == pytest.approx(float(np.sum(xi_masses(traj))), rel=1e-9)

    def test_rebin_conserves_mass(self, toy_jump_run):
        traj = toy_jump_run
        _, coarse = accumulate_xi(traj, 128)
        assert float(np.sum(coarse)) == pytest.approx(float(np.sum(xi_masses(traj))), rel=1e-12)

    def test_l1_masses_stable_across_family_sweep(self):
        masses = []
        for eps in (1e-3, 1e-4, 1e-5):
            traj = dw.simulate(toy_config(eps, T=2.0, dt_divisor=10.0))
            masses.append(traj.reaction_l1)
        assert max(masses) / min(masses) < 1.1
        for m in masses:
            assert m == pytest.approx(2.0, rel=0.05)


class TestWeakResidual:
    def test_zero_run_zero_residual(self):
        traj = zero_run()
        assert max(weak_residual(traj, default_dictionary(traj.grid, 0.5), 0.5)) <= 1e-14

    def test_scales_linearly_in_dt(self):
        eps = 1e-4
        worst = {}
        for divisor in (25.0, 50.0):
            cfg = toy_config(eps, T=2.0, dt_divisor=divisor)
            traj = dw.simulate(cfg)
            worst[cfg.dt] = max(weak_residual(traj, default_dictionary(traj.grid, 2.0), 2.0))
        dts = sorted(worst, reverse=True)
        c_fit = worst[dts[0]] / dts[0]
        assert worst[dts[1]] <= 1.25 * c_fit * dts[1]

    def test_toy_linear_time_test_function(self, toy_jump_run):
        # the reaction term contributes (1 - ell)*phi(1) ~ 2 for phi = t
        traj = toy_jump_run
        phi = TestFunction(TimeProfile("linear", 2.0), SpaceProfile("one", 1.0))
        contrib = xi_pairing(traj, phi, traj.n_steps)
        assert contrib == pytest.approx(2.0, rel=0.02)
        assert weak_residual(traj, [phi], 2.0)[0] <= 100 * traj.dt

    def test_dirichlet_rejects_nonvanishing_space_factor(self):
        cfg = dw.SimConfig(
            n_nodes=9, bc="dirichlet", graph_kind="indicator", epsilon=1e-2,
            T=0.2, dt=0.02, u0="zero", u1="zero",
        )
        traj = dw.simulate(cfg)
        phi = TestFunction(TimeProfile("one", 0.2), SpaceProfile("one", 1.0))
        with pytest.raises(InadmissibleTestFunction):
            weak_residual(traj, [phi], 0.2)
        # one inadmissible function refuses the whole dictionary
        with pytest.raises(InadmissibleTestFunction):
            weak_residual(traj, default_dictionary(traj.grid, 0.2) + [phi], 0.2)

    @pytest.mark.parametrize(
        "n_nodes, bc", [(1, "neumann"), (9, "neumann"), (9, "dirichlet")],
        ids=["one_node", "neumann", "dirichlet"],
    )
    def test_default_dictionary_is_admissible(self, n_nodes, bc):
        """The check battery takes every function of ``default_dictionary``
        with no skip, so each must be admissible for the grid's bc: an
        inadmissible entry would make ``weak_residual`` raise
        InadmissibleTestFunction."""
        grid = Grid(1.0, n_nodes, bc)
        for T in (0.2, 2.0):
            for phi in default_dictionary(grid, T):
                assert phi.admissible_for(bc), phi.name

    def test_1d_dirichlet_residual_budget(self):
        rs = {}
        for dt in (4e-4, 2e-4):
            cfg = dw.SimConfig(
                length=1.0, n_nodes=63, bc="dirichlet", graph_kind="indicator",
                epsilon=1e-3, T=0.2, dt=dt, theta=1.0, u0="sine:1:0.5", u1="zero",
            )
            traj = dw.simulate(cfg)
            rs[dt] = max(weak_residual(traj, default_dictionary(traj.grid, 0.2), 0.2))
        c_fit = rs[4e-4] / 4e-4
        assert rs[2e-4] <= 1.25 * c_fit * 2e-4

    def test_one_residual_per_function_in_order(self, pressed_run):
        """A dictionary that repeats a spatial factor, in any order, gets the
        residual of each function as a lone call gives it, bit for bit."""
        traj = pressed_run
        phis = default_dictionary(traj.grid, 2.0)[::-1]
        phis = phis + phis[:3]
        rs = weak_residual(traj, phis, 2.0)
        assert len(rs) == len(phis)
        assert rs == [weak_residual(traj, [phi], 2.0)[0] for phi in phis]
        assert weak_residual(traj, [], 2.0) == []


@pytest.fixture(scope="module")
def shipped_runs():
    """The runs of the Dirichlet, forced and Neumann shipped configs."""
    runs = {}
    for name in ("dirichlet_sine", "pressed_wall", "neumann_contact"):
        traj = dw.simulate(dw.load_config(CONFIGS / f"{name}.yaml"))
        runs[name] = traj
    return runs


@pytest.mark.parametrize("name", ["dirichlet_sine", "pressed_wall", "neumann_contact"])
def test_battery_weak_residuals_equal_lone_calls(shipped_runs, monkeypatch, name):
    """The battery takes the whole dictionary in one call, and sharing the
    spatial terms across it changes no residual by a bit."""
    traj = shipped_runs[name]
    seen = []

    def recording(traj, phis, t_end):
        rs = weak_residual(traj, phis, t_end)
        seen.append((phis, t_end, rs))
        return rs

    monkeypatch.setattr(dampedwave.cli, "weak_residual", recording)
    dampedwave.cli._standard_checks(traj, dw.energy_series(traj))
    [(phis, t_end, rs)] = seen
    assert phis == default_dictionary(traj.grid, t_end) and len(rs) == len(phis) >= 12
    for phi, r in zip(phis, rs):
        assert r == weak_residual(traj, [phi], t_end)[0]


class TestSolutionIdentity:
    """Weak form tested with the solution: the measure/state pairing balance."""

    def test_trapezoidal_identity_is_exact(self):
        traj = dw.simulate(toy_config(1e-4, T=2.0, dt_divisor=50.0))
        assert solution_identity_residual(traj, 0.0, 2.0) <= 1e-10

    def test_backward_scheme_residual_shrinks_with_dt(self, pressed_run):
        traj = pressed_run
        r_coarse = solution_identity_residual(traj, 0.0, 2.0)
        import dataclasses

        fine = dataclasses.replace(traj.cfg, dt=traj.dt / 2.0)
        traj2 = dw.simulate(fine)
        r_fine = solution_identity_residual(traj2, 0.0, 2.0)
        assert r_fine < 0.7 * r_coarse

    def test_subinterval_across_the_jump(self, toy_jump_run):
        traj = toy_jump_run
        r = solution_identity_residual(traj, 0.5, 1.5)
        assert r <= 1e-8


class TestSubdifferential:
    def test_exact_equality_candidate_zero_slack(self):
        # in-range run: no reaction, and v = u is admissible with slack exactly 0
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=0.1,
            T=0.5, dt=1e-3, theta=0.5, u0="zero", u1="constant:1",
        )
        traj = dw.simulate(cfg)
        assert traj.reaction_l1 == 0.0
        rep = subdifferential_check(traj)
        assert rep == {"passed": True, "worst_slack": 0.0}
        assert candidate_slack(traj, traj.theta_combine(traj.U)) == 0.0

    def test_equality_candidate_zero_slack(self, pressed_run):
        traj = pressed_run
        v = np.clip(traj.theta_combine(traj.U), -1.0, 1.0)
        slack = candidate_slack(traj, v)
        # v = clip(u): slack is the overshoot pairing, nonnegative, O(sqrt(eps))
        assert 0.0 <= slack <= 0.5
        # the Yosida reaction is nonzero only where |u| > 1, where clip(u) is
        # sign(xi): this v attains the infimum the exact slack takes
        assert subdifferential_check(traj)["worst_slack"] == pytest.approx(slack, rel=0.0, abs=1e-12)

    def test_random_candidates_pass_toy(self, toy_jump_run, rng):
        """The exact slack is at most that of each of 100 drawn candidates:
        it implies the sampled verdict."""
        traj = toy_jump_run
        rep = subdifferential_check(traj)
        assert rep["passed"]
        assert rep["worst_slack"] >= -1e-6
        for tau, sigma in random_candidates(traj, 100, rng):
            assert rep["worst_slack"] <= candidate_slack(traj, np.outer(tau, sigma))

    def test_out_of_range_candidate_rejected(self, pressed_run):
        """The reference takes admissible candidates only, the set the exact
        slack is the infimum over."""
        traj = pressed_run
        tau, sigma = np.full(traj.n_steps, 1.5), np.ones(traj.grid.n_nodes)
        with pytest.raises(ValueError):
            candidate_slack(traj, np.outer(tau, sigma))
        with pytest.raises(ValueError):  # one step short
            candidate_slack(traj, np.outer(tau[1:] / 2, sigma))
        with pytest.raises(ValueError):
            static_boundary_example(0.5, [lambda x: 1.5 + 0.0 * x])

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


@pytest.fixture(scope="module")
def log_run():
    cfg = dw.SimConfig(
        length=1.0, n_nodes=17, bc="neumann", graph_kind="logarithmic", epsilon=1e-2,
        T=0.5, dt=1e-3, theta=1.0, u0="cosine:1:0.5", u1="constant:1",
    )
    traj = dw.simulate(cfg)
    return traj


def attaining_candidate(traj) -> np.ndarray:
    """The admissible v that attains the infimum of the slack: sup_v <xi, v> - J(v)
    is reached at v = sign(beta_theta) for the indicator and at
    v = tanh(beta_theta / 2), the derivative of j*, for the logarithmic potential."""
    beta = traj.beta_theta
    return np.sign(beta) if limit_is_indicator(traj.reaction.graph) else np.tanh(beta / 2.0)


class TestSubdifferentialOracle:
    """The Fenchel-Young slack against the whole-array slack of candidates."""

    @pytest.mark.parametrize("run", ["toy_jump_run", "pressed_run", "log_run"])
    def test_random_candidates_match_oracle(self, request, run):
        """The exact slack is the slack of the candidate that attains the
        infimum, to round-off, and at most that of each of 100 seeded ones."""
        traj = request.getfixturevalue(run)
        worst = subdifferential_check(traj)["worst_slack"]
        assert worst == pytest.approx(candidate_slack(traj, attaining_candidate(traj)), rel=0.0, abs=1e-12)
        slacks = [candidate_slack(traj, np.outer(tau, sigma))
                  for tau, sigma in random_candidates(traj, 100, np.random.default_rng(7))]
        assert len(slacks) == 100
        assert worst <= min(slacks)

    def test_log_run_has_a_reaction_to_pair(self, log_run):
        traj = log_run
        assert traj.reaction_l1 > 1e-3

    def test_log_gap_closes_at_the_resolvent_point(self, log_run):
        """xi lies in dj at the resolvent point J_eps u, not at u: with theta = 1,
        beta_theta = beta_eps(u) is j'(J_eps u), so the Fenchel-Young gap taken at
        J_eps u vanishes to round-off, while the one at u is of order eps."""
        traj = log_run
        graph, beta, w, dt = traj.reaction.graph, traj.beta_theta, traj.grid.mass_weights, traj.dt
        u = traj.U[1:]
        x = resolvent(RegularizedPotential(graph, traj.reaction.epsilon), u)

        def gap_at(r):
            j = eval_j(graph, np.clip(r, -1.0, 1.0))
            return dt * float(np.sum((j + log_j_conjugate(beta) - beta * r) @ w))

        assert abs(gap_at(x)) <= 1e-12
        gap = -subdifferential_check(traj)["worst_slack"]
        assert gap == pytest.approx(gap_at(u), rel=1e-9)
        assert 0.0 < gap < 10.0 * traj.reaction.epsilon

    def test_candidate_just_outside_is_infinite_and_passes(self, pressed_run):
        traj = pressed_run
        v = np.zeros((traj.n_steps, traj.grid.n_nodes))
        v[3, 5] = 1.0 + 5e-13
        assert candidate_slack(traj, v) == math.inf
        rep = subdifferential_check(traj)
        assert rep["passed"] and math.isfinite(rep["worst_slack"])


class TestSingularSupport:
    def test_zero_measure_empty_report(self):
        traj = zero_run()
        rep = singular_support_check(traj, threshold=1e-12)
        assert rep.empty

    def test_toy_mass_sits_at_plus_one(self, toy_jump_run):
        traj = toy_jump_run
        rep = singular_support_check(traj, threshold=1e-9)
        assert rep.n_significant > 0
        assert rep.negative_cells == 0
        assert rep.max_misalignment <= 5 * (math.sqrt(1e-6) + traj.dt)

    def test_symmetric_bounce_signs(self):
        # impacts at both walls: positive mass at +1, negative at -1
        eps = 1e-4
        cfg = toy_config(eps, T=4.0, dt_divisor=20.0)
        traj = dw.simulate(cfg)
        rep = singular_support_check(traj, threshold=1e-6)
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
        traj = toy_jump_run
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 255, 256, 4001])
    def test_median_is_np_median_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        with_nan = rng.random(n)
        with_nan[n // 3] = -np.nan
        # ties; subnormal to 1e304; middle entries whose sum overflows
        for x in (rng.random(n), rng.integers(0, 3, n) * 1.0, np.exp(rng.uniform(-700, 700, n)),
                  np.full(n, 1.7e308), with_nan):
            with np.errstate(over="ignore"):
                want, got = np.median(x), _median(x.copy())
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_simulate_and_verify_do_not_import_numpy_ma(self, tmp_path):
        """``np.median`` imports ``numpy.ma`` on its first call; the jump
        report's median does not, so neither command loads it."""
        config, out = str(CONFIGS / "toy_jump.yaml"), str(tmp_path)
        script = ("import sys; from dampedwave.cli import main; "
                  f"main(['simulate', '--config', {config!r}, '--out', {out!r}]); "
                  f"main(['verify', '--out', {out!r}]); print('numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(dw.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.splitlines()[-1] == "False"


class TestRestrictionCompat:
    def setup_pair(self, eps=1e-4):
        cfg = toy_config(eps, T=2.0, dt_divisor=50.0)
        full = dw.simulate(cfg)
        sub = dw.simulate(dataclasses.replace(cfg, T=1.0))
        return full, sub

    def test_no_mass_near_cut(self):
        full, sub = self.setup_pair()
        phi = TestFunction(TimeProfile("hat", 2.0, center=0.2, halfwidth=0.1),
                           SpaceProfile("one", 1.0))
        # phi supported well inside (0, 0.3): vanishes at the cut
        assert restriction_compat(full, sub, phi, 1.0) <= 1e-12

    def test_atom_at_cut_killed_by_vanishing_factor(self):
        full, sub = self.setup_pair()
        phi = TestFunction(TimeProfile("reverse", 1.0), SpaceProfile("one", 1.0))
        assert vanishes_at(phi, 1.0)
        # atom sits at t ~ 1 but phi(1) = 0: compatibility holds to O(dt)
        assert restriction_compat(full, sub, phi, 1.0) <= 1e-3

    def test_nonvanishing_phi_rejected(self):
        full, sub = self.setup_pair()
        phi = TestFunction(TimeProfile("one", 2.0), SpaceProfile("one", 1.0))
        with pytest.raises(InadmissibleTestFunction):
            restriction_compat(full, sub, phi, 1.0)

    def test_cut_inside_concentration_window_is_flagged(self):
        full, _ = self.setup_pair()
        w = 8 * math.sqrt(1e-4)
        assert concentration_at(full, 1.0, w) > 0.99  # the atom straddles t = 1
        assert concentration_at(full, 0.5, w) == 0.0  # quiet cut time
