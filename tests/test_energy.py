"""Energy ledger: breakdown, balance residual, inequality verdicts."""

import math

import numpy as np
import pytest

import dampedwave as dw
from dampedwave.energy import (
    dissipation_between,
    energy,
    energy_inequality_verdict,
    energy_series,
)
from dampedwave.errors import TimeNotOnGrid
from dampedwave.grid import Grid
from tests.conftest import toy_config
from tests.oracles import energy_equality_residual, pair_slack


def test_energy_module_is_reachable_by_name():
    import sys

    import dampedwave.energy as m

    assert m is sys.modules["dampedwave.energy"] is dw.energy
    assert m.__file__.endswith("energy.py")
    assert m.energy is energy


class TestBreakdown:
    def test_kinetic_only_toy(self):
        g = Grid(1.0, 1, "neumann")
        cfg = toy_config(1e-3)
        e = energy(g, np.array([0.0]), np.array([1.0]), cfg.reaction(), 0.0)
        assert e.total == pytest.approx(0.5)
        assert e.kinetic == pytest.approx(0.5)
        assert e.gradient == e.potential == e.concave == 0.0

    def test_zero_state(self):
        g = Grid(1.0, 7, "dirichlet")
        cfg = dw.SimConfig(n_nodes=7, bc="dirichlet", graph_kind="indicator",
                           epsilon=0.1, T=1.0, dt=0.1)
        e = energy(g, np.zeros(7), np.zeros(7), cfg.reaction(), 1.0)
        assert e.total == 0.0

    def test_family_wall_potential_is_pi_squared_half(self):
        eps = 1e-2
        g = Grid(1.0, 1, "neumann")
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="family",
            r_threshold=1.0 - eps * math.pi, eps_param=eps, epsilon=None,
            T=1.0, dt=1e-3,
        )
        e = energy(g, np.array([1.0]), np.array([0.0]), cfg.reaction(), 0.0)
        assert e.total == pytest.approx(math.pi ** 2 / 2, rel=1e-12)

    def test_components_recombine_exactly(self):
        g = Grid(2.0, 15, "neumann")
        rng = np.random.default_rng(5)
        cfg = dw.SimConfig(n_nodes=15, length=2.0, bc="neumann",
                           graph_kind="indicator", epsilon=0.3, T=1.0, dt=0.1, lam=0.7)
        u, v = rng.uniform(-1.2, 1.2, 15), rng.standard_normal(15)
        e = energy(g, u, v, cfg.reaction(), 0.7)
        assert e.total == e.kinetic + e.gradient + e.potential + e.concave


class TestEqualityResidual:
    def test_zero_trajectory(self):
        cfg = dw.SimConfig(n_nodes=9, bc="dirichlet", graph_kind="indicator",
                           epsilon=0.1, T=0.5, dt=0.05, u0="zero", u1="zero")
        traj = dw.simulate(cfg)
        assert energy_equality_residual(traj, 0.0, 0.5) == 0.0

    def test_toy_conservative_run(self):
        # resolved trapezoidal run: only the two corner crossings contribute
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=0.05,
            T=2.0, dt=1e-4, theta=0.5, u0="zero", u1="constant:1",
        )
        traj = dw.simulate(cfg)
        assert energy_equality_residual(traj, 0.0, 2.0) <= 1e-6 * 0.5

    def test_first_order_in_dt_for_backward_scheme(self):
        res = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = dw.SimConfig(
                length=1.0, n_nodes=64, bc="dirichlet", graph_kind="indicator",
                epsilon=1e-3, T=0.4, dt=dt, theta=1.0, u0="sine:1:0.5", u1="zero",
            )
            res.append(energy_equality_residual(dw.simulate(cfg), 0.0, 0.4))
        orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
        assert all(o > 0.9 for o in orders)

    def test_trapezoidal_exact_on_linear_regime(self):
        # no contact: the theta = 1/2 identity holds to machine precision
        cfg = dw.SimConfig(
            length=1.0, n_nodes=64, bc="dirichlet", graph_kind="indicator",
            epsilon=1e-3, T=0.4, dt=2e-3, theta=0.5, u0="sine:1:0.5", u1="zero",
        )
        assert energy_equality_residual(dw.simulate(cfg), 0.0, 0.4) <= 1e-13

    def test_second_order_for_trapezoidal_active_reaction(self):
        # smooth active nonlinearity: residual is the pure quadrature error
        res = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = dw.SimConfig(
                n_nodes=1, bc="neumann", graph_kind="logarithmic", epsilon=0.5,
                T=2.0, dt=dt, theta=0.5, u0="zero", u1="constant:1",
            )
            res.append(energy_equality_residual(dw.simulate(cfg), 0.0, 2.0))
        orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
        assert all(o > 1.8 for o in orders)

    def test_rejects_off_grid_times(self):
        traj = dw.simulate(toy_config(1e-3, T=1.0, dt_divisor=10.0))
        with pytest.raises(TimeNotOnGrid):
            energy_equality_residual(traj, 0.0, 0.123456)


# a forced wall impact on a grid, short enough to pair every two of its records
FORCED_CONTACT = dict(
    length=1.0, n_nodes=9, bc="neumann", graph_kind="indicator", epsilon=1e-2,
    T=0.3, dt=5e-3, u0="cosine:1:0.9", u1="constant:2", forcing="constant:0.5",
)


class TestInequalityVerdict:
    def test_zero_trajectory_all_pass_zero_slack(self):
        cfg = dw.SimConfig(n_nodes=9, bc="dirichlet", graph_kind="indicator",
                           epsilon=0.1, T=0.5, dt=0.05, u0="zero", u1="zero")
        traj = dw.simulate(cfg)
        rep = energy_inequality_verdict(traj, energy_series(traj))
        assert rep["passed"]
        assert rep["worst_slack"] == pytest.approx(0.0, abs=1e-15)

    def test_toy_jump_elastic(self, toy_jump_run):
        traj = toy_jump_run
        rep = energy_inequality_verdict(traj, energy_series(traj))
        assert rep["passed"]
        # elastic selection: energy equal across the jump within tolerance
        slack = pair_slack(traj, 0.0, 2.0)
        assert abs(slack) <= rep["tol"]
        assert rep["worst_slack"] <= slack

    def test_damped_run_drop_exceeds_dissipation(self):
        cfg = dw.SimConfig(
            length=1.0, n_nodes=64, bc="dirichlet", graph_kind="indicator",
            epsilon=1e-3, T=0.4, dt=1e-3, theta=1.0, u0="sine:1:0.5", u1="zero",
        )
        traj = dw.simulate(cfg)
        es = energy_series(traj)
        drop = float(es["total"][0] - es["total"][-1])
        diss = dissipation_between(traj, 0.0, 0.4)
        eta = energy_equality_residual(traj, 0.0, 0.4) / diss
        assert drop >= diss * (1.0 - eta) - 1e-15
        rep = energy_inequality_verdict(traj, es)
        assert rep["passed"] and rep["worst_slack"] >= -rep["tol"]
        assert rep["worst_slack"] <= pair_slack(traj, 0.0, 0.4)

    @pytest.mark.parametrize("cfg", [
        dw.SimConfig(**FORCED_CONTACT, theta=1.0),
        dw.SimConfig(**FORCED_CONTACT, theta=0.5, lam=0.5),
        toy_config(1e-2, T=1.5, dt_divisor=10.0),
    ], ids=["grid_theta_1", "grid_theta_half_lam_half", "toy_theta_half"])
    def test_worst_slack_is_the_minimum_over_every_pair(self, cfg):
        """On short wall-impact runs, the running minimum gives the smallest
        slack of all pairs s < t, each summed on its own from the states and
        the records, to round-off.  The toy run loses 1.2e-3 of energy across
        its impact; the forced grid run at theta = 1 keeps a slack of 7e-5."""
        traj = dw.simulate(cfg)
        es = energy_series(traj)
        assert traj.reaction_l1 > 0.0
        times = traj.times.tolist()
        brute = min(pair_slack(traj, s, t) for i, s in enumerate(times) for t in times[i + 1:])
        rep = energy_inequality_verdict(traj, es)
        scale = float(np.max(np.abs(es["total"])))
        assert rep["worst_slack"] == pytest.approx(brute, rel=0.0, abs=1e-13 * scale)
        assert rep["tol"] == 10.0 * (cfg.dt + cfg.epsilon)

    def test_monotone_decay_with_damping(self):
        cfg = dw.SimConfig(
            length=1.0, n_nodes=48, bc="dirichlet", graph_kind="indicator",
            epsilon=1e-3, T=0.5, dt=1e-3, theta=1.0, u0="sine:1:0.5", u1="zero",
        )
        traj = dw.simulate(cfg)
        es = energy_series(traj)
        tol = 10.0 * (cfg.dt + 1e-3)
        assert np.all(np.diff(es["total"]) <= tol)
        assert es["total"][-1] < es["total"][0]


class TestPotentialBoundAcrossSweep:
    def test_sup_potential_uniform(self, toy_sweep):
        sups = [s.sup_potential for s in toy_sweep.summaries]
        assert max(sups) / min(sups) < 1.1
