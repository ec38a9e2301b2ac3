"""Implicit stepping: fixed points, free flight, layer oracle, determinism."""

import dataclasses
import math
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dampedwave as dw
from dampedwave.errors import ConfigError, RunError, TimeNotOnGrid
from dampedwave.integrator import run_bytes, simulate
from dampedwave.toy import yosida_layer_toy
from tests.conftest import toy_config
from tests.oracles import SimState, energy_equality_residual, modal_states, step, stepwise_run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LOG_CONFIG = CONFIGS.parent / "perfbench" / "configs" / "neumann_contact_log.yaml"


class TestStep:
    def test_rest_state_is_fixed_point(self):
        cfg = dw.SimConfig(
            n_nodes=9, bc="dirichlet", graph_kind="indicator", epsilon=1e-2,
            T=1.0, dt=0.01, theta=1.0, u0="zero", u1="zero",
        )
        s0 = SimState(0.0, np.zeros(9), np.zeros(9))
        s1 = step(s0, cfg)
        np.testing.assert_array_equal(s1.u, np.zeros(9))
        np.testing.assert_array_equal(s1.v, np.zeros(9))

    def test_free_flight_exact_in_dead_zone(self):
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="family", r_threshold=0.9,
            eps_param=0.1, epsilon=None, T=1.0, dt=0.1, theta=1.0,
            u0="zero", u1="zero",
        )
        s0 = SimState(0.0, np.array([0.5]), np.array([1.0]))
        s1 = step(s0, cfg)
        assert s1.u[0] == pytest.approx(0.6, abs=1e-14)
        assert s1.v[0] == pytest.approx(1.0, abs=1e-14)


class TestSimulate:
    def test_zero_data_zero_trajectory(self):
        cfg = dw.SimConfig(
            n_nodes=17, bc="neumann", graph_kind="indicator", epsilon=0.5,
            T=0.2, dt=1e-2, theta=1.0, u0="zero", u1="zero",
        )
        traj = simulate(cfg)
        assert np.all(traj.U == 0.0) and np.all(traj.V == 0.0)
        assert np.all(traj.beta_theta == 0.0)

    def test_trajectory_invariants(self):
        traj = simulate(toy_config(1e-4, T=2.0, dt_divisor=10.0))
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0
        assert traj.U[0, 0] == 0.0 and traj.V[0, 0] == 1.0

    def test_pre_impact_free_flight(self):
        # u(t) = t while the constraint sleeps
        cfg = toy_config(1e-6, T=0.9)
        traj = simulate(cfg)
        assert traj.U[-1, 0] == pytest.approx(0.9, abs=1e-6)
        assert traj.V[-1, 0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_layer_oracle_agreement(self, eps):
        cfg = toy_config(eps, T=1.0 + math.pi * math.sqrt(eps))
        # land the horizon on the step grid
        n = round(cfg.T / cfg.dt)
        cfg = dataclasses.replace(cfg, T=n * cfg.dt)
        traj = simulate(cfg)
        stride = max(1, traj.n_steps // 2000)
        worst = 0.0
        for i in range(0, len(traj.times), stride):
            uo, vo = yosida_layer_toy(eps, float(traj.times[i]))
            worst = max(worst, abs(uo - traj.U[i, 0]), abs(vo - traj.V[i, 0]))
        assert worst <= 5.0 * cfg.dt

    def test_oracle_verified_by_refined_reintegration(self):
        # dt/10 re-integration started from an exact free-flight state
        eps = 1e-6
        base_dt = dw.snap_dt(2.0, math.sqrt(eps) / 100.0)
        dt = base_dt / 10.0
        T = 0.1  # window [0.95, 1.05] shifted to start at 0
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=eps,
            T=T, dt=dt, theta=0.5, u0="constant:0.95", u1="constant:1",
            regularize_u0=False,
        )
        traj = simulate(cfg)
        worst = 0.0
        for i in range(0, len(traj.times), 50):
            uo, vo = yosida_layer_toy(eps, 0.95 + float(traj.times[i]))
            worst = max(worst, abs(uo - traj.U[i, 0]), abs(vo - traj.V[i, 0]))
        assert worst <= 5.0 * dt

    def test_determinism_bitwise(self):
        cfg = dw.SimConfig(
            n_nodes=33, bc="dirichlet", graph_kind="indicator", epsilon=1e-3,
            T=0.05, dt=1e-3, theta=0.5, u0="sine:1:0.9", u1="sine:2:0.3",
        )
        a, b = simulate(cfg), simulate(cfg)
        assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
        assert np.array_equal(a.beta_theta, b.beta_theta)

    def test_overshoot_bounded_by_energy_and_step(self):
        from dampedwave.energy import energy_series

        for eps in (1e-3, 1e-5):
            cfg = toy_config(eps, T=2.0, dt_divisor=10.0)
            traj = simulate(cfg)
            es = energy_series(traj)
            e_max = float(np.max(es["total"]))
            overshoot = float(np.max(np.abs(traj.U)) - 1.0)
            assert overshoot <= math.sqrt(2 * eps * e_max) + 2 * cfg.dt

    def test_velocity_sup_uniform_in_eps(self):
        sups = []
        for eps in (1e-3, 1e-4, 1e-5):
            traj = simulate(toy_config(eps, T=2.0, dt_divisor=10.0))
            sups.append(float(np.max(np.abs(traj.V))))
        assert max(sups) / min(sups) < 1.05

    def test_newton_failure_reported_with_step_context(self):
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=1e-8,
            T=2.0, dt=0.5, theta=1.0, u0="zero", u1="constant:1",
            newton_max_iter=1, newton_tol=1e-14,
        )
        with pytest.warns(UserWarning):
            with pytest.raises(RunError):
                simulate(cfg)

    def test_non_divisible_horizon_rejected(self):
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=1.0,
            T=1.0, dt=0.3, theta=1.0, u0="zero", u1="zero",
        )
        with pytest.raises(RunError):
            simulate(cfg)

    @pytest.mark.parametrize("n_nodes", [1, 9])
    def test_run_bytes_counts_the_runs_arrays(self, n_nodes):
        cfg = dw.SimConfig(
            n_nodes=n_nodes, bc="neumann", graph_kind="indicator", epsilon=1e-2,
            T=0.1, dt=0.01, u0="zero", u1="constant:1",
        )
        traj = simulate(cfg)
        # beta_theta holds the reactions' first n_steps rows
        held = traj.U.nbytes + traj.V.nbytes + traj.beta_theta.nbytes + 8 * n_nodes
        assert run_bytes(traj.n_steps, n_nodes) == held + traj.newton_iters.nbytes

    def test_run_larger_than_physical_memory_rejected(self, monkeypatch):
        cfg = toy_config(1e-2, T=1.0, dt=1 / 64)  # 64 steps exactly
        need = run_bytes(64, 1)
        # one byte short of the run: refused before anything is allocated
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}
        monkeypatch.setattr(dw.integrator.os, "sysconf", pages.__getitem__)
        with pytest.raises(ConfigError, match="physical memory") as info:
            simulate(cfg)
        assert info.value.key == "time.dt"
        pages["SC_PHYS_PAGES"] = need
        assert simulate(cfg).n_steps == 64


class TestEntryPoints:
    def test_step_matches_first_simulate_state(self):
        cfg = dw.SimConfig(
            length=1.0, n_nodes=21, bc="dirichlet", graph_kind="indicator",
            epsilon=1e-2, T=0.1, dt=1e-2, theta=0.7, u0="sine:1:0.9",
            u1="sine:2:0.4", regularize_u0=False,
        )
        traj = simulate(cfg)
        s1 = step(SimState(0.0, traj.U[0].copy(), traj.V[0].copy()), cfg)
        np.testing.assert_allclose(s1.u, traj.U[1], atol=1e-14)
        np.testing.assert_allclose(s1.v, traj.V[1], atol=1e-14)

    # the data lie in the constraint (max|u0| <= 1, finite physical energy),
    # and the first step already leaves it: u0 is 1 at the middle node,
    # pushed outward, so the first step is taken in contact
    @pytest.mark.parametrize("case", [
        dict(length=1.0, n_nodes=21, bc="dirichlet", graph_kind="indicator",
             epsilon=1e-2, theta=0.7, u0="sine:1:1", u1="sine:1:20",
             forcing="constant:1", regularize_u0=False),
        dict(n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=1e-3,
             theta=0.5, u0="constant:1", u1="constant:1"),
        dict(n_nodes=1, bc="neumann", graph_kind="family", r_threshold=0.9,
             eps_param=0.02, epsilon=None, theta=0.5, u0="constant:0.95",
             u1="constant:3", forcing="constant:1", lam=0.3),
        dict(n_nodes=1, bc="neumann", graph_kind="logarithmic", epsilon=1e-3,
             theta=0.5, u0="constant:0.5", u1="constant:3"),
    ], ids=["vector", "indicator_toy", "forced_family_toy", "logarithmic_toy"])
    def test_step_is_first_simulate_step_bitwise(self, case):
        cfg = dw.SimConfig(T=0.01, dt=1e-3, **case)
        traj = simulate(cfg)
        assert traj.newton_iters[0] >= 1
        if case["graph_kind"] == "indicator":
            assert np.any(traj.beta_theta[0])  # the first step is in contact
        s1 = step(SimState(0.0, traj.U[0].copy(), traj.V[0].copy()), cfg)
        assert s1.t == traj.times[1]
        assert np.array_equal(s1.u, traj.U[1]) and np.array_equal(s1.v, traj.V[1])


class TestLogarithmicVectorPath:
    def test_1d_run_completes_and_decays(self):
        cfg = dw.SimConfig(
            length=1.0, n_nodes=33, bc="neumann", graph_kind="logarithmic",
            epsilon=0.05, T=1.0, dt=2e-3, theta=1.0, u0="cosine:1:0.3",
            u1="constant:1",
        )
        traj = simulate(cfg)
        from dampedwave.energy import energy_series

        es = energy_series(traj)
        assert np.max(np.abs(traj.U)) < 1.5
        assert es["total"][-1] <= es["total"][0] + 1e-9
        assert np.all(np.isfinite(traj.U)) and np.all(np.isfinite(traj.V))


class TestRandomizedInvariants:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=10, deadline=None)
    @given(st.floats(-0.9, 0.9), st.floats(-1.5, 1.5))
    def test_toy_energy_never_increases_backward_scheme(self, u0, u1):
        from dampedwave.energy import energy_series

        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=1e-2,
            T=0.5, dt=2e-3, theta=1.0, u0=np.array([u0]), u1=np.array([u1]),
        )
        traj = simulate(cfg)
        es = energy_series(traj)
        assert np.all(np.diff(es["total"]) <= 1e-10)
        # overshoot bound from the envelope, with the step allowance
        e_max = float(np.max(es["total"]))
        over = float(np.max(np.abs(traj.U)) - 1.0)
        assert over <= math.sqrt(2e-2 * max(e_max, 0.0)) + 2 * cfg.dt


class TestConcaveTerm:
    def test_lambda_pushes_toward_wall_and_identity_holds(self):
        # u'' = lambda*u - beta(u): growth from 0.5 into the wall
        from dampedwave.energy import energy_series

        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=0.01,
            T=3.0, dt=1e-3, theta=0.5, u0="constant:0.5", u1="zero", lam=0.5,
        )
        traj = simulate(cfg)
        assert np.max(traj.U) > 1.0 - 2 * math.sqrt(0.01)  # reached the wall
        # trapezoidal identity: lambda term is quadratic, cancels exactly;
        # residual comes from the corner crossings only
        assert energy_equality_residual(traj, 0.0, 3.0) <= 1e-4
        es = energy_series(traj)
        assert np.all(es["concave"] <= 0.0)

    def test_lambda_vector_path_first_order(self):
        res = []
        for dt in (2e-3, 1e-3):
            cfg = dw.SimConfig(
                length=1.0, n_nodes=32, bc="dirichlet", graph_kind="indicator",
                epsilon=1e-2, T=0.3, dt=dt, theta=1.0, u0="sine:1:0.5",
                u1="zero", lam=1.0,
            )
            res.append(energy_equality_residual(simulate(cfg), 0.0, 0.3))
        assert 0.9 < math.log2(res[0] / res[1]) < 1.3


class TestEnergyConservationToy:
    def test_trapezoidal_drift_tiny_over_long_horizon(self):
        # smooth + impact regime, theta = 1/2, dt = 1e-4, horizon 10
        eps = 0.05
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=eps,
            T=10.0, dt=1e-4, theta=0.5, u0="zero", u1="constant:1",
        )
        traj = simulate(cfg)
        from dampedwave.energy import energy_series

        es = energy_series(traj)
        drift = np.max(np.abs(es["total"] - es["total"][0]))
        assert drift / es["total"][0] <= 1e-6

    def test_smooth_logarithmic_run_conserves(self):
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="logarithmic", epsilon=0.5,
            T=2.0, dt=1e-3, theta=0.5, u0="zero", u1="constant:1",
        )
        traj = simulate(cfg)
        from dampedwave.energy import energy_series

        es = energy_series(traj)
        drift = np.max(np.abs(es["total"] - es["total"][0]))
        assert drift / es["total"][0] <= 1e-5


def test_time_index_rejects_off_grid():
    traj = simulate(toy_config(1e-3, T=1.0, dt_divisor=10.0))
    with pytest.raises(TimeNotOnGrid):
        traj.time_index(0.12345678)


def test_time_index_finds_every_time_of_a_run_with_dt_below_its_tolerance():
    """With dt = 1e-10, below the 1e-9 tolerance, each recorded time is
    still found at its own index."""
    traj = simulate(dw.SimConfig(
        n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=1e-3,
        T=1e-8, dt=1e-10, theta=1.0, u0="zero", u1="constant:1",
    ))
    assert [traj.time_index(float(t)) for t in traj.times] == list(range(len(traj.times)))
    with pytest.raises(TimeNotOnGrid):
        traj.time_index(0.5e-10)


UNIT = st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0])


@settings(max_examples=60, deadline=None)
@given(
    u0=UNIT, u1=UNIT,
    theta=st.sampled_from([0.5, 0.75, 1.0]),
    eps=st.sampled_from([1e-2, 1e-3, 1e-4]),
    kind=st.sampled_from(["indicator", "family", "logarithmic"]),
    lam=st.sampled_from([0.0, 0.7]),
    forcing=st.sampled_from(["zero", "constant:0.3", "constant:-2"]),
    block=st.sampled_from([7, 1 << 16]),
)
def test_one_node_simulate_is_the_stepwise_loop(u0, u1, theta, eps, kind, lam, forcing, block):
    """On one node, ``simulate`` (with its free-flight stretches, in blocks
    of ``block`` steps) gives a per-step ``advance`` loop's states, reactions
    and Newton counts bit for bit, or fails at the same step."""
    graph = (dict(graph_kind="family", r_threshold=0.8, eps_param=math.sqrt(eps), epsilon=None)
             if kind == "family" else dict(graph_kind=kind, epsilon=eps))
    cfg = dw.SimConfig(
        n_nodes=1, bc="neumann", **graph, T=2.0, dt=1e-3, theta=theta, lam=lam,
        u0=f"constant:{u0!r}", u1=f"constant:{u1!r}", forcing=forcing,
    )
    try:
        with warnings.catch_warnings(), mock.patch.object(dw.integrator, "BLOCK_ELEMENTS", block):
            warnings.simplefilter("ignore")
            traj = simulate(cfg)
    except RunError as exc:
        with pytest.raises(type(exc.__cause__), match=re.escape(str(exc.__cause__))):
            stepwise_run(cfg)
        return
    U, V, B, iters = stepwise_run(cfg)
    assert traj.U[:, 0].tobytes() == U.tobytes()
    assert traj.V[:, 0].tobytes() == V.tobytes()
    assert traj.beta_theta[:, 0].tobytes() == (theta * B[1:] + (1.0 - theta) * B[:-1]).tobytes()
    assert traj.newton_iters.tobytes() == iters.tobytes()


def test_singular_newton_system_is_rejected_step(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    # step 0 is a dead-zone step, whose solve is the factored one
    monkeypatch.setattr(dw.integrator, "solve_banded", singular)
    monkeypatch.setattr(dw.integrator, "factor_banded", singular)
    cfg = dw.SimConfig(
        n_nodes=9, bc="neumann", graph_kind="indicator", epsilon=1e-2,
        T=0.1, dt=1e-2, theta=1.0, u0="cosine:1:0.5", u1="constant:1",
    )
    with pytest.raises(RunError, match="step 0 rejected") as info:
        simulate(cfg)
    assert isinstance(info.value.__cause__, dw.errors.StepRejected)


class TestModalOracle:
    """Dirichlet ``sine:k`` data that stay in the dead zone.

    sin(k pi x) is an eigenvector of the 3-point Dirichlet operator with
    eigenvalue mu = (4/h^2) sin^2(k pi h/2), and the reaction vanishes, so
    the semi-discrete solution is c(t) sin(k pi x) with c'' + mu c' + mu c = 0
    in closed form.  The theta-scheme must reach it at second order in dt
    at theta = 1/2 and at first order at theta = 1.
    """

    A0, A1, T = 0.5, 0.5, 0.5

    def error_at_T(self, k, theta, dt):
        cfg = dw.SimConfig(
            n_nodes=33, bc="dirichlet", graph_kind="indicator", epsilon=1.0,
            T=self.T, dt=dt, theta=theta, u0=f"sine:{k}:{self.A0}",
            u1=f"sine:{k}:{self.A1}", regularize_u0=False,
        )
        traj = simulate(cfg)
        assert not np.any(traj.beta_theta)  # the reaction never acts
        grid = cfg.grid()
        mu = 4.0 / grid.h**2 * math.sin(k * math.pi * grid.h / 2.0) ** 2
        phi = np.sin(k * math.pi * grid.x)
        np.testing.assert_allclose(dw.apply_A(grid, phi), mu * phi, rtol=0, atol=1e-11)
        # overdamped: c = p e^(r1 t) + q e^(r2 t), c(0) = A0, c'(0) = A1
        s = math.sqrt(mu * mu - 4.0 * mu)
        r1, r2 = 0.5 * (-mu + s), 0.5 * (-mu - s)
        q = (self.A1 - r1 * self.A0) / (r2 - r1)
        c = (self.A0 - q) * math.exp(r1 * self.T) + q * math.exp(r2 * self.T)
        return float(np.max(np.abs(traj.U[-1] - c * phi)))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("theta, order", [(0.5, 2), (1.0, 1)])
    def test_convergence_order(self, k, theta, order):
        errs = [self.error_at_T(k, theta, dt) for dt in (0.01, 0.005, 0.0025)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 0.95 * 2**order <= coarse / fine <= 1.05 * 2**order, errs


# (config, replaced fields): dirichlet_sine never reaches the constraint;
# neumann_contact and pressed_wall (forced) until their first contact; the
# variants take theta = 1/2, and lambda = 1/2 with the forcing
MODAL_RUNS = [
    ("dirichlet_sine", {}),
    ("neumann_contact", {}),
    ("pressed_wall", {}),
    ("neumann_contact", {"theta": 0.5}),
    ("pressed_wall", {"theta": 0.5, "lam": 0.5}),
]


class TestDiscreteModalOracle:
    """While no node is in contact the reaction is 0 and the scheme is the
    theta-method on each eigenmode of A (``tests.oracles.modal_states``).
    The run's states U match the modal solution from U[0], V[0] to round-off:
    a relative max-norm error of at most 1e-12 over every dead-zone step.
    Round-off stays under it (1.9e-13 on dirichlet_sine's 5000 steps, the
    largest of these runs, on a 2-core Xeon with numpy 2.4); a term of the
    equation scaled by 1.01 does not, on every run whose prefix it changes."""

    BOUND = 1e-12

    @pytest.mark.parametrize("name, fields", MODAL_RUNS,
                             ids=[f"{n}-{'-'.join(f'{k}{v}' for k, v in f.items()) or 'shipped'}"
                                  for n, f in MODAL_RUNS])
    def test_dead_zone_steps_are_the_modal_solution(self, name, fields):
        cfg = dataclasses.replace(dw.load_config(CONFIGS / f"{name}.yaml"), **fields)
        traj = simulate(cfg)
        active = np.flatnonzero(np.any(traj.beta_theta, axis=1))
        n_dead = int(active[0]) if len(active) else traj.n_steps
        assert n_dead >= 400 and (name == "dirichlet_sine") == (n_dead == traj.n_steps)
        U = traj.U[: n_dead + 1]
        err = np.max(np.abs(modal_states(cfg, U[0], traj.V[0], n_dead) - U)) / np.max(np.abs(U))
        assert err <= self.BOUND, err


class TestScalarMatchesVector:
    """The scalar fast path against the vector kernel on a one-node Neumann grid."""

    FIELDS = ("U", "V", "beta_theta", "diss_incr", "power_incr", "newton_iters")

    @staticmethod
    def both_paths(cfg):
        from dampedwave.integrator import _resolve_steps, _run, _ScalarWorkspace, _VectorWorkspace

        grid, reaction = cfg.grid(), cfg.reaction()
        u0, v0 = cfg.initial_fields(grid)
        n, g = _resolve_steps(cfg), cfg.forcing_field(grid)
        scalar = _run(cfg, _ScalarWorkspace(cfg, grid, reaction, g), n, float(u0[0]), float(v0[0]))
        vector = _run(cfg, _VectorWorkspace(cfg, grid, reaction, g), n, u0, v0)
        return scalar, vector

    def test_toy_jump_bitwise(self):
        from pathlib import Path

        cfg = dw.load_config(Path(__file__).parent.parent / "configs" / "toy_jump.yaml")
        scalar, vector = self.both_paths(cfg)
        assert np.count_nonzero(scalar.beta_theta) > 0
        for field in self.FIELDS:
            assert np.array_equal(getattr(scalar, field), getattr(vector, field)), field

    @pytest.mark.parametrize("graph", [
        dict(graph_kind="family", r_threshold=0.9, eps_param=0.02, epsilon=None),
        dict(graph_kind="logarithmic", epsilon=1e-3),
    ])
    def test_forced_toy_to_round_off(self, graph):
        cfg = dw.SimConfig(
            n_nodes=1, bc="neumann", T=0.5, dt=1e-3, theta=0.5, u0="zero",
            u1="constant:3", forcing="constant:1", lam=0.3, **graph,
        )
        scalar, vector = self.both_paths(cfg)
        assert np.count_nonzero(scalar.beta_theta) > 0
        assert np.array_equal(scalar.newton_iters, vector.newton_iters)
        for field in self.FIELDS[:-1]:
            a, b = getattr(scalar, field), getattr(vector, field)
            scale = max(float(np.max(np.abs(a))), 1.0)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-13 * scale, err_msg=field)


class TestDeadZoneIteration:
    """A grid Newton iteration whose iterate is strictly inside the reaction's
    dead zone evaluates no reaction: its reaction and derivative are the
    vector kernel's shared read-only zero, with the +0.0 bits of the full
    call, and its solve is the factored dead-zone one."""

    @staticmethod
    def count_reactions(monkeypatch):
        """A list that gets one item per ``Reaction.beta_and_dbeta`` call."""
        calls, full = [], dw.graphs.Reaction.beta_and_dbeta

        def counted(self, u):
            calls.append(u)
            return full(self, u)

        monkeypatch.setattr(dw.graphs.Reaction, "beta_and_dbeta", counted)
        return calls

    # dirichlet_sine never leaves the dead zone (two evaluations per step
    # without the shortcut, 10,000 calls); the logarithmic graph has no dead
    # zone and keeps its two per step
    @pytest.mark.parametrize("config, calls", [(CONFIGS / "dirichlet_sine.yaml", 0), (LOG_CONFIG, 4000)],
                             ids=["dirichlet_sine", "neumann_contact_log"])
    def test_reaction_evaluations(self, monkeypatch, config, calls):
        counted = self.count_reactions(monkeypatch)
        simulate(dw.load_config(config))
        assert len(counted) == calls

    @pytest.mark.parametrize("name, fields", [
        ("pressed_wall", {}),
        ("neumann_contact", {"theta": 0.5, "lam": 0.5}),
        ("neumann_contact", {"graph_kind": "family", "r_threshold": 0.9, "eps_param": 0.02, "epsilon": None}),
    ], ids=["pressed_wall", "neumann_contact-theta0.5-lam0.5", "neumann_contact-family"])
    def test_shortcut_has_the_full_calls_bits(self, name, fields):
        """A run with contact, through both paths, against the same run with
        the shortcut off (no dead zone): the same bits in every field."""
        from dampedwave.integrator import _kernel, _resolve_steps, _run

        cfg = dataclasses.replace(dw.load_config(CONFIGS / f"{name}.yaml"), **fields)
        grid, reaction = cfg.grid(), cfg.reaction()
        runs = []
        for dead_zone in (reaction.dead_zone, None):
            kernel, u, v = _kernel(cfg, grid, reaction, *cfg.initial_fields(grid))
            kernel.dead_zone = dead_zone
            runs.append(_run(cfg, kernel, _resolve_steps(cfg), u, v))
        shortcut, full = runs
        assert 0 < np.count_nonzero(np.any(full.beta_theta, axis=1)) < full.n_steps
        for field in ("U", "V", "beta_theta", "diss_incr", "power_incr", "newton_iters"):
            assert getattr(shortcut, field).tobytes() == getattr(full, field).tobytes(), field

    def test_nan_iterate_takes_the_full_call(self, monkeypatch):
        """A NaN fails the dead-zone test: the iteration evaluates the
        reaction, and the run ends in the RunError of a diverged step."""
        from dampedwave.integrator import _kernel, _run

        cfg = dw.load_config(CONFIGS / "neumann_contact.yaml")
        grid, reaction = cfg.grid(), cfg.reaction()
        u0, v0 = cfg.initial_fields(grid)
        u0[7] = math.nan  # every other node is inside the dead zone
        counted = self.count_reactions(monkeypatch)
        kernel, u, v = _kernel(cfg, grid, reaction, u0, v0)
        with pytest.raises(RunError, match=r"run 'neumann-contact' failed: .*step 0") as info:
            _run(cfg, kernel, 10, u, v)
        assert isinstance(info.value.__cause__, dw.errors.NewtonDiverged)
        assert len(counted) == 1 and math.isnan(counted[0][7])

    def test_shared_zero_is_read_only(self):
        from dampedwave.integrator import _kernel

        cfg = dw.load_config(CONFIGS / "pressed_wall.yaml")
        grid = cfg.grid()
        kernel = _kernel(cfg, grid, cfg.reaction(), *cfg.initial_fields(grid))[0]
        assert kernel.zero.tobytes() == np.zeros(grid.n_nodes).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            kernel.zero[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            kernel.zero += 0.0
