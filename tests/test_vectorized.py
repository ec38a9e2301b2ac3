"""Whole-array post-processing against the per-row loops it replaced.

The reference functions below are the straightforward per-step and
per-record formulations; the package computes the same quantities on
row batches.  Values must agree to round-off, |a - b| <= 1e-12*(1 + |a|),
and the trajectory CSV must match a csv.writer row writer byte for byte.
"""

import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from dampedwave.cli import _rebuild_diagnostics, read_trajectory_csv, write_trajectory_csv
from dampedwave.config import load_config, make_reaction
from dampedwave.energy import energy, energy_series
from dampedwave.graphs import family_graph, indicator_graph, logarithmic_graph
from dampedwave.grid import DIRICHLET, NEUMANN, Grid, apply_A, edge_inner
from dampedwave.integrator import Trajectory, map_blocks, simulate
from dampedwave.sweep import summarize_run
from dampedwave.weaklimit import (
    default_dictionary,
    solution_identity_residual,
    weak_residual,
)
from tests.oracles import inner, traj_diff, xi_masses

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# shipped configurations, shortened so that each run takes well under a second
SHORT_RUNS = {
    "dirichlet_sine": 0.02,
    "neumann_contact": 1.2,
    "pressed_wall": 0.6,
    "toy_jump": 1.2,
}


def assert_close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(a))), np.max(np.abs(a - b))


@pytest.fixture(scope="module", params=sorted(SHORT_RUNS))
def short_run(request):
    cfg = load_config(CONFIGS / f"{request.param}.yaml")
    traj = simulate(dataclasses.replace(cfg, T=SHORT_RUNS[request.param]))
    return traj


# ---------------------------------------------------------------------------
# per-row references


def ref_energy_series(traj):
    rows = [energy(traj.grid, traj.U[i], traj.V[i], traj.reaction, traj.cfg.lam)
            for i in range(len(traj.times))]
    return {
        "kinetic": [e.kinetic for e in rows],
        "gradient": [e.gradient for e in rows],
        "potential": [e.potential for e in rows],
        "concave": [e.concave for e in rows],
        "total": [e.total for e in rows],
    }


def ref_theta_forcing(traj, g):
    th = traj.theta
    return th * g + (1.0 - th) * g


def ref_weak_residual(traj, phi, t_end):
    n_end = traj.time_index(t_end)
    grid, th, dt, lam = traj.grid, traj.theta, traj.dt, traj.cfg.lam
    w = grid.mass_weights
    times = traj.times[: n_end + 1]
    S = phi.space.value(grid.x)
    wS = w * S
    Tv, Td = phi.time.value(times), phi.time.dvalue(times)
    acc = float(Tv[-1]) * float(np.dot(wS, traj.V[n_end]))
    acc -= float(Tv[0]) * float(np.dot(wS, traj.V[0]))
    g = traj.cfg.forcing_field(grid)
    for k in range(n_end):
        T_th = th * Tv[k + 1] + (1.0 - th) * Tv[k]
        Td_th = th * Td[k + 1] + (1.0 - th) * Td[k]
        u_th = th * traj.U[k + 1] + (1.0 - th) * traj.U[k]
        v_th = th * traj.V[k + 1] + (1.0 - th) * traj.V[k]
        acc -= dt * Td_th * float(np.dot(v_th, wS))
        acc += dt * T_th * (edge_inner(grid, v_th, S) + edge_inner(grid, u_th, S))
        acc -= lam * dt * T_th * float(np.dot(u_th, wS))
        if g is not None:
            acc -= dt * T_th * float(np.dot(wS, ref_theta_forcing(traj, g)))
    tvals = phi.time.value((1.0 - th) * times[:-1] + th * times[1:])
    acc += float(np.dot(tvals, xi_masses(traj)[:n_end] @ S))
    return abs(acc)


def ref_solution_identity(traj, s, t):
    ks, kt = traj.time_index(s), traj.time_index(t)
    grid, th, dt, lam = traj.grid, traj.theta, traj.dt, traj.cfg.lam
    w = grid.mass_weights
    g = traj.cfg.forcing_field(grid)
    acc = float(np.dot(w * traj.V[kt], traj.U[kt])) - float(np.dot(w * traj.V[ks], traj.U[ks]))
    for k in range(ks, kt):
        u_th = th * traj.U[k + 1] + (1.0 - th) * traj.U[k]
        v_th = th * traj.V[k + 1] + (1.0 - th) * traj.V[k]
        acc -= dt * float(np.dot(w * v_th, v_th))
        acc += dt * (edge_inner(grid, v_th, u_th) + edge_inner(grid, u_th, u_th))
        acc += float(np.dot(xi_masses(traj)[k], u_th))
        acc -= lam * dt * float(np.dot(w * u_th, u_th))
        if g is not None:
            acc -= dt * float(np.dot(w * ref_theta_forcing(traj, g), u_th))
    return abs(acc)


def ref_sup_Au(traj):
    return max(
        math.sqrt(max(inner(traj.grid, au, au), 0.0))
        for au in (apply_A(traj.grid, traj.U[i]) for i in range(len(traj.times)))
    )


def ref_h1_time_v(traj):
    grid, w = traj.grid, traj.grid.mass_weights
    sq = [
        float(np.dot(w * u, u)) + edge_inner(grid, u, u)
        + float(np.dot(w * v, v)) + edge_inner(grid, v, v)
        for u, v in zip(traj.U, traj.V)
    ]
    return math.sqrt(max(np.trapezoid(sq, traj.times), 0.0))


def ref_rebuild(cfg, times, U, V):
    grid, reaction, th, dt = cfg.grid(), cfg.reaction(), cfg.theta, cfg.dt
    g = cfg.forcing_field(grid)
    w = grid.mass_weights
    n = len(times) - 1
    beta_theta = np.array(
        [th * reaction.beta(U[k + 1]) + (1.0 - th) * reaction.beta(U[k]) for k in range(n)]
    )
    diss, power = np.empty(n), np.zeros(n)
    for k in range(n):
        v_th = th * V[k + 1] + (1.0 - th) * V[k]
        diss[k] = dt * edge_inner(grid, v_th, v_th)
        if g is not None:
            g_th = th * g + (1.0 - th) * g
            power[k] = dt * float(np.dot(w * g_th, v_th))
    return beta_theta, diss, power


def ref_write_trajectory_csv(path, traj):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "node", "u", "v", "beta_eps_u"])
        for i, t in enumerate(traj.times):
            b = np.atleast_1d(traj.reaction.beta(traj.U[i]))
            for j in range(traj.grid.n_nodes):
                wr.writerow([f"{t:.12g}", j, f"{traj.U[i, j]:.17g}",
                             f"{traj.V[i, j]:.17g}", f"{float(b[j]):.17g}"])


# ---------------------------------------------------------------------------
# batched grid operators


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
class TestBatchedGridOps:
    def test_edge_inner_rows(self, bc):
        rng = np.random.default_rng(7)
        g = Grid(1.0, 13, bc)
        U, V = rng.standard_normal((6, 13)), rng.standard_normal((6, 13))
        assert_close(edge_inner(g, U, V), [edge_inner(g, u, v) for u, v in zip(U, V)])
        assert_close(edge_inner(g, U, U), [edge_inner(g, u, u) for u in U])

    def test_edge_inner_row_against_one_field(self, bc):
        rng = np.random.default_rng(8)
        g = Grid(1.0, 13, bc)
        U, s = rng.standard_normal((6, 13)), rng.standard_normal(13)
        assert_close(edge_inner(g, U, s), [edge_inner(g, u, s) for u in U])
        assert_close(edge_inner(g, s, U), [edge_inner(g, s, u) for u in U])

    def test_apply_A_rows(self, bc):
        rng = np.random.default_rng(9)
        g = Grid(1.0, 13, bc)
        U = rng.standard_normal((6, 13))
        np.testing.assert_array_equal(apply_A(g, U), np.array([apply_A(g, u) for u in U]))


def test_homogeneous_grid_batches_are_zero():
    g = Grid(1.0, 1, NEUMANN)
    U = np.ones((4, 1))
    np.testing.assert_array_equal(edge_inner(g, U, U), np.zeros(4))
    np.testing.assert_array_equal(apply_A(g, U), np.zeros((4, 1)))


# ---------------------------------------------------------------------------
# check battery


def reaction_inputs():
    """States in [-3, 3], next to and beyond +-1, and the special points, 9 per row."""
    near = np.logspace(-16, -1, 12)
    r = np.concatenate([
        np.random.default_rng(5).uniform(-3.0, 3.0, 59),
        1.0 - near, 1.0 + near, -1.0 + near, -1.0 - near,
        [0.0, -0.0, 1.0, -1.0, 0.99, -0.99, 1.04, -1.04, 50.0, -50.0],
    ])
    return r.reshape(-1, 9)


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3, 1.0, 10.0])
@pytest.mark.parametrize("kind", ["indicator", "logarithmic", "family"])
def test_reaction_rows_blocks_and_elements_agree_bitwise(kind, eps):
    """The reaction is elementwise bit for bit: in row blocks, row by row, one
    element at a time, and ``beta_and_dbeta`` of a plain float, as two
    floats, where the array form is +0.0 for both strictly inside the dead
    zone.  Run rebuilds, trajectory.csv, energy.csv and the one-node kernel
    (which takes (0.0, 0.0) inside the dead zone, and the float call
    elsewhere) rely on it."""
    if kind == "family":
        reaction = make_reaction(family_graph(0.8, eps), None)
    else:
        graph = indicator_graph() if kind == "indicator" else logarithmic_graph()
        reaction = make_reaction(graph, eps)
    M = reaction_inputs()
    for fn in (reaction.beta, reaction.dbeta, reaction.pot):
        blocks = map_blocks(*M.shape, lambda rows: fn(M[rows]))
        rows = np.array([fn(row) for row in M])
        elements = np.array([fn(M[:, j : j + 1])[:, 0] for j in range(M.shape[1])]).T
        assert np.array_equal(blocks.view(np.int64), rows.view(np.int64)), fn.__name__
        assert np.array_equal(blocks.view(np.int64), elements.view(np.int64)), fn.__name__
    dz = reaction.dead_zone
    edges = [] if dz is None else [s * np.nextafter(dz, to) for s in (1.0, -1.0) for to in (0.0, dz, 2.0)]
    r = np.concatenate([M.ravel(), [math.nan, -math.nan], edges])
    pairs = [tuple(map(float, reaction.beta_and_dbeta(v))) for v in r.tolist()]
    assert all(type(b) is float and type(d) is float for b, d in pairs)
    batch = np.stack([reaction.beta(r), reaction.dbeta(r)], axis=1)
    assert np.array_equal(np.array(pairs).view(np.int64), batch.view(np.int64))
    if dz is not None:
        inside = np.abs(r) < dz
        assert np.array_equal(batch[inside].view(np.int64), np.zeros((inside.sum(), 2), dtype=np.int64))


class TestChecksMatchPerRowLoops:
    def test_energy_series(self, short_run):
        traj = short_run
        es, ref = energy_series(traj), ref_energy_series(traj)
        for name, values in ref.items():
            assert_close(values, es[name])

    def test_weak_residual(self, short_run):
        traj = short_run
        T = float(traj.times[-1])
        phis = default_dictionary(traj.grid, T)
        for phi, r in zip(phis, weak_residual(traj, phis, T)):
            assert_close(ref_weak_residual(traj, phi, T), r)

    def test_solution_identity_residual(self, short_run):
        traj = short_run
        T = float(traj.times[-1])
        for s, t in ((0.0, T), (traj.times[3], traj.times[-4])):
            assert_close(
                ref_solution_identity(traj, s, t),
                solution_identity_residual(traj, s, t),
            )

    def test_summarize_run(self, short_run):
        traj = short_run
        summ = summarize_run(traj, energy_series(traj))
        assert_close(ref_sup_Au(traj), summ.sup_Au)
        assert_close(ref_h1_time_v(traj), summ.h1_time_v)
        totals = ref_energy_series(traj)["total"]
        assert_close(max(totals), summ.e_max)
        assert_close(totals[0], summ.e_initial)
        assert_close(totals[-1], summ.e_final)

    def test_traj_diff(self, short_run):
        traj = short_run
        grid, w = traj.grid, traj.grid.mass_weights
        d = traj.U - traj.V
        v_sq = [float(np.dot(di * di, w)) + edge_inner(grid, di, di) for di in d]
        got = traj_diff(grid, traj.times, traj.U, traj.V)
        assert_close(math.sqrt(max(float(np.dot(di * di, w)) for di in d)), got["linf_H"])
        assert_close(math.sqrt(np.trapezoid(v_sq, traj.times)), got["l2_V"])

    def test_rebuild_diagnostics(self, short_run):
        traj = short_run
        rebuilt = _rebuild_diagnostics(traj.cfg, traj.times, traj.U, traj.V)
        beta_theta, diss, power = ref_rebuild(traj.cfg, traj.times, traj.U, traj.V)
        assert_close(beta_theta, rebuilt.beta_theta)
        assert_close(diss, rebuilt.diss_incr)
        assert_close(power, rebuilt.power_incr)
        assert isinstance(rebuilt, Trajectory)


# ---------------------------------------------------------------------------
# trajectory CSV


class TestTrajectoryCsv:
    def test_bytes_match_row_writer(self, short_run, tmp_path):
        traj = short_run
        write_trajectory_csv(tmp_path / "new.csv", traj)
        ref_write_trajectory_csv(tmp_path / "ref.csv", traj)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_round_trip_is_bit_identical(self, short_run, tmp_path):
        traj = short_run
        p = tmp_path / "trajectory.csv"
        write_trajectory_csv(p, traj)
        back = read_trajectory_csv(p, traj.cfg)
        np.testing.assert_array_equal(back.U, traj.U)
        np.testing.assert_array_equal(back.V, traj.V)
        assert back.U.tobytes() == traj.U.tobytes() and back.V.tobytes() == traj.V.tobytes()

    def test_rows_in_any_order(self, short_run, tmp_path):
        traj = short_run
        p = tmp_path / "trajectory.csv"
        write_trajectory_csv(p, traj)
        header, *rows = p.read_bytes().split(b"\r\n")[:-1]
        rows.reverse()
        p.write_bytes(b"\r\n".join([header] + rows) + b"\r\n")
        back = read_trajectory_csv(p, traj.cfg)
        np.testing.assert_array_equal(back.U, traj.U)
        np.testing.assert_array_equal(back.V, traj.V)
