"""The check battery over row blocks: the same values at any block size, the
whole-array formulas it replaced as oracles, and its memory.

The battery reduces per-step and per-record values computed over row blocks
of ``integrator.BLOCK_ELEMENTS`` elements (``Trajectory.step_values``,
``map_row_blocks``), so it builds no array the size of the run.  The oracles
below are those whole-array formulas, kept as they were before the battery
streamed.
"""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dampedwave import integrator
from dampedwave.cli import WEAK_C, _jumps_payload, _standard_checks
from dampedwave.config import load_config
from dampedwave.energy import energy_series
from dampedwave.grid import apply_A, edge_inner
from dampedwave.integrator import pairwise_sum, simulate
from dampedwave.sweep import summarize_run
from dampedwave.weaklimit import (
    SeparableCandidate,
    _max_abs,
    accumulate_xi,
    detect_jumps,
    iter_random_candidates,
    singular_support_check,
    solution_identity_residual,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# dirichlet_sine: 5000 steps x 256 nodes, U of 10.2 MB; pressed_wall: forced,
# on the wall; neumann_contact: unforced wall impact; toy_jump: one node
RUNS = ("dirichlet_sine", "pressed_wall", "neumann_contact", "toy_jump")


@pytest.fixture(scope="module", params=RUNS)
def run(request):
    traj = simulate(load_config(CONFIGS / f"{request.param}.yaml"))
    return traj, accumulate_xi(traj), energy_series(traj)


# ---------------------------------------------------------------------------
# the whole-array formulas the battery replaced


def oracle_solution_identity(traj, xi, s, t):
    """The residual from whole-run theta-combined states, and the sum of the
    magnitudes of its terms (the scale its rounding is relative to)."""
    ks, kt = traj.time_index(s), traj.time_index(t)
    grid, dt, lam = traj.grid, traj.dt, traj.cfg.lam
    w = grid.mass_weights
    u_th, v_th = traj.theta_combine(traj.U)[ks:kt], traj.theta_combine(traj.V)[ks:kt]
    terms = [
        -dt * float(np.sum((v_th * v_th) @ w)),
        float(np.dot(w * traj.V[kt], traj.U[kt])),
        -float(np.dot(w * traj.V[ks], traj.U[ks])),
        float(np.sum(xi.masses[ks:kt] * u_th)),
        -lam * dt * float(np.sum((u_th * u_th) @ w)),
    ]
    if not grid.is_homogeneous:
        terms.append(dt * float(np.sum(edge_inner(grid, v_th, u_th) + edge_inner(grid, u_th, u_th))))
    g = traj.cfg.forcing_field(grid)
    if g is not None:
        g_th = traj.theta_combine(np.array([g, g]))
        terms.append(-dt * float(np.sum((g_th * u_th) @ w)))
    return abs(sum(terms)), sum(abs(x) for x in terms)


def oracle_support(xi, traj, threshold):
    u_th = traj.theta_combine(traj.U)
    sig = np.abs(xi.masses) > threshold
    if not np.any(sig):
        return 0, 0.0, 0, 0
    mis = 1.0 - np.sign(xi.masses[sig]) * u_th[sig]
    return (
        int(np.sum(sig)),
        float(np.max(mis)),
        int(np.sum(xi.masses[sig] > 0)),
        int(np.sum(xi.masses[sig] < 0)),
    )


def oracle_summary(traj):
    grid, w, U, V = traj.grid, traj.grid.mass_weights, traj.U, traj.V
    AU = apply_A(grid, U)
    sq = (U * U) @ w + edge_inner(grid, U, U) + (V * V) @ w + edge_inner(grid, V, V)
    return {
        "sup_v": float(np.max(np.sqrt(np.maximum((V * V) @ w, 0.0)))),
        "bv_proxy": float(np.sum(np.abs(V[1:] - V[:-1]) @ w)),
        "sup_Au": math.sqrt(max(float(np.max((AU * AU) @ w)), 0.0)),
        "h1_time_v": float(np.sqrt(max(np.trapezoid(sq, traj.times), 0.0))),
        "overshoot": float(np.max(np.maximum(np.abs(U) - 1.0, 0.0))),
    }


def assert_rel(a, b, rel=1e-12):
    assert abs(a - b) <= rel * max(abs(a), abs(b)), (a, b)


# ---------------------------------------------------------------------------


def battery(traj, xi, es):
    """Everything the battery computes from a run, in comparable form."""
    jumps = [(e.t, e.v_before.tobytes(), e.v_after.tobytes(), e.impulse) for e in detect_jumps(traj)]
    return _standard_checks(traj, xi, es, 0), summarize_run(traj, xi, es), jumps, xi.total_l1


@pytest.mark.parametrize("name", ["dirichlet_sine", "pressed_wall", "toy_jump"])
def test_battery_does_not_depend_on_the_block_size(name, monkeypatch):
    """Blocks of 7 elements put a block edge in every row or every few rows,
    blocks of 100 a few rows each; every value stays the default's."""
    traj = simulate(load_config(CONFIGS / f"{name}.yaml"))
    xi, es = accumulate_xi(traj), energy_series(traj)
    default = battery(traj, xi, es)
    for block in (7, 100):
        monkeypatch.setattr(integrator, "BLOCK_ELEMENTS", block)
        assert battery(traj, xi, es) == default, block


def test_solution_identity_matches_the_whole_array_formula(run):
    """Within 1e-12 of the size of its terms: the residual is a small
    difference of terms of the size of the energy, so a term summed in
    another order moves it by a few ulps of those terms."""
    traj, xi, es = run
    T = float(traj.times[-1])
    for s, t in ((0.0, T), (float(traj.times[3]), float(traj.times[-4]))):
        got = solution_identity_residual(traj, xi, s, t)
        want, scale = oracle_solution_identity(traj, xi, s, t)
        assert abs(got - want) <= 1e-12 * scale, (got, want, scale)
    e_max = float(np.max(es["total"]))
    budget = WEAK_C * traj.dt * (1.0 + T) * (1.0 + e_max)
    got = solution_identity_residual(traj, xi, 0.0, T)
    assert (got <= budget) == (oracle_solution_identity(traj, xi, 0.0, T)[0] <= budget)


def test_singular_support_matches_the_whole_array_formula(run):
    """Counts and the largest misalignment are exact in any block."""
    traj, xi, _ = run
    thresholds = [0.01 * max(xi.total_l1, 1e-30) / xi.n_t, 0.0, np.inf]
    thresholds.append(float(np.quantile(np.abs(xi.masses), 0.9)))
    for thr in thresholds:
        rep = singular_support_check(xi, traj, thr)
        got = (rep.n_significant, rep.max_misalignment, rep.positive_cells, rep.negative_cells)
        assert got == oracle_support(xi, traj, thr)


def test_summarize_run_matches_the_whole_array_formulas(run):
    traj, xi, es = run
    summ = summarize_run(traj, xi, es)
    want = oracle_summary(traj)
    for field in ("sup_v", "bv_proxy", "sup_Au", "h1_time_v"):
        assert_rel(getattr(summ, field), want[field])
    assert summ.overshoot == want["overshoot"]
    assert summ.l1_mass == float(np.sum(np.abs(xi.masses)))


def test_total_l1_is_the_whole_array_sum_bit_for_bit(monkeypatch):
    """A sum in another order differs in its last bits on about half of
    these draws, so four draws a shape catch a wrong split."""
    rng = np.random.default_rng(11)
    shapes = [(0, 3), (1, 1), (7, 3), (129, 1), (1000, 65), (1001, 65), (5001, 256), (130_001, 1)]
    for shape in shapes:
        for _ in range(4):
            M = rng.uniform(-1.0, 1.0, shape)
            want = float(np.sum(np.abs(M)))
            for block in (7, 100, 1 << 16):
                monkeypatch.setattr(integrator, "BLOCK_ELEMENTS", block)
                got = pairwise_sum(np.abs, M)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (shape, block)


# ---------------------------------------------------------------------------
# factored candidates


def factor_cases():
    rng = np.random.default_rng(5)
    return [
        (rng.uniform(-1.0, 1.0, 50), rng.uniform(-1.0, 1.0, 7)),
        (np.array([-0.0, 0.0, -0.0]), np.array([1.0, -1.0])),
        (np.array([-0.0]), np.array([-1.0])),
        (np.array([-0.0]), np.array([1.0])),
        (np.array([0.0, -0.5]), np.array([-0.0, 0.0])),
        (np.array([-1.0, 0.25, -0.0]), np.array([-0.0, 0.75, -0.75])),
        (np.array([1e-300, -1e-300]), np.array([1e-300, -0.0])),  # products underflow to +-0
        (np.array([1e-160, -3e-160]), np.array([-1e-160])),  # subnormal products
    ]


@pytest.mark.parametrize("tau, sigma", factor_cases())
def test_separable_candidate_is_its_outer_product(tau, sigma):
    c = SeparableCandidate(tau, sigma)
    v = np.outer(tau, sigma)
    assert np.asarray(c).tobytes() == v.tobytes()
    assert np.asarray(c, dtype=float).tobytes() == v.tobytes()
    assert c.shape == v.shape
    assert c.rows(slice(1, None)).tobytes() == v[1:].tobytes()
    # the max from the factors has the bits of the max over the array
    assert np.float64(c.max_abs).tobytes() == np.float64(_max_abs(v)).tobytes()
    assert c.max_abs == np.max(np.abs(v))


def test_random_candidates_are_factored(run):
    traj, _, _ = run
    for c in iter_random_candidates(traj, 5, np.random.default_rng(2)):
        assert isinstance(c, SeparableCandidate)
        assert c.shape == (traj.n_steps, traj.grid.n_nodes)


# ---------------------------------------------------------------------------
# memory


def battery_peak_bytes(traj):
    """The tracemalloc peak of the battery and the jump report, above the
    run, its measure and its energy series."""
    xi, es = accumulate_xi(traj), energy_series(traj)
    traj.grid, traj.reaction, traj.forcing  # noqa: B018 - cached inputs, not the battery's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _jumps_payload(traj)
        _standard_checks(traj, xi, es, 0)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_battery_builds_no_run_sized_array():
    """On dirichlet_sine the whole-array battery peaked at 4.1 times U; over
    row blocks it holds a few blocks of BLOCK_ELEMENTS elements.  A short run
    goes first, so that imports made on a first call are not counted."""
    cfg = load_config(CONFIGS / "dirichlet_sine.yaml")
    battery_peak_bytes(simulate(dataclasses.replace(cfg, T=cfg.T / 50)))
    traj = simulate(cfg)
    assert traj.U.nbytes >= 8e6
    peak = battery_peak_bytes(traj)
    assert peak < 0.25 * traj.U.nbytes, peak / traj.U.nbytes
