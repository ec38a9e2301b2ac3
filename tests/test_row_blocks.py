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
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from dampedwave import cli, integrator
from dampedwave.cli import WEAK_C, _jumps_payload, _standard_checks
from dampedwave.config import SimConfig, load_config
from dampedwave.energy import energy_series
from dampedwave.grid import apply_A, edge_inner
from dampedwave.integrator import Trajectory, row_blocks, simulate
from dampedwave.sweep import summarize_run
from dampedwave.weaklimit import (
    SeparableCandidate,
    SpaceProfile,
    XiMeasure,
    _max_abs,
    _pair_xi,
    accumulate_xi,
    detect_jumps,
    iter_random_candidates,
    singular_support_check,
    solution_identity_residual,
    subdifferential_check,
)

from tests.oracles import xi_masses

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
        float(np.sum(xi_masses(xi)[ks:kt] * u_th)),
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
    masses = xi_masses(xi)
    sig = np.abs(masses) > threshold
    if not np.any(sig):
        return 0, 0.0, 0, 0
    mis = 1.0 - np.sign(masses[sig]) * u_th[sig]
    return (
        int(np.sum(sig)),
        float(np.max(mis)),
        int(np.sum(masses[sig] > 0)),
        int(np.sum(masses[sig] < 0)),
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
    """Blocks of 7 elements have the fewest rows a block takes, GEMV_ROWS;
    blocks of 2**16 elements twice the default's rows on a grid and on one
    node; every value stays the default's."""
    traj = simulate(load_config(CONFIGS / f"{name}.yaml"))
    xi, es = accumulate_xi(traj), energy_series(traj)
    default = battery(traj, xi, es)
    for block in (7, 1 << 16):
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
    thresholds.append(float(np.quantile(np.abs(xi_masses(xi)), 0.9)))
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
    assert summ.l1_mass == float(np.sum(np.abs(xi_masses(xi))))


def test_total_l1_is_the_whole_array_sum_bit_for_bit(monkeypatch):
    """``XiMeasure.total_l1`` is ``np.sum(np.abs((dt * records) * weights))``
    bit for bit: a sum in another order differs in its last bits on about
    half of these draws, so four draws a shape catch a wrong split, and a
    weight taken for the wrong cell changes the sum."""
    rng = np.random.default_rng(11)
    shapes = [(0, 3), (1, 1), (7, 3), (129, 1), (1000, 65), (1001, 65), (5001, 256), (130_001, 1)]
    for n_t, n_x in shapes:
        for _ in range(4):
            records, weights = rng.uniform(-1.0, 1.0, (n_t, n_x)), rng.uniform(0.5, 1.5, n_x)
            dt = float(rng.uniform(1e-3, 1e-2))
            xi = XiMeasure(np.arange(n_t + 1.0), np.arange(n_x + 0.0), records, 0.5, 1e-2, dt, weights)
            want = float(np.sum(np.abs((dt * records) * weights)))
            for block in (7, 100, 1 << 16):
                monkeypatch.setattr(integrator, "BLOCK_ELEMENTS", block)
                got = xi.total_l1
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (n_t, n_x, block)


# ---------------------------------------------------------------------------
# matrix-vector products over row blocks

# OpenBLAS splits a large dgemv between its threads at a row that need not be
# a multiple of GEMV_ROWS, so the whole-array bits can depend on the thread
# count; the oracle is the whole-array product on one thread, in a child
WHOLE_PRODUCTS = """
import sys
import numpy as np
with np.load(sys.argv[1]) as d:
    n = len(d.files) // 2
    np.savez(sys.argv[2], *[d[f"M{i}"] @ d[f"s{i}"] for i in range(n)])
"""

N_X = (1, 3, 33, 65, 256)


def whole_array_products(tmp_path, pairs):
    """``[M @ s for M, s in pairs]``, each taken whole in an interpreter on one BLAS thread."""
    src, dst = tmp_path / "pairs.npz", tmp_path / "products.npz"
    np.savez(src, **{f"{k}{i}": a for i, pair in enumerate(pairs) for k, a in zip("Ms", pair)})
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-c", WHOLE_PRODUCTS, src, dst], env=env, check=True)
    with np.load(dst) as d:
        return [d[f"arr_{i}"] for i in range(len(pairs))]


def product_run(n_x):
    """A run of random states and reaction records on ``n_x`` nodes, with a
    partial last row block at the default block size and at 64 rows."""
    n_t = 2 * (integrator.BLOCK_ELEMENTS // n_x) + 37
    rng = np.random.default_rng(n_x)
    cfg = SimConfig(n_nodes=n_x, bc="neumann", graph_kind="indicator", epsilon=1e-2,
                    T=(n_t - 1) * 1e-3, dt=1e-3, lam=0.5, u0="zero", u1="zero")
    U, V = rng.uniform(-1.5, 1.5, (2, n_t, n_x))
    B = rng.uniform(-2.0, 2.0, (n_t - 1, n_x))
    zeros = np.zeros(n_t - 1)
    return Trajectory(cfg, cfg.dt * np.arange(n_t), U, V, B, zeros, zeros, zeros.astype(int))


@pytest.fixture(scope="module")
def product_cases(tmp_path_factory):
    """Per n_x: the run, its measure, a spatial factor and a candidate, and the
    whole-array products that the row-block code replaced."""
    cases, pairs = [], []
    for n_x in N_X:
        traj = product_run(n_x)
        xi, w = accumulate_xi(traj), traj.grid.mass_weights
        masses = xi_masses(xi)
        space = SpaceProfile("cos", traj.grid.length, k=1)
        S = space.value(traj.grid.x)
        n_end = traj.n_steps - 5
        rng = np.random.default_rng(n_x + 1)
        candidate = SeparableCandidate(rng.uniform(-1, 1, traj.n_steps), rng.uniform(-1, 1, n_x))
        cases.append((traj, xi, space, n_end, candidate))
        pairs += [
            (traj.V * traj.V, w), (traj.reaction.pot(traj.U), w), (traj.U * traj.U, w),
            (masses[:n_end], S), (masses, candidate.sigma),
        ]
    products = whole_array_products(tmp_path_factory.mktemp("products"), pairs)
    return [(*case, products[5 * i : 5 * i + 5]) for i, case in enumerate(cases)]


@pytest.mark.parametrize("block", [None, 7, 100])
def test_row_block_products_are_the_whole_array_products(product_cases, block, monkeypatch):
    """Each ``@`` that moved to row blocks of a multiple of GEMV_ROWS rows has
    the bits of the whole-array product, at the default block size and at the
    small ones of the battery's block-size test."""
    if block is not None:
        monkeypatch.setattr(integrator, "BLOCK_ELEMENTS", block)
    for traj, xi, space, n_end, candidate, whole in product_cases:
        rows = [b.stop - b.start for b in row_blocks(*traj.U.shape)]
        assert len(rows) > 1 and rows[-1] < rows[0] and rows[0] % integrator.GEMV_ROWS == 0
        vv, pot, uu, xi_S, xi_sigma = whole
        es = energy_series(traj)
        assert es["kinetic"].tobytes() == (0.5 * vv).tobytes()
        assert es["potential"].tobytes() == pot.tobytes()
        assert es["concave"].tobytes() == (-0.5 * traj.cfg.lam * uu).tobytes()
        assert _pair_xi(xi, [space], n_end)[0].tobytes() == xi_S.tobytes()
        # the candidate pairs as tau @ (masses @ sigma); J(v) = J(u) = 0
        xi_u = float(np.sum(np.vecdot(xi_masses(xi), traj.theta_combine(traj.U))))
        slack = 0.0 - 0.0 - (float(candidate.tau @ xi_sigma) - xi_u)
        rep = subdifferential_check(traj, xi, [candidate, candidate])
        assert [e.slack for e in rep.entries] == [slack, slack]


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
    assert c.rows(slice(None)).tobytes() == v.tobytes()
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


def command_peaks(config: Path, out: Path, monkeypatch) -> tuple:
    """The tracemalloc peaks of ``cmd_simulate`` after its run is integrated
    and of ``cmd_verify`` after ``read_run_npz``, and the size of the run's U.
    Each command must run to its verdicts (exit 0 or 1)."""
    peaks, sizes = [], []

    def traced(fn):
        def wrapper(*args):
            traj = fn(*args)
            sizes.append(traj.U.nbytes)
            tracemalloc.start()
            return traj
        return wrapper

    monkeypatch.setattr(cli, "simulate", traced(simulate))
    monkeypatch.setattr(cli, "read_run_npz", traced(cli.read_run_npz))
    for command in (lambda: cli.cmd_simulate(str(config), str(out)), lambda: cli.cmd_verify(str(out))):
        try:
            assert command() in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks, sizes[0]


# (config, dt divisor, bound in units of U): dirichlet_sine's 256 nodes make a
# per-step vector 1/256 of U; on neumann_contact at a tenth of its dt (20,000
# steps x 65 nodes) one is 1/65 of U and the battery holds a few dozen (the
# spatial pairings of one spatial factor of its test functions, and the
# candidates' factors tau), so its bound is looser, and it still fails on
# any one array the size of the run
COMMAND_RUNS = [("dirichlet_sine", 1, 0.25), ("neumann_contact", 10, 0.75)]


@pytest.mark.parametrize("name, dt_div, bound", COMMAND_RUNS, ids=[r[0] for r in COMMAND_RUNS])
def test_commands_build_no_run_sized_array(name, dt_div, bound, tmp_path, monkeypatch, capsys):
    """Everything simulate does after integration (the measure, the energy
    series, run.npz, the artifacts, the checks, the verdicts and the
    manifest) and everything verify does after reading run.npz stays under
    ``bound`` times U; at the parent, which copied the masses, built the
    energy series whole and wrote run.npz through ``np.savez``, both
    commands peaked at more than U.  A short run goes first, so that imports
    made on a first call are not counted."""
    doc = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    doc["time"]["dt"] /= dt_div
    configs = []
    for label, T_div in (("short", 50), ("run", 1)):
        run_doc = {**doc, "time": {**doc["time"], "T": doc["time"]["T"] / T_div}}
        configs.append(tmp_path / f"{label}.yaml")
        configs[-1].write_text(yaml.safe_dump(run_doc))
    command_peaks(configs[0], tmp_path / "short", monkeypatch)
    peaks, u_bytes = command_peaks(configs[1], tmp_path / "run", monkeypatch)
    assert u_bytes >= 8e6
    for command, peak in zip(("simulate", "verify"), peaks):
        assert peak < bound * u_bytes, (command, peak / u_bytes)
