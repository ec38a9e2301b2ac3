"""The check battery over row blocks: the same values at any block size, the
whole-array formulas it replaced as oracles, and its memory.

The battery reduces per-step and per-record values computed over row blocks
of ``integrator.BLOCK_ELEMENTS`` elements (``Trajectory.step_values``,
``map_blocks``), so it builds no array the size of the run.  The oracles
below are those whole-array formulas, kept as they were before the battery
streamed.
"""

import collections
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import types
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
from dampedwave.sweep import overshoot, summarize_run
from dampedwave.weaklimit import (
    SpaceProfile,
    _factor_pairings,
    accumulate_xi,
    default_dictionary,
    detect_jumps,
    singular_support_check,
    solution_identity_residual,
    subdifferential_check,
    weak_residual,
    window_profile,
)

from tests.oracles import candidate_slack, random_candidates, xi_masses

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# dirichlet_sine: 5000 steps x 256 nodes, U of 10.2 MB; pressed_wall: forced,
# on the wall; neumann_contact: unforced wall impact; toy_jump: one node
RUNS = ("dirichlet_sine", "pressed_wall", "neumann_contact", "toy_jump")


@pytest.fixture(scope="module", params=RUNS)
def run(request):
    traj = simulate(load_config(CONFIGS / f"{request.param}.yaml"))
    return traj, energy_series(traj)


# ---------------------------------------------------------------------------
# the whole-array formulas the battery replaced


def oracle_solution_identity(traj, s, t):
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
        float(np.sum(xi_masses(traj)[ks:kt] * u_th)),
        -lam * dt * float(np.sum((u_th * u_th) @ w)),
    ]
    if not grid.is_homogeneous:
        terms.append(dt * float(np.sum(edge_inner(grid, v_th, u_th) + edge_inner(grid, u_th, u_th))))
    g = traj.cfg.forcing_field(grid)
    if g is not None:
        g_th = traj.theta_combine(np.array([g, g]))
        terms.append(-dt * float(np.sum((g_th * u_th) @ w)))
    return abs(sum(terms)), sum(abs(x) for x in terms)


def oracle_support(traj, threshold):
    u_th = traj.theta_combine(traj.U)
    masses = xi_masses(traj)
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


def battery(traj, es):
    """Everything the battery computes from a run, in comparable form."""
    jumps = [(e.t, e.v_before.tobytes(), e.v_after.tobytes(), e.impulse) for e in detect_jumps(traj)]
    return _standard_checks(traj, es), summarize_run(traj, es), jumps, traj.reaction_l1


@pytest.mark.parametrize("name", ["dirichlet_sine", "pressed_wall", "toy_jump"])
def test_battery_does_not_depend_on_the_block_size(name, monkeypatch):
    """Blocks of 7 elements have the fewest rows a block takes, GEMV_ROWS;
    blocks of 2**16 elements twice the default's rows on a grid and on one
    node; every value stays the default's.  Each block size gets a fresh
    run (``dataclasses.replace``), as a run keeps its reaction mass once
    summed."""
    traj = simulate(load_config(CONFIGS / f"{name}.yaml"))
    es = energy_series(traj)
    default = battery(dataclasses.replace(traj), es)
    for block in (7, 1 << 16):
        monkeypatch.setattr(integrator, "BLOCK_ELEMENTS", block)
        assert battery(dataclasses.replace(traj), es) == default, block


def test_solution_identity_matches_the_whole_array_formula(run):
    """Within 1e-12 of the size of its terms: the residual is a small
    difference of terms of the size of the energy, so a term summed in
    another order moves it by a few ulps of those terms."""
    traj, es = run
    T = float(traj.times[-1])
    for s, t in ((0.0, T), (float(traj.times[3]), float(traj.times[-4]))):
        got = solution_identity_residual(traj, s, t)
        want, scale = oracle_solution_identity(traj, s, t)
        assert abs(got - want) <= 1e-12 * scale, (got, want, scale)
    e_max = float(np.max(es["total"]))
    budget = WEAK_C * traj.dt * (1.0 + T) * (1.0 + e_max)
    got = solution_identity_residual(traj, 0.0, T)
    assert (got <= budget) == (oracle_solution_identity(traj, 0.0, T)[0] <= budget)


def test_singular_support_matches_the_whole_array_formula(run):
    """Counts and the largest misalignment are exact in any block."""
    traj, _ = run
    thresholds = [0.01 * max(traj.reaction_l1, 1e-30) / traj.n_steps, 0.0, np.inf]
    thresholds.append(float(np.quantile(np.abs(xi_masses(traj)), 0.9)))
    for thr in thresholds:
        rep = singular_support_check(traj, thr)
        got = (rep.n_significant, rep.max_misalignment, rep.positive_cells, rep.negative_cells)
        assert got == oracle_support(traj, thr)


def test_summarize_run_matches_the_whole_array_formulas(run):
    traj, es = run
    summ = summarize_run(traj, es)
    want = oracle_summary(traj)
    for field in ("sup_v", "bv_proxy", "sup_Au", "h1_time_v"):
        assert_rel(getattr(summ, field), want[field])
    assert summ.overshoot == overshoot(traj) == want["overshoot"]
    assert summ.l1_mass == float(np.sum(np.abs(xi_masses(traj))))


def test_total_l1_is_the_whole_array_sum_bit_for_bit(monkeypatch):
    """``Trajectory.reaction_l1`` is ``np.sum(np.abs((dt * records) * weights))``
    bit for bit: a sum in another order differs in its last bits on about
    half of these draws, so four draws a shape catch a wrong split, and a
    weight taken for the wrong cell changes the sum.  The runs hold random
    reaction records, and their grids random mass weights; each block size
    gets a new run, as a run keeps its sum."""
    rng = np.random.default_rng(11)
    shapes = [(0, 3), (1, 1), (7, 3), (129, 1), (1000, 65), (1001, 65), (5001, 256), (130_001, 1)]
    for n_t, n_x in shapes:
        for _ in range(4):
            records, weights = rng.uniform(-1.0, 1.0, (n_t, n_x)), rng.uniform(0.5, 1.5, n_x)
            dt = float(rng.uniform(1e-3, 1e-2))
            want = float(np.sum(np.abs((dt * records) * weights)))
            for block in (7, 100, 1 << 16):
                monkeypatch.setattr(integrator, "BLOCK_ELEMENTS", block)
                traj = Trajectory(SimConfig(n_nodes=n_x, dt=dt), np.arange(n_t + 1.0), None, None,
                                  records, None, None, None)
                traj.grid = types.SimpleNamespace(mass_weights=weights)  # over the cached grid
                got = traj.reaction_l1
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
    """Per n_x: the run and a spatial factor, and the whole-array products
    that the row-block code replaced."""
    cases, pairs = [], []
    for n_x in N_X:
        traj = product_run(n_x)
        w = traj.grid.mass_weights
        masses = xi_masses(traj)
        space = SpaceProfile("cos", traj.grid.length, k=1)
        S = space.value(traj.grid.x)
        n_end = traj.n_steps - 5
        cases.append((traj, space, n_end))
        pairs += [
            (traj.V * traj.V, w), (traj.reaction.pot(traj.U), w), (traj.U * traj.U, w),
            (masses[:n_end], S), (traj.V[: n_end + 1], w * S), (traj.U[: n_end + 1], w * S),
        ]
    products = whole_array_products(tmp_path_factory.mktemp("products"), pairs)
    return [(*case, products[6 * i : 6 * i + 6]) for i, case in enumerate(cases)]


@pytest.mark.parametrize("block", [None, 7, 100])
def test_row_block_products_are_the_whole_array_products(product_cases, block, monkeypatch):
    """Each ``@`` that moved to row blocks of a multiple of GEMV_ROWS rows has
    the bits of the whole-array product, at the default block size and at the
    small ones of the battery's block-size test."""
    if block is not None:
        monkeypatch.setattr(integrator, "BLOCK_ELEMENTS", block)
    for traj, space, n_end, whole in product_cases:
        rows = [b.stop - b.start for b in row_blocks(*traj.U.shape)]
        assert len(rows) > 1 and rows[-1] < rows[0] and rows[0] % integrator.GEMV_ROWS == 0
        vv, pot, uu, xi_S, v_S, u_S = whole
        es = energy_series(traj)
        assert es["kinetic"].tobytes() == (0.5 * vv).tobytes()
        assert es["potential"].tobytes() == pot.tobytes()
        assert es["concave"].tobytes() == (-0.5 * traj.cfg.lam * uu).tobytes()
        # the weak residual's pass over records 0 to n_end: masses @ S and the
        # theta-combined V @ (w S) and U @ (w S)
        got = _factor_pairings(traj, space.value(traj.grid.x), n_end)
        assert got[0].tobytes() == xi_S.tobytes()
        assert got[1].tobytes() == traj.theta_combine(v_S).tobytes()
        assert got[2].tobytes() == traj.theta_combine(u_S).tobytes()
        # the Fenchel-Young slack <xi, u> - ||xi||_1 of the indicator: row-wise
        # pairings summed whole, and the whole-array sum of |masses|
        xi_u = float(np.sum(np.vecdot(xi_masses(traj), traj.theta_combine(traj.U))))
        slack = xi_u - float(np.sum(np.abs(xi_masses(traj))))
        assert subdifferential_check(dataclasses.replace(traj))["worst_slack"] == slack


# ---------------------------------------------------------------------------
# drawn candidates


def test_random_candidates_are_factored(run):
    """The reference drawer gives separable candidates tau (x) sigma of the
    run's (steps, nodes) shape in [-1, 1], and no slack of one is below the
    exact slack, the infimum over every admissible candidate."""
    traj, _ = run
    worst = subdifferential_check(traj)["worst_slack"]
    for tau, sigma in random_candidates(traj, 5, np.random.default_rng(2)):
        assert (len(tau), len(sigma)) == (traj.n_steps, traj.grid.n_nodes)
        assert max(np.max(np.abs(tau)), np.max(np.abs(sigma))) <= 1.0
        assert worst <= candidate_slack(traj, np.outer(tau, sigma))


# ---------------------------------------------------------------------------
# memory


def battery_peak_bytes(traj):
    """The tracemalloc peak of the battery and the jump report, above the
    run and its energy series."""
    es = energy_series(traj)
    traj.grid, traj.reaction, traj.forcing  # noqa: B018 - cached inputs, not the battery's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _jumps_payload(traj)
        _standard_checks(traj, es)
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


def test_trajectory_csv_streams_its_reaction_column():
    """``simulate --csv`` forms the reaction column per row block as it
    writes the rows: on dirichlet_sine the renderer's peak stays under a
    quarter of U, where a reaction array of the whole run put it at 1.08 U.
    A short run goes first, so that imports made on a first call are not
    counted."""
    cfg = load_config(CONFIGS / "dirichlet_sine.yaml")
    for traj in (simulate(dataclasses.replace(cfg, T=cfg.T / 50)), simulate(cfg)):
        traj.grid, traj.reaction  # noqa: B018 - cached inputs, not the renderer's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli._render_trajectory_csv(lambda text: None, traj)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert traj.U.nbytes >= 8e6
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
# spatial pairings of one spatial factor of its test functions), so its bound
# is looser, and it still fails on any one array the size of the run
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


def test_map_blocks_keeps_every_bit(monkeypatch):
    """``map_blocks`` starts zeroed and writes only values that are not +0.0,
    yet gives the stacked values bit for bit: a -0.0, a NaN and a +0.0 row
    among values, over several blocks."""
    monkeypatch.setattr(integrator, "BLOCK_ELEMENTS", 64 * 3)
    M = np.zeros((300, 3))
    M[5] = [-0.0, 1.5, math.nan]
    M[130, 2] = -0.0
    M[299] = [-1e-300, 0.0, math.inf]
    blocks = integrator.map_blocks(*M.shape, lambda rows: M[rows] * 1.0)
    assert blocks.tobytes() == M.tobytes()


# the growth of the peak resident set over one command's call, in units of
# its run's U, in a fresh interpreter: ``simulate`` of the config, then, in a
# second one, ``read_run_npz`` of the run.npz the first wrote; each calls the
# same on a run of T/50 first, so that imports and first-call caches are not
# counted.  The peak is the interpreter's own VmHWM: its ru_maxrss starts at
# the resident set of the process that launched it (Linux keeps the larger of
# the two across exec), which under pytest hides the growth
RESIDENT_GROWTH = """
import dataclasses, re, sys
from pathlib import Path
from dampedwave.cli import read_run_npz, write_run_npz
from dampedwave.config import load_config
from dampedwave.integrator import simulate

def peak():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))

command, cfg, out = sys.argv[1], load_config(sys.argv[2]), Path(sys.argv[3])
short = dataclasses.replace(cfg, T=cfg.T / 50)
if command == "simulate":
    write_run_npz(out / "short.npz", simulate(short))
    before = peak()
    traj = simulate(cfg)
    grown = peak() - before
    write_run_npz(out / "run.npz", traj)
else:
    read_run_npz(out / "short.npz", short)
    before = peak()
    traj = read_run_npz(out / "run.npz", cfg)
    grown = peak() - before
print(1024 * grown / traj.U.nbytes)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's /proc/self/status")
def test_zero_reaction_rows_are_not_resident(tmp_path):
    """dirichlet_sine never leaves the dead zone, so every reaction row is
    +0.0: its zeroed (mmapped) reaction array is never written, and neither
    ``simulate`` nor ``read_run_npz`` makes it resident.  Each grows the peak
    resident set by about 2.05 U (U, V and block temporaries), against 3.05 U
    when every row was written; the bound is between the two."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for command in ("simulate", "read_run_npz"):
        proc = subprocess.run(
            [sys.executable, "-c", RESIDENT_GROWTH, command, str(CONFIGS / "dirichlet_sine.yaml"), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        growth = float(proc.stdout.split()[-1])
        assert growth < 2.5, (command, growth)


# ---------------------------------------------------------------------------
# passes over the run


@pytest.fixture()
def passes(monkeypatch):
    """Counts of the passes over a run: the calls of ``integrator.row_blocks``
    and ``integrator.pairwise_pieces``, wrapped in every package module that
    binds them."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in ("row_blocks", "pairwise_pieces"):
        fn = getattr(integrator, name)
        wrapped = counted(name, fn)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("dampedwave") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapped)
    return counts


def count_passes(passes, fn) -> tuple:
    """(row-block passes, pairwise sums) that ``fn()`` makes."""
    passes.clear()
    fn()
    return passes["row_blocks"], passes["pairwise_pieces"]


def test_each_check_reads_the_run_once(run, passes):
    """Each check reads the run's states and records in one pass; the weak
    residual in one per distinct spatial factor of its functions.  The
    reaction mass is summed once per run, by ``pairwise_pieces``; the
    summary and the subdifferential check are taken on a fresh run
    (``dataclasses.replace``), which has not summed it."""
    traj, es = run
    T = float(traj.times[-1])
    phis = default_dictionary(traj.grid, T)
    fresh = dataclasses.replace(traj)
    assert count_passes(passes, lambda: summarize_run(fresh, es)) == (1, 1)
    assert count_passes(passes, lambda: fresh.reaction_l1) == (0, 0)
    assert count_passes(passes, lambda: summarize_run(fresh, es)) == (1, 0)
    assert count_passes(passes, lambda: overshoot(traj)) == (1, 0)
    assert count_passes(passes, lambda: weak_residual(traj, phis, T)) == (len({p.space for p in phis}), 0)
    assert count_passes(passes, lambda: subdifferential_check(dataclasses.replace(traj))) == (1, 1)
    assert count_passes(passes, lambda: singular_support_check(traj, 0.0)) == (1, 0)
    assert count_passes(passes, lambda: solution_identity_residual(traj, 0.0, T)) == (1, 0)
    assert count_passes(passes, lambda: detect_jumps(traj)) == (1, 0)
    assert count_passes(passes, lambda: window_profile(traj, T / 2, traj.dt)) == (1, 0)
    assert count_passes(passes, lambda: accumulate_xi(traj, min(256, traj.n_steps))) == (1, 0)


def test_commands_read_the_run_at_most_twelve_times(tmp_path, monkeypatch, passes, capsys):
    """After its run is integrated, ``simulate`` on dirichlet_sine makes 10
    row-block passes and sums the reaction mass once; so does ``verify``
    after reading run.npz.  Before each check read the run once, each made
    16 passes and summed the mass twice: ``summarize_run`` took 5 passes,
    the weak residual 4, and the summary and the battery each summed the
    mass."""
    made = []

    def counted(fn):
        def wrapper(*args):
            traj = fn(*args)
            passes.clear()
            return traj
        return wrapper

    monkeypatch.setattr(cli, "simulate", counted(simulate))
    monkeypatch.setattr(cli, "read_run_npz", counted(cli.read_run_npz))
    out = str(tmp_path / "run")
    for command in (lambda: cli.cmd_simulate(str(CONFIGS / "dirichlet_sine.yaml"), out),
                    lambda: cli.cmd_verify(out)):
        assert command() == cli.EXIT_OK
        made.append(passes["row_blocks"] + passes["pairwise_pieces"])
    assert max(made) <= 12, made


def test_battery_runs_none_of_the_sweep_norms(run, monkeypatch):
    """The battery reads only what its verdicts use: the overshoot and its
    bound, the largest energy and the run's reaction mass.  It calls neither
    ``summarize_run``, whose other norms it would throw away, nor
    ``apply_A`` (sup ||A u|| applies it to every block of records)."""
    traj, es = run
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name, fn in (("summarize_run", summarize_run), ("apply_A", apply_A)):
        wrapped = counted(name, fn)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("dampedwave") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapped)
    _standard_checks(traj, es)
    assert not calls, calls
