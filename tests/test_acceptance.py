"""Acceptance suite: the ten exit criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np

import dampedwave as dw
from dampedwave.energy import energy, energy_inequality_verdict, energy_series
from dampedwave.graphs import (
    RegularizedPotential,
    eval_j,
    family_graph,
    indicator_graph,
    logarithmic_graph,
)
from dampedwave.toy import exact_family_toy, yosida_layer_toy
from dampedwave.weaklimit import (
    SpaceProfile,
    TestFunction,
    TimeProfile,
    default_dictionary,
    detect_jumps,
    subdifferential_check,
    weak_residual,
)
from tests.conftest import toy_config, transforms
from tests.oracles import (
    energy_equality_residual,
    limit_toy_solution,
    static_boundary_example,
    toy_weak_identity_residual,
    window_mass,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d} ({name}) {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_toy_jump_reproduction():
    eps = 1e-6
    se = math.sqrt(eps)
    t0 = time.perf_counter()
    cfg = toy_config(eps, T=2.0, dt_divisor=100.0)
    traj = dw.simulate(cfg)
    events = detect_jumps(traj)
    elapsed = time.perf_counter() - t0

    ok = len(events) == 1
    detail = f"n_events={len(events)}"
    if ok:
        ev = events[0]
        checks = {
            "t": abs(ev.t - 1.0) <= 5 * se,
            "v_before": abs(ev.v_before[0] - 1.0) <= 1e-3,
            "v_after": abs(ev.v_after[0] + 1.0) <= 1e-3,
            "mass": abs(traj.reaction_l1 - 2.0) <= 0.05,
            "concentrated": abs(window_mass(traj, 1.0, 8 * se) - traj.reaction_l1) <= 1e-9,
            "runtime": elapsed < 10.0,
        }
        # oracle independently verified by dt/10 re-integration on the layer window
        fine = dw.SimConfig(
            n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=eps,
            T=0.1, dt=cfg.dt / 10.0, theta=0.5, u0="constant:0.95",
            u1="constant:1", regularize_u0=False,
        )
        ft = dw.simulate(fine)
        worst = 0.0
        for i in range(0, len(ft.times), 100):
            uo, vo = yosida_layer_toy(eps, 0.95 + float(ft.times[i]))
            worst = max(worst, abs(uo - ft.U[i, 0]), abs(vo - ft.V[i, 0]))
        checks["oracle_reverified"] = worst <= 5 * fine.dt
        ok = all(checks.values())
        detail = (f"t={ev.t:.6f} v=({ev.v_before[0]:+.5f},{ev.v_after[0]:+.5f}) "
                  f"mass={traj.reaction_l1:.5f} runtime={elapsed:.2f}s "
                  f"oracle_dev={worst:.2e} checks={checks}")
    report(1, "toy jump reproduction", ok, detail)


def test_criterion_02_reported_formula_checks(rng):
    ok_j = True
    for eps in (0.1, 0.01, 0.001):
        rt = 1.0 - eps * math.pi
        val = dw.family_j(rt, eps, 1.0)
        ok_j &= abs(val - math.pi ** 2 / 2) <= 1e-12 * math.pi ** 2 / 2
    ok_v = True
    worst = 0.0
    eps = 1e-3
    for rt in rng.uniform(1.0 - eps * math.pi, 1.0, 20):
        _, v = exact_family_toy(rt, eps, 1.0)
        err = abs(v - math.cos((1.0 - rt) / eps))
        worst = max(worst, err)
        ok_v &= err <= 1e-12
    report(2, "wall potential and impact-velocity formulas", ok_j and ok_v,
           f"peak-potential ok={ok_j}, velocity worst err={worst:.2e}")


def test_criterion_03_energy_equality_order():
    t0 = time.perf_counter()
    residuals = []
    e0 = None
    for dt in (4e-4, 2e-4, 1e-4):
        cfg = dw.SimConfig(
            length=1.0, n_nodes=256, bc="dirichlet", graph_kind="indicator",
            epsilon=1e-3, T=0.5, dt=dt, theta=1.0, u0="sine:1:0.5", u1="zero",
        )
        traj = dw.simulate(cfg)
        residuals.append(energy_equality_residual(traj, 0.0, 0.5))
        if e0 is None:
            e0 = float(energy_series(traj)["total"][0])
    elapsed = time.perf_counter() - t0
    # least-squares slope of log(residual) vs log(dt)
    x = np.log([4e-4, 2e-4, 1e-4])
    y = np.log(residuals)
    order = float(np.polyfit(x, y, 1)[0])
    ok = order >= 0.9 and residuals[-1] <= 1e-3 * e0 and elapsed < 60.0
    report(3, "energy equality residual order", ok,
           f"order={order:.3f} residuals={[f'{r:.2e}' for r in residuals]} "
           f"E0={e0:.4f} runtime={elapsed:.1f}s")


def test_criterion_04_energy_inequality_limit_candidate(toy_sweep):
    finest = toy_sweep.eps_list[-1]
    traj = toy_sweep.trajectories[finest]
    tol = 10.0 * (traj.dt + finest)
    rep = energy_inequality_verdict(traj, energy_series(traj))
    assert rep["tol"] == tol
    grid, reaction = traj.grid, traj.reaction
    i_b = int(np.argmin(np.abs(traj.times - 0.5)))
    i_a = int(np.argmin(np.abs(traj.times - 1.5)))
    e_b = energy(grid, traj.U[i_b], traj.V[i_b], reaction).total
    e_a = energy(grid, traj.U[i_a], traj.V[i_a], reaction).total
    elastic = abs(e_a - e_b) <= tol
    ok = rep["passed"] and elastic
    report(4, "energy inequality of the limit candidate", ok,
           f"worst slack over every pair={rep['worst_slack']:.2e} (tol {tol:.2e}), "
           f"|dE across jump|={abs(e_a - e_b):.2e} elastic={elastic}")


def test_criterion_05_uniform_bounds_audit(toy_sweep, contact_sweep):
    lines = []
    ok = True
    for name, rep in (("toy", toy_sweep), ("1d", contact_sweep)):
        ok &= all(r <= 10.0 for r in rep.ratios.values())
        lines.append(f"{name}:" + ",".join(f"{k}={v:.2f}" for k, v in rep.ratios.items()))
    report(5, "uniform bounds across the sweep", ok, " | ".join(lines))


def test_criterion_06_constraint_satisfaction(toy_sweep, contact_sweep):
    worst = []
    ok = True
    for rep in (toy_sweep, contact_sweep):
        for s in rep.summaries:
            ok &= s.overshoot_ok
            worst.append(f"{s.overshoot:.2e}<={s.overshoot_bound:.2e}")
    report(6, "overshoot bound in every sweep run", ok, " ".join(worst))


def test_criterion_07_weak_constraint_inequality(toy_jump_run, pressed_run):
    rep_toy = subdifferential_check(toy_jump_run)
    rep_pr = subdifferential_check(pressed_run)
    slacks = static_boundary_example(
        0.5, [lambda x: x, lambda x: np.tanh(x), lambda x: 0 * x - 0.2]
    )
    static_ok = all(s >= 0.0 for s in slacks)
    ok = rep_toy["passed"] and rep_pr["passed"] and static_ok
    report(7, "weak-constraint subdifferential inequality", ok,
           f"toy worst={rep_toy['worst_slack']:.2e} pressed worst={rep_pr['worst_slack']:.2e} "
           f"static min={min(slacks):.2e}")


def test_criterion_08_weak_form_residual():
    ok = True
    details = []
    # toy refinement pair
    eps = 1e-4
    worst = {}
    for divisor in (25.0, 50.0):
        cfg = toy_config(eps, T=2.0, dt_divisor=divisor)
        traj = dw.simulate(cfg)
        worst[cfg.dt] = max(weak_residual(traj, default_dictionary(traj.grid, 2.0), 2.0))
    dts = sorted(worst, reverse=True)
    c_fit = worst[dts[0]] / dts[0]
    ok &= worst[dts[1]] <= 1.25 * c_fit * dts[1]
    details.append(f"toy C={c_fit:.3f} residuals={[f'{worst[d]:.2e}' for d in dts]}")
    # 1D Dirichlet refinement pair
    worst = {}
    for dt in (4e-4, 2e-4):
        cfg = dw.SimConfig(
            length=1.0, n_nodes=63, bc="dirichlet", graph_kind="indicator",
            epsilon=1e-3, T=0.2, dt=dt, theta=1.0, u0="sine:1:0.5", u1="zero",
        )
        traj = dw.simulate(cfg)
        worst[dt] = max(weak_residual(traj, default_dictionary(traj.grid, 0.2), 0.2))
    c_fit = worst[4e-4] / 4e-4
    ok &= worst[2e-4] <= 1.25 * c_fit * 2e-4
    details.append(f"1d C={c_fit:.3f}")
    # exact toy identity with oracle atoms
    T = 2.5
    sol = limit_toy_solution(0.0, 1.0, -1.0, T)
    sp = SpaceProfile("one", 1.0)
    worst_id = max(
        toy_weak_identity_residual(sol, TestFunction(tp, sp), T)
        for tp in (
            TimeProfile("one", T), TimeProfile("linear", T), TimeProfile("reverse", T),
            TimeProfile("hat", T, center=1.0, halfwidth=0.8),
        )
    )
    ok &= worst_id <= 1e-12
    details.append(f"oracle identity={worst_id:.2e}")
    report(8, "weak-form residual budget", ok, " | ".join(details))


def _brute_moreau(graph, eps, r):
    """Three-stage dense-grid minimization of j(s) + (r-s)^2/(2 eps)."""
    if graph.kind.value == "family":
        lo = min(r, -graph.r_threshold) - 0.5
        hi = max(r, graph.r_threshold) + 0.5
    else:
        lo, hi = -1.0, 1.0
    for n in (4000, 1500, 1500):
        s = np.linspace(lo, hi, n)
        vals = np.asarray(eval_j(graph, s), dtype=float) + (r - s) ** 2 / (2 * eps)
        k = int(np.argmin(vals))
        lo, hi = s[max(k - 1, 0)], s[min(k + 1, n - 1)]
    return float(vals[k])


def test_criterion_09_convex_analysis_oracle():
    rng = np.random.default_rng(99)
    graphs = (indicator_graph(), logarithmic_graph(), family_graph(0.7, 0.3))
    t0 = time.perf_counter()
    worst_m = 0.0
    for graph in graphs:
        for eps in (1.0, 0.1, 0.01):
            pot = RegularizedPotential(graph, eps)
            rs = rng.uniform(-3.0, 3.0, 1000)
            mo = np.asarray(transforms(graph).moreau(pot, rs))
            for r, m in zip(rs, mo):
                worst_m = max(worst_m, abs(m - _brute_moreau(graph, eps, float(r))))
    ok_m = worst_m <= 1e-8
    h = 1e-5
    worst_fd = 0.0
    for graph in graphs:
        kink = 0.7 if graph.kind.value == "family" else 1.0
        pts = np.linspace(-2.8, 2.8, 230)
        pts = pts[np.abs(np.abs(pts) - kink) > 0.02][:200]
        assert len(pts) == 200
        for eps in (1.0, 0.1, 0.01):
            pot, tf = RegularizedPotential(graph, eps), transforms(graph)
            fd = (np.asarray(tf.moreau(pot, pts + h)) - np.asarray(tf.moreau(pot, pts - h))) / (2 * h)
            yo = np.asarray(tf.yosida(pot, pts))
            worst_fd = max(worst_fd, float(np.max(np.abs(fd - yo) / (1.0 + np.abs(yo)))))
    ok_fd = worst_fd <= 1e-6
    report(9, "envelope/approximant oracle equivalence", ok_m and ok_fd,
           f"moreau worst={worst_m:.2e} fd worst={worst_fd:.2e} "
           f"runtime={time.perf_counter() - t0:.1f}s")


def test_criterion_10_nonuniqueness_exhibit():
    ex = dw.nonuniqueness_exhibit(epsilon=1e-3)
    ok = ex["distinct"] and ex["both_admissible"]
    report(10, "approximation-dependent jump exhibit", ok,
           f"v_yosida(1)={ex['runs']['yosida']['v_at_1']:.4f} "
           f"v_family(1)={ex['runs']['family']['v_at_1']:.4f} "
           f"gap={ex['velocity_gap']:.3f} admissible={ex['both_admissible']}")
