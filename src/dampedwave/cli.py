"""Command-line entry point: simulate, sweep, toy, verify.

Every command owns one output directory and writes plain CSV/JSON
artifacts (no images): a run manifest listing every emitted file, the
trajectory, the energy ledger, the reaction-measure histogram, jump and
verdict reports.  Exit codes: 0 all checks pass, 1 a check failed,
2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import SimConfig, from_dict, load_config
from .energy import (
    dissipation_between,
    energy_inequality_verdict,
    energy_series,
)
from .errors import ConfigError, DampedWaveError, MissingArtifact, RunError
from .grid import edge_inner
from .integrator import Trajectory, map_row_blocks, simulate
from .sweep import epsilon_sweep, limsup_identity_audit, snap_dt, summarize_run
from .toy import phase_level_set, yosida_layer_toy
from .weaklimit import (
    accumulate_xi,
    default_dictionary,
    detect_jumps,
    iter_random_candidates,
    singular_support_check,
    solution_identity_residual,
    subdifferential_check,
    weak_residual,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

# verify-mode weak-residual budget: |residual| <= WEAK_C * dt * phi-scale
WEAK_C = 100.0


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_jsonable))


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Rows (t as %.12g, node, then u, v, beta_eps(u) as %.17g), CRLF as csv.writer ends them."""
    body = [f",{j},%.17g,%.17g,%.17g\r\n" for j in range(traj.grid.n_nodes)]
    B = map_row_blocks(traj.reaction.beta, traj.U)
    with open(path, "w", newline="") as fh:
        fh.write("t,node,u,v,beta_eps_u\r\n")
        for t, u, v, b in zip(traj.times, traj.U, traj.V, B):
            ts = f"{t:.12g}"
            fh.write((ts + ts.join(body)) % tuple(np.column_stack((u, v, b)).ravel().tolist()))


def read_trajectory_csv(path: Path, cfg: SimConfig) -> Trajectory:
    """Rebuild a trajectory from its CSV export (full resolution only)."""
    times, U, V = _parse_trajectory_csv(path, int(round(cfg.T / cfg.dt)) + 1, cfg.n_nodes)
    return _rebuild_diagnostics(cfg, times, U, V)


def _parse_trajectory_csv(path: Path, n_t: int, n_x: int):
    """Times and (n_t, n_x) U, V; MissingArtifact unless each (t, node) has one numeric row."""
    with open(path, newline="") as fh:
        if fh.readline().rstrip("\r\n").split(",")[:4] != ["t", "node", "u", "v"]:
            raise MissingArtifact(f"{path} is not a trajectory CSV")
        try:
            data = np.loadtxt(fh, delimiter=",", usecols=(0, 1, 2, 3), ndmin=2)
        except ValueError as exc:
            raise MissingArtifact(f"{path}: malformed row ({exc})") from exc
    n_nodes_seen = len(np.unique(data[:, 1]))
    if n_nodes_seen != n_x:
        raise MissingArtifact(f"{path} has {n_nodes_seen} nodes, the run has {n_x}")
    if len(data) != n_t * n_x:
        raise MissingArtifact(f"{path} has {len(data)} rows, the run needs {n_t * n_x}")
    order = np.lexsort((data[:, 1], data[:, 0]))
    t, nodes, U, V = (data[order, c].reshape(n_t, n_x) for c in range(4))
    times = t[:, 0].copy()
    if (
        np.any(nodes != np.arange(n_x))
        or np.any(t != times[:, None])
        or np.any(np.diff(times) <= 0.0)
    ):
        raise MissingArtifact(f"{path} has a missing or duplicate (t, node) pair")
    return times, U, V


def _rebuild_diagnostics(cfg: SimConfig, times, U, V) -> Trajectory:
    """Recompute per-step records from full-resolution states."""
    traj = Trajectory(cfg, times, U, V, times.copy(), None, None, None, None)
    n = traj.n_steps
    v_th = traj.theta_combine(V)
    g_th = traj.theta_forcing()
    traj.beta_theta = traj.theta_combine(map_row_blocks(traj.reaction.beta, U))
    traj.diss_incr = cfg.dt * edge_inner(traj.grid, v_th, v_th)
    if g_th is None:
        traj.power_incr = np.zeros(n)
    else:
        traj.power_incr = cfg.dt * ((g_th * v_th) @ traj.grid.mass_weights)
    traj.newton_iters = np.zeros(n, dtype=int)
    return traj


def write_energy_csv(path: Path, traj: Trajectory) -> None:
    es = energy_series(traj)
    diss_cum = np.concatenate([[0.0], np.cumsum(traj.diss_incr)])
    power_cum = np.concatenate([[0.0], np.cumsum(traj.power_incr)])
    steps = np.rint(np.asarray(traj.times) / traj.dt).astype(int)
    resid = np.abs(
        es["total"] + diss_cum[steps] - es["total"][0] - power_cum[steps]
    )
    resid[0] = 0.0
    columns = [es[c] for c in ("t", "kinetic", "gradient", "potential", "concave", "total")]
    _write_csv(
        path,
        "t,kinetic,gradient,potential,concave,total,dissipation_cum,equality_residual",
        ["%.12g"] + ["%.17g"] * 7,
        columns + [diss_cum[steps], resid],
    )


def write_xi_csv(path: Path, xi, n_bins: int = 256) -> None:
    coarse = xi.rebin(min(n_bins, xi.n_t))
    centers = 0.5 * (coarse.t_edges[:-1] + coarse.t_edges[1:])
    k, i = np.nonzero(coarse.masses)
    _write_csv(
        path, "t_bin,x_bin,mass", ["%.12g", "%.12g", "%.17g"],
        [centers[k], coarse.x[i], coarse.masses[k, i]],
    )


def _write_csv(path: Path, header: str, fmt, columns) -> None:
    """A header and one row per entry of the columns, CRLF-terminated as csv.writer does."""
    np.savetxt(
        path, np.column_stack(columns), fmt=fmt, delimiter=",", newline="\r\n",
        header=header, comments="",
    )


def _standard_checks(traj: Trajectory, xi, seed: int) -> dict:
    """The post-run verification battery; shapes the verdict summary.

    Checks that need the full step-resolution state history are simply
    omitted for strided runs: verdicts only come from executed checks.
    """
    rng = np.random.default_rng(seed)
    verdicts = {}

    n_rec = len(traj.times)
    n_pairs = min(20, n_rec - 1)
    s_idx = rng.integers(0, n_rec - 1, n_pairs)
    t_idx = rng.integers(1, n_rec, n_pairs)
    s_idx, t_idx = np.minimum(s_idx, t_idx - 1), np.maximum(t_idx, s_idx + 1)
    ineq = energy_inequality_verdict(traj, traj.times[s_idx], traj.times[t_idx])
    verdicts["energy_inequality"] = {
        "passed": ineq.all_pass,
        "worst_slack": ineq.worst_slack,
        "tol": ineq.tol,
    }

    summ = summarize_run(traj, xi)
    verdicts["overshoot"] = {
        "passed": summ.overshoot_ok,
        "overshoot": summ.overshoot,
        "bound": summ.overshoot_bound,
    }

    if not traj.full_resolution:
        return verdicts

    worst = 0.0
    for phi in default_dictionary(traj.grid, float(traj.step_edges[-1])):
        if not phi.admissible_for(traj.grid.bc):
            continue
        r = weak_residual(traj, xi, phi, float(traj.step_edges[-1]))
        scale = 1.0 + float(traj.step_edges[-1])
        worst = max(worst, r / scale)
    verdicts["weak_residual"] = {
        "passed": worst <= WEAK_C * traj.dt,
        "worst_scaled": worst,
        "budget": WEAK_C * traj.dt,
    }

    candidates = iter_random_candidates(traj, 20, rng)
    sub = subdifferential_check(traj, xi, candidates, tol=1e-6)
    verdicts["subdifferential"] = {
        "passed": sub.all_pass,
        "worst_slack": sub.worst_slack,
    }

    thr = 0.01 * max(xi.total_l1, 1e-30) / max(xi.n_t, 1)
    support = singular_support_check(xi, traj, thr)
    mis_budget = 5.0 * (traj.reaction.layer_width + traj.dt)
    verdicts["singular_support"] = {
        "passed": support.empty or support.max_misalignment <= mis_budget,
        "max_misalignment": support.max_misalignment,
        "n_significant": support.n_significant,
    }

    r_sol = solution_identity_residual(traj, xi, 0.0, float(traj.step_edges[-1]))
    scale = (1.0 + float(traj.step_edges[-1])) * (1.0 + summ.e_max)
    verdicts["solution_identity"] = {
        "passed": r_sol <= WEAK_C * traj.dt * scale,
        "residual": r_sol,
        "budget": WEAK_C * traj.dt * scale,
    }
    return verdicts


def _manifest(cfg_dict, out_dir: Path, files, verdicts) -> dict:
    import hashlib

    payload = json.dumps(cfg_dict, sort_keys=True).encode()
    return {
        "config_hash": hashlib.sha256(payload).hexdigest()[:16],
        "tool_version": __version__,
        "created": _now(),
        "config": cfg_dict,
        "files": sorted(str(f.name) for f in files),
        "verdicts": {k: v["passed"] for k, v in verdicts.items()},
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(config_path: str, out: str, seed: int = 0) -> int:
    cfg = load_config(config_path)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        traj = simulate(cfg)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    xi = accumulate_xi(traj, run_id=cfg.label)

    files = []
    p = out_dir / "trajectory.csv"
    write_trajectory_csv(p, traj)
    files.append(p)
    p = out_dir / "energy.csv"
    write_energy_csv(p, traj)
    files.append(p)
    p = out_dir / "xi.csv"
    write_xi_csv(p, xi)
    files.append(p)

    es = energy_series(traj)
    jumps = detect_jumps(traj)
    stride = max(1, len(es) // 200)
    summary = {
        "label": cfg.label,
        "T": cfg.T,
        "dt": cfg.dt,
        "epsilon": traj.reaction.epsilon,
        "energy_initial": float(es["total"][0]),
        "energy_final": float(es["total"][-1]),
        "energy_max": float(np.max(es["total"])),
        "energy_series": {
            "t": [float(v) for v in es["t"][::stride]],
            "total": [float(v) for v in es["total"][::stride]],
        },
        "dissipation_total": dissipation_between(traj, 0.0, float(traj.step_edges[-1])),
        "xi_total_l1": xi.total_l1,
        "newton_total_iters": int(np.sum(traj.newton_iters)),
        "newton_max_iters": int(np.max(traj.newton_iters, initial=0)),
        "n_steps": traj.n_steps,
    }
    p = out_dir / "summary.json"
    _write_json(p, summary)
    files.append(p)

    p = out_dir / "jumps.json"
    _write_json(
        p,
        [
            {
                "t": ev.t,
                "v_before_mean": float(np.mean(ev.v_before)),
                "v_after_mean": float(np.mean(ev.v_after)),
                "impulse": ev.impulse,
            }
            for ev in jumps
        ],
    )
    files.append(p)

    verdicts = _standard_checks(traj, xi, seed)
    p = out_dir / "verdicts.json"
    _write_json(p, verdicts)
    files.append(p)

    manifest = _manifest(cfg.to_dict(), out_dir, files, verdicts)
    _write_json(out_dir / "manifest.json", manifest)

    ok = all(v["passed"] for v in verdicts.values())
    for name, v in verdicts.items():
        print(f"{'PASS' if v['passed'] else 'FAIL'} {name}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_sweep(config_path: str, eps: str, out: str, seed: int = 0) -> int:
    cfg = load_config(config_path)
    try:
        eps_list = [float(v) for v in eps.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError("eps", f"cannot parse eps list {eps!r}") from exc
    if len(eps_list) < 3:
        raise ConfigError("eps", "need >= 3 entries")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("eps", "entries must be strictly decreasing")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = epsilon_sweep(cfg, eps_list, keep_trajectories=True)
    audit = limsup_identity_audit(report)
    payload = report.to_dict()
    payload["limsup_audit"] = {
        "s_eps": {str(k): v for k, v in audit.s_eps.items()},
        "pairing": audit.pairing,
        "rel_gap": audit.rel_gap,
        "passed": audit.passed,
    }
    files = []
    p = out_dir / "sweep_report.json"
    _write_json(p, payload)
    files.append(p)
    verdicts = {
        f"bounded_{k}": {"passed": v} for k, v in report.verdicts.items()
    }
    verdicts["limsup_identity"] = {"passed": audit.passed}
    verdicts["overshoot_all"] = {
        "passed": all(s.overshoot_ok for s in report.summaries)
    }
    p = out_dir / "verdicts.json"
    _write_json(p, verdicts)
    files.append(p)
    manifest = _manifest(cfg.to_dict(), out_dir, files, verdicts)
    _write_json(out_dir / "manifest.json", manifest)
    ok = all(v["passed"] for v in verdicts.values())
    for name, v in verdicts.items():
        print(f"{'PASS' if v['passed'] else 'FAIL'} {name}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_toy(out: str, epsilon: float = 1e-4, T: float = 2.0) -> int:
    """Oracle-vs-numeric comparison plus a phase-portrait sample."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dt = snap_dt(T, math.sqrt(epsilon) / 100.0)
    cfg = SimConfig(
        n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=epsilon,
        T=T, dt=dt, theta=0.5, u0="zero", u1="constant:1", label="toy-compare",
    )
    traj = simulate(cfg)
    files = []
    p = out_dir / "toy_compare.csv"
    stride = max(1, traj.n_steps // 2000)
    max_err = 0.0
    with open(p, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "u_num", "v_num", "u_oracle", "v_oracle"])
        for i in range(0, len(traj.times), stride):
            t = float(traj.times[i])
            uo, vo = yosida_layer_toy(epsilon, t)
            max_err = max(max_err, abs(uo - traj.U[i, 0]), abs(vo - traj.V[i, 0]))
            wr.writerow(
                [f"{t:.12g}", f"{traj.U[i, 0]:.17g}", f"{traj.V[i, 0]:.17g}",
                 f"{uo:.17g}", f"{vo:.17g}"]
            )
    files.append(p)

    from .graphs import RegularizedPotential, indicator_graph

    level = phase_level_set(RegularizedPotential(indicator_graph(), epsilon), 0.5, 400)
    p = out_dir / "phase_portrait.csv"
    with open(p, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["branch", "u", "v"])
        for b, pts in enumerate(level.branches):
            for u, v in pts:
                wr.writerow([b, f"{u:.12g}", f"{v:.12g}"])
    files.append(p)

    verdicts = {
        "oracle_match": {"passed": max_err <= 5.0 * dt, "max_err": max_err, "budget": 5.0 * dt}
    }
    p = out_dir / "verdicts.json"
    _write_json(p, verdicts)
    files.append(p)
    manifest = _manifest(cfg.to_dict(), out_dir, files, verdicts)
    _write_json(out_dir / "manifest.json", manifest)
    print(f"{'PASS' if verdicts['oracle_match']['passed'] else 'FAIL'} oracle_match")
    return EXIT_OK if verdicts["oracle_match"]["passed"] else EXIT_CHECK_FAILED


def cmd_verify(out: str, seed: int = 0) -> int:
    """Re-run the verification battery on a stored run directory."""
    out_dir = Path(out)
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        raise MissingArtifact(f"{manifest_path} not found")
    manifest = json.loads(manifest_path.read_text())
    if "config" not in manifest:
        raise MissingArtifact("manifest lacks the resolved config")
    cfg = from_dict(manifest["config"])
    if cfg.output_every != 1:
        raise MissingArtifact("verify needs full-resolution artifacts (output_every 1)")

    traj_path = out_dir / "trajectory.csv"
    if not traj_path.exists():
        raise MissingArtifact(f"{traj_path} not found")
    traj = read_trajectory_csv(traj_path, cfg)

    # cross-check the stored energy ledger against a recomputation
    energy_path = out_dir / "energy.csv"
    if not energy_path.exists():
        raise MissingArtifact(f"{energy_path} not found")
    es = energy_series(traj)
    try:
        stored_total = np.loadtxt(energy_path, delimiter=",", skiprows=1, usecols=5, ndmin=1)
    except ValueError as exc:
        raise MissingArtifact(f"{energy_path}: malformed row ({exc})") from exc
    ledger_ok = len(stored_total) == len(es) and bool(
        np.allclose(stored_total, es["total"], rtol=1e-9, atol=1e-12)
    )

    xi = accumulate_xi(traj)
    verdicts = _standard_checks(traj, xi, seed)
    verdicts["energy_ledger_consistent"] = {"passed": ledger_ok}

    # jump report consistency, when one was stored
    jumps_path = out_dir / "jumps.json"
    if jumps_path.exists():
        stored = json.loads(jumps_path.read_text())
        redetected = detect_jumps(traj)
        match = len(stored) == len(redetected) and all(
            abs(a["t"] - b.t) <= 10 * traj.reaction.layer_width + 10 * traj.dt
            for a, b in zip(stored, redetected)
        )
        verdicts["jump_report_consistent"] = {"passed": match}

    _write_json(out_dir / "verify_verdicts.json", verdicts)
    ok = all(v["passed"] for v in verdicts.values())
    for name, v in verdicts.items():
        print(f"{'PASS' if v['passed'] else 'FAIL'} {name}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dampedwave",
        description="Constrained strongly damped wave equation: runs and checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one configuration and verify it")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep", help="regularization continuation study")
    p.add_argument("--config", required=True)
    p.add_argument("--eps", required=True, help="comma list, strictly decreasing")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("toy", help="homogeneous-model oracle comparison")
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--T", type=float, default=2.0)

    p = sub.add_parser("verify", help="re-run checks on stored artifacts")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out, args.seed)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.eps, args.out, args.seed)
        if args.command == "toy":
            return cmd_toy(args.out, args.epsilon, args.T)
        if args.command == "verify":
            return cmd_verify(args.out, args.seed)
    except (DampedWaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
