"""Command-line entry point: simulate, sweep, toy, verify.

Every command owns one output directory and writes its artifacts there
(no images): a run manifest listing every emitted file, the trajectory
as ``run.npz`` (the canonical binary record that ``verify`` reads; the
``trajectory.csv`` text export is opt-in with ``simulate --csv``), the
energy ledger and the reaction-measure histogram as CSV, jump and
verdict reports as JSON.  Exit codes: 0 all checks pass, 1 a check
failed, 2 configuration or I/O error.

Each derived file has one renderer, ``_render_*(write, ...)``, that
passes its text to a sink.  The ``write_*`` functions send it to a file;
``verify`` sends it, built from the stored records of ``run.npz``, to a
sha256 and compares that with the stored file's.  Only a file whose
bytes differ is parsed: a reader error exits 2, a file that parses fails
its verdict.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import __version__
from .config import SimConfig, from_dict, load_config
from .energy import (
    dissipation_between,
    energy_inequality_verdict,
    energy_series,
    random_time_pairs,
)
from .errors import ConfigError, DampedWaveError, MissingArtifact, RunError
from .grid import edge_inner
from .integrator import (
    Trajectory,
    _resolve_steps,
    map_row_blocks,
    record_indices,
    simulate,
)
from .sweep import checked_eps_list, epsilon_sweep, limsup_identity_audit, snap_dt, summarize_run
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


def _to_file(path: Path, render, *args) -> None:
    """Write the text ``render(write, *args)`` passes to ``write``, byte for byte."""
    with open(path, "w", newline="") as fh:
        render(fh.write, *args)


def _render_json(write, payload) -> None:
    write(json.dumps(payload, indent=2, sort_keys=True, default=_jsonable))


def _write_json(path: Path, payload) -> None:
    _to_file(path, _render_json, payload)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# run.npz holds exactly these Trajectory arrays
RUN_FIELDS = (
    "times", "U", "V", "step_edges", "beta_theta", "diss_incr", "power_incr", "newton_iters",
)


def write_run_npz(path: Path, traj: Trajectory) -> None:
    """The canonical run artifact: the Trajectory arrays in one uncompressed npz."""
    np.savez(path, **{k: getattr(traj, k) for k in RUN_FIELDS})


def read_run_npz(path: Path, cfg: SimConfig) -> Trajectory:
    """The trajectory that ``write_run_npz`` stored, bit for bit.

    MissingArtifact unless the file is an intact npz of exactly the run's
    arrays, with the dtypes and shapes of ``cfg``'s run, finite values,
    and strictly increasing times on the config's time grid.
    """
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise MissingArtifact(f"{path} is not an npz archive")
        with npz:
            if set(npz.files) != set(RUN_FIELDS):
                raise MissingArtifact(
                    f"{path} holds {sorted(npz.files)}, a run holds {sorted(RUN_FIELDS)}"
                )
            stored = {k: npz[k] for k in RUN_FIELDS}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise MissingArtifact(f"{path} is not a readable npz archive ({exc})") from exc

    n_steps = _resolve_steps(cfg)
    rec_idx = record_indices(n_steps, cfg.output_every)
    n_t, n_x = len(rec_idx), cfg.n_nodes
    shapes = {
        "times": (n_t,), "U": (n_t, n_x), "V": (n_t, n_x), "step_edges": (n_steps + 1,),
        "beta_theta": (n_steps, n_x), "diss_incr": (n_steps,), "power_incr": (n_steps,),
        "newton_iters": (n_steps,),
    }
    for k, shape in shapes.items():
        a = stored[k]
        dtype = np.dtype(np.int64 if k == "newton_iters" else np.float64)
        if not isinstance(a, np.ndarray) or a.dtype != dtype or a.shape != shape:
            raise MissingArtifact(f"{path}: {k} is not {dtype} of shape {shape}")
        if not np.all(np.isfinite(a)):
            raise MissingArtifact(f"{path}: {k} has a non-finite value")
    # the grid dt*k, exactly as the integrator writes it, is strictly increasing
    times, edges = stored["times"], stored["step_edges"]
    grid_edges = cfg.dt * np.arange(n_steps + 1, dtype=float)
    if not (np.array_equal(edges, grid_edges) and np.array_equal(times, grid_edges[rec_idx])):
        raise MissingArtifact(f"{path}: the times are not the run's strictly increasing grid")

    return Trajectory(cfg, **stored)


def _recompute_records(stored: Trajectory) -> tuple[Trajectory, bool]:
    """The run with its per-step records recomputed from the states, and
    whether the stored records match them; the Newton counts are kept.

    Dissipation and power agree to round-off.  The reaction gets an
    absolute allowance of 2e-11/epsilon on top: the logarithmic resolvent
    stops at an x-error of 10 * 1e-12 over a whole batch of values, so a
    batch evaluation differs from the step-by-step one by up to that much
    divided by epsilon.
    """
    traj = _rebuild_diagnostics(stored.cfg, stored.times, stored.U, stored.V)
    traj.newton_iters = stored.newton_iters
    for k in ("diss_incr", "power_incr"):
        rec = getattr(traj, k)
        atol = 1e-12 * (1.0 + float(np.max(np.abs(rec), initial=0.0)))
        if not np.allclose(getattr(stored, k), rec, rtol=1e-9, atol=atol):
            return traj, False
    bt = traj.beta_theta
    budget = 2e-11 / traj.reaction.epsilon + 1e-9 * np.abs(bt)
    return traj, bool(np.all(np.abs(stored.beta_theta - bt) <= budget))


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    _to_file(path, _render_trajectory_csv, traj)


def _render_trajectory_csv(write, traj: Trajectory) -> None:
    """Rows (t as %.12g, node, then u, v, beta_eps(u) as %.17g), CRLF as csv.writer ends them."""
    body = [f",{j},%.17g,%.17g,%.17g\r\n" for j in range(traj.grid.n_nodes)]
    B = map_row_blocks(traj.reaction.beta, traj.U)
    write("t,node,u,v,beta_eps_u\r\n")
    for t, u, v, b in zip(traj.times, traj.U, traj.V, B):
        ts = f"{t:.12g}"
        write((ts + ts.join(body)) % tuple(np.column_stack((u, v, b)).ravel().tolist()))


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


def write_energy_csv(path: Path, traj: Trajectory, es) -> None:
    _to_file(path, _render_energy_csv, traj, es)


def _render_energy_csv(write, traj: Trajectory, es) -> None:
    """The energy components of ``es`` with the cumulative dissipation and the balance residual."""
    diss_cum = np.concatenate([[0.0], np.cumsum(traj.diss_incr)])
    power_cum = np.concatenate([[0.0], np.cumsum(traj.power_incr)])
    steps = np.rint(np.asarray(traj.times) / traj.dt).astype(int)
    resid = np.abs(es["total"] + diss_cum[steps] - es["total"][0] - power_cum[steps])
    resid[0] = 0.0
    header = "t,kinetic,gradient,potential,concave,total,dissipation_cum,equality_residual"
    columns = [es[c] for c in header.split(",")[:6]] + [diss_cum[steps], resid]
    _render_csv(write, header, ["%.12g"] + ["%.17g"] * 7, columns)


def write_xi_csv(path: Path, xi) -> None:
    _to_file(path, _render_xi_csv, xi)


def _render_xi_csv(write, xi) -> None:
    """The nonzero cells of the measure rebinned to at most 256 time bins."""
    coarse = xi.rebin(min(256, xi.n_t))
    centers = 0.5 * (coarse.t_edges[:-1] + coarse.t_edges[1:])
    k, i = np.nonzero(coarse.masses)
    _render_csv(
        write, "t_bin,x_bin,mass", ["%.12g", "%.12g", "%.17g"],
        [centers[k], coarse.x[i], coarse.masses[k, i]],
    )


def _render_csv(write, header: str, fmt, columns) -> None:
    """A header and one row per entry of the columns, CRLF-terminated as csv.writer does."""
    row = ",".join(fmt) + "\r\n"
    rows = np.column_stack(columns).tolist()
    write(header + "\r\n" + "".join(row % tuple(r) for r in rows))


def _summary_payload(traj: Trajectory, xi, es) -> dict:
    """``summary.json``: run parameters, energies, dissipation, reaction mass, Newton counts."""
    stride = max(1, len(es) // 200)
    return {
        "label": traj.cfg.label,
        "T": traj.cfg.T,
        "dt": traj.cfg.dt,
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


def _jumps_payload(traj: Trajectory) -> list:
    """``jumps.json``: one entry per detected velocity jump."""
    return [
        {
            "t": ev.t,
            "v_before_mean": float(np.mean(ev.v_before)),
            "v_after_mean": float(np.mean(ev.v_after)),
            "impulse": ev.impulse,
        }
        for ev in detect_jumps(traj)
    ]


def _load(path: Path, read):
    """``read(path)``; MissingArtifact if the reader rejects the file."""
    try:
        return read(path)
    except ValueError as exc:
        raise MissingArtifact(f"{path} is malformed ({exc})") from exc


def _read_json(path: Path):
    return json.loads(path.read_bytes())


def _read_csv(path: Path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _derived_files_match(out_dir: Path, stored: Trajectory, with_csv: bool) -> dict:
    """For each file ``simulate`` derives from the run, whether it holds the
    bytes its writer renders from the stored records.

    A file that differs is read with the reader of its format: a reader
    error is a MissingArtifact, a file that parses is a mismatch.  A
    missing file is an OSError.
    """
    es = energy_series(stored)
    xi = accumulate_xi(stored)
    derived = {
        "energy.csv": (_render_energy_csv, (stored, es), _read_csv),
        "xi.csv": (_render_xi_csv, (xi,), _read_csv),
        "summary.json": (_render_json, (_summary_payload(stored, xi, es),), _read_json),
        "jumps.json": (_render_json, (_jumps_payload(stored),), _read_json),
    }
    if with_csv:
        shape = stored.U.shape
        derived["trajectory.csv"] = (
            _render_trajectory_csv, (stored,), lambda p: _parse_trajectory_csv(p, *shape),
        )
    match = {}
    for name, (render, args, read) in derived.items():
        rendered, stored_bytes = hashlib.sha256(), hashlib.sha256()
        render(lambda text: rendered.update(text.encode()), *args)
        with open(out_dir / name, "rb") as fh:
            while chunk := fh.read(1 << 20):
                stored_bytes.update(chunk)
        match[name] = rendered.digest() == stored_bytes.digest()
        if not match[name]:
            _load(out_dir / name, read)
    return match


def _standard_checks(traj: Trajectory, xi, seed: int) -> dict:
    """The post-run verification battery; shapes the verdict summary.

    Checks that need the full step-resolution state history are simply
    omitted for strided runs: verdicts only come from executed checks.
    """
    rng = np.random.default_rng(seed)
    verdicts = {}

    s_times, t_times = random_time_pairs(traj, rng, min(20, len(traj.times) - 1))
    ineq = energy_inequality_verdict(traj, s_times, t_times)
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


def _manifest(cfg: SimConfig, files, verdicts) -> dict:
    return {
        "config_hash": cfg.config_hash(),
        "tool_version": __version__,
        "created": _now(),
        "config": cfg.to_dict(),
        "files": sorted(str(f.name) for f in files),
        "verdicts": {k: v["passed"] for k, v in verdicts.items()},
    }


def _conclude(out_dir: Path, verdicts: dict, cfg: SimConfig | None = None, files=()) -> int:
    """Store the verdicts, print one PASS/FAIL line each, return the exit code.

    A command that made the run (``cfg`` given) writes ``verdicts.json``
    and a manifest of ``files`` plus it; ``verify`` writes
    ``verify_verdicts.json`` and leaves the manifest as it is.
    """
    if cfg is None:
        _write_json(out_dir / "verify_verdicts.json", verdicts)
    else:
        p = out_dir / "verdicts.json"
        _write_json(p, verdicts)
        _write_json(out_dir / "manifest.json", _manifest(cfg, [*files, p], verdicts))
    for name, v in verdicts.items():
        print(f"{'PASS' if v['passed'] else 'FAIL'} {name}")
    return EXIT_OK if all(v["passed"] for v in verdicts.values()) else EXIT_CHECK_FAILED


def toy_run_config(epsilon: float, T: float = 2.0, label: str = "toy-compare") -> SimConfig:
    """The homogeneous wall-impact run with data (0, 1) and dt near sqrt(eps)/100."""
    return SimConfig(
        n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=epsilon,
        T=T, dt=snap_dt(T, math.sqrt(epsilon) / 100.0), theta=0.5, u0="zero",
        u1="constant:1", label=label,
    )


def sweep_payload(cfg: SimConfig, eps_list) -> tuple:
    """Run the epsilon sweep; its JSON report with the limsup audit, the report and the audit."""
    report = epsilon_sweep(cfg, eps_list, keep_trajectories=True)
    audit = limsup_identity_audit(report)
    payload = report.to_dict()
    payload["limsup_audit"] = {
        "s_eps": {str(k): v for k, v in audit.s_eps.items()},
        "pairing": audit.pairing,
        "rel_gap": audit.rel_gap,
        "passed": audit.passed,
    }
    return payload, report, audit


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(config_path: str, out: str, seed: int = 0, write_csv: bool = False) -> int:
    cfg = load_config(config_path)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        traj = simulate(cfg)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    xi = accumulate_xi(traj, run_id=cfg.label)
    es = energy_series(traj)
    files = []

    def emit(name, write, *args):
        files.append(out_dir / name)
        write(files[-1], *args)

    emit("run.npz", write_run_npz, traj)
    if write_csv:
        emit("trajectory.csv", write_trajectory_csv, traj)
    emit("energy.csv", write_energy_csv, traj, es)
    emit("xi.csv", write_xi_csv, xi)
    emit("summary.json", _write_json, _summary_payload(traj, xi, es))
    emit("jumps.json", _write_json, _jumps_payload(traj))
    return _conclude(out_dir, _standard_checks(traj, xi, seed), cfg, files)


def cmd_sweep(config_path: str, eps: str, out: str, seed: int = 0) -> int:
    cfg = load_config(config_path)
    try:
        eps_list = checked_eps_list(v for v in eps.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError("eps", f"bad eps list {eps!r}: {exc}") from exc
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload, report, audit = sweep_payload(cfg, eps_list)
    p = out_dir / "sweep_report.json"
    _write_json(p, payload)
    verdicts = {
        f"bounded_{k}": {"passed": v} for k, v in report.verdicts.items()
    }
    verdicts["limsup_identity"] = {"passed": audit.passed}
    verdicts["overshoot_all"] = {
        "passed": all(s.overshoot_ok for s in report.summaries)
    }
    return _conclude(out_dir, verdicts, cfg, [p])


def cmd_toy(out: str, epsilon: float = 1e-4, T: float = 2.0) -> int:
    """Oracle-vs-numeric comparison plus a phase-portrait sample."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = toy_run_config(epsilon, T)
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
        "oracle_match": {
            "passed": max_err <= 5.0 * cfg.dt, "max_err": max_err, "budget": 5.0 * cfg.dt,
        }
    }
    return _conclude(out_dir, verdicts, cfg, files)


def cmd_verify(out: str, seed: int = 0) -> int:
    """Re-run the verification battery on a stored run directory."""
    out_dir = Path(out)
    manifest = _load(out_dir / "manifest.json", _read_json)
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
        raise MissingArtifact("manifest.json is not an object with a list of file names")
    if "config" not in manifest:
        raise MissingArtifact("manifest lacks the resolved config")
    cfg = from_dict(manifest["config"])
    if cfg.output_every != 1:
        raise MissingArtifact("verify needs full-resolution artifacts (output_every 1)")

    stored = read_run_npz(out_dir / "run.npz", cfg)
    match = _derived_files_match(out_dir, stored, "trajectory.csv" in files)
    # checks run on the recomputed records; the stored ones are only compared
    traj, records_ok = _recompute_records(stored)
    del stored  # its reaction records are an (n_steps, n_x) array the battery does not use
    verdicts = _standard_checks(traj, accumulate_xi(traj), seed)
    ledger = ("energy.csv", "xi.csv", "summary.json")
    verdicts["energy_ledger_consistent"] = {"passed": records_ok and all(match[f] for f in ledger)}
    if "trajectory.csv" in match:
        verdicts["trajectory_csv_consistent"] = {"passed": match["trajectory.csv"]}
    verdicts["jump_report_consistent"] = {"passed": match["jumps.json"]}
    return _conclude(out_dir, verdicts)


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
    p.add_argument("--csv", action="store_true", help="also export trajectory.csv")

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
            return cmd_simulate(args.config, args.out, args.seed, args.csv)
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
