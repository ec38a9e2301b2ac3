"""Command-line entry point: simulate, sweep, toy, verify.

Every command owns one output directory and writes its artifacts there
(no images): a run manifest listing and digesting every emitted file,
the states as ``run.npz`` (the canonical binary record that ``verify``
reads; the ``trajectory.csv`` text export is opt-in with ``simulate
--csv``), the energy ledger and the reaction-measure histogram as CSV,
jump and verdict reports as JSON.  Exit codes: 0 all checks pass, 1 a
check failed, 2 configuration or I/O error (a run too large for memory
included).

``run.npz`` keeps only what the states cannot give back: the times, u,
v and the Newton counts.  The per-step records are a function of the
states, so ``read_run_npz`` rebuilds them with the function ``simulate``
records them with (``integrator.run_records``), bit for bit.  ``verify``
builds one trajectory and one measure from it and renders and checks
everything from them, so its battery gives ``simulate``'s verdict values.

One table, ``_artifacts``, holds every file ``simulate`` writes after
``run.npz`` and ``verdicts.json``: its name, the writer ``simulate``
calls, the renderer ``verify`` calls, their arguments, the reader of a
stored file whose bytes differ, and the verdict that covers it.  Each
renderer ``_render_*(write, ...)`` passes its text to a sink.  The
writers send it to a file; ``verify`` sends it, built from the run that
``read_run_npz`` rebuilt, to a sha256 and compares that with the stored
file's.  Only a file whose bytes differ is parsed: a reader error exits
2, a file that parses fails its verdict.

The manifest is the table's last row and a pure function of the run
directory: the config, its hash, the tool version, the sha256 of every
file it lists (``run.npz`` and ``verdicts.json`` included) and the
verdict flags of ``verdicts.json``.  Two runs of one config give the
same bytes.  ``verify`` renders it again like any other row, with the
digests of the files it rendered, so an edited derived file fails its
own verdict only, and an edit of the manifest, ``verdicts.json`` or
``run.npz`` fails ``energy_ledger_consistent``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import zipfile
from collections import namedtuple
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
from .graphs import RegularizedPotential, indicator_graph
from .integrator import (
    Trajectory,
    _resolve_steps,
    map_row_blocks,
    run_records,
    simulate,
)
from .sweep import checked_eps_list, epsilon_sweep, limsup_identity_audit, snap_dt, summarize_run
from .toy import phase_level_set, yosida_layer_toy
from .weaklimit import (
    SpacePairings,
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

LEDGER = "energy_ledger_consistent"


def _to_file(path: Path, render, *args) -> None:
    """Write the text ``render(write, *args)`` passes to ``write``, byte for byte."""
    with open(path, "w", newline="") as fh:
        render(fh.write, *args)


def _render_json(write, payload) -> None:
    write(json.dumps(payload, indent=2, sort_keys=True))


def _write_json(path: Path, payload) -> None:
    _to_file(path, _render_json, payload)


# run.npz holds exactly these Trajectory arrays; the per-step records are
# a function of the states and are rebuilt from them
RUN_FIELDS = ("times", "U", "V", "newton_iters")


def write_run_npz(path: Path, traj: Trajectory) -> None:
    """The canonical run artifact: the states and Newton counts in one uncompressed npz."""
    np.savez(path, **{k: getattr(traj, k) for k in RUN_FIELDS})


def read_run_npz(path: Path, cfg: SimConfig) -> Trajectory:
    """The trajectory that ``write_run_npz`` stored: its arrays bit for bit,
    and the per-step records rebuilt from its states with the function
    ``simulate`` records them with (``integrator.run_records``), so they
    have ``simulate``'s bits.

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
    # zipfile raises RuntimeError for a member flagged encrypted or compressed by an unknown method
    except (OSError, EOFError, ValueError, RuntimeError, zipfile.BadZipFile) as exc:
        raise MissingArtifact(f"{path} is not a readable npz archive ({exc})") from exc

    n_steps = _resolve_steps(cfg)
    n_t, n_x = n_steps + 1, cfg.n_nodes
    shapes = {"times": (n_t,), "U": (n_t, n_x), "V": (n_t, n_x), "newton_iters": (n_steps,)}
    for k, shape in shapes.items():
        a = stored[k]
        dtype = np.dtype(np.int64 if k == "newton_iters" else np.float64)
        if not isinstance(a, np.ndarray) or a.dtype != dtype or a.shape != shape:
            raise MissingArtifact(f"{path}: {k} is not {dtype} of shape {shape}")
        if not np.all(np.isfinite(a)):
            raise MissingArtifact(f"{path}: {k} has a non-finite value")
    # the grid dt*k, exactly as the integrator writes it, is strictly increasing
    if not np.array_equal(stored["times"], cfg.dt * np.arange(n_t, dtype=float)):
        raise MissingArtifact(f"{path}: the times are not the run's strictly increasing grid")

    return _rebuild_diagnostics(cfg, **stored)


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
    """Rebuild a trajectory from its CSV export."""
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


def _rebuild_diagnostics(cfg: SimConfig, times, U, V, newton_iters=None) -> Trajectory:
    """Recompute per-step records from the states; the Newton counts are 0 unless given."""
    if newton_iters is None:
        newton_iters = np.zeros(len(times) - 1, dtype=int)
    B = map_row_blocks(cfg.reaction().beta, U)
    return Trajectory(cfg, times, U, V, *run_records(cfg, V, B), newton_iters)


def write_energy_csv(path: Path, traj: Trajectory, es) -> None:
    _to_file(path, _render_energy_csv, traj, es)


def _render_energy_csv(write, traj: Trajectory, es) -> None:
    """The energy components of ``es`` with the cumulative dissipation and the balance residual."""
    diss_cum = np.concatenate([[0.0], np.cumsum(traj.diss_incr)])
    power_cum = np.concatenate([[0.0], np.cumsum(traj.power_incr)])
    resid = np.abs(es["total"] + diss_cum - es["total"][0] - power_cum)
    resid[0] = 0.0
    header = "t,kinetic,gradient,potential,concave,total,dissipation_cum,equality_residual"
    columns = [es[c] for c in header.split(",")[:6]] + [diss_cum, resid]
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
        "dissipation_total": dissipation_between(traj, 0.0, float(traj.times[-1])),
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


def _sha256(path: Path) -> str:
    """The hex sha256 of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _render_manifest(write, out_dir: Path, cfg: SimConfig, names, digests) -> None:
    """``manifest.json``: the config, its hash, the tool version, the files
    ``names`` and ``verdicts.json`` of ``out_dir`` with their sha256, and the
    flags of the verdicts.  A file's digest is read from ``out_dir`` unless
    ``digests`` holds it.

    MissingArtifact unless ``verdicts.json`` is an object of objects, each
    with a boolean ``passed``.
    """
    path = out_dir / "verdicts.json"
    verdicts = _load(path, _read_json)
    if not isinstance(verdicts, dict) or not all(
        isinstance(v, dict) and isinstance(v.get("passed"), bool) for v in verdicts.values()
    ):
        raise MissingArtifact(f"{path} is not an object of verdicts with a boolean 'passed'")
    sha256 = {n: digests.get(n) or _sha256(out_dir / n) for n in [*names, path.name]}
    _render_json(write, {
        "config_hash": cfg.config_hash(),
        "tool_version": __version__,
        "config": cfg.to_dict(),
        "files": sorted(sha256),
        "sha256": sha256,
        "verdicts": {k: v["passed"] for k, v in verdicts.items()},
    })


Artifact = namedtuple("Artifact", "name write render args read verdict opt_in", defaults=[False])


def _manifest(out_dir: Path, cfg: SimConfig, names, digests) -> Artifact:
    """The manifest's row, the last of a run: it digests ``names`` and ``verdicts.json``."""
    write = lambda path, *args: _to_file(path, _render_manifest, *args)
    args = (out_dir, cfg, names, digests)
    return Artifact("manifest.json", write, _render_manifest, args, _read_json, LEDGER)


def _artifacts(out_dir: Path, traj: Trajectory, xi, es, export, digests) -> list[Artifact]:
    """The artifact table: the files of a run after ``run.npz`` and
    ``verdicts.json``, in the order of their verdicts, one row each.

    ``write(path, *args)`` is the writer ``simulate`` calls, and
    ``render(sink, *args)`` passes the text it stores to a sink; ``verify``
    hashes that.  ``read(path)`` parses a stored file whose bytes differ,
    and ``verdict`` is the one that covers the file.  An ``opt_in`` row is
    kept when ``export(name)`` is true.  The table is built when a command
    runs, from the writers this module binds then.  The manifest comes
    last: it lists and digests the files before it, ``run.npz`` and
    ``verdicts.json``, and takes the digests that ``digests`` holds when
    it is rendered instead of reading those files.
    """
    summary, jumps = _summary_payload(traj, xi, es), _jumps_payload(traj)
    table = [
        Artifact("energy.csv", write_energy_csv, _render_energy_csv, (traj, es), _read_csv, LEDGER),
        Artifact("xi.csv", write_xi_csv, _render_xi_csv, (xi,), _read_csv, LEDGER),
        Artifact("summary.json", _write_json, _render_json, (summary,), _read_json, LEDGER),
        Artifact("trajectory.csv", write_trajectory_csv, _render_trajectory_csv, (traj,),
                 lambda p: _parse_trajectory_csv(p, *traj.U.shape),
                 "trajectory_csv_consistent", True),
        Artifact("jumps.json", _write_json, _render_json, (jumps,), _read_json,
                 "jump_report_consistent"),
    ]
    table = [a for a in table if not a.opt_in or export(a.name)]
    return table + [_manifest(out_dir, traj.cfg, ["run.npz", *(a.name for a in table)], digests)]


def _derived_files_match(out_dir: Path, traj: Trajectory, xi, es, export) -> dict:
    """For each verdict of the artifact table, whether every file it covers
    holds the bytes its renderer gives from the run that ``read_run_npz``
    rebuilt (``xi`` and ``es`` are its measure and energy series) and the
    directory.

    The manifest takes each earlier row's digest from its rendering, so an
    edited derived file fails its own verdict only; the manifest covers
    ``run.npz`` and ``verdicts.json`` with digests of the stored bytes.  A
    file that differs is read with its row's reader: a reader error is a
    MissingArtifact, a file that parses is a mismatch.  A missing file is
    an OSError.
    """
    match, digests = {}, {}
    for a in _artifacts(out_dir, traj, xi, es, export, digests):
        rendered = hashlib.sha256()
        a.render(lambda text: rendered.update(text.encode()), *a.args)
        digests[a.name] = rendered.hexdigest()
        same = digests[a.name] == _sha256(out_dir / a.name)
        if not same:
            _load(out_dir / a.name, a.read)
        match[a.verdict] = match.get(a.verdict, True) and same
    return match


def _standard_checks(traj: Trajectory, xi, es, seed: int) -> dict:
    """The post-run verification battery on the run, its measure ``xi`` and
    its energy series ``es``: six verdicts."""
    rng = np.random.default_rng(seed)
    verdicts = {}

    s_times, t_times = random_time_pairs(traj, rng, min(20, len(traj.times) - 1))
    ineq = energy_inequality_verdict(traj, s_times, t_times)
    verdicts["energy_inequality"] = {
        "passed": ineq.all_pass,
        "worst_slack": ineq.worst_slack,
        "tol": ineq.tol,
    }

    summ = summarize_run(traj, xi, es)
    verdicts["overshoot"] = {
        "passed": summ.overshoot_ok,
        "overshoot": summ.overshoot,
        "bound": summ.overshoot_bound,
    }

    T = float(traj.times[-1])
    worst = 0.0
    pairings = SpacePairings(traj, xi)
    for phi in default_dictionary(traj.grid, T):
        r = weak_residual(traj, xi, phi, T, pairings)
        scale = 1.0 + T
        worst = max(worst, r / scale)
    del pairings  # its memo holds a few run-length vectors per spatial factor
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

    r_sol = solution_identity_residual(traj, xi, 0.0, T)
    scale = (1.0 + T) * (1.0 + summ.e_max)
    verdicts["solution_identity"] = {
        "passed": r_sol <= WEAK_C * traj.dt * scale,
        "residual": r_sol,
        "budget": WEAK_C * traj.dt * scale,
    }
    return verdicts


def _conclude(out_dir: Path, verdicts: dict, rows=(), store: str = "verdicts.json") -> int:
    """Store the verdicts as ``store``, then write the ``rows`` of the
    artifact table (whose manifest digests the verdicts); print one
    PASS/FAIL line per verdict and return the exit code."""
    _write_json(out_dir / store, verdicts)
    for a in rows:
        a.write(out_dir / a.name, *a.args)
    for name, v in verdicts.items():
        print(f"{'PASS' if v['passed'] else 'FAIL'} {name}")
    return EXIT_OK if all(v["passed"] for v in verdicts.values()) else EXIT_CHECK_FAILED


def toy_run_config(epsilon: float, T: float = 2.0, label: str = "toy-compare") -> SimConfig:
    """The homogeneous wall-impact run with data (0, 1) and dt near sqrt(eps)/100.

    ConfigError naming the flag unless ``epsilon`` and ``T`` (``toy``'s
    ``--epsilon`` and ``--T``) are finite and positive.
    """
    for flag, value in (("--epsilon", epsilon), ("--T", T)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(flag, f"must be finite and positive, not {value!r}")
    return SimConfig(
        n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=epsilon,
        T=T, dt=snap_dt(T, math.sqrt(epsilon) / 100.0), theta=0.5, u0="zero",
        u1="constant:1", label=label,
    )


def sweep_payload(cfg: SimConfig, eps_list) -> tuple:
    """Run the epsilon sweep; its JSON report with the limsup audit, the report and the audit."""
    report = epsilon_sweep(cfg, eps_list)
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
    try:
        traj = simulate(cfg)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    xi, es = accumulate_xi(traj), energy_series(traj)
    write_run_npz(out_dir / "run.npz", traj)
    rows = _artifacts(out_dir, traj, xi, es, lambda name: write_csv, {})
    return _conclude(out_dir, _standard_checks(traj, xi, es, seed), rows)


def eps_list_arg(eps: str) -> tuple:
    """The comma list of ``--eps`` as floats; ConfigError unless ``checked_eps_list`` takes it."""
    try:
        return checked_eps_list(v for v in eps.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError("eps", f"bad eps list {eps!r}: {exc}") from exc


def cmd_sweep(config_path: str, eps: str, out: str) -> int:
    cfg = load_config(config_path)
    eps_list = eps_list_arg(eps)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload, report, audit = sweep_payload(cfg, eps_list)
    _write_json(out_dir / "sweep_report.json", payload)
    verdicts = {
        f"bounded_{k}": {"passed": v} for k, v in report.verdicts.items()
    }
    verdicts["limsup_identity"] = {"passed": audit.passed}
    verdicts["overshoot_all"] = {
        "passed": all(s.overshoot_ok for s in report.summaries)
    }
    return _conclude(out_dir, verdicts, [_manifest(out_dir, cfg, ["sweep_report.json"], {})])


def cmd_toy(out: str, epsilon: float = 1e-4, T: float = 2.0) -> int:
    """Oracle-vs-numeric comparison plus a phase-portrait sample."""
    cfg = toy_run_config(epsilon, T)
    traj = simulate(cfg)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stride = max(1, traj.n_steps // 2000)
    t = traj.times[::stride]
    numeric = np.column_stack((traj.U[::stride, 0], traj.V[::stride, 0]))
    oracle = np.array([yosida_layer_toy(epsilon, s) for s in t.tolist()])
    max_err = float(np.max(np.abs(oracle - numeric)))
    files = ["toy_compare.csv", "phase_portrait.csv"]
    _to_file(
        out_dir / files[0], _render_csv, "t,u_num,v_num,u_oracle,v_oracle",
        ["%.12g"] + ["%.17g"] * 4, [t, numeric, oracle],
    )
    level = phase_level_set(RegularizedPotential(indicator_graph(), epsilon), 0.5, 400)
    branch = np.concatenate([np.full(len(pts), b) for b, pts in enumerate(level.branches)])
    _to_file(
        out_dir / files[1], _render_csv, "branch,u,v", ["%d", "%.12g", "%.12g"],
        [branch, np.concatenate(level.branches)],
    )
    verdicts = {
        "oracle_match": {
            "passed": max_err <= 5.0 * cfg.dt, "max_err": max_err, "budget": 5.0 * cfg.dt,
        }
    }
    return _conclude(out_dir, verdicts, [_manifest(out_dir, cfg, files, {})])


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

    traj = read_run_npz(out_dir / "run.npz", cfg)
    xi, es = accumulate_xi(traj), energy_series(traj)
    # the export is compared whenever it is there, whatever the manifest lists
    exported = lambda name: name in files or (out_dir / name).exists()
    match = _derived_files_match(out_dir, traj, xi, es, exported)
    verdicts = _standard_checks(traj, xi, es, seed)
    verdicts.update((name, {"passed": ok}) for name, ok in match.items())
    return _conclude(out_dir, verdicts, store="verify_verdicts.json")


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
    p.add_argument("--seed", type=int, default=0, help="accepted for uniformity with "
                   "simulate and verify; unused, a sweep draws no random numbers")

    p = sub.add_parser("toy", help="homogeneous-model oracle comparison")
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--T", type=float, default=2.0)

    p = sub.add_parser("verify", help="re-run checks on stored artifacts")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    return ap


def exit_code(fn, *args) -> int:
    """``fn(*args)``, or EXIT_CONFIG_ERROR with ``error: ...`` on stderr for
    a configuration, I/O or memory error; a None result is EXIT_OK."""
    try:
        return fn(*args) or EXIT_OK
    except (DampedWaveError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def _command(args) -> int:
    if args.command == "simulate":
        return cmd_simulate(args.config, args.out, args.seed, args.csv)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.eps, args.out)
    if args.command == "toy":
        return cmd_toy(args.out, args.epsilon, args.T)
    if args.command == "verify":
        return cmd_verify(args.out, args.seed)
    return EXIT_CONFIG_ERROR


def main(argv=None) -> int:
    return exit_code(_command, build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
