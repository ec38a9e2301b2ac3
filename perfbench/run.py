"""End-to-end and per-layer benchmark of the ``dampedwave`` command line.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is a fixed sequence of CLI commands (its steps).  Every
command runs in a fresh interpreter (``python3 -m dampedwave.cli`` on the
checkout's ``src``), one child at a time, with BLAS/OpenMP pinned to one
thread.  ``--seed`` is passed to ``simulate``, ``verify`` and ``sweep``; it
moves which pairs and candidates the checks sample, not the amount of work.

``--trace 0`` repeats the sequence (a pass) for about ``--seconds`` (at
least once).  The host's speed drifts by 10-40% in spells of seconds to
minutes, so the timings are means over all passes of the run, which average
over the short spells, where a median of a few passes would pick one of
them.  A set-up probe runs before each of the first SETUP_PROBES passes, so
that they too spread over the run; ``setup_s`` is their median.
``--trace 1`` runs the sequence once untraced and then at least twice under
``perfbench/tracer.py``, reports the per-layer metrics (medians over the
traced passes), the tracing overhead, and fails the run when an exact count
differs between traced passes.

Every command's exit code and its set of (verdict name, passed) printed on
stdout must equal the seed's, stored per step in ``perfbench/expected.json``;
a mismatch counts as a failed command.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it stamps the environment.  Run outputs go to
``perfbench/_work/``.  ``perfbench/selftest.py`` checks the harness itself on
shrunk inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / "_work"
EXPECTED = BENCH / "expected.json"

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
TRACED_PASSES = 2
# a run must end within 180 s; no pass starts that could overrun this
RUN_LIMIT_S = 165.0


@dataclasses.dataclass(frozen=True)
class Step:
    """One CLI command of a workload."""
    label: str  # its key in expected.json and the name of its trace files
    command: str  # simulate, verify, sweep or toy
    config: str | None  # handed to --config
    out: str  # output directory, under the pass directory
    sweep_eps: str = "1e-2,1e-3,1e-4,1e-5"
    toy_epsilon: str = "1e-7"


@dataclasses.dataclass(frozen=True)
class Workload:
    steps: tuple[Step, ...]
    setup_config: str  # the configuration the set-up probe loads


# Why each workload (also in BENCHMARK.json):
# - roundtrip_dirichlet: 5000 steps x 256 nodes, no contact; about 90% of its
#   time is artifact I/O and the check battery, and it is the only workload
#   with a read side (verify) beside the write side (simulate).
# - sweeps_toy: the solver paths the roundtrip leaves out, one after another.
#   A sweep of 4 eps on neumann_contact (12,325 steps x 65 nodes, indicator
#   graph, wall impact): the vector step kernel and the sweep audits, no CSV.
#   The same sweep with the logarithmic graph, dominated by its resolvent;
#   sweep, because `simulate` on this geometry with the logarithmic graph
#   exits 1 on singular_support at the seed.  `toy --epsilon 1e-7`: 632,456
#   steps on the scalar fast path; at 1e-8 the seed exits 1 on oracle_match
#   (max_err 6.78e-6 against a budget of 5.0e-6).
WORKLOADS = {
    "roundtrip_dirichlet": Workload(
        (Step("simulate", "simulate", "configs/dirichlet_sine.yaml", "roundtrip"),
         Step("verify", "verify", None, "roundtrip")),
        "configs/dirichlet_sine.yaml"),
    "sweeps_toy": Workload(
        (Step("sweep_contact", "sweep", "configs/neumann_contact.yaml", "sweep_contact"),
         Step("sweep_log", "sweep", "perfbench/configs/neumann_contact_log.yaml", "sweep_log"),
         Step("toy", "toy", None, "toy")),
        "perfbench/configs/neumann_contact_log.yaml"),
}

END_TO_END = {
    "wall_s": "s",
    "node_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# (metric, unit); "_s" metrics are inclusive span time summed over the pass
PER_LAYER = {
    "config.load_s": "s",
    "integrator.simulate_s": "s",
    "integrator.self_s": "s",
    "integrator.steps": "count",
    "integrator.node_steps": "count",
    "integrator.us_per_step": "us",
    "integrator.ns_per_node_step": "ns",
    "integrator.newton_iters": "count",
    "integrator.newton_per_step": "iters/step",
    "integrator.contact_fraction": "ratio",
    "integrator.linsolve_calls": "count",
    "integrator.linsolve_s": "s",
    "graphs.beta_calls": "count",
    "graphs.dbeta_calls": "count",
    "graphs.pot_calls": "count",
    "graphs.reaction_s": "s",
    "graphs.resolvent_calls": "count",
    "graphs.resolvent_s": "s",
    "grid.edge_inner_calls": "count",
    "grid.edge_inner_s": "s",
    "grid.apply_A_calls": "count",
    "grid.apply_A_s": "s",
    "energy.series_calls": "count",
    "energy.series_s": "s",
    "energy.inequality_s": "s",
    "weaklimit.accumulate_xi_s": "s",
    "weaklimit.weak_residual_s": "s",
    "weaklimit.subdifferential_s": "s",
    "weaklimit.singular_support_s": "s",
    "weaklimit.solution_identity_s": "s",
    "weaklimit.detect_jumps_s": "s",
    "sweep.summarize_run_s": "s",
    "sweep.limsup_audit_s": "s",
    "sweep.epsilon_sweep_self_s": "s",
    "toy.oracle_calls": "count",
    "toy.oracle_s": "s",
    "toy.phase_level_set_s": "s",
    "cli.write_trajectory_s": "s",
    "cli.write_energy_s": "s",
    "cli.write_xi_s": "s",
    "cli.read_trajectory_s": "s",
    "cli.checks_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.write_mb_per_s": "MB/s",
    "simulate_s": "s",
    "verify_s": "s",
    "sweep_s": "s",
    "toy_s": "s",
    "fail_rate": "ratio",
    "trace_overhead": "ratio",
    "traj_digest_match": "count",
}

# counts that must be identical between two traced passes of one seed
EXACT_COUNTS = (
    "integrator.steps", "integrator.node_steps", "integrator.newton_iters",
    "integrator.linsolve_calls", "grid.edge_inner_calls", "graphs.beta_calls",
    "graphs.resolvent_calls", "cli.artifact_bytes",
)

# inclusive span time behind each "<layer>.<x>_s" metric
SPAN_TIMES = {
    "config.load_s": ("config.load_config",),
    "integrator.simulate_s": ("integrator.simulate",),
    "integrator.linsolve_s": ("integrator.solve_banded",),
    "graphs.reaction_s": ("graphs.beta", "graphs.dbeta", "graphs.pot"),
    "graphs.resolvent_s": ("graphs.resolvent",),
    "grid.edge_inner_s": ("grid.edge_inner",),
    "grid.apply_A_s": ("grid.apply_A",),
    "energy.series_s": ("energy.energy_series",),
    "energy.inequality_s": ("energy.energy_inequality_verdict",),
    "weaklimit.accumulate_xi_s": ("weaklimit.accumulate_xi",),
    "weaklimit.weak_residual_s": ("weaklimit.weak_residual",),
    "weaklimit.subdifferential_s": ("weaklimit.subdifferential_check",),
    "weaklimit.singular_support_s": ("weaklimit.singular_support_check",),
    "weaklimit.solution_identity_s": ("weaklimit.solution_identity_residual",),
    "weaklimit.detect_jumps_s": ("weaklimit.detect_jumps",),
    "sweep.summarize_run_s": ("sweep.summarize_run",),
    "sweep.limsup_audit_s": ("sweep.limsup_identity_audit",),
    "toy.oracle_s": ("toy.yosida_layer_toy",),
    "toy.phase_level_set_s": ("toy.phase_level_set",),
    "cli.write_trajectory_s": ("cli.write_trajectory_csv",),
    "cli.write_energy_s": ("cli.write_energy_csv",),
    "cli.write_xi_s": ("cli.write_xi_csv",),
    "cli.read_trajectory_s": ("cli.read_trajectory_csv",),
    "cli.checks_s": ("cli._standard_checks",),
}
SPAN_CALLS = {
    "integrator.linsolve_calls": "integrator.solve_banded",
    "graphs.beta_calls": "graphs.beta",
    "graphs.dbeta_calls": "graphs.dbeta",
    "graphs.pot_calls": "graphs.pot",
    "graphs.resolvent_calls": "graphs.resolvent",
    "grid.edge_inner_calls": "grid.edge_inner",
    "grid.apply_A_calls": "grid.apply_A",
    "energy.series_calls": "energy.energy_series",
    "toy.oracle_calls": "toy.yosida_layer_toy",
}
SPAN_SELF = {
    "integrator.self_s": "integrator.simulate",
    "sweep.epsilon_sweep_self_s": "sweep.epsilon_sweep",
}

VERDICT_LINE = re.compile(r"^(PASS|FAIL) (\S+)\s*$", re.MULTILINE)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclasses.dataclass
class CommandRun:
    step: str
    command: str
    exit_code: int
    wall_s: float
    rss_mb: float
    verdicts: dict
    ok: bool


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_PINS)
    return env


def spawn(argv: list[str], log_path: Path, timeout_s: float):
    """Run one child to completion; returns (exit code, wall s, peak RSS MB).

    ``os.wait4`` reaps the child so its own rusage gives the peak RSS.  A
    child that outlives ``timeout_s`` is killed and reaped.
    """
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, cwd=ROOT, env=child_env(),
        )
        timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_args(step: Step, out: Path, seed: int) -> list[str]:
    if step.command == "simulate":
        return ["simulate", "--config", step.config, "--out", str(out), "--seed", str(seed)]
    if step.command == "verify":
        return ["verify", "--out", str(out), "--seed", str(seed)]
    if step.command == "sweep":
        return ["sweep", "--config", step.config, "--eps", step.sweep_eps, "--out", str(out),
                "--seed", str(seed)]
    if step.command == "toy":
        return ["toy", "--epsilon", step.toy_epsilon, "--out", str(out)]
    raise ValueError(f"unknown command {step.command!r}")


def run_pass(wl: Workload, expected: dict, seed: int, pass_dir: Path, deadline: float,
             traced: bool) -> list[CommandRun]:
    """Run the workload's commands once, each in a fresh interpreter."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    runs = []
    for step in wl.steps:
        out = pass_dir / "out" / step.out
        out.mkdir(parents=True, exist_ok=True)
        args = cli_args(step, out, seed)
        if traced:
            argv = [str(BENCH / "tracer.py"), str(pass_dir / f"trace_{step.label}"), *args]
        else:
            argv = ["-m", "dampedwave.cli", *args]
        log = pass_dir / f"{step.label}.log"
        code, wall, rss = spawn(argv, log, deadline - time.perf_counter())
        verdicts = {name: flag == "PASS" for flag, name in VERDICT_LINE.findall(log.read_text())}
        want = expected["commands"][step.label]
        ok = code == want["exit"] and verdicts == want["verdicts"]
        runs.append(CommandRun(step.label, step.command, code, wall, rss, verdicts, ok))
    return runs


def probe_setup(wl: Workload, log_path: Path, deadline: float) -> float:
    code, _, _ = spawn([str(BENCH / "setup_probe.py"), wl.setup_config], log_path,
                       deadline - time.perf_counter())
    lines = log_path.read_text().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"set-up probe exited {code}; see {log_path}")
    probe = json.loads(lines[-1])
    if not Path(probe["module"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported dampedwave from {probe['module']}, not from this checkout")
    return probe["setup_s"]


# ---------------------------------------------------------------------------
# measurement


def measure_end_to_end(wl: Workload, expected: dict, seed: int, seconds: float,
                       work: Path) -> tuple[dict, list[list[CommandRun]], dict]:
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    setups, passes = [], []
    while True:
        if len(setups) < SETUP_PROBES:
            setups.append(probe_setup(wl, work / f"setup_{len(setups)}.log", deadline))
        t_pass = time.perf_counter()
        passes.append(run_pass(wl, expected, seed, work / "pass", deadline, traced=False))
        now = time.perf_counter()
        last = now - t_pass
        # end nearest to `seconds`; never start a pass that could overrun the run limit
        if now - t_start + last / 2 >= seconds or now + 1.5 * last > deadline:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(wl, work / f"setup_{len(setups)}.log", deadline))
    total = sum(r.wall_s for p in passes for r in p)
    metrics = {
        "wall_s": total / len(passes),
        "node_steps_per_s": expected["node_steps"] * len(passes) / total,
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p) for p in passes),
        "setup_s": statistics.median(setups),
    }
    samples = {"passes": len(passes), "setup_probes": len(setups)}
    return metrics, passes, samples


def load_spans(prefix: Path) -> tuple[dict, dict, dict, dict]:
    """Per span name: calls, inclusive time and self time; plus side records.

    A span's self time is its duration minus the durations of the spans
    whose parent it is.  No entry point calls itself, so summing the
    inclusive time over one name counts no interval twice.
    """
    side = json.loads(prefix.with_suffix(".json").read_text())
    with np.load(prefix.with_suffix(".npz")) as z:
        name, start, end, parent = z["name"], z["start"], z["end"], z["parent"]
    dur = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    n = len(side["names"])
    calls = np.bincount(name, minlength=n)
    incl = np.bincount(name, weights=dur, minlength=n)
    excl = np.bincount(name, weights=self_time, minlength=n)
    names = side["names"]
    return ({k: int(calls[i]) for i, k in enumerate(names)},
            {k: float(incl[i]) for i, k in enumerate(names)},
            {k: float(excl[i]) for i, k in enumerate(names)},
            side)


def layer_metrics(pass_dir: Path, wl: Workload, expected: dict) -> dict:
    """The per-layer metrics of one traced pass, summed over its commands."""
    calls, incl, excl = {}, {}, {}
    trajectories, written = [], {}
    for step in wl.steps:
        c, i, e, side = load_spans(pass_dir / f"trace_{step.label}")
        for acc, part in ((calls, c), (incl, i), (excl, e), (written, side["written_bytes"])):
            for k, v in part.items():
                acc[k] = acc.get(k, 0) + v
        trajectories += side["trajectories"]

    m = {k: sum(incl.get(s, 0.0) for s in spans) for k, spans in SPAN_TIMES.items()}
    m.update({k: calls.get(s, 0) for k, s in SPAN_CALLS.items()})
    m.update({k: excl.get(s, 0.0) for k, s in SPAN_SELF.items()})
    steps = sum(t["steps"] for t in trajectories)
    node_steps = sum(t["steps"] * t["nodes"] for t in trajectories)
    newton = sum(t["newton_iters"] for t in trajectories)
    m["integrator.steps"] = steps
    m["integrator.node_steps"] = node_steps
    m["integrator.newton_iters"] = newton
    m["integrator.us_per_step"] = 1e6 * m["integrator.simulate_s"] / steps if steps else 0.0
    m["integrator.ns_per_node_step"] = (
        1e9 * m["integrator.simulate_s"] / node_steps if node_steps else 0.0)
    m["integrator.newton_per_step"] = newton / steps if steps else 0.0
    m["integrator.contact_fraction"] = (
        sum(t["contact_node_steps"] for t in trajectories) / node_steps if node_steps else 0.0)
    write_s = sum(incl.get(s, 0.0) for s in written)
    m["cli.write_mb_per_s"] = sum(written.values()) / write_s / 1e6 if write_s else 0.0
    m["cli.artifact_bytes"] = sum(
        p.stat().st_size for p in (pass_dir / "out").rglob("*") if p.is_file())
    want = expected.get("traj_digests", [])
    m["traj_digest_match"] = sum(
        i < len(want) and t["digest"] == want[i] for i, t in enumerate(trajectories))
    return m


def measure_traced(wl: Workload, expected: dict, seed: int, seconds: float,
                   work: Path) -> tuple[dict, list[list[CommandRun]], dict, list[str]]:
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    untraced = run_pass(wl, expected, seed, work / "untraced", deadline, traced=False)
    passes, layers = [], []
    while True:
        t_pass = time.perf_counter()
        pass_dir = work / f"traced_{len(passes)}"
        passes.append(run_pass(wl, expected, seed, pass_dir, deadline, traced=True))
        layers.append(layer_metrics(pass_dir, wl, expected))
        now = time.perf_counter()
        enough = len(passes) >= TRACED_PASSES and now - t_start >= seconds
        if enough or now + 1.5 * (now - t_pass) > deadline:
            break
    if len(passes) < TRACED_PASSES:
        raise BenchError("no time left for a second traced pass inside the run limit")

    metrics = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
    metrics["traj_digest_match"] = sum(layer["traj_digest_match"] for layer in layers)
    for k in EXACT_COUNTS:
        metrics[k] = layers[0][k]
    mismatches = [k for k in EXACT_COUNTS if any(layer[k] != layers[0][k] for layer in layers)]

    untraced_wall = sum(r.wall_s for r in untraced)
    traced_wall = statistics.median(sum(r.wall_s for r in p) for p in passes)
    metrics["trace_overhead"] = traced_wall / untraced_wall - 1.0
    for command in ("simulate", "verify", "sweep", "toy"):
        metrics[f"{command}_s"] = sum(r.wall_s for r in untraced if r.command == command)
    samples = {"traced_passes": len(passes), "untraced_passes": 1}
    return metrics, [untraced, *passes], samples, mismatches


# ---------------------------------------------------------------------------
# environment stamp


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def package_version(name: str) -> str | None:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "pyyaml": package_version("PyYAML"),
        "git_commit": git_commit(),
        "thread_pins": THREAD_PINS,
        "seed": seed,
    }


# ---------------------------------------------------------------------------


def check_checkout(wl: Workload) -> None:
    configs = {wl.setup_config} | {s.config for s in wl.steps if s.config}
    needed = [ROOT / "src" / "dampedwave" / "cli.py", *(ROOT / c for c in sorted(configs))]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a dampedwave source checkout; missing {', '.join(missing)}")


def run(name: str, seed: int, seconds: float, trace: bool, workloads=None,
        expected=None) -> dict:
    """Measure one workload; prints the report and returns the final object."""
    workloads = WORKLOADS if workloads is None else workloads
    if name not in workloads:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(workloads)}")
    wl = workloads[name]
    check_checkout(wl)
    if expected is None:
        expected = json.loads(EXPECTED.read_text())["workloads"][name]
    work = WORK / name / ("trace" if trace else "e2e")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    if trace:
        metrics, passes, samples, mismatches = measure_traced(wl, expected, seed, seconds, work)
        units = PER_LAYER
    else:
        metrics, passes, samples = measure_end_to_end(wl, expected, seed, seconds, work)
        mismatches = []
        units = END_TO_END
    runs = [r for p in passes for r in p]
    failed = sum(not r.ok for r in runs)
    if trace:
        metrics["fail_rate"] = failed / len(runs)

    for r in runs:
        if not r.ok:
            print(f"mismatch: {r.step} exited {r.exit_code} with verdicts {r.verdicts}")
    for k in mismatches:
        print(f"exact count differs between traced passes: {k}")
    print(f"workload {name}: {len(runs)} command runs, {failed} failed, samples {samples}")
    for k, unit in units.items():
        print(f"  {k} = {metrics[k]:.6g} {unit}")
    if not trace:
        # per-step means, informational: no workload runs every command
        for step in wl.steps:
            wall = statistics.fmean(r.wall_s for r in runs if r.step == step.label)
            print(f"  {step.label}_s = {wall:.6g} s")
        print(f"  fail_rate = {failed / len(runs):.6g} ratio")
    env = environment(seed)
    report = {
        "correct": failed == 0 and not mismatches,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    record = {"workload": name, "trace": trace, "samples": samples, "env": env,
              "commands": [dataclasses.asdict(r) for r in runs], **report}
    (work / "result.json").write_text(json.dumps(record, indent=2))
    print(json.dumps({"env": env}))
    print(json.dumps(report))
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so that spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
