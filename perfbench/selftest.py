"""Self-test of the benchmark harness on shrunk inputs (about 20 s).

Usage (from the root of a source checkout): python3 perfbench/selftest.py

Runs every workload's command sequence on shortened configurations, once
untraced and once traced, and checks that the final JSON line carries
exactly the metrics BENCHMARK.json names, each with its unit, that no
command failed and that ``fail_rate`` is 0.  It also checks that the
benchmark refuses to run, printing no result, in a directory that holds
only BENCHMARK.json and the benchmark's files.  Exits 0 when all hold.
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import yaml

import run

# horizon T of each step's configuration; sweeps take three eps, toy 1e-4
SHRINK_T = {"simulate": 0.02, "sweep_contact": 0.3, "sweep_log": 0.3}
SHRINK_EPS = "1e-2,1e-3,1e-4"


class SelfTestFailure(Exception):
    pass


def expect(cond, message) -> None:
    if not cond:
        raise SelfTestFailure(message)


def shrunk_workloads(work: Path) -> dict:
    out = {}
    for name, wl in run.WORKLOADS.items():
        steps = []
        for step in wl.steps:
            if step.config is not None:
                doc = yaml.safe_load((run.ROOT / step.config).read_text())
                doc["time"]["T"] = SHRINK_T[step.label]
                cfg = work / f"{step.label}.yaml"
                cfg.write_text(yaml.safe_dump(doc))
                step = dataclasses.replace(step, config=str(cfg))
            steps.append(dataclasses.replace(step, sweep_eps=SHRINK_EPS, toy_epsilon="1e-4"))
        out[name] = dataclasses.replace(wl, steps=tuple(steps))
    return out


def run_quiet(*args, **kwargs):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        report = run.run(*args, **kwargs)
    lines = buf.getvalue().splitlines()
    expect(json.loads(lines[-1]) == report, "last stdout line is not the result")
    expect("env" in json.loads(lines[-2]), "environment stamp missing")
    return report, lines


def check_report(report: dict, wanted: list, label: str) -> None:
    expect(set(report) == {"correct", "attempted", "failed", "metrics"}, label)
    expect(report["correct"] is True and report["failed"] == 0, f"{label}: {report}")
    expect(isinstance(report["attempted"], int) and report["attempted"] >= 1, label)
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    expect(got == want, f"{label}: metrics {got} != {want}")
    for k, v in report["metrics"].items():
        expect(math.isfinite(v["value"]), f"{label}: {k} = {v['value']}")


def check_refuses_without_source(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("_work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweeps_toy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    expect(proc.returncode != 0, "benchmark ran without the program's sources")
    expect('"metrics"' not in proc.stdout, "benchmark printed a result without sources")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "workload names")
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run.SETUP_PROBES = 1
    full = json.loads(run.EXPECTED.read_text())["workloads"]
    workloads = shrunk_workloads(work)
    for name in workloads:
        expected = {"commands": full[name]["commands"], "node_steps": 1}
        traced, _ = run_quiet(name, 0, 0, True, workloads, expected)
        check_report(traced, bench["per_layer"], f"{name} traced")
        expect(traced["metrics"]["fail_rate"]["value"] == 0.0, f"{name}: fail_rate not 0")
        expected["node_steps"] = traced["metrics"]["integrator.node_steps"]["value"]
        plain, lines = run_quiet(name, 0, 0, False, workloads, expected)
        check_report(plain, bench["end_to_end"], f"{name} end to end")
        expect("  fail_rate = 0 ratio" in lines, f"{name}: fail_rate not 0")
        expect(all(v["value"] > 0 for v in plain["metrics"].values()), f"{name}: a zero metric")
        print(f"ok {name}")
    check_refuses_without_source(work)
    print("ok refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
