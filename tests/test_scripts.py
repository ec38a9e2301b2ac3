"""Smoke runs of the experiment scripts on tiny inputs."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    module.main()


def test_run_toy_jump(monkeypatch, tmp_path):
    run_script(monkeypatch, "run_toy_jump", "--epsilon", "1e-4", "--out", str(tmp_path))
    report = json.loads((tmp_path / "toy_jump_report.json").read_text())
    assert report["epsilon"] == 1e-4 and report["dt"] == pytest.approx(1e-4)
    assert len(report["jumps"]) == 1
    assert report["jumps"][0]["v_before"] == pytest.approx(1.0)
    assert report["xi_total_mass"] == pytest.approx(2.0, rel=1e-3)
    assert math.isfinite(report["max_oracle_deviation"])


def test_run_sweep(monkeypatch, tmp_path):
    eps = [1e-2, 1e-3, 1e-4]
    run_script(monkeypatch, "run_sweep", "--eps", "1e-2,1e-3,1e-4", "--out", str(tmp_path))
    for name in ("toy", "contact_1d"):
        payload = json.loads((tmp_path / f"sweep_{name}.json").read_text())
        audit = payload["limsup_audit"]
        assert set(audit) == {"s_eps", "pairing", "rel_gap", "passed"}
        assert sorted(map(float, audit["s_eps"])) == sorted(eps)
        assert sorted(map(float, payload["mu_vanishing"])) == sorted(eps)
        assert set(payload["ratios"]) >= {"sup_v", "l1_mass"}
