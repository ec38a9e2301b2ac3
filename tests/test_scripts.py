"""Smoke runs of the experiment scripts on tiny inputs."""

import importlib.util
import json
import math
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"


def run_script(monkeypatch, name, *args, **attrs):
    """Run a script's ``main`` with ``args``, its module's ``attrs`` replaced."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for attr, value in attrs.items():
        monkeypatch.setattr(module, attr, value)
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


def test_run_sweep_configs_validate(monkeypatch, tmp_path):
    """The configs run_sweep.py builds in code pass ``SimConfig.validate``,
    parsers included."""
    labels = []

    def run(cfg, eps_list):
        labels.append(cfg.validate().label)
        return {"ratios": {}, "limsup_audit": {"rel_gap": 0.0}}

    run_script(monkeypatch, "run_sweep", "--out", str(tmp_path), run=run)
    assert labels == ["toy", "contact-1d"]


@pytest.mark.parametrize(
    "name, args, key",
    [
        ("run_toy_jump", ["--epsilon", "-1"], "--epsilon"),
        ("run_sweep", ["--eps", "1e-2,1e-3"], "eps"),
        ("run_nonuniqueness", ["--epsilon", "-1"], "--epsilon"),
    ],
)
def test_config_error_exits_2_with_one_line(monkeypatch, capsys, tmp_path, name, args, key):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args, "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCRIPTS / f"{name}.py"), run_name="__main__")
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")


CODE_LINES_SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a comment

# a comment line
def f(x):
    """A docstring."""
    y = """a string that is not a statement,
over two lines"""
    return (x +
            y)


class C:
    "a one-line docstring"
    z = os.sep
'''


def test_code_lines_counts_only_lines_with_code(monkeypatch, capsys, tmp_path):
    """Blank lines, comment lines and docstrings count for nothing; each line
    of a string that is not a statement counts, as does each line of a
    statement broken inside brackets: 8 lines in all."""
    path = tmp_path / "snippet.py"
    path.write_text(CODE_LINES_SNIPPET)
    run_script(monkeypatch, "code_lines", str(tmp_path))
    assert capsys.readouterr().out.splitlines() == [f"     8 {path}", "     8 total"]
