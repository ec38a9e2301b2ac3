"""Command-line interface: artifacts, exit codes, verify semantics."""

import json
import shutil

import numpy as np
import pytest
import yaml

import dampedwave.integrator
from dampedwave.cli import main, read_trajectory_csv
from dampedwave.errors import ConfigError, MissingArtifact
from dampedwave.config import from_dict, load_config

TOY_DOC = {
    "label": "cli-toy",
    "space": {"length": 1.0, "n_nodes": 1, "bc": "neumann"},
    "graph": {"kind": "indicator", "epsilon": 1e-3},
    "time": {"T": 2.0, "dt": 1e-3, "theta": 0.5},
    "init": {"u0": "zero", "u1": "constant:1"},
    "forcing": "zero",
    "newton": {"tol": 1e-10, "max_iter": 50},
    "lambda": 0.0,
}


def write_config(tmp_path, doc, name="run.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(doc))
    return p


@pytest.fixture(scope="module")
def toy_run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp, TOY_DOC)
    out = tmp / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return out


class TestSimulate:
    def test_artifacts_and_manifest(self, toy_run_dir):
        manifest = json.loads((toy_run_dir / "manifest.json").read_text())
        core = {"trajectory.csv", "energy.csv", "xi.csv", "summary.json"}
        assert core.issubset(set(manifest["files"]))
        assert len(core) == 4
        for f in manifest["files"]:
            assert (toy_run_dir / f).exists()
        assert all(manifest["verdicts"].values())

    def test_energy_csv_columns(self, toy_run_dir):
        header = (toy_run_dir / "energy.csv").read_text().splitlines()[0]
        assert header == ("t,kinetic,gradient,potential,concave,total,"
                          "dissipation_cum,equality_residual")

    def test_xi_csv_columns(self, toy_run_dir):
        header = (toy_run_dir / "xi.csv").read_text().splitlines()[0]
        assert header == "t_bin,x_bin,mass"

    def test_nonpositive_dt_names_key(self, tmp_path):
        doc = {**TOY_DOC, "time": {"T": 2.0, "dt": -1.0}}
        cfg = write_config(tmp_path, doc)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        with pytest.raises(ConfigError, match="time.dt"):
            load_config(cfg)

    def test_missing_graph_kind_names_key(self, tmp_path):
        doc = {k: v for k, v in TOY_DOC.items() if k != "graph"}
        doc["graph"] = {"epsilon": 1e-3}
        cfg = write_config(tmp_path, doc)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        with pytest.raises(ConfigError, match="graph.kind"):
            load_config(cfg)


class TestSweepCommand:
    def test_sweep_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, TOY_DOC)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--eps", "1e-2,1e-3,1e-4",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "sweep_report.json").read_text())
        assert report["eps_list"] == [1e-2, 1e-3, 1e-4]
        assert report["limsup_audit"]["passed"]

    def test_two_entry_list_rejected(self, tmp_path):
        cfg = write_config(tmp_path, TOY_DOC)
        code = main(["sweep", "--config", str(cfg), "--eps", "1e-2,1e-3",
                     "--out", str(tmp_path / "s")])
        assert code == 2

    def test_nondecreasing_list_rejected(self, tmp_path):
        cfg = write_config(tmp_path, TOY_DOC)
        code = main(["sweep", "--config", str(cfg), "--eps", "1e-4,1e-3,1e-2",
                     "--out", str(tmp_path / "s")])
        assert code == 2


class TestToyCommand:
    def test_emits_comparison_and_phase_csv(self, tmp_path):
        out = tmp_path / "toy"
        code = main(["toy", "--out", str(out), "--epsilon", "1e-4"])
        assert code == 0
        assert (out / "toy_compare.csv").exists()
        assert (out / "phase_portrait.csv").exists()


class TestVerify:
    def test_intact_run_passes(self, toy_run_dir):
        assert main(["verify", "--out", str(toy_run_dir)]) == 0

    def test_idempotent(self, toy_run_dir):
        assert main(["verify", "--out", str(toy_run_dir)]) == 0
        first = json.loads((toy_run_dir / "verify_verdicts.json").read_text())
        assert main(["verify", "--out", str(toy_run_dir)]) == 0
        second = json.loads((toy_run_dir / "verify_verdicts.json").read_text())
        assert first == second

    def test_tampered_energy_csv_fails(self, toy_run_dir, tmp_path):
        tampered = tmp_path / "tampered"
        shutil.copytree(toy_run_dir, tampered)
        p = tampered / "energy.csv"
        lines = p.read_text().splitlines()
        cols = lines[-1].split(",")
        cols[5] = str(float(cols[5]) + 0.123)  # corrupt the total column
        lines[-1] = ",".join(cols)
        p.write_text("\n".join(lines) + "\n")
        code = main(["verify", "--out", str(tampered)])
        assert code == 1
        verdicts = json.loads((tampered / "verify_verdicts.json").read_text())
        assert not verdicts["energy_ledger_consistent"]["passed"]

    def test_empty_dir_is_missing_artifact(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["verify", "--out", str(empty)]) == 2


GRID_DOC = {
    **TOY_DOC,
    "label": "cli-grid",
    "space": {"length": 1.0, "n_nodes": 5, "bc": "neumann"},
    "time": {"T": 0.05, "dt": 1e-3, "theta": 1.0},
    "init": {"u0": "cosine:1:0.01", "u1": "constant:1"},
}


@pytest.fixture(scope="module")
def grid_run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_grid")
    out = tmp / "out"
    assert main(["simulate", "--config", str(write_config(tmp, GRID_DOC)), "--out", str(out)]) == 0
    return out


def _rewrite_rows(run_dir, tmp_path, edit):
    """Copy of run_dir whose trajectory.csv data rows went through edit."""
    bad = tmp_path / "bad"
    shutil.copytree(run_dir, bad)
    p = bad / "trajectory.csv"
    header, *rows = p.read_bytes().decode().split("\r\n")[:-1]
    p.write_bytes(("\r\n".join([header] + edit(rows)) + "\r\n").encode())
    return bad


class TestVerifyMalformedTrajectory:
    """A malformed trajectory.csv is an I/O error (exit 2), not a failed check."""

    def _assert_rejected(self, bad, match):
        assert main(["verify", "--out", str(bad)]) == 2
        cfg = from_dict(json.loads((bad / "manifest.json").read_text())["config"])
        with pytest.raises(MissingArtifact, match=match):
            read_trajectory_csv(bad / "trajectory.csv", cfg)

    def test_intact_grid_run_passes(self, grid_run_dir):
        assert main(["verify", "--out", str(grid_run_dir)]) == 0

    def test_row_truncated_mid_row(self, grid_run_dir, tmp_path):
        bad = _rewrite_rows(grid_run_dir, tmp_path, lambda rows: rows[:-1] + [rows[-1][:8]])
        self._assert_rejected(bad, "malformed row")

    def test_non_numeric_value(self, grid_run_dir, tmp_path):
        def edit(rows):
            cols = rows[40].split(",")
            cols[2] = "abc"
            return rows[:40] + [",".join(cols)] + rows[41:]

        self._assert_rejected(_rewrite_rows(grid_run_dir, tmp_path, edit), "malformed row")

    def test_duplicate_pair(self, grid_run_dir, tmp_path):
        def edit(rows):
            cols = rows[41].split(",")
            cols[1] = str(int(cols[1]) - 1)  # same time, the previous row's node
            return rows[:41] + [",".join(cols)] + rows[42:]

        bad = _rewrite_rows(grid_run_dir, tmp_path, edit)
        self._assert_rejected(bad, r"missing or duplicate \(t, node\) pair")

    def test_missing_pair(self, grid_run_dir, tmp_path):
        def edit(rows):
            cols = rows[41].split(",")
            cols[0] = "0.0405"  # moved off the time grid: its own pair goes missing
            return rows[:41] + [",".join(cols)] + rows[42:]

        bad = _rewrite_rows(grid_run_dir, tmp_path, edit)
        self._assert_rejected(bad, r"missing or duplicate \(t, node\) pair")

    def test_node_count(self, grid_run_dir, tmp_path):
        bad = _rewrite_rows(
            grid_run_dir, tmp_path, lambda rows: [r for r in rows if r.split(",")[1] != "4"]
        )
        self._assert_rejected(bad, "has 4 nodes, the run has 5")

    def test_row_count(self, grid_run_dir, tmp_path):
        bad = _rewrite_rows(grid_run_dir, tmp_path, lambda rows: rows[:-5])
        self._assert_rejected(bad, "has 250 rows, the run needs 255")


def test_singular_newton_system_exits_2(tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(dampedwave.integrator, "solve_banded", singular)
    cfg = write_config(tmp_path, GRID_DOC)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_malformed_energy_csv_exits_2(toy_run_dir, tmp_path):
    bad = tmp_path / "bad"
    shutil.copytree(toy_run_dir, bad)
    p = bad / "energy.csv"
    lines = p.read_text().splitlines()
    cols = lines[10].split(",")
    cols[5] = "abc"  # the total column, which verify compares
    lines[10] = ",".join(cols)
    p.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--out", str(bad)]) == 2


class TestMalformedConfigExits2:
    """Each malformed config is a ConfigError naming the key (exit 2), not a traceback."""

    def _assert_config_error(self, tmp_path, doc, key):
        cfg = write_config(tmp_path, doc)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        with pytest.raises(ConfigError) as info:
            from dampedwave.integrator import simulate

            simulate(load_config(cfg))
        assert info.value.key == key

    def test_nan_dt(self, tmp_path):
        doc = {**TOY_DOC, "time": {"T": 2.0, "dt": float("nan")}}
        self._assert_config_error(tmp_path, doc, "time.dt")

    def test_non_numeric_dt(self, tmp_path):
        doc = {**TOY_DOC, "time": {"T": 2.0, "dt": "abc"}}
        self._assert_config_error(tmp_path, doc, "time.dt")

    def test_space_not_a_mapping(self, tmp_path):
        self._assert_config_error(tmp_path, {**TOY_DOC, "space": 5}, "space")

    def test_missing_forcing_table(self, tmp_path):
        doc = {**TOY_DOC, "forcing": f"table:{tmp_path / 'missing.csv'}"}
        self._assert_config_error(tmp_path, doc, "forcing")

    def test_unknown_newton_key(self, tmp_path):
        doc = {**TOY_DOC, "newton": {"tolerance": 1e-3}}
        self._assert_config_error(tmp_path, doc, "newton.tolerance")


def test_unwritable_output_exits_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    cfg = write_config(tmp_path, TOY_DOC)
    assert main(["simulate", "--config", str(cfg), "--out", str(blocker / "o")]) == 2
