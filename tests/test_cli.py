"""Command-line interface: artifacts, exit codes, verify semantics."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import dampedwave.cli
import dampedwave.integrator
from dampedwave.cli import (
    RUN_FIELDS,
    main,
    read_run_npz,
    read_trajectory_csv,
    write_run_npz,
    write_trajectory_csv,
)
from dampedwave.errors import ConfigError, MissingArtifact
from dampedwave.config import from_dict, load_config
from dampedwave.integrator import map_blocks, run_records

# the per-step records, which read_run_npz rebuilds from the states
RECORDS = ("beta_theta", "diss_incr", "power_incr")

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
    code = main(["simulate", "--config", str(cfg), "--out", str(out), "--csv"])
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


    def test_the_seed_changes_no_byte(self, tmp_path):
        """No check draws a random number: simulate and verify at two seeds
        write the same files, byte for byte."""
        cfg = write_config(tmp_path, TOY_DOC)
        outs = [tmp_path / "seed_0", tmp_path / "seed_7"]
        for seed, out in zip(("0", "7"), outs):
            assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 0
            assert main(["verify", "--out", str(out), "--seed", seed]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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

    def test_csv_bytes_are_pinned(self, tmp_path):
        """sha256 of both files as the row-by-row csv.writer loops wrote them
        (same numpy/scipy builds as tests/test_reference.py)."""
        out = tmp_path / "toy"
        assert main(["toy", "--out", str(out), "--epsilon", "1e-4", "--T", "0.5"]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("toy_compare.csv", "phase_portrait.csv")
        }
        assert digests == {
            "toy_compare.csv": "c70c10d55e01f86dfa140b4f958579d54a64a88b5dca74ed5b148629b95006f1",
            "phase_portrait.csv": "ec4255b5f4068076b01ab458dae89ad4c082efbaf1a59a3e8826913668a7a665",
        }


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


# configs/neumann_contact.yaml on 9 nodes
NEUMANN_CONTACT_9 = {
    **yaml.safe_load((Path(__file__).parent.parent / "configs" / "neumann_contact.yaml").read_text()),
    "space": {"length": 1.0, "n_nodes": 9, "bc": "neumann"},
}


@pytest.fixture(scope="module")
def grid_run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_grid")
    out = tmp / "out"
    assert main(
        ["simulate", "--config", str(write_config(tmp, GRID_DOC)), "--out", str(out), "--csv"]
    ) == 0
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

    # step 0 is a dead-zone step, whose solve is the factored one
    monkeypatch.setattr(dampedwave.integrator, "solve_banded", singular)
    monkeypatch.setattr(dampedwave.integrator, "factor_banded", singular)
    cfg = write_config(tmp_path, GRID_DOC)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_run_with_dt_below_a_nanosecond_is_checked(tmp_path, capsys):
    """The checks look up the run's own times, which a fixed 1e-9 tolerance
    misses at dt = 1e-10 (simulate would exit 2)."""
    doc = {
        **GRID_DOC,
        "space": {"length": 1.0, "n_nodes": 9, "bc": "neumann"},
        "time": {"T": 1.0e-7, "dt": 1.0e-10, "theta": 1.0},
        "init": {"u0": "cosine:1:0.5", "u1": "constant:1"},
    }
    code = main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    assert code in (0, 1)
    assert "error:" not in capsys.readouterr().err


def test_horizon_off_the_step_grid_below_a_nanosecond_exits_2(tmp_path, capsys):
    """T / dt = 107.7 steps: a tolerance of 1e-9 on T alone accepts 108 steps,
    a run that ends at t = 1.404e-8; a quarter step refuses it."""
    doc = {**TOY_DOC, "time": {"T": 1.4e-8, "dt": 1.3e-10, "theta": 0.5}}
    code = main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "is not an integer multiple of dt" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "key, edit, message",
        [
            ("init", lambda tmp: {"init": {"u0": "ramp"}}, "unknown profile 'ramp'"),
            ("init", lambda tmp: {"init": {"u0": f"csv:{tmp}/u.csv:1"}}, "unknown profile 'csv'"),
            ("forcing", lambda tmp: {"forcing": f"table:{tmp}/g.csv"},
             "unknown forcing 'table:{tmp}/g.csv'"),
        ],
        ids=["ramp", "csv", "table"],
    )
    def test_removed_spec_is_unknown(self, tmp_path, capsys, key, edit, message):
        """The ``ramp`` and ``csv:path:col`` profiles and ``table:path``
        forcing are not part of the run document: each exits 2 with one
        error line naming ``init`` or ``forcing``, though its data file
        exists and fits the grid."""
        n = GRID_DOC["space"]["n_nodes"]
        (tmp_path / "u.csv").write_text("x,u\n" + "".join(f"{i},0.1\n" for i in range(n)))
        (tmp_path / "g.csv").write_text("0" + ",1" * n + "\n1" + ",1" * n + "\n")
        self._assert_config_error(tmp_path, {**GRID_DOC, **edit(tmp_path)}, key)
        assert capsys.readouterr().err == f"error: {key}: {message.format(tmp=tmp_path)}\n"

    def test_unknown_newton_key(self, tmp_path):
        doc = {**TOY_DOC, "newton": {"tolerance": 1e-3}}
        self._assert_config_error(tmp_path, doc, "newton.tolerance")

    @pytest.mark.parametrize("base", [TOY_DOC, GRID_DOC], ids=["one_node", "grid"])
    @pytest.mark.parametrize(
        "key, edit",
        [
            ("init", {"init": {"u0": "constant:nan", "u1": "zero"}}),
            ("init", {"init": {"u0": "constant:inf", "u1": "zero"}}),
            ("init", {"init": {"u0": "sine:1:nan", "u1": "zero"}}),
            ("init", {"init": {"u0": "cosine:1:inf", "u1": "zero"}}),
            ("init", {"init": {"u0": "zero", "u1": "constant:nan"}}),
            ("forcing", {"forcing": "constant:nan"}),
        ],
        ids=["u0_nan", "u0_inf", "u0_sine_nan", "u0_cosine_inf", "u1_nan", "forcing_nan"],
    )
    def test_non_finite_profile_names_key(self, tmp_path, capsys, base, key, edit):
        """A profile or forcing with a value that is not finite exits 2 with one
        error line naming ``init`` or ``forcing``: no traceback, no Newton failure."""
        self._assert_config_error(tmp_path, {**base, **edit}, key)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and "not finite" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("base", [TOY_DOC, GRID_DOC], ids=["one_node", "grid"])
    @pytest.mark.parametrize(
        "array",
        [
            lambda n: [1] + ["x"] * n,
            lambda n: "x",
            lambda n: 0.5,
            lambda n: [0.1] * (n + 1),
            lambda n: [[0.1]] * n,
        ],
        ids=["text_entry", "text", "number", "wrong_length", "nested"],
    )
    def test_malformed_init_array_names_init(self, tmp_path, capsys, base, array):
        """An ``init.u0: {array: ...}`` that is not a list of one number per
        node exits 2 with one error line naming ``init``, not a traceback."""
        n = base["space"]["n_nodes"]
        doc = {**base, "init": {"u0": {"array": array(n)}, "u1": "zero"}}
        self._assert_config_error(tmp_path, doc, "init")
        err = capsys.readouterr().err
        assert err.startswith("error: init: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "data", [b"\x00\xff", yaml.safe_dump(TOY_DOC).encode() + b"\xff", "label: caf\xe9".encode("latin-1")],
        ids=["nul_ff", "trailing_ff", "latin1"],
    )
    def test_non_utf8_config_names_the_file(self, tmp_path, capsys, data):
        """A config file that is not UTF-8 text exits 2 with one error line
        naming the file, not a traceback."""
        cfg = tmp_path / "run.yaml"
        cfg.write_bytes(data)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: file: cannot parse config {cfg}") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "data, message",
        [(b"\x00\xff", "not UTF-8 text: byte 0xff at offset 1 (invalid start byte)"),
         (b"a: [1, 2\nb: 3\n", "while parsing a flow sequence at line 1, column 4; "
                                "expected ',' or ']', but got ':' at line 2, column 2"),
         (b"a: 1\x07\n", "character U+0007 at character 4 (special characters are not allowed)")],
        ids=["nul_ff", "syntax", "control_character"],
    )
    def test_parse_error_is_one_line(self, tmp_path, capsys, data, message):
        """A config that does not parse prints exactly one ``error: file:``
        line: bytes that are not UTF-8 are named with their offset, a syntax
        error with its line and column."""
        cfg = tmp_path / "bad.yaml"
        cfg.write_bytes(data)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: file: cannot parse config {cfg}: {message}\n"

    @pytest.mark.parametrize(
        "base, lam, terms",
        [(TOY_DOC, 0.0, "potential = inf"), (GRID_DOC, 0.0, "potential = inf"),
         (TOY_DOC, 1.0, "potential = inf, concave = -inf"),
         (GRID_DOC, 1.0, "potential = inf, concave = -inf")],
        ids=["one_node", "grid", "one_node_lambda1", "grid_lambda1"],
    )
    def test_infinite_initial_energy_names_init(self, tmp_path, capsys, base, lam, terms):
        """Finite initial values whose energy E_eps(u0, u1) overflows exit 2 with
        one error line naming ``init`` and the terms that are not finite: no
        overflow warning, no verdict file.  With lambda = 0 the concave term
        is 0, not the nan of 0 * inf; with lambda > 0 the line names the +inf
        potential and the -inf concave term instead of their sum, nan."""
        doc = {**base, "lambda": lam, "init": {"u0": "constant:1e300", "u1": "zero"}}
        self._assert_config_error(tmp_path, doc, "init")
        err = capsys.readouterr().err
        assert err == f"error: init: the initial energy E_eps(u0, u1) is not finite: {terms}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "graph, c",
        [({"kind": "indicator", "epsilon": 1e-3}, "1.5"),
         ({"kind": "indicator", "epsilon": 1e-3}, "2"),
         ({"kind": "logarithmic", "epsilon": 1e-3}, "1.5"),
         ({"kind": "family", "r_threshold": 0.9, "eps_param": 0.1}, "1.01")],
        ids=["indicator_1.5", "indicator_2", "logarithmic", "family"],
    )
    def test_initial_data_outside_the_constraint_name_init(self, tmp_path, capsys, graph, c):
        """The existence result asks for a finite physical energy, with the
        limit potential j: u0 = c > 1 has j(u0) = inf, though its regularized
        energy is finite and the run would pass every check.  It exits 2 with
        one error line naming ``init``, the largest |u0| and its node."""
        doc = {**NEUMANN_CONTACT_9, "graph": graph, "init": {"u0": f"constant:{c}", "u1": "constant:1"}}
        self._assert_config_error(tmp_path, doc, "init")
        assert capsys.readouterr().err == (
            f"error: init: the physical energy E(u0, u1) is not finite: |u0| = {float(c)!r} at node 0\n"
        )
        assert not (tmp_path / "o").exists()

    def test_largest_value_outside_the_constraint_is_named_with_its_node(self, tmp_path, capsys):
        doc = {**NEUMANN_CONTACT_9, "init": {"u0": {"array": [0, 0.5, -1.25, 1, 0, 0, 1.5, -2, 0]}}}
        self._assert_config_error(tmp_path, doc, "init")
        assert capsys.readouterr().err.endswith("|u0| = 2.0 at node 7\n")

    @pytest.mark.parametrize("u0", ["constant:1", "constant:-1", "cosine:1:1"])
    def test_initial_data_on_the_constraint_run(self, tmp_path, u0):
        """|u0| = 1 has a finite physical energy: such data run."""
        doc = {**NEUMANN_CONTACT_9, "time": {"T": 0.1, "dt": 1e-3, "theta": 1.0},
               "init": {"u0": u0, "u1": "constant:1"}}
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) in (0, 1)
        assert (out / "verdicts.json").exists()

    def test_initial_energy_whose_terms_sum_past_the_float_range_names_the_total(self, tmp_path, capsys):
        """Finite kinetic and potential terms whose sum overflows name the total."""
        doc = {**TOY_DOC, "regularize_u0": False,
               "init": {"u0": "constant:4.9e152", "u1": "constant:1.3e154"}}
        self._assert_config_error(tmp_path, doc, "init")
        err = capsys.readouterr().err
        assert err == "error: init: the initial energy E_eps(u0, u1) is not finite: total = inf\n"

    @pytest.mark.parametrize(
        "key, value",
        [("label", [1, 2]), ("label", None), ("space.bc", None), ("graph.kind", 5)],
        ids=["label_list", "label_null", "bc_null", "kind_number"],
    )
    def test_string_key_of_another_type_names_it(self, tmp_path, capsys, key, value):
        """``space.bc``, ``graph.kind`` and ``label`` must be strings: any
        other value exits 2 with one error line naming the key."""
        *section, name = key.split(".")
        if section:
            doc = {**TOY_DOC, section[0]: {**TOY_DOC[section[0]], name: value}}
        else:
            doc = {**TOY_DOC, name: value}
        self._assert_config_error(tmp_path, doc, key)
        assert capsys.readouterr().err == f"error: {key}: must be a string, got {value!r}\n"

    def test_value_yaml_cannot_build_is_a_parse_error(self, tmp_path, capsys):
        """A scalar YAML reads as a value it cannot build (a date with month
        13) prints one ``error: file:`` line, not a traceback."""
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({**TOY_DOC, "label": "x"}).replace("label: x", "label: 2024-13-01"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: file: cannot parse config {cfg}: month must be in 1..12\n"

    def test_utf8_config_with_crlf_loads_as_its_text(self, tmp_path):
        """UTF-8 text, non-ASCII and CRLF line ends included, gives the config of its text."""
        text = yaml.safe_dump({**TOY_DOC, "label": "café ±1"}, allow_unicode=True)
        cfg = tmp_path / "run.yaml"
        cfg.write_bytes(text.replace("\n", "\r\n").encode())
        assert load_config(cfg) == from_dict(yaml.safe_load(text))


def test_unwritable_output_exits_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    cfg = write_config(tmp_path, TOY_DOC)
    assert main(["simulate", "--config", str(cfg), "--out", str(blocker / "o")]) == 2


# ---------------------------------------------------------------------------
# run.npz: the canonical artifact that verify reads


@pytest.fixture(scope="module")
def npz_run_dir(tmp_path_factory):
    """A grid run written without --csv."""
    tmp = tmp_path_factory.mktemp("cli_npz")
    out = tmp / "out"
    assert main(["simulate", "--config", str(write_config(tmp, GRID_DOC)), "--out", str(out)]) == 0
    return out


def _copy_with(run_dir, tmp_path, edit):
    """Copy of run_dir whose run.npz went through edit (a path -> None)."""
    bad = tmp_path / "bad"
    shutil.copytree(run_dir, bad)
    edit(bad / "run.npz")
    return bad


def _arrays(edit):
    """An edit that rewrites run.npz from edit(arrays), a dict -> dict."""
    def rewrite(path):
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        np.savez(path, **edit(arrays))

    return rewrite


def _replace(key, value):
    return _arrays(lambda a: {**a, key: value(a[key])})


def _set(index, x):
    """A copy of an array with one element set to x."""
    def edit(a):
        a = a.copy()
        a[index] = x
        return a

    return edit


def _verify_verdicts(run_dir):
    return json.loads((run_dir / "verify_verdicts.json").read_text())


class TestRunNpz:
    def test_default_simulate_writes_npz_and_no_csv(self, npz_run_dir):
        assert (npz_run_dir / "run.npz").exists()
        assert not (npz_run_dir / "trajectory.csv").exists()
        files = json.loads((npz_run_dir / "manifest.json").read_text())["files"]
        assert "run.npz" in files and "trajectory.csv" not in files

    def test_verify_prints_no_csv_verdict_without_csv(self, npz_run_dir, capsys):
        assert main(["verify", "--out", str(npz_run_dir)]) == 0
        assert "trajectory_csv_consistent" not in capsys.readouterr().out
        assert "trajectory_csv_consistent" not in _verify_verdicts(npz_run_dir)

    @pytest.mark.parametrize("doc", [TOY_DOC, GRID_DOC], ids=["scalar", "grid"])
    def test_round_trip_is_bit_identical(self, doc, tmp_path):
        cfg = from_dict(doc)
        traj = dampedwave.integrator.simulate(cfg)
        write_run_npz(tmp_path / "run.npz", traj)
        back = read_run_npz(tmp_path / "run.npz", cfg)
        for k in RUN_FIELDS + RECORDS:
            assert getattr(back, k).dtype == getattr(traj, k).dtype
            assert getattr(back, k).tobytes() == getattr(traj, k).tobytes()

    @pytest.mark.parametrize("doc", [TOY_DOC, GRID_DOC], ids=["scalar", "grid"])
    def test_npz_holds_the_savez_bytes(self, doc, tmp_path):
        """write_run_npz writes each array without a copy, and the file is
        the one np.savez writes, byte for byte."""
        traj = dampedwave.integrator.simulate(from_dict(doc))
        write_run_npz(tmp_path / "run.npz", traj)
        np.savez(tmp_path / "savez.npz", **{k: getattr(traj, k) for k in RUN_FIELDS})
        assert (tmp_path / "run.npz").read_bytes() == (tmp_path / "savez.npz").read_bytes()

    def test_csv_export_bytes_match_writer(self, grid_run_dir, tmp_path):
        ref = tmp_path / "ref.csv"
        write_trajectory_csv(ref, dampedwave.integrator.simulate(from_dict(GRID_DOC)))
        assert (grid_run_dir / "trajectory.csv").read_bytes() == ref.read_bytes()

    def test_manifest_config_hash_is_the_configs(self, tmp_path, npz_run_dir):
        cfg_path = write_config(tmp_path, GRID_DOC)
        manifest = json.loads((npz_run_dir / "manifest.json").read_text())
        assert manifest["config_hash"] == load_config(cfg_path).config_hash()


NOT_READABLE = "not a readable npz archive"


def _central_directory_field(offset, value):
    """An edit that sets a 2-byte field of the first central directory entry of a zip."""
    def edit(path):
        raw = bytearray(path.read_bytes())
        at = raw.index(b"PK\x01\x02") + offset
        raw[at:at + 2] = value.to_bytes(2, "little")
        path.write_bytes(bytes(raw))

    return edit


def _with_records(arrays):
    """The members of a run.npz written before the records were rebuilt
    from the states: the states' records between V and newton_iters."""
    cfg = from_dict(GRID_DOC)
    U, beta = arrays["U"], cfg.reaction().beta
    B = map_blocks(*U.shape, lambda rows: beta(U[rows]))
    records = dict(zip(RECORDS, run_records(cfg, arrays["V"], B)))
    head = {k: arrays[k] for k in ("times", "U", "V")}
    return {**head, **records, "newton_iters": arrays["newton_iters"]}


MALFORMED_NPZ = {
    "missing_file": (lambda p: p.unlink(), NOT_READABLE),
    "truncated": (lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]), NOT_READABLE),
    "not_a_zip": (lambda p: p.write_bytes(b"t,node,u,v\r\n0,0,0,0\r\n"), NOT_READABLE),
    "empty": (lambda p: p.write_bytes(b""), NOT_READABLE),
    "missing_key": (_arrays(lambda a: {k: v for k, v in a.items() if k != "V"}), "a run holds"),
    "extra_key": (_arrays(lambda a: {**a, "note": np.zeros(3)}), "a run holds"),
    "int_as_float": (_replace("newton_iters", lambda a: a.astype(float)), "newton_iters is not int64"),
    "float32": (_replace("U", lambda a: a.astype(np.float32)), "U is not float64"),
    "row_count": (_replace("U", lambda a: a[:-1]), "U is not float64 of shape"),
    "node_count": (_replace("V", lambda a: a[:, :-1]), "V is not float64 of shape"),
    "non_finite": (_replace("V", _set((7, 2), np.nan)), "V has a non-finite value"),
    "times_not_increasing": (_replace("times", lambda a: _set(3, a[2])(a)), "strictly increasing"),
    "object_array": (_replace("U", lambda a: a.astype(object)), "allow_pickle"),
    "encrypted_flag": (_central_directory_field(8, 1), NOT_READABLE),
    "unknown_compression": (_central_directory_field(10, 99), NOT_READABLE),
    "parent_format": (_arrays(_with_records), "a run holds"),
}


class TestVerifyMalformedRunNpz:
    """A malformed run.npz is an I/O error (exit 2), not a failed check."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_NPZ))
    def test_rejected(self, case, npz_run_dir, tmp_path):
        edit, match = MALFORMED_NPZ[case]
        bad = _copy_with(npz_run_dir, tmp_path, edit)
        assert main(["verify", "--out", str(bad)]) == 2
        with pytest.raises(MissingArtifact, match=match):
            read_run_npz(bad / "run.npz", from_dict(GRID_DOC))


class TestVerifyTamperedRecords:
    """run.npz stores no records to tamper with: an intact run passes the
    ledger, and an edit of its bytes fails it (``TestVerifyManifest``)."""

    def test_intact_ledger_passes(self, npz_run_dir):
        assert main(["verify", "--out", str(npz_run_dir)]) == 0
        assert _verify_verdicts(npz_run_dir)["energy_ledger_consistent"]["passed"]


CONFIGS = Path(__file__).parent.parent / "configs"

LOG_DOC = {
    **GRID_DOC,
    "label": "cli-log",
    "space": {"length": 1.0, "n_nodes": 9, "bc": "neumann"},
    "graph": {"kind": "logarithmic", "epsilon": 1e-3},
    "time": {"T": 0.3, "dt": 1e-3, "theta": 1.0},
}


@pytest.fixture(scope="module")
def record_run_dirs(tmp_path_factory):
    """``--csv`` runs of configs/toy_jump.yaml, configs/pressed_wall.yaml (forced),
    a short logarithmic grid (whose simulate fails singular_support) and the
    same logarithmic run on one node (the scalar kernel)."""
    tmp = tmp_path_factory.mktemp("cli_records")
    configs = {name: CONFIGS / f"{name}.yaml" for name in ("toy_jump", "pressed_wall")}
    configs["logarithmic"] = write_config(tmp, LOG_DOC)
    one_node = {**LOG_DOC, "space": {**LOG_DOC["space"], "n_nodes": 1}}
    configs["logarithmic_node"] = write_config(tmp, one_node, "node.yaml")
    dirs = {name: tmp / name for name in configs}
    for name, cfg in configs.items():
        main(["simulate", "--config", str(cfg), "--out", str(dirs[name]), "--csv"])
    return dirs


class TestVerifyRecordsExactly:
    """read_run_npz rebuilds the records with the step kernel's own function,
    so verify's battery is the one simulate ran."""

    def test_pressed_wall_power_is_nonzero(self, record_run_dirs):
        """pressed_wall is forced: the power records rebuilt from its states are not zero."""
        cfg = load_config(CONFIGS / "pressed_wall.yaml")
        power = read_run_npz(record_run_dirs["pressed_wall"] / "run.npz", cfg).power_incr
        assert np.all(power != 0.0)

    @pytest.mark.parametrize("run", ["toy_jump", "pressed_wall", "logarithmic", "logarithmic_node"])
    def test_battery_equals_simulates(self, record_run_dirs, run):
        out = record_run_dirs[run]
        main(["verify", "--out", str(out)])
        verified = _verify_verdicts(out)
        assert verified["energy_ledger_consistent"]["passed"]
        for name, entry in json.loads((out / "verdicts.json").read_text()).items():
            assert verified[name] == entry, name

    @pytest.mark.parametrize("n_nodes", [1, 5], ids=["scalar", "grid"])
    def test_time_dependent_forcing_records_are_exact(self, tmp_path, n_nodes):
        """The rebuilt records of a forced run pair the forcing field as the
        run did, so they are simulate's bit for bit (the sign of each zero
        included, hence the comparison as integers), on both kernels."""
        doc = {
            **GRID_DOC,
            "space": {"length": 1.0, "n_nodes": n_nodes, "bc": "neumann"},
            "time": {"T": 0.05, "dt": 1e-3, "theta": 0.5},
            "forcing": "sine:1:2",
        }
        cfg = from_dict(doc)
        traj = dampedwave.integrator.simulate(cfg)
        assert np.all(traj.power_incr != 0.0)
        write_run_npz(tmp_path / "run.npz", traj)
        back = read_run_npz(tmp_path / "run.npz", cfg)
        for k in RECORDS:
            rebuilt, recorded = getattr(back, k), getattr(traj, k)
            assert np.array_equal(rebuilt.view(np.int64), recorded.view(np.int64)), k

    def test_csv_round_trip_records_are_exact(self, record_run_dirs):
        out = record_run_dirs["pressed_wall"]
        cfg = load_config(CONFIGS / "pressed_wall.yaml")
        stored = read_run_npz(out / "run.npz", cfg)
        back = read_trajectory_csv(out / "trajectory.csv", cfg)
        for k in ("U", "V") + RECORDS:
            assert getattr(back, k).tobytes() == getattr(stored, k).tobytes(), k


class TestVerifyCsvExport:
    def test_intact_export_is_consistent(self, grid_run_dir):
        assert main(["verify", "--out", str(grid_run_dir)]) == 0
        assert _verify_verdicts(grid_run_dir)["trajectory_csv_consistent"]["passed"]

    # rows 40-44 are the 5 nodes of one time, so an edited t moves all of them
    @pytest.mark.parametrize(
        "col, edited", [(0, range(40, 45)), (2, [42]), (3, [42])], ids=["t", "u", "v"]
    )
    def test_edited_value_fails(self, grid_run_dir, tmp_path, col, edited):
        def edit(rows):
            rows = list(rows)
            for i in edited:
                cols = rows[i].split(",")
                cols[col] = repr(float(cols[col]) + 1e-7)
                rows[i] = ",".join(cols)
            return rows

        bad = _rewrite_rows(grid_run_dir, tmp_path, edit)
        assert main(["verify", "--out", str(bad)]) == 1
        verdicts = _verify_verdicts(bad)
        assert not verdicts["trajectory_csv_consistent"]["passed"]
        assert verdicts["energy_ledger_consistent"]["passed"]


@pytest.mark.parametrize("n_nodes", [1, 5])
@pytest.mark.parametrize("eps_param", [1e-170, 1e-155, 1e200])
def test_family_slope_not_a_finite_positive_float_exits_2(tmp_path, capsys, eps_param, n_nodes):
    """A ``graph.eps_param`` whose family slope 1/eps_param**2 is not a
    finite positive float exits 2 with one error line naming the key: at
    1e-170 the square underflows to 0 (a ZeroDivisionError traceback before
    the key's rule said so), at 1e-155 the slope overflows to inf, and at
    1e200 the square overflows and the slope is 0."""
    doc = {**GRID_DOC, "space": {**GRID_DOC["space"], "n_nodes": n_nodes},
           "graph": {"kind": "family", "r_threshold": 0.9, "eps_param": eps_param}}
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: graph.eps_param: ") and "Traceback" not in err


def test_bad_forcing_profile_exits_2_naming_forcing(tmp_path, capsys):
    cfg = write_config(tmp_path, {**GRID_DOC, "forcing": "sine:abc"})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "error: forcing: bad profile spec 'sine:abc'" in capsys.readouterr().err


class TestSweepEpsList:
    def test_bad_list_names_eps_and_creates_no_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_DOC)
        out = tmp_path / "s"
        code = main(["sweep", "--config", str(cfg), "--eps", "1e-2,abc,1e-4", "--out", str(out)])
        assert code == 2
        assert "error: eps: bad eps list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "eps", ["1e-2,1e-3,-1e-4", "1e-2,1e-3,1e-4,nan", "inf,1e-2,1e-3", "1e-2,1e-3,0"],
        ids=["negative", "nan", "inf", "zero"],
    )
    def test_non_finite_or_non_positive_entry_exits_2(self, tmp_path, capsys, eps):
        cfg = write_config(tmp_path, TOY_DOC)
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--eps", eps, "--out", str(out)]) == 2
        assert "error: eps: bad eps list" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--epsilon", v) for v in ("-1", "0", "nan", "inf")]
    + [("--T", v) for v in ("-2", "nan", "inf")],
)
def test_bad_toy_number_exits_2_naming_the_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "toy"
    assert main(["toy", "--out", str(out), flag, value]) == 2
    assert f"error: {flag}: must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_toy_run_too_large_for_memory_exits_2(tmp_path, capsys):
    # dt = sqrt(eps)/100 gives 2e152 steps: refused by their size, never allocated;
    # with T = 1e300 the step count T/dt overflows to inf, refused before any size
    for args, error in [
        (["--epsilon", "1e-300"], "error: time.dt: 2e+152 steps on 1 nodes need"),
        (["--T", "1e300", "--epsilon", "1e-300"],
         "error: time.dt: T / dt = 1e+300 / 1e-152 is not a finite step count\n"),
    ]:
        out = tmp_path / "toy"
        assert main(["toy", "--out", str(out), *args]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# verify re-renders every derived file from run.npz and compares bytes

DERIVED = ("energy.csv", "xi.csv", "summary.json", "jumps.json", "trajectory.csv")
RUN_FILES = DERIVED + ("run.npz", "verdicts.json", "manifest.json")


def _copy_editing(run_dir, tmp_path, name, edit):
    """Copy of run_dir whose file name went through edit (bytes -> bytes)."""
    bad = tmp_path / "bad"
    shutil.copytree(run_dir, bad)
    p = bad / name
    p.write_bytes(edit(p.read_bytes()))
    return bad


def _edit_json(edit):
    """A bytes edit that rewrites a JSON document through edit, in the writer's format."""
    def rewrite(raw):
        return json.dumps(edit(json.loads(raw)), indent=2, sort_keys=True).encode()

    return rewrite


def _last_xi_mass_plus(raw):
    header, *rows, last, end = raw.split(b"\r\n")
    t, x, mass = last.split(b",")
    last = b",".join([t, x, repr(float(mass) * 1.001).encode()])
    return b"\r\n".join([header, *rows, last, end])


class TestVerifyDerivedFiles:
    """Each derived file must hold the bytes its writer renders from run.npz."""

    def test_toy_run_has_every_derived_file(self, toy_run_dir):
        """The tamper cases below need every file, a jump and more than one xi row."""
        files = json.loads((toy_run_dir / "manifest.json").read_text())["files"]
        assert set(DERIVED) <= set(files)
        assert (toy_run_dir / "xi.csv").read_bytes().count(b"\r\n") > 1
        assert json.loads((toy_run_dir / "jumps.json").read_text())

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("xi.csv", _last_xi_mass_plus),
            ("summary.json", _edit_json(lambda d: {**d, "label": "edited"})),
            ("summary.json", _edit_json(lambda d: {**d, "energy_max": d["energy_max"] * 2})),
        ],
        ids=["xi_mass", "summary_label", "summary_energy"],
    )
    def test_edited_ledger_file_fails(self, toy_run_dir, tmp_path, name, edit):
        bad = _copy_editing(toy_run_dir, tmp_path, name, edit)
        assert main(["verify", "--out", str(bad)]) == 1
        verdicts = _verify_verdicts(bad)
        assert not verdicts["energy_ledger_consistent"]["passed"]
        assert verdicts["jump_report_consistent"]["passed"]
        assert verdicts["trajectory_csv_consistent"]["passed"]

    @pytest.mark.filterwarnings("ignore:loadtxt")  # the header-only xi.csv has no data rows
    def test_emptied_xi_and_summary_fail(self, toy_run_dir, tmp_path):
        def header_only(raw):
            return raw.split(b"\r\n")[0] + b"\r\n"

        bad = _copy_editing(toy_run_dir, tmp_path, "xi.csv", header_only)
        (bad / "summary.json").write_text("{}")
        assert main(["verify", "--out", str(bad)]) == 1
        assert not _verify_verdicts(bad)["energy_ledger_consistent"]["passed"]

    def test_edited_jumps_fails(self, toy_run_dir, tmp_path):
        edit = _edit_json(lambda jumps: [{**j, "t": j["t"] + 1e-9} for j in jumps])
        bad = _copy_editing(toy_run_dir, tmp_path, "jumps.json", edit)
        assert main(["verify", "--out", str(bad)]) == 1
        verdicts = _verify_verdicts(bad)
        assert not verdicts["jump_report_consistent"]["passed"]
        assert verdicts["energy_ledger_consistent"]["passed"]

    def test_reversed_trajectory_rows_fail(self, grid_run_dir, tmp_path):
        bad = _rewrite_rows(grid_run_dir, tmp_path, lambda rows: rows[::-1])
        assert main(["verify", "--out", str(bad)]) == 1
        verdicts = _verify_verdicts(bad)
        assert not verdicts["trajectory_csv_consistent"]["passed"]
        assert verdicts["energy_ledger_consistent"]["passed"]

    def test_non_numeric_xi_cell_exits_2(self, toy_run_dir, tmp_path):
        def edit(raw):
            header, first, rest = raw.split(b"\r\n", 2)
            t, x, mass = first.split(b",")
            return b"\r\n".join([header, b",".join([t, b"abc", mass]), rest])

        bad = _copy_editing(toy_run_dir, tmp_path, "xi.csv", edit)
        assert main(["verify", "--out", str(bad)]) == 2

    def test_unlisted_trajectory_csv_is_still_compared(self, tmp_path):
        """A manifest that no longer lists trajectory.csv does not hide an edit of it."""
        out = tmp_path / "run"
        config = Path(__file__).parent.parent / "configs" / "toy_jump.yaml"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--csv"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"] = [
            "trajectory.csx" if f == "trajectory.csv" else f for f in manifest["files"]
        ]
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        with open(out / "trajectory.csv", "ab") as fh:
            fh.write(b"\n")  # an empty line: the file still parses
        assert main(["verify", "--out", str(out)]) == 1
        assert not _verify_verdicts(out)["trajectory_csv_consistent"]["passed"]

    @pytest.mark.parametrize("name", DERIVED)
    def test_missing_file_exits_2(self, toy_run_dir, tmp_path, name):
        bad = tmp_path / "bad"
        shutil.copytree(toy_run_dir, bad)
        (bad / name).unlink()
        assert main(["verify", "--out", str(bad)]) == 2

    @pytest.fixture(scope="class")
    def scratch_run(self, toy_run_dir, tmp_path_factory):
        run = tmp_path_factory.mktemp("tamper") / "run"
        shutil.copytree(toy_run_dir, run)
        return run

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(RUN_FILES), at=st.floats(0.0, 1.0), flip=st.integers(1, 255))
    def test_any_one_byte_change_is_caught(self, scratch_run, name, at, flip):
        p = scratch_run / name
        raw = p.read_bytes()
        i = min(int(at * len(raw)), len(raw) - 1)
        p.write_bytes(raw[:i] + bytes([raw[i] ^ flip]) + raw[i + 1:])
        try:
            assert main(["verify", "--out", str(scratch_run)]) in (1, 2)
        finally:
            p.write_bytes(raw)


def _files_5(manifest):
    return json.dumps({"config": json.loads(manifest)["config"], "files": 5})


class TestVerifyMalformedJson:
    """A manifest, jump report or verdicts file that is not the JSON verify expects exits 2."""

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("manifest.json", lambda text: "[1,2"),
            ("manifest.json", lambda text: "[1, 2]"),
            ("manifest.json", _files_5),
            ("jumps.json", lambda text: "not json"),
            ("jumps.json", lambda text: text[:-1]),
            ("verdicts.json", lambda text: "[1, 2]"),
            ("verdicts.json", lambda text: '{"overshoot": 5}'),
            ("verdicts.json", lambda text: text.replace("true", "1", 1)),
        ],
        ids=["manifest_truncated", "manifest_not_object", "manifest_files_5", "jumps_text",
             "jumps_truncated", "verdicts_not_object", "verdict_not_object",
             "verdict_passed_not_boolean"],
    )
    def test_exits_2(self, toy_run_dir, tmp_path, name, edit):
        bad = tmp_path / "bad"
        shutil.copytree(toy_run_dir, bad)
        (bad / name).write_text(edit((bad / name).read_text()))
        assert main(["verify", "--out", str(bad)]) == 2


def _replace_in(key, edit):
    """A JSON edit that replaces the document's entry ``key`` with edit(entry)."""
    return _edit_json(lambda d: {**d, key: edit(d[key])})


class TestVerifyManifest:
    """verify renders manifest.json again; an edit of it, of verdicts.json or
    of the bytes of run.npz fails the ledger and nothing else."""

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("manifest.json", _replace_in("tool_version", lambda v: v + "1")),
            ("manifest.json", _replace_in("config_hash", lambda h: h[::-1])),
            ("manifest.json", _replace_in("verdicts", lambda f: {**f, "overshoot": False})),
            ("manifest.json", _replace_in("sha256", lambda d: {**d, "run.npz": "0" * 64})),
            ("manifest.json", _replace_in("files", lambda f: f[:-1])),
            ("verdicts.json", _replace_in("overshoot", lambda v: {**v, "passed": False})),
            ("verdicts.json", _replace_in(
                "energy_inequality", lambda v: {**v, "worst_slack": v["worst_slack"] + 1.0})),
        ],
        ids=["tool_version", "config_hash", "verdict_flag", "npz_digest", "files",
             "verdicts_passed", "verdicts_worst_slack"],
    )
    def test_edit_fails_the_ledger_only(self, toy_run_dir, tmp_path, name, edit):
        bad = _copy_editing(toy_run_dir, tmp_path, name, edit)
        assert main(["verify", "--out", str(bad)]) == 1
        verdicts = _verify_verdicts(bad)
        assert not verdicts.pop("energy_ledger_consistent")["passed"]
        assert all(v["passed"] for v in verdicts.values())

    def test_reordered_npz_fails_the_ledger(self, toy_run_dir, tmp_path):
        """The same arrays in another order are other bytes, which the manifest's digest catches."""
        bad = _copy_with(toy_run_dir, tmp_path, _arrays(lambda a: dict(reversed(list(a.items())))))
        assert main(["verify", "--out", str(bad)]) == 1
        assert not _verify_verdicts(bad)["energy_ledger_consistent"]["passed"]

    def test_manifest_schema(self, toy_run_dir):
        manifest = json.loads((toy_run_dir / "manifest.json").read_text())
        assert sorted(manifest) == [
            "config", "config_hash", "files", "sha256", "tool_version", "verdicts",
        ]
        assert sorted(manifest["sha256"]) == manifest["files"]
        for name, digest in manifest["sha256"].items():
            assert hashlib.sha256((toy_run_dir / name).read_bytes()).hexdigest() == digest


def test_two_simulate_runs_give_identical_directories(tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        config = CONFIGS / "toy_jump.yaml"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--csv"]) == 0
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == sorted(p.name for p in runs[1].iterdir()) and len(names) == 8
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_simulate_calls_the_traced_writers(tmp_path, monkeypatch):
    """perfbench/tracer.py replaces the writers on ``dampedwave.cli`` by name
    when it installs; simulate must call them from there, once each, with
    the path of the file each writes."""
    calls = []
    for name in ("write_trajectory_csv", "write_energy_csv", "write_xi_csv"):
        def counted(path, *args, _name=name, _writer=getattr(dampedwave.cli, name)):
            calls.append((_name, Path(path).name))
            return _writer(path, *args)

        monkeypatch.setattr(dampedwave.cli, name, counted)
    out = tmp_path / "out"
    config = write_config(tmp_path, TOY_DOC)
    assert main(["simulate", "--config", str(config), "--out", str(out), "--csv"]) == 0
    assert sorted(calls) == [
        ("write_energy_csv", "energy.csv"),
        ("write_trajectory_csv", "trajectory.csv"),
        ("write_xi_csv", "xi.csv"),
    ]


def test_verify_calls_no_writer(toy_run_dir, monkeypatch):
    """verify renders through the writers' renderers, never the public writers.

    perfbench/tracer.py wraps ``write_*_csv`` and measures the file each
    call wrote, and looks up ``read_trajectory_csv`` when it installs.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("verify called a writer")

    for name in ("write_energy_csv", "write_xi_csv", "write_trajectory_csv"):
        monkeypatch.setattr(dampedwave.cli, name, refuse)
    assert main(["verify", "--out", str(toy_run_dir)]) == 0
    assert "trajectory_csv_consistent" in _verify_verdicts(toy_run_dir)
    assert callable(dampedwave.cli.read_trajectory_csv)


def test_logarithmic_root_next_to_one_simulates_and_verifies(tmp_path):
    """u0 = 0.99 hit at speed 5 with eps = 1e-7 drives the resolvent input to
    about 1.04, whose root lies within one ulp of 1; simulate used to exit 2
    with 'x-error 1.100e-11 > 1.0e-12'."""
    doc = {
        **LOG_DOC,
        "label": "cli-log-edge",
        "space": {"length": 1.0, "n_nodes": 33, "bc": "neumann"},
        "graph": {"kind": "logarithmic", "epsilon": 1e-7},
        "time": {"T": 0.05, "dt": 1e-3, "theta": 1.0},
        "init": {"u0": "constant:0.99", "u1": "constant:5"},
    }
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    assert main(["verify", "--out", str(out)]) == 0


FRESH_CLI = """
import sys
from dampedwave.cli import main
codes = [main(argv.split()) for argv in sys.argv[1:]]
print(codes, "scipy.linalg" in sys.modules, "scipy.linalg._flapack" in sys.modules)
"""


def _fresh_cli(*argvs):
    """Run CLI commands in a new interpreter; their exit codes, whether
    scipy.linalg got imported and whether LAPACK (scipy.linalg._flapack) got
    loaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CLI, *argvs],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout.splitlines()[-1]


def test_one_node_simulate_and_verify_do_not_import_scipy_linalg(tmp_path):
    """Nor do they load LAPACK: the one-node kernel solves by division."""
    out = tmp_path / "out"
    config = write_config(tmp_path, TOY_DOC)
    codes_and_loaded = _fresh_cli(f"simulate --config {config} --out {out}", f"verify --out {out}")
    assert codes_and_loaded == "[0, 0] False False"


def test_grid_verify_does_not_import_scipy_linalg(npz_run_dir):
    """Nor does it load LAPACK: verify builds a step kernel only to record,
    and the dead-zone factorization waits for the first Newton solve."""
    assert _fresh_cli(f"verify --out {npz_run_dir}") == "[0] False False"


# ``sweep`` in a new interpreter that may run on argv[1] CPUs; each member,
# in whichever process runs it, prints whether scipy.linalg got imported and
# whether LAPACK got loaded there
FRESH_SWEEP = """
import os, sys
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
import dampedwave.sweep
from dampedwave.cli import main

def loaded():
    return "scipy.linalg" in sys.modules, "scipy.linalg._flapack" in sys.modules

def member(cfg, real=dampedwave.sweep._member):
    out = real(cfg)
    os.write(1, ("member %s %s\\n" % loaded()).encode())
    return out

dampedwave.sweep._member = member
print([main(sys.argv[2:])], *loaded())
"""


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_grid_solves_do_not_import_scipy_linalg(tmp_path, command):
    """A grid run loads LAPACK's gtsv from scipy's compiled extension alone.
    No process of a sweep imports scipy.linalg: forked over two CPUs, the
    children that run the members load the extension alone and this process
    loads neither; on one CPU, this process loads the extension alone."""
    config = write_config(tmp_path, GRID_DOC)
    out = tmp_path / "out"
    if command == "simulate":
        assert _fresh_cli(f"simulate --config {config} --out {out}") == "[0] False True"
        return
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for cpus, here in ((2, "False False"), (1, "False True")):
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_SWEEP, str(cpus), "sweep", "--config", str(config),
             "--eps", "1e-2,1e-3,1e-4", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        lines = proc.stdout.splitlines()
        assert [line for line in lines if line.startswith("member ")] == ["member False True"] * 3, cpus
        assert lines[-1] == f"[0] {here}", cpus


# sha256 of verdicts.json and summary.json that ``simulate`` writes, as
# recorded before the weak residual took the whole dictionary in one call;
# verdicts.json re-recorded when energy_inequality and subdifferential took
# their exact forms, which changed their worst slacks and no other value
BATTERY_DIGESTS = {
    "pressed_wall": {
        "verdicts.json": "e1f360a0da99c34d3aa8af9a20c6c1efa505c22137cdcbb83ef0bd0b679d5bec",
        "summary.json": "0a28c0144155e95cb2725144c65dc14a88dec2fd38ff899d5d01e82f03a8052b",
    },
    "neumann_contact": {
        "verdicts.json": "9330a8c9866ad411a87a5301b02ad9f49b6f35e15daae4743e59ca311d78b214",
        "summary.json": "b0555a2142232d6ad3215fdb15569a7afa444aacfeeb41d6a2777610c5061162",
    },
}


def _cli_on_one_blas_thread(*argv) -> None:
    """``python -m dampedwave.cli *argv`` on this checkout, in an
    interpreter on one BLAS thread; it must exit 0."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": str(CONFIGS.resolve().parent / "src")}
    subprocess.run([sys.executable, "-m", "dampedwave.cli", *argv], env=env, capture_output=True,
                   timeout=300, check=True)


@pytest.mark.parametrize("name", sorted(BATTERY_DIGESTS))
def test_battery_values_keep_their_bits(tmp_path, name):
    """Every verdict value and summary number keeps its bits: ``simulate``,
    run in an interpreter on one BLAS thread, writes the recorded bytes."""
    out = tmp_path / "out"
    _cli_on_one_blas_thread("simulate", "--config", str(CONFIGS / f"{name}.yaml"), "--out", str(out))
    for file, digest in BATTERY_DIGESTS[name].items():
        assert hashlib.sha256((out / file).read_bytes()).hexdigest() == digest, file


# sha256 of sweep_report.json that ``sweep --eps 1e-2,1e-3,1e-4,1e-5`` writes,
# as recorded while the members were compared one pair at a time on
# members interpolated whole
SWEEP_DIGESTS = {
    "configs/neumann_contact.yaml": "fae19d527f070f53d42940eedc17d11318e4e2b752c8f38b749c6b6af8980e59",
    "perfbench/configs/neumann_contact_log.yaml": "f4ce8d6e2abe6b8fc04db0c426a02961c994f4f07e076fac82de96595bbbe4f9",
}


@pytest.mark.parametrize("config", sorted(SWEEP_DIGESTS))
def test_sweep_report_keeps_its_bits(tmp_path, config):
    """Every summary, distance and ratio of a sweep keeps its bits:
    ``sweep``, run in an interpreter on one BLAS thread, writes the
    recorded bytes."""
    out = tmp_path / "out"
    _cli_on_one_blas_thread("sweep", "--config", str(CONFIGS.parent / config), "--eps", "1e-2,1e-3,1e-4,1e-5",
                            "--out", str(out))
    assert hashlib.sha256((out / "sweep_report.json").read_bytes()).hexdigest() == SWEEP_DIGESTS[config]
