"""Continuation sweeps: convergence trends, uniform bounds, audits."""

import itertools
import math
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import dampedwave as dw
import dampedwave.sweep
from dampedwave.cli import main
from dampedwave.config import load_config
from dampedwave.sweep import (
    _interp_states,
    _lpt_shares,
    _map_members,
    _usable_cpus,
    checked_eps_list,
    compare_members,
    default_dt_policy,
    epsilon_sweep,
    limsup_identity_audit,
    mu_vanishing_sequence,
    nonuniqueness_exhibit,
    pair_reaction_with_state,
    snap_dt,
    uniform_ratio,
)
from tests.oracles import da_regularity_check, traj_diff, xi_masses


class TestPolicyAndValidation:
    def test_snap_dt_divides_horizon(self):
        for T, target in ((2.0, math.sqrt(1e-5) / 10), (0.7, 1e-3)):
            dt = snap_dt(T, target)
            assert dt <= target * (1 + 1e-12)
            n = round(T / dt)
            assert n * dt == pytest.approx(T, abs=1e-12)

    def test_step_count_not_finite_names_time_dt(self):
        # the sweep policy's sqrt(eps)/10 for eps = 1e-300 leaves T / dt = inf
        with pytest.raises(dw.ConfigError, match="^time.dt: T / dt = 1e[+]300 / 1e-151"):
            default_dt_policy(1e300, 1.0)(1e-300)
        # the exhibit's family step eps/50 underflows to 0 for the smallest subnormal eps
        with pytest.raises(dw.ConfigError, match="^time.dt: T / dt = 0.5 / 0 "):
            snap_dt(0.5, 5e-324 / 50.0)

    def test_every_shipped_config_and_sweep_member_resolves(self):
        """The T/dt tolerance is bounded by a quarter step: every shipped run,
        every member dt that snap_dt gives for it and every toy run still has
        a whole number of steps."""
        from dampedwave.cli import toy_run_config
        from dampedwave.integrator import _resolve_steps

        eps_list = [10.0 ** -k for k in range(1, 11)]
        for path in [*sorted((ROOT / "configs").glob("*.yaml")), ROOT / "perfbench/configs/neumann_contact_log.yaml"]:
            cfg = load_config(path)
            assert _resolve_steps(cfg) == round(cfg.T / cfg.dt)
            policy = default_dt_policy(cfg.T, cfg.dt)
            for eps in eps_list:
                member = cfg.with_epsilon(eps, dt=policy(eps))
                assert _resolve_steps(member) == round(member.T / member.dt)
        for eps in eps_list:
            cfg = toy_run_config(eps)
            assert _resolve_steps(cfg) == round(cfg.T / cfg.dt)

    def test_eps_list_validation(self):
        base = dw.SimConfig(n_nodes=1, bc="neumann", graph_kind="indicator",
                            epsilon=1e-2, T=0.5, dt=0.01, u0="zero", u1="zero")
        with pytest.raises(ValueError):
            epsilon_sweep(base, [1e-2, 1e-3])
        with pytest.raises(ValueError):
            epsilon_sweep(base, [1e-2, 1e-2, 1e-3])
        with pytest.raises(ValueError):
            epsilon_sweep(base, [1e-3, 1e-2, 1e-4])

    def test_checked_eps_list(self):
        assert checked_eps_list(["1e-2", 1e-3, " 1e-4"]) == (1e-2, 1e-3, 1e-4)
        too_short, repeated, rising, not_a_number = (
            ["1e-2", "1e-3"], [1e-2, 1e-2, 1e-3], [1e-3, 1e-2, 1e-4], ["1e-2", "x", "1e-4"]
        )
        for bad in (too_short, repeated, rising, not_a_number):
            with pytest.raises(ValueError):
                checked_eps_list(bad)

    @pytest.mark.parametrize("last", ["-1e-4", "0", "nan", "-inf"])
    def test_checked_eps_list_needs_finite_positive_entries(self, last):
        with pytest.raises(ValueError, match="finite and positive"):
            checked_eps_list(["1e-2", "1e-3", last])
        with pytest.raises(ValueError, match="finite and positive"):
            checked_eps_list(["inf", "1e-2", "1e-3"])

    def test_uniform_ratio_guards_zero(self):
        assert uniform_ratio([0.0, 0.0, 0.0]) == 1.0
        assert uniform_ratio([2.0, 1.0, 4.0]) == 4.0


class TestZeroDataSweep:
    def test_all_differences_vanish(self):
        base = dw.SimConfig(n_nodes=9, bc="neumann", graph_kind="indicator",
                            epsilon=1e-2, T=0.5, dt=0.01, u0="zero", u1="zero")
        rep = epsilon_sweep(base, [1e-2, 1e-3, 1e-4])
        for d in rep.diff_to_finest.values():
            assert d["linf_H"] == 0.0 and d["l2_V"] == 0.0
        audit = limsup_identity_audit(rep)
        assert all(v == 0.0 for v in audit.s_eps.values())
        assert audit.pairing == 0.0


class TestToySweep:
    def test_differences_to_finest_decrease_like_sqrt_eps(self, toy_sweep):
        ds = [toy_sweep.diff_to_finest[e]["linf_H"] for e in toy_sweep.eps_list[:-1]]
        assert all(a > b for a, b in zip(ds, ds[1:]))
        # consecutive ratio tracks sqrt(10) within a factor 2
        for a, b in zip(ds, ds[1:]):
            assert 1.5 < a / b < 7.0

    def test_uniform_bounds_hold(self, toy_sweep):
        assert all(toy_sweep.verdicts.values())
        assert all(r <= 10.0 for r in toy_sweep.ratios.values())

    def test_limsup_identity(self, toy_sweep):
        audit = limsup_identity_audit(toy_sweep)
        assert audit.passed
        s = [audit.s_eps[e] for e in toy_sweep.eps_list]
        # sequence settles near <xi, u> ~ 2 (atom mass at u = 1)
        assert s[-1] == pytest.approx(2.0, rel=0.01)
        gaps = [abs(v - audit.pairing) for v in s]
        assert gaps[-1] <= gaps[0]

    def test_mu_vanishing(self, toy_sweep):
        mu = mu_vanishing_sequence(toy_sweep)
        vals = [mu[e] for e in toy_sweep.eps_list[:-1]]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 0.1 * vals[0]

    def test_bv_proxy_uniform(self, toy_sweep):
        bvs = [s.bv_proxy for s in toy_sweep.summaries]
        assert max(bvs) / min(bvs) < 1.1
        assert bvs[-1] == pytest.approx(2.0, rel=0.05)

    def test_determinism_bit_exact(self):
        base = dw.SimConfig(n_nodes=1, bc="neumann", graph_kind="indicator",
                            epsilon=1e-2, T=1.0, dt=1e-3, theta=0.5,
                            u0="zero", u1="constant:1")
        a = epsilon_sweep(base, [1e-2, 1e-3, 1e-4])
        b = epsilon_sweep(base, [1e-2, 1e-3, 1e-4])
        assert a.to_dict() == b.to_dict()


class TestAuditPairings:
    """``pair_reaction_with_state`` and ``mu_vanishing_sequence`` sum over
    flat pieces of each member (``integrator.pairwise_pieces``)."""

    @pytest.mark.parametrize("block", [None, 100])
    def test_the_whole_run_sums_bit_for_bit(self, contact_sweep, toy_sweep, block, monkeypatch):
        """The whole-run formulas they replaced; blocks of 100 elements put
        piece edges inside rows of the 65-node members."""
        if block is not None:
            monkeypatch.setattr(dw.integrator, "BLOCK_ELEMENTS", block)
        for rep in (contact_sweep, toy_sweep):
            finest = rep.trajectories[rep.eps_list[-1]]
            mu = mu_vanishing_sequence(rep)
            for e in rep.eps_list:
                traj = rep.trajectories[e]
                u_th, w = traj.theta_combine(traj.U), traj.grid.mass_weights
                u_fin = _interp_states(finest.times, finest.U, traj.theta_combine(traj.times))
                s_want = traj.dt * float(np.sum(traj.beta_theta * u_th * w[None, :]))
                mu_want = traj.dt * float(np.sum(traj.beta_theta * (u_th - u_fin) * w[None, :]))
                assert pair_reaction_with_state(traj).hex() == s_want.hex()
                assert mu[e].hex() == mu_want.hex()

    def test_no_run_sized_array(self, contact_sweep):
        """On the benchmark sweep of configs/neumann_contact.yaml (eps 1e-2
        to 1e-5) the whole-run products peaked at 3.02 (the limsup audit)
        and 4.41 (mu) times the finest member's U; over flat pieces both stay
        under U.  A first call goes untraced, so that imports are not
        counted."""
        u_bytes = contact_sweep.trajectories[contact_sweep.eps_list[-1]].U.nbytes
        for audit in (limsup_identity_audit, mu_vanishing_sequence):
            audit(contact_sweep)
            tracemalloc.start()
            try:
                audit(contact_sweep)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < u_bytes, (audit.__name__, peak / u_bytes)


def _hexed(diffs: dict) -> dict:
    """The distances of each pair as ``float.hex`` strings, to compare bits."""
    return {p: {k: v.hex() for k, v in d.items()} for p, d in diffs.items()}


class TestMemberComparison:
    """``compare_members`` compares the members of a sweep in one pass over
    row blocks of the finest member's times."""

    @pytest.mark.parametrize("block", [None, 100])
    def test_the_whole_array_distances_bit_for_bit(self, contact_sweep, toy_sweep, block, monkeypatch):
        """The distances of every pair of members are those of the
        whole-array form it replaced (``oracles.traj_diff`` on members
        interpolated whole), and so are the report's; blocks of 100
        elements give blocks of 64 rows, the last one partial."""
        if block is not None:
            monkeypatch.setattr(dw.integrator, "BLOCK_ELEMENTS", block)
        for rep in (contact_sweep, toy_sweep):
            *coarser, last = rep.eps_list
            finest = rep.trajectories[last]
            whole = {e: finest.U if e == last else _interp_states(traj.times, traj.U, finest.times)
                     for e, traj in rep.trajectories.items()}
            pairs = list(itertools.combinations(rep.eps_list, 2))
            got = compare_members(rep.trajectories, pairs)
            want = {(a, b): traj_diff(finest.grid, finest.times, whole[a], whole[b]) for a, b in pairs}
            assert _hexed(got) == _hexed(want)
            assert _hexed(rep.diff_to_finest) == _hexed({e: want[e, last] for e in coarser})
            assert _hexed(rep.consecutive_diff) == _hexed({p: want[p] for p in zip(rep.eps_list, rep.eps_list[1:])})

    def test_no_member_sized_array(self, contact_sweep, monkeypatch):
        """On the benchmark sweep the comparison's tracemalloc peak stays
        under the finest member's U (0.74 of it), where comparing one pair
        at a time on members interpolated whole peaked at 4.08 times it,
        and interpolating every member at once at 6.08.  The members are
        the fixture's, so that only the comparison is traced; a first call
        goes untraced, so that imports are not counted."""
        rep = contact_sweep
        members = [(rep.trajectories[e], s) for e, s in zip(rep.eps_list, rep.summaries)]
        monkeypatch.setattr(dampedwave.sweep, "_map_members", lambda fn, cfgs, eps_list: members)
        base = rep.trajectories[rep.eps_list[0]].cfg
        u_bytes = rep.trajectories[rep.eps_list[-1]].U.nbytes
        assert epsilon_sweep(base, rep.eps_list).to_dict() == rep.to_dict()
        tracemalloc.start()
        try:
            epsilon_sweep(base, rep.eps_list)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < u_bytes, peak / u_bytes


class TestDirichletSineSweep:
    def test_cauchy_differences_decrease(self):
        base = dw.SimConfig(
            length=1.0, n_nodes=48, bc="dirichlet", graph_kind="indicator",
            epsilon=1e-2, T=0.3, dt=1e-3, theta=1.0, u0="sine:1:0.5", u1="zero",
        )
        rep = epsilon_sweep(base, [1e-2, 1e-3, 1e-4, 1e-5])
        pairs = list(zip(rep.eps_list, rep.eps_list[1:]))
        ds = [rep.consecutive_diff[p]["l2_V"] for p in pairs]
        assert all(a > b for a, b in zip(ds, ds[1:]))

    def test_limsup_trivial_when_constraint_sleeps(self):
        base = dw.SimConfig(
            length=1.0, n_nodes=32, bc="dirichlet", graph_kind="indicator",
            epsilon=1e-2, T=0.2, dt=1e-3, theta=1.0, u0="sine:1:0.5", u1="zero",
        )
        rep = epsilon_sweep(base, [1e-2, 1e-3, 1e-4])
        audit = limsup_identity_audit(rep)
        assert all(v == 0.0 for v in audit.s_eps.values())
        assert audit.pairing == 0.0 and audit.passed


class TestDARegularity:
    def test_zero_data_all_zero(self):
        base = dw.SimConfig(
            length=1.0, n_nodes=33, bc="dirichlet", graph_kind="indicator",
            epsilon=1e-2, T=0.2, dt=1e-3, u0="zero", u1="zero",
        )
        rep = da_regularity_check(base, [1e-2, 1e-3, 1e-4])
        assert not rep.skipped
        assert all(v == 0.0 for v in rep.sup_Au.values())
        assert rep.bounded

    def test_dirichlet_sine_bounded(self):
        base = dw.SimConfig(
            length=1.0, n_nodes=48, bc="dirichlet", graph_kind="indicator",
            epsilon=1e-2, T=0.3, dt=1e-3, theta=1.0, u0="sine:1:0.5", u1="zero",
        )
        rep = da_regularity_check(base, [1e-2, 1e-3, 1e-4])
        assert not rep.skipped
        assert rep.bounded and rep.ratio <= 10.0

    def test_ramp_skipped_with_diagnostic(self):
        base = dw.SimConfig(
            length=1.0, n_nodes=33, bc="dirichlet", graph_kind="indicator",
            epsilon=1e-2, T=0.2, dt=1e-3, u0=dw.Grid(1.0, 33, "dirichlet").x, u1="zero",
        )
        rep = da_regularity_check(base, [1e-2, 1e-3, 1e-4])
        assert rep.skipped
        assert "D(A)" in rep.diagnostic

    def test_neumann_cosine_accepted(self):
        base = dw.SimConfig(
            length=1.0, n_nodes=33, bc="neumann", graph_kind="indicator",
            epsilon=1e-2, T=0.2, dt=1e-3, u0="cosine:1:0.2", u1="zero",
        )
        rep = da_regularity_check(base, [1e-2, 1e-3, 1e-4])
        assert not rep.skipped and rep.bounded


class TestNonuniquenessExhibit:
    def test_two_regularizations_disagree_admissibly(self):
        ex = nonuniqueness_exhibit(epsilon=1e-3)
        assert ex["distinct"]
        assert ex["both_admissible"]
        assert ex["velocity_gap"] > 0.2
        assert ex["runs"]["yosida"]["v_at_1"] == pytest.approx(1.0, abs=1e-2)
        assert ex["runs"]["family"]["v_at_1"] == pytest.approx(0.5, abs=1e-2)


# ---------------------------------------------------------------------------
# the members of a sweep run concurrently, one process per usable CPU

ROOT = Path(__file__).resolve().parent.parent
EPS4 = "1e-2,1e-3,1e-4,1e-5"

# a CLI command in a new interpreter that may run on argv[1] CPUs
WITH_CPUS = """
import os, sys
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
from dampedwave.cli import main
sys.exit(main(sys.argv[2:]))
"""

FAMILY_DOC = {
    "label": "family-contact",
    "space": {"length": 1.0, "n_nodes": 9, "bc": "neumann"},
    "graph": {"kind": "family", "r_threshold": 0.9, "eps_param": 1e-2},
    "time": {"T": 0.5, "dt": 1e-2, "theta": 0.5},
    "init": {"u0": "cosine:1:0.02", "u1": "constant:1"},
}


def _short(tmp_path, config, T):
    """``config`` with the horizon T, written to tmp_path."""
    doc = yaml.safe_load((ROOT / config).read_text())
    doc["time"]["T"] = T
    path = tmp_path / Path(config).name
    path.write_text(yaml.safe_dump(doc))
    return path


def _sweep_with_cpus(cpus, config, eps, out):
    """(exit code, stdout, stderr) of ``dampedwave sweep`` in a new interpreter
    whose affinity mask holds ``cpus`` CPUs."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", WITH_CPUS, str(cpus), "sweep", "--config", str(config),
         "--eps", eps, "--out", str(out)],
        env=env, capture_output=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def grid_base():
    """A 9-node wall-impact sweep base with a short horizon."""
    return dw.SimConfig(
        length=1.0, n_nodes=9, bc="neumann", graph_kind="indicator", epsilon=1e-3,
        T=0.05, dt=1e-3, theta=1.0, u0="cosine:1:0.01", u1="constant:1", label="grid",
    )


class TestMembersConcurrently:
    @pytest.mark.parametrize(
        "config, eps, warns",
        [("configs/neumann_contact.yaml", EPS4, 0),
         ("perfbench/configs/neumann_contact_log.yaml", EPS4, 0),
         (None, "1e-1,1e-2,1e-3", 2)],
        ids=["indicator", "logarithmic", "family"],
    )
    def test_one_cpu_and_forked_runs_write_the_same_bytes(self, tmp_path, config, eps, warns):
        """The sweep_report.json, verdicts.json, manifest.json, stdout, stderr
        and exit code of a one-CPU run and of a run forked over three CPUs
        are the same bytes; the family members' dt warnings come in member
        order."""
        if config is None:
            path = tmp_path / "family.yaml"
            path.write_text(yaml.safe_dump(FAMILY_DOC))
        else:
            path = _short(tmp_path, config, 1.2)
        serial = _sweep_with_cpus(1, path, eps, tmp_path / "one")
        forked = _sweep_with_cpus(3, path, eps, tmp_path / "three")
        assert serial == forked
        assert serial[0] in (0, 1) and serial[2].count(b"UserWarning: dt=") == warns
        names = ["manifest.json", "sweep_report.json", "verdicts.json"]
        assert sorted(p.name for p in (tmp_path / "one").iterdir()) == names
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "three" / name).read_bytes()

    @pytest.mark.parametrize("forcing", ["zero", "constant:2"])
    def test_forked_report_holds_the_one_cpu_arrays(self, grid_base, monkeypatch, forcing):
        """Forked over two CPUs, a sweep forks one child per share and gives
        every array and number of the one-CPU sweep, bit for bit, forced or
        not; neither keeps a member's velocities."""
        grid_base = replace(grid_base, forcing=forcing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = epsilon_sweep(grid_base, [1e-2, 1e-3, 1e-4, 1e-5])
        forks = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", counting_fork)
        forked = epsilon_sweep(grid_base, [1e-2, 1e-3, 1e-4, 1e-5])
        weights = [traj.n_steps * traj.grid.n_nodes for traj in serial.trajectories.values()]
        assert len(forks) == len(_lpt_shares(weights, 2)) == 2
        _no_child_left()
        assert forked.to_dict() == serial.to_dict()
        assert forked.summaries == serial.summaries
        for e in serial.eps_list:
            a, b = serial.trajectories[e], forked.trajectories[e]
            assert a.V is None and b.V is None
            for name in ("times", "U", "beta_theta", "diss_incr", "power_incr", "newton_iters"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            assert a.reaction.epsilon == b.reaction.epsilon
            if forcing == "zero":
                assert a.forcing is None and b.forcing is None
            else:
                assert np.array_equal(a.forcing, b.forcing)
            assert np.array_equal(xi_masses(a), xi_masses(b))

    def test_lpt_gives_this_process_the_finest_benchmark_member(self):
        """On two CPUs the benchmark sweep's 6,325-step member runs alone in
        one child, and the three 2,000-step members in the other.  The
        calling process runs no member of its own any more; the test keeps
        its name only for its test id."""
        base = load_config(ROOT / "configs/neumann_contact.yaml")
        policy = default_dt_policy(base.T, base.dt)
        steps = [round(base.T / policy(e)) for e in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert steps == [2000, 2000, 2000, 6325]
        assert _lpt_shares([n * base.n_nodes for n in steps], 2) == [[3], [0, 1, 2]]
        assert _lpt_shares([n * base.n_nodes for n in steps], 8) == [[3], [0], [1], [2]]
        assert _lpt_shares([1.0, 1.0, 1.0], 1) == [[0, 1, 2]]

    def test_one_cpu_where_there_is_no_fork(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert _usable_cpus() == 4
        monkeypatch.delattr(os, "fork")
        assert _usable_cpus() == 1

    def test_gathering_a_forked_share_copies_no_array_twice(self, grid_base, monkeypatch):
        """A child's arrays are read from its pipe straight into the arrays
        returned: the peak this process traces while it gathers the two
        children's shares stays within 1.1 times the returned bytes."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfgs = [replace(grid_base, epsilon=e) for e in (1e-1, 1e-2, 1e-3, 1e-4)]

        def fn(cfg):
            return np.full(2**18, cfg.epsilon)  # 2 MiB

        tracemalloc.start()
        try:
            results = _map_members(fn, cfgs, [cfg.epsilon for cfg in cfgs])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _no_child_left()
        assert all(np.array_equal(r, fn(cfg)) for r, cfg in zip(results, cfgs))
        assert peak <= 1.1 * sum(r.nbytes for r in results)


class TestMemberFailures:
    """A failing member exits 2 with one error line, as in a one-CPU run,
    and no child process is left behind."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def _sweep(self, tmp_path, capsys):
        """Exit code and stderr lines of a 4-member sweep on a short grid config."""
        path = _short(tmp_path, "configs/neumann_contact.yaml", 0.05)
        code = main(["sweep", "--config", str(path), "--eps", EPS4, "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err.splitlines()

    def _member_that(self, monkeypatch, act):
        """Replace ``_member`` with one that calls ``act(cfg, in_child)`` first."""
        real, parent = dampedwave.sweep._member, os.getpid()

        def member(cfg):
            act(cfg, os.getpid() != parent)
            return real(cfg)

        monkeypatch.setattr(dampedwave.sweep, "_member", member)

    def test_member_error_in_a_child(self, tmp_path, capsys, monkeypatch):
        def act(cfg, in_child):
            if cfg.epsilon == 1e-3:
                assert in_child
                raise dw.RunError("injected")

        self._member_that(monkeypatch, act)
        assert self._sweep(tmp_path, capsys) == (2, ["error: sweep member eps=0.001 failed"])
        _no_child_left()

    def test_first_failure_in_eps_order_wins(self, tmp_path, capsys, monkeypatch):
        """Every member fails, the finest first: the error is the coarsest
        member's, which a one-CPU run stops at."""

        def act(cfg, in_child):
            if cfg.epsilon != 1e-5:
                time.sleep(0.5)
            raise dw.RunError("injected")

        self._member_that(monkeypatch, act)
        assert self._sweep(tmp_path, capsys) == (2, ["error: sweep member eps=0.01 failed"])
        _no_child_left()

    def test_config_error_in_a_child_keeps_its_key(self, tmp_path, capsys, monkeypatch):
        def act(cfg, in_child):
            if in_child:
                raise dw.ConfigError("time.dt", "injected")

        self._member_that(monkeypatch, act)
        assert self._sweep(tmp_path, capsys) == (2, ["error: time.dt: injected"])
        _no_child_left()

    def test_child_killed_by_sigkill(self, tmp_path, capsys, monkeypatch):
        def act(cfg, in_child):
            if in_child and cfg.epsilon == 1e-3:
                os.kill(os.getpid(), signal.SIGKILL)

        self._member_that(monkeypatch, act)
        code, err = self._sweep(tmp_path, capsys)
        assert code == 2 and len(err) == 1
        assert err[0].startswith("error: sweep members eps=0.01,0.001,0.0001 failed: ")
        assert err[0].endswith(f"ended without a result (signal {int(signal.SIGKILL)})")
        _no_child_left()

    @pytest.mark.parametrize("kept", [0.0, 0.5], ids=["empty", "cut"])
    def test_child_stream_cut_short(self, tmp_path, capsys, monkeypatch, kept):
        """A child that writes none or half of its pickle and then exits 0
        has ended without a result."""

        def part_dump(obj, file, protocol):
            data = pickle.dumps(obj, protocol=protocol)
            file.write(data[: int(len(data) * kept)])

        monkeypatch.setattr(pickle, "dump", part_dump)
        assert self._sweep(tmp_path, capsys) == (2, [
            "error: sweep members eps=0.01,0.001,0.0001 failed: "
            "the process running them ended without a result (exit status 0)"])
        _no_child_left()

    def test_interrupt_kills_and_reaps_the_children(self, grid_base, monkeypatch):
        """A KeyboardInterrupt that arrives while this process waits on the
        children's pipes kills the children, which would otherwise sleep for
        a minute, and reaps them."""
        self._member_that(monkeypatch, lambda cfg, in_child: time.sleep(60))

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        t0 = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(KeyboardInterrupt):
                epsilon_sweep(grid_base, [1e-2, 1e-3, 1e-4, 1e-5])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - t0 < 30
        _no_child_left()

    def test_children_end_with_a_parent_killed_by_sigterm(self, tmp_path):
        """A sweep killed by SIGTERM, which it does not catch, leaves no child
        running: the kernel kills both children with their parent, well
        before either child's share of about 60,000 steps would end."""
        if not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists():
            pytest.skip("finding the child needs Linux's /proc/<pid>/task/<tid>/children")
        doc = {"space": {"length": 1.0, "n_nodes": 9, "bc": "neumann"},
               "graph": {"kind": "indicator", "epsilon": 1e-3},
               "time": {"T": 20.0, "dt": 1e-3, "theta": 1.0},
               "init": {"u0": "cosine:1:0.01", "u1": "constant:1"}}
        path = tmp_path / "long.yaml"
        path.write_text(yaml.safe_dump(doc))
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-c", WITH_CPUS, "2", "sweep", "--config", str(path),
             "--eps", EPS4, "--out", str(tmp_path / "o")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        try:
            deadline = time.monotonic() + 30
            while len(children.read_text().split()) < 2:
                assert time.monotonic() < deadline, "the sweep forked fewer than two children"
                time.sleep(0.01)
            forked = children.read_text().split()
            assert len(forked) == 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == -signal.SIGTERM
        finally:
            proc.kill()
            proc.wait()

        def running(child):
            try:
                state = Path(f"/proc/{child}/stat").read_text().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return False
            return state not in ("Z", "X")

        deadline = time.monotonic() + 2
        while any(running(child) for child in forked):
            assert time.monotonic() < deadline, "a child outlived its parent"
            time.sleep(0.01)
