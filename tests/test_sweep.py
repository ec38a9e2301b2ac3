"""Continuation sweeps: convergence trends, uniform bounds, audits."""

import math

import pytest

import dampedwave as dw
from dampedwave.sweep import (
    checked_eps_list,
    da_regularity_check,
    default_dt_policy,
    epsilon_sweep,
    limsup_identity_audit,
    mu_vanishing_sequence,
    nonuniqueness_exhibit,
    snap_dt,
    uniform_ratio,
)


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
        rep = epsilon_sweep(base, [1e-2, 1e-3, 1e-4], keep_trajectories=True)
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
        assert toy_sweep.all_bounded
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
        rep = epsilon_sweep(base, [1e-2, 1e-3, 1e-4], keep_trajectories=True)
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
            epsilon=1e-2, T=0.2, dt=1e-3, u0="ramp", u1="zero",
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
