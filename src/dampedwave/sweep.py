"""Regularization-continuation sweeps, uniform-bound audits, and exhibits.

A sweep re-runs one configuration over a strictly decreasing list of
regularization indices (eps for the Yosida kinds, eps_param for the
piecewise-linear family), with the time step tied to the boundary-layer
width (default dt = min(dt_base, sqrt(eps)/10), snapped so the horizon
is an integer number of steps).  Coarser runs are compared against the
finest on the finest run's output times by linear interpolation.

"Uniformly bounded" is operationalized as a max/min ratio across the
sweep staying below a threshold; quantities that are identically zero
(to absolute tolerance) count as trivially bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import SimConfig
from .energy import energy_series
from .errors import ConfigError, RunError
from .grid import apply_A, edge_inner
from .integrator import Trajectory, simulate
from .weaklimit import XiMeasure, accumulate_xi

RATIO_ATOL = 1e-12


def snap_dt(T: float, dt_target: float) -> float:
    """Largest dt <= dt_target that divides the horizon T exactly.

    ConfigError naming ``time.dt`` if T / dt_target is not a finite step
    count (a dt_target that underflowed to 0 included).
    """
    if not (dt_target > 0.0 and math.isfinite(T / dt_target)):
        raise ConfigError("time.dt", f"T / dt = {T:g} / {dt_target:g} is not a finite step count")
    n = max(1, math.ceil(T / dt_target - 1e-12))
    return T / n


def default_dt_policy(T: float, dt_base: float):
    return lambda eps: snap_dt(T, min(dt_base, math.sqrt(eps) / 10.0))


@dataclass(frozen=True)
class RunSummary:
    epsilon: float
    dt: float
    sup_v: float
    sup_potential: float
    l1_mass: float
    bv_proxy: float
    sup_Au: float
    h1_time_v: float
    overshoot: float
    overshoot_bound: float
    e_max: float
    e_initial: float
    e_final: float

    @property
    def overshoot_ok(self) -> bool:
        return self.overshoot <= self.overshoot_bound


@dataclass
class SweepReport:
    eps_list: tuple
    summaries: tuple
    diff_to_finest: dict  # eps -> {"linf_H": ..., "l2_V": ...}
    consecutive_diff: dict  # (eps_k, eps_k+1) -> {"linf_H": ..., "l2_V": ...}
    ratios: dict  # quantity -> max/min ratio across the sweep
    verdicts: dict  # quantity -> bool (ratio below threshold)
    ratio_threshold: float
    trajectories: dict | None = None
    measures: dict | None = None

    @property
    def all_bounded(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "eps_list": list(self.eps_list),
            "summaries": [vars(s) for s in self.summaries],
            "diff_to_finest": {str(k): v for k, v in self.diff_to_finest.items()},
            "consecutive_diff": {str(k): v for k, v in self.consecutive_diff.items()},
            "ratios": self.ratios,
            "verdicts": self.verdicts,
            "ratio_threshold": self.ratio_threshold,
        }


def uniform_ratio(values, atol: float = RATIO_ATOL) -> float:
    """Max/min ratio with an absolute floor: all-tiny means trivially 1."""
    vals = np.asarray(values, dtype=float)
    hi = float(np.max(vals))
    if hi <= atol:
        return 1.0
    lo = max(float(np.min(vals)), atol)
    return hi / lo


def summarize_run(traj: Trajectory, xi: XiMeasure, es) -> RunSummary:
    """The run's bounds and energies; ``es`` is its ``energy_series``."""
    grid = traj.grid
    w = grid.mass_weights
    reaction = traj.reaction
    sup_v = float(np.max(np.sqrt(np.maximum((traj.V * traj.V) @ w, 0.0))))
    sup_pot = float(np.max(es["potential"]))
    bv = float(np.sum(np.abs(traj.V[1:] - traj.V[:-1]) @ w))
    sup_Au = _sup_Au(traj)
    h1tv = _h1_time_v_norm(traj)
    overshoot = float(np.max(np.maximum(np.abs(traj.U) - 1.0, 0.0)))
    e_max = float(np.max(es["total"]))
    bound = math.sqrt(2.0 * reaction.epsilon * max(e_max, 0.0)) + 2.0 * traj.dt
    return RunSummary(
        epsilon=reaction.epsilon,
        dt=traj.dt,
        sup_v=sup_v,
        sup_potential=sup_pot,
        l1_mass=xi.total_l1,
        bv_proxy=bv,
        sup_Au=sup_Au,
        h1_time_v=h1tv,
        overshoot=overshoot,
        overshoot_bound=bound,
        e_max=e_max,
        e_initial=float(es["total"][0]),
        e_final=float(es["total"][-1]),
    )


def _sup_Au(traj: Trajectory) -> float:
    """sup over the recorded times of ||A u(t)||."""
    AU = apply_A(traj.grid, traj.U)
    return math.sqrt(max(float(np.max((AU * AU) @ traj.grid.mass_weights)), 0.0))


def _h1_time_v_norm(traj: Trajectory) -> float:
    """Discrete H1-in-time norm of u with values in V (trapezoid in time)."""
    grid = traj.grid
    w = grid.mass_weights
    U, V = traj.U, traj.V
    sq = (U * U) @ w + edge_inner(grid, U, U) + (V * V) @ w + edge_inner(grid, V, V)
    return float(np.sqrt(max(np.trapezoid(sq, traj.times), 0.0)))


def _interp_states(times_from, M_from, times_to):
    """Linear interpolation of a (n_t, n_x) state matrix onto new times."""
    idx = np.clip(np.searchsorted(times_from, times_to), 1, len(times_from) - 1)
    t0 = times_from[idx - 1]
    t1 = times_from[idx]
    lam = ((times_to - t0) / (t1 - t0))[:, None]
    return (1.0 - lam) * M_from[idx - 1] + lam * M_from[idx]


def _traj_diff(grid, times, Ua, Ub) -> dict:
    d = Ua - Ub
    w = grid.mass_weights
    l2_sq = (d * d) @ w
    linf_H = float(np.sqrt(np.max(l2_sq)))
    v_sq = l2_sq + edge_inner(grid, d, d)
    l2_V = float(np.sqrt(np.trapezoid(v_sq, times)))
    return {"linf_H": linf_H, "l2_V": l2_V}


def checked_eps_list(eps_list) -> tuple:
    """The entries as floats; ValueError unless >= 3 of them, finite,
    positive and strictly decreasing."""
    eps_list = tuple(float(e) for e in eps_list)
    if not all(math.isfinite(e) and e > 0.0 for e in eps_list):
        raise ValueError("every entry must be finite and positive")
    if len(eps_list) < 3:
        raise ValueError("need >= 3 sweep entries")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    return eps_list


def epsilon_sweep(
    base_cfg: SimConfig, eps_list, dt_policy=None, keep_trajectories: bool = False,
    ratio_threshold: float = 10.0,
) -> SweepReport:
    """Run the continuation family and audit the uniform bounds.

    ``eps_list`` must be strictly decreasing with at least 3 entries.
    Runs share the grid, data, forcing, and theta; only the
    regularization index and (through the policy) the step move.
    """
    eps_list = checked_eps_list(eps_list)
    if dt_policy is None:
        dt_policy = default_dt_policy(base_cfg.T, base_cfg.dt)

    runs: dict[float, Trajectory] = {}
    xis: dict[float, XiMeasure] = {}
    for eps in eps_list:
        cfg = base_cfg.with_epsilon(eps, dt=dt_policy(eps))
        cfg = replace(cfg, label=f"{base_cfg.label or 'sweep'}-eps={eps:g}")
        try:
            traj = simulate(cfg)
        except RunError as exc:
            raise RunError(f"sweep member eps={eps:g} failed") from exc
        runs[eps] = traj
        xis[eps] = accumulate_xi(traj)

    summaries = tuple(summarize_run(runs[e], xis[e], energy_series(runs[e])) for e in eps_list)

    finest = runs[eps_list[-1]]
    grid = finest.grid
    t_common = finest.times
    U_interp = {
        e: _interp_states(runs[e].times, runs[e].U, t_common) for e in eps_list
    }
    diff_to_finest = {
        e: _traj_diff(grid, t_common, U_interp[e], finest.U) for e in eps_list[:-1]
    }
    consecutive = {
        (a, b): _traj_diff(grid, t_common, U_interp[a], U_interp[b])
        for a, b in zip(eps_list, eps_list[1:])
    }

    quantities = {
        "sup_v": [s.sup_v for s in summaries],
        "sup_potential": [s.sup_potential for s in summaries],
        "l1_mass": [s.l1_mass for s in summaries],
        "bv_proxy": [s.bv_proxy for s in summaries],
        "sup_Au": [s.sup_Au for s in summaries],
        "h1_time_v": [s.h1_time_v for s in summaries],
    }
    ratios = {k: uniform_ratio(v) for k, v in quantities.items()}
    verdicts = {k: r <= ratio_threshold for k, r in ratios.items()}

    return SweepReport(
        eps_list=eps_list,
        summaries=summaries,
        diff_to_finest=diff_to_finest,
        consecutive_diff=consecutive,
        ratios=ratios,
        verdicts=verdicts,
        ratio_threshold=ratio_threshold,
        trajectories=runs if keep_trajectories else None,
        measures=xis if keep_trajectories else None,
    )


# ---------------------------------------------------------------------------
# extra smoothness audit


_SMOOTH_PROFILES = {
    "dirichlet": ("zero", "sine"),
    "neumann": ("zero", "constant", "cosine"),
}


def _u0_in_domain_of_A(cfg: SimConfig) -> bool:
    spec = cfg.u0
    if not isinstance(spec, str):
        return False  # arrays carry no smoothness certificate
    name = spec.split(":")[0]
    return name in _SMOOTH_PROFILES[cfg.bc]


@dataclass(frozen=True)
class DAReport:
    skipped: bool
    diagnostic: str
    sup_Au: dict  # eps -> sup_t ||A u(t)||
    ratio: float
    bounded: bool


def da_regularity_check(
    base_cfg: SimConfig, eps_list, dt_policy=None, ratio_threshold: float = 10.0
) -> DAReport:
    """Audit sup_t ||A u(t)|| across the sweep for smooth compatible data."""
    if not _u0_in_domain_of_A(base_cfg):
        return DAReport(True, "u0 not in D(A): incompatible or uncertified profile", {}, 0.0, False)
    if dt_policy is None:
        dt_policy = default_dt_policy(base_cfg.T, base_cfg.dt)
    sup = {}
    for eps in eps_list:
        cfg = base_cfg.with_epsilon(float(eps), dt=dt_policy(float(eps)))
        sup[float(eps)] = _sup_Au(simulate(cfg))
    ratio = uniform_ratio(list(sup.values()))
    return DAReport(False, "", sup, ratio, ratio <= ratio_threshold)


# ---------------------------------------------------------------------------
# the limsup identity audit


@dataclass(frozen=True)
class LimsupAudit:
    s_eps: dict  # eps -> <<beta_eps(u_eps), u_eps>>
    pairing: float  # finest <xi, u> through the coarsened histogram
    rel_gap: float
    passed: bool


def pair_reaction_with_state(traj: Trajectory) -> float:
    """<<beta_eps(u_eps), u_eps>> in the scheme's own quadrature."""
    u_th = traj.theta_u()
    w = traj.grid.mass_weights
    return traj.dt * float(np.sum(traj.beta_theta * u_th * w[None, :]))


def limsup_identity_audit(
    report: SweepReport, tol: float = 0.02, n_bins: int = 400
) -> LimsupAudit:
    """Compare the reaction/state pairings with the finest measure pairing.

    The finest pairing goes through a coarsened histogram (cell-center
    evaluation of u), so agreement is a real check rather than an
    identity.
    """
    if report.trajectories is None:
        raise ValueError("sweep must be run with keep_trajectories=True")
    s_eps = {e: pair_reaction_with_state(report.trajectories[e]) for e in report.eps_list}
    finest = report.eps_list[-1]
    traj = report.trajectories[finest]
    xi = report.measures[finest].rebin(min(n_bins, traj.n_steps))
    u_on_cells = _interp_states(traj.times, traj.U, xi.t_eval)
    pairing = float(np.sum(xi.masses * u_on_cells))
    s_last = s_eps[finest]
    rel_gap = abs(s_last - pairing) / (1.0 + abs(pairing))
    return LimsupAudit(s_eps, pairing, rel_gap, rel_gap <= tol)


def mu_vanishing_sequence(report: SweepReport) -> dict:
    """Discrete mu_eps = <<beta_eps(u_eps), u_eps - u_finest>> per member."""
    if report.trajectories is None:
        raise ValueError("sweep must be run with keep_trajectories=True")
    finest = report.trajectories[report.eps_list[-1]]
    out = {}
    for e in report.eps_list:
        traj = report.trajectories[e]
        u_th = traj.theta_u()
        t_th = traj.theta_combine(traj.times)
        u_fin = _interp_states(finest.times, finest.U, t_th)
        w = traj.grid.mass_weights
        out[e] = traj.dt * float(
            np.sum(traj.beta_theta * (u_th - u_fin) * w[None, :])
        )
    return out


# ---------------------------------------------------------------------------
# approximation-dependence exhibit


def nonuniqueness_exhibit(
    epsilon: float = 1e-3, T: float = 1.5, family_phase: float = math.pi / 3.0
) -> dict:
    """Two regularizations of the same toy limit problem, different jumps.

    The Yosida run enters its boundary layer exactly at t = 1, so its
    velocity sampled at t = 1 is still +1.  The family run with
    r_threshold = 1 - eps*phase straddles t = 1 inside its layer and
    samples cos(phase) there.  Both satisfy the energy inequality and
    the overshoot bound, exhibiting how the limit's jump data depend on
    the approximation family.

    ConfigError naming ``--epsilon`` unless ``epsilon`` is finite and positive.
    """
    from .energy import energy_inequality_verdict, random_time_pairs

    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ConfigError("--epsilon", f"must be finite and positive, not {epsilon!r}")

    toy = SimConfig(
        n_nodes=1,
        bc="neumann",
        T=T,
        theta=0.5,
        u0="zero",
        u1="constant:1",
        lam=0.0,
    )
    # snap dt against 0.5 so the sampling time t = 1 sits on the step grid
    cfg_yosida = replace(
        toy,
        graph_kind="indicator",
        epsilon=epsilon,
        dt=snap_dt(0.5, math.sqrt(epsilon) / 100.0),
        label="yosida",
    )
    rt = 1.0 - epsilon * family_phase
    cfg_family = replace(
        toy,
        graph_kind="family",
        epsilon=None,
        r_threshold=rt,
        eps_param=epsilon,
        dt=snap_dt(0.5, epsilon / 50.0),
        label="family",
    )

    out = {"epsilon": epsilon, "family_r_threshold": rt, "runs": {}}
    for cfg in (cfg_yosida, cfg_family):
        traj = simulate(cfg)
        i1 = traj.time_index(1.0)
        v_at_1 = float(traj.V[i1, 0])
        xi = accumulate_xi(traj)
        summ = summarize_run(traj, xi, energy_series(traj))
        s_times, t_times = random_time_pairs(traj, np.random.default_rng(0), 20)
        verdict = energy_inequality_verdict(traj, s_times, t_times)
        out["runs"][cfg.label] = {
            "v_at_1": v_at_1,
            "overshoot": summ.overshoot,
            "overshoot_bound": summ.overshoot_bound,
            "overshoot_ok": summ.overshoot_ok,
            "energy_inequality_ok": verdict.all_pass,
            "worst_slack": verdict.worst_slack,
        }
    va = out["runs"]["yosida"]["v_at_1"]
    vb = out["runs"]["family"]["v_at_1"]
    out["velocity_gap"] = abs(va - vb)
    out["expected_family_velocity"] = math.cos(family_phase)
    out["distinct"] = out["velocity_gap"] > 0.2
    out["both_admissible"] = all(
        r["overshoot_ok"] and r["energy_inequality_ok"] for r in out["runs"].values()
    )
    return out
