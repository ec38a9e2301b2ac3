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

Each member's summary (``summarize_run``) reads the run in one pass over
row blocks.  The audits that pair a member's reaction with a state
(``pair_reaction_with_state``, ``mu_vanishing_sequence``) sum over flat
pieces of the member's steps (``integrator.pairwise_pieces``), with the
bits of the whole-run sum; none of them builds an array the size of a
run.

The members are independent runs (``_member``: run, measure, summary),
so they run concurrently, one process per CPU in the affinity mask.
``_lpt_shares`` splits them by longest processing time first on their
node-steps; the calling process keeps the heaviest share and ``os.fork``s
a child for each other share.  A child runs its whole share, writes its
outcomes to a pipe as one pickle stream (protocol 5, which holds each
array's bytes once and which ``pickle.load`` reads straight into the
array it rebuilds) and ends with ``os._exit``; it also ends when the
parent does.  With one CPU, or no ``os.fork``, the same code runs every
member in-process.  Each member's warnings are recorded and issued again
in member order, and a failure is the one a loop over the members would
have stopped at, so the report, stdout and stderr are the same bytes
whatever the number of processes.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import SimConfig
from .energy import energy_series
from .errors import ConfigError, RunError
from .grid import apply_A, edge_inner
from .integrator import Trajectory, pairwise_pieces, row_blocks, simulate
from .weaklimit import XiMeasure, accumulate_xi

RATIO_ATOL = 1e-12
# a quantity is uniformly bounded when its max/min ratio across the sweep is at most this
RATIO_THRESHOLD = 10.0


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
    verdicts: dict  # quantity -> bool (ratio at most RATIO_THRESHOLD)
    trajectories: dict  # eps -> Trajectory
    measures: dict  # eps -> XiMeasure

    def to_dict(self) -> dict:
        return {
            "eps_list": list(self.eps_list),
            "summaries": [vars(s) for s in self.summaries],
            "diff_to_finest": {str(k): v for k, v in self.diff_to_finest.items()},
            "consecutive_diff": {str(k): v for k, v in self.consecutive_diff.items()},
            "ratios": self.ratios,
            "verdicts": self.verdicts,
            "ratio_threshold": RATIO_THRESHOLD,
        }


def uniform_ratio(values) -> float:
    """Max/min ratio with the absolute floor RATIO_ATOL: all-tiny means trivially 1."""
    vals = np.asarray(values, dtype=float)
    hi = float(np.max(vals))
    if hi <= RATIO_ATOL:
        return 1.0
    lo = max(float(np.min(vals)), RATIO_ATOL)
    return hi / lo


def summarize_run(traj: Trajectory, xi: XiMeasure, es) -> RunSummary:
    """The run's bounds and energies; ``es`` is its ``energy_series``.

    One pass over the row blocks of the records gives every norm: the
    maxima over the records of ||v||, ||A u||^2 and the overshoot, which
    are exact in any order, are taken per block; the H1-in-time norm's
    per-record values and the variation's per-step values are kept as
    columns and reduced after the pass (``np.trapezoid``, ``np.sum``), as
    a whole-run reduction would.  No array the size of the run is built.
    """
    grid, reaction = traj.grid, traj.reaction
    w = grid.mass_weights
    n = traj.n_steps
    h1_sq, variation = np.empty(n + 1), np.empty(n)
    maxima = []  # per block: sup ||v||, sup ||A u||^2, overshoot
    for records in row_blocks(n + 1, grid.n_nodes):
        steps = slice(records.start, min(records.stop, n))
        u, v = traj.U[records], traj.V[records]
        v_sq = np.vecdot(v * v, w)
        Au = apply_A(grid, u)
        maxima.append((
            np.max(np.sqrt(np.maximum(v_sq, 0.0))),
            np.max(np.vecdot(Au * Au, w)),
            np.max(np.maximum(np.abs(u) - 1.0, 0.0)),
        ))
        # the discrete H1-in-time norm of u with values in V (trapezoid in time)
        h1_sq[records] = np.vecdot(u * u, w) + edge_inner(grid, u, u) + v_sq + edge_inner(grid, v, v)
        dv = np.diff(traj.V[steps.start : steps.stop + 1], axis=0)
        variation[steps] = np.vecdot(np.abs(dv), w)
    sup_v, sup_Au_sq, overshoot = np.max(maxima, axis=0)
    e_max = float(np.max(es["total"]))
    bound = math.sqrt(2.0 * reaction.epsilon * max(e_max, 0.0)) + 2.0 * traj.dt
    return RunSummary(
        epsilon=reaction.epsilon,
        dt=traj.dt,
        sup_v=float(sup_v),
        sup_potential=float(np.max(es["potential"])),
        l1_mass=xi.total_l1,
        bv_proxy=float(np.sum(variation)),
        sup_Au=math.sqrt(max(float(sup_Au_sq), 0.0)),
        h1_time_v=float(np.sqrt(max(np.trapezoid(h1_sq, traj.times), 0.0))),
        overshoot=float(overshoot),
        overshoot_bound=bound,
        e_max=e_max,
        e_initial=float(es["total"][0]),
        e_final=float(es["total"][-1]),
    )


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


# ---------------------------------------------------------------------------
# the members of a sweep, one process per usable CPU


def _member(cfg: SimConfig):
    """One member of a sweep: its trajectory, measure and RunSummary."""
    traj = simulate(cfg)
    xi = accumulate_xi(traj)
    return traj, xi, summarize_run(traj, xi, energy_series(traj))


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _lpt_shares(weights, n: int) -> list:
    """The indices of ``weights`` in at most ``n`` shares, longest processing
    time first (Graham, SIAM J. Appl. Math. 17, 1969): each index, the
    heaviest first, joins the share with the least load so far.  The shares
    come heaviest first, each in index order, and none is empty."""
    n = max(1, min(n, len(weights)))
    shares, loads = [[] for _ in range(n)], [0.0] * n
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        s = loads.index(min(loads))
        shares[s].append(i)
        loads[s] += weights[i]
    return [sorted(shares[s]) for s in sorted(range(n), key=lambda s: -loads[s])]


def _run_share(member, share) -> list:
    """``member(i)`` for each i of ``share`` in order, each under
    ``warnings.catch_warnings(record=True)``, up to the first that raises.

    One outcome per member run: (i, its warnings as (text, category,
    filename, lineno), whether it returned, its result or exception).
    """
    outcomes = []
    for i in share:
        with warnings.catch_warnings(record=True) as caught:
            try:
                value, ok = member(i), True
            except Exception as exc:
                value, ok = exc, False
        issued = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        outcomes.append((i, issued, ok, value))
        if not ok:
            break
    return outcomes


def _warn_again(text, category, filename, lineno) -> None:
    """Issue a recorded warning as ``warnings.warn`` issued it from
    ``filename``: through this process's filters and the registry of the
    module that holds the line, so a repeat shows as often as it would
    have in one process."""
    module = next(
        (m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == filename), None
    )
    g = vars(module) if module is not None else {}
    warnings.warn_explicit(
        text, category, filename, lineno, module=g.get("__name__"),
        registry=g.setdefault("__warningregistry__", {}), module_globals=g or None,
    )


def _fork_share(member, share, pipes) -> tuple:
    """(pid, read end of its pipe) of a child that runs ``_run_share`` on
    ``share`` and writes the outcomes to the pipe as one pickle (protocol
    5); it closes ``pipes``, the read ends of the children forked before
    it, and ends with ``os._exit``, so it runs no atexit handler and
    flushes no inherited stdio buffer."""
    r, w = os.pipe()
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            _end_with_parent(parent)
            os.close(r)
            for pipe in pipes:
                pipe.close()
            with open(w, "wb") as pipe:
                pickle.dump(_run_share(member, share), pipe, protocol=5)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _end_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this child when ``parent`` ends (Linux
    ``prctl(PR_SET_PDEATHSIG)``), so that a parent killed by a signal it
    does not catch leaves no child running; end at once if it already has.
    Without ``prctl`` a child ends when it finds the pipe closed."""
    import ctypes
    import signal

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except AttributeError:
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def _map_members(fn, cfgs, eps_list) -> list:
    """``[fn(cfg) for cfg in cfgs]``, the members of the sweep over
    ``eps_list``, run in ``_usable_cpus()`` processes.

    The members are split by ``_lpt_shares`` on their node-steps
    T/dt * n_nodes.  This process runs the heaviest share and forks one
    child for each other share; with one CPU it runs every member itself.
    The outcomes are taken in member order: each member's warnings are
    issued again, and the first member that raised (the one a loop over
    ``cfgs`` would stop at) raises here, a RunError as ``sweep member
    eps=... failed``.  Each child's outcomes are one protocol-5 pickle
    stream on its pipe, read by ``pickle.load``; a child whose stream
    ends empty or cut short, or that exits other than 0, is a RunError
    naming its members.  Whatever is raised, every child is killed and
    reaped first.
    """

    def member(i):
        try:
            return fn(cfgs[i])
        except RunError as exc:
            raise RunError(f"sweep member eps={eps_list[i]:g} failed") from exc

    weights = [cfg.T / cfg.dt * cfg.n_nodes for cfg in cfgs]
    mine, *others = _lpt_shares(weights, _usable_cpus())
    children = {}  # pid -> (read end of its pipe, its share)
    outcomes = []
    try:
        for share in others:
            pid, pipe = _fork_share(member, share, [p for p, _ in children.values()])
            children[pid] = (pipe, share)
        outcomes += _run_share(member, mine)
        for pid, (pipe, share) in list(children.items()):
            if any(not ok and i < share[0] for i, _, ok, _ in outcomes):
                continue  # an earlier member failed; the finally kills this child
            try:
                got = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the stream ended empty or cut
                got = None
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            pipe.close()
            if got is None or status != 0:
                why = (f"signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
                       else f"exit status {os.waitstatus_to_exitcode(status)}")
                names = ",".join(f"{eps_list[i]:g}" for i in share)
                got = [(share[0], [], False, RunError(
                    f"sweep member{'s' * (len(share) > 1)} eps={names} failed: "
                    f"the process running {'them' if len(share) > 1 else 'it'} "
                    f"ended without a result ({why})"))]
            outcomes += got
    finally:
        for pid, (pipe, _) in children.items():
            import signal  # only here: the command imports no module it does not use

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()

    results = []
    for _, issued, ok, value in sorted(outcomes, key=lambda o: o[0]):
        for w in issued:
            _warn_again(*w)
        if not ok:
            raise value
        results.append(value)
    return results


def epsilon_sweep(base_cfg: SimConfig, eps_list) -> SweepReport:
    """Run the continuation family and audit the uniform bounds.

    ``eps_list`` must be strictly decreasing with at least 3 entries.
    Runs share the grid, data, forcing, and theta; only the
    regularization index and (through ``default_dt_policy``) the step
    move.  The report keeps every member's trajectory and measure.

    The members are independent runs (``_member``), so ``_map_members``
    runs them concurrently, one process per CPU the process may run on;
    the report, the warnings and a member's error are those of the
    members run one after another in ``eps_list`` order.
    """
    eps_list = checked_eps_list(eps_list)
    dt_policy = default_dt_policy(base_cfg.T, base_cfg.dt)
    label = base_cfg.label or "sweep"
    cfgs = [
        replace(base_cfg.with_epsilon(eps, dt=dt_policy(eps)), label=f"{label}-eps={eps:g}")
        for eps in eps_list
    ]
    members = _map_members(_member, cfgs, eps_list)
    runs = {e: m[0] for e, m in zip(eps_list, members)}
    xis = {e: m[1] for e, m in zip(eps_list, members)}
    summaries = tuple(m[2] for m in members)

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
    verdicts = {k: r <= RATIO_THRESHOLD for k, r in ratios.items()}

    return SweepReport(
        eps_list=eps_list,
        summaries=summaries,
        diff_to_finest=diff_to_finest,
        consecutive_diff=consecutive,
        ratios=ratios,
        verdicts=verdicts,
        trajectories=runs,
        measures=xis,
    )


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
    return _pair_reaction(traj, lambda steps, u_th: u_th)


def _pair_reaction(traj: Trajectory, field) -> float:
    """dt * sum(beta_theta * field(steps, u_th) * w) over the steps and
    nodes of the run, where ``field`` maps the theta-combined states
    ``u_th`` of the steps ``steps`` to the field paired with the reaction:
    the bits of the whole-run sum, summed over pieces of the flat steps
    (``integrator.pairwise_pieces``), so no array the size of the run is
    built."""
    w = traj.grid.mass_weights

    def rows(steps):
        u_th = traj.theta_combine(traj.U[steps.start : steps.stop + 1])
        return traj.beta_theta[steps] * field(steps, u_th) * w[None, :]

    return traj.dt * pairwise_pieces(rows, *traj.beta_theta.shape)


def limsup_identity_audit(report: SweepReport) -> LimsupAudit:
    """Compare the reaction/state pairings with the finest measure pairing.

    The finest pairing goes through a histogram coarsened to at most 400
    time bins (cell-center evaluation of u), so agreement is a real check
    rather than an identity; it passes at a relative gap of at most 0.02.
    """
    s_eps = {e: pair_reaction_with_state(report.trajectories[e]) for e in report.eps_list}
    finest = report.eps_list[-1]
    traj = report.trajectories[finest]
    xi = report.measures[finest].rebin(min(400, traj.n_steps))
    u_on_cells = _interp_states(traj.times, traj.U, xi.t_eval)
    pairing = float(np.sum(xi.rows(slice(None)) * u_on_cells))
    s_last = s_eps[finest]
    rel_gap = abs(s_last - pairing) / (1.0 + abs(pairing))
    return LimsupAudit(s_eps, pairing, rel_gap, rel_gap <= 0.02)


def mu_vanishing_sequence(report: SweepReport) -> dict:
    """Discrete mu_eps = <<beta_eps(u_eps), u_eps - u_finest>> per member."""
    finest = report.trajectories[report.eps_list[-1]]
    out = {}
    for e in report.eps_list:
        traj = report.trajectories[e]
        t_th = traj.theta_combine(traj.times)
        out[e] = _pair_reaction(
            traj, lambda steps, u_th: u_th - _interp_states(finest.times, finest.U, t_th[steps])
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
        traj, _, summ = _member(cfg)
        i1 = traj.time_index(1.0)
        v_at_1 = float(traj.V[i1, 0])
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
