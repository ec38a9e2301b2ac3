"""Constraint-reaction measure, weak-form residuals, and jump diagnostics.

The reaction beta_eps(u_eps), recorded per step by the integrator, is
binned into a space-time histogram (XiMeasure) with one time cell per
step.  The cell mass of step k and node i is dt * w_i * beta_theta,
exactly the mass the scheme injected, so pairings of the histogram
against test functions reproduce the scheme's own quadrature.  Dirac atoms of the
limit measure show up as mass concentrating in O(layer-width) time
bands; the window-refinement profile makes that visible.

Test functions come from a finite symbolic dictionary (space-time
separable products) with exact time derivatives, which keeps numerical
differentiation out of the weak-residual error budget.  Spatial
gradient pairings use the discrete summation-by-parts form, so the
recorded solution satisfies the discrete weak identity up to pure
time-sampling error of order dt.  The terms of a residual that depend
on phi only through its spatial factor are computed once per factor
(SpacePairings) and shared by the functions of a dictionary.

The subdifferential slack of a candidate v is

    J(v) - J(u) - <xi, v - u> = J(v) - J(u) - (<xi, v> - <xi, u>),

one dot product per candidate with <xi, u> taken once.  When the limit
potential is the indicator of [-1, 1] the mass weights are positive, so
J(u) of the clipped trajectory is exactly 0 and J(v) is 0 or +inf as
max|v| is at most 1 or not; only the logarithmic limit integrates J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InadmissibleCandidate,
    InadmissibleTestFunction,
    MissingReactionRecords,
    TimeNotOnGrid,
)
from .graphs import limit_is_indicator, limit_j
from .grid import DIRICHLET, Grid, edge_inner
from .integrator import Trajectory

# ---------------------------------------------------------------------------
# test-function dictionary


@dataclass(frozen=True)
class TimeProfile:
    """Scalar time factor with an exact derivative."""

    kind: str  # one | linear | reverse | hat
    T: float
    center: float = 0.0
    halfwidth: float = 1.0

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "one":
            return np.ones_like(t)
        if self.kind == "linear":
            return t.copy()
        if self.kind == "reverse":
            return self.T - t
        return np.maximum(0.0, 1.0 - np.abs(t - self.center) / self.halfwidth)

    def dvalue(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "one":
            return np.zeros_like(t)
        if self.kind == "linear":
            return np.ones_like(t)
        if self.kind == "reverse":
            return -np.ones_like(t)
        inside = np.abs(t - self.center) < self.halfwidth
        return np.where(inside, -np.sign(t - self.center) / self.halfwidth, 0.0)


@dataclass(frozen=True)
class SpaceProfile:
    """Spatial factor; dirichlet_ok marks membership in the Dirichlet space."""

    kind: str  # one | sin | cos | hat
    L: float
    k: int = 1
    center: float = 0.5
    halfwidth: float = 0.25

    @property
    def dirichlet_ok(self) -> bool:
        if self.kind == "sin":
            return True
        if self.kind == "hat":
            return (
                self.center - self.halfwidth > 0.0
                and self.center + self.halfwidth < self.L
            )
        return False

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "one":
            return np.ones_like(x)
        if self.kind == "sin":
            return np.sin(self.k * math.pi * x / self.L)
        if self.kind == "cos":
            return np.cos(self.k * math.pi * x / self.L)
        return np.maximum(0.0, 1.0 - np.abs(x - self.center) / self.halfwidth)


@dataclass(frozen=True)
class TestFunction:
    """Separable space-time test function phi(t, x)."""

    __test__ = False  # not a pytest class, despite the name

    time: TimeProfile
    space: SpaceProfile
    name: str = ""

    def __call__(self, t, x):
        return np.outer(self.time.value(np.atleast_1d(t)), self.space.value(x))

    def vanishes_at(self, t: float, tol: float = 1e-12) -> bool:
        return abs(float(self.time.value(t))) <= tol

    def admissible_for(self, bc: str) -> bool:
        return bc != DIRICHLET or self.space.dirichlet_ok


def default_dictionary(grid: Grid, T: float) -> list[TestFunction]:
    """The standard finite dictionary for a given grid and horizon."""
    times = [
        TimeProfile("one", T),
        TimeProfile("linear", T),
        TimeProfile("reverse", T),
        TimeProfile("hat", T, center=0.5 * T, halfwidth=0.25 * T),
    ]
    if grid.is_homogeneous:
        spaces = [SpaceProfile("one", grid.length)]
    else:
        spaces = [
            SpaceProfile("sin", grid.length, k=1),
            SpaceProfile("sin", grid.length, k=2),
        ]
        if grid.bc != DIRICHLET:
            spaces = [
                SpaceProfile("one", grid.length),
                SpaceProfile("cos", grid.length, k=1),
            ] + spaces
    if not grid.is_homogeneous:
        spaces.append(
            SpaceProfile(
                "hat", grid.length, center=0.5 * grid.length, halfwidth=0.25 * grid.length
            )
        )
    out = []
    for tp in times:
        for sp in spaces:
            out.append(TestFunction(tp, sp, name=f"{tp.kind}*{sp.kind}{sp.k if sp.kind in ('sin', 'cos') else ''}"))
    return out


# ---------------------------------------------------------------------------
# the reaction measure


@dataclass(frozen=True)
class XiMeasure:
    """Space-time histogram of the constraint reaction.

    ``masses[k, i]`` is the signed reaction mass of time cell k and
    space cell i; ``t_edges`` has one more entry than time cells.  In a
    run's measure (``accumulate_xi``) time cells coincide with integrator
    steps and ``theta`` locates the scheme's evaluation point inside each
    cell.
    """

    t_edges: np.ndarray
    x: np.ndarray
    masses: np.ndarray
    theta: float
    epsilon: float

    @property
    def n_t(self) -> int:
        return self.masses.shape[0]

    @property
    def n_x(self) -> int:
        return self.masses.shape[1]

    @property
    def t_eval(self) -> np.ndarray:
        """Per-cell evaluation times (theta point inside each cell)."""
        return (1.0 - self.theta) * self.t_edges[:-1] + self.theta * self.t_edges[1:]

    @property
    def total_l1(self) -> float:
        return float(np.sum(np.abs(self.masses)))

    def restrict_mass(self, t: float) -> float:
        """Signed mass of [0, t]: whole cells below plus a fractional cell."""
        edges = self.t_edges
        k = int(np.searchsorted(edges, t, side="right")) - 1
        acc = float(np.sum(self.masses[:max(k, 0)]))
        if 0 <= k < self.n_t:
            frac = (t - edges[k]) / (edges[k + 1] - edges[k])
            acc += frac * float(np.sum(self.masses[k]))
        return acc

    def window_mass(self, t0: float, halfwidth: float) -> float:
        """Absolute mass inside |t - t0| <= halfwidth (fractional cells)."""
        lo, hi = t0 - halfwidth, t0 + halfwidth
        edges = self.t_edges
        overlap = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
        w = np.clip(overlap / (edges[1:] - edges[:-1]), 0.0, 1.0)
        return float(np.dot(w, np.sum(np.abs(self.masses), axis=1)))

    def window_profile(self, t0: float, width: float, factors=(8, 4, 2, 1)) -> dict:
        """Mass in nested windows around t0; flags concentration."""
        return {f: self.window_mass(t0, f * width) for f in factors}

    def concentration_at(self, t: float, width: float) -> float:
        """Fraction of total mass within |tau - t| <= width.

        A cut time with a large value here sits inside a concentration
        band, where restrictions are genuinely before/after-sensitive.
        """
        tot = self.total_l1
        return self.window_mass(t, width) / tot if tot > 0.0 else 0.0

    def rebin(self, n_t: int) -> "XiMeasure":
        """Coarsen to n_t uniform time cells (for export and plotting)."""
        edges = np.linspace(self.t_edges[0], self.t_edges[-1], n_t + 1)
        idx = np.clip(
            np.searchsorted(edges, self.t_eval, side="right") - 1, 0, n_t - 1
        )
        masses = np.zeros((n_t, self.n_x))
        np.add.at(masses, idx, self.masses)
        return XiMeasure(edges, self.x, masses, 0.5, self.epsilon)

    def pair_with(self, phi: TestFunction, t_end: float | None = None) -> float:
        """Integral of phi against the measure, cells evaluated at t_eval."""
        tvals = phi.time.value(self.t_eval)
        svals = phi.space.value(self.x)
        if t_end is not None:
            tvals = np.where(self.t_eval <= t_end + 1e-12, tvals, 0.0)
        return float(np.dot(tvals, self.masses @ svals))


def accumulate_xi(traj: Trajectory) -> XiMeasure:
    """Bin the recorded reaction into one time cell per step."""
    if traj.beta_theta is None or len(traj.beta_theta) != traj.n_steps:
        raise MissingReactionRecords("trajectory has no per-step reaction records")
    w = traj.grid.mass_weights
    masses = traj.dt * traj.beta_theta * w[None, :]
    return XiMeasure(
        traj.times.copy(),
        traj.grid.x,
        masses,
        traj.theta,
        traj.reaction.epsilon,
    )


def l1_mass(xi: XiMeasure) -> float:
    """Total-variation proxy: sum of absolute cell masses."""
    return xi.total_l1


# ---------------------------------------------------------------------------
# weak-form residual


@dataclass(frozen=True)
class _SpaceTerms:
    """The terms of weak_residual that depend on phi only through S = phi.space."""

    v_dot_S: np.ndarray  # theta-combined (v, S) per step
    u_dot_S: np.ndarray  # theta-combined (u, S) per step
    v_first: float  # (u_t(0), S)
    v_last: float  # (u_t(t_end), S)
    edge: np.ndarray | None  # theta-combined grad pairings; None on one node
    xi_S: np.ndarray  # reaction mass per cell paired with S
    g_S: np.ndarray | None  # theta-combined (g, S); None without forcing


class SpacePairings:
    """Memo of weak_residual's spatial terms for one (traj, xi).

    A battery tests a dozen or more functions that share a few spatial
    factors.  Passing one instance to each of its weak_residual calls
    pairs the states with every distinct factor once, and builds the
    theta-combined forcing once, with the operations of a lone call.
    """

    def __init__(self, traj: Trajectory, xi: XiMeasure):
        self.traj, self.xi = traj, xi
        self._terms = {}

    @cached_property
    def _g_th(self):
        return self.traj.theta_forcing()

    def terms(self, space: SpaceProfile, n_end: int) -> _SpaceTerms:
        key = (space, n_end)
        if key not in self._terms:
            self._terms[key] = self._build(space, n_end)
        return self._terms[key]

    def _build(self, space: SpaceProfile, n_end: int) -> _SpaceTerms:
        traj, grid = self.traj, self.traj.grid
        S = space.value(grid.x)
        wS = grid.mass_weights * S
        U = traj.U[: n_end + 1]
        V = traj.V[: n_end + 1]
        edge = None
        if not grid.is_homogeneous:  # summation-by-parts form
            edge = traj.theta_combine(edge_inner(grid, V, S) + edge_inner(grid, U, S))
        g_th = self._g_th
        return _SpaceTerms(
            v_dot_S=traj.theta_combine(V @ wS),
            u_dot_S=traj.theta_combine(U @ wS),
            v_first=float(np.dot(wS, V[0])),
            v_last=float(np.dot(wS, V[n_end])),
            edge=edge,
            xi_S=self.xi.masses[:n_end] @ space.value(self.xi.x),
            g_S=None if g_th is None else g_th[:n_end] @ wS,
        )


def weak_residual(
    traj: Trajectory,
    xi: XiMeasure,
    phi: TestFunction,
    t_end: float,
    pairings: SpacePairings | None = None,
) -> float:
    """Residual of the integrated weak identity over (0, t_end).

    All pairings use the theta-weighted step quadrature the integrator
    used, so the residual decays like C*dt under step refinement.
    ``pairings``, built on the same traj and xi, shares the spatial
    terms between calls; the residual does not depend on it.
    """
    if not phi.admissible_for(traj.grid.bc):
        raise InadmissibleTestFunction(
            f"{phi.name or phi}: spatial factor not admissible for {traj.grid.bc}"
        )
    n_end = traj.time_index(t_end)
    if n_end == 0:
        raise TimeNotOnGrid("t_end must be positive")
    if pairings is None:
        pairings = SpacePairings(traj, xi)
    elif pairings.traj is not traj or pairings.xi is not xi:
        raise ValueError("pairings were built for another trajectory or measure")

    dt = traj.dt
    lam = traj.cfg.lam
    times = traj.times[: n_end + 1]

    # every pairing is linear in the states: pair each recorded state with
    # phi's spatial factor, then theta-combine the per-record values
    p = pairings.terms(phi.space, n_end)
    Tv = phi.time.value(times)
    T_th = traj.theta_combine(Tv)
    Td_th = traj.theta_combine(phi.time.dvalue(times))

    # -<<u_t, phi_t>>
    acc = -dt * float(np.dot(Td_th, p.v_dot_S))
    # + (u_t(t_end), phi(t_end))
    acc += float(Tv[-1]) * p.v_last
    # + <<grad u_t, grad phi>> + <<grad u, grad phi>>
    if p.edge is not None:
        acc += dt * float(np.dot(T_th, p.edge))
    # + int phi d(xi)
    acc += float(np.dot(phi.time.value(xi.t_eval[:n_end]), p.xi_S))
    # - lambda <<u, phi>>
    acc -= lam * dt * float(np.dot(T_th, p.u_dot_S))
    # - (u_1, phi(0))
    acc -= float(Tv[0]) * p.v_first
    # - <<g, phi>>
    if p.g_S is not None:
        acc -= dt * float(np.dot(T_th, p.g_S))
    return abs(acc)


def xi_pairing_partial(xi: XiMeasure, phi: TestFunction, n_cells: int) -> float:
    tvals = phi.time.value(xi.t_eval[:n_cells])
    svals = phi.space.value(xi.x)
    return float(np.dot(tvals, xi.masses[:n_cells] @ svals))


def solution_identity_residual(
    traj: Trajectory, xi: XiMeasure, s: float, t: float
) -> float:
    """Residual of the weak form tested with the solution itself on (s, t).

    This is the identity that pins the measure/solution pairing:

        -||u_t||^2 + (u_t(t), u(t)) - (u_t(s), u(s)) + <<grad u_t, grad u>>
        + ||grad u||^2 + <xi restricted to (s,t], u> - lambda ||u||^2
        - <<g, u>>  ~  0,

    all time integrals in the scheme's theta-quadrature and the reaction
    term through the measure cells.  The value decays like C*dt.
    """
    ks, kt = traj.time_index(s), traj.time_index(t)
    if not ks < kt:
        raise TimeNotOnGrid(f"need s < t on the grid, got s={s}, t={t}")
    grid = traj.grid
    dt = traj.dt
    w = grid.mass_weights
    lam = traj.cfg.lam

    u_th, v_th = traj.theta_states()
    u_th, v_th = u_th[ks:kt], v_th[ks:kt]

    acc = -dt * float(np.sum((v_th * v_th) @ w))
    acc += float(np.dot(w * traj.V[kt], traj.U[kt]))
    acc -= float(np.dot(w * traj.V[ks], traj.U[ks]))
    if not grid.is_homogeneous:
        acc += dt * float(np.sum(edge_inner(grid, v_th, u_th) + edge_inner(grid, u_th, u_th)))
    acc += float(np.sum(xi.masses[ks:kt] * u_th))
    acc -= lam * dt * float(np.sum((u_th * u_th) @ w))
    g_th = traj.theta_forcing()
    if g_th is not None:
        acc -= dt * float(np.sum((g_th[ks:kt] * u_th) @ w))
    return abs(acc)


# ---------------------------------------------------------------------------
# weak constraint (subdifferential) check


@dataclass(frozen=True)
class SubdiffEntry:
    index: int
    slack: float
    passed: bool


@dataclass(frozen=True)
class SubdiffReport:
    tol: float
    entries: tuple

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def worst_slack(self) -> float:
        return min((e.slack for e in self.entries), default=0.0)


def subdifferential_check(
    traj: Trajectory, xi: XiMeasure, candidates, tol: float = 1e-6
) -> SubdiffReport:
    """Slack J(v) - J(u) - <xi, v - u> per candidate; pass iff >= -tol.

    J is the limit potential (indicator of [-1,1] for the hard
    constraint and for the piecewise-linear family): it vanishes on
    admissible candidates and on the trajectory, whose excursions
    outside [-1,1] are O(sqrt(eps)) regularization overshoot.
    Candidates are per-step-by-node samples at the scheme's evaluation
    points, must lie in [-1, 1], and for Dirichlet runs represent
    interior values (their boundary trace is zero by convention).

    Each candidate costs one dot product and, for an indicator limit,
    no potential integral (see the module docstring).
    """
    u_th = traj.theta_u()
    graph = traj.reaction.graph
    indicator = limit_is_indicator(graph)
    w = traj.grid.mass_weights
    dt = traj.dt
    ju = 0.0
    if not indicator:
        ju = _limit_potential_time_integral(graph, np.clip(u_th, -1.0, 1.0), w, dt)
    xi_u = float(np.vdot(xi.masses, u_th))
    entries = []
    for idx, v in enumerate(candidates):
        v = np.asarray(v, dtype=float)
        if v.shape != u_th.shape:
            raise InadmissibleCandidate(
                f"candidate {idx}: shape {v.shape} != {u_th.shape}"
            )
        v_max = _max_abs(v)
        if v_max > 1.0 + 1e-12:
            raise InadmissibleCandidate(f"candidate {idx}: leaves [-1, 1]")
        if indicator:
            jv = 0.0 if v_max <= 1.0 else math.inf
        else:
            jv = _limit_potential_time_integral(graph, v, w, dt)
        pairing = float(np.vdot(xi.masses, v)) - xi_u
        slack = jv - ju - pairing
        entries.append(SubdiffEntry(idx, slack, slack >= -tol))
    return SubdiffReport(tol, tuple(entries))


def _max_abs(v: np.ndarray) -> float:
    """max|v| without a |v| array."""
    return max(v.max(), -v.min())


def _limit_potential_time_integral(graph, fields, w, dt) -> float:
    return dt * float(np.sum(limit_j(graph, fields) * w[None, :]))


def random_candidates(
    traj: Trajectory, n: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Seeded admissible candidates: products of piecewise-linear factors."""
    return list(iter_random_candidates(traj, n, rng))


def iter_random_candidates(traj: Trajectory, n: int, rng: np.random.Generator):
    """The candidates of ``random_candidates``, drawn one at a time to hold one in memory."""
    u_shape = (traj.n_steps, traj.grid.n_nodes)
    t_eval = traj.theta_combine(traj.times)
    x = traj.grid.x
    for _ in range(n):
        n_knots = int(rng.integers(3, 9))
        knots_t = np.linspace(traj.times[0], traj.times[-1], n_knots)
        vals_t = rng.uniform(-1.0, 1.0, n_knots)
        tau = np.interp(t_eval, knots_t, vals_t)
        if traj.grid.n_nodes == 1:
            sigma = np.ones(1)
        else:
            n_kx = int(rng.integers(2, 6))
            knots_x = np.linspace(x[0], x[-1], n_kx)
            vals_x = rng.uniform(-1.0, 1.0, n_kx)
            sigma = np.interp(x, knots_x, vals_x)
        v = np.outer(tau, sigma)
        assert v.shape == u_shape
        yield v


def static_boundary_example(alpha: float, candidates) -> list[float]:
    """Slacks for the static picture u(x) = x on (-1, 1) with xi = alpha*delta_1.

    Candidates are callables on [-1, 1] with values in [-1, 1]; the
    subdifferential slack reduces to alpha*(1 - v(1)), nonnegative for
    every admissible candidate, with equality when v(1) = 1.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    slacks = []
    xs = np.linspace(-1.0, 1.0, 201)
    for v in candidates:
        vals = np.asarray([float(v(x)) for x in xs])
        if np.max(np.abs(vals)) > 1.0 + 1e-12:
            raise InadmissibleCandidate("static candidate leaves [-1, 1]")
        # J(v) = J(u) = 0 for the hard constraint; only the atom pairs
        slacks.append(-alpha * (float(v(1.0)) - 1.0))
    return slacks


# ---------------------------------------------------------------------------
# singular support


@dataclass(frozen=True)
class SupportReport:
    n_significant: int
    max_misalignment: float
    positive_cells: int
    negative_cells: int

    @property
    def empty(self) -> bool:
        return self.n_significant == 0


def singular_support_check(
    xi: XiMeasure, traj: Trajectory, threshold: float
) -> SupportReport:
    """Check that significant mass sits where u is at the matching wall.

    Reports max over significant cells of (1 - sign(mass) * u_cell);
    values of order sqrt(eps) + dt confirm wall support.
    """
    u_th = traj.theta_u()
    if u_th.shape != xi.masses.shape:
        raise MissingReactionRecords("measure is not at trajectory resolution")
    sig = np.abs(xi.masses) > threshold
    if not np.any(sig):
        return SupportReport(0, 0.0, 0, 0)
    mis = 1.0 - np.sign(xi.masses[sig]) * u_th[sig]
    return SupportReport(
        int(np.sum(sig)),
        float(np.max(mis)),
        int(np.sum(xi.masses[sig] > 0)),
        int(np.sum(xi.masses[sig] < 0)),
    )


# ---------------------------------------------------------------------------
# velocity jumps


@dataclass(frozen=True)
class JumpEvent:
    t: float
    v_before: np.ndarray
    v_after: np.ndarray
    impulse: float


def detect_jumps(traj: Trajectory, kappa: float = 20.0, window: float | None = None):
    """Flag steps whose velocity change dwarfs the trajectory's median.

    Flags closer than ``window`` (default: the run's boundary-layer
    width) merge into one event; each event reports the flanking
    plateau velocities and the impulse (momentum lost across it).
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if window is None:
        window = traj.reaction.layer_width
    w = traj.grid.mass_weights
    dV = traj.V[1:] - traj.V[:-1]
    changes = np.sqrt(np.maximum((dV * dV) @ w, 0.0))
    if not len(changes):
        return []
    med = float(np.median(changes))
    peak = float(np.max(changes))
    if peak == 0.0:
        return []
    thr = kappa * med if med > 0.0 else kappa * 1e-9 * peak
    flagged = np.nonzero(changes > thr)[0]
    if not len(flagged):
        return []

    events = []
    group = [flagged[0]]
    t_mid = 0.5 * (traj.times[:-1] + traj.times[1:])
    for k in flagged[1:]:
        if t_mid[k] - t_mid[group[-1]] <= window:
            group.append(k)
        else:
            events.append(_make_event(traj, group, changes, w))
            group = [k]
    events.append(_make_event(traj, group, changes, w))
    return events


def _make_event(traj, group, changes, w):
    group = np.asarray(group)
    peak_k = int(group[np.argmax(changes[group])])
    t_mid = 0.5 * (traj.times[peak_k] + traj.times[peak_k + 1])
    i_before = max(int(group[0]) - 2, 0)
    i_after = min(int(group[-1]) + 3, len(traj.V) - 1)
    v_b = traj.V[i_before].copy()
    v_a = traj.V[i_after].copy()
    impulse = float(np.dot(w, v_b - v_a))
    return JumpEvent(float(t_mid), v_b, v_a, impulse)


# ---------------------------------------------------------------------------
# restriction compatibility


def restriction_compat(
    xi_full: XiMeasure, xi_sub: XiMeasure, phi: TestFunction, t: float
) -> float:
    """|int phi d(xi_sub) - int phi~ d(xi_full)| for phi vanishing at t.

    phi~ is the zero extension of phi beyond t.  The value stays at
    quadrature size even when an atom sits exactly at the cut time,
    because phi(t) = 0 kills it; a nonvanishing phi is rejected.
    """
    if not phi.vanishes_at(t):
        raise InadmissibleTestFunction(f"phi({t}) != 0: not in the vanishing subspace")
    sub = xi_sub.pair_with(phi)
    full = xi_full.pair_with(phi, t_end=t)
    return abs(sub - full)
