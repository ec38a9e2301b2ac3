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
The seeded candidates are separable, v = tau (x) sigma, and are kept as
their two factors (SeparableCandidate).

Every check reduces per-step or per-record values that are computed over
row blocks (``Trajectory.step_values``, ``integrator.map_row_blocks``), so
the battery builds no array the size of the run: its extra memory is a few
blocks of ``integrator.BLOCK_ELEMENTS`` elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InadmissibleCandidate,
    InadmissibleTestFunction,
    MissingReactionRecords,
    TimeNotOnGrid,
)
from .graphs import limit_is_indicator, limit_j
from .grid import DIRICHLET, Grid, edge_inner
from .integrator import Trajectory, map_row_blocks, pairwise_sum

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
    """Separable space-time test function phi(t, x) = time(t) * space(x)."""

    __test__ = False  # not a pytest class, despite the name

    time: TimeProfile
    space: SpaceProfile
    name: str = ""

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
    def t_eval(self) -> np.ndarray:
        """Per-cell evaluation times (theta point inside each cell)."""
        return (1.0 - self.theta) * self.t_edges[:-1] + self.theta * self.t_edges[1:]

    @property
    def total_l1(self) -> float:
        """sum |masses|, with the bits of the whole-array sum and no |masses| array."""
        return pairwise_sum(np.abs, self.masses)

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

    def rebin(self, n_t: int) -> "XiMeasure":
        """Coarsen to n_t uniform time cells (for export and plotting)."""
        edges = np.linspace(self.t_edges[0], self.t_edges[-1], n_t + 1)
        idx = np.clip(
            np.searchsorted(edges, self.t_eval, side="right") - 1, 0, n_t - 1
        )
        masses = np.zeros((n_t, self.masses.shape[1]))
        np.add.at(masses, idx, self.masses)
        return XiMeasure(edges, self.x, masses, 0.5, self.epsilon)


def accumulate_xi(traj: Trajectory) -> XiMeasure:
    """Bin the recorded reaction into one time cell per step."""
    if traj.beta_theta is None or len(traj.beta_theta) != traj.n_steps:
        raise MissingReactionRecords("trajectory has no per-step reaction records")
    masses = traj.dt * traj.beta_theta
    masses *= traj.grid.mass_weights
    return XiMeasure(
        traj.times.copy(),
        traj.grid.x,
        masses,
        traj.theta,
        traj.reaction.epsilon,
    )


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
    pairs the states and the forcing with every distinct factor once, with
    the operations of a lone call.  The gradient and forcing pairings are
    taken over row blocks, so no array the size of the run is built.
    """

    def __init__(self, traj: Trajectory, xi: XiMeasure):
        self.traj, self.xi = traj, xi
        self._terms = {}

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
        edge = g_S = None
        if not grid.is_homogeneous:  # summation-by-parts form
            edge = traj.theta_combine(
                map_row_blocks(lambda v, u: edge_inner(grid, v, S) + edge_inner(grid, u, S), V, U)
            )
        if traj.forcing is not None:
            g_S = np.full(n_end, np.vecdot(traj.forcing_theta, wS))
        return _SpaceTerms(
            v_dot_S=traj.theta_combine(V @ wS),
            u_dot_S=traj.theta_combine(U @ wS),
            v_first=float(np.dot(wS, V[0])),
            v_last=float(np.dot(wS, V[n_end])),
            edge=edge,
            xi_S=self.xi.masses[:n_end] @ space.value(self.xi.x),
            g_S=g_S,
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


def solution_identity_residual(
    traj: Trajectory, xi: XiMeasure, s: float, t: float
) -> float:
    """Residual of the weak form tested with the solution itself on (s, t).

    This is the identity that pins the measure/solution pairing:

        -||u_t||^2 + (u_t(t), u(t)) - (u_t(s), u(s)) + <<grad u_t, grad u>>
        + ||grad u||^2 + <xi restricted to (s,t], u> - lambda ||u||^2
        - <<g, u>>  ~  0,

    all time integrals in the scheme's theta-quadrature and the reaction
    term through the measure cells.  The value decays like C*dt.  Each
    term is a sum over steps of per-step pairings (``step_values``).
    """
    ks, kt = traj.time_index(s), traj.time_index(t)
    if not ks < kt:
        raise TimeNotOnGrid(f"need s < t on the grid, got s={s}, t={t}")
    grid = traj.grid
    dt = traj.dt
    w = grid.mass_weights
    lam = traj.cfg.lam

    def terms(steps, u, v):
        # columns: ||v||^2, the gradient pairings, <xi, u>, ||u||^2
        return np.stack([
            np.vecdot(v * v, w),
            edge_inner(grid, v, u) + edge_inner(grid, u, u),
            np.vecdot(xi.masses[steps], u),
            np.vecdot(u * u, w),
        ], axis=1)

    # each column summed on its own, pairwise like a whole-run sum
    vv, grad, xi_u, uu = map(np.sum, traj.step_values(terms, traj.U, traj.V)[ks:kt].T)
    acc = -dt * float(vv)
    acc += float(np.dot(w * traj.V[kt], traj.U[kt]))
    acc -= float(np.dot(w * traj.V[ks], traj.U[ks]))
    if not grid.is_homogeneous:
        acc += dt * float(grad)
    acc += float(xi_u)
    acc -= lam * dt * float(uu)
    if traj.forcing is not None:
        g_th = traj.forcing_theta
        gu = traj.step_values(lambda steps, u: np.vecdot(g_th * u, w), traj.U)
        acc -= dt * float(np.sum(gu[ks:kt]))
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

    A candidate is an (n_steps, n_nodes) array or a ``SeparableCandidate``.
    Each costs one pairing and, for an indicator limit, no potential
    integral (see the module docstring).  Everything is reduced per step
    over row blocks (``Trajectory.step_values``); a separable candidate
    pairs as tau @ (masses @ sigma) and has max|v| = max|tau| * max|sigma|
    (``SeparableCandidate.max_abs``), so neither it nor theta-combined u
    is built.
    """
    graph = traj.reaction.graph
    indicator = limit_is_indicator(graph)
    w = traj.grid.mass_weights
    dt = traj.dt
    shape = (traj.n_steps, traj.grid.n_nodes)

    def step_sum(fn, *Qs):
        return float(np.sum(traj.step_values(fn, *Qs)))

    def J(rows, *Qs):
        """J of the field whose rows ``rows(steps, *blocks)`` gives."""
        return dt * step_sum(lambda steps, *b: np.vecdot(limit_j(graph, rows(steps, *b)), w), *Qs)

    def pair(steps, v):
        return np.vecdot(xi.masses[steps], v)

    ju = 0.0 if indicator else J(lambda steps, u: np.clip(u, -1.0, 1.0), traj.U)
    xi_u = step_sum(pair, traj.U)
    entries = []
    for idx, v in enumerate(candidates):
        if not isinstance(v, SeparableCandidate):
            v = np.asarray(v, dtype=float)
        if v.shape != shape:
            raise InadmissibleCandidate(f"candidate {idx}: shape {v.shape} != {shape}")
        if isinstance(v, SeparableCandidate):
            rows, v_max = v.rows, v.max_abs
            xi_v = float(v.tau @ (xi.masses @ v.sigma))
        else:
            rows = v.__getitem__
            v_max = _max_abs(v)
            xi_v = step_sum(lambda steps: pair(steps, v[steps]))
        if v_max > 1.0 + 1e-12:
            raise InadmissibleCandidate(f"candidate {idx}: leaves [-1, 1]")
        if indicator:
            jv = 0.0 if v_max <= 1.0 else math.inf
        else:
            jv = J(rows)
        slack = jv - ju - (xi_v - xi_u)
        entries.append(SubdiffEntry(idx, slack, slack >= -tol))
    return SubdiffReport(tol, tuple(entries))


def _max_abs(v: np.ndarray) -> float:
    """max|v| without a |v| array; a zero maximum is +0.0."""
    return abs(max(v.max(), -v.min()))


@dataclass(frozen=True, eq=False)
class SeparableCandidate:
    """The candidate v[k, i] = tau[k] * sigma[i], kept as its two factors.

    ``np.asarray`` gives the outer product, so it serves wherever an array
    candidate does; ``subdifferential_check`` uses the factors.
    """

    tau: np.ndarray
    sigma: np.ndarray

    @property
    def shape(self) -> tuple:
        return (len(self.tau), len(self.sigma))

    @property
    def max_abs(self) -> float:
        """``_max_abs`` of the outer product, bit for bit: |tau_k * sigma_i|
        rounds monotonically in |tau_k| and |sigma_i|."""
        return _max_abs(self.tau) * _max_abs(self.sigma)

    def rows(self, steps: slice) -> np.ndarray:
        """The candidate's rows ``steps``."""
        return np.outer(self.tau[steps], self.sigma)

    def __array__(self, dtype=None, copy=None):
        v = np.outer(self.tau, self.sigma)
        return v if dtype is None else v.astype(dtype, copy=False)


def iter_random_candidates(traj: Trajectory, n: int, rng: np.random.Generator):
    """Seeded admissible candidates, products of piecewise-linear factors,
    drawn one at a time, each as a ``SeparableCandidate``: its two factors
    take n_steps + n_nodes floats, where the array takes their product."""
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
        yield SeparableCandidate(tau, sigma)


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
    values of order sqrt(eps) + dt confirm wall support.  The counts and
    the maximum are taken per step over row blocks, which leaves them exact.
    """
    if xi.masses.shape != (traj.n_steps, traj.grid.n_nodes):
        raise MissingReactionRecords("measure is not at trajectory resolution")

    def per_step(steps, u):
        # columns: significant cells, their largest misalignment (-inf if
        # none), positive and negative significant cells
        m = xi.masses[steps]
        sig = np.abs(m) > threshold
        mis = np.where(sig, 1.0 - np.sign(m) * u, -np.inf)
        return np.stack([
            np.sum(sig, axis=1), np.max(mis, axis=1),
            np.sum(sig & (m > 0), axis=1), np.sum(sig & (m < 0), axis=1),
        ], axis=1)

    values = traj.step_values(per_step, traj.U)
    n_sig, positive, negative = (int(np.sum(values[:, c])) for c in (0, 2, 3))
    if n_sig == 0:
        return SupportReport(0, 0.0, 0, 0)
    return SupportReport(n_sig, float(np.max(values[:, 1])), positive, negative)


# ---------------------------------------------------------------------------
# velocity jumps


@dataclass(frozen=True)
class JumpEvent:
    t: float
    v_before: np.ndarray
    v_after: np.ndarray
    impulse: float


def detect_jumps(traj: Trajectory, kappa: float = 20.0):
    """Flag steps whose velocity change dwarfs the trajectory's median.

    Flags closer than the run's boundary-layer width merge into one
    event; each event reports the flanking plateau velocities and the
    impulse (momentum lost across it).
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    window = traj.reaction.layer_width
    w = traj.grid.mass_weights
    V = traj.V

    def change_sq(steps):
        dV = np.diff(V[steps.start : steps.stop + 1], axis=0)
        return np.vecdot(dV * dV, w)

    changes = np.sqrt(np.maximum(traj.step_values(change_sq), 0.0))
    if not len(changes):
        return []
    med = _median(changes)
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


def _median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array, bit for bit: the mean of its
    middle order statistics, or the nan that sorts last if an entry is nan.
    ``np.median`` imports ``numpy.ma`` on its first call; this takes one
    ``np.partition``."""
    n = len(x)
    part = np.partition(x, [(n - 1) // 2, n // 2, n - 1])  # nan sorts last
    return float(part[-1] if np.isnan(part[-1]) else np.mean(part[(n - 1) // 2 : n // 2 + 1]))


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

