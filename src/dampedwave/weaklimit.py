"""Constraint-reaction measure, weak-form residuals, and jump diagnostics.

The reaction beta_eps(u_eps), recorded per step by the integrator, is the
run's space-time reaction measure xi, with one time cell per step.  The
cell mass of step k and node i is dt * w_i * beta_theta, exactly the mass
the scheme injected (``Trajectory.masses``), so pairings of the measure
against test functions reproduce the scheme's own quadrature, and every
check takes the run alone.  Dirac atoms of the limit measure show up as
mass concentrating in O(layer-width) time bands; the window-refinement
profile (``window_profile``) makes that visible.  ``accumulate_xi``
coarsens the measure to uniform time cells, for ``xi.csv`` and the limsup
audit.

Test functions come from a finite symbolic dictionary (space-time
separable products) with exact time derivatives, which keeps numerical
differentiation out of the weak-residual error budget.  Spatial
gradient pairings use the discrete summation-by-parts form, so the
recorded solution satisfies the discrete weak identity up to pure
time-sampling error of order dt.  ``weak_residual`` takes the whole
dictionary: the terms of a residual that depend on phi only through its
spatial factor are built in one pass over the run per distinct factor,
shared by the functions with that factor and then dropped.

The subdifferential inclusion xi in dJ(u) is checked as its Fenchel-Young
gap (Rockafellar, Convex Analysis, 23; Brezis 1972 for integral
functionals):

    inf over v in [-1, 1] of  J(v) - J(clip u) - <xi, v - u>
        = -[J(clip u) + J*(xi) - <xi, u>],

the slack of the worst admissible v, so no candidate is drawn.  When the
limit potential is the indicator of [-1, 1] the mass weights are
positive, so J of the clipped trajectory is exactly 0 and J*(xi) is the
total mass ||xi||_1 (``Trajectory.reaction_l1``); only the logarithmic
limit integrates j and its conjugate j*(s) = 2 ln cosh(s/2)
(``graphs.log_j_conjugate``).

The measure is not stored as an array: a check forms the masses of a row
block from the run's records only when it reads that block.  Each check
reads the run once: one pass over row blocks (``Trajectory.step_values``,
or ``integrator.row_blocks`` over the records) gives every per-step or
per-record value it reduces, and the weak residual takes one pass per
distinct spatial factor.  Only maxima and counts are reduced per block; a
sum keeps its per-step column and is taken after the pass, as a whole-run
sum is, so it keeps that sum's bits.  Neither the measure nor the battery builds an
array the size of the run: the extra memory is a few blocks of
``integrator.BLOCK_ELEMENTS`` elements and a few per-step columns.  A
block has a multiple of ``integrator.GEMV_ROWS`` rows, so a product of
blocks with a vector, such as masses @ S or V @ (w S), gives the bits of
the whole-array product.  The total mass (``Trajectory.reaction_l1``) is
summed once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleTestFunction, TimeNotOnGrid
from .graphs import limit_is_indicator, limit_j, log_j_conjugate
from .grid import DIRICHLET, Grid, edge_inner
from .integrator import Trajectory, map_blocks, row_blocks

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
    L = grid.length
    if grid.is_homogeneous:
        spaces = [SpaceProfile("one", L)]
    else:
        spaces = [
            SpaceProfile("sin", L, k=1),
            SpaceProfile("sin", L, k=2),
            SpaceProfile("hat", L, center=0.5 * L, halfwidth=0.25 * L),
        ]
        if grid.bc != DIRICHLET:
            spaces = [SpaceProfile("one", L), SpaceProfile("cos", L, k=1)] + spaces
    return [
        TestFunction(tp, sp, name=f"{tp.kind}*{sp.kind}{sp.k if sp.kind in ('sin', 'cos') else ''}")
        for tp in times
        for sp in spaces
    ]


# ---------------------------------------------------------------------------
# the reaction measure


def accumulate_xi(traj: Trajectory, n_t: int) -> tuple:
    """The run's reaction measure coarsened to ``n_t`` uniform time cells
    (for export and audits): (edges, masses), ``n_t + 1`` cell edges and one
    row of masses per cell.  Each step's masses go to the cell of its
    evaluation time; the steps are added in order, as one ``np.add.at`` over
    all of them, a row block at a time."""
    edges = np.linspace(traj.times[0], traj.times[-1], n_t + 1)
    idx = np.clip(np.searchsorted(edges, traj.theta_combine(traj.times), side="right") - 1, 0, n_t - 1)
    masses = np.zeros((n_t, traj.grid.n_nodes))
    for steps in row_blocks(*traj.beta_theta.shape):
        np.add.at(masses, idx[steps], traj.masses(steps))
    return edges, masses


WINDOW_FACTORS = (8, 4, 2, 1)


def window_profile(traj: Trajectory, t0: float, width: float) -> dict:
    """Absolute reaction mass inside |t - t0| <= f * width for each f of
    ``WINDOW_FACTORS`` (nested windows around t0, which flag
    concentration), from one pass that forms the per-step |mass| once for
    every window; a step counts by the fraction of it inside a window."""
    edges = traj.times
    cell_l1 = map_blocks(*traj.beta_theta.shape, lambda steps: np.sum(np.abs(traj.masses(steps)), axis=1))
    out = {}
    for f in WINDOW_FACTORS:
        lo, hi = t0 - f * width, t0 + f * width
        overlap = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
        w = np.clip(overlap / (edges[1:] - edges[:-1]), 0.0, 1.0)
        out[f] = float(np.dot(w, cell_l1))
    return out


# ---------------------------------------------------------------------------
# weak-form residual


def _factor_pairings(traj: Trajectory, S, n_end: int) -> tuple:
    """The per-step pairings of the spatial factor S over the first n_end
    steps, in one pass over the row blocks of records 0 to n_end: masses @ S,
    and theta-combined V @ (w S), U @ (w S) and the edge pairings
    edge_inner(V, S) + edge_inner(U, S) (zero on one node).

    The three record pairings are kept per record and theta-combined
    after the pass.  A block of records starts at a multiple of
    ``integrator.GEMV_ROWS`` rows, like the steps' block of masses, so each
    ``@`` has the bits of the whole-array product on one BLAS thread.
    """
    grid = traj.grid
    wS = grid.mass_weights * S
    xi_S = np.empty(n_end)
    v_S, u_S, edge = np.empty((3, n_end + 1))
    for records in row_blocks(n_end + 1, grid.n_nodes):
        steps = slice(records.start, min(records.stop, n_end))
        xi_S[steps] = traj.masses(steps) @ S
        v, u = traj.V[records], traj.U[records]
        v_S[records], u_S[records] = v @ wS, u @ wS
        edge[records] = edge_inner(grid, v, S) + edge_inner(grid, u, S)
    return xi_S, traj.theta_combine(v_S), traj.theta_combine(u_S), traj.theta_combine(edge)


def weak_residual(traj: Trajectory, phis, t_end: float) -> list[float]:
    """Residuals of the integrated weak identity over (0, t_end), one per
    test function of ``phis``, in their order.

    All pairings use the theta-weighted step quadrature the integrator
    used, so a residual decays like C*dt under step refinement.  Every
    pairing is linear in the states: each recorded state is paired with a
    function's spatial factor S, then the per-record values are
    theta-combined.  The terms that depend on phi only through S are built
    once per distinct factor, in one pass over row blocks
    (``_factor_pairings``), used by every function with that factor and
    dropped; no array the size of the run is built.
    """
    phis = list(phis)
    for phi in phis:
        if not phi.admissible_for(traj.grid.bc):
            raise InadmissibleTestFunction(
                f"{phi.name or phi}: spatial factor not admissible for {traj.grid.bc}"
            )
    n_end = traj.time_index(t_end)
    if n_end == 0:
        raise TimeNotOnGrid("t_end must be positive")
    if not phis:
        return []

    grid, dt, lam = traj.grid, traj.dt, traj.cfg.lam
    times = traj.times[: n_end + 1]
    t_eval = traj.theta_combine(times)
    residuals = [0.0] * len(phis)
    for space in dict.fromkeys(phi.space for phi in phis):
        S = space.value(grid.x)
        wS = grid.mass_weights * S
        xi_space, v_dot_S, u_dot_S, edge = _factor_pairings(traj, S, n_end)
        g_S = None
        if traj.forcing is not None:
            g_S = np.full(n_end, np.vecdot(traj.forcing_theta, wS))
        for i, phi in enumerate(phis):
            if phi.space != space:
                continue
            Tv = phi.time.value(times)
            T_th = traj.theta_combine(Tv)
            Td_th = traj.theta_combine(phi.time.dvalue(times))
            # -<<u_t, phi_t>>
            acc = -dt * float(np.dot(Td_th, v_dot_S))
            # + (u_t(t_end), phi(t_end))
            acc += float(Tv[-1]) * float(np.dot(wS, traj.V[n_end]))
            # + <<grad u_t, grad phi>> + <<grad u, grad phi>>, summation by parts
            if not grid.is_homogeneous:
                acc += dt * float(np.dot(T_th, edge))
            # + int phi d(xi)
            acc += float(np.dot(phi.time.value(t_eval), xi_space))
            # - lambda <<u, phi>>
            acc -= lam * dt * float(np.dot(T_th, u_dot_S))
            # - (u_1, phi(0))
            acc -= float(Tv[0]) * float(np.dot(wS, traj.V[0]))
            # - <<g, phi>>
            if g_S is not None:
                acc -= dt * float(np.dot(T_th, g_S))
            residuals[i] = abs(acc)
        del xi_space, v_dot_S, u_dot_S, edge, g_S, Tv, T_th, Td_th  # before the next factor's pass
    return residuals


def solution_identity_residual(traj: Trajectory, s: float, t: float) -> float:
    """Residual of the weak form tested with the solution itself on (s, t).

    This is the identity that pins the measure/solution pairing:

        -||u_t||^2 + (u_t(t), u(t)) - (u_t(s), u(s)) + <<grad u_t, grad u>>
        + ||grad u||^2 + <xi restricted to (s,t], u> - lambda ||u||^2
        - <<g, u>>  ~  0,

    all time integrals in the scheme's theta-quadrature and the reaction
    term through the measure cells.  The value decays like C*dt.  Each
    term is a sum over steps of per-step pairings, all taken in one pass
    (``step_values``).
    """
    ks, kt = traj.time_index(s), traj.time_index(t)
    if not ks < kt:
        raise TimeNotOnGrid(f"need s < t on the grid, got s={s}, t={t}")
    grid = traj.grid
    dt = traj.dt
    w = grid.mass_weights
    lam = traj.cfg.lam
    g_th = None if traj.forcing is None else traj.forcing_theta

    def terms(steps, u, v):
        # columns: ||v||^2, the gradient pairings, <xi, u>, ||u||^2, <g, u> if forced
        columns = [
            np.vecdot(v * v, w),
            edge_inner(grid, v, u) + edge_inner(grid, u, u),
            np.vecdot(traj.masses(steps), u),
            np.vecdot(u * u, w),
        ]
        if g_th is not None:
            columns.append(np.vecdot(g_th * u, w))
        return np.stack(columns, axis=1)

    # each column summed on its own, pairwise like a whole-run sum
    vv, grad, xi_u, uu, *gu = map(np.sum, traj.step_values(terms, traj.U, traj.V)[ks:kt].T)
    acc = -dt * float(vv)
    acc += float(np.dot(w * traj.V[kt], traj.U[kt]))
    acc -= float(np.dot(w * traj.V[ks], traj.U[ks]))
    if not grid.is_homogeneous:
        acc += dt * float(grad)
    acc += float(xi_u)
    acc -= lam * dt * float(uu)
    if gu:
        acc -= dt * float(gu[0])
    return abs(acc)


# ---------------------------------------------------------------------------
# weak constraint (subdifferential) check


SUBDIFF_TOL = 1e-6


def subdifferential_check(traj: Trajectory) -> dict:
    """The inclusion xi in dJ(u) as its Fenchel-Young gap: the worst slack
    -[J(clip u) + J*(xi) - <xi, u>] and whether it is at least -SUBDIFF_TOL.

    J is the limit potential (the indicator of [-1, 1] for the hard
    constraint and for the piecewise-linear family), integrated over the
    measure's cells against theta-combined u, whose excursions outside
    [-1, 1] are O(sqrt(eps)) regularization overshoot.  The slack is the
    infimum of J(v) - J(clip u) - <xi, v - u> over every v with values in
    [-1, 1] (see the module docstring), so no candidate is drawn.  One pass
    over the run (``Trajectory.step_values``) gives <xi, u> and, for the
    logarithmic limit, J(clip u) and J*(xi) = sum dt w j*(beta_theta).
    """
    graph = traj.reaction.graph
    indicator = limit_is_indicator(graph)
    w = traj.grid.mass_weights

    def per_step(steps, u):
        # columns: <xi, u>, then J(clip u) and J*(xi) per unit dt unless the limit is the indicator
        columns = [np.vecdot(traj.masses(steps), u)]
        if not indicator:
            columns += [np.vecdot(limit_j(graph, np.clip(u, -1.0, 1.0)), w),
                        np.vecdot(log_j_conjugate(traj.beta_theta[steps]), w)]
        return np.stack(columns, axis=1)

    xi_u, *potentials = (float(np.sum(c)) for c in traj.step_values(per_step, traj.U).T)
    if indicator:
        slack = xi_u - traj.reaction_l1  # J(clip u) = 0 and J*(xi) = ||xi||_1
    else:
        slack = xi_u - traj.dt * potentials[0] - traj.dt * potentials[1]
    return {"passed": slack >= -SUBDIFF_TOL, "worst_slack": slack}


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


def singular_support_check(traj: Trajectory, threshold: float) -> SupportReport:
    """Check that significant mass sits where u is at the matching wall.

    Reports max over significant cells of (1 - sign(mass) * u_cell);
    values of order sqrt(eps) + dt confirm wall support.  The counts and
    the maximum are taken per step over row blocks, which leaves them exact.
    """
    def per_step(steps, u):
        # columns: significant cells, their largest misalignment (-inf if
        # none), positive and negative significant cells
        m = traj.masses(steps)
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


JUMP_KAPPA = 20.0


def detect_jumps(traj: Trajectory):
    """Flag steps whose velocity change exceeds JUMP_KAPPA times the
    trajectory's median.

    Flags closer than the run's boundary-layer width merge into one
    event; each event reports the flanking plateau velocities and the
    impulse (momentum lost across it).
    """
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
    thr = JUMP_KAPPA * med if med > 0.0 else JUMP_KAPPA * 1e-9 * peak
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

