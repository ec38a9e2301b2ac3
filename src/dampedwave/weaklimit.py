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
time-sampling error of order dt.  ``weak_residual`` takes the whole
dictionary: the terms of a residual that depend on phi only through its
spatial factor are built once per distinct factor, shared by the
functions with that factor and then dropped.

The subdifferential slack of a candidate v is

    J(v) - J(u) - <xi, v - u> = J(v) - J(u) - (<xi, v> - <xi, u>),

one dot product per candidate with <xi, u> taken once.  When the limit
potential is the indicator of [-1, 1] the mass weights are positive, so
J(u) of the clipped trajectory is exactly 0 and J(v) is 0 or +inf as
max|v| is at most 1 or not; only the logarithmic limit integrates J.
Every candidate is separable, v = tau (x) sigma, and is kept as its two
factors (SeparableCandidate), so its pairing is tau @ (masses @ sigma).

The measure is not stored as an array: a run's XiMeasure holds the run's
own per-step records and forms the masses of a row block only when a check
asks for it (``XiMeasure.rows``).  Every check reduces per-step or
per-record values that are computed over row blocks
(``Trajectory.step_values``, ``integrator.map_row_blocks``), so neither
the measure nor the battery builds an array the size of the run: the
extra memory is a few blocks of ``integrator.BLOCK_ELEMENTS`` elements.  A
block has a multiple of ``integrator.GEMV_ROWS`` rows, so a product of
blocks with a vector, such as masses @ S, gives the bits of the
whole-array product.
"""

from __future__ import annotations

import itertools
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
from .integrator import (
    Trajectory,
    block_columns,
    map_blocks,
    map_row_blocks,
    pairwise_pieces,
    row_blocks,
)

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


@dataclass(frozen=True)
class XiMeasure:
    """Space-time histogram of the constraint reaction.

    ``rows(cells)`` gives the signed reaction masses of the time cells
    ``cells`` (a slice), one row per time cell and one column per space
    cell: ``(dt * records[cells]) * weights``, the bits of the whole-array
    product, formed only when a block is asked for.  ``t_edges`` has one
    more entry than time cells.  A run's measure (``accumulate_xi``) holds
    the run's per-step reaction records themselves as ``records``
    (``traj.beta_theta``, not a copy), with the step ``dt`` and the mass
    ``weights``: its time cells are the integrator steps, and ``theta``
    locates the scheme's evaluation point inside each.  A rebinned measure
    holds its masses as ``records``, with ``dt`` 1 and ``weights`` 1, which
    leave every bit of them.  Every method works over row blocks, so none
    builds an array the size of the run.
    """

    t_edges: np.ndarray
    x: np.ndarray
    records: np.ndarray
    theta: float
    epsilon: float
    dt: float
    weights: np.ndarray

    @property
    def shape(self) -> tuple:
        """(time cells, space cells)."""
        return self.records.shape

    @property
    def n_t(self) -> int:
        return self.records.shape[0]

    def rows(self, cells: slice) -> np.ndarray:
        """The masses of the time cells ``cells``, one row per cell."""
        m = self.dt * self.records[cells]
        m *= self.weights
        return m

    @property
    def t_eval(self) -> np.ndarray:
        """Per-cell evaluation times (theta point inside each cell)."""
        return (1.0 - self.theta) * self.t_edges[:-1] + self.theta * self.t_edges[1:]

    @property
    def total_l1(self) -> float:
        """sum |masses|, with the bits of the whole-array sum and no |masses| array."""
        b, n_x = np.ravel(self.records), self.shape[1]

        def piece_sum(piece):
            # flat cell j has weight weights[j % n_x]: slice a tiled row
            i, n = piece.start % n_x, piece.stop - piece.start
            m = self.dt * b[piece]
            m *= np.tile(self.weights, (i + n) // n_x + 1)[i : i + n]
            return np.sum(np.abs(m, out=m))

        return pairwise_pieces(piece_sum, b.size)

    def window_mass(self, t0: float, halfwidth: float) -> float:
        """Absolute mass inside |t - t0| <= halfwidth (fractional cells)."""
        lo, hi = t0 - halfwidth, t0 + halfwidth
        edges = self.t_edges
        overlap = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
        w = np.clip(overlap / (edges[1:] - edges[:-1]), 0.0, 1.0)
        cell_l1 = map_blocks(*self.shape, lambda cells: np.sum(np.abs(self.rows(cells)), axis=1))
        return float(np.dot(w, cell_l1))

    def window_profile(self, t0: float, width: float, factors=(8, 4, 2, 1)) -> dict:
        """Mass in nested windows around t0; flags concentration."""
        return {f: self.window_mass(t0, f * width) for f in factors}

    def rebin(self, n_t: int) -> "XiMeasure":
        """Coarsen to n_t uniform time cells (for export and plotting); the
        cells are added in order, as one ``np.add.at`` over all of them."""
        edges = np.linspace(self.t_edges[0], self.t_edges[-1], n_t + 1)
        idx = np.clip(
            np.searchsorted(edges, self.t_eval, side="right") - 1, 0, n_t - 1
        )
        masses = np.zeros((n_t, self.shape[1]))
        for cells in row_blocks(*self.shape):
            np.add.at(masses, idx[cells], self.rows(cells))
        return XiMeasure(edges, self.x, masses, 0.5, self.epsilon, 1.0, np.ones(len(self.x)))


def accumulate_xi(traj: Trajectory) -> XiMeasure:
    """Bin the recorded reaction into one time cell per step: a measure over
    the run's own ``beta_theta``, which it does not copy."""
    if traj.beta_theta is None or len(traj.beta_theta) != traj.n_steps:
        raise MissingReactionRecords("trajectory has no per-step reaction records")
    return XiMeasure(
        traj.times.copy(),
        traj.grid.x,
        traj.beta_theta,
        traj.theta,
        traj.reaction.epsilon,
        traj.dt,
        traj.grid.mass_weights,
    )


# ---------------------------------------------------------------------------
# weak-form residual


def _pair_xi(xi: XiMeasure, spaces, n_end: int) -> list:
    """masses[:n_end] @ S for the factor S of each of ``spaces``, in one pass
    over row blocks that forms each block of masses once."""
    Ss = [space.value(xi.x) for space in spaces]

    def pair(cells):
        m = xi.rows(cells)
        return np.stack([m @ S for S in Ss], axis=1)

    per_cell = map_blocks(n_end, xi.shape[1], pair)
    return [np.ascontiguousarray(c) for c in per_cell.T]


def weak_residual(traj: Trajectory, xi: XiMeasure, phis, t_end: float) -> list[float]:
    """Residuals of the integrated weak identity over (0, t_end), one per
    test function of ``phis``, in their order.

    All pairings use the theta-weighted step quadrature the integrator
    used, so a residual decays like C*dt under step refinement.  Every
    pairing is linear in the states: each recorded state is paired with a
    function's spatial factor S, then the per-record values are
    theta-combined.  The terms that depend on phi only through S are built
    once per distinct factor, used by every function with that factor and
    dropped.  The reaction is paired with all the distinct factors in one
    pass (``_pair_xi``).  The gradient, forcing and reaction pairings are
    taken over row blocks, so no array the size of the run is built; the
    reaction's, masses @ S, has the bits of the whole-array product on one
    BLAS thread, as the blocks have a multiple of ``integrator.GEMV_ROWS``
    rows.
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
    U, V = traj.U[: n_end + 1], traj.V[: n_end + 1]
    spaces = list(dict.fromkeys(phi.space for phi in phis))
    xi_S = dict(zip(spaces, _pair_xi(xi, spaces, n_end)))
    residuals = [0.0] * len(phis)
    for space in spaces:
        S = space.value(grid.x)
        wS = grid.mass_weights * S
        v_dot_S = traj.theta_combine(V @ wS)
        u_dot_S = traj.theta_combine(U @ wS)
        xi_space = xi_S.pop(space)
        edge = g_S = None
        if not grid.is_homogeneous:  # summation-by-parts form
            edge = traj.theta_combine(
                map_row_blocks(lambda v, u: edge_inner(grid, v, S) + edge_inner(grid, u, S), V, U)
            )
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
            acc += float(Tv[-1]) * float(np.dot(wS, V[n_end]))
            # + <<grad u_t, grad phi>> + <<grad u, grad phi>>
            if edge is not None:
                acc += dt * float(np.dot(T_th, edge))
            # + int phi d(xi)
            acc += float(np.dot(phi.time.value(xi.t_eval[:n_end]), xi_space))
            # - lambda <<u, phi>>
            acc -= lam * dt * float(np.dot(T_th, u_dot_S))
            # - (u_1, phi(0))
            acc -= float(Tv[0]) * float(np.dot(wS, V[0]))
            # - <<g, phi>>
            if g_S is not None:
                acc -= dt * float(np.dot(T_th, g_S))
            residuals[i] = abs(acc)
    return residuals


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
            np.vecdot(xi.rows(steps), u),
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
    slack: float
    passed: bool


@dataclass(frozen=True)
class SubdiffReport:
    entries: tuple  # one SubdiffEntry per candidate, in the order given

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
    Candidates are ``SeparableCandidate``s, as ``iter_random_candidates``
    draws them: per-step-by-node samples at the scheme's evaluation
    points, in [-1, 1], which for Dirichlet runs represent interior values
    (their boundary trace is zero by convention).

    Each candidate costs one pairing and, for an indicator limit, no
    potential integral (see the module docstring).  The candidates are
    taken in groups of ``2 * block_columns(n_steps)``: a group's per-step
    pairings take at most two blocks and its factors tau at most two more
    (pairing the battery's 20 in one group lifted the post-run peak of
    ``simulate`` on ``configs/dirichlet_sine.yaml`` from 0.20 to 0.26 of
    u).  Each group is paired in one pass over row blocks of the measure
    (``Trajectory.step_values``), which forms each block of masses once for
    the whole group: per step, masses @ sigma for each candidate, so that
    its pairing is tau @ (masses @ sigma), and on the first pass <xi, u>.
    A candidate has max|v| = max|tau| * max|sigma|
    (``SeparableCandidate.max_abs``), so neither it nor theta-combined u
    is built.
    """
    graph = traj.reaction.graph
    indicator = limit_is_indicator(graph)
    w = traj.grid.mass_weights
    dt = traj.dt
    shape = (traj.n_steps, traj.grid.n_nodes)

    def J(rows, *Qs):
        """J of the field whose rows ``rows(steps, *blocks)`` gives."""
        values = traj.step_values(lambda steps, *b: np.vecdot(limit_j(graph, rows(steps, *b)), w), *Qs)
        return dt * float(np.sum(values))

    ju = 0.0 if indicator else J(lambda steps, u: np.clip(u, -1.0, 1.0), traj.U)
    xi_u = None
    entries = []
    candidates = iter(candidates)
    while group := list(itertools.islice(candidates, 2 * block_columns(traj.n_steps))):
        for idx, v in enumerate(group, len(entries)):
            if v.shape != shape:
                raise InadmissibleCandidate(f"candidate {idx}: shape {v.shape} != {shape}")
            if v.max_abs > 1.0 + 1e-12:
                raise InadmissibleCandidate(f"candidate {idx}: leaves [-1, 1]")

        def pairings(steps, *u):
            # columns: <xi, u> if u is given, then masses @ sigma per candidate
            m = xi.rows(steps)
            return np.stack([np.vecdot(m, q) for q in u] + [m @ v.sigma for v in group], axis=1)

        per_step = traj.step_values(pairings, *([traj.U] if xi_u is None else []))
        if xi_u is None:
            xi_u, per_step = float(np.sum(per_step[:, 0])), per_step[:, 1:]
        for c, v in enumerate(group):
            xi_v = float(v.tau @ np.ascontiguousarray(per_step[:, c]))
            if indicator:
                jv = 0.0 if v.max_abs <= 1.0 else math.inf
            else:
                jv = J(v.rows)
            slack = jv - ju - (xi_v - xi_u)
            entries.append(SubdiffEntry(slack, slack >= -tol))
    return SubdiffReport(tuple(entries))


def _max_abs(v: np.ndarray) -> float:
    """max|v| without a |v| array; a zero maximum is +0.0."""
    return abs(max(v.max(), -v.min()))


@dataclass(frozen=True, eq=False)
class SeparableCandidate:
    """The candidate v[k, i] = tau[k] * sigma[i], kept as its two factors:
    they take n_steps + n_nodes floats, where the array takes their
    product.  ``rows(steps)`` forms the rows of v that a potential
    integral asks for; nothing forms the whole array."""

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


def iter_random_candidates(traj: Trajectory, n: int, rng: np.random.Generator):
    """Seeded admissible candidates, products of piecewise-linear factors,
    drawn one at a time, each as a ``SeparableCandidate``."""
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
    if xi.shape != (traj.n_steps, traj.grid.n_nodes):
        raise MissingReactionRecords("measure is not at trajectory resolution")

    def per_step(steps, u):
        # columns: significant cells, their largest misalignment (-inf if
        # none), positive and negative significant cells
        m = xi.rows(steps)
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

