"""Reference oracles that only the tests use.

No command runs these: the closed-form limit toy and its weak identity,
the D(A) regularity audit, the static boundary-atom example, restriction
compatibility of the reaction measure and its helpers, the grid's L2
inner product and norms, the energy-equality residual between two times,
a one-step entry point and a per-step reference driver, the resolvent
transforms of the piecewise-linear family, the level sets of a limit
potential, and the scheme's dead-zone steps solved mode by mode.  The
tests check the package against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dampedwave.config import SimConfig
from dampedwave.energy import _balance_terms
from dampedwave.errors import (
    DampedWaveError,
    InadmissibleCandidate,
    InadmissibleTestFunction,
    OutOfValidityWindow,
    TimeNotOnGrid,
)
from dampedwave.graphs import MonotoneGraph, RegularizedPotential, eval_j
from dampedwave.grid import DIRICHLET, Field, Grid, apply_A, edge_inner
from dampedwave.integrator import Trajectory, _kernel, _resolve_steps, simulate
from dampedwave.sweep import RATIO_THRESHOLD, default_dt_policy, uniform_ratio
from dampedwave.toy import LevelSet, _level_set
from dampedwave.weaklimit import TestFunction, XiMeasure

# ---------------------------------------------------------------------------
# the limit toy problem: free flight plus wall jumps


class InvalidEll(DampedWaveError):
    """Post-impact velocity has the wrong sign for the wall being hit."""


@dataclass(frozen=True)
class ToySegment:
    t0: float
    t1: float
    u0: float
    v: float

    def eval(self, t: float):
        return self.u0 + self.v * (t - self.t0), self.v


@dataclass(frozen=True)
class ToySolution:
    """Piecewise-affine limit trajectory with its jump events and atoms."""

    segments: tuple
    jumps: tuple  # (t, v_before, v_after)
    atoms: tuple  # (t, mass), mass = v_before - v_after

    def eval(self, t: float):
        for seg in self.segments:
            if seg.t0 <= t <= seg.t1:
                return seg.eval(t)
        raise OutOfValidityWindow(f"t={t} beyond constructed horizon")

    def u_t_right(self, t: float) -> float:
        """Right-continuous velocity representative at time t."""
        for seg in self.segments:
            if seg.t0 <= t < seg.t1:
                return seg.v
        return self.segments[-1].v


def limit_toy_solution(u0: float, u1: float, ell: float, T: float) -> ToySolution:
    """Free flight plus wall jumps up to horizon T.

    ``ell`` is the post-impact velocity at a hit of the +1 wall and must
    be <= 0 there; the opposite wall mirrors it (post velocity -ell).
    """
    if not -1.0 <= u0 <= 1.0:
        raise ValueError("u0 must lie in [-1, 1]")
    segments, jumps, atoms = [], [], []
    t, u, v = 0.0, float(u0), float(u1)
    speed = abs(ell)
    while t < T:
        if v == 0.0:
            segments.append(ToySegment(t, T, u, 0.0))
            break
        wall = 1.0 if v > 0.0 else -1.0
        t_hit = t + (wall - u) / v
        if t_hit >= T:
            segments.append(ToySegment(t, T, u, v))
            break
        segments.append(ToySegment(t, t_hit, u, v))
        if wall > 0 and ell > 0.0:
            raise InvalidEll(f"ell={ell} > 0 at a +1 hit")
        v_after = -wall * speed
        jumps.append((t_hit, v, v_after))
        atoms.append((t_hit, v - v_after))
        t, u, v = t_hit, wall, v_after
    return ToySolution(tuple(segments), tuple(jumps), tuple(atoms))


def exact_limit_toy(u0: float, u1: float, ell: float, t: float):
    """Evaluate the limit trajectory (u, v) at time t."""
    sol = limit_toy_solution(u0, u1, ell, T=max(t, 1e-300) * (1.0 + 1e-12))
    return sol.eval(t)


def toy_xi_atom(ell: float) -> float:
    """Mass of the reaction atom at the first +1 impact of data (0, 1)."""
    if ell > 0.0:
        raise InvalidEll(f"ell={ell} must be <= 0")
    return 1.0 - ell


def toy_weak_identity_residual(sol: ToySolution, phi: TestFunction, T: float) -> float:
    """Residual of -int u_t phi_t + phi(T) u_t(T) + <xi, phi> - phi(0) u_t(0).

    u_t is piecewise constant, so the time integral is evaluated segment
    by segment in closed form; the only error left is roundoff.
    """
    acc = 0.0
    for seg in sol.segments:
        t1 = min(seg.t1, T)
        if t1 <= seg.t0:
            continue
        acc -= seg.v * (float(phi.time.value(t1)) - float(phi.time.value(seg.t0)))
        if t1 >= T:
            break
    acc += float(phi.time.value(T)) * sol.u_t_right(T)
    for t_a, mass in sol.atoms:
        if t_a <= T:
            acc += mass * float(phi.time.value(t_a))
    acc -= float(phi.time.value(0.0)) * sol.segments[0].v
    return abs(acc)


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


def sup_Au(traj: Trajectory) -> float:
    """sup over the recorded times of ||A u(t)||, from the whole array."""
    AU = apply_A(traj.grid, traj.U)
    return math.sqrt(max(float(np.max(np.vecdot(AU * AU, traj.grid.mass_weights))), 0.0))


def da_regularity_check(base_cfg: SimConfig, eps_list) -> DAReport:
    """Audit sup_t ||A u(t)|| across the sweep for smooth compatible data,
    with the sweep's step policy and bound."""
    if not _u0_in_domain_of_A(base_cfg):
        return DAReport(True, "u0 not in D(A): incompatible or uncertified profile", {}, 0.0, False)
    dt_policy = default_dt_policy(base_cfg.T, base_cfg.dt)
    sup = {}
    for eps in eps_list:
        cfg = base_cfg.with_epsilon(float(eps), dt=dt_policy(float(eps)))
        sup[float(eps)] = sup_Au(simulate(cfg))
    ratio = uniform_ratio(list(sup.values()))
    return DAReport(False, "", sup, ratio, ratio <= RATIO_THRESHOLD)


# ---------------------------------------------------------------------------
# the static boundary atom


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
# the reaction measure: pairing, restriction, concentration


def xi_masses(xi: XiMeasure) -> np.ndarray:
    """The measure's masses as one (time cells, space cells) array, which the
    package forms only a row block at a time (``XiMeasure.rows``)."""
    return xi.rows(slice(None))


def xi_pairing(xi: XiMeasure, phi: TestFunction, n_cells: int) -> float:
    """Integral of phi against the first ``n_cells`` time cells, evaluated at t_eval."""
    tvals = phi.time.value(xi.t_eval[:n_cells])
    svals = phi.space.value(xi.x)
    return float(np.dot(tvals, xi_masses(xi)[:n_cells] @ svals))


def vanishes_at(phi: TestFunction, t: float, tol: float = 1e-12) -> bool:
    return abs(float(phi.time.value(t))) <= tol


def restrict_mass(xi: XiMeasure, t: float) -> float:
    """Signed mass of [0, t]: whole cells below plus a fractional cell."""
    edges = xi.t_edges
    k = int(np.searchsorted(edges, t, side="right")) - 1
    acc = float(np.sum(xi_masses(xi)[:max(k, 0)]))
    if 0 <= k < xi.n_t:
        frac = (t - edges[k]) / (edges[k + 1] - edges[k])
        acc += frac * float(np.sum(xi_masses(xi)[k]))
    return acc


def concentration_at(xi: XiMeasure, t: float, width: float) -> float:
    """Fraction of total mass within |tau - t| <= width.

    A cut time with a large value here sits inside a concentration
    band, where restrictions are genuinely before/after-sensitive.
    """
    tot = xi.total_l1
    return xi.window_mass(t, width) / tot if tot > 0.0 else 0.0


def restriction_compat(
    xi_full: XiMeasure, xi_sub: XiMeasure, phi: TestFunction, t: float
) -> float:
    """|int phi d(xi_sub) - int phi~ d(xi_full)| for phi vanishing at t.

    phi~ is the zero extension of phi beyond t: the cells of xi_full
    evaluated at most at t.  The value stays at quadrature size even when
    an atom sits exactly at the cut time, because phi(t) = 0 kills it; a
    nonvanishing phi is rejected.
    """
    if not vanishes_at(phi, t):
        raise InadmissibleTestFunction(f"phi({t}) != 0: not in the vanishing subspace")
    sub = xi_pairing(xi_sub, phi, xi_sub.n_t)
    n_cut = int(np.searchsorted(xi_full.t_eval, t + 1e-12, side="right"))
    full = xi_pairing(xi_full, phi, n_cut)
    return abs(sub - full)


# ---------------------------------------------------------------------------
# grid norms


def inner(grid: Grid, u: Field, v: Field) -> float:
    """Discrete L2 inner product with the grid's mass weights."""
    return float(np.dot(grid.mass_weights * u, v))


def norms(grid: Grid, u: Field) -> dict:
    """L2 norm and H1 seminorm of a field under the grid's conventions."""
    grid.check_field(u)
    l2 = float(np.sqrt(inner(grid, u, u)))
    h1 = float(np.sqrt(max(edge_inner(grid, u, u), 0.0)))
    return {"l2": l2, "h1_semi": h1}


# ---------------------------------------------------------------------------
# the energy balance between two recorded times


def energy_equality_residual(traj: Trajectory, s: float, t: float) -> float:
    """|E(t) + D(s,t) - E(s) - P(s,t)| with scheme-consistent quadrature,
    the power from the forcing the run recorded."""
    if not 0.0 <= s < t <= traj.times[-1] + 1e-12:
        raise TimeNotOnGrid(f"need 0 <= s < t <= T, got s={s}, t={t}")
    e_s, e_t, diss, power = _balance_terms(traj, s, t)
    return abs(e_t + diss - e_s - power)


# ---------------------------------------------------------------------------
# one step


@dataclass(frozen=True)
class SimState:
    t: float
    u: np.ndarray
    v: np.ndarray


def step(state: SimState, cfg: SimConfig) -> SimState:
    """Advance a single state by cfg.dt with the step kernel ``simulate`` picks."""
    kernel, u, v = _kernel(cfg, cfg.grid(), cfg.reaction(), state.u, state.v)
    u1, v1 = kernel.advance(u, v, 0, kernel.beta(u))[:2]
    return SimState(state.t + cfg.dt, np.atleast_1d(u1), np.atleast_1d(v1))


def stepwise_run(cfg: SimConfig):
    """(U, V, B, newton_iters) of a run as a plain loop of the step kernel's
    ``advance``, one call per step: the states, their reactions and each
    step's Newton count, with no free-flight stretch."""
    grid = cfg.grid()
    kernel, u, v = _kernel(cfg, grid, cfg.reaction(), *cfg.initial_fields(grid))
    beta = kernel.beta(u)
    U, V, B, iters = [u], [v], [beta], []
    for k in range(_resolve_steps(cfg)):
        u, v, beta, it = kernel.advance(u, v, k, beta)
        U.append(u)
        V.append(v)
        B.append(beta)
        iters.append(it)
    return np.array(U), np.array(V), np.array(B), np.array(iters, dtype=int)


# ---------------------------------------------------------------------------
# the resolvent transforms of the piecewise-linear family, which the solver
# uses as it stands; ``tests.conftest.transforms`` picks these for it


def resolvent(pot: RegularizedPotential, r):
    """The family's resolvent: the unique x with x + epsilon*beta(x) = r,
    in closed form on each of the three linear branches."""
    g, eps = pot.graph, pot.epsilon
    rt, e2 = g.r_threshold, g.eps_param * g.eps_param
    r_arr = np.asarray(r, dtype=float)
    upper = (e2 * r_arr + eps * rt) / (e2 + eps)
    lower = (e2 * r_arr - eps * rt) / (e2 + eps)
    x = np.where(r_arr > rt, upper, np.where(r_arr < -rt, lower, r_arr))
    return float(x) if np.isscalar(r) else x


def yosida(pot: RegularizedPotential, r):
    """(r - resolvent(r))/epsilon, ``graphs.yosida``'s formula."""
    return (r - resolvent(pot, r)) / pot.epsilon


def yosida_and_derivative(pot: RegularizedPotential, r):
    """``yosida`` and its a.e. derivative, the kinks resolved toward the
    active side; two Python floats for a float ``r``."""
    g = pot.graph
    y = yosida(pot, r)
    dy = np.where(np.abs(r) >= g.r_threshold, 1.0 / (g.eps_param ** 2 + pot.epsilon), 0.0)
    return (float(y), float(dy)) if np.isscalar(r) else (y, dy)


def moreau(pot: RegularizedPotential, r):
    """j(x*) + eps*yosida(r)^2/2, ``graphs.moreau``'s formula."""
    y = yosida(pot, r)
    return eval_j(pot.graph, resolvent(pot, r)) + 0.5 * pot.epsilon * y * y


def limit_level_set(graph: MonotoneGraph, c: float, n_samples: int = 200) -> LevelSet:
    """``toy.phase_level_set`` for the limit potential j of ``graph``, whose
    domain is [-1, 1], in place of an envelope potential."""
    return _level_set(lambda u: float(eval_j(graph, float(u))), c, 1.0, n_samples)


# ---------------------------------------------------------------------------
# the discrete modal solution of dead-zone steps


def modal_states(cfg: SimConfig, u0: np.ndarray, v0: np.ndarray, n_steps: int) -> np.ndarray:
    """The states u of ``n_steps`` steps of the theta-scheme from (u0, v0)
    in which the reaction is 0 at every node, one row per state.

    Then the scheme is linear: the theta-method on y' = M_k y + (0, g_k)
    for each eigenpair (mu_k, phi_k) of ``grid.apply_A``, with
    M_k = [[0, 1], [lambda - mu_k, -mu_k]], y = (u_k, v_k) the mode's
    coefficients and g_k the forcing's.  The eigenvectors are
    sin(k pi i/(n+1)) with mu_k = (4/h^2) sin^2(k pi/(2(n+1))), k = 1..n, on
    the Dirichlet grid's interior nodes i = 1..n, and cos(k pi i/(n-1)) with
    mu_k = (4/h^2) sin^2(k pi/(2(n-1))), k = 0..n-1, on the Neumann nodes
    i = 0..n-1.  Both sets are orthogonal in the mass-weighted inner
    product, which projects a field onto them.  Each step solves
    (I - theta dt M_k) y+ = (I + (1-theta) dt M_k) y + dt (0, g_k).
    """
    grid = cfg.grid()
    n, w = grid.n_nodes, grid.mass_weights
    if grid.bc == DIRICHLET:
        k, m = np.arange(1, n + 1), n + 1
        modes = np.sin(np.pi / m * np.outer(k, k))
    else:
        k, m = np.arange(n), n - 1
        modes = np.cos(np.pi / m * np.outer(k, k))
    mu = 4.0 / grid.h**2 * np.sin(k * np.pi / (2 * m)) ** 2

    def project(f):
        return (modes * w) @ f / ((modes * modes) @ w)

    g = cfg.forcing_field(grid)
    f = np.zeros((n, 2))
    if g is not None:
        f[:, 1] = cfg.dt * project(g)
    M = np.zeros((n, 2, 2))
    M[:, 0, 1], M[:, 1, 0], M[:, 1, 1] = 1.0, cfg.lam - mu, -mu
    implicit = np.eye(2) - cfg.theta * cfg.dt * M
    step = np.linalg.solve(implicit, np.eye(2) + (1.0 - cfg.theta) * cfg.dt * M)
    shift = np.linalg.solve(implicit, f[:, :, None])[:, :, 0]
    y = np.column_stack([project(u0), project(v0)])
    coefficients = np.empty((n_steps + 1, n))
    coefficients[0] = y[:, 0]
    for s in range(n_steps):
        y = np.einsum("nij,nj->ni", step, y) + shift
        coefficients[s + 1] = y[:, 0]
    return coefficients @ modes
