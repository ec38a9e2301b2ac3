"""Reference oracles that only the tests use.

No command runs these: the closed-form limit toy and its weak identity,
the D(A) regularity audit, the static boundary-atom example, restriction
compatibility of the reaction measure and its helpers, the grid's L2
inner product and norms, the energy-equality residual between two times,
and a one-step entry point.  The tests check the package against them.
"""

from __future__ import annotations

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
from dampedwave.grid import Field, Grid, edge_inner
from dampedwave.integrator import Trajectory, _kernel, simulate
from dampedwave.sweep import RATIO_THRESHOLD, _sup_Au, default_dt_policy, uniform_ratio
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


def da_regularity_check(base_cfg: SimConfig, eps_list) -> DAReport:
    """Audit sup_t ||A u(t)|| across the sweep for smooth compatible data,
    with the sweep's step policy and bound."""
    if not _u0_in_domain_of_A(base_cfg):
        return DAReport(True, "u0 not in D(A): incompatible or uncertified profile", {}, 0.0, False)
    dt_policy = default_dt_policy(base_cfg.T, base_cfg.dt)
    sup = {}
    for eps in eps_list:
        cfg = base_cfg.with_epsilon(float(eps), dt=dt_policy(float(eps)))
        sup[float(eps)] = _sup_Au(simulate(cfg))
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


def xi_pairing(xi: XiMeasure, phi: TestFunction, n_cells: int) -> float:
    """Integral of phi against the first ``n_cells`` time cells, evaluated at t_eval."""
    tvals = phi.time.value(xi.t_eval[:n_cells])
    svals = phi.space.value(xi.x)
    return float(np.dot(tvals, xi.masses[:n_cells] @ svals))


def vanishes_at(phi: TestFunction, t: float, tol: float = 1e-12) -> bool:
    return abs(float(phi.time.value(t))) <= tol


def restrict_mass(xi: XiMeasure, t: float) -> float:
    """Signed mass of [0, t]: whole cells below plus a fractional cell."""
    edges = xi.t_edges
    k = int(np.searchsorted(edges, t, side="right")) - 1
    acc = float(np.sum(xi.masses[:max(k, 0)]))
    if 0 <= k < xi.n_t:
        frac = (t - edges[k]) / (edges[k + 1] - edges[k])
        acc += frac * float(np.sum(xi.masses[k]))
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
