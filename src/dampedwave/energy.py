"""Energy functional, equality residual, and inequality verdicts.

The energy of a state is E = 1/2||v||^2 + 1/2||grad u||^2 + J_eps(u)
- lambda/2 ||u||^2.  For the regularized runs the continuum satisfies
the exact balance E(t) + integral of ||grad u_t||^2 over (s,t) = E(s) +
integral of (g, u_t); the discrete residual of that balance measures
pure discretization error because the dissipation and power integrals
are accumulated with the same theta-weights the integrator used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TimeNotOnGrid
from .grid import Grid, edge_inner
from .integrator import Trajectory, map_row_blocks


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    gradient: float
    potential: float
    concave: float

    @property
    def total(self) -> float:
        return self.kinetic + self.gradient + self.potential + self.concave


def energy(grid: Grid, u, v, reaction, lam: float = 0.0) -> EnergyBreakdown:
    """Pointwise-quadrature energy of a state under the given reaction."""
    grid.check_field(u, "u")
    grid.check_field(v, "v")
    w = grid.mass_weights
    kinetic = 0.5 * float(np.dot(w * v, v))
    gradient = 0.5 * edge_inner(grid, u, u)
    potential = float(np.dot(w, reaction.pot(u)))
    concave = -0.5 * lam * float(np.dot(w * u, u))
    return EnergyBreakdown(kinetic, gradient, potential, concave)


def energy_series(traj: Trajectory) -> np.ndarray:
    """Structured array of energy components at the recorded times."""
    grid = traj.grid
    w = grid.mass_weights
    U, V = traj.U, traj.V
    out = np.zeros(
        len(traj.times),
        dtype=[
            ("t", float),
            ("kinetic", float),
            ("gradient", float),
            ("potential", float),
            ("concave", float),
            ("total", float),
        ],
    )
    out["t"] = traj.times
    out["kinetic"] = 0.5 * ((V * V) @ w)
    out["gradient"] = 0.5 * edge_inner(grid, U, U)
    out["potential"] = map_row_blocks(traj.reaction.pot, U) @ w
    out["concave"] = -0.5 * traj.cfg.lam * ((U * U) @ w)
    out["total"] = out["kinetic"] + out["gradient"] + out["potential"] + out["concave"]
    return out


def dissipation_between(traj: Trajectory, s: float, t: float) -> float:
    """Scheme-consistent integral of ||grad u_t||^2 over (s, t)."""
    ks, kt = traj.time_index(s), traj.time_index(t)
    return float(np.sum(traj.diss_incr[ks:kt]))


def forcing_power_between(traj: Trajectory, s: float, t: float) -> float:
    ks, kt = traj.time_index(s), traj.time_index(t)
    return float(np.sum(traj.power_incr[ks:kt]))


def energy_equality_residual(traj: Trajectory, s: float, t: float, g=None) -> float:
    """|E(t) + D(s,t) - E(s) - P(s,t)| with scheme-consistent quadrature.

    ``g`` defaults to the forcing the run actually used (recorded during
    integration); passing a callable recomputes the power term with it.
    """
    if not 0.0 <= s < t <= traj.times[-1] + 1e-12:
        raise TimeNotOnGrid(f"need 0 <= s < t <= T, got s={s}, t={t}")
    e_s, e_t, diss, power = _balance_terms(traj, s, t, g)
    return abs(e_t + diss - e_s - power)


def _balance_terms(traj: Trajectory, s: float, t: float, g):
    """E(s), E(t), D(s, t) and P(s, t); P from the records unless ``g`` is given."""
    i_s, i_t = traj.time_index(s), traj.time_index(t)
    grid, reaction, lam = traj.grid, traj.reaction, traj.cfg.lam
    e_s = energy(grid, traj.U[i_s], traj.V[i_s], reaction, lam).total
    e_t = energy(grid, traj.U[i_t], traj.V[i_t], reaction, lam).total
    diss = dissipation_between(traj, s, t)
    if g is None:
        power = forcing_power_between(traj, s, t)
    else:
        power = _recompute_power(traj, s, t, g)
    return e_s, e_t, diss, power


def _recompute_power(traj: Trajectory, s: float, t: float, g) -> float:
    ks, kt = traj.time_index(s), traj.time_index(t)
    v_th = traj.theta_combine(traj.V)
    g_th = traj.theta_forcing(g)
    w = traj.grid.mass_weights
    return traj.dt * float(np.sum((g_th[ks:kt] * v_th[ks:kt]) @ w))


@dataclass(frozen=True)
class InequalityPair:
    s: float
    t: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class InequalityReport:
    tol: float
    pairs: tuple

    @property
    def all_pass(self) -> bool:
        return all(p.passed for p in self.pairs)

    @property
    def worst_slack(self) -> float:
        return min((p.slack for p in self.pairs), default=0.0)


def energy_inequality_verdict(
    traj: Trajectory, s_samples, t_samples, g=None, tol: float | None = None
) -> InequalityReport:
    """Per-pair slack E(s) + P - E(t) - D; a pair fails only if slack < -tol.

    The default tolerance 10*(dt + eps) combines the scheme error with
    the regularization penetration depth.
    """
    if tol is None:
        tol = 10.0 * (traj.dt + traj.reaction.epsilon)
    pairs = []
    for s, t in zip(s_samples, t_samples):
        if not s < t:
            raise TimeNotOnGrid(f"need s < t, got s={s}, t={t}")
        e_s, e_t, diss, power = _balance_terms(traj, s, t, g)
        slack = e_s + power - e_t - diss
        pairs.append(InequalityPair(s, t, slack, slack >= -tol))
    return InequalityReport(tol, tuple(pairs))


def random_time_pairs(traj: Trajectory, rng, n_pairs: int):
    """``n_pairs`` seeded recorded-time pairs s < t (the s indices are drawn first)."""
    n_rec = len(traj.times)
    s_idx = rng.integers(0, n_rec - 1, n_pairs)
    t_idx = rng.integers(1, n_rec, n_pairs)
    s_idx, t_idx = np.minimum(s_idx, t_idx - 1), np.maximum(t_idx, s_idx + 1)
    return traj.times[s_idx], traj.times[t_idx]
