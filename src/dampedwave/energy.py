"""Energy functional, energy-balance terms, and inequality verdicts.

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
from .integrator import Trajectory, row_blocks


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
    # lam = 0 gives an exact 0.0, not 0 * inf = nan when ||u||^2 overflows
    concave = -0.5 * lam * float(np.dot(w * u, u)) if lam else 0.0
    return EnergyBreakdown(kinetic, gradient, potential, concave)


def energy_series(traj: Trajectory) -> np.ndarray:
    """Structured array of energy components at the recorded times.

    The components are taken record by record over row blocks of a
    multiple of ``integrator.GEMV_ROWS`` rows (``row_blocks``), so no array
    the size of the run is built: each ``@ w`` is a matrix-vector product
    over such a block, which gives each record the bits of the whole-array
    product on one BLAS thread.
    """
    grid = traj.grid
    w = grid.mass_weights
    pot, lam = traj.reaction.pot, traj.cfg.lam
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
    for rows in row_blocks(*U.shape):
        u, v = U[rows], V[rows]
        out["kinetic"][rows] = 0.5 * ((v * v) @ w)
        out["gradient"][rows] = 0.5 * edge_inner(grid, u, u)
        out["potential"][rows] = pot(u) @ w
        out["concave"][rows] = -0.5 * lam * ((u * u) @ w)
    out["total"] = out["kinetic"] + out["gradient"] + out["potential"] + out["concave"]
    return out


def dissipation_between(traj: Trajectory, s: float, t: float) -> float:
    """Scheme-consistent integral of ||grad u_t||^2 over (s, t)."""
    ks, kt = traj.time_index(s), traj.time_index(t)
    return float(np.sum(traj.diss_incr[ks:kt]))


def _balance_terms(traj: Trajectory, s: float, t: float):
    """E(s), E(t), D(s, t) and P(s, t), D and P summed from the run's records."""
    i_s, i_t = traj.time_index(s), traj.time_index(t)
    grid, reaction, lam = traj.grid, traj.reaction, traj.cfg.lam
    e_s = energy(grid, traj.U[i_s], traj.V[i_s], reaction, lam).total
    e_t = energy(grid, traj.U[i_t], traj.V[i_t], reaction, lam).total
    return e_s, e_t, *(float(np.sum(q[i_s:i_t])) for q in (traj.diss_incr, traj.power_incr))


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


def energy_inequality_verdict(traj: Trajectory, s_samples, t_samples) -> InequalityReport:
    """Per-pair slack E(s) + P - E(t) - D; a pair fails only if slack < -tol.

    The tolerance 10*(dt + eps) combines the scheme error with the
    regularization penetration depth.
    """
    tol = 10.0 * (traj.dt + traj.reaction.epsilon)
    pairs = []
    for s, t in zip(s_samples, t_samples):
        if not s < t:
            raise TimeNotOnGrid(f"need s < t, got s={s}, t={t}")
        e_s, e_t, diss, power = _balance_terms(traj, s, t)
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
