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


def balance_sums(traj: Trajectory) -> tuple:
    """The dissipation and the power summed from the first record to each
    record (D_cum, P_cum), each starting at 0."""
    return tuple(np.concatenate([[0.0], np.cumsum(q)]) for q in (traj.diss_incr, traj.power_incr))


def energy_inequality_verdict(traj: Trajectory, es) -> dict:
    """The energy inequality E(t) + D(s, t) <= E(s) + P(s, t) over every pair
    of recorded times s < t, from the run's energy series ``es``: the worst
    slack E(s) + P - E(t) - D, the tolerance, and whether the worst slack
    is at least -tol.

    With F = E + D_cum - P_cum the slack of (s, t) is F(s) - F(t), so the
    worst slack is -max_t (F(t) - min_{s<t} F(s)): one running minimum.
    The tolerance 10*(dt + eps) combines the scheme error with the
    regularization penetration depth.
    """
    diss_cum, power_cum = balance_sums(traj)
    F = es["total"] + diss_cum - power_cum
    worst = -float(np.max(F[1:] - np.minimum.accumulate(F[:-1])))
    tol = 10.0 * (traj.dt + traj.reaction.epsilon)
    return {"passed": worst >= -tol, "worst_slack": worst, "tol": tol}
