"""Implicit theta-scheme integration of the regularized equation.

The second-order equation u_tt + A u_t + A u + beta_eps(u) - lambda*u = g
is advanced as the first-order system u' = v, v' = F(u, v, t) with

    u+ = u + dt*(theta*v+ + (1-theta)*v)
    v+ = v + dt*(theta*F(u+, v+, t+) + (1-theta)*F(u, v, t)).

Eliminating u+ leaves one nonlinear system in w = v+, solved by a
semismooth Newton iteration whose Jacobian is tridiagonal plus a
diagonal (the a.e. derivative of the reaction).  The reaction is
treated fully implicitly: its Lipschitz constant is 1/eps, so any
explicit treatment would force dt = O(eps).

Per step, the work is: one evaluation of the explicit part F(u, v, t)
(only for theta < 1), then per Newton iteration one reaction evaluation
(``Reaction.beta_and_dbeta``: value and derivative from a single
resolvent solve), one residual and, unless the residual is already
below tolerance, one tridiagonal solve (a direct LAPACK ``gtsv`` call on
a copy of the fixed matrix part with the diagonal term added).  At
convergence u+ is the last Newton iterate, so its reaction is already
known: it becomes the next step's beta(u) and is never recomputed.  A
step with one Newton iteration therefore costs two resolvent solves.

Every step records the theta-combined reaction field (the raw material
for the constraint-measure histogram), the dissipation and forcing
power increments in the scheme-consistent quadrature, and the Newton
iteration count.  A single-node Neumann grid takes a scalar fast path;
both paths are deterministic, so identical configurations reproduce
trajectories bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgtsv

from .config import Reaction, SimConfig
from .errors import NewtonDiverged, RunError, StepRejected, TimeNotOnGrid
from .grid import Grid, edge_inner, laplacian_banded

_DIVERGENCE_FACTOR = 1e8

# elements per block when a row-wise map runs over a whole run: bounds the
# temporaries (the logarithmic resolvent keeps several per element)
BLOCK_ELEMENTS = 1 << 16


def solve_banded(l_and_u, ab, b):
    """``scipy.linalg.solve_banded`` for ``l_and_u == (1, 1)``, minus its checks.

    It makes the same LAPACK ``gtsv`` call as scipy (a single division on
    one node), so the solution is bit-identical; what it skips is the
    input validation that costs more than the solve at a few hundred nodes.
    """
    if len(b) == 1:
        return b / ab[1]
    x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def map_row_blocks(fn, M: np.ndarray) -> np.ndarray:
    """Row-wise ``fn`` (such as ``Reaction.beta``) over blocks of rows of ``M``."""
    out = np.empty(M.shape)
    rows = max(1, BLOCK_ELEMENTS // M.shape[1])
    for i in range(0, len(M), rows):
        out[i : i + rows] = fn(M[i : i + rows])
    return out


@dataclass(frozen=True)
class SimState:
    t: float
    u: np.ndarray
    v: np.ndarray


@dataclass
class Trajectory:
    """A completed run: recorded states plus per-step diagnostics.

    ``times``/``U``/``V`` hold the states at stride ``output_every``
    (always including the initial and final state).  ``step_edges`` are
    all step boundary times; ``beta_theta`` row k is the theta-combined
    reaction of step k, so dt * weights * beta_theta is exactly the
    reaction mass the scheme injected during that step.
    """

    cfg: SimConfig
    times: np.ndarray
    U: np.ndarray
    V: np.ndarray
    step_edges: np.ndarray
    beta_theta: np.ndarray
    diss_incr: np.ndarray
    power_incr: np.ndarray
    newton_iters: np.ndarray

    @cached_property
    def grid(self) -> Grid:
        return self.cfg.grid()

    @cached_property
    def reaction(self) -> Reaction:
        return self.cfg.reaction()

    @property
    def dt(self) -> float:
        return self.cfg.dt

    @property
    def theta(self) -> float:
        return self.cfg.theta

    @property
    def n_steps(self) -> int:
        return len(self.step_edges) - 1

    @property
    def full_resolution(self) -> bool:
        return len(self.times) == len(self.step_edges)

    def state(self, i: int) -> SimState:
        return SimState(float(self.times[i]), self.U[i], self.V[i])

    def time_index(self, t: float, tol: float = 1e-9) -> int:
        """Index of a recorded time, or TimeNotOnGrid."""
        i = int(np.searchsorted(self.times, t - tol))
        if i >= len(self.times) or abs(float(self.times[i]) - t) > tol:
            raise TimeNotOnGrid(f"t={t} is not a recorded trajectory time")
        return i

    def theta_combine(self, Q):
        """theta*Q[k+1] + (1-theta)*Q[k] per step k, for any per-record Q.

        Applied to the states, or to a quantity linear in them, this is
        the value the scheme's quadrature pairs in step k.
        """
        th = self.theta
        return th * Q[1:] + (1.0 - th) * Q[:-1]

    def theta_states(self):
        """Theta-combined u and v per step; needs full resolution."""
        if not self.full_resolution:
            raise TimeNotOnGrid("theta-combined states need output_every == 1")
        return self.theta_combine(self.U), self.theta_combine(self.V)

    def theta_forcing(self, g=None):
        """Theta-combined forcing g (default: the run's) per step; None if zero."""
        g = g or self.cfg.forcing_fn(self.grid)
        if g is None:
            return None
        G = [np.broadcast_to(g(t), (self.grid.n_nodes,)) for t in self.step_edges]
        return self.theta_combine(np.array(G))


def _resolve_steps(cfg: SimConfig) -> int:
    n = int(round(cfg.T / cfg.dt))
    if n < 1 or abs(n * cfg.dt - cfg.T) > 1e-9 * max(1.0, cfg.T):
        raise RunError(f"time.T={cfg.T} is not an integer multiple of dt={cfg.dt}")
    return n


def simulate(cfg: SimConfig) -> Trajectory:
    """Run the theta-scheme from t=0 to T and collect diagnostics."""
    cfg.validate()
    grid = cfg.grid()
    reaction = cfg.reaction()
    if cfg.dt > reaction.layer_width / 10.0 and reaction.layer_width > 0:
        warnings.warn(
            f"dt={cfg.dt:.3e} exceeds layer_width/10={reaction.layer_width / 10:.3e}; "
            "boundary layers may be under-resolved",
            stacklevel=2,
        )
    n_steps = _resolve_steps(cfg)
    u0, v0 = cfg.initial_fields(grid)
    g = cfg.forcing_fn(grid)
    if grid.is_homogeneous:
        return _simulate_scalar(cfg, grid, reaction, n_steps, u0, v0, g)
    return _simulate_vector(cfg, grid, reaction, n_steps, u0, v0, g)


def step(state: SimState, cfg: SimConfig) -> SimState:
    """Advance a single state by cfg.dt (one-off entry point)."""
    cfg = cfg.validate()
    grid = cfg.grid()
    grid.check_field(state.u, "u")
    grid.check_field(state.v, "v")
    one = _replace_run_window(cfg)
    reaction = one.reaction()
    g = one.forcing_fn(grid)
    if grid.is_homogeneous:
        b, db = reaction.scalar_fns()
        gs = (lambda t: float(g(t)[0])) if g is not None else None
        u0 = float(state.u[0])
        u1, v1, _, _, _ = _scalar_step(
            u0, float(state.v[0]), state.t, one, b, db, gs, 0, b(u0)
        )
        return SimState(state.t + cfg.dt, np.array([u1]), np.array([v1]))
    ws = _VectorWorkspace(one, grid, reaction, g)
    u1, v1, _, _ = ws.advance(state.u, state.v, state.t, 0, reaction.beta(state.u))
    return SimState(state.t + cfg.dt, u1, v1)


def _replace_run_window(cfg: SimConfig) -> SimConfig:
    from dataclasses import replace

    return replace(cfg, T=cfg.dt, regularize_u0=False)


# ---------------------------------------------------------------------------
# vector path


class _VectorWorkspace:
    def __init__(self, cfg, grid, reaction, forcing):
        self.cfg = cfg
        self.grid = grid
        self.reaction = reaction
        self.forcing = forcing
        self.dt = cfg.dt
        self.theta = cfg.theta
        self.lam = cfg.lam
        self.a = cfg.theta * cfg.dt
        self.A_ab = laplacian_banded(grid)
        # the Newton matrix is J_A + diag(1 + a^2 (dbeta - lam)); J_A is fixed
        self.J_A = (self.a + self.a * self.a) * self.A_ab
        self.w = grid.mass_weights

    def apply_A(self, z):
        ab = self.A_ab
        out = ab[1] * z
        out[:-1] += ab[0, 1:] * z[1:]
        out[1:] += ab[2, :-1] * z[:-1]
        return out

    def advance(self, u, v, t, k, beta0):
        """One step from (u, v) with beta0 = beta(u).

        Returns (u1, v1, beta(u1), record); beta(u1) is the converged
        Newton iterate's reaction, which the next step takes as its beta0.
        """
        dt, th, a, lam = self.dt, self.theta, self.a, self.lam
        t1 = t + dt
        g0 = self.forcing(t) if (self.forcing and th < 1.0) else None
        g1 = self.forcing(t1) if self.forcing else None
        if th < 1.0:
            F0 = -self.apply_A(v) - self.apply_A(u) - beta0 + lam * u
            if g0 is not None:
                F0 = F0 + g0
            v_bar = v + dt * (1.0 - th) * F0
        else:
            v_bar = v
        u_bar = u + dt * (1.0 - th) * v
        scale = 1.0 + float(np.max(np.abs(v_bar)))
        tol = self.cfg.newton_tol * scale

        w = v.copy()
        res0 = None
        iters = 0
        for it in range(self.cfg.newton_max_iter):
            up = u_bar + a * w
            bw, db = self.reaction.beta_and_dbeta(up)
            R = w - v_bar + a * (self.apply_A(w) + self.apply_A(up) + bw - lam * up)
            if g1 is not None:
                R -= a * g1
            res = float(np.max(np.abs(R)))
            if not math.isfinite(res) or (res0 is not None and res > _DIVERGENCE_FACTOR * res0):
                raise NewtonDiverged(k, it, res)
            if res0 is None:
                res0 = max(res, 1.0)
            if res <= tol:
                iters = it
                break
            J = self.J_A.copy()
            J[1] += 1.0 + a * a * (db - lam)
            try:
                dw = solve_banded((1, 1), J, -R)
            except np.linalg.LinAlgError as exc:
                raise StepRejected(k, res, tol) from exc
            w = w + dw
            iters = it + 1
        else:
            raise StepRejected(k, res, tol)

        # at convergence u1 = u_bar + a*w is the last iterate up, so beta(u1) = bw
        beta_th = th * bw + (1.0 - th) * beta0
        v_th = th * w + (1.0 - th) * v
        diss = dt * edge_inner(self.grid, v_th, v_th)
        if self.forcing:
            g0p = g0 if g0 is not None else self.forcing(t)
            g_th = th * g1 + (1.0 - th) * g0p
            power = dt * float(np.dot(self.w * g_th, v_th))
        else:
            power = 0.0
        return up, w, bw, (beta_th, diss, power, iters)


def _simulate_vector(cfg, grid, reaction, n_steps, u0, v0, forcing) -> Trajectory:
    ws = _VectorWorkspace(cfg, grid, reaction, forcing)
    dt = cfg.dt
    stride = cfg.output_every
    n_x = grid.n_nodes

    rec_idx = list(range(0, n_steps + 1, stride))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    U = np.empty((len(rec_idx), n_x))
    V = np.empty((len(rec_idx), n_x))
    beta_theta = np.empty((n_steps, n_x))
    diss = np.empty(n_steps)
    power = np.empty(n_steps)
    iters = np.zeros(n_steps, dtype=int)

    u, v = u0.astype(float), v0.astype(float)
    beta = reaction.beta(u)
    U[0], V[0] = u, v
    r = 1
    try:
        for k in range(n_steps):
            u, v, beta, rec = ws.advance(u, v, k * dt, k, beta)
            beta_theta[k], diss[k], power[k], iters[k] = rec
            if r < len(rec_idx) and k + 1 == rec_idx[r]:
                U[r], V[r] = u, v
                r += 1
    except (NewtonDiverged, StepRejected) as exc:
        raise RunError(f"run '{cfg.label}' failed: {exc}") from exc

    times = dt * np.asarray(rec_idx, dtype=float)
    edges = dt * np.arange(n_steps + 1, dtype=float)
    return Trajectory(cfg, times, U, V, edges, beta_theta, diss, power, iters)


# ---------------------------------------------------------------------------
# scalar (spatially homogeneous) fast path


def _scalar_step(u, v, t, cfg, b, db, g, k, b0):
    """Scalar twin of _VectorWorkspace.advance: b0 = b(u) in, b(u1) out."""
    dt = cfg.dt
    th = cfg.theta
    a = th * dt
    lam = cfg.lam
    t1 = t + dt
    g1 = g(t1) if g is not None else 0.0
    if th < 1.0:
        g0 = g(t) if g is not None else 0.0
        v_bar = v + dt * (1.0 - th) * (-b0 + lam * u + g0)
    else:
        v_bar = v
    u_bar = u + dt * (1.0 - th) * v
    tol = cfg.newton_tol * (1.0 + abs(v_bar))

    w = v
    res0 = None
    iters = 0
    for it in range(cfg.newton_max_iter):
        up = u_bar + a * w
        bw = b(up)
        R = w - v_bar + a * (bw - lam * up - g1)
        res = abs(R)
        if not math.isfinite(res) or (res0 is not None and res > _DIVERGENCE_FACTOR * res0):
            raise NewtonDiverged(k, it, res)
        if res0 is None:
            res0 = max(res, 1.0)
        if res <= tol:
            iters = it
            break
        J = 1.0 + a * a * (db(up) - lam)
        if abs(J) < 1e-14:
            raise NewtonDiverged(k, it, res)
        w = w - R / J
        iters = it + 1
    else:
        raise StepRejected(k, res, tol)

    beta_th = th * bw + (1.0 - th) * b0
    return up, w, bw, beta_th, iters


def _simulate_scalar(cfg, grid, reaction, n_steps, u0, v0, forcing) -> Trajectory:
    b, db = reaction.scalar_fns()
    weight = float(grid.mass_weights[0])
    g = None
    if forcing is not None:
        gf = forcing
        g = lambda t: float(gf(t)[0])
    dt = cfg.dt
    th = cfg.theta
    stride = cfg.output_every

    rec_idx = list(range(0, n_steps + 1, stride))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    U = np.empty((len(rec_idx), 1))
    V = np.empty((len(rec_idx), 1))
    beta_theta = np.empty((n_steps, 1))
    power = np.zeros(n_steps)
    iters = np.zeros(n_steps, dtype=int)

    # 1-D views: item assignment on them is cheaper than (i, 0) indexing
    u_col, v_col, beta_col = U[:, 0], V[:, 0], beta_theta[:, 0]
    n_rec = len(rec_idx)
    u, v = float(u0[0]), float(v0[0])
    bu = b(u)
    u_col[0], v_col[0] = u, v
    r = 1
    try:
        for k in range(n_steps):
            v_prev = v
            u, v, bu, bth, it = _scalar_step(u, v, k * dt, cfg, b, db, g, k, bu)
            beta_col[k] = bth
            iters[k] = it
            if g is not None:
                t0 = k * dt
                g_th = th * g(t0 + dt) + (1.0 - th) * g(t0)
                power[k] = dt * weight * g_th * (th * v + (1.0 - th) * v_prev)
            if r < n_rec and k + 1 == rec_idx[r]:
                u_col[r], v_col[r] = u, v
                r += 1
    except (NewtonDiverged, StepRejected) as exc:
        raise RunError(f"run '{cfg.label}' failed: {exc}") from exc

    times = dt * np.asarray(rec_idx, dtype=float)
    edges = dt * np.arange(n_steps + 1, dtype=float)
    return Trajectory(
        cfg, times, U, V, edges, beta_theta, np.zeros(n_steps), power, iters
    )
