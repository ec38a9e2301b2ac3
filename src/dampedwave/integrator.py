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
iteration count.  Each kernel has one ``record`` function for the first
three; ``advance`` calls it per step, and ``run_records`` applies it to
the stacked steps of stored states, which gives the run's records bit
for bit.

One driver (``_run``) allocates, records and wraps solver failures for
every run, over one of two step kernels with the same ``advance``
contract; ``_kernel`` picks it from the node count.  The vector kernel
serves every grid of two or more nodes.  A one-node grid gets a
plain-float kernel, because the vector kernel pays numpy's per-call
overhead on 1-element arrays: on a 63,246-step toy run it takes about
86 microseconds per step against 2.7 (2-core Xeon, Python 3.11).  It
gets its reaction from ``Reaction.scalar_beta_and_dbeta``, once per
Newton iteration, with the bits of the array form.  Both
kernels are deterministic, so identical configurations reproduce
trajectories bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import SimConfig
from .errors import NewtonDiverged, RunError, StepRejected, TimeNotOnGrid
from .graphs import Reaction
from .grid import Grid, edge_inner, laplacian_banded

_DIVERGENCE_FACTOR = 1e8

# elements per block when a row-wise map runs over a whole run: bounds the
# temporaries (the logarithmic resolvent keeps several per element)
BLOCK_ELEMENTS = 1 << 16

_dgtsv = None  # scipy's LAPACK gtsv, imported by the first solve


def solve_banded(l_and_u, ab, b):
    """``scipy.linalg.solve_banded`` for ``l_and_u == (1, 1)``, minus its checks.

    It makes the same LAPACK ``gtsv`` call as scipy (a single division on
    one node), so the solution is bit-identical; what it skips is the
    input validation that costs more than the solve at a few hundred nodes.
    ``scipy.linalg`` is imported by the first call that needs it, so a
    command that never solves a tridiagonal system (``verify``, a one-node
    run) does not pay its import, about a quarter second.
    """
    global _dgtsv
    if len(b) == 1:
        return b / ab[1]
    if _dgtsv is None:
        from scipy.linalg.lapack import dgtsv as _dgtsv
    x, info = _dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[3:]
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

    def theta_u(self):
        """Theta-combined u per step; needs full resolution."""
        if not self.full_resolution:
            raise TimeNotOnGrid("theta-combined states need output_every == 1")
        return self.theta_combine(self.U)

    def theta_states(self):
        """Theta-combined u and v per step; needs full resolution."""
        return self.theta_u(), self.theta_combine(self.V)

    def theta_forcing(self, g=None):
        """Theta-combined forcing g (default: the run's) per step; None if zero."""
        g = g or self.cfg.forcing_fn(self.grid)
        if g is None:
            return None
        G = [np.broadcast_to(g(t), (self.grid.n_nodes,)) for t in self.step_edges]
        return self.theta_combine(np.array(G))


def record_indices(n_steps: int, stride: int) -> list[int]:
    """The steps whose states a run records: every ``stride``-th, and the last."""
    rec_idx = list(range(0, n_steps + 1, stride))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    return rec_idx


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
    kernel, u, v = _kernel(cfg, grid, reaction, u0, v0)
    return _run(cfg, kernel, n_steps, u, v)


def step(state: SimState, cfg: SimConfig) -> SimState:
    """Advance a single state by cfg.dt (one-off entry point)."""
    cfg = cfg.validate()
    grid = cfg.grid()
    grid.check_field(state.u, "u")
    grid.check_field(state.v, "v")
    one = replace(cfg, T=cfg.dt, regularize_u0=False)
    kernel, u, v = _kernel(one, grid, one.reaction(), state.u, state.v)
    u1, v1 = kernel.advance(u, v, state.t, 0, kernel.beta(u))[:2]
    return SimState(state.t + cfg.dt, np.atleast_1d(u1), np.atleast_1d(v1))


def _kernel(cfg, grid, reaction, u, v):
    """The step kernel for ``grid``, and the state (u, v) in its form.

    A one-node grid gets the scalar kernel and plain floats, any other
    grid the vector kernel and float arrays.
    """
    forcing = cfg.forcing_fn(grid)
    if grid.is_homogeneous:
        return _ScalarWorkspace(cfg, grid, reaction, forcing), float(u[0]), float(v[0])
    kernel = _VectorWorkspace(cfg, grid, reaction, forcing)
    return kernel, np.asarray(u, dtype=float), np.asarray(v, dtype=float)


def _run(cfg, kernel, n_steps, u, v) -> Trajectory:
    """Advance (u, v) n_steps times with ``kernel``, recording states and records.

    The arrays take the state's shape, so a float state fills 1-D arrays
    by item assignment, which is cheaper than (i, 0) indexing; they get
    one column per node at the end, as a view.  A dissipation or power
    record of None is left at 0 unwritten, so its pages are never touched.
    """
    dt = cfg.dt
    rec_idx = record_indices(n_steps, cfg.output_every)
    n_rec = len(rec_idx)
    U = np.empty((n_rec,) + np.shape(u))
    V = np.empty((n_rec,) + np.shape(u))
    beta_theta = np.empty((n_steps,) + np.shape(u))
    diss = np.zeros(n_steps)
    power = np.zeros(n_steps)
    iters = np.zeros(n_steps, dtype=int)

    advance = kernel.advance
    beta = kernel.beta(u)
    U[0], V[0] = u, v
    r = 1
    try:
        for k in range(n_steps):
            u, v, beta, iters[k], (beta_theta[k], d, p) = advance(u, v, k * dt, k, beta)
            if d is not None:
                diss[k] = d
            if p is not None:
                power[k] = p
            if r < n_rec and k + 1 == rec_idx[r]:
                U[r], V[r] = u, v
                r += 1
    except (NewtonDiverged, StepRejected) as exc:
        raise RunError(f"run '{cfg.label}' failed: {exc}") from exc

    times = dt * np.asarray(rec_idx, dtype=float)
    edges = dt * np.arange(n_steps + 1, dtype=float)
    return Trajectory(
        cfg, times, U.reshape(n_rec, -1), V.reshape(n_rec, -1), edges,
        beta_theta.reshape(n_steps, -1), diss, power, iters,
    )


def run_records(cfg: SimConfig, U, V):
    """(beta_theta, dissipation, power) of every step of the run through the
    full-resolution states ``U``, ``V``, from its step kernel's ``record``.

    Each step gets the inputs ``advance`` gave it: the reaction of each
    state, which is elementwise bit for bit (so it is evaluated in row
    blocks; on one node ``Reaction.beta`` gives the scalar kernel's bits),
    and the forcing at k*dt and k*dt + dt.  So on the states a run stored,
    the records are the run's own, bit for bit.
    """
    grid = cfg.grid()
    reaction = cfg.reaction()
    kernel = _kernel(cfg, grid, reaction, U[0], V[0])[0]
    B = map_row_blocks(reaction.beta, U)
    if grid.is_homogeneous:
        V, B = V[:, 0], B[:, 0]
    g, dt, n = kernel.forcing, cfg.dt, len(V) - 1
    t = [k * dt for k in range(n)]
    G0, G1 = (None, None) if g is None else np.array([[g(s) for s in t], [g(s + dt) for s in t]])
    beta_theta, diss, power = kernel.record(V[:-1], V[1:], B[:-1], B[1:], G0, G1)
    return (
        beta_theta.reshape(n, -1),
        np.zeros(n) if diss is None else diss,
        np.zeros(n) if power is None else power,
    )


# ---------------------------------------------------------------------------
# step kernels: advance(u, v, t, k, beta(u)) -> (u1, v1, beta(u1), Newton
# iterations, record), record = record(v, v1, beta(u), beta(u1), g(t), g(t+dt))
# = (beta_theta, dissipation, forcing power), with None for a dissipation or
# power that is zero by construction; record also maps stacked steps (rows)


class _VectorWorkspace:
    def __init__(self, cfg, grid, reaction, forcing):
        self.cfg = cfg
        self.grid = grid
        self.reaction = reaction
        self.beta = reaction.beta
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

        Returns (u1, v1, beta(u1), iterations, record); beta(u1) is the
        converged Newton iterate's reaction, which the next step takes as
        its beta0.
        """
        dt, th, a, lam, g = self.dt, self.theta, self.a, self.lam, self.forcing
        g0, g1 = (None, None) if g is None else (g(t), g(t + dt))
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
        return up, w, bw, iters, self.record(v, w, beta0, bw, g0, g1)

    def record(self, v, v1, beta0, beta1, g0, g1):
        dt, th = self.dt, self.theta
        beta_th = th * beta1 + (1.0 - th) * beta0
        v_th = th * v1 + (1.0 - th) * v
        diss = dt * edge_inner(self.grid, v_th, v_th)
        if self.forcing is None:
            return beta_th, diss, None
        g_th = th * g1 + (1.0 - th) * g0
        return beta_th, diss, dt * np.vecdot(self.w * g_th, v_th)


class _ScalarWorkspace:
    """Plain-float twin of _VectorWorkspace for a one-node grid.

    On one node there is no gradient, so the dissipation is 0 and the
    Newton matrix is the scalar 1 + a^2 (dbeta - lam).  The residual keeps
    its own association, a*(beta - lam*u - g), where the vector kernel
    subtracts a*g afterwards; on a forced run the two kernels therefore
    agree to round-off, not bit for bit.
    """

    def __init__(self, cfg, grid, reaction, forcing):
        self.beta_and_dbeta = reaction.scalar_beta_and_dbeta
        self.forcing = None if forcing is None else (lambda t: float(forcing(t)[0]))
        dt, th = cfg.dt, cfg.theta
        self.dt = dt
        self.theta = th
        self.lam = cfg.lam
        self.a = th * dt
        self.a2 = self.a * self.a
        self.dt_explicit = dt * (1.0 - th)
        self.dt_weight = dt * float(grid.mass_weights[0])
        self.newton_tol = cfg.newton_tol
        self.newton_max_iter = cfg.newton_max_iter

    def beta(self, u):
        return self.beta_and_dbeta(u)[0]

    def advance(self, u, v, t, k, b0):
        th, a, lam, g = self.theta, self.a, self.lam, self.forcing
        g0, g1 = (0.0, 0.0) if g is None else (g(t), g(t + self.dt))
        if th < 1.0:
            v_bar = v + self.dt_explicit * (-b0 + lam * u + g0)
        else:
            v_bar = v
        u_bar = u + self.dt_explicit * v
        tol = self.newton_tol * (1.0 + abs(v_bar))

        beta_and_dbeta = self.beta_and_dbeta
        w = v
        res0 = None
        iters = 0
        for it in range(self.newton_max_iter):
            up = u_bar + a * w
            bw, db = beta_and_dbeta(up)
            R = w - v_bar + a * (bw - lam * up - g1)
            res = abs(R)
            if not math.isfinite(res) or (res0 is not None and res > _DIVERGENCE_FACTOR * res0):
                raise NewtonDiverged(k, it, res)
            if res0 is None:
                res0 = 1.0 if res < 1.0 else res  # max(res, 1.0) without a call
            if res <= tol:
                iters = it
                break
            J = 1.0 + self.a2 * (db - lam)
            if abs(J) < 1e-14:
                raise NewtonDiverged(k, it, res)
            w = w - R / J
            iters = it + 1
        else:
            raise StepRejected(k, res, tol)

        return up, w, bw, iters, self.record(v, w, b0, bw, g0, g1)

    def record(self, v, v1, b0, b1, g0, g1):
        th = self.theta
        beta_th = th * b1 + (1.0 - th) * b0
        if self.forcing is None:
            return beta_th, None, None
        g_th = th * g1 + (1.0 - th) * g0
        return beta_th, None, self.dt_weight * g_th * (th * v1 + (1.0 - th) * v)
