"""Implicit theta-scheme integration of the regularized equation.

The second-order equation u_tt + A u_t + A u + beta_eps(u) - lambda*u = g
is advanced as the first-order system u' = v, v' = F(u, v) with

    u+ = u + dt*(theta*v+ + (1-theta)*v)
    v+ = v + dt*(theta*F(u+, v+) + (1-theta)*F(u, v)).

The forcing g is one field, constant in time (``config.forcing_field``).

Eliminating u+ leaves one nonlinear system in w = v+, solved by a
semismooth Newton iteration whose Jacobian is tridiagonal plus a
diagonal (the a.e. derivative of the reaction).  The reaction is
treated fully implicitly: its Lipschitz constant is 1/eps, so any
explicit treatment would force dt = O(eps).

Per step, the work is: one evaluation of the explicit part F(u, v)
(only for theta < 1), then per Newton iteration one reaction evaluation
(``Reaction.beta_and_dbeta``: value and derivative from a single
resolvent solve), one residual and, unless the residual is already
below tolerance, one tridiagonal solve (``grid.solve_banded``, a direct
LAPACK ``gtsv`` call, on a copy of the fixed matrix part with the
diagonal term added).  At
convergence u+ is the last Newton iterate, so its reaction is already
known: it becomes the next step's beta(u) and is never recomputed.  A
step with one Newton iteration therefore costs two resolvent solves.

A run keeps every state and the reaction of each.  After the loop,
``run_records`` gives every step its records: the theta-combined
reaction field (the raw material for the constraint-measure histogram),
the dissipation and forcing power increments in the scheme-consistent
quadrature.  It applies the kernel's one ``record`` function to blocks
of stacked steps, and ``cli.read_run_npz`` calls it on the states of
``run.npz``, which stores no records, so both get the same bits.  A run's arrays take ``run_bytes`` bytes; a run larger
than the physical memory is refused before anything is allocated.  The
checks that follow a run reduce per-step values that
``Trajectory.step_values`` computes over the same row blocks, so nothing
the size of the run is allocated after the loop.

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
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SimConfig
from .errors import ConfigError, NewtonDiverged, RunError, StepRejected, TimeNotOnGrid
from .graphs import Reaction
from .grid import Grid, edge_inner, laplacian_banded, solve_banded

_DIVERGENCE_FACTOR = 1e8

# elements per block when a row-wise map runs over a whole run: bounds the
# temporaries (the logarithmic resolvent keeps several per element)
BLOCK_ELEMENTS = 1 << 16

def map_row_blocks(fn, *Ms) -> np.ndarray:
    """Row-wise ``fn`` (such as ``Reaction.beta``) over blocks of rows of the
    equally long ``Ms``: ``fn(*blocks)`` gives one value, or one row of
    values, per row, and the blocks' values are stacked."""
    return _map_blocks(len(Ms[0]), Ms[0].shape[1], lambda i, j: fn(*(M[i:j] for M in Ms)))


def _map_blocks(n_rows: int, n_x: int, fn) -> np.ndarray:
    """``fn(i, j)`` over the row blocks [i, j) of about BLOCK_ELEMENTS
    elements of an (n_rows, n_x) array, stacked into one array."""
    out = None
    rows = max(1, BLOCK_ELEMENTS // n_x)
    for i in range(0, n_rows, rows):
        j = min(i + rows, n_rows)
        values = fn(i, j)
        if out is None:
            out = np.empty((n_rows,) + np.shape(values)[1:])
        out[i:j] = values
    return out


def pairwise_sum(fn, M: np.ndarray) -> float:
    """``np.sum(fn(M))`` for an elementwise ``fn``, bit for bit, with no
    ``fn(M)`` array.

    numpy sums a contiguous array pairwise: it halves a piece of more than
    128 elements at a multiple of 8 and sums smaller pieces directly.  This
    follows those splits down to pieces of at most BLOCK_ELEMENTS elements
    of M's C-order elements and sums each piece with ``np.sum``.
    """
    flat = np.ravel(M)

    def piece(i, n):
        if n <= max(BLOCK_ELEMENTS, 128):
            return np.sum(fn(flat[i : i + n]))
        half = n // 2 - (n // 2) % 8
        return piece(i, half) + piece(i + half, n - half)

    return float(piece(0, flat.size))


@dataclass
class Trajectory:
    """A completed run: every state plus per-step diagnostics.

    ``times``/``U``/``V`` hold the initial state and the state after each
    step, ``times[k] = k*dt``; ``beta_theta`` row k is the theta-combined
    reaction of step k, so dt * weights * beta_theta is exactly the
    reaction mass the scheme injected during that step.
    """

    cfg: SimConfig
    times: np.ndarray
    U: np.ndarray
    V: np.ndarray
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
        return len(self.times) - 1

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

    @cached_property
    def forcing(self) -> np.ndarray | None:
        """The run's forcing field g, constant in time, or None if it is zero."""
        return self.cfg.forcing_field(self.grid)

    @property
    def forcing_theta(self) -> np.ndarray:
        """theta*g + (1-theta)*g, the forcing that the scheme's quadrature
        pairs in every step: g up to round-off, with the bits of the step
        kernels' ``record``."""
        th, g = self.theta, self.forcing
        return th * g + (1.0 - th) * g

    def __getstate__(self) -> dict:
        """The pickled state: the cached reaction holds closures that do not
        pickle, so it is left out and rebuilt from ``cfg``."""
        return {k: v for k, v in vars(self).items() if k != "reaction"}

    def step_values(self, fn, *Qs) -> np.ndarray:
        """The (n_steps, ...) values of ``fn(steps, *blocks)``, computed over
        row blocks of about BLOCK_ELEMENTS elements.

        ``steps`` is the slice of a block's steps, for indexing per-step
        arrays (the measure's masses, a candidate); each block is
        ``theta_combine`` of one per-record array Q (U, V) over the block's
        records, steps.start to steps.stop inclusive.  A block
        holds the bits of the whole-run ``theta_combine``, which is
        elementwise, so ``fn`` built from row-wise operations (``np.vecdot``,
        ``grid.edge_inner``, a row maximum) gives each step the same value
        whatever the block size.  A post-run reduction sums or maximizes
        these values and builds no array the size of the run.
        """

        def block(i, j):
            return fn(slice(i, j), *(self.theta_combine(Q[i : j + 1]) for Q in Qs))

        return _map_blocks(self.n_steps, self.U.shape[1], block)


def _resolve_steps(cfg: SimConfig) -> int:
    n = int(round(cfg.T / cfg.dt))
    if n < 1 or abs(n * cfg.dt - cfg.T) > 1e-9 * max(1.0, cfg.T):
        raise RunError(f"time.T={cfg.T} is not an integer multiple of dt={cfg.dt}")
    return n


def run_bytes(n_steps: float, n_x: int) -> float:
    """Bytes a run of ``n_steps`` steps on ``n_x`` nodes holds: u, v and the
    reaction of every state, and the Newton count of every step."""
    return 8.0 * (3.0 * (n_steps + 1) * n_x + n_steps)


def _check_run_size(cfg: SimConfig) -> None:
    """ConfigError naming ``time.dt`` if the run would not fit in physical
    memory; T/dt is taken as a float, so that a ratio too large for an
    integer step count is refused here too."""
    n_steps = cfg.T / cfg.dt
    need = run_bytes(n_steps, cfg.n_nodes)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            "time.dt",
            f"{n_steps:.3g} steps on {cfg.n_nodes} nodes need {need / 1e9:.3g} GB, "
            f"more than the {have / 1e9:.3g} GB of physical memory",
        )


def _check_initial_energy(cfg: SimConfig, grid, reaction, u0, v0) -> None:
    """ConfigError naming ``init`` unless the initial data have a finite
    regularized energy E_eps(u0, u1), the hypothesis of the existence
    result; the overflow that makes it infinite is not warned about.  The
    error names the terms that are not finite, or the total if only their
    sum overflows, so that +inf and -inf terms do not read as nan."""
    from .energy import energy  # energy imports this module

    with np.errstate(over="ignore", invalid="ignore"):
        e = energy(grid, u0, v0, reaction, cfg.lam)
        total = e.total
    if not math.isfinite(total):
        terms = [f"{name} = {x}" for name, x in vars(e).items() if not math.isfinite(x)]
        shown = ", ".join(terms or [f"total = {total}"])
        raise ConfigError("init", f"the initial energy E_eps(u0, u1) is not finite: {shown}")


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
    _check_run_size(cfg)
    n_steps = _resolve_steps(cfg)
    u0, v0 = cfg.initial_fields(grid)
    _check_initial_energy(cfg, grid, reaction, u0, v0)
    kernel, u, v = _kernel(cfg, grid, reaction, u0, v0)
    return _run(cfg, kernel, n_steps, u, v)


def _kernel(cfg, grid, reaction, u, v):
    """The step kernel for ``grid``, and the state (u, v) in its form.

    A one-node grid gets the scalar kernel and plain floats, any other
    grid the vector kernel and float arrays.
    """
    forcing = cfg.forcing_field(grid)
    if grid.is_homogeneous:
        return _ScalarWorkspace(cfg, grid, reaction, forcing), float(u[0]), float(v[0])
    kernel = _VectorWorkspace(cfg, grid, reaction, forcing)
    return kernel, np.asarray(u, dtype=float), np.asarray(v, dtype=float)


def _run(cfg, kernel, n_steps, u, v) -> Trajectory:
    """Advance (u, v) n_steps times with ``kernel``, keeping every state and
    its reaction, then record every step with ``run_records``.

    The arrays take the state's shape, so a float state fills 1-D arrays
    by item assignment, which is cheaper than (i, 0) indexing; they get
    one column per node at the end, as a view.
    """
    dt = cfg.dt
    U, V, B = (np.empty((n_steps + 1,) + np.shape(u)) for _ in range(3))
    iters = np.zeros(n_steps, dtype=int)

    advance = kernel.advance
    beta = kernel.beta(u)
    U[0], V[0], B[0] = u, v, beta
    try:
        for k in range(n_steps):
            u, v, beta, iters[k] = advance(u, v, k, beta)
            U[k + 1], V[k + 1], B[k + 1] = u, v, beta
    except (NewtonDiverged, StepRejected) as exc:
        raise RunError(f"run '{cfg.label}' failed: {exc}") from exc

    U, V, B = (M.reshape(n_steps + 1, -1) for M in (U, V, B))
    times = dt * np.arange(n_steps + 1, dtype=float)
    return Trajectory(cfg, times, U, V, *run_records(cfg, V, B), iters)


def run_records(cfg: SimConfig, V, B):
    """(beta_theta, dissipation, power) of every step of the run through the
    states with velocities ``V`` and reactions ``B``, from its step kernel's
    ``record``; beta_theta is written over the first n_steps rows of ``B``.

    Each step gets the inputs ``advance`` gave it: the reaction of each
    state, and the kernel's forcing.  The reaction of a state
    is elementwise bit for bit, so ``B`` may come from the Newton loop or
    from ``Reaction.beta`` on stored states (on one node it gives the scalar
    kernel's bits).  ``record`` takes blocks of about BLOCK_ELEMENTS
    elements, in order: a block reads one row past its end, which the next
    block writes, so the reactions need no second array.  Each row's record
    is the one-step record, bit for bit, whatever the block.
    """
    grid = cfg.grid()
    kernel = _kernel(cfg, grid, cfg.reaction(), V[0], V[0])[0]
    n = len(V) - 1
    diss, power = np.zeros(n), np.zeros(n)
    Vk, Bk = (V[:, 0], B[:, 0]) if grid.is_homogeneous else (V, B)
    rows = max(1, BLOCK_ELEMENTS // V.shape[1])
    for i in range(0, n, rows):
        j = min(i + rows, n)
        step, next_ = slice(i, j), slice(i + 1, j + 1)
        Bk[step], d, p = kernel.record(Vk[step], Vk[next_], Bk[step], Bk[next_])
        # a dissipation or power of None is 0 by construction: its pages are never touched
        if d is not None:
            diss[i:j] = d
        if p is not None:
            power[i:j] = p
    return B[:n], diss, power


# ---------------------------------------------------------------------------
# step kernels: advance(u, v, k, beta(u)) -> (u1, v1, beta(u1), Newton
# iterations); record(v, v1, beta(u), beta(u1)) = (beta_theta, dissipation,
# forcing power) of a step, with None for a dissipation or power that is zero
# by construction; record maps stacked steps (rows) too.  Both read the
# forcing field from ``self.forcing``


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

    def advance(self, u, v, k, beta0):
        """Step k from (u, v) with beta0 = beta(u).

        Returns (u1, v1, beta(u1), iterations); beta(u1) is the converged
        Newton iterate's reaction, which the next step takes as its beta0.
        """
        dt, th, a, lam, g = self.dt, self.theta, self.a, self.lam, self.forcing
        if th < 1.0:
            F0 = -self.apply_A(v) - self.apply_A(u) - beta0 + lam * u
            if g is not None:
                F0 = F0 + g
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
            if g is not None:
                R -= a * g
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
        return up, w, bw, iters

    def record(self, v, v1, beta0, beta1):
        dt, th, g = self.dt, self.theta, self.forcing
        beta_th = th * beta1 + (1.0 - th) * beta0
        v_th = th * v1 + (1.0 - th) * v
        diss = dt * edge_inner(self.grid, v_th, v_th)
        if g is None:
            return beta_th, diss, None
        g_th = th * g + (1.0 - th) * g  # Trajectory.forcing_theta, bit for bit
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
        self.forcing = None if forcing is None else float(forcing[0])
        dt, th = cfg.dt, cfg.theta
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

    def advance(self, u, v, k, b0):
        th, a, lam = self.theta, self.a, self.lam
        g = 0.0 if self.forcing is None else self.forcing
        if th < 1.0:
            v_bar = v + self.dt_explicit * (-b0 + lam * u + g)
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
            R = w - v_bar + a * (bw - lam * up - g)
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

        return up, w, bw, iters

    def record(self, v, v1, b0, b1):
        th, g = self.theta, self.forcing
        beta_th = th * b1 + (1.0 - th) * b0
        if g is None:
            return beta_th, None, None
        g_th = th * g + (1.0 - th) * g
        return beta_th, None, self.dt_weight * g_th * (th * v1 + (1.0 - th) * v)
