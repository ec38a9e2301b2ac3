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
below tolerance, one tridiagonal solve.  Where dbeta is non-zero at some
node, that solve is ``grid.solve_banded`` (a direct LAPACK ``gtsv``
call) on a copy of the fixed matrix part with the diagonal term added.
Where dbeta = 0 at every node (the reaction's dead zone, which the
logarithmic graph does not have), the matrix is J_A + (1 - a^2 lambda) I
in every such iteration of the run: the first one factors it (``gttrf``)
and each solves with the factors (``gttrs``), with ``gtsv``'s bits.  At
convergence u+ is the last Newton iterate, so its reaction is already
known: it becomes the next step's beta(u) and is never recomputed.  A
step with one Newton iteration therefore costs two resolvent solves.

A run keeps every state and the reaction of each.  After the loop,
``run_records`` gives every step its records: the theta-combined
reaction field (the raw material for the constraint-measure histogram),
the dissipation and forcing power increments in the scheme-consistent
quadrature.  It applies the kernel's one ``record`` function to blocks
of stacked steps, and ``cli.read_run_npz`` calls it on the states of
``run.npz``, which stores no records, so both get the same bits.  A run's
arrays take ``run_bytes`` bytes; a run larger than the physical memory is
refused before anything is allocated.  The checks that follow a run read
it in passes over the same row blocks (``row_blocks``,
``Trajectory.step_values``), one per check, and reduce per-step values;
a sum over the whole run follows numpy's pairwise order piece by piece
(``pairwise_pieces``).  Nothing the size of the run is allocated after
the loop.

One driver (``_run``) allocates, records and wraps solver failures for
every run, over one of two step kernels with the same ``advance``
contract; ``_kernel`` picks it from the node count.  The vector kernel
serves every grid of two or more nodes.  A one-node grid gets a
plain-float kernel, because the vector kernel pays numpy's per-call
overhead on 1-element arrays: on a 63,246-step toy run it takes about
36 microseconds per step against 1.0 for the plain-float step (2-core
Xeon, Python 3.11, numpy 2.4).  It gets its reaction from
``Reaction.scalar_beta_and_dbeta``, once per Newton iteration, with the
bits of the array form.

On one node with lambda = 0 and no forcing, a step from a state whose
reaction is 0 that stays inside the reaction's dead zone
(``Reaction.dead_zone``) is free flight: v is kept and u moves by
dt*v.  ``_run`` takes such stretches from the plain-float kernel's
``free_flight``, one ``np.add.accumulate`` per stretch of up to
BLOCK_ELEMENTS steps, with the step loop's bits.  The toy run above
then costs 0.05 microseconds per step, and ``toy --epsilon 1e-7``
(632,456 steps, 315 of them in contact) integrates in 0.017 s against
0.63 s step by step.  Both kernels are deterministic, so identical
configurations reproduce trajectories bit for bit.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .config import SimConfig, profile_field
from .errors import ConfigError, NewtonDiverged, RunError, StepRejected, TimeNotOnGrid
from .graphs import Reaction, limit_j
from .grid import Grid, edge_inner, factor_banded, laplacian_banded, solve_banded

_DIVERGENCE_FACTOR = 1e8

# elements per block when a row-wise map runs over a whole run: bounds the
# temporaries (the logarithmic resolvent keeps several per element).  A check
# holds a few blocks at once: at 256 KiB a block, a whole command stays under
# a quarter of u on configs/dirichlet_sine.yaml; at 128 KiB the battery took
# about 20% longer there, from the cost of each block
BLOCK_ELEMENTS = 1 << 15

# the bytes of a default block for ``_keep_freed_blocks``, fixed at import so
# that a smaller BLOCK_ELEMENTS set later cannot shrink the malloc thresholds
_BLOCK_BYTES = 8 * BLOCK_ELEMENTS

# a row block has a multiple of GEMV_ROWS rows: OpenBLAS's dgemv (0.3.31) then
# gives each row of a product ``M @ w`` taken over the blocks the bits of the
# whole-array product on one thread, which blocks of 7 or of 1,985 rows do
# not (``tests/test_row_blocks.py`` checks this)
GEMV_ROWS = 64


def row_blocks(n_rows: int, n_x: int):
    """The slices [i, j) of the row blocks of an (n_rows, n_x) array, in
    order: about BLOCK_ELEMENTS elements each, rounded down to a multiple of
    GEMV_ROWS rows, and at least GEMV_ROWS rows."""
    _keep_freed_blocks()
    rows = max(1, BLOCK_ELEMENTS // n_x)
    rows = max(GEMV_ROWS, rows - rows % GEMV_ROWS)
    for i in range(0, n_rows, rows):
        yield slice(i, min(i + rows, n_rows))


@cache
def _keep_freed_blocks() -> None:
    """Have glibc's malloc mmap only requests of 4 default blocks or more and
    keep up to 16 blocks of freed heap before it trims the heap
    (``mallopt``), once per process; nothing happens without glibc.

    A block consumer allocates and frees a few block-sized temporaries per
    block.  glibc's default thresholds follow the largest mmapped chunk
    freed so far, and once no array the size of the run is freed they stay
    near a block: a block's temporaries are mmapped, or the heap top is
    trimmed after them, and every block faults its pages in anew.  On
    ``configs/dirichlet_sine.yaml`` that made the check battery in
    ``simulate`` 0.15 s against 0.10 s; thresholds of 2/8, 4/16, 16/64 and
    64/256 blocks all took 0.10 s.  A run's arrays are still mmapped.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return
    mallopt(-3, 4 * _BLOCK_BYTES)  # M_MMAP_THRESHOLD
    mallopt(-1, 16 * _BLOCK_BYTES)  # M_TRIM_THRESHOLD


def block_columns(n_rows: int) -> int:
    """How many columns of ``n_rows`` values fit in BLOCK_ELEMENTS elements, at least one."""
    return max(1, BLOCK_ELEMENTS // n_rows)


def map_row_blocks(fn, *Ms) -> np.ndarray:
    """Row-wise ``fn`` (such as ``Reaction.beta``) over blocks of rows of the
    equally long ``Ms``: ``fn(*blocks)`` gives one value, or one row of
    values, per row, and the blocks' values are stacked."""
    return map_blocks(len(Ms[0]), Ms[0].shape[1], lambda rows: fn(*(M[rows] for M in Ms)))


def map_blocks(n_rows: int, n_x: int, fn) -> np.ndarray:
    """``fn(rows)`` over the slices ``row_blocks(n_rows, n_x)`` of an
    (n_rows, n_x) array, stacked into one array."""
    out = None
    for rows in row_blocks(n_rows, n_x):
        values = fn(rows)
        if out is None:
            out = np.empty((n_rows,) + np.shape(values)[1:])
        out[rows] = values
    return out


def pairwise_pieces(rows, n_rows: int, n_x: int) -> float:
    """The ``np.sum`` of the (n_rows, n_x) array whose rows ``rows(slice)``
    gives, bit for bit, from pieces of its flat values.

    numpy sums a contiguous array pairwise: it halves a piece of more than
    128 elements at a multiple of 8 and sums smaller pieces directly.  This
    follows those splits down to pieces of at most BLOCK_ELEMENTS values,
    and sums each piece from the rows that hold it, cut at its ends, so no
    array the size of the whole is built.
    """
    limit = max(BLOCK_ELEMENTS, 128)

    def piece(i, n):
        if n > limit:
            half = n // 2 - (n // 2) % 8
            return piece(i, half) + piece(i + half, n - half)
        k, start = divmod(i, n_x)
        return np.sum(np.ravel(rows(slice(k, -(-(i + n) // n_x))))[start : start + n])

    return float(piece(0, n_rows * n_x))


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

    def time_index(self, t: float) -> int:
        """Index of a recorded time, or TimeNotOnGrid.  The tolerance, 1e-9
        or a quarter step if that is smaller, matches each recorded time to
        its own index only."""
        tol = min(1e-9, 0.25 * self.dt)
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
        the row blocks of ``row_blocks``.

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

        def block(steps):
            records = slice(steps.start, steps.stop + 1)
            return fn(steps, *(self.theta_combine(Q[records]) for Q in Qs))

        return map_blocks(self.n_steps, self.U.shape[1], block)


def _resolve_steps(cfg: SimConfig) -> int:
    """The step count T/dt; RunError unless T is that many steps within
    1e-9 * max(1, T), or within a quarter step if that is smaller, so that a
    dt below 1e-9 cannot round to a run that ends at another time."""
    n = int(round(cfg.T / cfg.dt))
    if n < 1 or abs(n * cfg.dt - cfg.T) > min(1e-9 * max(1.0, cfg.T), 0.25 * cfg.dt):
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
    regularized energy E_eps(u0, u1) and a finite physical energy E(u0, u1),
    the hypothesis of the existence result.

    E_eps is checked first, on the data the run starts from; the overflow
    that makes it infinite is not warned about.  The error names the terms
    that are not finite, or the total if only their sum overflows, so that
    +inf and -inf terms do not read as nan.  E takes the limit potential j
    (``graphs.limit_j``) of the u0 profile before it is smoothed; on a grid
    its other terms are finite, so E is finite exactly when j(u0) is at
    every node (|u0| <= 1 for all three graphs).  The error gives the
    largest |u0| and its node.
    """
    from .energy import energy  # energy imports this module

    with np.errstate(over="ignore", invalid="ignore"):
        e = energy(grid, u0, v0, reaction, cfg.lam)
        total = e.total
    if not math.isfinite(total):
        terms = [f"{name} = {x}" for name, x in vars(e).items() if not math.isfinite(x)]
        shown = ", ".join(terms or [f"total = {total}"])
        raise ConfigError("init", f"the initial energy E_eps(u0, u1) is not finite: {shown}")
    u0 = profile_field(grid, cfg.u0)
    if not np.all(np.isfinite(limit_j(cfg.graph(), u0))):
        i = int(np.argmax(np.abs(u0)))
        raise ConfigError(
            "init", f"the physical energy E(u0, u1) is not finite: |u0| = {float(abs(u0[i]))!r} at node {i}"
        )


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

    Where the kernel has a ``free_flight`` and the reaction is 0, it fills
    the positions of a stretch of dead-zone steps at once, up to
    BLOCK_ELEMENTS of them; those steps keep v, reaction 0.0 and 0 Newton
    iterations, and the step after the stretch goes to ``advance``.
    """
    dt = cfg.dt
    U, V, B = (np.empty((n_steps + 1,) + np.shape(u)) for _ in range(3))
    iters = np.zeros(n_steps, dtype=int)

    advance, flight = kernel.advance, kernel.free_flight
    beta = kernel.beta(u)
    U[0], V[0], B[0] = u, v, beta
    k = 0
    try:
        while k < n_steps:
            if flight is not None and beta == 0.0:
                m = flight(u, v, U[k + 1 : k + 1 + BLOCK_ELEMENTS])
                V[k + 1 : k + 1 + m] = v
                B[k + 1 : k + 1 + m] = 0.0
                k += m
                u = float(U[k])
                if k == n_steps:
                    break
            u, v, beta, iters[k] = advance(u, v, k, beta)
            k += 1
            U[k], V[k], B[k] = u, v, beta
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
    kernel's bits).  ``record`` takes the row blocks of ``row_blocks``,
    in order: a block reads one row past its end, which the next
    block writes, so the reactions need no second array.  Each row's record
    is the one-step record, bit for bit, whatever the block.
    """
    grid = cfg.grid()
    kernel = _kernel(cfg, grid, cfg.reaction(), V[0], V[0])[0]
    n = len(V) - 1
    diss, power = np.zeros(n), np.zeros(n)
    Vk, Bk = (V[:, 0], B[:, 0]) if grid.is_homogeneous else (V, B)
    for step in row_blocks(n, V.shape[1]):
        next_ = slice(step.start + 1, step.stop + 1)
        Bk[step], d, p = kernel.record(Vk[step], Vk[next_], Bk[step], Bk[next_])
        # a dissipation or power of None is 0 by construction: its pages are never touched
        if d is not None:
            diss[step] = d
        if p is not None:
            power[step] = p
    return B[:n], diss, power


# ---------------------------------------------------------------------------
# step kernels: advance(u, v, k, beta(u)) -> (u1, v1, beta(u1), Newton
# iterations); record(v, v1, beta(u), beta(u1)) = (beta_theta, dissipation,
# forcing power) of a step, with None for a dissipation or power that is zero
# by construction; record maps stacked steps (rows) too.  Both read the
# forcing field from ``self.forcing``.  free_flight(u, v, out), or None,
# fills ``out`` with the positions of the steps from (u, v), with reaction
# 0, that ``advance`` would take with no Newton iteration, and returns their
# count (see ``_run``)


class _VectorWorkspace:
    free_flight = None

    def __init__(self, cfg, grid, reaction, forcing):
        self.cfg = cfg
        self.grid = grid
        self.beta = reaction.beta
        self.beta_and_dbeta = reaction.beta_and_dbeta
        self.forcing = forcing
        self.dt = cfg.dt
        self.theta = cfg.theta
        self.lam = cfg.lam
        self.a = cfg.theta * cfg.dt
        A_ab = laplacian_banded(grid)
        self.A_bands = A_ab[0, 1:], A_ab[1], A_ab[2, :-1]  # upper, diagonal, lower
        # the Newton matrix is J_A + diag(1 + a^2 (dbeta - lam)); J_A is fixed
        self.J_A = (self.a + self.a * self.a) * A_ab
        self._dead_zone_solve = None
        self.w = grid.mass_weights

    def apply_A(self, z):
        upper, diag, lower = self.A_bands
        out = diag * z
        out[:-1] += upper * z[1:]
        out[1:] += lower * z[:-1]
        return out

    def dead_zone_solve(self, b):
        """The Newton solve of an iteration with dbeta = 0 at every node.

        Its matrix J_A + (1 + a^2 (0 - lam)) I is the same in every such
        iteration, so the first one factors it (``grid.factor_banded``) and
        each solves with the factors.  The diagonal is built with the
        operations that ``advance`` applies to a zero dbeta, and a solve
        with the factors has ``solve_banded``'s bits, so the iterate is the
        one a fresh ``solve_banded`` gives.  A singular matrix raises
        ``np.linalg.LinAlgError``, as ``solve_banded`` does.
        """
        if self._dead_zone_solve is None:
            J = self.J_A.copy()
            J[1] += 1.0 + self.a * self.a * (0.0 - self.lam)
            self._dead_zone_solve = factor_banded(J)
        return self._dead_zone_solve(b)

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
        scale = 1.0 + float(np.abs(v_bar).max())
        tol = self.cfg.newton_tol * scale

        beta_and_dbeta = self.beta_and_dbeta
        w = v.copy()
        res0 = None
        iters = 0
        for it in range(self.cfg.newton_max_iter):
            up = u_bar + a * w
            bw, db = beta_and_dbeta(up)
            R = w - v_bar + a * (self.apply_A(w) + self.apply_A(up) + bw - lam * up)
            if g is not None:
                R -= a * g
            res = float(np.abs(R).max())
            if not math.isfinite(res) or (res0 is not None and res > _DIVERGENCE_FACTOR * res0):
                raise NewtonDiverged(k, it, res)
            if res0 is None:
                res0 = max(res, 1.0)
            if res <= tol:
                iters = it
                break
            try:
                if db.any():
                    J = self.J_A.copy()
                    J[1] += 1.0 + a * a * (db - lam)
                    dw = solve_banded((1, 1), J, -R)
                else:
                    dw = self.dead_zone_solve(-R)
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
        self.dt = dt
        self.theta = th
        self.lam = cfg.lam
        self.a = th * dt
        self.a2 = self.a * self.a
        self.dt_explicit = dt * (1.0 - th)
        self.dt_weight = dt * float(grid.mass_weights[0])
        self.newton_tol = cfg.newton_tol
        self.newton_max_iter = cfg.newton_max_iter
        self.dead_zone = reaction.dead_zone
        free = self.dead_zone is not None and self.lam == 0.0 and self.forcing is None
        self.free_flight = self._free_flight if free else None

    def beta(self, u):
        return self.beta_and_dbeta(u)[0]

    def _free_flight(self, u, v, out):
        """Free flight from (u, v) with reaction 0, with lambda = 0 and no
        forcing: the positions of the steps that stay strictly inside the
        dead zone, written to the head of ``out``, and their count.

        Such a step is one ``advance`` takes with no Newton iteration.  With
        beta(u) = 0, lambda = 0 and g = 0, v_bar = v (up to the sign of a
        zero), and the first iterate w = v lands on up = u_bar + a*v, whose
        reaction is 0.0; so the first residual is exactly 0, which passes
        any newton.tol > 0 on the first of newton.max_iter >= 1 iterations
        (validation keeps both).  ``advance`` then returns
        (u_bar + a*v, v, 0.0, 0), and the positions follow the recurrence
        u <- (u + dt(1-theta)v) + theta dt v, with the same v in every step.
        ``np.add.accumulate`` over u and the interleaved increments adds in
        sequence, so it forms the loop's own sums.  No more steps are taken
        than could stay inside at speed |v|.
        """
        n = len(out)
        span = 2.0 * self.dead_zone
        speed = abs(v) * self.dt
        if speed * n > span:
            n = min(n, int(span / speed) + 2)
        x = np.empty(2 * n + 1)
        x[0] = u
        x[1::2] = self.dt_explicit * v
        x[2::2] = self.a * v
        np.add.accumulate(x, out=x)
        x = x[2::2]
        inside = np.abs(x) < self.dead_zone
        m = int(inside.argmin())  # the first step that leaves, if one does
        if inside[m]:
            m = n
        out[:m] = x[:m]
        return m

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
