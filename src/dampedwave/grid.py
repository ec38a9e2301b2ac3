"""1D spatial grid, discrete Laplacian, edge pairing, and initial-data smoothing.

Finite differences on a uniform mesh.  The Dirichlet grid stores interior
nodes only (the boundary values are identically zero); the Neumann grid
stores all nodes including the endpoints and realizes the zero-flux
condition through mirror ghost nodes, which keeps the row sums of the
operator exactly zero.  The L2 inner product uses trapezoidal end
weights under Neumann so that constants have exact norm sqrt(L).

A single-node Neumann grid is allowed as the spatially homogeneous
degenerate case (the operator is identically zero there); it backs the
toy model runs.

Fields are plain float ndarrays of the grid dimension.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SingularSystem

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

Field = np.ndarray


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on (0, L) with a boundary-condition tag."""

    length: float
    n_nodes: int
    bc: str
    h: float = field(init=False)

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("length must be positive")
        if self.bc not in (DIRICHLET, NEUMANN):
            raise ValueError(f"unknown bc {self.bc!r}")
        if self.bc == NEUMANN and self.n_nodes == 1:
            # homogeneous (toy) grid: no spatial structure at all
            object.__setattr__(self, "h", self.length)
            return
        if self.n_nodes < 3:
            raise ValueError("n_nodes must be >= 3 (or 1 for Neumann)")
        if self.bc == DIRICHLET:
            object.__setattr__(self, "h", self.length / (self.n_nodes + 1))
        else:
            object.__setattr__(self, "h", self.length / (self.n_nodes - 1))

    @property
    def x(self) -> np.ndarray:
        if self.is_homogeneous:
            return np.array([0.5 * self.length])
        if self.bc == DIRICHLET:
            return self.h * np.arange(1, self.n_nodes + 1)
        return self.h * np.arange(self.n_nodes)

    @property
    def is_homogeneous(self) -> bool:
        return self.n_nodes == 1

    @property
    def mass_weights(self) -> np.ndarray:
        if self.is_homogeneous:
            return np.array([self.length])
        w = np.full(self.n_nodes, self.h)
        if self.bc == NEUMANN:
            w[0] = w[-1] = 0.5 * self.h
        return w

    def check_field(self, u: Field, name: str = "field") -> None:
        if np.shape(u) != (self.n_nodes,):
            raise DimensionMismatch(
                f"{name} has shape {np.shape(u)}, grid expects ({self.n_nodes},)"
            )


def apply_A(grid: Grid, u: Field) -> Field:
    """Discrete negative Laplacian (3-point stencil, bc-specific closure).

    ``u`` is a field (n_nodes,) or a row batch (n_t, n_nodes), mapped row by row.
    """
    if np.ndim(u) not in (1, 2) or np.shape(u)[-1] != grid.n_nodes:
        raise DimensionMismatch(
            f"field has shape {np.shape(u)}, grid expects ({grid.n_nodes},) or (n_t, {grid.n_nodes})"
        )
    if grid.is_homogeneous:
        return np.zeros(np.shape(u))
    h2 = grid.h * grid.h
    out = np.empty_like(u)
    out[..., 1:-1] = (-u[..., :-2] + 2.0 * u[..., 1:-1] - u[..., 2:]) / h2
    if grid.bc == DIRICHLET:
        out[..., 0] = (2.0 * u[..., 0] - u[..., 1]) / h2
        out[..., -1] = (2.0 * u[..., -1] - u[..., -2]) / h2
    else:
        out[..., 0] = (2.0 * u[..., 0] - 2.0 * u[..., 1]) / h2
        out[..., -1] = (2.0 * u[..., -1] - 2.0 * u[..., -2]) / h2
    return out


def laplacian_banded(grid: Grid) -> np.ndarray:
    """The operator of apply_A in solve_banded's (1,1) layout."""
    n = grid.n_nodes
    ab = np.zeros((3, n))
    if grid.is_homogeneous:
        return ab
    h2 = grid.h * grid.h
    ab[0, 1:] = -1.0 / h2
    ab[1, :] = 2.0 / h2
    ab[2, :-1] = -1.0 / h2
    if grid.bc == NEUMANN:
        ab[0, 1] = -2.0 / h2
        ab[2, -2] = -2.0 / h2
    return ab


_FLAPACK = "scipy.linalg._flapack"
_dgtsv = None  # LAPACK gtsv, loaded by the first solve on two or more nodes


def _flapack_spec():
    """The spec of scipy's compiled LAPACK wrappers, found without importing scipy."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        return None
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy_spec.submodule_search_locations[0], "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    return finder.find_spec(_FLAPACK)


def load_lapack(name: str):
    """scipy's LAPACK wrapper ``name`` (``dgtsv``, ``dgttrf``, ``dgttrs``),
    without running ``scipy.linalg``'s import.

    The extension ``scipy.linalg._flapack`` is executed on its own and
    registered in ``sys.modules`` under its name, so a later ``import
    scipy.linalg`` reuses it and ``scipy.linalg.lapack.<name>`` is this
    function.  If the extension is not where scipy's layout puts it, the
    public ``scipy.linalg.lapack.<name>`` (the same function) is imported.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        spec = _flapack_spec()
        if spec is None:
            from scipy.linalg import lapack

            return getattr(lapack, name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_FLAPACK] = module
    return getattr(module, name)


def solve_banded(l_and_u, ab, b):
    """``scipy.linalg.solve_banded`` for ``l_and_u == (1, 1)``, minus its checks.

    ``ab`` is in ``laplacian_banded``'s layout.  It makes the same LAPACK
    ``gtsv`` call as scipy (a single division on one node), so the solution
    is bit-identical; what it skips is the input validation (finiteness
    included) that costs more than the solve at a few hundred nodes.  A
    singular matrix raises ``np.linalg.LinAlgError``.  ``dgtsv`` is loaded
    by the first call on two or more nodes (``load_lapack``), so a command
    that never makes one (``verify``, a one-node run) does not load LAPACK.
    """
    global _dgtsv
    if len(b) == 1:
        return b / ab[1]
    if _dgtsv is None:
        _dgtsv = load_lapack("dgtsv")
    x, info = _dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def factor_banded(ab):
    """The solve b -> x of the (1, 1) banded ``ab``, from one LU
    factorization (LAPACK ``gttrf``, then ``gttrs`` per solve).

    ``gttrf`` pivots and eliminates as ``gtsv`` does and ``gttrs`` applies
    the same operations to b, so each solve has ``solve_banded(ab, b)``'s
    bits (on one node, the same division).  A singular matrix raises
    ``np.linalg.LinAlgError`` here, where ``gtsv`` would refuse every
    solve.  ``ab`` has one node or three or more, as every grid does
    (scipy's ``gttrf`` wrapper refuses two).  The routines are loaded by the
    first call on more than one node, as ``solve_banded``'s.
    """
    if ab.shape[1] == 1:
        return lambda b: b / ab[1]
    dgttrs = load_lapack("dgttrs")
    *lu, info = load_lapack("dgttrf")(ab[2, :-1], ab[1], ab[0, 1:])
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return lambda b: dgttrs(*lu, b)[0]


def regularize_initial(grid: Grid, u0: Field, epsilon: float) -> Field:
    """Solve (I + epsilon*A) w = u0; the elliptic smoothing of initial data.

    The matrix is an M-matrix for every epsilon > 0, so the solve is
    order-preserving and cannot be singular; the guard is defensive.  The
    solve is ``solve_banded``, which does not check ``u0`` for finiteness:
    ``config`` refuses a non-finite profile before it gets here.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    grid.check_field(u0, "u0")
    if grid.is_homogeneous:
        return np.array(u0, dtype=float, copy=True)
    ab = epsilon * laplacian_banded(grid)
    ab[1, :] += 1.0
    try:
        return solve_banded((1, 1), ab, u0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SingularSystem(str(exc)) from exc


def edge_inner(grid: Grid, u: Field, v: Field):
    """Sum over edges of (du)(dv)/h; equals <A u, v> in the weighted product.

    Dirichlet grids include the two boundary edges against the zero
    boundary values; Neumann grids have no boundary edges (mirror ghosts
    contribute zero differences).

    Two fields (n_nodes,) give a float; a row batch (n_t, n_nodes) against
    a batch or a field gives the (n_t,) row values, each equal to the call
    on its row bit for bit (``np.vecdot`` sums a row in one order, whatever
    the batch).
    """
    if grid.is_homogeneous:
        shape = np.broadcast_shapes(np.shape(u), np.shape(v))[:-1]
        return np.zeros(shape) if shape else 0.0
    # np.diff's subtraction, without its per-call overhead: a check calls
    # this once per row block
    du = u[..., 1:] - u[..., :-1]
    acc = np.vecdot(du, du if v is u else v[..., 1:] - v[..., :-1])
    if grid.bc == DIRICHLET:
        acc += u[..., 0] * v[..., 0] + u[..., -1] * v[..., -1]
    return acc / grid.h

