"""Maximal monotone constraint graphs on [-1, 1] and their regularizations.

Three graph kinds are supported:

* ``indicator`` -- the hard constraint, i.e. the subdifferential of the
  indicator function of [-1, 1].  Its resolvent is the projection onto
  [-1, 1], so all transforms are closed form.
* ``logarithmic`` -- beta(r) = log(1+r) - log(1-r) on (-1, 1), the
  derivative of the logarithmic potential.  The resolvent has no closed
  form and is computed by a safeguarded bisection/Newton hybrid.
* ``family`` -- the explicit piecewise-linear family with dead zone
  [-r_threshold, r_threshold] and slope eps_param**-2 outside.  Its own
  beta is already Lipschitz, so the time integrator can use it directly
  as the regularized reaction; the genuine resolvent/Yosida/Moreau
  transforms of the family are closed form as well and are kept for the
  convex-analysis cross checks.

Every kind satisfies 0 in beta(0) and has [-1, 1] as the closure of its
domain (for the family, in the graph-limit sense as eps_param -> 0).
All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonConvergence

_LOG2 = math.log(2.0)


class GraphKind(str, Enum):
    INDICATOR = "indicator"
    LOGARITHMIC = "logarithmic"
    FAMILY = "family"


@dataclass(frozen=True)
class MonotoneGraph:
    """A maximal monotone graph beta = dj with domain closure [-1, 1]."""

    kind: GraphKind
    r_threshold: float | None = None
    eps_param: float | None = None

    def __post_init__(self):
        if self.kind == GraphKind.FAMILY:
            if self.r_threshold is None or not 0.0 < self.r_threshold <= 1.0:
                raise ValueError("family graph needs r_threshold in (0, 1]")
            if self.eps_param is None or self.eps_param <= 0.0:
                raise ValueError("family graph needs eps_param > 0")


def indicator_graph() -> MonotoneGraph:
    return MonotoneGraph(GraphKind.INDICATOR)


def logarithmic_graph() -> MonotoneGraph:
    return MonotoneGraph(GraphKind.LOGARITHMIC)


def family_graph(r_threshold: float, eps_param: float) -> MonotoneGraph:
    return MonotoneGraph(GraphKind.FAMILY, r_threshold, eps_param)


@dataclass(frozen=True)
class RegularizedPotential:
    """A graph together with a regularization parameter epsilon > 0."""

    graph: MonotoneGraph
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")


# ---------------------------------------------------------------------------
# potentials j


def _log_j_scalar(r: float) -> float:
    if abs(r) > 1.0:
        return math.inf
    if abs(r) == 1.0:
        return 2.0 * _LOG2
    return (1.0 + r) * math.log1p(r) + (1.0 - r) * math.log1p(-r)


def family_j(r_threshold: float, eps_param: float, r):
    """Potential of the piecewise-linear family: ((|r|-r_threshold)^+)^2/(2 eps^2)."""
    excess = np.maximum(np.abs(r) - r_threshold, 0.0)
    return excess * excess / (2.0 * eps_param * eps_param)


def family_beta(r_threshold: float, eps_param: float, r):
    """Dead zone on [-r_threshold, r_threshold], slope eps_param**-2 outside."""
    r = np.asarray(r, dtype=float) if not np.isscalar(r) else r
    slope = 1.0 / (eps_param * eps_param)
    return slope * (
        np.maximum(r - r_threshold, 0.0) + np.minimum(r + r_threshold, 0.0)
    )


def family_dbeta(r_threshold: float, eps_param: float, r):
    """A.e. derivative of family_beta, kink resolved toward the active side."""
    slope = 1.0 / (eps_param * eps_param)
    return np.where(np.abs(r) >= r_threshold, slope, 0.0)


def eval_j(graph: MonotoneGraph, r):
    """Evaluate the convex potential j; +inf outside the domain, j(0) = 0."""
    if graph.kind == GraphKind.INDICATOR:
        if np.isscalar(r):
            return 0.0 if abs(r) <= 1.0 else math.inf
        r = np.asarray(r, dtype=float)
        return np.where(np.abs(r) <= 1.0, 0.0, math.inf)
    if graph.kind == GraphKind.LOGARITHMIC:
        if np.isscalar(r):
            return _log_j_scalar(float(r))
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, math.inf)
        inner = np.abs(r) < 1.0
        ri = r[inner]
        out[inner] = (1.0 + ri) * np.log1p(ri) + (1.0 - ri) * np.log1p(-ri)
        out[np.abs(r) == 1.0] = 2.0 * _LOG2
        return out
    return family_j(graph.r_threshold, graph.eps_param, r)


def limit_j(graph: MonotoneGraph, r):
    """The limit potential as the regularization vanishes.

    For the piecewise-linear family this is the indicator potential (the
    family converges to the hard constraint in the sense of graphs); for
    the other kinds it is j itself.
    """
    if graph.kind == GraphKind.FAMILY:
        return eval_j(indicator_graph(), r)
    return eval_j(graph, r)


# ---------------------------------------------------------------------------
# resolvent, Yosida approximant, Moreau envelope


def _log_beta(x):
    return np.log1p(x) - np.log1p(-x)


def _log_dbeta(x):
    return 1.0 / (1.0 + x) + 1.0 / (1.0 - x)


def _log_resolvent(r, epsilon, tol=1e-12, max_iter=200):
    """Solve x + epsilon*(log(1+x) - log(1-x)) = r on (-1, 1).

    Safeguarded Newton: the bisection bracket is maintained at every
    iteration and the Newton proposal is used only when it stays inside.
    The equation is strictly monotone in x, so the bracket never fails.
    Convergence is measured in x (|f|/f' <= tol): near the domain edge
    f' blows up like 1/(1-x^2) and a residual tolerance on f itself
    would sit below one ulp of x.
    """
    r = np.asarray(r, dtype=float)
    lo = np.full(r.shape, -1.0 + 1e-16)
    hi = np.full(r.shape, 1.0 - 1e-16)
    x = np.clip(r, -0.5, 0.5)
    f = x + epsilon * _log_beta(x) - r
    df = 1.0 + epsilon * _log_dbeta(x)
    for _ in range(max_iter):
        if np.all(np.abs(f) <= tol * df):
            break
        hi = np.where(f > 0.0, x, hi)
        lo = np.where(f <= 0.0, x, lo)
        newton = x - f / df
        mid = 0.5 * (lo + hi)
        x = np.where((newton > lo) & (newton < hi), newton, mid)
        f = x + epsilon * _log_beta(x) - r
        df = 1.0 + epsilon * _log_dbeta(x)
    if np.any(np.abs(f) > 10.0 * tol * df):
        raise NonConvergence(
            f"logarithmic resolvent: x-error {np.max(np.abs(f / df)):.3e} > {tol:.1e}"
        )
    return x


def resolvent(pot: RegularizedPotential, r):
    """The unique x with x + epsilon*beta(x) containing r; x in [-1, 1] closure."""
    eps = pot.epsilon
    kind = pot.graph.kind
    if kind == GraphKind.INDICATOR:
        return np.clip(r, -1.0, 1.0)
    if kind == GraphKind.LOGARITHMIC:
        scalar = np.isscalar(r)
        x = _log_resolvent(r, eps)
        return float(x) if scalar else x
    rt, ep = pot.graph.r_threshold, pot.graph.eps_param
    # piecewise-linear graph: solve each branch in closed form
    e2 = ep * ep
    r_arr = np.asarray(r, dtype=float)
    upper = (e2 * r_arr + eps * rt) / (e2 + eps)
    lower = (e2 * r_arr - eps * rt) / (e2 + eps)
    x = np.where(r_arr > rt, upper, np.where(r_arr < -rt, lower, r_arr))
    return float(x) if np.isscalar(r) else x


def yosida(pot: RegularizedPotential, r):
    """Yosida approximant (r - resolvent(r))/epsilon: monotone, 1/eps-Lipschitz."""
    return (r - resolvent(pot, r)) / pot.epsilon


def yosida_derivative(pot: RegularizedPotential, r):
    """A.e. derivative of the Yosida approximant (kinks resolved actively)."""
    return yosida_and_derivative(pot, r)[1]


def yosida_and_derivative(pot: RegularizedPotential, r):
    """``(yosida(r), yosida_derivative(r))`` from a single resolvent solve."""
    eps = pot.epsilon
    kind = pot.graph.kind
    x = resolvent(pot, r)
    y = (r - x) / eps
    if kind == GraphKind.INDICATOR:
        return y, np.where(np.abs(r) >= 1.0, 1.0 / eps, 0.0)
    if kind == GraphKind.LOGARITHMIC:
        d = _log_dbeta(x)
        return y, d / (1.0 + eps * d)
    rt = pot.graph.r_threshold
    e2 = pot.graph.eps_param ** 2
    return y, np.where(np.abs(r) >= rt, 1.0 / (e2 + eps), 0.0)


def moreau(pot: RegularizedPotential, r):
    """Moreau envelope min_s [ j(s) + (r-s)^2/(2 eps) ].

    Computed through the resolvent identity j(x*) + eps*yosida(r)^2/2,
    which is exact for every kind here.
    """
    x = resolvent(pot, r)
    y = (r - x) / pot.epsilon
    return eval_j(pot.graph, x) + 0.5 * pot.epsilon * y * y
