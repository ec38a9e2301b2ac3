"""Maximal monotone constraint graphs on [-1, 1] and their regularizations.

Three graph kinds are supported:

* ``indicator`` -- the hard constraint, i.e. the subdifferential of the
  indicator function of [-1, 1].  Its resolvent is the projection onto
  [-1, 1], so all transforms are closed form.
* ``logarithmic`` -- beta(r) = log(1+r) - log(1-r) on (-1, 1), the
  derivative of the logarithmic potential.  The resolvent has no closed
  form and is computed by a safeguarded bisection/Newton hybrid that runs
  per element, so its result for each element is the same bits whatever
  array it comes in (a whole run, one state, one node).
* ``family`` -- the explicit piecewise-linear family with dead zone
  [-r_threshold, r_threshold] and slope eps_param**-2 outside.  Its own
  beta is already Lipschitz, so the time integrator can use it directly
  as the regularized reaction, and this module gives it no resolvent,
  Yosida or Moreau transform (their closed forms are test oracles in
  ``tests/oracles.py``).

Every kind satisfies 0 in beta(0) and has [-1, 1] as the closure of its
domain (for the family, in the graph-limit sense as eps_param -> 0).
All values are immutable and all operations are pure functions.

``Reaction`` (built by ``make_reaction``) is the reaction the solver
uses: the Yosida approximant of the indicator or logarithmic graph, or
the family as it stands.  This module is the only one that computes a
reaction value or derivative, and ``Reaction._forms`` is the one place
that picks the formulas by kind.  Each formula is written once, as an
array form that is elementwise bit for bit, and a plain float goes
through the same form (as a 0-d value).  Each kind but the logarithmic
has a dead zone ``|r| < Reaction.dead_zone`` where the value and the
derivative are exactly +0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial

import numpy as np

from .errors import ConfigError, NonConvergence

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


def family_beta_and_dbeta(r_threshold: float, eps_param: float, r):
    """``family_beta`` and its a.e. derivative, kink resolved toward the active side."""
    slope = 1.0 / (eps_param * eps_param)
    return family_beta(r_threshold, eps_param, r), np.where(np.abs(r) >= r_threshold, slope, 0.0)


def eval_j(graph: MonotoneGraph, r):
    """Evaluate the convex potential j; +inf outside the domain, j(0) = 0.

    One array form per kind: a float ``r`` gives a 0-d array."""
    if graph.kind == GraphKind.INDICATOR:
        r = np.asarray(r, dtype=float)
        return np.where(np.abs(r) <= 1.0, 0.0, math.inf)
    if graph.kind == GraphKind.LOGARITHMIC:
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, math.inf)
        inner = np.abs(r) < 1.0
        ri = r[inner]
        out[inner] = (1.0 + ri) * np.log1p(ri) + (1.0 - ri) * np.log1p(-ri)
        out[np.abs(r) == 1.0] = 2.0 * _LOG2
        return out
    return family_j(graph.r_threshold, graph.eps_param, r)


def limit_is_indicator(graph: MonotoneGraph) -> bool:
    """Whether the limit potential is the indicator of [-1, 1].

    True for the hard constraint and for the piecewise-linear family
    (which converges to it in the sense of graphs); the logarithmic
    potential is its own limit.
    """
    return graph.kind in (GraphKind.INDICATOR, GraphKind.FAMILY)


def limit_j(graph: MonotoneGraph, r):
    """The limit potential as the regularization vanishes."""
    if limit_is_indicator(graph):
        return eval_j(indicator_graph(), r)
    return eval_j(graph, r)


def log_j_conjugate(s):
    """The convex conjugate of the logarithmic potential, j*(s) = 2 ln cosh(s/2)
    (its derivative tanh(s/2) inverts beta = 2 artanh), in the form
    |s| + 2 log1p(exp(-|s|)) - 2 ln 2, which stays finite where cosh overflows."""
    a = np.abs(s)
    return a + 2.0 * np.log1p(np.exp(-a)) - 2.0 * _LOG2


# ---------------------------------------------------------------------------
# resolvent, Yosida approximant, Moreau envelope


def _log_resolvent(r, epsilon, tol=1e-12, max_iter=200):
    """Solve f(x) = x + epsilon*(log(1+x) - log(1-x)) - r = 0 on (-1, 1).

    Returns ``(x, beta'(x))``: the iteration computes beta' anyway, and the
    Yosida derivative needs it.

    Each element runs its own safeguarded Newton iteration and is frozen
    at the first iterate that passes its own test; only the unconverged
    elements are carried on.  So an element's bits depend on ``(r_i,
    epsilon)`` alone, whatever the batch.  The start solves
    x + 2 epsilon (x + x^3/3) = r to third order in x, from r/(1 + 2 epsilon)
    clipped to +-0.99.  The bisection bracket is kept at every iteration,
    and an element bisects when its Newton proposal leaves the bracket or
    fails to halve its previous step: near the domain edge f' blows up
    like 1/(1-x^2), and Newton alone crawls toward the edge.

    Convergence is measured in x: an element is done when |f|/f' <= tol
    (a residual tolerance on f itself would sit below one ulp of x near
    the edge) or when its bracket is at most tol wide.  The bracket test
    bounds the x-error; its ends start at the floats next to -1 and 1, so
    a root beyond them, within one ulp of +-1 (r = 1.04 at epsilon = 1e-7),
    is within tol + 1.2e-16 of x.  A NaN element is frozen at its first
    test and returned as NaN.  Elements still open after ``max_iter``
    iterations are accepted at 10*tol, or NonConvergence is raised.
    """
    r = np.asarray(r, dtype=float)
    shape = r.shape
    rr = r.ravel()
    n = rr.size
    e2 = 2.0 * epsilon
    x = np.minimum(np.maximum(rr / (1.0 + e2), -0.99), 0.99)
    x = x - (e2 / 3.0) / (1.0 + e2) * (x * x * x)
    out_x = out_d = idx = None  # idx: output positions of the open elements
    for it in range(max_iter + 1):
        # beta(x) = 2 artanh(x), beta'(x) = 2/((1-x)(1+x)); dx is the Newton step
        f = x + e2 * np.arctanh(x) - rr
        d = 2.0 / ((1.0 - x) * (1.0 + x))
        dx = f / (1.0 + epsilon * d)
        adx = np.abs(dx)
        done = ~(adx > tol)  # a NaN element is done at once, as NaN
        k = np.count_nonzero(done)
        if k < n:
            above = f > 0.0
            if it:
                hi = np.where(above, x, hi)
                lo = np.where(above, lo, x)
                done |= hi - lo <= tol
                k = np.count_nonzero(done)
            else:
                # one end is still the domain edge, the other |x| <= 0.99:
                # too wide for the bracket test
                hi = np.where(above, x, 1.0 - 1e-16)
                lo = np.where(above, -1.0 + 1e-16, x)
        if k == n:
            break
        if k:
            if idx is None:
                out_x, out_d = x, d
                keep = idx = np.flatnonzero(~done)
            else:
                out_x[idx[done]] = x[done]
                out_d[idx[done]] = d[done]
                keep = ~done
                idx = idx[keep]
            n -= k
            x, d, dx, adx, lo, hi, rr = (a[keep] for a in (x, d, dx, adx, lo, hi, rr))
            if it:
                prev = prev[keep]
        if it == max_iter:
            if np.any(adx > 10.0 * tol):
                raise NonConvergence(
                    f"logarithmic resolvent: x-error {np.max(adx):.3e} > {tol:.1e}"
                )
            break
        newton = x - dx
        use = (newton > lo) & (newton < hi)
        if it:
            use &= adx <= 0.5 * np.abs(x - prev)
        prev = x
        x = newton if np.count_nonzero(use) == n else np.where(use, newton, 0.5 * (lo + hi))
    if idx is None:
        return x.reshape(shape), d.reshape(shape)
    out_x[idx] = x
    out_d[idx] = d
    return out_x.reshape(shape), out_d.reshape(shape)


def resolvent(pot: RegularizedPotential, r):
    """The unique x with x + epsilon*beta(x) containing r; x in [-1, 1] closure.

    For the indicator and logarithmic graphs, the two the solver
    regularizes; ValueError for the family, which it uses as it stands.
    """
    kind = pot.graph.kind
    if kind == GraphKind.INDICATOR:
        return np.minimum(np.maximum(r, -1.0), 1.0)
    if kind != GraphKind.LOGARITHMIC:
        raise ValueError(f"no resolvent for the {kind.value} graph")
    x = _log_resolvent(r, pot.epsilon)[0]
    return float(x) if np.isscalar(r) else x


def yosida(pot: RegularizedPotential, r):
    """Yosida approximant (r - resolvent(r))/epsilon: monotone, 1/eps-Lipschitz."""
    return (r - resolvent(pot, r)) / pot.epsilon


def yosida_and_derivative(pot: RegularizedPotential, r):
    """``yosida(r)`` and its a.e. derivative (kinks resolved actively) from a
    single resolvent solve; two Python floats for a float ``r``."""
    eps = pot.epsilon
    if pot.graph.kind == GraphKind.LOGARITHMIC:
        x, d = _log_resolvent(r, eps)
        y, dy = (r - x) / eps, d / (1.0 + eps * d)
    else:
        y = (r - resolvent(pot, r)) / eps
        dy = np.where(np.abs(r) >= 1.0, 1.0 / eps, 0.0)
    return (float(y), float(dy)) if np.isscalar(r) else (y, dy)


def moreau(pot: RegularizedPotential, r):
    """Moreau envelope min_s [ j(s) + (r-s)^2/(2 eps) ].

    Computed through the resolvent identity j(x*) + eps*yosida(r)^2/2,
    which is exact for the indicator and logarithmic graphs.
    """
    x = resolvent(pot, r)
    y = (r - x) / pot.epsilon
    return eval_j(pot.graph, x) + 0.5 * pot.epsilon * y * y


# ---------------------------------------------------------------------------
# the solver's reaction


@dataclass(frozen=True)
class Reaction:
    """The regularized reaction used inside the implicit solver.

    For the indicator and logarithmic graphs this is the Yosida
    approximant at ``epsilon`` together with the Moreau envelope as its
    potential.  The piecewise-linear family is used verbatim (its own
    beta is the regularizer), in which case ``epsilon`` is the family
    index eps_param and the boundary-layer width scales like eps_param
    instead of sqrt(epsilon).

    The methods are elementwise bit for bit, and take a plain float too.
    A ``Reaction`` holds no closures, so it pickles, its built forms
    included.
    """

    graph: MonotoneGraph
    epsilon: float
    layer_width: float

    @cached_property
    def _forms(self):
        """(beta, beta_and_dbeta, pot, dead_zone) of the graph kind."""
        g = self.graph
        if g.kind == GraphKind.FAMILY:
            rt, ep = g.r_threshold, g.eps_param
            return (
                partial(family_beta, rt, ep), partial(family_beta_and_dbeta, rt, ep),
                partial(family_j, rt, ep), rt,
            )
        pot = RegularizedPotential(g, self.epsilon)
        dead_zone = 1.0 if g.kind == GraphKind.INDICATOR else None
        return partial(yosida, pot), partial(yosida_and_derivative, pot), partial(moreau, pot), dead_zone

    def beta(self, u):
        return self._forms[0](u)

    def dbeta(self, u):
        return self._forms[1](u)[1]

    def beta_and_dbeta(self, u):
        """``(beta(u), dbeta(u))`` with one resolvent solve."""
        return self._forms[1](u)

    def pot(self, u):
        return self._forms[2](u)

    @property
    def dead_zone(self) -> float | None:
        """The half-width w of the dead zone -w < r < w, where beta and dbeta
        are exactly +0.0; None for a graph without one (the logarithmic)."""
        return self._forms[3]


def make_reaction(graph: MonotoneGraph, epsilon: float | None) -> Reaction:
    if graph.kind == GraphKind.FAMILY:
        ep = graph.eps_param
        return Reaction(graph, ep, layer_width=math.pi * ep)
    if epsilon is None or epsilon <= 0.0:
        raise ConfigError("graph.epsilon", "must be a positive real")
    return Reaction(graph, epsilon, layer_width=math.pi * math.sqrt(epsilon))
