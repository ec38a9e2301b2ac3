"""Closed-form reference solutions for the spatially homogeneous model.

The homogeneous Neumann problem with zero forcing reduces to the scalar
ODE u'' + beta(u) = 0.  For the regularized problems the first wall
passage is a harmonic half-arch in closed form:

* piecewise-linear family (dead zone r_threshold, slope eps_param^-2),
  data (0, 1): u(t) = t up to r_threshold, then
  r_threshold + eps_param*sin((t-r_threshold)/eps_param), exiting with
  velocity -1.
* Yosida regularization of the hard constraint at eps, data (0, 1): the
  family passage with r_threshold = 1 and eps_param = sqrt(eps), that is
  u(t) = t up to t = 1, then 1 + sqrt(eps)*sin((t-1)/sqrt(eps)) for a
  half period, exiting with velocity -1.

Both refuse evaluation beyond their derivation window instead of
composing further events.  The module also samples phase-plane level
sets of the envelope potential.  The limit trajectory of the hard
constraint (free flight and velocity jumps at the walls) and the level
sets of a limit potential are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfValidityWindow
from .graphs import RegularizedPotential, moreau


def exact_family_toy(r_threshold: float, eps_param: float, t: float):
    """First wall passage of the family regularization with data (0, 1).

    Valid through the sinusoidal arch and the straight exit segment,
    up to the entry into the opposite layer; refuses beyond that.
    """
    rt, ep = float(r_threshold), float(eps_param)
    if not 0.0 < rt <= 1.0 or ep <= 0.0:
        raise ValueError("need 0 < r_threshold <= 1 and eps_param > 0")
    t_exit = rt + math.pi * ep
    if t < 0.0 or t > t_exit + 2.0 * rt:
        raise OutOfValidityWindow(f"t={t} beyond first return to the dead zone")
    if t <= rt:
        return t, 1.0
    if t <= t_exit:
        phase = (t - rt) / ep
        return rt + ep * math.sin(phase), math.cos(phase)
    return rt - (t - t_exit), -1.0


def yosida_layer_toy(epsilon: float, t: float):
    """First wall passage of the Yosida regularization with data (0, 1).

    It is the family passage with r_threshold = 1 and eps_param =
    sqrt(epsilon), term for term.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return exact_family_toy(1.0, math.sqrt(epsilon), t)


# ---------------------------------------------------------------------------
# phase-plane level sets


@dataclass(frozen=True)
class LevelSet:
    c: float
    branches: tuple  # arrays of (u, v) points
    connected: bool


def phase_level_set(pot: RegularizedPotential, c: float, n_samples: int = 200) -> LevelSet:
    """Sample {j_eps(u) + v^2/2 = c} for the envelope potential j_eps of
    ``pot`` and report whether it is one closed curve (``_level_set``)."""
    return _level_set(lambda u: float(moreau(pot, float(u))), c, _envelope_reach(pot, c), n_samples)


def _level_set(jfun, c: float, u_cap: float, n_samples: int) -> LevelSet:
    """Sample {j(u) + v^2/2 = c} for an even potential ``jfun`` that is
    nondecreasing on [0, u_cap] and report whether it is one closed curve.

    The set splits into a +v and a -v branch; they join into a single
    closed curve exactly when the potential climbs to c before u_cap,
    which fails for the limit of the hard constraint (u_cap = 1) whenever
    c > 0, and never for an envelope potential.
    """
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    u_max = _bisect_level(jfun, c, u_cap)
    us = np.linspace(-u_max, u_max, n_samples)
    js = np.array([jfun(u) for u in us])
    v = np.sqrt(np.maximum(2.0 * (c - js), 0.0))
    upper = np.column_stack([us, v])
    lower = np.column_stack([us[::-1], -v[::-1]])
    # branches meet iff v -> 0 at both extreme u values (at c = 0 the two
    # coincide on the segment v = 0)
    tip = math.sqrt(2.0 * max(c - jfun(u_max), 0.0))
    connected = tip <= 1e-6 * math.sqrt(2.0 * c)
    return LevelSet(c, (upper, lower), connected)


def _envelope_reach(pot: RegularizedPotential, c: float) -> float:
    # the envelope is finite everywhere; grow the bracket until j > c
    hi = 1.0
    for _ in range(200):
        if float(moreau(pot, hi)) > c:
            return hi
        hi *= 2.0
    return hi


def _bisect_level(jfun, c: float, u_cap: float) -> float:
    """Largest u in [0, u_cap] with j(u) <= c (j even and nondecreasing).
    If j(u_cap) <= c, the bisection climbs to u_cap itself when u_cap is a
    power of two, as the 1 of a limit potential is (the midpoint of 1 and
    the float below it rounds to 1)."""
    lo, hi = 0.0, u_cap
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if jfun(mid) <= c:
            lo = mid
        else:
            hi = mid
    return lo

