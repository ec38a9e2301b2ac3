"""Shared fixtures: the expensive reference runs are built once per session."""

import math

import numpy as np
import pytest

import dampedwave as dw

EPS_SWEEP = (1e-2, 1e-3, 1e-4, 1e-5)


def toy_config(epsilon, T=2.0, dt_divisor=100.0, theta=0.5, **kw):
    """Homogeneous wall-impact problem with data (0, 1)."""
    dt = dw.snap_dt(T, math.sqrt(epsilon) / dt_divisor)
    base = dict(
        n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=epsilon,
        T=T, dt=dt, theta=theta, u0="zero", u1="constant:1", lam=0.0,
    )
    base.update(kw)
    return dw.SimConfig(**base)


@pytest.fixture(scope="session")
def toy_jump_run():
    """The reference jump run: eps=1e-6, dt = sqrt(eps)/100, theta=1/2."""
    traj = dw.simulate(toy_config(1e-6))
    xi = dw.accumulate_xi(traj)
    return traj, xi


@pytest.fixture(scope="session")
def toy_sweep():
    base = dw.SimConfig(
        n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=1e-3,
        T=2.0, dt=1e-3, theta=0.5, u0="zero", u1="constant:1", label="toy-sweep",
    )
    return dw.epsilon_sweep(base, EPS_SWEEP, keep_trajectories=True)


@pytest.fixture(scope="session")
def contact_sweep():
    base = dw.SimConfig(
        length=1.0, n_nodes=65, bc="neumann", graph_kind="indicator",
        epsilon=1e-3, T=2.0, dt=1e-3, theta=1.0,
        u0="cosine:1:0.01", u1="constant:1", label="contact-1d",
    )
    return dw.epsilon_sweep(base, EPS_SWEEP, keep_trajectories=True)


@pytest.fixture(scope="session")
def pressed_run():
    eps = 1e-3
    cfg = dw.SimConfig(
        length=1.0, n_nodes=33, bc="neumann", graph_kind="indicator",
        epsilon=eps, T=2.0, dt=dw.snap_dt(2.0, math.sqrt(eps) / 10.0), theta=1.0,
        u0="zero", u1="zero", forcing="constant:2", label="pressed",
    )
    traj = dw.simulate(cfg)
    xi = dw.accumulate_xi(traj)
    return traj, xi


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
