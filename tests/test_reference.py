"""Stored-reference bitwise test of the integrator.

Each case is a short run; the digests below are sha256 (first 16 hex
digits) of the raw bytes of every per-run array the integrator returns.
They pin the exact bits, so a rework of the step kernel that claims to
be bit-identical can be checked against the runs it replaced, not only
against itself (which is all ``test_determinism_bitwise`` can do).

The digests depend on floating-point results of numpy and LAPACK (they
were recorded with numpy 2.4.6 and scipy 1.17.1 on x86-64); a different
build of either may legitimately change the last bits.  To
regenerate after a deliberate change of the scheme, run this module as a
script: ``PYTHONPATH=src python tests/test_reference.py``.
"""

import functools
import hashlib

import numpy as np
import pytest

import dampedwave as dw
from dampedwave import integrator
from dampedwave.integrator import map_row_blocks, run_records, simulate

FIELDS = ("U", "V", "beta_theta", "diss_incr", "power_incr", "newton_iters")

CASES = {
    # vector path
    "indicator_dirichlet_half": dict(
        length=1.0, n_nodes=33, bc="dirichlet", graph_kind="indicator",
        epsilon=1e-3, T=0.2, dt=2e-3, theta=0.5, u0="sine:1:0.9", u1="sine:1:20",
    ),
    "indicator_neumann_forced": dict(
        length=1.0, n_nodes=17, bc="neumann", graph_kind="indicator",
        epsilon=1e-3, T=0.3, dt=3e-3, theta=1.0, u0="cosine:2:0.3",
        u1="constant:3", forcing="constant:2", lam=0.5,
    ),
    "logarithmic_neumann_backward": dict(
        length=1.0, n_nodes=65, bc="neumann", graph_kind="logarithmic",
        epsilon=1e-3, T=0.2, dt=2e-3, theta=1.0, u0="cosine:1:0.1",
        u1="constant:5",
    ),
    "logarithmic_dirichlet_half": dict(
        length=1.0, n_nodes=21, bc="dirichlet", graph_kind="logarithmic",
        epsilon=0.05, T=0.2, dt=2e-3, theta=0.5, u0="sine:1:0.5", u1="sine:1:30",
        forcing="sine:2:1",
    ),
    "family_neumann_half": dict(
        length=1.0, n_nodes=17, bc="neumann", graph_kind="family",
        r_threshold=0.8, eps_param=0.05, epsilon=None, T=0.3, dt=2e-3,
        theta=0.5, u0="cosine:1:0.5", u1="constant:4",
    ),
    "family_dirichlet_backward": dict(
        length=1.0, n_nodes=33, bc="dirichlet", graph_kind="family",
        r_threshold=0.9, eps_param=0.02, epsilon=None, T=0.2, dt=1e-3,
        theta=1.0, u0="sine:1:0.8", u1="sine:1:30", forcing="constant:1",
    ),
    # scalar path (one Neumann node)
    "scalar_indicator_half": dict(
        n_nodes=1, bc="neumann", graph_kind="indicator", epsilon=1e-4,
        T=1.2, dt=4e-3, theta=0.5, u0="zero", u1="constant:1",
    ),
    "scalar_logarithmic_backward": dict(
        n_nodes=1, bc="neumann", graph_kind="logarithmic", epsilon=1e-3,
        T=1.2, dt=4e-3, theta=1.0, u0="zero", u1="constant:5",
    ),
    "scalar_family_forced": dict(
        n_nodes=1, bc="neumann", graph_kind="family", r_threshold=0.9,
        eps_param=0.02, epsilon=None, T=1.0, dt=1e-2, theta=0.5, u0="zero",
        u1="constant:3", forcing="constant:1", lam=0.3,
    ),
}

REFERENCE = {
    "indicator_dirichlet_half": {
        "U": "dfd5706e02fe557f",
        "V": "f0f2f3ecaf14ef0f",
        "beta_theta": "85f141335173dbe4",
        "diss_incr": "4a94070c17748c6e",
        "power_incr": "67042dfda5683aea",
        "newton_iters": "e0a74b8e4325638c",
    },
    "indicator_neumann_forced": {
        "U": "301fd1c3fe6c5378",
        "V": "5bc09fd6e1cbe2ac",
        "beta_theta": "155d7cbe553d29d3",
        "diss_incr": "026cf3fa3a62bd9a",
        "power_incr": "6b4017de73f055d9",
        "newton_iters": "88163244840eeecf",
    },
    "logarithmic_neumann_backward": {
        "U": "19af7b8384e10bd8",
        "V": "29a080a6ad1ea918",
        "beta_theta": "18be4f64395a3cca",
        "diss_incr": "43c1270759937861",
        "power_incr": "67042dfda5683aea",
        "newton_iters": "3e8b015893d91350",
    },
    "logarithmic_dirichlet_half": {
        "U": "34f975765b92da83",
        "V": "35dfdb3116ea8cc2",
        "beta_theta": "a3fe1d0385a535ec",
        "diss_incr": "b82243185eb8f052",
        "power_incr": "b40798b4501fb682",
        "newton_iters": "3a49588e1171a378",
    },
    "family_neumann_half": {
        "U": "50f732ceeffe602a",
        "V": "cd7bed60612ba593",
        "beta_theta": "0231ac07bb2ae148",
        "diss_incr": "5855d3ebbc48fd9e",
        "power_incr": "655a3ef0465a9f30",
        "newton_iters": "b29f00e8a4e67703",
    },
    "family_dirichlet_backward": {
        "U": "3214ce158cbbfbf8",
        "V": "6b0282e3a9193062",
        "beta_theta": "1838c8fbc08f7230",
        "diss_incr": "a7661b22b2b030bc",
        "power_incr": "a9dde0f291d78cee",
        "newton_iters": "4a2ad471a6773202",
    },
    "scalar_indicator_half": {
        "U": "ce2e29104b37665a",
        "V": "ebdaa2eadb5f2b08",
        "beta_theta": "e1f86bd872f764be",
        "diss_incr": "a0ee989ed2a0a2e3",
        "power_incr": "a0ee989ed2a0a2e3",
        "newton_iters": "93189a8d3e69f584",
    },
    "scalar_logarithmic_backward": {
        "U": "0e40ceb5d81aa924",
        "V": "6367855006c1d973",
        "beta_theta": "4c03ca20d5691031",
        "diss_incr": "a0ee989ed2a0a2e3",
        "power_incr": "a0ee989ed2a0a2e3",
        "newton_iters": "6d3002dfc519a82f",
    },
    "scalar_family_forced": {
        "U": "3ac4a34cd3246fd8",
        "V": "b047c8c1dbab8468",
        "beta_theta": "0ffea758fd54059c",
        "diss_incr": "67042dfda5683aea",
        "power_incr": "b73af1bd4ea2f9b6",
        "newton_iters": "8bfde4c9813ac6d9",
    },
}


@functools.lru_cache(maxsize=None)
def run(name):
    return simulate(dw.SimConfig(label=name, **CASES[name]))


def run_digests(name, traj=None):
    traj = traj or run(name)
    out = {}
    for field in FIELDS:
        arr = getattr(traj, field)
        arr = arr.astype(np.int64) if field == "newton_iters" else arr.astype(np.float64)
        out[field] = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_stored_reference(name):
    assert run_digests(name) == REFERENCE[name]


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("block", [7, 100])
def test_stored_reference_in_small_row_blocks(name, block, monkeypatch):
    """The per-step records of a run are recorded in row blocks; blocks of
    a few elements put block edges inside every case."""
    monkeypatch.setattr(integrator, "BLOCK_ELEMENTS", block)
    traj = simulate(dw.SimConfig(label=name, **CASES[name]))
    assert run_digests(name, traj) == REFERENCE[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_exercises_contact_and_newton(name):
    # a reference that never touches the constraint or never solves a
    # Newton system would not pin the reaction or the Jacobian
    traj = run(name)
    assert np.count_nonzero(traj.beta_theta) > 0
    assert traj.newton_iters.max() >= 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_rebuilt_from_the_states_are_the_runs(name):
    """What verify recomputes (the reaction of the stored states in row
    blocks) gives each step's records bit for bit, on every graph."""
    cfg = dw.SimConfig(label=name, **CASES[name])
    traj = run(name)
    rebuilt = run_records(cfg, traj.V, map_row_blocks(cfg.reaction().beta, traj.U))
    for field, arr in zip(("beta_theta", "diss_incr", "power_incr"), rebuilt):
        assert arr.tobytes() == getattr(traj, field).tobytes(), field


def test_scalar_logarithmic_newton_iteration_costs_one_resolvent(monkeypatch):
    """The scalar kernel takes beta and dbeta from one resolvent solve per
    Newton iteration: one for beta(u0), then one per residual."""
    real = dw.graphs._log_resolvent
    calls = []

    def counting(r, epsilon):
        calls.append(1)
        return real(r, epsilon)

    monkeypatch.setattr(dw.graphs, "_log_resolvent", counting)
    traj = simulate(dw.SimConfig(label="count", **CASES["scalar_logarithmic_backward"]))
    solves = int(traj.newton_iters.sum())  # Newton iterations with a linear solve
    assert solves > traj.n_steps // 2
    assert len(calls) == 1 + traj.n_steps + solves


if __name__ == "__main__":
    print("REFERENCE = {")
    for name in CASES:
        print(f"    {name!r}: {{")
        for field, digest in run_digests(name).items():
            print(f"        {field!r}: {digest!r},")
        print("    },")
    print("}")
