"""Spatial grid: operator, norms, smoothing."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

import dampedwave.grid
from dampedwave.config import SimConfig, load_config, profile_field
from dampedwave.errors import DimensionMismatch
from dampedwave.graphs import RegularizedPotential, indicator_graph, moreau
from dampedwave.grid import (
    DIRICHLET,
    NEUMANN,
    Grid,
    apply_A,
    edge_inner,
    factor_banded,
    laplacian_banded,
    load_lapack,
    regularize_initial,
    solve_banded,
)
from dampedwave.integrator import _VectorWorkspace
from tests.oracles import inner, norms

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


def dirichlet_eigenvalue(grid: Grid, k: int = 1) -> float:
    return (2.0 - 2.0 * math.cos(k * math.pi * grid.h / grid.length)) / grid.h ** 2


class TestApplyA:
    def test_neumann_kills_constants(self):
        g = Grid(2.0, 17, NEUMANN)
        out = apply_A(g, 3.0 * np.ones(17))
        np.testing.assert_allclose(out, 0.0, atol=1e-13)

    def test_zero_field(self):
        g = Grid(1.0, 9, DIRICHLET)
        np.testing.assert_array_equal(apply_A(g, np.zeros(9)), np.zeros(9))

    def test_dirichlet_sine_is_discrete_eigenvector(self):
        g = Grid(1.0, 31, DIRICHLET)
        u = np.sin(math.pi * g.x / g.length)
        mu = dirichlet_eigenvalue(g)
        np.testing.assert_allclose(apply_A(g, u), mu * u, rtol=1e-12)

    def test_dimension_mismatch(self):
        g = Grid(1.0, 9, DIRICHLET)
        with pytest.raises(DimensionMismatch):
            apply_A(g, np.zeros(8))

    def test_consistency_order_two(self):
        errs = []
        for n in (16, 32, 64, 128):
            g = Grid(1.0, n, DIRICHLET)
            u = np.sin(2 * math.pi * g.x)
            exact = (2 * math.pi) ** 2 * u
            errs.append(np.max(np.abs(apply_A(g, u) - exact)))
        rates = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert all(r > 1.9 for r in rates)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_symmetry_in_weighted_product(self, seed):
        rng = np.random.default_rng(seed)
        for bc, n in ((DIRICHLET, 13), (NEUMANN, 13)):
            g = Grid(1.5, n, bc)
            u, w = rng.standard_normal(n), rng.standard_normal(n)
            lhs = inner(g, apply_A(g, u), w)
            rhs = inner(g, u, apply_A(g, w))
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_quadratic_form_equals_h1_seminorm(self):
        rng = np.random.default_rng(7)
        for bc in (DIRICHLET, NEUMANN):
            g = Grid(2.0, 21, bc)
            u = rng.standard_normal(21)
            q = inner(g, apply_A(g, u), u)
            assert q >= 0.0
            assert q == pytest.approx(norms(g, u)["h1_semi"] ** 2, rel=1e-12)


class TestRegularizeInitial:
    def test_neumann_constant_unchanged(self):
        g = Grid(1.0, 11, NEUMANN)
        u = 0.7 * np.ones(11)
        np.testing.assert_allclose(regularize_initial(g, u, 0.3), u, atol=1e-13)

    def test_zero(self):
        g = Grid(1.0, 11, DIRICHLET)
        np.testing.assert_array_equal(regularize_initial(g, np.zeros(11), 0.1), np.zeros(11))

    def test_dirichlet_sine_scales_by_eigenvalue(self):
        g = Grid(1.0, 25, DIRICHLET)
        u = np.sin(math.pi * g.x)
        eps = 0.05
        w = regularize_initial(g, u, eps)
        np.testing.assert_allclose(w, u / (1.0 + eps * dirichlet_eigenvalue(g)), rtol=1e-12)

    def test_homogeneous_grid_identity(self):
        g = Grid(1.0, 1, NEUMANN)
        np.testing.assert_array_equal(regularize_initial(g, np.array([0.4]), 1e-3), [0.4])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 9), st.floats(1e-4, 1.0))
    def test_maximum_principle_contracts_potential(self, seed, eps):
        # |u0| <= 1 pointwise stays so after smoothing: envelope mass stays 0
        rng = np.random.default_rng(seed)
        for bc in (DIRICHLET, NEUMANN):
            g = Grid(1.0, 17, bc)
            u0 = rng.uniform(-1, 1, 17)
            w = regularize_initial(g, u0, eps)
            assert np.max(np.abs(w)) <= np.max(np.abs(u0)) + 1e-12
            pot = RegularizedPotential(indicator_graph(), eps)
            assert float(np.sum(moreau(pot, w) * g.mass_weights)) <= 1e-15


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestSolveBanded:
    """``solve_banded`` gives ``scipy.linalg.solve_banded((1, 1), ...)``'s bits."""

    def test_same_bits_as_scipy(self):
        rng = np.random.default_rng(14)
        for n in range(2, 301):
            for pivot in (False, True):
                ab = rng.standard_normal((3, n))
                if pivot:
                    # |dl| > |d| in every column of the input: dgtsv swaps rows
                    ab[2] = np.sign(ab[2]) * (1.0 + np.abs(ab[2]))
                    ab[1] = rng.uniform(-1.0, 1.0, n)
                else:
                    ab[1] = 4.0 + np.abs(ab[1])  # diagonally dominant
                b = rng.standard_normal(n)
                ours = solve_banded((1, 1), ab, b)
                theirs = scipy.linalg.solve_banded((1, 1), ab, b)
                np.testing.assert_array_equal(bits(ours), bits(theirs))

    def test_singular_raises(self):
        ab = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])  # [[1, 1], [1, 1]]
        b = np.ones(2)
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.solve_banded((1, 1), ab, b)
        with pytest.raises(np.linalg.LinAlgError):
            solve_banded((1, 1), ab, b)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_regularize_initial_same_bits_as_scipy(self, path):
        """On each shipped config's grid and epsilon, with its u0 and a random one."""
        cfg = load_config(path)
        grid, eps = cfg.grid(), cfg.reaction().epsilon
        ab = eps * laplacian_banded(grid)
        ab[1, :] += 1.0
        rng = np.random.default_rng(len(path.stem))
        for u0 in (profile_field(grid, cfg.u0), rng.uniform(-1.0, 1.0, grid.n_nodes)):
            np.testing.assert_array_equal(
                bits(regularize_initial(grid, u0, eps)),
                bits(scipy.linalg.solve_banded((1, 1), ab, u0)),
            )


class TestFactorBanded:
    """``factor_banded`` solves with ``solve_banded``'s bits."""

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
    @pytest.mark.parametrize("n", [3, 33, 65, 256])
    def test_dead_zone_matrix_same_bits_as_dgtsv(self, n, bc):
        """The vector kernel's factored dead-zone solve gives, on random
        right-hand sides, the bits of ``dgtsv`` on the matrix that its
        Newton iteration builds from a zero dbeta; the last two (dt, theta,
        lambda) make 1 - a^2 lambda negative."""
        rng = np.random.default_rng(n)
        for dt, theta, lam in ((1e-3, 0.5, 0.0), (2e-3, 1.0, 0.5), (1e-5, 0.5, 0.0),
                               (0.05, 1.0, 500.0), (0.5, 0.5, 20.0)):
            cfg = SimConfig(length=1.0, n_nodes=n, bc=bc, graph_kind="indicator",
                            epsilon=1e-3, T=dt, dt=dt, theta=theta, lam=lam)
            kernel = _VectorWorkspace(cfg, cfg.grid(), cfg.reaction(), None)
            a = kernel.a
            J = kernel.J_A.copy()
            J[1] += 1.0 + a * a * (np.zeros(n) - lam)
            for _ in range(25):
                b = rng.standard_normal(n) * 10.0 ** float(rng.integers(-6, 7))
                np.testing.assert_array_equal(
                    bits(kernel.dead_zone_solve(b)), bits(solve_banded((1, 1), J, b))
                )

    def test_random_matrices_same_bits_as_solve_banded(self):
        """Row swaps included, as in ``TestSolveBanded``."""
        rng = np.random.default_rng(24)
        for n in range(3, 120):
            for pivot in (False, True):
                ab = rng.standard_normal((3, n))
                if pivot:
                    ab[2] = np.sign(ab[2]) * (1.0 + np.abs(ab[2]))
                    ab[1] = rng.uniform(-1.0, 1.0, n)
                else:
                    ab[1] = 4.0 + np.abs(ab[1])
                solve = factor_banded(ab)
                for _ in range(3):
                    b = rng.standard_normal(n)
                    np.testing.assert_array_equal(bits(solve(b)), bits(solve_banded((1, 1), ab, b)))

    def test_singular_raises(self):
        ab = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])  # rows 1 and 2 equal
        with pytest.raises(np.linalg.LinAlgError):
            solve_banded((1, 1), ab, np.ones(3))
        with pytest.raises(np.linalg.LinAlgError):
            factor_banded(ab)


FRESH_LOAD = """
import sys
from dampedwave.grid import load_lapack
names = sys.argv[1:]
routines = [load_lapack(name) for name in names]
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
import scipy.linalg.lapack
print(loaded, all(getattr(scipy.linalg.lapack, n) is f for n, f in zip(names, routines)))
"""


def _fresh_load(*names):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_LOAD, *names],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.splitlines()[-1]


class TestLoadDgtsv:
    """``load_lapack``, which loads ``dgtsv`` and the ``dgttrf``/``dgttrs`` pair."""

    def test_loads_the_extension_alone_and_scipy_reuses_it(self):
        """In a new interpreter, only ``scipy.linalg._flapack`` is loaded (not
        ``scipy`` itself), and a later ``import scipy.linalg`` hands back the
        same ``dgtsv``."""
        assert _fresh_load("dgtsv") == "['scipy.linalg._flapack'] True"

    def test_factor_routines_load_from_the_extension_alone(self):
        """The same holds for the factorization's ``dgttrf`` and ``dgttrs``."""
        assert _fresh_load("dgttrf", "dgttrs") == "['scipy.linalg._flapack'] True"

    def test_falls_back_to_the_public_function(self, monkeypatch):
        looked_up = []
        # the lookup records its call and finds nothing
        monkeypatch.setattr(dampedwave.grid, "_flapack_spec", lambda: looked_up.append(1))
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        for name in ("dgtsv", "dgttrf", "dgttrs"):
            assert load_lapack(name) is getattr(scipy.linalg.lapack, name)
        assert looked_up == [1, 1, 1]


class TestNorms:
    def test_zero(self):
        g = Grid(1.0, 15, DIRICHLET)
        n = norms(g, np.zeros(15))
        assert n == {"l2": 0.0, "h1_semi": 0.0}

    def test_neumann_constant(self):
        g = Grid(1.0, 21, NEUMANN)
        n = norms(g, np.ones(21))
        assert n["l2"] == pytest.approx(1.0, rel=1e-13)
        assert n["h1_semi"] == 0.0

    def test_dirichlet_hat_against_refined_grid(self):
        g = Grid(1.0, 15, DIRICHLET)
        hat = np.maximum(0.0, 1.0 - np.abs(g.x - 0.5) / 0.25)
        coarse = norms(g, hat)["l2"]
        g10 = Grid(1.0, 159, DIRICHLET)
        hat10 = np.maximum(0.0, 1.0 - np.abs(g10.x - 0.5) / 0.25)
        fine = norms(g10, hat10)["l2"]
        assert coarse == pytest.approx(fine, rel=0.02)
        # the refined value is within 0.1% of the exact integral 2w/3
        assert fine == pytest.approx(math.sqrt(2 * 0.25 / 3), rel=1e-3)

    def test_h1_includes_dirichlet_boundary_edges(self):
        g = Grid(1.0, 3, DIRICHLET)
        u = np.array([1.0, 1.0, 1.0])
        # interior flat, but the drops to the zero boundary count: 2/h
        assert norms(g, u)["h1_semi"] ** 2 == pytest.approx(2.0 / g.h)


class TestGridConstruction:
    def test_spacing_conventions(self):
        assert Grid(1.0, 3, DIRICHLET).h == pytest.approx(0.25)
        assert Grid(1.0, 3, NEUMANN).h == pytest.approx(0.5)

    def test_single_node_requires_neumann(self):
        Grid(1.0, 1, NEUMANN)
        with pytest.raises(ValueError):
            Grid(1.0, 1, DIRICHLET)
        with pytest.raises(ValueError):
            Grid(1.0, 2, NEUMANN)

    def test_weights_sum_to_length(self):
        for bc in (DIRICHLET, NEUMANN):
            g = Grid(2.5, 19, bc)
            total = float(np.sum(g.mass_weights))
            if bc == NEUMANN:
                assert total == pytest.approx(2.5)
            else:
                # interior cells only: (n/(n+1)) * L
                assert total == pytest.approx(2.5 * 19 / 20)

    def test_edge_inner_matches_operator(self):
        rng = np.random.default_rng(3)
        for bc in (DIRICHLET, NEUMANN):
            g = Grid(1.0, 12, bc)
            u, v = rng.standard_normal(12), rng.standard_normal(12)
            assert edge_inner(g, u, v) == pytest.approx(inner(g, apply_A(g, u), v), rel=1e-11)


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("n", [3, 17, 65, 256])
def test_edge_inner_batch_rows_equal_field_calls_bitwise(bc, n):
    """Each row of a batch call has the bits of the call on that row alone."""
    g = Grid(1.0, n, bc)
    rng = np.random.default_rng(n)
    A, B = rng.standard_normal((2, 50, n))
    s = rng.standard_normal(n)
    cases = [(A, B, B), (A, s, [s] * 50), (A, A, A)]
    for U, V, rows in cases:
        ref = np.array([edge_inner(g, u, v) for u, v in zip(U, rows)])
        assert edge_inner(g, U, V).tobytes() == ref.tobytes()
