"""Constraint graphs: potentials, resolvents, Yosida, Moreau."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedwave.errors import NonConvergence
from dampedwave.graphs import (
    GraphKind,
    MonotoneGraph,
    RegularizedPotential,
    _log_resolvent,
    eval_j,
    family_beta,
    family_beta_and_dbeta,
    family_graph,
    family_j,
    indicator_graph,
    limit_j,
    log_j_conjugate,
    logarithmic_graph,
    moreau,
    resolvent,
    yosida,
    yosida_and_derivative,
)
from tests import oracles
from tests.conftest import transforms

ALL_GRAPHS = [indicator_graph(), logarithmic_graph(), family_graph(0.7, 0.3)]


def bisect_log_resolvent(r, eps, tol=1e-12):
    """Independent plain-bisection oracle for the logarithmic resolvent."""
    lo, hi = -1.0 + 1e-15, 1.0 - 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = mid + eps * (math.log1p(mid) - math.log1p(-mid)) - r
        if f > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestPotential:
    def test_indicator_inside(self):
        assert eval_j(indicator_graph(), 0.5) == 0.0

    def test_indicator_outside(self):
        assert math.isinf(eval_j(indicator_graph(), 1.5))

    def test_logarithmic_zero(self):
        assert eval_j(logarithmic_graph(), 0.0) == 0.0

    def test_logarithmic_boundary_value(self):
        assert eval_j(logarithmic_graph(), 1.0) == pytest.approx(2 * math.log(2))
        assert math.isinf(eval_j(logarithmic_graph(), 1.0 + 1e-12))

    def test_nonnegative_everywhere(self):
        r = np.linspace(-0.999, 0.999, 101)
        for g in ALL_GRAPHS:
            assert np.all(np.asarray(eval_j(g, r)) >= 0.0)

    def test_limit_of_family_is_hard_constraint(self):
        g = family_graph(0.9, 0.1)
        assert limit_j(g, 0.5) == 0.0
        assert math.isinf(limit_j(g, 1.5))


class TestLogConjugate:
    """j*(s) = 2 ln cosh(s/2), the conjugate of the logarithmic potential,
    in its form that does not overflow."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_is_the_cosh_form_wherever_that_is_finite(self, s):
        with np.errstate(over="ignore"):
            naive = 2.0 * float(np.log(np.cosh(s / 2.0)))
        safe = float(log_j_conjugate(s))
        assert math.isfinite(safe)
        if math.isfinite(naive):
            assert safe == pytest.approx(naive, rel=1e-14, abs=2e-15)

    def test_finite_where_cosh_overflows(self):
        with np.errstate(over="ignore"):
            assert np.isinf(np.cosh(5e3))
        assert log_j_conjugate(np.array([1e4, -1e4])).tolist() == [1e4 - 2.0 * math.log(2.0)] * 2

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    def test_fenchel_equality_at_the_derivative(self, x):
        """j(x) + j*(j'(x)) = x j'(x) on (-1, 1): the slope j'(x) = 2 artanh x
        is the point where the conjugate is attained."""
        slope = math.log1p(x) - math.log1p(-x)
        lhs = float(eval_j(logarithmic_graph(), x)) + float(log_j_conjugate(slope))
        assert lhs == pytest.approx(x * slope, rel=1e-14, abs=2e-15)


class TestResolvent:
    def test_indicator_projects(self):
        pot = RegularizedPotential(indicator_graph(), 0.5)
        assert resolvent(pot, 2.0) == 1.0
        assert resolvent(pot, 0.3) == 0.3
        assert resolvent(pot, -2.0) == -1.0

    def test_logarithmic_against_bisection(self):
        pot = RegularizedPotential(logarithmic_graph(), 0.1)
        x = resolvent(pot, 0.5)
        assert x == pytest.approx(bisect_log_resolvent(0.5, 0.1), abs=1e-11)
        # frozen value from the bisection oracle
        assert x == pytest.approx(0.41231948111388356, abs=1e-12)

    def test_logarithmic_vectorized_matches_scalar(self):
        pot = RegularizedPotential(logarithmic_graph(), 0.2)
        rs = np.array([-5.0, -0.3, 0.0, 0.7, 12.0])
        xs = resolvent(pot, rs)
        for r, x in zip(rs, xs):
            assert x == pytest.approx(bisect_log_resolvent(r, 0.2), abs=1e-10)

    def test_family_branch_continuity(self):
        pot = RegularizedPotential(family_graph(0.7, 0.3), 0.05)
        rs = np.linspace(-2, 2, 401)
        xs = oracles.resolvent(pot, rs)
        # resolvent solves x + eps*beta(x) = r exactly
        back = xs + 0.05 * family_beta(0.7, 0.3, xs)
        np.testing.assert_allclose(back, rs, atol=1e-12)

    def test_family_has_no_package_transform(self):
        """The solver uses the family as it stands: the package gives it no
        resolvent, so no Yosida or Moreau transform either."""
        pot = RegularizedPotential(family_graph(0.7, 0.3), 0.05)
        for transform in (resolvent, yosida, yosida_and_derivative, moreau):
            with pytest.raises(ValueError, match="no resolvent for the family graph"):
                transform(pot, 0.5)

    def test_stays_in_domain(self):
        for g in (indicator_graph(), logarithmic_graph()):
            pot = RegularizedPotential(g, 0.25)
            xs = resolvent(pot, np.linspace(-50, 50, 31))
            assert np.all(np.abs(xs) <= 1.0)


class TestYosida:
    def test_indicator_values(self):
        pot = RegularizedPotential(indicator_graph(), 0.5)
        assert yosida(pot, 2.0) == pytest.approx(2.0)
        pot = RegularizedPotential(indicator_graph(), 0.25)
        assert yosida(pot, -1.5) == pytest.approx(-2.0)

    def test_zero_fixed_point_all_kinds(self):
        for g in ALL_GRAPHS:
            for eps in (1.0, 0.1, 0.01):
                assert transforms(g).yosida(RegularizedPotential(g, eps), 0.0) == pytest.approx(0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([0, 1, 2]),
        st.sampled_from([1.0, 0.1, 0.01]),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    def test_monotone_and_lipschitz(self, gi, eps, r, s):
        pot = RegularizedPotential(ALL_GRAPHS[gi], eps)
        yosida = transforms(pot.graph).yosida
        yr, ys = float(yosida(pot, r)), float(yosida(pot, s))
        if r < s:
            assert yr <= ys + 1e-12
        assert abs(yr - ys) <= abs(r - s) / eps + 1e-9


class TestMoreau:
    def test_indicator_examples(self):
        pot = RegularizedPotential(indicator_graph(), 0.5)
        assert moreau(pot, 2.0) == pytest.approx(1.0)
        assert moreau(pot, 0.3) == 0.0
        pot = RegularizedPotential(logarithmic_graph(), 0.1)
        assert moreau(pot, 0.0) == pytest.approx(0.0)

    def test_below_j(self):
        r = np.linspace(-0.99, 0.99, 99)
        for g in ALL_GRAPHS:
            pot = RegularizedPotential(g, 0.1)
            assert np.all(transforms(g).moreau(pot, r) <= np.asarray(eval_j(g, r)) + 1e-12)

    def test_envelope_ordering_in_epsilon(self):
        r = np.linspace(-2.5, 2.5, 83)
        for g in ALL_GRAPHS:
            m_small = transforms(g).moreau(RegularizedPotential(g, 0.05), r)
            m_large = transforms(g).moreau(RegularizedPotential(g, 0.5), r)
            assert np.all(m_large <= m_small + 1e-12)

    def test_derivative_is_yosida(self):
        h = 1e-5
        r = np.linspace(-2.5, 2.5, 41)
        for g in ALL_GRAPHS:
            kink = 0.7 if g.kind == GraphKind.FAMILY else 1.0
            rr = r[np.abs(np.abs(r) - kink) > 0.02]
            for eps in (1.0, 0.1):
                pot, tf = RegularizedPotential(g, eps), transforms(g)
                fd = (tf.moreau(pot, rr + h) - tf.moreau(pot, rr - h)) / (2 * h)
                yo = tf.yosida(pot, rr)
                assert np.max(np.abs(fd - yo) / (1.0 + np.abs(yo))) < 1e-6

    def test_brute_force_small_sample(self, rng):
        # dense-grid minimization oracle at reduced scale (full in acceptance)
        pot = RegularizedPotential(indicator_graph(), 0.1)
        for r in rng.uniform(-3, 3, 25):
            s = np.linspace(-1, 1, 200001)
            brute = np.min((r - s) ** 2 / 0.2)
            assert moreau(pot, r) == pytest.approx(brute, abs=1e-8)


class TestFamily:
    def test_beta_values(self):
        assert family_beta(0.9, 0.1, 1.0) == pytest.approx(10.0)
        assert family_beta(0.9, 0.1, 0.5) == 0.0
        assert family_beta(0.9, 0.1, -1.0) == pytest.approx(-10.0)

    def test_j_peak_value(self):
        # r_threshold = 1 - eps*pi makes the wall potential pi^2/2
        for eps in (0.1, 0.01, 0.001):
            rt = 1.0 - eps * math.pi
            assert family_j(rt, eps, 1.0) == pytest.approx(math.pi ** 2 / 2, rel=1e-12)

    def test_j_vanishes_when_threshold_is_one(self):
        assert family_j(1.0, 0.123, 1.0) == 0.0

    def test_j_dead_zone(self):
        assert family_j(0.9, 0.1, 0.5) == 0.0

    def test_j_is_antiderivative_of_beta(self):
        rt, ep = 0.6, 0.2
        rs = np.linspace(-2, 2, 101)
        h = 1e-6
        fd = (family_j(rt, ep, rs + h) - family_j(rt, ep, rs - h)) / (2 * h)
        assert np.max(np.abs(fd - family_beta(rt, ep, rs))) < 1e-5

    def test_dbeta_active_side(self):
        assert family_beta_and_dbeta(0.7, 0.5, 0.7)[1] == pytest.approx(4.0)
        assert family_beta_and_dbeta(0.7, 0.5, 0.69)[1] == 0.0


class TestSignStructure:
    """Empirical constants for c1*|beta(r)| <= beta(r)*r + c2 per kind."""

    def test_product_nonnegative(self):
        rs = np.linspace(-4, 4, 401)
        for g in ALL_GRAPHS:
            for eps in (1.0, 0.1, 0.01):
                b = np.asarray(transforms(g).yosida(RegularizedPotential(g, eps), rs))
                assert np.all(b * rs >= -1e-12)

    def test_indicator_constants_c1_1_c2_0(self):
        # for the hard constraint |beta| <= beta*r wherever beta != 0
        for eps in (1.0, 0.1, 0.01):
            pot = RegularizedPotential(indicator_graph(), eps)
            rs = np.linspace(-4, 4, 801)
            b = np.asarray(yosida(pot, rs))
            assert np.all(np.abs(b) <= b * rs + 1e-12)

    def test_recorded_constants_hold_across_eps(self):
        # c1 = 1/2 and c2 = j(1/2) work uniformly: beta_eps(r)(r - s) >=
        # j_eps(r) - j_eps(s) >= -j(s) with s = sign(beta)/2 in the dead zone
        rs = np.linspace(-4, 4, 801)
        for g in ALL_GRAPHS:
            c1 = 0.5
            c2 = float(eval_j(g, 0.5)) + 1e-9
            for eps in (1.0, 0.1, 0.01):
                b = np.asarray(transforms(g).yosida(RegularizedPotential(g, eps), rs))
                assert np.all(c1 * np.abs(b) <= b * rs + c2 + 1e-9)


class TestDerivatives:
    def test_yosida_derivative_indicator(self):
        pot = RegularizedPotential(indicator_graph(), 0.2)
        assert yosida_and_derivative(pot, 0.5)[1] == 0.0
        assert yosida_and_derivative(pot, 1.5)[1] == pytest.approx(5.0)
        assert yosida_and_derivative(pot, 1.0)[1] == pytest.approx(5.0)  # active side

    def test_yosida_derivative_matches_fd(self):
        h = 1e-6
        for g in ALL_GRAPHS:
            pot, tf = RegularizedPotential(g, 0.1), transforms(g)
            for r in (-1.7, -0.2, 0.4, 1.9):
                fd = (tf.yosida(pot, r + h) - tf.yosida(pot, r - h)) / (2 * h)
                assert tf.yosida_and_derivative(pot, r)[1] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    @pytest.mark.parametrize("graph", ALL_GRAPHS, ids=[g.kind.value for g in ALL_GRAPHS])
    def test_float_input_gives_two_floats_with_the_array_bits(self, graph):
        pot, tf = RegularizedPotential(graph, 1e-3), transforms(graph)
        pair = tf.yosida_and_derivative(pot, 1.5)
        assert [type(v) for v in pair] == [float, float]
        y, dy = tf.yosida_and_derivative(pot, np.array([1.5]))
        assert [v.hex() for v in pair] == [float(y[0]).hex(), float(dy[0]).hex()]
        assert pair[1] > 0.0  # r = 1.5 is on the active side for every kind


def test_bad_graph_parameters_rejected():
    with pytest.raises(ValueError):
        MonotoneGraph(GraphKind.FAMILY, r_threshold=0.0, eps_param=0.1)
    with pytest.raises(ValueError):
        MonotoneGraph(GraphKind.FAMILY, r_threshold=0.5, eps_param=-1.0)
    with pytest.raises(ValueError):
        RegularizedPotential(indicator_graph(), 0.0)


class TestLogResolventPerElement:
    def test_root_within_one_ulp_of_one(self):
        """At eps = 1e-7, f(nextafter(1, 0)) < 0 for r = 1.04: the root lies
        between the largest float below 1 and 1, where |f|/f' <= tol never
        holds; the bracket test accepts it."""
        top = np.nextafter(1.0, 0.0)
        assert top + 1e-7 * (math.log1p(top) - math.log1p(-top)) - 1.04 < 0.0
        x, d = _log_resolvent(np.array([1.04, -1.04]), 1e-7)
        np.testing.assert_array_equal(np.sign(x), [1.0, -1.0])
        assert np.all(1.0 - np.abs(x) <= 1e-12)
        assert np.all(np.isfinite(d) & (d > 0.0))

    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5, 1e-3, 0.1, 1.0, 10.0])
    def test_root_is_within_tol_of_x_and_bits_are_per_element(self, eps):
        near = np.logspace(-16, -1, 30)
        r = np.concatenate([
            np.random.default_rng(3).uniform(-3.0, 3.0, 300),
            1.0 - near, 1.0 + near, -1.0 + near, -1.0 - near, [0.0, 1.0, -1.0],
        ])
        x, d = _log_resolvent(r, eps)

        def f(z):  # -inf/+inf beyond the domain
            inside = np.abs(z) < 1.0
            zi = np.where(inside, z, 0.0)
            val = zi + eps * (np.log1p(zi) - np.log1p(-zi)) - r
            return np.where(inside, val, np.sign(z) * np.inf)

        # one ulp of 1 beyond tol: the bracket starts at the floats next to +-1
        assert np.all(f(x - 1.2e-12) <= 0.0) and np.all(f(x + 1.2e-12) >= 0.0)
        alone = np.array([np.concatenate(_log_resolvent(r[i : i + 1], eps)) for i in range(len(r))])
        np.testing.assert_array_equal(alone.view(np.int64), np.stack([x, d], axis=1).view(np.int64))

    def test_nan_element_is_frozen_at_its_first_test(self, monkeypatch):
        """A NaN element stays NaN and costs no iteration: the other elements
        make the same arctanh calls, with the same bits, as they do alone."""
        real, calls = np.arctanh, []

        def counting(x):
            calls.append(len(x))
            return real(x)

        monkeypatch.setattr(np, "arctanh", counting)
        x, d = _log_resolvent(np.array([np.nan, 0.5]), 1e-3)
        with_nan = calls.copy()
        calls.clear()
        alone = _log_resolvent(np.array([0.5]), 1e-3)
        assert np.isnan(x[0]) and np.isnan(d[0])
        assert len(with_nan) == len(calls) and with_nan[1:] == calls[1:]
        assert x[1:].tobytes() == alone[0].tobytes() and d[1:].tobytes() == alone[1].tobytes()

    def test_derivative_is_beta_prime_at_the_root(self):
        r = np.linspace(-0.9, 0.9, 19)
        x, d = _log_resolvent(r, 0.01)
        np.testing.assert_allclose(d, 1.0 / (1.0 + x) + 1.0 / (1.0 - x), rtol=1e-15)


def test_nonconvergence_is_raised_for_absurd_tolerance():
    # r = 0.9: two iterations from the start leave an x-error of about 3e-10
    with pytest.raises(NonConvergence):
        _log_resolvent(np.array([0.9]), 0.1, tol=1e-30, max_iter=2)
