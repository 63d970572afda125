"""Evaluator tests against independent summation and quadrature oracles."""

import cmath
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_rkhs.errors import DomainError, PoleError
from dirichlet_rkhs.zeta import (EULER_GAMMA, EvalConfig, WeightedZetaParams,
                                 _em_truncation_bound, _shared_length,
                                 _upper_gamma_array, _weighted_trunc_bound,
                                 eval_gamma, eval_upper_gamma, eval_weighted_remainder,
                                 eval_weighted_zeta, eval_weighted_zeta_outer, eval_zeta,
                                 eval_zeta_outer, eval_zeta_remainder)

CFG = EvalConfig()


def direct_zeta(s: complex, n: int = 1_000_000) -> complex:
    """Plain partial sum plus integral-and-midpoint tail; error ~ |s| n^-Re(s)-1."""
    k = np.arange(1, n + 1, dtype=np.float64)
    head = complex(np.sum(k ** (-complex(s))))
    tail = n ** (1.0 - s) / (s - 1.0) - 0.5 * n ** (-complex(s))
    return head + tail


def test_zeta_classical_points():
    assert abs(eval_zeta(2.0) - math.pi ** 2 / 6.0) < 1e-12
    assert abs(eval_zeta(4.0) - math.pi ** 4 / 90.0) < 1e-12
    assert abs(eval_zeta(3.0) - 1.2020569031595942854) < 1e-12


def test_zeta_matches_direct_sum_grid():
    rng = np.random.default_rng(42)
    for _ in range(12):
        s = complex(1.2 + 1.8 * rng.random(), 40.0 * (rng.random() - 0.5))
        assert abs(eval_zeta(s) - direct_zeta(s)) < 1e-8


def test_zeta_rejects_left_halfplane_and_pole():
    with pytest.raises(DomainError):
        eval_zeta(-0.5)
    with pytest.raises(PoleError):
        eval_zeta(1.0)


def test_remainder_at_pole_is_euler_gamma():
    assert abs(eval_zeta_remainder(1.0) - EULER_GAMMA) < 1e-12


def test_remainder_euler_gamma_by_richardson():
    # gamma = lim (zeta(1+eps) - 1/eps); Richardson-extrapolate the direct sums
    eps = 1e-3
    f1 = direct_zeta(1.0 + eps) - 1.0 / eps
    f2 = direct_zeta(1.0 + eps / 2.0) - 2.0 / eps
    extrap = 2.0 * f2 - f1
    assert abs(eval_zeta_remainder(1.0) - extrap) < 1e-5


def test_remainder_consistent_with_zeta_away_from_pole():
    rng = np.random.default_rng(3)
    for _ in range(12):
        z = complex(0.7 + 2.0 * rng.random(), 8.0 * (rng.random() - 0.5))
        if abs(z - 1.0) < 0.3:
            continue
        lhs = eval_zeta_remainder(z)
        rhs = eval_zeta(z) - 1.0 / (z - 1.0)
        assert abs(lhs - rhs) < 1e-10


def test_remainder_continuous_through_pole():
    # the pole is removed: values at 1 +- 1e-7 straddle the value at 1
    left = eval_zeta_remainder(1.0 - 1e-7)
    right = eval_zeta_remainder(1.0 + 1e-7)
    center = eval_zeta_remainder(1.0)
    assert abs(left - center) < 1e-6
    assert abs(right - center) < 1e-6


@given(st.floats(1.05, 6.0), st.floats(-30.0, 30.0))
def test_zeta_conjugate_symmetry(sigma, t):
    s = complex(sigma, t)
    assert abs(eval_zeta(s.conjugate()) - eval_zeta(s).conjugate()) < 1e-12


@given(st.floats(1.05, 5.0), st.floats(0.05, 2.0))
def test_zeta_decreasing_on_real_axis(s0, step):
    a = eval_zeta(s0).real
    b = eval_zeta(s0 + step).real
    assert a > b > 1.0


def test_em_order_invariance():
    s = complex(1.5, 12.0)
    v4 = eval_zeta(s, EvalConfig(em_order=4))
    v8 = eval_zeta(s, EvalConfig(em_order=8))
    assert abs(v4 - v8) < 1e-9


def test_gamma_against_math_library():
    for x in (0.5, 1.0, 1.5, 2.0, 7.3, 20.0, 101.5, 171.0):
        assert abs(eval_gamma(x) - math.gamma(x)) <= 1e-12 * math.gamma(x)
    with pytest.raises(DomainError):
        eval_gamma(-1.0)
    with pytest.raises(DomainError):
        eval_gamma(172.0)
    with pytest.raises(DomainError):
        eval_gamma(1e-310)  # gamma(x) ~ 1/x overflows


def test_upper_gamma_against_scipy():
    for a in (0.25, 1.0, 2.5, 5.0):
        for x in (0.1, 1.0, 3.0, 10.0):
            want = scipy.special.gammaincc(a, x) * math.gamma(a)
            got = eval_upper_gamma(a, complex(x))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_upper_gamma_negative_order_by_quadrature():
    # recurrence-based continuation checked against direct numerical integration
    for a in (-0.5, -1.5):
        for x in (0.5, 2.0):
            want, err = scipy.integrate.quad(
                lambda t, a=a: t ** (a - 1.0) * math.exp(-t), x, np.inf,
                epsabs=1e-13, epsrel=1e-13)
            got = eval_upper_gamma(a, complex(x))
            assert err < 1e-10
            assert abs(got - want) < 1e-10


def test_upper_gamma_complex_argument_e1():
    # order zero reduces to the exponential integral E1
    for z in (complex(1.0, 2.0), complex(0.5, -3.0), complex(4.0, 0.0)):
        want = scipy.special.exp1(z)
        got = eval_upper_gamma(0.0, z)
        assert abs(got - want) < 1e-12


def test_weighted_alpha_zero_reduces_to_zeta():
    p = WeightedZetaParams(0.0)
    for s in (1.3, 2.0, complex(1.5, 7.0)):
        assert abs(eval_weighted_zeta(p, s) - eval_zeta(s)) < 1e-9


def test_weighted_matches_direct_sum():
    # alpha = -1 at s = 2: sum log(n+1)/n^2 with closed-form integral tail
    n = 2_000_000
    k = np.arange(1, n + 1, dtype=np.float64)
    head = float(np.sum(np.log(k + 1.0) / k ** 2))
    tail = math.log(n + 1.0) / n + math.log(1.0 + 1.0 / n)
    endpoint = -0.5 * math.log(n + 1.0) / n ** 2
    oracle = head + tail + endpoint
    got = eval_weighted_zeta(WeightedZetaParams(-1.0), 2.0)
    assert abs(got - oracle) < 1e-9


def test_weighted_rejects_bad_domain():
    with pytest.raises(DomainError):
        WeightedZetaParams(1.5)
    with pytest.raises(DomainError):
        eval_weighted_zeta(WeightedZetaParams(-1.0), 0.9)


@pytest.mark.parametrize("height", [math.inf, math.nan])
def test_non_finite_height_is_domain_error(height):
    # refused before the series length is derived from |Im s|
    with pytest.raises(DomainError):
        eval_zeta(complex(2.0, height))
    with pytest.raises(DomainError):
        eval_weighted_zeta(WeightedZetaParams(0.5), complex(2.0, height))


@given(st.floats(1.1, 4.0), st.floats(-20.0, 20.0),
       st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0]))
def test_weighted_conjugate_symmetry(sigma, t, alpha):
    p = WeightedZetaParams(alpha)
    s = complex(sigma, t)
    a = eval_weighted_zeta(p, s.conjugate())
    b = eval_weighted_zeta(p, s).conjugate()
    assert abs(a - b) < 1e-9 * max(1.0, abs(b))


def test_weighted_remainder_consistency():
    # both routes to the remainder agree where direct subtraction is stable
    for alpha in (-2.0, -1.0, -0.5, 0.5, 1.0):
        p = WeightedZetaParams(alpha)
        for z in (1.5, 2.5, complex(1.8, 3.0)):
            rem = eval_weighted_remainder(p, z)
            if alpha == 1.0:
                main = cmath.log(1.0 / (z - 1.0))
            else:
                main = eval_gamma(1.0 - alpha) * (z - 1.0) ** complex(alpha - 1.0)
            direct = eval_weighted_zeta(p, z) - main
            assert abs(rem - direct) < 1e-8


def test_weighted_remainder_bounded_near_pole():
    # the remainder stays O(1) as s -> 1+ instead of following the blowup
    for alpha in (-1.0, 0.5):
        p = WeightedZetaParams(alpha)
        vals = [abs(eval_weighted_remainder(p, 1.0 + 10.0 ** (-k))) for k in (1, 2, 3)]
        assert max(vals) < 20.0 * max(min(vals), 1e-3)


def test_config_validation():
    with pytest.raises(DomainError):
        EvalConfig(em_order=0)
    with pytest.raises(DomainError):
        EvalConfig(tol=-1.0)


def test_shared_length_is_the_largest_scalar_length():
    # the one N of an array of points is the largest length that a one-point
    # call picks for any of them, and every point's bound holds there; a
    # one-point call picks what plain doubling from the start length picks
    rng = np.random.default_rng(5)
    z = rng.uniform(1.0005, 6.0, (7, 5)) + 1j * rng.uniform(-300.0, 300.0, (7, 5))
    em_budget, w_budget = 0.5 * CFG.tol, CFG.tol / 3.0
    cases = (
        (3, em_budget, lambda zz, nn: _em_truncation_bound(zz, nn, CFG.em_order)),
        (2, w_budget, lambda zz, nn: _weighted_trunc_bound(-1.0, zz, nn, 2)),
        (2, w_budget, lambda zz, nn: _weighted_trunc_bound(0.5, zz, nn, 2)),
    )
    for div, budget, bound in cases:
        one_point = []
        for zk in z.ravel():
            n = max(16, int(abs(zk.imag) / div) + 1)
            while not bound(complex(zk), n) <= budget:
                n *= 2
            assert _shared_length(np.array([zk]), div, bound, CFG, budget, str) == n
            one_point.append(n)
        n = _shared_length(z, div, bound, CFG, budget, str)
        assert n == max(one_point)
        assert np.all(bound(z, n) <= budget)


@pytest.mark.parametrize("alpha", [None, -1.0, 0.5, 1.0])
def test_point_list_and_matrix_match_one_point_calls(alpha):
    # the three forms of one series evaluator: each value within tol of the
    # true one, so within 2 tol of each other; a point list is the n x 1
    # outer form at w = 0, and an empty list is empty
    rng = np.random.default_rng(17)
    s = rng.uniform(0.6, 2.0, 5) + 1j * rng.uniform(-30.0, 30.0, 5)
    w = rng.uniform(0.6, 2.0, 4) + 1j * rng.uniform(-30.0, 30.0, 4)
    z = np.add.outer(s, np.conj(w))
    if alpha is None:
        one = [eval_zeta(complex(zk)) for zk in z.ravel()]
        points, matrix = eval_zeta_outer(z.ravel(), [0j])[:, 0], eval_zeta_outer(s, w)
        empty, empty_rows = eval_zeta_outer([], [0j])[:, 0], eval_zeta_outer([], w)
    else:
        p = WeightedZetaParams(alpha)
        one = [eval_weighted_zeta(p, complex(zk)) for zk in z.ravel()]
        points = eval_weighted_zeta_outer(p, z.ravel(), [0j])[:, 0]
        matrix = eval_weighted_zeta_outer(p, s, w)
        empty = eval_weighted_zeta_outer(p, [], [0j])[:, 0]
        empty_rows = eval_weighted_zeta_outer(p, [], w)
    assert np.max(np.abs(points - one)) <= 2.0 * CFG.tol
    assert np.max(np.abs(matrix.ravel() - one)) <= 2.0 * CFG.tol
    assert empty.shape == (0,) and empty_rows.shape == (0, len(w))


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.0])
def test_upper_gamma_array_matches_scalar(a):
    # both branches of each case: the series near 0 and the continued fraction
    rng = np.random.default_rng(int(10 * a))
    z = (10.0 ** rng.uniform(-3, 3, 300)) * np.exp(1j * rng.uniform(-1.5, 1.5, 300))
    got = _upper_gamma_array(a, z.reshape(20, 15)).ravel()
    for zk, g in zip(z, got):
        want = eval_upper_gamma(a, complex(zk))
        assert abs(g - want) <= 1e-13 * max(1.0, abs(want)), zk
