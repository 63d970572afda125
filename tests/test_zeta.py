"""Evaluator tests against independent summation and quadrature oracles."""

import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_rkhs.errors import ConvergenceError, DomainError, PoleError
from dirichlet_rkhs.zeta import (_BERNOULLI, EULER_GAMMA, EvalConfig, WeightedZetaParams,
                                 _em_truncation_bound, _shared_length,
                                 _upper_gamma_array, _weighted_trunc_bound,
                                 eval_gamma, eval_upper_gamma, eval_weighted_remainder,
                                 eval_weighted_zeta, eval_weighted_zeta_outer, eval_zeta,
                                 eval_zeta_outer, eval_zeta_remainder)

CFG = EvalConfig()


def _bits(v) -> bytes:
    return np.complex128(v).tobytes()


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


@pytest.mark.parametrize("alpha", [-20.0, -10.0])
def test_weighted_cancellation_is_refused(alpha):
    # at 2+10i the regular part and the tail reach 2e15 (alpha = -20) and
    # 3e4 (alpha = -10) in modulus while their sum is O(1): the rounding
    # passes tol, and each evaluator says so instead of returning a value
    p = WeightedZetaParams(alpha)
    with pytest.raises(ConvergenceError, match="cancels"):
        eval_weighted_zeta(p, complex(2.0, 10.0))
    with pytest.raises(ConvergenceError, match="cancels"):
        eval_weighted_remainder(p, complex(2.0, 10.0))
    with pytest.raises(ConvergenceError, match="cancels"):
        eval_weighted_zeta_outer(p, [complex(1.0, 10.0)], [complex(1.0, 0.0)])


def test_weighted_sum_below_the_refusal_boundary():
    # at 2+10i the error grows from 1.9e-12 at alpha = -8 through 1.2e-11 at
    # -9 to 2.5e-10 at -10 (refused above); alpha = -8 is returned, within
    # tol of sum n^-(2+10i) log(n+1)^8 by mpmath at 40 digits (n <= 12
    # directly, the rest by Hurwitz zeta derivatives at 13 after expanding
    # log(n+1) = log n + log(1 + 1/n))
    v = eval_weighted_zeta(WeightedZetaParams(-8.0), complex(2.0, 10.0))
    assert abs(v - complex(0.3541221564193257, 0.1699526187815845)) < 1e-10


@pytest.mark.parametrize("alpha", [-10.0, -2.0, -1.0, -0.5, 0.5])
def test_pole_column_is_not_refused(alpha):
    # the asymptotics column s = 1 + 10^-k: the tail alone is the large part
    # (2e15 at alpha = -2, k = 5), so nothing cancels and the check passes;
    # at alpha = -10 the sum over n < N reaches 1.2e9 and the value 3.6e17
    # and up
    z = [1.0 + 10.0 ** (-k) for k in range(1, 6)]
    col = eval_weighted_zeta_outer(WeightedZetaParams(alpha), z, [0j])[:, 0]
    assert np.all(np.isfinite(col))
    assert np.all(np.diff(col.real) > 0)


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
        (3, em_budget, lambda zz: _em_truncation_bound(zz, CFG.em_order)),
        (2, w_budget, lambda zz: _weighted_trunc_bound(-1.0, zz, 2)),
        (2, w_budget, lambda zz: _weighted_trunc_bound(0.5, zz, 2)),
    )
    for div, budget, bound in cases:
        one_point = []
        for zk in z.ravel():
            n = max(16, int(abs(zk.imag) / div) + 1)
            while not bound(complex(zk))(n) <= budget:
                n *= 2
            assert _shared_length(np.array([zk]), div, bound, CFG, budget, str) == n
            one_point.append(n)
        n = _shared_length(z, div, bound, CFG, budget, str)
        assert n == max(one_point)
        assert np.all(bound(z)(n) <= budget)


def _reference_em_bound(s, n, order):
    # the truncation bounds as written before their z-only factors were
    # hoisted out of the doubling loop, kept as the reference
    sigma = s.real
    q = order
    lead = abs(_BERNOULLI[q + 1]) / math.factorial(2 * q + 2)
    prod = 1.0
    for j in range(2 * q + 1):
        prod *= abs(s + j)
    scale = abs(s + 2 * q + 1) / (sigma + 2 * q + 1)
    return lead * prod * n ** (-(sigma + 2 * q + 1)) * np.maximum(1.0, scale)


def _reference_weighted_bound(alpha, s, n, order):
    sigma = s.real
    k = 2 * order + 1
    lg_lo, lg_hi = np.log(n), np.log(n + 1.0)
    lfac = lg_hi**-alpha if alpha <= 0 else lg_lo**-alpha
    prod = 1.0
    for j in range(k):
        prod *= abs(s) + j + abs(alpha)
    coeff = abs(_BERNOULLI[order + 1]) / math.factorial(2 * order + 2)
    return 2.0 * coeff * prod * n ** (-(sigma + k)) * lfac


def _certify_lattice(rng, n):
    # the jittered lattices of the benchmark's sequence_certify workload:
    # 4 sigma columns from 0.7, n/4 heights in [-38, 38]
    rows = n // 4
    pts = []
    for k in range(n):
        i, j = divmod(k, 4)
        pts.append(complex(0.7 + 0.35 * j + 0.035 * rng.random(),
                           -38.0 + 76.0 * (i + 0.5) / rows + 0.76 * (rng.random() - 0.5)))
    return np.array(pts)


def test_hoisted_bounds_keep_every_length():
    # the bounds with their z-only factors computed once equal the reference
    # bit for bit at every length the doubling can visit, so _shared_length
    # picks the same N as before on the sequence_certify lattices and on the
    # points of the test above
    rng = np.random.default_rng(5)
    points = [rng.uniform(1.0005, 6.0, (7, 5)) + 1j * rng.uniform(-300.0, 300.0, (7, 5))]
    lattice_rng = np.random.default_rng(701)
    for size in (16, 32, 48):
        s = _certify_lattice(lattice_rng, size)
        points.append(np.add.outer(s, np.conj(s)))
    em_budget, w_budget = 0.5 * CFG.tol, CFG.tol / 3.0
    cases = [(3, em_budget, lambda zz: _em_truncation_bound(zz, CFG.em_order),
              lambda zz, nn: _reference_em_bound(zz, nn, CFG.em_order))]
    for alpha in (-1.0, 0.5, 1.0):
        cases.append((2, w_budget,
                      lambda zz, a=alpha: _weighted_trunc_bound(a, zz, 2),
                      lambda zz, nn, a=alpha: _reference_weighted_bound(a, zz, nn, 2)))
    lengths = 2 ** np.arange(4, 21)
    for z in points:
        for div, budget, bound, reference in cases:
            for n in lengths:
                full = np.full(z.shape, n)
                assert np.array_equal(bound(z)(full), reference(z, full))
            # each entry doubles from its start until it meets the budget,
            # then the largest length doubles until every entry meets it
            each = np.maximum(16, (np.abs(z.imag) / div).astype(np.int64) + 1)
            while not np.all(met := reference(z, each) <= budget):
                each = np.where(met, each, 2 * each)
            want = each.max()
            while not np.all(reference(z, np.full(z.shape, want)) <= budget):
                want *= 2
            assert _shared_length(z, div, bound, CFG, budget, str) == want


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
    # the scalar entry points are one-point calls, bit for bit: the series
    # and the incomplete gamma (a = 1 - alpha, the order of the weighted
    # tail), each at points near 1 resp. 0 and far, so both tail branches run
    a = 1.0 if alpha is None else 1.0 - alpha
    for zk in (1.1 + 0.1j, 2.0 + 5.0j, 4.43 + 110.7j):
        if alpha is None:
            single, outer = eval_zeta(zk), eval_zeta_outer([zk], [0j])[0, 0]
        else:
            single, outer = eval_weighted_zeta(p, zk), eval_weighted_zeta_outer(p, [zk], [0j])[0, 0]
        assert _bits(single) == _bits(outer), zk
    for zk in (0.3 + 0.2j, 1.1 + 0.1j, 2.0 + 5.0j, 4.43 + 110.7j):
        assert _bits(eval_upper_gamma(a, zk)) == _bits(_upper_gamma_array(a, np.array([zk]))[0]), zk


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.0])
def test_upper_gamma_array_matches_mpmath(a):
    # both branches of each case: the series near 0 and the continued fraction
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(int(10 * a))
    z = (10.0 ** rng.uniform(-3, 3, 300)) * np.exp(1j * rng.uniform(-1.5, 1.5, 300))
    got = _upper_gamma_array(a, z.reshape(20, 15)).ravel()
    with mpmath.workdps(30):
        for zk, g in zip(z, got):
            want = complex(mpmath.gammainc(a, mpmath.mpc(zk.real, zk.imag)))
            assert abs(g - want) <= 1e-13 * max(1.0, abs(want)), zk


@pytest.mark.parametrize("a, z", [(-math.inf, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                                  (-1e9, 1.0), (-500.5, 2.0), (0.5, complex(math.inf, 0.0)),
                                  (0.5, complex(1.0, math.nan)), (0.5, -1.0)])
def test_upper_gamma_rejects_bad_input_before_work(a, z, monkeypatch):
    # non-finite input, more recurrence steps than the cap, or Re z <= 0
    # raise DomainError at once: no evaluation, no numpy warning
    from dirichlet_rkhs import zeta

    def evaluated(*args):
        raise AssertionError("evaluated")
    monkeypatch.setattr(zeta, "_upper_gamma_array", evaluated)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            eval_upper_gamma(a, z)


@pytest.mark.parametrize("a, z", [(170.0, 200.0), (170.0, 150.0)])
def test_upper_gamma_past_power_overflow_matches_mpmath(a, z):
    # z^a alone overflows on both branches, the continued fraction at 200 and
    # the lower series at 150, though z^a e^-z and the value are doubles
    mpmath = pytest.importorskip("mpmath")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eval_upper_gamma(a, z)
    with mpmath.workdps(30):
        want = complex(mpmath.gammainc(a, z))
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("a, z", [(-400.5, 0.01), (150.0, complex(0.01, 1000.0)),
                                  (200.0, 150.0)])
def test_upper_gamma_overflow_is_a_domain_error(a, z):
    # the value itself is past the double range: z^a e^-z in the recurrence
    # or the continued fraction, or Gamma(a) on the series branch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            eval_upper_gamma(a, z)


@pytest.mark.parametrize("alpha", [0.5, -1.0, 1.0])
def test_shift_correction_error_within_its_bound(alpha, monkeypatch):
    # the Gauss-Legendre bound that sizes the shift-correction grid holds:
    # on grids from far too coarse to fine, the error against a grid 8 times
    # finer stays below the bound summed over the blocks, plus a rounding
    # floor of 64 eps times the values; tol = 1e-30 makes the stopping rule
    # add every block that counts
    from dirichlet_rkhs import zeta
    rng = np.random.default_rng(23)
    s = rng.uniform(0.7, 1.5, 4) + 1j * rng.uniform(-38.0, 38.0, 4)
    z = np.add.outer(s, np.conj(s))
    n = 64
    sigma, omega = float(np.min(z.real)), float(np.max(np.abs(z.imag)))
    block = 5.0 / min(sigma, 2.0)

    def on_grid(panels):
        monkeypatch.setattr(zeta, "_panel_count", lambda *args: panels)
        return zeta._shift_correction(alpha, s, s, z, n, 1e-30)

    errors = []
    for panels in (8, 12, 16, 24, 32):
        bound = zeta._quadrature_bound(alpha, n, sigma, omega, block, [panels])[0]
        fine = on_grid(8 * panels)
        err = float(np.max(np.abs(on_grid(panels) - fine)))
        floor = 64.0 * np.finfo(np.float64).eps * float(np.max(np.abs(fine)))
        assert err <= bound + floor, (panels, err, bound)
        errors.append(err)
    assert max(errors) > 1e-13
