"""Space descriptors, reproducing kernels, and half-plane geometry."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_rkhs.errors import ConvergenceError, DomainError, NumericalError
from dirichlet_rkhs.gram import gram_matrix
from dirichlet_rkhs.spaces import (BERGMAN_DIRICHLET, HARDY_DIRICHLET,
                                   HARDY_HALF_PLANE, WEIGHTED_DIRICHLET,
                                   DirichletPolynomial, HalfPlanePoint,
                                   PointSequence, SpaceId, kernel_matrix,
                                   kernel_norm, kernel_value,
                                   pseudohyperbolic_distance)
from dirichlet_rkhs.zeta import (EvalConfig, WeightedZetaParams,
                                 eval_weighted_remainder, eval_zeta,
                                 eval_zeta_remainder)

H = SpaceId(HARDY_DIRICHLET)
H2 = SpaceId(HARDY_HALF_PLANE)

_HERMITIAN_SPACES = (H, SpaceId(WEIGHTED_DIRICHLET, -1.0),
                     SpaceId(WEIGHTED_DIRICHLET, 0.5), H2,
                     SpaceId(BERGMAN_DIRICHLET, -1.0),
                     SpaceId(BERGMAN_DIRICHLET, 0.5))


def _random_point(rng, lo=0.6, hi=3.0, tmax=5.0) -> HalfPlanePoint:
    return HalfPlanePoint(rng.uniform(lo, hi), rng.uniform(-tmax, tmax))


def test_point_validation():
    with pytest.raises(DomainError):
        HalfPlanePoint(0.5, 0.0)
    for sigma, t in ((math.inf, 0.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan)):
        with pytest.raises(DomainError):
            HalfPlanePoint(sigma, t)
    p = HalfPlanePoint(0.75, -2.0)
    assert p.as_complex == complex(0.75, -2.0)


def test_space_validation():
    with pytest.raises(DomainError):
        SpaceId(WEIGHTED_DIRICHLET, 1.5)
    for alpha in (-math.inf, math.nan):
        with pytest.raises(DomainError):
            SpaceId(WEIGHTED_DIRICHLET, alpha)
        with pytest.raises(DomainError):
            SpaceId(BERGMAN_DIRICHLET, alpha)
    with pytest.raises(DomainError):
        SpaceId(BERGMAN_DIRICHLET, 0.0)
    with pytest.raises(DomainError):
        SpaceId(BERGMAN_DIRICHLET)
    with pytest.raises(DomainError):
        SpaceId("NoSuchFamily")
    assert SpaceId(HARDY_DIRICHLET).alpha is None


def test_sequence_rejects_near_duplicates():
    a = HalfPlanePoint(1.0, 0.0)
    b = HalfPlanePoint(1.0, 5e-13)
    with pytest.raises(DomainError):
        PointSequence((a, b))
    with pytest.raises(DomainError):
        PointSequence(())


def test_sequence_translation():
    seq = PointSequence((HalfPlanePoint(1.0, 0.5), HalfPlanePoint(0.8, -1.0)))
    shifted = seq.translated(3.0)
    assert shifted.points[0].t == 3.5
    assert shifted.points[1].sigma == 0.8


def test_hardy_kernel_is_zeta_of_sum():
    w = HalfPlanePoint(1.0, 2.0)
    s = HalfPlanePoint(1.5, -1.0)
    z = s.as_complex + w.as_complex.conjugate()
    assert abs(kernel_value(H, w, s) - eval_zeta(z)) < 1e-12


def test_halfplane_kernel_formula():
    rng = np.random.default_rng(1)
    for _ in range(10):
        w, s = _random_point(rng), _random_point(rng)
        z = s.as_complex + w.as_complex.conjugate()
        assert kernel_value(H2, w, s) == 1.0 / (z - 1.0)


def test_bergman_scale_constants():
    # alpha = -1: prefactor 1; alpha = 0.5: prefactor sqrt(2)
    w = s = HalfPlanePoint(1.0, 0.0)
    v1 = kernel_value(SpaceId(BERGMAN_DIRICHLET, -1.0), w, s)
    assert abs(v1 - 1.0 * (2.0 - 1.0) ** (-2.0)) < 1e-14
    v2 = kernel_value(SpaceId(BERGMAN_DIRICHLET, 0.5), w, s)
    assert abs(v2 - math.sqrt(2.0) * (2.0 - 1.0) ** (-0.5)) < 1e-14


def test_kernel_hermitian_symmetry():
    rng = np.random.default_rng(7)
    for space in _HERMITIAN_SPACES:
        for _ in range(8):
            w, s = _random_point(rng), _random_point(rng)
            a = kernel_value(space, w, s)
            b = kernel_value(space, s, w).conjugate()
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_kernel_locality_identity():
    # zeta kernel minus the half-plane kernel is the entire remainder
    rng = np.random.default_rng(11)
    for _ in range(25):
        w, s = _random_point(rng), _random_point(rng)
        z = s.as_complex + w.as_complex.conjugate()
        gap = kernel_value(H, w, s) - kernel_value(H2, w, s)
        assert abs(gap - eval_zeta_remainder(z)) < 1e-9


def test_weighted_locality_bounded_on_box():
    # recorded box maxima (seed 2024, 60 pairs): 1.016 and 1.135
    recorded = {-1.0: 1.25, 0.5: 1.25}
    for alpha, cap in recorded.items():
        rng = np.random.default_rng(2024)
        p = WeightedZetaParams(alpha)
        mx = 0.0
        for _ in range(60):
            z = complex(rng.uniform(1.2, 6.0), rng.uniform(-10.0, 10.0))
            mx = max(mx, abs(eval_weighted_remainder(p, z)))
        assert mx < cap


def _d1_prefactor(wbar: complex, s: complex) -> complex:
    return (3 - 2 * wbar) / (1 - 2 * wbar) * (3 + 2 * s) / (1 + 2 * s)


def test_limit_kernel_printed_form():
    # independent transcription of the alpha = 1 display
    d1 = SpaceId(BERGMAN_DIRICHLET, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        w, s = _random_point(rng, 0.8, 2.2, 3.0), _random_point(rng, 0.8, 2.2, 3.0)
        wb = w.as_complex.conjugate()
        sc = s.as_complex
        want = _d1_prefactor(wb, sc) * (
            cmath.log((1 + 2 * wb) * (1 + 2 * sc) / 8.0)
            + cmath.log(1.0 / (wb + sc - 1.0)))
        assert abs(kernel_value(d1, w, s) - want) < 1e-12


def test_limit_kernel_bounded_term():
    # subtracting the log-singular part leaves a bounded, grid-stable rest;
    # recorded box maximum 3.7365 on sigma in (0.8, 2.2), |t| <= 3
    d1 = SpaceId(BERGMAN_DIRICHLET, 1.0)
    maxima = []
    for n in (9, 17):
        sig = np.linspace(0.8, 2.2, n)
        ts = np.linspace(-3.0, 3.0, 5)
        mx = 0.0
        for s1 in sig:
            for t1 in ts:
                for s2 in sig:
                    for t2 in ts:
                        w = HalfPlanePoint(s1, t1)
                        s = HalfPlanePoint(s2, t2)
                        wb = complex(s1, -t1)
                        sc = complex(s2, t2)
                        sing = _d1_prefactor(wb, sc) * cmath.log(1.0 / (wb + sc - 1.0))
                        mx = max(mx, abs(kernel_value(d1, w, s) - sing))
        maxima.append(mx)
    assert maxima[1] < 3.8
    assert abs(maxima[1] - maxima[0]) <= 0.05 * maxima[1]


def test_limit_kernel_diagonal_sign_change():
    # the printed diagonal is negative just right of the boundary and
    # crosses zero at sigma = 3/2
    d1 = SpaceId(BERGMAN_DIRICHLET, 1.0)
    low = kernel_value(d1, HalfPlanePoint(0.9, 0.0), HalfPlanePoint(0.9, 0.0))
    assert low.real < 0.0
    at = kernel_value(d1, HalfPlanePoint(1.5, 0.0), HalfPlanePoint(1.5, 0.0))
    assert abs(at) < 1e-12
    high = kernel_value(d1, HalfPlanePoint(2.5, 0.0), HalfPlanePoint(2.5, 0.0))
    assert high.real > 0.0


def test_kernel_norms():
    p = HalfPlanePoint(1.0, 3.0)
    assert abs(kernel_norm(H, p) - math.sqrt(eval_zeta(2.0).real)) < 1e-12
    assert abs(kernel_norm(H2, p) - 1.0) < 1e-14  # 1/sqrt(2 sigma - 1) at sigma = 1
    q = HalfPlanePoint(0.75, 0.0)
    assert abs(kernel_norm(H2, q) - math.sqrt(2.0)) < 1e-14


def test_norm_rejects_negative_diagonal():
    # the printed alpha = 1 diagonal is negative near the boundary
    with pytest.raises(NumericalError):
        kernel_norm(SpaceId(BERGMAN_DIRICHLET, 1.0), HalfPlanePoint(0.9, 0.0))


def test_pseudohyperbolic_basics():
    a = HalfPlanePoint(1.0, 0.0)
    b = HalfPlanePoint(2.0, 1.0)
    assert pseudohyperbolic_distance(a, a) == 0.0
    d = pseudohyperbolic_distance(a, b)
    assert d == pseudohyperbolic_distance(b, a)
    assert 0.0 < d < 1.0
    # closed form |s - w| / |s + wbar - 1|
    want = abs(b.as_complex - a.as_complex) / abs(b.as_complex + a.as_complex.conjugate() - 1.0)
    assert abs(d - want) < 1e-15


@given(st.floats(0.55, 4.0), st.floats(-8.0, 8.0),
       st.floats(0.55, 4.0), st.floats(-8.0, 8.0))
def test_pseudohyperbolic_range_and_symmetry(s1, t1, s2, t2):
    a, b = HalfPlanePoint(s1, t1), HalfPlanePoint(s2, t2)
    d = pseudohyperbolic_distance(a, b)
    assert 0.0 <= d < 1.0
    assert d == pseudohyperbolic_distance(b, a)


def test_halfplane_gram_identity():
    # |normalized H2 kernel|^2 + rho^2 = 1, exactly
    rng = np.random.default_rng(23)
    for _ in range(20):
        a, b = _random_point(rng), _random_point(rng)
        g = kernel_value(H2, a, b) / (kernel_norm(H2, a) * kernel_norm(H2, b))
        rho = pseudohyperbolic_distance(a, b)
        assert abs(abs(g) ** 2 + rho ** 2 - 1.0) < 1e-13


def test_vertical_translation_invariance():
    # kernels depend on t only through differences; norms not at all
    rng = np.random.default_rng(9)
    for space in (H, SpaceId(WEIGHTED_DIRICHLET, -1.0), H2):
        w, s = _random_point(rng), _random_point(rng)
        tau = 17.25
        w2 = HalfPlanePoint(w.sigma, w.t + tau)
        s2 = HalfPlanePoint(s.sigma, s.t + tau)
        assert abs(kernel_value(space, w2, s2) - kernel_value(space, w, s)) < 1e-10
        assert abs(kernel_norm(space, w2) - kernel_norm(space, w)) < 1e-12


def test_polynomial_validation_and_eval():
    with pytest.raises(DomainError):
        DirichletPolynomial(())
    with pytest.raises(DomainError):
        DirichletPolynomial((1.0, 0.0))
    f = DirichletPolynomial((2.0, 0.0, -1.0))
    s = complex(1.5, 0.5)
    want = 2.0 - 3.0 ** (-s)
    assert abs(f.evaluate(s) - want) < 1e-14
    assert f.degree == 3


def test_polynomial_norms():
    f = DirichletPolynomial((3.0, 4.0))
    assert f.norm(H) == 5.0
    w = f.norm(SpaceId(WEIGHTED_DIRICHLET, -1.0))
    want = math.sqrt(9.0 / math.log(2.0) + 16.0 / math.log(3.0))
    assert abs(w - want) < 1e-12
    with pytest.raises(DomainError):
        f.norm(H2)


def _bits(v) -> bytes:
    return np.complex128(v).tobytes()


_NEAR_ONE = 0.5 + 2.0 ** -12  # Re z = 1 + 2^-11 on the diagonal, as in criterion 08
_ROWS = (HalfPlanePoint(_NEAR_ONE, 3.0), HalfPlanePoint(0.8, -40.0),
         HalfPlanePoint(1.7, 12.5), HalfPlanePoint(3.0, 39.0))
_COLS = (HalfPlanePoint(_NEAR_ONE, -2.0), HalfPlanePoint(1.1, 25.0),
         HalfPlanePoint(2.2, -17.0), HalfPlanePoint(0.7, 0.0))
_HIGH = HalfPlanePoint(0.6, 1000.3)
_ALL_FAMILIES = (H, SpaceId(WEIGHTED_DIRICHLET, 0.5), SpaceId(WEIGHTED_DIRICHLET, -1.0),
                 H2, SpaceId(BERGMAN_DIRICHLET, 0.5), SpaceId(BERGMAN_DIRICHLET, -1.0),
                 SpaceId(BERGMAN_DIRICHLET, 1.0))


def _assert_matches_scalar(space, rows, cols, cfg):
    k = kernel_matrix(space, rows, cols, cfg)
    assert k.shape == (len(rows), len(cols))
    series = space.family in (HARDY_DIRICHLET, WEIGHTED_DIRICHLET)
    for l, s in enumerate(rows):
        for j, w in enumerate(cols):
            want = kernel_value(space, w, s, cfg)
            if series:
                assert abs(k[l, j] - want) <= 2.0 * cfg.tol, (space, s, w)
            else:
                assert _bits(k[l, j]) == _bits(want), (space, s, w)
    return k


def test_weighted_kernel_matrix_matches_mpmath():
    # an oracle outside the series code: at alpha = -1, log(n+1) = log n +
    # sum_m (-1)^(m+1) n^-m / m turns the series into -zeta'(z) + log 2 +
    # sum_m (-1)^(m+1) (zeta(z+m) - 1) / m, exact at every entry, down to
    # Re z = 1 + 2^-11; at alpha = 1/2, mpmath's own summation where it
    # converges (Re z > 2.5)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    cfg = EvalConfig()
    k = kernel_matrix(SpaceId(WEIGHTED_DIRICHLET, -1.0), _ROWS, _COLS, cfg)
    for l, s in enumerate(_ROWS):
        for j, w in enumerate(_COLS):
            z = s.as_complex + w.as_complex.conjugate()
            zm = mpmath.mpc(z.real, z.imag)
            want = -mpmath.zeta(zm, 1, 1) + mpmath.log(2) + sum(
                (-1) ** (m + 1) * (mpmath.zeta(zm + m) - 1) / m for m in range(1, 70))
            assert abs(k[l, j] - complex(want)) <= cfg.tol, z
    k = kernel_matrix(SpaceId(WEIGHTED_DIRICHLET, 0.5), _ROWS[2:], _COLS[1:3], cfg)
    for l, s in enumerate(_ROWS[2:]):
        for j, w in enumerate(_COLS[1:3]):
            z = s.as_complex + w.as_complex.conjugate()
            zm = mpmath.mpc(z.real, z.imag)
            want = mpmath.nsum(lambda n: n ** -zm / mpmath.sqrt(mpmath.log(n + 1)),
                               [1, mpmath.inf], method="euler-maclaurin")
            assert abs(k[l, j] - complex(want)) <= cfg.tol, z


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space", [H, SpaceId(WEIGHTED_DIRICHLET, 0.5)])
def test_far_height_is_convergence_error(space):
    # |Im z| = 1e300 needs more than max_terms terms; the start length is
    # clipped before its int64 cast, so no numpy warning comes first
    far, near = HalfPlanePoint(1.0, 1e300), HalfPlanePoint(1.0, 0.0)
    with pytest.raises(ConvergenceError):
        kernel_value(space, far, near)
    with pytest.raises(ConvergenceError):
        kernel_matrix(space, (near, far), (near, far))
    with pytest.raises(ConvergenceError):
        gram_matrix(space, PointSequence((near, far)))


def test_kernel_matrix_matches_scalar(monkeypatch):
    from dirichlet_rkhs import zeta
    cfg = EvalConfig()
    shapes = ((_ROWS + (_HIGH,), _COLS), ((_HIGH,), _COLS), (_COLS[1:2], _ROWS),
              (_COLS, _COLS))
    h_entries = []
    for space in _ALL_FAMILIES:
        for rows, cols in shapes:
            k = _assert_matches_scalar(space, rows, cols, cfg)
            if space == H:
                h_entries += [(s.as_complex + w.as_complex.conjugate(), k[l, j])
                              for l, s in enumerate(rows) for j, w in enumerate(cols)]
    # slices of a few terms and nodes: every series matrix crosses many
    monkeypatch.setattr(zeta, "_SLICE", 5)
    for space in _ALL_FAMILIES:
        _assert_matches_scalar(space, _ROWS, _COLS, cfg)
    monkeypatch.undo()
    # a series length cap that an entry cannot meet still raises
    short = EvalConfig(max_terms=16)
    for space in _ALL_FAMILIES[:3]:
        with pytest.raises(ConvergenceError):
            kernel_value(space, _COLS[1], _ROWS[1], short)
        with pytest.raises(ConvergenceError):
            kernel_matrix(space, _ROWS, _COLS, short)
    assert kernel_matrix(H, (), _COLS).shape == (0, len(_COLS))
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for z, v in h_entries:
        assert abs(v - complex(mpmath.zeta(mpmath.mpc(z.real, z.imag)))) <= cfg.tol, z
