"""Gram assembly, certified Hermitian eigenvalues, and the positive definite solver."""

import numpy as np
import pytest

from dirichlet_rkhs.diagnostics import gershgorin_split
from dirichlet_rkhs.errors import IllConditionedError, NumericalError, SizeError
from dirichlet_rkhs.gram import (GramMatrix, eigenvalues, gram_matrix,
                                 smallest_eigenvalue, solve_hermitian_pd)
from dirichlet_rkhs.interpolation import min_norm_interpolant
from dirichlet_rkhs.spaces import (BERGMAN_DIRICHLET, HARDY_DIRICHLET,
                                   HARDY_HALF_PLANE, WEIGHTED_DIRICHLET,
                                   HalfPlanePoint, PointSequence, SpaceId,
                                   kernel_norm, kernel_value)
from dirichlet_rkhs.zeta import EvalConfig

H = SpaceId(HARDY_DIRICHLET)
H2 = SpaceId(HARDY_HALF_PLANE)


def _dummy_seq(n: int) -> PointSequence:
    return PointSequence(tuple(HalfPlanePoint(1.0 + 0.25 * k) for k in range(n)))


def _wrap(a: np.ndarray) -> GramMatrix:
    return GramMatrix(a, H, _dummy_seq(a.shape[0]))


def _random_hermitian(rng, n: int) -> np.ndarray:
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (b + b.conj().T) / 2.0


def _char_poly(a: np.ndarray) -> np.ndarray:
    # Faddeev-LeVerrier recursion for det(xI - A)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    m = np.eye(n, dtype=np.complex128)
    for k in range(1, n + 1):
        am = a @ m
        c = -np.trace(am) / k
        coeffs[k] = c
        m = am + c * np.eye(n)
    return coeffs


def test_identity_eigenvalues():
    g = _wrap(np.eye(4))
    assert smallest_eigenvalue(g) == 1.0
    assert np.array_equal(eigenvalues(g), np.ones(4))


def test_two_by_two_exact():
    g = _wrap(np.array([[1.0, 0.5], [0.5, 1.0]]))
    lams = eigenvalues(g)
    assert abs(lams[0] - 0.5) < 1e-14
    assert abs(lams[1] - 1.5) < 1e-14
    assert smallest_eigenvalue(g) == lams[0]


def test_random_hermitian_vs_charpoly_roots():
    rng = np.random.default_rng(42)
    a = _random_hermitian(rng, 6)
    lams = eigenvalues(_wrap(a))
    roots = np.sort(np.roots(_char_poly(a)).real)
    assert np.max(np.abs(lams - roots)) < 1e-8
    # and against the LAPACK route, tighter
    assert np.max(np.abs(lams - np.linalg.eigvalsh(a))) < 1e-12


def test_eigenvalues_sorted_and_trace():
    rng = np.random.default_rng(3)
    a = _random_hermitian(rng, 8)
    lams = eigenvalues(_wrap(a))
    assert np.all(np.diff(lams) >= 0.0)
    assert abs(np.sum(lams) - np.trace(a).real) < 1e-12


def test_gram_assembly_structure():
    seq = PointSequence((HalfPlanePoint(1.2, 0.3), HalfPlanePoint(0.8, -1.1),
                         HalfPlanePoint(1.0, 2.0)))
    g = gram_matrix(H2, seq)
    assert g.n == 3
    assert np.array_equal(np.diagonal(g.entries), np.ones(3))
    assert np.array_equal(g.entries, g.entries.conj().T)
    assert not g.entries.flags.writeable
    # entry (l, j) is the normalized kernel pairing
    v = kernel_value(H2, seq.points[1], seq.points[0])
    v /= kernel_norm(H2, seq.points[1]) * kernel_norm(H2, seq.points[0])
    assert g.entries[0, 1] == v


def test_halfplane_nodes_regression():
    seq = PointSequence((HalfPlanePoint(1.2, 0.3), HalfPlanePoint(0.8, -1.1),
                         HalfPlanePoint(1.0, 2.0)))
    g = gram_matrix(H2, seq)
    lam = smallest_eigenvalue(g)
    assert abs(lam - 0.2987230849597487) < 1e-10
    assert abs(lam - float(np.linalg.eigvalsh(g.entries)[0])) < 1e-10


_PSD_SPACES = (
    H,
    SpaceId(WEIGHTED_DIRICHLET, -1.0),
    SpaceId(WEIGHTED_DIRICHLET, 0.5),
    H2,
    SpaceId(BERGMAN_DIRICHLET, -1.0),
    SpaceId(BERGMAN_DIRICHLET, 0.5),
)


@pytest.mark.parametrize("space", _PSD_SPACES)
def test_gram_positive_semidefinite(space):
    rng = np.random.default_rng(17)
    pts = tuple(HalfPlanePoint(rng.uniform(0.7, 2.5), rng.uniform(-4.0, 4.0))
                for _ in range(5))
    g = gram_matrix(space, PointSequence(pts))
    assert smallest_eigenvalue(g) >= -1e-9


def _bits(v) -> bytes:
    return np.complex128(v).tobytes()


# heights within +-40, one point at t = 1000.3, and sigma = 1/2 + 2^-12,
# where every series diagonal sits at Re z = 1 + 2^-11
_MIXED = PointSequence(tuple(HalfPlanePoint(sg, tt) for sg, tt in (
    (0.5 + 2.0 ** -12, 3.0), (0.8, -40.0), (1.7, 12.5), (3.0, 39.0),
    (1.1, 25.0), (2.2, -17.0), (0.7, 0.0), (0.6, 1000.3))))


@pytest.mark.parametrize("space", _PSD_SPACES + (SpaceId(WEIGHTED_DIRICHLET, 1.0),))
def test_gram_norms_match_kernel_norm(space):
    # the norms are square roots of the kernel matrix's own diagonal
    cfg = EvalConfig()
    g = gram_matrix(space, _MIXED, cfg)
    pts = _MIXED.points
    want = [kernel_norm(space, p, cfg) for p in pts]
    if space.family in (HARDY_DIRICHLET, WEIGHTED_DIRICHLET):
        # both diagonals are within tol of the exact value, and
        # |sqrt(a) - sqrt(b)| <= |a - b| / (sqrt(a) + sqrt(b))
        for got, ref in zip(g.norms, want):
            assert abs(got - ref) <= 2.0 * cfg.tol / (got + ref), (got, ref)
        return
    assert g.norms == tuple(want)
    for l in range(g.n):
        assert _bits(g.entries[l, l]) == _bits(1.0)
        for j in range(l + 1, g.n):
            v = kernel_value(space, pts[j], pts[l], cfg) / (want[j] * want[l])
            assert _bits(g.entries[l, j]) == _bits(v), (l, j)
            assert _bits(g.entries[j, l]) == _bits(v.conjugate()), (l, j)


def test_nonpositive_diagonal_raises_naming_the_point():
    # the printed alpha = 1 kernel has a negative diagonal on the real axis
    # below sigma = 3/2; every Gram consumer raises kernel_norm's error
    d1 = SpaceId(BERGMAN_DIRICHLET, 1.0)
    bad = HalfPlanePoint(1.2, 0.0)
    seq = PointSequence((HalfPlanePoint(2.0, 0.0), bad, HalfPlanePoint(2.5, 0.0)))
    with pytest.raises(NumericalError) as ref:
        kernel_norm(d1, bad)
    assert repr(bad) in str(ref.value)
    for build in (lambda: gram_matrix(d1, seq),
                  lambda: gershgorin_split(d1, seq, 0.3),
                  lambda: min_norm_interpolant(d1, seq, (1.0, 0.0, 1.0j))):
        with pytest.raises(NumericalError) as exc:
            build()
        assert str(exc.value) == str(ref.value)


def test_limit_kernel_diagonal_not_real_off_the_axis():
    # the printed alpha = 1 diagonal is not real at a nonreal point, even
    # right of sigma = 3/2, so no norm or Gram matrix exists there
    d1 = SpaceId(BERGMAN_DIRICHLET, 1.0)
    bad = HalfPlanePoint(2.5, -1.0)
    with pytest.raises(NumericalError, match="imaginary residue 0.0714"):
        kernel_norm(d1, bad)
    with pytest.raises(NumericalError, match="imaginary residue 0.0714"):
        gram_matrix(d1, PointSequence((HalfPlanePoint(2.0, 0.0), bad)))


def test_limit_kernel_gram_not_positive():
    # the alpha = 1 prefactors break positivity even on real points
    # right of 3/2; pin the observed spectrum so any change is visible
    seq = PointSequence(tuple(HalfPlanePoint(s) for s in (1.7, 2.0, 2.4, 2.9)))
    g = gram_matrix(SpaceId(BERGMAN_DIRICHLET, 1.0), seq)
    assert np.array_equal(g.entries, g.entries.conj().T)
    lam = smallest_eigenvalue(g)
    assert abs(lam - (-1.0962949692291362)) < 1e-10


def test_size_cap():
    pts = tuple(HalfPlanePoint(0.9, 0.01 * k) for k in range(513))
    with pytest.raises(SizeError):
        gram_matrix(H2, PointSequence(pts))


def test_entries_must_be_square():
    with pytest.raises(SizeError):
        GramMatrix(np.ones((2, 3)), H, _dummy_seq(2))


def test_solve_identity_and_zero():
    g = _wrap(np.eye(3))
    b = np.array([1.0, -2.0, 3.5 + 1.0j])
    assert np.array_equal(solve_hermitian_pd(g, b), b)
    assert np.array_equal(solve_hermitian_pd(g, np.zeros(3)),
                          np.zeros(3, dtype=np.complex128))
    with pytest.raises(SizeError):
        solve_hermitian_pd(g, np.ones(4))


def test_solve_random_pd():
    rng = np.random.default_rng(8)
    b_mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = b_mat @ b_mat.conj().T + np.eye(6)
    rhs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x = solve_hermitian_pd(_wrap(a), rhs)
    resid = np.linalg.norm(a @ x - rhs)
    assert resid <= 1e-10 * np.linalg.norm(rhs)
    assert np.max(np.abs(x - np.linalg.solve(a, rhs))) < 1e-8


def test_solve_near_singular_rejected():
    a = np.array([[1.0, 1.0 - 1e-14], [1.0 - 1e-14, 1.0]], dtype=np.complex128)
    with pytest.raises(IllConditionedError):
        solve_hermitian_pd(_wrap(a), np.array([1.0, 1.0]))


def test_nearly_coincident_points_rejected_by_solver():
    seq = PointSequence((HalfPlanePoint(1.0, 0.0), HalfPlanePoint(1.0, 2e-9)))
    g = gram_matrix(H2, seq)
    with pytest.raises(IllConditionedError):
        solve_hermitian_pd(g, np.array([1.0, 0.0]))


def test_gram_solve_consistency():
    # eigen route and solve route agree: x = sum_i (v_i^H b / lam_i) v_i
    rng = np.random.default_rng(29)
    pts = tuple(HalfPlanePoint(rng.uniform(1.0, 2.0), float(k)) for k in range(4))
    g = gram_matrix(H, PointSequence(pts))
    rhs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x = solve_hermitian_pd(g, rhs)
    lams, vecs = np.linalg.eigh(np.asarray(g.entries))
    spectral = vecs @ ((vecs.conj().T @ rhs) / lams)
    assert np.max(np.abs(x - spectral)) < 1e-8
