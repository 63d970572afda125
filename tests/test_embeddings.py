"""Local embedding ratios: closed forms against quadrature oracles."""

import math
import time

import numpy as np
import pytest

from dirichlet_rkhs.errors import DomainError, SizeError
from dirichlet_rkhs.embeddings import (HALFSTRIP_DEGREE_CAP, LINE_DEGREE_CAP,
                                       halfstrip_embedding_quadrature,
                                       halfstrip_embedding_ratio,
                                       halfstrip_embedding_ratios,
                                       line_embedding_quadrature,
                                       line_embedding_ratio,
                                       line_embedding_ratios,
                                       line_embedding_sharp_constant,
                                       random_polynomial_corpus)
from dirichlet_rkhs.spaces import HARDY_DIRICHLET, DirichletPolynomial, SpaceId


def _single_term(n: int, coeff: complex = 1.0) -> DirichletPolynomial:
    return DirichletPolynomial((0.0,) * (n - 1) + (coeff,))


@pytest.mark.parametrize("n", [1, 2, 5, 100])
@pytest.mark.parametrize("theta", [0.0, 3.7])
def test_single_term_line_ratio_exact(n, theta):
    r = line_embedding_ratio(_single_term(n), theta)
    assert r.ratio == 1.0 / n
    assert r.quadrature_error < 1e-12


def test_single_term_line_ratio_exact_every_n():
    # the diagonal is division-exact and the rule's off-diagonal part of one
    # term is exactly 0, at every length up to 1000
    for n in range(1, 1001):
        for theta in (0.0, 3.7):
            r = line_embedding_ratio(_single_term(n), theta)
            assert r.ratio == 1.0 / n, (n, theta)
            assert r.quadrature_error < 1e-12, (n, theta)


def _pair_rows(n: np.ndarray, rows: slice, theta: float) -> np.ndarray:
    """Rows of the closed-form pair table M[m, n] = (mn)^-1/2 window(log n - log m)."""
    lam = np.log(n)[np.newaxis, :] - np.log(n[rows])[:, np.newaxis]
    safe = np.where(lam == 0.0, 1.0, lam)
    win = np.exp(1j * theta * lam) * (np.sin(safe) + 2j * np.sin(0.5 * safe) ** 2) / safe
    win = np.where(lam == 0.0, 1.0 + 0.0j, win)
    return win / np.sqrt(np.outer(n[rows], n))


def _pair_forms(a: np.ndarray, theta: float) -> np.ndarray:
    """Mean square of each row of a over [theta, theta+1] by the pair table,
    250 rows at a time."""
    n = np.arange(1, a.shape[1] + 1, dtype=np.float64)
    v = np.conj(a).T
    total = np.zeros(a.shape[0], dtype=np.complex128)
    for i in range(0, n.size, 250):
        rows = slice(i, i + 250)
        total += np.einsum("nk,nk->k", np.conj(v[rows]), _pair_rows(n, rows, theta) @ v)
    return total.real


@pytest.mark.parametrize("degree", [1, 2, 3, 50, 400, 2000])
def test_line_ratios_against_pair_table(degree):
    # the Gauss-Legendre form against the closed-form pair table it replaced:
    # every difference lies within the ratio's own quadrature_error
    corpus = random_polynomial_corpus(4, degree, 100 + degree)
    a = np.array([f.coeffs for f in corpus])
    norms2 = np.sum(np.abs(a) ** 2, axis=1)
    for theta in (0.0, 1.0, 10.0, 100.0):
        want = _pair_forms(a, theta) / norms2
        for r, w in zip(line_embedding_ratios(corpus, theta), want):
            assert abs(r.ratio - w) <= r.quadrature_error, (theta, r, w)


def test_single_term_phase_invariance():
    base = line_embedding_ratio(_single_term(5), 0.0).ratio
    phased = line_embedding_ratio(_single_term(5, complex(math.cos(0.3),
                                                          math.sin(0.3))), 0.0)
    assert abs(phased.ratio - base) < 1e-15


def test_halfstrip_reference_value():
    # f = 2^-s, alpha = -1: ratio log(3) / (4 log(2))
    f = _single_term(2)
    r = halfstrip_embedding_ratio(f, 0.0, -1.0)
    want = math.log(3.0) / (4.0 * math.log(2.0))
    assert abs(r.ratio - want) < 1e-15
    assert abs(r.ratio - 0.396240625180289) < 1e-12
    # the single off-diagonal pair sits at lambda = 0, so theta drops out
    assert halfstrip_embedding_ratio(f, 2.5, -1.0).ratio == r.ratio
    q = halfstrip_embedding_quadrature(f, 0.0, -1.0)
    assert abs(q.ratio - want) < 1e-8


def test_two_term_line_closed_vs_quadrature():
    rng = np.random.default_rng(2025)
    for _ in range(20):
        coeffs = tuple((rng.standard_normal(2) + 1j * rng.standard_normal(2)).tolist())
        if coeffs[-1] == 0:
            continue
        f = DirichletPolynomial(coeffs)
        theta = rng.uniform(-5.0, 5.0)
        closed = line_embedding_ratio(f, theta)
        quad = line_embedding_quadrature(f, theta)
        assert abs(closed.ratio - quad.ratio) < 1e-8


def test_degree_eight_line_closed_vs_quadrature():
    f = random_polynomial_corpus(1, 8, 5)[0]
    closed = line_embedding_ratio(f, 1.3)
    quad = line_embedding_quadrature(f, 1.3)
    assert abs(closed.ratio - quad.ratio) < 1e-8


def test_corpus_size_refused_before_drawing():
    # 1e9 coefficients would hold about 38 GB; the refusal comes first
    for count, degree in ((100_000, 10_000), (1001, 1000)):
        with pytest.raises(SizeError, match="exceeds cap 1000000"):
            random_polynomial_corpus(count, degree, 0)


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5, 1.0])
def test_halfstrip_closed_vs_quadrature(alpha):
    rng = np.random.default_rng(77)
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    z[0] = 0.0  # keep one polynomial valid for every branch
    f = DirichletPolynomial(tuple(z.tolist()))
    closed = halfstrip_embedding_ratio(f, 0.3, alpha)
    quad = halfstrip_embedding_quadrature(f, 0.3, alpha)
    assert abs(closed.ratio - quad.ratio) < 1e-8
    assert closed.alpha == alpha


def test_halfstrip_constant_polynomial_vanishes():
    r = halfstrip_embedding_ratio(DirichletPolynomial((2.0,)), 0.0, 0.5)
    assert r.ratio == 0.0
    assert r.quadrature_error == 0.0
    q = halfstrip_embedding_quadrature(DirichletPolynomial((2.0,)), 0.0, 0.5)
    assert q.ratio == 0.0


def test_halfstrip_rejections():
    f = DirichletPolynomial((1.0, 1.0))
    for bad in (0.0, 1.5):
        with pytest.raises(DomainError):
            halfstrip_embedding_ratio(f, 0.0, bad)
        with pytest.raises(DomainError):
            halfstrip_embedding_quadrature(f, 0.0, bad)
    # negative alpha meets a non-integrable weight on the constant term
    with pytest.raises(DomainError):
        halfstrip_embedding_ratio(f, 0.0, -1.0)
    with pytest.raises(DomainError):
        halfstrip_embedding_quadrature(f, 0.0, -1.0)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_non_finite_theta_is_domain_error(theta):
    f = DirichletPolynomial((0.0, 1.0, 0.5))
    with pytest.raises(DomainError, match="theta"):
        line_embedding_ratio(f, theta)
    with pytest.raises(DomainError, match="theta"):
        line_embedding_sharp_constant(3, theta)
    for alpha in (-1.0, 0.5):
        with pytest.raises(DomainError, match="theta"):
            halfstrip_embedding_ratio(f, theta, alpha)


def test_size_caps():
    big = _single_term(LINE_DEGREE_CAP + 1)
    with pytest.raises(SizeError):
        line_embedding_ratio(big, 0.0)
    strip_big = _single_term(HALFSTRIP_DEGREE_CAP + 1)
    with pytest.raises(SizeError):
        halfstrip_embedding_ratio(strip_big, 0.0, 0.5)
    with pytest.raises(SizeError):
        line_embedding_sharp_constant(LINE_DEGREE_CAP + 1)
    with pytest.raises(DomainError):
        line_embedding_sharp_constant(0)


@pytest.mark.parametrize("theta", [0.0, 100.0])
@pytest.mark.parametrize("degree, count", [(1, 3), (40, 6), (600, 3)])
def test_line_batch_matches_single_bitwise(degree, count, theta):
    corpus = random_polynomial_corpus(count, degree, degree)
    assert line_embedding_ratios(corpus, theta) == [
        line_embedding_ratio(f, theta) for f in corpus]


@pytest.mark.parametrize("count", [1, 2, 96])
@pytest.mark.parametrize("degree", [50, 400, 2000])
def test_line_batch_matches_single_bitwise_by_count(degree, count):
    # 96 rows are one slice of the reduction at degree 50, and 7 and 48
    # slices at degrees 400 and 2000
    corpus = random_polynomial_corpus(count, degree, count + degree)
    for theta in (0.0, 10.0):
        assert line_embedding_ratios(corpus, theta) == [
            line_embedding_ratio(f, theta) for f in corpus]


@pytest.mark.parametrize("degree, alpha", [(1, 0.5), (2, -0.5), (2, 0.5),
                                           (30, -0.5), (30, 0.5)])
def test_halfstrip_batch_matches_single_bitwise(degree, alpha):
    corpus = random_polynomial_corpus(5, degree, 17)
    if alpha < 0.0:
        corpus = [DirichletPolynomial((0j,) + f.coeffs[1:]) for f in corpus]
    assert halfstrip_embedding_ratios(corpus, 1.5, alpha) == [
        halfstrip_embedding_ratio(f, 1.5, alpha) for f in corpus]


def test_batch_rejections():
    short, long_ = DirichletPolynomial((0.0, 1.0)), DirichletPolynomial((0.0, 1.0, 2.0))
    assert line_embedding_ratios([], 0.0) == []
    assert halfstrip_embedding_ratios([], 0.0, 0.5) == []
    with pytest.raises(DomainError, match="share a length"):
        line_embedding_ratios([short, long_], 0.0)
    with pytest.raises(DomainError, match="share a length"):
        halfstrip_embedding_ratios([short, long_], 0.0, -0.5)
    # a polynomial that fails alone fails the same way inside a batch
    big = _single_term(LINE_DEGREE_CAP + 1)
    with pytest.raises(SizeError):
        line_embedding_ratios([big, big], 0.0)
    strip_big = _single_term(HALFSTRIP_DEGREE_CAP + 1)
    with pytest.raises(SizeError):
        halfstrip_embedding_ratios([strip_big, strip_big], 0.0, 0.5)
    with pytest.raises(DomainError, match="a_1 = 0"):
        halfstrip_embedding_ratios([long_, DirichletPolynomial((1.0, 1.0, 2.0))], 0.0, -0.5)
    with pytest.raises(DomainError, match="theta"):
        line_embedding_ratios([short], math.nan)


def test_sharp_constant_values_and_growth():
    ten = line_embedding_sharp_constant(10)
    forty = line_embedding_sharp_constant(40)
    assert abs(ten - 2.7815613396223675) < 1e-9
    assert abs(forty - 3.8157210780773734) < 1e-9
    assert 1.0 <= ten < forty


def test_sharp_constant_window_invariance():
    # conjugation by diag(n^{i theta}) is unitary, so the sup cannot move
    base = line_embedding_sharp_constant(30, 0.0)
    for theta in (1.0, 7.5, 100.0):
        assert abs(line_embedding_sharp_constant(30, theta) - base) < 1e-12


def test_sharp_constant_large_degree():
    # theta-invariant at degree 1000, and nondecreasing in the degree:
    # each M_d is a leading principal submatrix of the larger one, so the
    # top eigenvalue can only grow (Cauchy interlacing)
    top = line_embedding_sharp_constant(1000, 0.0)
    assert abs(line_embedding_sharp_constant(1000, 100.0) - top) <= 1e-12 * top
    assert line_embedding_sharp_constant(100) <= line_embedding_sharp_constant(500) <= top


def _dense_sharp_constant(degree: int) -> float:
    n = np.arange(1, degree + 1, dtype=np.float64)
    return float(np.linalg.eigvalsh(_pair_rows(n, slice(None), 0.0))[-1])


@pytest.mark.parametrize("degree", [1, 2, 50, 100, 1000])
def test_sharp_constant_matches_dense_pair_matrix(degree):
    # the Q x Q form against eigvalsh of the dense degree x degree pair matrix,
    # and exactly the same value at every window
    value = line_embedding_sharp_constant(degree)
    want = _dense_sharp_constant(degree)
    assert abs(value - want) <= 1e-12 * want
    for theta in (1.0, 10.0, 100.0):
        assert line_embedding_sharp_constant(degree, theta) == value


def test_sharp_constant_at_the_degree_cap():
    t0 = time.perf_counter()
    top = line_embedding_sharp_constant(LINE_DEGREE_CAP, 10.0)
    assert time.perf_counter() - t0 < 1.0
    # Cauchy interlacing: the degree-1000 matrix is a principal submatrix
    assert top >= line_embedding_sharp_constant(1000)


def test_sharp_constant_dominates_samples():
    cap = line_embedding_sharp_constant(12)
    for f in random_polynomial_corpus(10, 12, 3):
        for theta in (0.0, 2.0):
            assert line_embedding_ratio(f, theta).ratio <= cap + 1e-12


def test_corpus_deterministic():
    a = random_polynomial_corpus(3, 5, seed=9)
    b = random_polynomial_corpus(3, 5, seed=9)
    assert [f.coeffs for f in a] == [g.coeffs for g in b]
    assert random_polynomial_corpus(0, 5, seed=9) == []
    assert all(len(f.coeffs) == 5 for f in a)


def test_corpus_normalization():
    polys = random_polynomial_corpus(40, 8, seed=1)
    mean_sq = np.mean([f.norm(SpaceId(HARDY_DIRICHLET)) ** 2 for f in polys])
    assert abs(mean_sq - 1.0) < 0.2


def test_corpus_rejections():
    with pytest.raises(DomainError):
        random_polynomial_corpus(-1, 5, seed=0)
    with pytest.raises(DomainError):
        random_polynomial_corpus(1, 0, seed=0)


def test_error_estimates_are_small():
    f = random_polynomial_corpus(1, 20, 11)[0]
    r = line_embedding_ratio(f, 0.4)
    assert r.quadrature_error <= 1e-6 * max(1.0, r.ratio)
    d = r.to_json_dict()
    assert set(d) == {"ratio", "theta", "alpha", "quadrature_error"}
    assert d["alpha"] is None
