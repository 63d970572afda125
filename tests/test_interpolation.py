"""Prime selection, Blaschke products, and the two interpolation routes."""

import cmath
import math

import numpy as np
import pytest

from dirichlet_rkhs.errors import DomainError, SizeError
from dirichlet_rkhs.interpolation import (BLASCHKE_LAGRANGE,
                                          KERNEL_COMBINATION,
                                          DirichletBlaschke, build_blaschke,
                                          expand_dirichlet, finite_interpolant,
                                          min_norm_interpolant, select_primes)
from dirichlet_rkhs.spaces import (HARDY_DIRICHLET, HARDY_HALF_PLANE,
                                   WEIGHTED_DIRICHLET, HalfPlanePoint,
                                   PointSequence, SpaceId, kernel_norm,
                                   kernel_value)
from dirichlet_rkhs.zeta import EvalConfig

H = SpaceId(HARDY_DIRICHLET)
H2 = SpaceId(HARDY_HALF_PLANE)


def _seq(*pairs) -> PointSequence:
    return PointSequence(tuple(HalfPlanePoint(a, b) for a, b in pairs))


def test_select_primes_single_node():
    assert select_primes(_seq((1.0, 0.0))) == [2]


def test_select_primes_skips_blocked_lattice():
    # the second node sits on the period lattice of prime 2 at the first,
    # so both nodes move up to 3; repeats are fine
    tau = 2.0 * math.pi / math.log(2.0)
    primes = select_primes(_seq((1.0, 0.0), (1.0, tau)))
    assert primes == [3, 3]


def test_select_primes_repeats_when_clear():
    assert select_primes(_seq((1.0, 0.0), (1.7, 0.0))) == [2, 2]
    assert select_primes(_seq((1.0, 0.0), (1.7, 0.0), (2.5, 0.0))) == [2, 2, 2]


def test_select_primes_node_cap():
    pts = tuple(HalfPlanePoint(0.8, 0.3 * k) for k in range(65))
    with pytest.raises(SizeError):
        select_primes(PointSequence(pts))


def test_blaschke_vanishes_at_nodes_exactly():
    b = build_blaschke(_seq((1.0, 0.0), (1.7, 0.0), (1.2, 2.0)))
    for p in b.nodes.points:
        assert b.evaluate(p.as_complex) == 0.0


def test_blaschke_tends_to_one_far_right():
    b = build_blaschke(_seq((1.0, 0.0), (1.7, 0.0)))
    assert abs(b.evaluate(60.0 + 0.0j) - 1.0) < 1e-8


def test_blaschke_partial_product_identity():
    b = build_blaschke(_seq((1.0, 0.0), (1.7, 0.5), (2.1, -1.0)))
    rng = np.random.default_rng(4)
    for _ in range(10):
        s = complex(rng.uniform(0.6, 3.0), rng.uniform(-4.0, 4.0))
        for j in range(3):
            sj = b.nodes.points[j].as_complex
            factor = 1.0 - cmath.exp((sj - s) * math.log(b.primes[j]))
            whole = b.partial(j, s) * factor
            assert abs(whole - b.evaluate(s)) <= 1e-12 * max(1.0, abs(whole))


def test_blaschke_derivative_matches_difference_quotient():
    b = build_blaschke(_seq((1.0, 0.3), (1.6, -0.8)))
    h = 1e-5
    for j in range(2):
        sj = b.nodes.points[j].as_complex
        fd = (b.evaluate(sj + h) - b.evaluate(sj - h)) / (2.0 * h)
        d = b.derivative_at_node(j)
        assert abs(d - fd) < 1e-7 * max(1.0, abs(d))
        assert abs(d) > 0.0


def test_blaschke_validation():
    nodes = _seq((1.0, 0.0), (1.7, 0.0))
    with pytest.raises(SizeError):
        DirichletBlaschke(nodes, (2,))
    with pytest.raises(DomainError):
        DirichletBlaschke(nodes, (2, 4))


def test_finite_interpolant_hits_targets():
    nodes = _seq((1.0, 0.0), (1.7, 0.5), (2.1, -1.0))
    targets = (1.0, 0.5 - 0.25j, 1.0j)
    f = finite_interpolant(nodes, targets)
    assert f.representation == BLASCHKE_LAGRANGE
    assert max(f.residuals) < 1e-12
    for p, a in zip(nodes.points, targets):
        assert abs(f.evaluate(p.as_complex) - a) < 1e-12
    want = math.sqrt(sum(abs(a) ** 2 / kernel_norm(H, p) ** 2
                         for p, a in zip(nodes.points, targets)))
    assert abs(f.admissibility - want) < 1e-12
    assert "primes" in f.to_json_dict()


@pytest.mark.parametrize("pairs, cfg", [
    (((1.0, 0.0), (1.0, 4e6)), EvalConfig()),
    (((1.0, 0.0), (1.2, 100.0), (2.0, -60.0)), EvalConfig(max_terms=16)),
])
def test_finite_interpolant_nodes_far_apart_in_height(pairs, cfg):
    # the norms are zeta(2 sigma_j), at real points: heights that differ by
    # more than 3 max_terms need no longer series
    nodes = _seq(*pairs)
    targets = (1.0, 2.0j, 0.5)[:len(pairs)]
    f = finite_interpolant(nodes, targets, cfg)
    assert max(f.residuals) < 1e-12
    want = math.sqrt(sum(abs(a) ** 2 / kernel_norm(H, p, cfg) ** 2
                         for p, a in zip(nodes.points, targets)))
    assert abs(f.admissibility - want) < 1e-12


def test_finite_interpolant_target_count():
    with pytest.raises(SizeError):
        finite_interpolant(_seq((1.0, 0.0)), (1.0, 2.0))


def test_min_norm_two_point_closed_form():
    # H2, nodes 1 and 2, targets 1 and 0: K = [[1, 1/2], [1/2, 1/3]],
    # solution c = (4, -6), norm sqrt(Re conj(a).c) = 2
    f = min_norm_interpolant(H2, _seq((1.0, 0.0), (2.0, 0.0)), (1.0, 0.0))
    assert abs(f.coefficients[0] - 4.0) < 1e-10
    assert abs(f.coefficients[1] + 6.0) < 1e-10
    assert abs(f.norm - 2.0) < 1e-10
    assert max(f.residuals) < 1e-12
    # f(s) = 4/s - 6/(s+1) away from the nodes
    s = 1.5
    want = 4.0 / s - 6.0 / (s + 1.0)
    assert abs(f.evaluate(complex(s)) - want) < 1e-12


def test_min_norm_matches_direct_solve():
    rng = np.random.default_rng(12)
    nodes = _seq((0.9, 0.4), (1.3, -0.7), (1.8, 1.2), (1.1, 2.5))
    targets = tuple(complex(rng.standard_normal(), rng.standard_normal())
                    for _ in range(4))
    f = min_norm_interpolant(H, nodes, targets)
    kmat = np.array([[kernel_value(H, wj, sl) for wj in nodes.points]
                     for sl in nodes.points])
    c = np.linalg.solve(kmat, np.array(targets))
    assert np.max(np.abs(np.array(f.coefficients) - c)) < 1e-8
    assert f.representation == KERNEL_COMBINATION
    assert max(f.residuals) < 1e-9
    assert f.norm == pytest.approx(
        math.sqrt(float(np.real(np.conj(np.array(targets)) @ c))), abs=1e-8)


def test_min_norm_weighted_space():
    f = min_norm_interpolant(SpaceId(WEIGHTED_DIRICHLET, -1.0),
                             _seq((1.0, 0.0), (1.5, 1.0)), (1.0, -0.5j))
    assert max(f.residuals) < 1e-9
    assert f.norm > 0.0


def test_min_norm_is_smaller_than_lagrange():
    # both routes interpolate the same data in the same space; the kernel
    # route must not exceed the coefficient norm of the expanded product
    nodes = _seq((1.0, 0.0), (1.7, 0.0), (2.5, 0.0))
    targets = (1.0, 0.5, -0.25)
    best = min_norm_interpolant(H, nodes, targets)
    lagrange = finite_interpolant(nodes, targets)
    expansion = expand_dirichlet(lagrange)
    lag_norm = math.sqrt(sum(abs(c) ** 2 for _, c in expansion))
    assert best.norm <= lag_norm * (1.0 + 1e-12)
    assert best.norm > 0.0


def test_min_norm_vertical_shift_invariance():
    nodes = _seq((1.0, 0.3), (1.4, -0.6))
    targets = (1.0, 0.5j)
    tau = 9.75
    a = min_norm_interpolant(H, nodes, targets)
    b = min_norm_interpolant(H, nodes.translated(tau), targets)
    assert abs(a.norm - b.norm) < 1e-8


def test_expand_dirichlet_evaluates_identically():
    nodes = _seq((1.0, 0.0), (1.7, 0.5), (2.1, -1.0))
    targets = (1.0, -0.5, 0.25j)
    f = finite_interpolant(nodes, targets)
    expansion = expand_dirichlet(f)
    rng = np.random.default_rng(6)
    for _ in range(5):
        s = complex(rng.uniform(0.8, 3.0), rng.uniform(-3.0, 3.0))
        direct = sum(c * n ** (-s) for n, c in expansion)
        assert abs(direct - f.evaluate(s)) < 1e-10
    # frequencies are products of the selected primes
    for n, _ in expansion:
        m = n
        for p in set(f.blaschke.primes):
            while m % p == 0:
                m //= p
        assert m == 1


def test_expand_dirichlet_caps_and_rejects():
    nodes = _seq((1.0, 0.0), (1.7, 0.0), (2.5, 0.0))
    f = finite_interpolant(nodes, (1.0, 1.0, 1.0))
    with pytest.raises(SizeError):
        expand_dirichlet(f, max_terms=2)
    g = min_norm_interpolant(H, nodes, (1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        expand_dirichlet(g)
