"""Sequence diagnostics: geometry, Boas bounds, splitting, equivalence
reports, and the vertical recurrence probe."""

import math

import numpy as np
import pytest

from dirichlet_rkhs.diagnostics import (_NUFFT_GRID_ERR, _shift_sum,
                                        almost_periodicity_probe, blaschke_sum,
                                        boas_bound, carleson_boxes,
                                        carleson_intensity, gershgorin_split,
                                        intensity_over_boxes, merging_family,
                                        separation_constant,
                                        shapiro_shields_test,
                                        space_equivalence_report, space_tag)
from dirichlet_rkhs.errors import DomainError, SizeError
from dirichlet_rkhs.gram import gram_matrix, smallest_eigenvalue
from dirichlet_rkhs.serialize import load_point_sequence
from dirichlet_rkhs.spaces import (HARDY_DIRICHLET, HARDY_HALF_PLANE,
                                   WEIGHTED_DIRICHLET, HalfPlanePoint,
                                   PointSequence, SpaceId,
                                   pseudohyperbolic_distance)
from dirichlet_rkhs.zeta import WeightedZetaParams, eval_weighted_zeta, eval_zeta

H = SpaceId(HARDY_DIRICHLET)
H2 = SpaceId(HARDY_HALF_PLANE)


@pytest.fixture()
def geometric(fixtures_dir):
    return load_point_sequence(fixtures_dir / "geometric.json")


@pytest.fixture()
def equidistributed(fixtures_dir):
    return load_point_sequence(fixtures_dir / "equidistributed.json")


def test_space_tag():
    assert space_tag(H) == "HardyDirichlet"
    assert space_tag(SpaceId(WEIGHTED_DIRICHLET, -1.0)) == "WeightedDirichlet:-1"
    assert space_tag(SpaceId(WEIGHTED_DIRICHLET, 0.5)) == "WeightedDirichlet:0.5"


def test_geometric_separation_exact(geometric):
    # consecutive dyadic points: rho = 2^-(j+1) / (3 * 2^-(j+1)) = 1/3
    assert separation_constant(geometric) == 1.0 / 3.0


def test_separation_needs_two_points():
    with pytest.raises(SizeError):
        separation_constant(PointSequence((HalfPlanePoint(1.0, 0.0),)))


def test_geometric_blaschke_sum_dyadic(geometric):
    assert blaschke_sum(geometric) == 0.9990234375  # 1 - 2^-10
    eight = PointSequence(geometric.points[:8])
    assert blaschke_sum(eight) == 0.99609375  # 1 - 2^-8


def test_geometric_carleson_intensity(geometric):
    assert carleson_intensity(geometric) == 1.998046875  # 2 - 2^-9


def test_intensity_honors_given_boxes(geometric):
    boxes = carleson_boxes(geometric)
    assert intensity_over_boxes(geometric, boxes) == carleson_intensity(geometric)
    # one huge box holds everything: intensity = blaschke_sum / side
    assert intensity_over_boxes(geometric, [(0.0, 8.0)]) == pytest.approx(
        0.9990234375 / 8.0, abs=1e-15)


def _loop_separation(seq):
    # the pairwise loops the array forms replaced, kept as the reference
    pts = seq.points
    return min(pseudohyperbolic_distance(pts[i], pts[j])
               for i in range(len(pts)) for j in range(i + 1, len(pts)))


def _loop_boxes(seq):
    pts = [p.as_complex for p in seq.points]
    diam = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            diam = max(diam, abs(pts[i] - pts[j]))
    boxes = []
    for p in seq.points:
        side = 2.0 * (p.sigma - 0.5)
        boxes.append((p.t, side))
        grown = side * 2.0
        while grown <= diam:
            boxes.append((p.t, grown))
            grown *= 2.0
    return boxes


def _loop_intensity(seq, boxes):
    best = 0.0
    for t_center, side in boxes:
        num = 0.0
        for p in seq.points:  # added one by one, as sum() did before Python 3.12
            if p.sigma - 0.5 <= side and abs(p.t - t_center) <= side / 2.0:
                num += p.sigma - 0.5
        best = max(best, num / side)
    return best


def _loop_coincidence(pts):
    z = [complex(s, t) for s, t in pts]
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            if abs(z[i] - z[j]) <= 1e-12:
                return f"points {i} and {j} coincide"
    return None


@pytest.mark.parametrize("pair_block", [1 << 16, 7])
def test_geometry_arrays_match_loops_bitwise(pair_block, monkeypatch):
    # random jittered lattices and scattered points, with tiny blocks of
    # pairs as well, so that a sequence spans many blocks
    from dirichlet_rkhs import diagnostics, spaces
    monkeypatch.setattr(spaces, "_PAIR_BLOCK", pair_block)
    monkeypatch.setattr(diagnostics, "_PAIR_BLOCK", pair_block)
    rng = np.random.default_rng(2024)
    for trial in range(60):
        n = int(rng.integers(2, 50))
        if trial % 2:
            sigma = 0.5 + 10.0 ** rng.uniform(-4.0, 0.5, n)
            t = rng.uniform(-40.0, 40.0, n) * 10.0 ** rng.uniform(-3.0, 1.0)
        else:
            cols = int(rng.integers(1, 5))
            k = np.arange(n)
            sigma = 0.7 + 0.35 * (k % cols) + 0.035 * rng.random(n)
            t = -38.0 + 76.0 * (k // cols + 0.5) / max(1, n // cols) + rng.normal(0.0, 0.4, n)
        seq = PointSequence(tuple(HalfPlanePoint(float(a), float(b)) for a, b in zip(sigma, t)))
        assert separation_constant(seq) == _loop_separation(seq)
        boxes = carleson_boxes(seq)
        assert boxes == _loop_boxes(seq)
        assert intensity_over_boxes(seq, boxes) == _loop_intensity(seq, boxes)
        some = [boxes[q] for q in rng.integers(0, len(boxes), 5)] + [(0.0, 100.0)]
        assert intensity_over_boxes(seq, some) == _loop_intensity(seq, some)
    # the coincidence check names the first coinciding pair of the loop
    for trial in range(40):
        n = int(rng.integers(2, 30))
        pts = [(float(a), float(b)) for a, b in
               zip(rng.uniform(0.6, 2.0, n), rng.uniform(-5.0, 5.0, n))]
        for _ in range(int(rng.integers(0, 3))):
            a, b = rng.integers(0, n, 2)
            near = 1e-12 * rng.choice([0.0, 0.5, 0.999, 1.001])
            pts[b] = (pts[a][0] + near, pts[a][1])
        want = _loop_coincidence(pts)
        try:
            PointSequence(tuple(HalfPlanePoint(a, b) for a, b in pts))
        except DomainError as exc:
            assert want is not None and str(exc).startswith(want), (str(exc), want)
        else:
            assert want is None


def test_equidistributed_intensity_deterministic(equidistributed):
    v = carleson_intensity(equidistributed)
    assert 0.0 < v < 10.0
    assert carleson_intensity(equidistributed) == v


def test_translation_invariance(geometric):
    shifted = geometric.translated(5.0)
    assert separation_constant(shifted) == separation_constant(geometric)
    assert blaschke_sum(shifted) == blaschke_sum(geometric)
    assert carleson_intensity(shifted) == carleson_intensity(geometric)


def test_boas_is_sqrt_lambda_min(geometric):
    lam = smallest_eigenvalue(gram_matrix(H2, geometric))
    assert boas_bound(H2, geometric) == math.sqrt(max(lam, 0.0))
    assert abs(boas_bound(H2, geometric) - 0.008824301790362015) < 1e-12


def test_boas_two_point_closed_form():
    # 2x2 normalized gram has lambda_min = 1 - |g| with |g| = sqrt(1 - rho^2)
    a, b = HalfPlanePoint(1.0, 0.0), HalfPlanePoint(2.0, 1.0)
    rho = pseudohyperbolic_distance(a, b)
    want = math.sqrt(1.0 - math.sqrt(1.0 - rho * rho))
    got = boas_bound(H2, PointSequence((a, b)))
    assert abs(got - want) < 1e-12


def test_boas_interlacing(equidistributed):
    # adding a point can only shrink the smallest eigenvalue
    vals = [boas_bound(H2, PointSequence(equidistributed.points[:k]))
            for k in range(2, 7)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_shapiro_shields_geometric_passes(geometric):
    verdict, report = shapiro_shields_test(geometric, 0.2, 10.0)
    assert verdict is True
    assert report.verdict_h2 is True
    assert report.separation == 1.0 / 3.0
    assert report.carleson == 1.998046875
    d = report.to_json_dict()
    assert d["boas"]["HardyHalfPlane"] == boas_bound(H2, geometric)


def test_shapiro_shields_clustered_fails():
    seq = PointSequence((HalfPlanePoint(1.0, 0.0), HalfPlanePoint(1.0, 0.001)))
    verdict, report = shapiro_shields_test(seq, 0.2, 10.0)
    assert verdict is False
    assert report.separation < 0.2


def test_shapiro_shields_single_point_vacuous():
    verdict, report = shapiro_shields_test(
        PointSequence((HalfPlanePoint(1.0, 0.0),)), 0.5, 1.0)
    assert verdict is True
    assert report.separation == 1.0


def test_shapiro_shields_threshold_validation(geometric):
    with pytest.raises(DomainError):
        shapiro_shields_test(geometric, 0.0, 1.0)
    with pytest.raises(DomainError):
        shapiro_shields_test(geometric, 0.1, -1.0)


def test_gershgorin_split_frozen_recipe():
    rng = np.random.default_rng(11)
    pts = tuple(HalfPlanePoint(rng.uniform(0.6, 2.0), rng.uniform(-10.0, 10.0))
                for _ in range(12))
    seq = PointSequence(pts)
    parts = gershgorin_split(H2, seq, 0.5)
    assert [len(p) for p in parts] == [2, 2, 3, 3, 1, 1]
    # a partition: disjoint, union is the input
    seen = [q for part in parts for q in part.points]
    assert sorted(seen, key=lambda p: (p.sigma, p.t)) == \
        sorted(pts, key=lambda p: (p.sigma, p.t))
    assert len(seen) == len(set(seen))
    # the advertised guarantee: each part's gram clears m_target
    for part in parts:
        if len(part) > 1:
            assert smallest_eigenvalue(gram_matrix(H2, part)) >= 0.5 - 1e-12


def test_gershgorin_validation():
    seq = PointSequence((HalfPlanePoint(1.0, 0.0), HalfPlanePoint(1.5, 2.0)))
    with pytest.raises(DomainError):
        gershgorin_split(H2, seq, 0.0)
    with pytest.raises(DomainError):
        gershgorin_split(H2, seq, 1.0)
    tied = PointSequence((HalfPlanePoint(1.0, 0.0), HalfPlanePoint(1.0, 3.0)))
    with pytest.raises(DomainError):
        gershgorin_split(H2, tied, 0.5)


def test_merging_family_tracks_delta():
    fam = merging_family(0.5)
    assert len(fam) == 8
    assert separation_constant(fam) == pytest.approx(0.4 / 1.4, abs=1e-12)
    loose = boas_bound(H2, fam)
    tight = boas_bound(H2, merging_family(0.1))
    assert 0.0 < tight < loose
    assert separation_constant(merging_family(0.1)) < 0.08
    with pytest.raises(DomainError):
        merging_family(0.0)
    with pytest.raises(DomainError):
        merging_family(0.6)


def test_equivalence_report_unweighted(fixtures_dir):
    seq = load_point_sequence(fixtures_dir / "nodes_small.json")
    rep = space_equivalence_report(seq)
    assert rep.alpha is None
    assert rep.m_dirichlet_series == boas_bound(H, seq)
    assert rep.m_halfplane == boas_bound(H2, seq)
    assert rep.ratio == rep.m_dirichlet_series / rep.m_halfplane
    assert rep.separation == separation_constant(seq)
    assert rep.carleson == carleson_intensity(seq)
    d = rep.to_json_dict()
    assert d["alpha"] is None and d["ratio"] == rep.ratio


def test_equivalence_report_weighted(fixtures_dir):
    seq = load_point_sequence(fixtures_dir / "nodes_small.json")
    rep = space_equivalence_report(seq, alpha=-1.0)
    assert rep.alpha == -1.0
    assert rep.m_dirichlet_series > 0.0
    assert rep.m_halfplane > 0.0
    assert math.isfinite(rep.ratio)


def test_equivalence_report_window_checks():
    with pytest.raises(DomainError):
        space_equivalence_report(PointSequence((HalfPlanePoint(5.0, 0.0),)))
    with pytest.raises(DomainError):
        space_equivalence_report(PointSequence((HalfPlanePoint(1.0, 50.0),)))
    pts = tuple(HalfPlanePoint(0.6 + 0.01 * k, 0.0) for k in range(129))
    with pytest.raises(SizeError):
        space_equivalence_report(PointSequence(pts))


def test_probe_finds_certified_recurrence():
    tau = almost_periodicity_probe(H, HalfPlanePoint(1.0, 0.0), 1000.0, 0.8)
    assert tau == 17.143182434020495
    # the certificate, re-derived with the exact evaluator
    z0 = abs(eval_zeta(2.0 + 0.0j))
    assert abs(eval_zeta(complex(2.0, tau))) / z0 >= 0.8
    assert 1.0 < tau <= 1000.0


def test_probe_deterministic_and_window_dependent():
    s = HalfPlanePoint(1.0, 0.0)
    a = almost_periodicity_probe(H, s, 1000.0, 0.8)
    b = almost_periodicity_probe(H, s, 1000.0, 0.8)
    assert a == b
    # a wider window changes the scan grid but still certifies
    wide = almost_periodicity_probe(H, s, 1e4, 0.8)
    assert wide == 17.142474547931748


def test_probe_returns_none_when_unreachable():
    assert almost_periodicity_probe(H, HalfPlanePoint(1.0, 0.0), 50.0, 0.99) is None


def test_probe_weighted_space():
    tau = almost_periodicity_probe(SpaceId(WEIGHTED_DIRICHLET, -1.0),
                                   HalfPlanePoint(1.0, 0.0), 200.0, 0.7)
    assert tau == 45.201300325167935


def test_probe_rejections():
    s = HalfPlanePoint(1.0, 0.0)
    with pytest.raises(DomainError):
        almost_periodicity_probe(H2, s, 100.0, 0.8)
    with pytest.raises(DomainError):
        almost_periodicity_probe(H, s, 2e5, 0.8)
    # non-finite input is refused, not reported as a miss
    with pytest.raises(DomainError):
        almost_periodicity_probe(H, s, math.nan, 0.8)
    with pytest.raises(DomainError):
        almost_periodicity_probe(H, s, 100.0, math.nan)
    with pytest.raises(DomainError, match="finite"):
        almost_periodicity_probe(H, s, math.inf, 0.8)


def _dense_shift_sums(coefs, taus, m):
    """Dense reference: e^(-i outer(taus, log n)) in blocks of 512 terms,
    applied to every row of coefs at once."""
    acc = np.zeros((len(taus), len(coefs)), dtype=np.complex128)
    for lo in range(1, m + 1, 512):
        n = np.arange(lo, min(lo + 512, m + 1), dtype=np.float64)
        acc += np.exp(-1j * np.outer(taus, np.log(n))) @ coefs[:, lo - 1:lo - 1 + len(n)].T
    return acc


@pytest.mark.parametrize("tau_lo,m,shifts", [
    (1.0, 2000, 4096), (2400.0, 2000, 4096), (9000.0, 5000, 4096),
    (2400.0, 2000, 1), (9000.0, 5000, 7),
])
def test_surrogate_scan_matches_dense_sum(tau_lo, m, shifts):
    # one chunk of the probe's grid, including short final chunks
    step = 2.0 * math.pi / (20.0 * math.log(m))
    taus = tau_lo + step * (1 + np.arange(shifts))
    n = np.arange(1, m + 1, dtype=np.float64)
    cases = [(a, s2) for a in (0.0, 0.5, -1.0) for s2 in (1.2, 1.5, 2.0)]
    coefs = np.array([n ** (-s2) * np.log(n + 1.0) ** (-a) for a, s2 in cases])
    dense = _dense_shift_sums(coefs, taus, m)
    eps = np.finfo(np.float64).eps
    for col, (alpha, sigma2) in enumerate(cases):
        fast = _shift_sum(coefs[col], np.log(n), taus)
        # the bound stated in the _surrogate_scan docstring
        bound = ((_NUFFT_GRID_ERR + 8.0 * eps * (1.0 + np.max(np.abs(taus))) * math.log(m))
                 * np.sum(np.abs(coefs[col])))
        gap = np.max(np.abs(fast - dense[:, col]))
        assert gap <= bound, f"alpha={alpha}, sigma2={sigma2}: gap {gap:.2e} > {bound:.2e}"
        if alpha == 0.0:
            z0 = abs(eval_zeta(sigma2))
        else:
            z0 = abs(eval_weighted_zeta(WeightedZetaParams(alpha), sigma2))
        # far below the probe's 4e-3 candidate margin
        assert bound <= 1e-6 * 4e-3 * z0
