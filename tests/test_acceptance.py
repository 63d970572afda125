"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single verdict line under pytest -v.  Every expected
value is either derived by an independent route inside the test or is a
hand-checked closed form; nothing is compared against the implementation's
own output blindly.
"""

import math
import time

import numpy as np
import pytest

from test_cli import GOLDEN_CASES, _argv

from dirichlet_rkhs.cli import run
from dirichlet_rkhs.diagnostics import (almost_periodicity_probe, boas_bound,
                                        gershgorin_split, merging_family)
from dirichlet_rkhs.embeddings import (line_embedding_quadrature,
                                       line_embedding_ratio, line_embedding_ratios,
                                       line_embedding_sharp_constant,
                                       random_polynomial_corpus)
from dirichlet_rkhs.errors import DomainError
from dirichlet_rkhs.interpolation import (build_blaschke, finite_interpolant,
                                          min_norm_interpolant)
from dirichlet_rkhs.spaces import (BERGMAN_DIRICHLET, HARDY_DIRICHLET,
                                   HARDY_HALF_PLANE, WEIGHTED_DIRICHLET,
                                   DirichletPolynomial, HalfPlanePoint,
                                   PointSequence, SpaceId, kernel_value,
                                   pseudohyperbolic_distance)
from dirichlet_rkhs.zeta import (WeightedZetaParams, eval_gamma,
                                 eval_weighted_remainder, eval_weighted_zeta,
                                 eval_zeta, eval_zeta_remainder)

H = SpaceId(HARDY_DIRICHLET)
H2 = SpaceId(HARDY_HALF_PLANE)


def _random_sequence(rng, n, sigma_lo, sigma_hi, t_abs):
    while True:
        try:
            return PointSequence(tuple(
                HalfPlanePoint(rng.uniform(sigma_lo, sigma_hi),
                               rng.uniform(-t_abs, t_abs)) for _ in range(n)))
        except Exception:
            continue


def _direct_zeta(s, ns):
    """Sum over ns = 1..n plus the first Euler-Maclaurin tail terms."""
    n = len(ns)
    return np.sum(ns ** (-s)) + n ** (1 - s) / (s - 1) - 0.5 * n ** (-s)


def test_criterion_01_kernel_locality():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        s = complex(rng.uniform(0.6, 3.0), rng.uniform(-5.0, 5.0))
        w = complex(rng.uniform(0.6, 3.0), rng.uniform(-5.0, 5.0))
        z = s + w.conjugate()
        gap = eval_zeta(z) - 1.0 / (z - 1.0) - eval_zeta_remainder(z)
        worst = max(worst, abs(gap))
    elapsed = time.time() - t0
    assert worst <= 1e-9, f"pole + entire-part split misses by {worst:.3e}"
    assert elapsed < 5.0, f"locality check took {elapsed:.1f}s"


def test_criterion_02_zeta_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(102)
    ns = np.arange(1, 10**6 + 1, dtype=np.float64)
    worst = 0.0
    for _ in range(50):
        s = complex(rng.uniform(1.2, 3.0), rng.uniform(-5.0, 5.0))
        worst = max(worst, abs(eval_zeta(s) - _direct_zeta(s, ns)))
    gamma_gap = abs(eval_zeta_remainder(1.0) - 0.5772156649)
    elapsed = time.time() - t0
    assert worst <= 1e-8, f"summation routes disagree by {worst:.3e}"
    assert gamma_gap <= 1e-8, f"remainder at the pole off by {gamma_gap:.3e}"
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_03_weighted_pole_remainder_bounded():
    # the remainder after the singular term is evaluated by the
    # cancellation-free route; plain subtraction of the two large halves
    # cross-checks it at the epsilons where a double can still resolve
    # the difference (for alpha = -2 the halves reach 2e15 at eps = 1e-5)
    t0 = time.time()
    for alpha in (-2.0, -1.0, -0.5, 0.5, 1.0):
        params = WeightedZetaParams(alpha)
        rems = []
        for k in range(1, 6):
            eps = 10.0 ** (-k)
            rem = abs(eval_weighted_remainder(params, 1.0 + eps))
            rems.append(rem)
            if k <= 2:
                value = eval_weighted_zeta(params, 1.0 + eps)
                if alpha == 1.0:
                    main = math.log(1.0 / eps)
                else:
                    main = eval_gamma(1.0 - alpha) * eps ** (alpha - 1.0)
                assert abs(abs(value - main) - rem) <= 1e-6 * max(1.0, rem), \
                    f"alpha={alpha}, k={k}: subtraction route disagrees"
        cap = 50.0 * rems[0]
        assert all(r <= cap for r in rems), \
            f"alpha={alpha}: remainders {rems} blow past 50x the k=1 value"
        assert all(math.isfinite(r) for r in rems)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"remainder scan took {elapsed:.1f}s"


def test_criterion_04_explicit_interpolant_small_problems():
    t0 = time.time()
    rng = np.random.default_rng(104)
    worst_resid = 0.0
    worst_far = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        nodes = _random_sequence(rng, n, 0.6, 2.0, 5.0)
        targets = tuple(complex(rng.standard_normal(), rng.standard_normal())
                        for _ in range(n))
        interp = finite_interpolant(nodes, targets)
        worst_resid = max(worst_resid, max(interp.residuals))
        product = build_blaschke(nodes)
        worst_far = max(worst_far, abs(product.evaluate(60.0 + 0.0j) - 1.0))
    elapsed = time.time() - t0
    assert worst_resid <= 1e-8, f"node residual {worst_resid:.3e}"
    assert worst_far <= 1e-8, f"product at sigma=60 off 1 by {worst_far:.3e}"
    assert elapsed < 20.0, f"interpolant sweep took {elapsed:.1f}s"


def test_criterion_05_min_norm_interpolant_certified():
    rng = np.random.default_rng(105)
    for space in (H, H2):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            nodes = _random_sequence(rng, n, 0.8, 2.5, 4.0)
            targets = np.array([complex(rng.standard_normal(),
                                        rng.standard_normal())
                                for _ in range(n)])
            interp = min_norm_interpolant(space, nodes, targets)
            bound = 1e-8 * max(1.0, float(np.linalg.norm(targets)))
            assert max(interp.residuals) <= bound
            kmat = np.array([[kernel_value(space, wj, sl)
                              for wj in nodes.points] for sl in nodes.points])
            norm_ref = math.sqrt(max(0.0, float(np.real(
                np.conj(targets) @ np.linalg.solve(kmat, targets)))))
            assert abs(interp.norm - norm_ref) <= 1e-8, \
                f"reported norm {interp.norm} vs moment-system norm {norm_ref}"
    # hand-solved two-point case: K = [[1, 1/2], [1/2, 1/3]], a = (1, 0)
    closed = min_norm_interpolant(
        H2, PointSequence((HalfPlanePoint(1.0), HalfPlanePoint(2.0))), (1.0, 0.0))
    assert abs(closed.coefficients[0] - 4.0) <= 1e-10
    assert abs(closed.coefficients[1] + 6.0) <= 1e-10
    assert abs(closed.norm - 2.0) <= 1e-10


_PAIRINGS = (
    (H, H2),
    (SpaceId(WEIGHTED_DIRICHLET, -1.0), SpaceId(BERGMAN_DIRICHLET, -1.0)),
    (SpaceId(WEIGHTED_DIRICHLET, 0.5), SpaceId(BERGMAN_DIRICHLET, 0.5)),
)


def test_criterion_06_cross_space_co_monotonicity():
    t0 = time.time()
    deltas = (0.5, 0.3, 0.1, 0.03)
    for series_space, local_space in _PAIRINGS:
        series = [boas_bound(series_space, merging_family(d)) for d in deltas]
        local = [boas_bound(local_space, merging_family(d)) for d in deltas]
        assert all(x > y for x, y in zip(series, series[1:])), \
            f"{series_space}: bounds {series} not strictly decreasing"
        assert all(x > y for x, y in zip(local, local[1:])), \
            f"{local_space}: bounds {local} not strictly decreasing"
        # identical rank orders: rank correlation exactly 1
        assert list(np.argsort(series)) == list(np.argsort(local))
    # random bounded sequences: a healthy local bound forces a healthy
    # series-side bound (empirical floor 0.01)
    for series_space, local_space in _PAIRINGS:
        rng = np.random.default_rng(2026)
        qualified = 0
        drawn = 0
        while qualified < 30:
            drawn += 1
            assert drawn <= 3000, "qualification rate collapsed"
            u, v = rng.random(6), rng.random(6)
            try:
                seq = PointSequence(tuple(
                    HalfPlanePoint(0.6 + 1.9 * a, 20.0 * (b - 0.5))
                    for a, b in zip(u, v)))
            except Exception:
                continue
            if boas_bound(local_space, seq) >= 0.3:
                qualified += 1
                got = boas_bound(series_space, seq)
                assert got >= 0.01, \
                    f"{series_space}: series bound {got:.4f} under floor 0.01"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"co-monotonicity sweep took {elapsed:.1f}s"


def _line_pair_matrix(degree, theta):
    """M[m, n] = (mn)^(-1/2) e^(i theta lam) (e^(i lam) - 1)/(i lam), lam = log(n/m).

    Built from the closed form of the window integral, independently of the
    library's cancellation-free window factor.
    """
    n = np.arange(1, degree + 1, dtype=np.float64)
    lam = np.log(n)[np.newaxis, :] - np.log(n)[:, np.newaxis]
    with np.errstate(divide="ignore", invalid="ignore"):
        window = np.exp(1j * theta * lam) * (np.exp(1j * lam) - 1.0) / (1j * lam)
    window[lam == 0.0] = 1.0
    return window / np.sqrt(np.outer(n, n))


def test_criterion_07_window_embedding_constants():
    t0 = time.time()
    for n in (1, 2, 5, 100):
        coeffs = (0.0,) * (n - 1) + (1.0,)
        got = line_embedding_ratio(DirichletPolynomial(coeffs), 0.0).ratio
        assert got == 1.0 / n, f"single term n={n}: {got!r} != 1/{n}"
    # the window-independent quantity is the sharp constant, the top
    # eigenvalue of the pair matrix; moving the window conjugates that
    # matrix by diag(n^(i theta)), so the constant cannot depend on theta
    thetas = (0.0, 1.0, 10.0, 100.0)
    sharp = {th: line_embedding_sharp_constant(100, th) for th in thetas}
    ref = sharp[0.0]
    for th, value in sharp.items():
        gap = abs(value - ref) / ref
        assert gap <= 1e-12, (
            f"sharp constant at window-start {th} is {value!r}, "
            f"{gap:.2e} relative from {ref!r} at 0 (bound 1e-12)")
    for th in thetas:
        evals, evecs = np.linalg.eigh(_line_pair_matrix(100, th))
        gap = abs(evals[-1] - sharp[th]) / sharp[th]
        assert gap <= 1e-12, (
            f"window-start {th}: sharp constant {sharp[th]!r} vs eigh "
            f"{evals[-1]!r}, relative gap {gap:.2e} (bound 1e-12)")
        # the sup is attained: the ratio expands as a^T M conj(a), so the
        # extremal coefficients are the conjugated top eigenvector
        top = DirichletPolynomial(tuple(np.conj(evecs[:, -1]).tolist()))
        closed = line_embedding_ratio(top, th).ratio
        oracle = line_embedding_quadrature(top, th).ratio
        for route, got in (("closed form", closed), ("quadrature", oracle)):
            gap = abs(got - sharp[th]) / sharp[th]
            assert gap <= 1e-10, (
                f"window-start {th}: top eigenvector ratio {got!r} by {route} "
                f"misses the sharp constant {sharp[th]!r} by {gap:.2e} "
                f"relative (bound 1e-10)")
    # the embedding inequality itself, over a fixed random corpus across
    # seeds and windows; the corpus maximum is an extreme-value statistic
    # and varies across seeds, so only the bound is asserted
    for seed in (0, 1, 2):
        corpus = random_polynomial_corpus(200, 100, seed)
        for th in thetas:
            for idx, res in enumerate(line_embedding_ratios(corpus, th)):
                bound = sharp[th] * (1.0 + 1e-12) + res.quadrature_error
                assert res.ratio <= bound, (
                    f"seed {seed} polynomial {idx} window-start {th}: ratio "
                    f"{res.ratio!r} exceeds the sharp bound {bound!r}")
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"embedding checks took {elapsed:.1f}s (bound 60s)"


def test_criterion_08_diagonal_dominance_split():
    rng = np.random.default_rng(108)
    ts = rng.uniform(0.0, 1.0, 12)
    seq = PointSequence(tuple(HalfPlanePoint(0.5 + 2.0 ** (-j), ts[j - 1])
                              for j in range(1, 13)))
    parts = gershgorin_split(H, seq, 0.1)
    floor = math.sqrt(0.1) - 1e-10
    for part in parts:
        got = boas_bound(H, part)
        assert got >= floor, f"part of size {len(part)} has bound {got:.4f}"
    # reproducibility for a fixed seed
    rng2 = np.random.default_rng(108)
    ts2 = rng2.uniform(0.0, 1.0, 12)
    seq2 = PointSequence(tuple(HalfPlanePoint(0.5 + 2.0 ** (-j), ts2[j - 1])
                               for j in range(1, 13)))
    parts2 = gershgorin_split(H, seq2, 0.1)
    assert [len(p) for p in parts] == [len(p) for p in parts2]


def test_criterion_09_vertical_recurrence_probe():
    # the correlation between s and s + i tau is |zeta(2 sigma + i tau)| /
    # zeta(2 sigma); every value below is taken by eval_zeta and by the
    # direct-sum route of criterion 02, and the two must agree
    t0 = time.time()
    s = HalfPlanePoint(0.75, 0.0)
    ns = np.arange(1, 10**6 + 1, dtype=np.float64)
    z0 = abs(eval_zeta(1.5 + 0.0j))
    z0_direct = abs(_direct_zeta(1.5 + 0.0j, ns))

    def correlations(tau):
        fast = abs(eval_zeta(complex(1.5, tau))) / z0
        direct = abs(_direct_zeta(complex(1.5, tau), ns)) / z0_direct
        assert abs(fast - direct) <= 1e-9, (
            f"tau = {tau}: correlation {fast!r} by eval_zeta vs {direct!r} "
            f"by direct sum, gap {abs(fast - direct):.2e} (bound 1e-9)")
        return fast, direct

    # no shift up to 1e4 reaches 0.9: the window best stays below it and
    # the first crossing lies past the probe's 1e5 cap
    best_tau = 2447.625
    beyond_tau = 152359.7289987632
    best = correlations(best_tau)
    beyond = correlations(beyond_tau)
    assert max(best) < 0.9, \
        f"window best {best} at tau = {best_tau} reaches 0.9"
    assert min(beyond) >= 0.9, \
        f"crossing candidate {beyond} at tau = {beyond_tau} is below 0.9"
    missed = almost_periodicity_probe(H, s, 1e4, 0.9)
    assert missed is None, \
        f"probe reports tau = {missed!r} <= 1e4 reaching 0.9 (window best {best})"
    with pytest.raises(DomainError):
        almost_periodicity_probe(H, s, 2e5, 0.9)
    # a target the window does reach: re-validate every claim directly
    tau = almost_periodicity_probe(H, s, 3e3, 0.85)
    assert tau is not None, \
        f"probe misses 0.85 <= 3e3 although tau = {best_tau} reaches {best}"
    assert 1.0 < tau <= 3e3, f"tau = {tau!r} outside the window (1, 3e3]"
    assert abs(tau - best_tau) <= 0.1, \
        f"tau = {tau!r} is {abs(tau - best_tau):.3f} from the peak at {best_tau} (bound 0.1)"
    corr = correlations(tau)
    assert min(corr) >= 0.85, f"tau = {tau!r}: correlation {corr} below 0.85"
    dist = pseudohyperbolic_distance(s, HalfPlanePoint(0.75, tau))
    assert dist >= 0.99, f"tau = {tau!r}: pseudohyperbolic distance {dist} below 0.99"
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"recurrence checks took {elapsed:.1f}s (bound 120s)"


def test_criterion_10_cli_golden_determinism(fixtures_dir, golden_dir, capsys):
    for name in sorted(GOLDEN_CASES):
        argv = _argv(GOLDEN_CASES[name], fixtures_dir)
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second, f"{name}: two runs differ"
        assert first == (golden_dir / name).read_text(), \
            f"{name}: output drifted from the stored golden file"
