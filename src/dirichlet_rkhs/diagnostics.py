"""Interpolating-sequence diagnostics: separation and Carleson geometry,
Gram-based lower bounds, Gerschgorin splitting, cross-space equivalence
reports, and a vertical almost-periodicity probe.

The central quantity is the Boas bound m = sqrt(lambda_min) of the
normalized kernel Gram matrix: m > 0 certifies that every moment problem
on the finite section is solvable with norm control 1/m.  Geometric tests
(pseudohyperbolic separation, box intensity) give the classical
half-plane Hardy-space picture to compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SizeError
from .gram import _normalized_kernel_matrix, gram_matrix, smallest_eigenvalue
from .spaces import (_PAIR_BLOCK, BERGMAN_DIRICHLET, HARDY_DIRICHLET,
                     HARDY_HALF_PLANE, WEIGHTED_DIRICHLET, HalfPlanePoint,
                     PointSequence, SpaceId, _pair_blocks)
from .zeta import (EvalConfig, WeightedZetaParams, _weight_term_derivs,
                   eval_weighted_zeta_outer, eval_zeta_outer)

_DEFAULT_CFG = EvalConfig()


def space_tag(space: SpaceId) -> str:
    if space.alpha is None:
        return space.family
    return f"{space.family}:{space.alpha:g}"


@dataclass(frozen=True)
class SequenceReport:
    """Geometric and spectral summary of a finite point sequence."""

    separation: float
    carleson: float
    blaschke_sum: float
    boas_bound_per_space: dict
    verdict_h2: bool

    def to_json_dict(self) -> dict:
        return {
            "separation": self.separation,
            "carleson": self.carleson,
            "blaschke_sum": self.blaschke_sum,
            "boas": {space_tag(sp): v for sp, v in self.boas_bound_per_space.items()},
            "verdict_h2": self.verdict_h2,
        }


@dataclass(frozen=True)
class EquivalenceReport:
    """Paired Boas bounds for a Dirichlet-series space and its local model.

    Pairs (square-summable space, half-plane Hardy) when alpha is None,
    else (log-weighted space, Bergman/Dirichlet scale space) at the same
    alpha.  Finite sections only; no claim about infinite sequences.
    """

    alpha: Optional[float]
    m_dirichlet_series: float
    m_halfplane: float
    ratio: float
    separation: float
    carleson: float
    blaschke_sum: float

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "m_dirichlet_series": self.m_dirichlet_series,
            "m_halfplane": self.m_halfplane,
            "ratio": self.ratio,
            "separation": self.separation,
            "carleson": self.carleson,
            "blaschke_sum": self.blaschke_sum,
        }


def separation_constant(seq: PointSequence) -> float:
    """Minimum pairwise pseudohyperbolic distance.

    Over arrays of pairs, with pseudohyperbolic_distance's arithmetic: the
    same differences, and C hypot for each modulus, so bit for bit.
    """
    if len(seq) < 2:
        raise SizeError("separation needs at least two points")
    sigma = np.array([p.sigma for p in seq.points])
    t = np.array([p.t for p in seq.points])
    return min(float(np.min(dist / np.hypot(sigma[i] + sigma[j] - 1.0, t[i] - t[j])))
               for i, j, dist in _pair_blocks(seq))


def carleson_boxes(seq: PointSequence) -> list[tuple[float, float]]:
    """Point-anchored dyadic box family: pairs (t_center, side).

    Each point anchors boxes with side 2(sigma_k - 1/2) * 2^m, doubling
    until the side exceeds the sequence diameter.
    """
    diam = max((float(np.max(dist)) for _, _, dist in _pair_blocks(seq)), default=0.0)
    boxes = []
    for p in seq.points:
        side = 2.0 * (p.sigma - 0.5)
        boxes.append((p.t, side))
        grown = side * 2.0
        while grown <= diam:
            boxes.append((p.t, grown))
            grown *= 2.0
    return boxes


def intensity_over_boxes(seq: PointSequence, boxes) -> float:
    """sup over the given boxes of sum_{s_j in Q} (sigma_j - 1/2) / side.

    Each box's sum is a cumulative sum along the points with the points
    outside the box set to 0, so it adds the same terms in the same order
    as a loop over the points would, bit for bit on any interpreter.  The
    boxes are taken in slices of about _PAIR_BLOCK (box, point) pairs.
    """
    excess = np.array([p.sigma - 0.5 for p in seq.points])
    t = np.array([p.t for p in seq.points])
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 2)
    step = max(1, _PAIR_BLOCK // len(excess))
    best = 0.0
    for lo in range(0, len(boxes), step):
        t_center, side = boxes[lo:lo + step, :1], boxes[lo:lo + step, 1:]
        inside = (excess <= side) & (np.abs(t - t_center) <= side / 2.0)
        num = np.cumsum(np.where(inside, excess, 0.0), axis=1)[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            # fmax passes over a nan quotient, as max(best, nan) keeps best
            best = max(best, float(np.fmax.reduce(num / side[:, 0])))
    return best


def carleson_intensity(seq: PointSequence) -> float:
    """Box-intensity sup over the point-anchored dyadic family."""
    return intensity_over_boxes(seq, carleson_boxes(seq))


def blaschke_sum(seq: PointSequence) -> float:
    """sum_j (sigma_j - 1/2)."""
    return sum(p.sigma - 0.5 for p in seq.points)


def boas_bound(space: SpaceId, seq: PointSequence,
               cfg: EvalConfig = _DEFAULT_CFG) -> float:
    """m = sqrt(max(lambda_min, 0)) of the normalized Gram matrix.

    m > 0 certifies uniform solvability of the finite moment problem with
    constant 1/m.
    """
    lam = smallest_eigenvalue(gram_matrix(space, seq, cfg))
    return math.sqrt(max(lam, 0.0))


def shapiro_shields_test(seq: PointSequence, delta_min: float,
                         carleson_max: float,
                         cfg: EvalConfig = _DEFAULT_CFG):
    """Geometric interpolation test for the half-plane Hardy space.

    Verdict: separated at least delta_min and box intensity at most
    carleson_max.  A single point is vacuously separated (treated as 1).
    Returns (verdict, SequenceReport).
    """
    if not (delta_min > 0 and carleson_max > 0):
        raise DomainError("thresholds must be positive")
    sep = 1.0 if len(seq) == 1 else separation_constant(seq)
    intensity = carleson_intensity(seq)
    verdict = sep >= delta_min and intensity <= carleson_max
    h2 = SpaceId(HARDY_HALF_PLANE)
    report = SequenceReport(
        separation=sep,
        carleson=intensity,
        blaschke_sum=blaschke_sum(seq),
        boas_bound_per_space={h2: boas_bound(h2, seq, cfg)},
        verdict_h2=verdict,
    )
    return verdict, report


def gershgorin_split(space: SpaceId, seq: PointSequence, m_target: float,
                     cfg: EvalConfig = _DEFAULT_CFG) -> list[PointSequence]:
    """Partition the sequence so every part's Gram is diagonally dominant.

    Processing points by decreasing sigma, each point joins the first part
    where every row's off-diagonal mass stays at most 1 - m_target; a new
    part opens otherwise.  Gerschgorin then gives lambda_min >= m_target
    for each part.
    """
    if not 0.0 < m_target < 1.0:
        raise DomainError(f"m_target must be in (0, 1), got {m_target}")
    pts = sorted(seq.points, key=lambda p: -p.sigma)
    for a, b in zip(pts, pts[1:]):
        if abs(a.sigma - b.sigma) <= 1e-12:
            raise DomainError("splitting requires strictly distinct sigma values")
    g, _ = _normalized_kernel_matrix(space, pts, cfg)
    budget = 1.0 - m_target
    parts: list[list[int]] = []
    masses: list[list[float]] = []
    for i in range(len(pts)):
        for part, mass in zip(parts, masses):
            links = [abs(g[i][q]) for q in part]
            new_mass = sum(links)
            if new_mass <= budget and all(m + l <= budget
                                          for m, l in zip(mass, links)):
                for k, l in enumerate(links):
                    mass[k] += l
                part.append(i)
                mass.append(new_mass)
                break
        else:
            parts.append([i])
            masses.append([0.0])
    return [PointSequence(tuple(pts[i] for i in part)) for part in parts]


_MERGE_BASE = (
    (1.0, 0.0),
    (0.60, 6.0),
    (0.66, -7.0),
    (0.74, 14.0),
    (0.63, 21.0),
    (0.70, -13.0),
    (0.78, -27.0),
)


def merging_family(delta: float) -> PointSequence:
    """Eight points whose separation constant tracks delta.

    Seven fixed well-separated points plus an eighth merging toward the
    first along the real axis at pseudohyperbolic distance about delta;
    the minimum of the 8x8 Gram degrades through the merging pair while
    staying measurably positive across the sweep.
    """
    if not 0.0 < delta <= 0.5:
        raise DomainError(f"delta must be in (0, 0.5], got {delta}")
    pts = [HalfPlanePoint(sg, tt) for sg, tt in _MERGE_BASE]
    pts.append(HalfPlanePoint(1.0 + delta * 0.8, 0.0))
    return PointSequence(tuple(pts))


def space_equivalence_report(seq: PointSequence, alpha: Optional[float] = None,
                             cfg: EvalConfig = _DEFAULT_CFG) -> EquivalenceReport:
    """Desk-scale comparison of series-side and local-model solvability.

    Computes the Boas bound in the Dirichlet-series space and in its local
    half-plane model on the same points, plus the geometric invariants.
    """
    max_sigma, max_t = seq.bound_box
    if max_t > 40 or max_sigma > 4:
        raise DomainError("sequence outside the evaluator-friendly window "
                          "(need sigma <= 4, |t| <= 40)")
    if len(seq) > 128:
        raise SizeError("equivalence report caps at 128 points")
    if alpha is None:
        series_space = SpaceId(HARDY_DIRICHLET)
        local_space = SpaceId(HARDY_HALF_PLANE)
    else:
        series_space = SpaceId(WEIGHTED_DIRICHLET, alpha=alpha)
        local_space = SpaceId(BERGMAN_DIRICHLET, alpha=alpha)
    m_series = boas_bound(series_space, seq, cfg)
    m_local = boas_bound(local_space, seq, cfg)
    ratio = m_series / m_local if m_local > 0 else math.inf
    return EquivalenceReport(
        alpha=alpha,
        m_dirichlet_series=m_series,
        m_halfplane=m_local,
        ratio=ratio,
        separation=1.0 if len(seq) == 1 else separation_constant(seq),
        carleson=carleson_intensity(seq),
        blaschke_sum=blaschke_sum(seq),
    )


# ---------------------------------------------------------------------------
# almost-periodicity probe
# ---------------------------------------------------------------------------


# Gaussian gridding for the probe scan: the grid is oversampled twice and
# every term spreads onto its 2 * _NUFFT_HALF_WIDTH nearest grid nodes.
_NUFFT_OVERSAMPLE = 2
_NUFFT_HALF_WIDTH = 12
# (2 + 2.02 sqrt(pi / u)) e^(-u/2) = 3.04e-11 at u = 16 pi, rounded up;
# see _surrogate_scan
_NUFFT_GRID_ERR = 3.2e-11


def _shift_sum(coef: np.ndarray, log_n: np.ndarray,
               taus: np.ndarray) -> np.ndarray:
    """sum_n coef_n e^(-i tau_k log n) on a uniform grid taus, by Gaussian
    gridding; the method and its error bound are in _surrogate_scan."""
    k_count = len(taus)
    c = k_count // 2
    h = (taus[-1] - taus[0]) / (k_count - 1) if k_count > 1 else 0.0
    b = coef * np.exp(-1j * taus[c] * log_n)
    size = _NUFFT_OVERSAMPLE * k_count
    dx = 2.0 * math.pi / size
    beta = (math.pi * _NUFFT_HALF_WIDTH * _NUFFT_OVERSAMPLE
            / ((_NUFFT_OVERSAMPLE - 0.5) * size ** 2))
    x = np.mod(h * log_n, 2.0 * math.pi)
    nodes = (np.floor(x / dx)[:, np.newaxis]
             + np.arange(1 - _NUFFT_HALF_WIDTH, _NUFFT_HALF_WIDTH + 1))
    spread = np.exp(-(x[:, np.newaxis] - nodes * dx) ** 2 / (4.0 * beta)) * b[:, np.newaxis]
    idx = nodes.astype(np.intp).ravel() % size
    grid = (np.bincount(idx, spread.real.ravel(), size)
            + 1j * np.bincount(idx, spread.imag.ravel(), size))
    j = np.arange(k_count) - c
    return np.fft.fft(grid)[j] * (math.sqrt(math.pi / beta) / size
                                  * np.exp(j ** 2 * beta))


def _surrogate_scan(alpha: float, sigma2: float, taus: np.ndarray,
                    m: int) -> np.ndarray:
    """|sum of the kernel diagonal series at sigma2 + i tau| on a uniform
    grid of K shifts tau_k = tau_c + (k - c) h, c = K // 2.

    Truncated sum over n <= m plus endpoint derivative corrections and a
    four-term asymptotic tail; absolute accuracy a few parts in 1e4 over
    the probe window, ample for candidate detection under the margin.

    The truncated sum S(tau_k) = sum_{n<=m} c_n e^(-i tau_k log n) with
    c_n = n^-sigma2 log(n+1)^-alpha is a type-1 nonuniform FFT, evaluated
    by Gaussian gridding (Greengard & Lee, SIAM Rev. 46 (2004)).  With
    b_n = c_n e^(-i tau_c log n) and x_n = h log n mod 2 pi,
    S(tau_k) = sum_n b_n e^(-i j x_n) at j = k - c.  The b_n are spread
    onto M = 2K nodes with the 2 pi-periodic Gaussian of variance 2 beta,
    beta = u / M^2 and u = 16 pi, truncated to 12 nodes on either side;
    one FFT and a division by the Gaussian's Fourier coefficients
    sqrt(beta / pi) e^(-j^2 beta) finish it.  For |j| <= M / 4 the
    aliasing adds at most 2 e^(-u/2) sum |c_n| and the truncation at most
    2.02 sqrt(pi / u) e^(-u/2) sum |c_n|, so in exact arithmetic

        |S_fast(tau_k) - S(tau_k)| <= _NUFFT_GRID_ERR * sum_{n<=m} |c_n|

    with _NUFFT_GRID_ERR = 3.2e-11.  In floating point this sum and a
    dense one both round the phases tau log n, which adds, to first
    order in eps, at most 8 eps (1 + max |tau|) log m * sum |c_n| to
    their difference.  Up to the probe's cap (tau <= 1e5, m <= 5e4) the
    bound stays below 2e-9 sum |c_n| <= 2e-9 z0, since every c_n > 0
    and z0 is the full series at tau = 0: far under the 4e-3 z0
    candidate margin.  The cost is O(m + K log K) per call instead of
    O(m K) for the dense product.
    """
    n = np.arange(1, m + 1, dtype=np.float64)
    coef = n ** (-sigma2) * np.log(n + 1.0) ** (-alpha)
    acc = _shift_sum(coef, np.log(n), taus)
    s = sigma2 + 1j * taus
    # endpoint corrections g/2 - g'/12 + g'''/720 at x = m
    x = float(m)
    g, g1, g3 = _weight_term_derivs(alpha, s, x, x ** (-s))
    acc += 0.5 * g - g1 / 12.0 + g3 / 720.0
    # tail integral, asymptotic expansion of the incomplete gamma factor
    log_m = math.log(x)
    w = (s - 1.0) * log_m
    series = (1.0 - alpha / w + alpha * (alpha + 1) / w ** 2
              - alpha * (alpha + 1) * (alpha + 2) / w ** 3)
    acc += log_m ** (-alpha) * x ** (1.0 - s) / (s - 1.0) * series
    return np.abs(acc)


def almost_periodicity_probe(space: SpaceId, s: HalfPlanePoint, t_max: float,
                             target_corr: float,
                             cfg: EvalConfig = _DEFAULT_CFG) -> Optional[float]:
    """First tau in (1, t_max] where the kernel correlation between s and
    s + i tau reaches target_corr, or None.

    By vertical invariance of the norms the correlation equals
    |diagonal series at 2 sigma + i tau| / (value at 2 sigma).  The scan
    uses a vectorized truncated-series surrogate on a grid resolving the
    dominant near-periods, then re-verifies each candidate's fine grid with
    one call of the exact series evaluator; only exactly-verified tau values
    are returned.
    """
    if space.family == HARDY_DIRICHLET:
        alpha = 0.0
    elif space.family == WEIGHTED_DIRICHLET:
        alpha = space.alpha
    else:
        raise DomainError("probe supports the Dirichlet-series spaces only")
    if not (math.isfinite(t_max) and math.isfinite(target_corr)):
        raise DomainError(f"probe needs a finite t_max and target, got "
                          f"t_max={t_max}, target={target_corr}")
    if t_max > 1e5:
        raise DomainError(f"probe window caps at 1e5, got {t_max}")
    sigma2 = 2.0 * s.sigma

    def exact(taus: np.ndarray) -> np.ndarray:
        # the series at each sigma2 + i tau: one column of the outer form, at w = 0
        z = sigma2 + 1j * taus
        if alpha == 0.0:
            return np.abs(eval_zeta_outer(z, [0j], cfg)[:, 0])
        return np.abs(eval_weighted_zeta_outer(WeightedZetaParams(alpha), z, [0j], cfg)[:, 0])

    z0 = float(exact(np.zeros(1))[0])
    margin = 4e-3
    chunk = 4096
    tau_lo = 1.0
    while tau_lo < t_max:
        m = max(2000, int(t_max / 2) + 1)
        step = 2.0 * math.pi / (20.0 * math.log(m))
        taus = tau_lo + step * (1 + np.arange(chunk))
        taus = taus[taus <= t_max]
        if len(taus) == 0:
            break
        m_chunk = max(2000, int(taus[-1] / 2) + 1)
        vals = _surrogate_scan(alpha, sigma2, taus, m_chunk) / z0
        for idx in np.nonzero(vals >= target_corr - margin)[0]:
            center = float(taus[idx])
            fine = np.arange(center - 0.6 * step, center + 0.6 * step, step / 40.0)
            fine = fine[(fine > 1.0) & (fine <= t_max)]
            hits = np.nonzero(exact(fine) / z0 >= target_corr)[0]
            if hits.size:
                return float(fine[hits[0]])
        tau_lo = float(taus[-1])
    return None
