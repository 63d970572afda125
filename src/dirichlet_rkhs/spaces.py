"""Function-space descriptors, reproducing kernels, and the geometry of the
half-plane Re s > 1/2.

Five kernel families are supported:

  * HardyDirichlet       k_w(s) = zeta(s + conj(w)), square-summable
                         Dirichlet coefficients
  * WeightedDirichlet    k_w(s) = sum n^-(s+conj(w)) log(n+1)^-alpha,
                         coefficients weighted by log(n+1)^alpha
  * HardyHalfPlane       k_w(s) = 1/(s + conj(w) - 1)
  * BergmanDirichletHalfPlane (alpha < 1)
                         k_w(s) = c_alpha (conj(w) + s - 1)^(alpha-1)
  * BergmanDirichletHalfPlane (alpha = 1, Dirichlet-space limit)
                         prefactored logarithmic kernel, see _dirichlet_limit_kernel

The alpha = 1 limit kernel is implemented with the published prefactors
verbatim.  Those prefactors are not conjugate-symmetric in (w, s), so this
one family is not Hermitian as printed: its diagonal is negative for
sigma < 3/2, and it is not real off the real axis (its imaginary part is
0.0714 at 2.5 - i).  Callers that need a norm at such a point, such as a
Gram matrix, a split or a min-norm interpolant, get a NumericalError, so
only real points with sigma > 3/2 have one.
Tests pin the usable characterization instead: the kernel equals
log 1/(s + conj(w) - 1) plus a term bounded on bounded sets.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .zeta import (EvalConfig, WeightedZetaParams, eval_weighted_zeta,
                   eval_weighted_zeta_outer, eval_zeta, eval_zeta_outer)

_DEFAULT_CFG = EvalConfig()

HARDY_DIRICHLET = "HardyDirichlet"
WEIGHTED_DIRICHLET = "WeightedDirichlet"
HARDY_HALF_PLANE = "HardyHalfPlane"
BERGMAN_DIRICHLET = "BergmanDirichletHalfPlane"

_FAMILIES = (HARDY_DIRICHLET, WEIGHTED_DIRICHLET, HARDY_HALF_PLANE, BERGMAN_DIRICHLET)


@dataclass(frozen=True)
class HalfPlanePoint:
    """A finite point sigma + it with sigma > 1/2 strictly."""

    sigma: float
    t: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise DomainError(f"point must be finite, got sigma={self.sigma}, t={self.t}")
        if not self.sigma > 0.5:
            raise DomainError(f"point needs sigma > 1/2, got sigma={self.sigma}")

    @property
    def as_complex(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class SpaceId:
    """Which kernel family, plus the weight exponent where one applies.

    HardyDirichlet is the exact alpha = 0 case and carries no alpha;
    WeightedDirichlet and BergmanDirichletHalfPlane carry a finite alpha <= 1
    (nonzero for the Bergman/Dirichlet scale).
    """

    family: str
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if self.family in (HARDY_DIRICHLET, HARDY_HALF_PLANE):
            if self.alpha is not None:
                raise DomainError(f"{self.family} takes no alpha")
        else:
            if self.alpha is None:
                raise DomainError(f"{self.family} needs alpha")
            if not (math.isfinite(self.alpha) and self.alpha <= 1):
                raise DomainError(f"alpha must be finite and <= 1, got {self.alpha}")
            if self.family == BERGMAN_DIRICHLET and self.alpha == 0:
                raise DomainError("BergmanDirichletHalfPlane needs alpha != 0")


# pairs of points handled at once by _pair_blocks
_PAIR_BLOCK = 1 << 16


def _pair_blocks(seq):
    """(i, j, |s_i - s_j|) over the pairs i < j of seq's points in row-major
    order, in blocks of whole rows of about _PAIR_BLOCK pairs, so that memory
    stays bounded for long sequences.  The distance is np.hypot of the
    coordinate differences, which is how abs of the complex difference
    computes it, bit for bit."""
    sigma = np.array([p.sigma for p in seq.points])
    t = np.array([p.t for p in seq.points])
    n, r0 = len(sigma), 0
    while r0 < n - 1:
        r1 = min(n - 1, r0 + max(1, _PAIR_BLOCK // (n - 1 - r0)))
        i, j = np.nonzero(np.arange(r0, r1)[:, None] < np.arange(r0 + 1, n))
        i += r0
        j += r0 + 1
        yield i, j, np.hypot(sigma[i] - sigma[j], t[i] - t[j])
        r0 = r1


@dataclass(frozen=True)
class PointSequence:
    """An ordered tuple of distinct half-plane points."""

    points: tuple[HalfPlanePoint, ...]

    def __post_init__(self):
        if len(self.points) == 0:
            raise DomainError("sequence must be nonempty")
        for i, j, dist in _pair_blocks(self):
            close = np.nonzero(dist <= 1e-12)[0]
            if close.size:
                k = close[0]
                raise DomainError(
                    f"points {i[k]} and {j[k]} coincide (distance <= 1e-12)"
                )

    def __len__(self) -> int:
        return len(self.points)

    @property
    def bound_box(self) -> tuple[float, float]:
        """(max sigma, max |t|) over the sequence."""
        return (max(p.sigma for p in self.points),
                max(abs(p.t) for p in self.points))

    def translated(self, tau: float) -> "PointSequence":
        """The vertical translate s_j + i tau."""
        return PointSequence(tuple(HalfPlanePoint(p.sigma, p.t + tau)
                                   for p in self.points))


@dataclass(frozen=True)
class DirichletPolynomial:
    """f(s) = sum_{n=1}^{N} a_n n^-s in canonical form (a_N != 0)."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise DomainError("need at least one coefficient")
        if self.coeffs[-1] == 0:
            raise DomainError("trailing coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def evaluate(self, s: complex) -> complex:
        n = np.arange(1, len(self.coeffs) + 1, dtype=np.float64)
        return complex(np.sum(np.asarray(self.coeffs) * n ** (-complex(s))))

    def norm(self, space: SpaceId) -> float:
        """Coefficient-side norm; defined for the Dirichlet-series spaces."""
        a = np.abs(np.asarray(self.coeffs)) ** 2
        if space.family == HARDY_DIRICHLET:
            return math.sqrt(float(np.sum(a)))
        if space.family == WEIGHTED_DIRICHLET:
            n = np.arange(1, len(self.coeffs) + 1, dtype=np.float64)
            with np.errstate(over="ignore", invalid="ignore"):
                norm2 = float(np.sum(a * np.log(n + 1.0) ** space.alpha))
            if not math.isfinite(norm2):
                raise DomainError(f"weighted norm at alpha={space.alpha} overflows "
                                  f"double precision")
            return math.sqrt(norm2)
        raise DomainError(f"coefficient norm undefined for {space.family}")


def _bergman_constant(alpha: float) -> float:
    if alpha > 0:
        return 2.0 ** (alpha - 1.0) / (1.0 - alpha)
    try:
        c = (-alpha) * 2.0 ** (-alpha - 1.0)
    except OverflowError:
        c = math.inf
    # a subnormal constant has lost mantissa bits, and its kernel norms are
    # so small that solves against them overflow
    if not sys.float_info.min <= c < math.inf:
        raise DomainError(f"kernel constant at alpha={alpha} is outside the normal "
                          f"double range")
    return c


def _dirichlet_limit_kernel(wbar: complex, s: complex) -> complex:
    """The published alpha = 1 kernel, prefactors verbatim."""
    pref = (3 - 2 * wbar) / (1 - 2 * wbar) * (3 + 2 * s) / (1 + 2 * s)
    logs = cmath.log((1 + 2 * wbar) * (1 + 2 * s) / 8.0) + cmath.log(1.0 / (wbar + s - 1))
    return pref * logs


def _half_plane_kernel(space: SpaceId) -> Callable[[complex, complex], complex]:
    """k(conj(w), s) for a half-plane family, in Python complex arithmetic.

    The space's constants are computed once, so a matrix pays for them once.
    """
    if space.family == HARDY_HALF_PLANE:
        return lambda wbar, s: 1.0 / (s + wbar - 1.0)
    if space.alpha == 1.0:
        return _dirichlet_limit_kernel
    c, power = _bergman_constant(space.alpha), complex(space.alpha - 1.0)

    def bergman(wbar: complex, s: complex) -> complex:
        zsum = s + wbar
        try:
            value = c * (zsum - 1.0) ** power
        except OverflowError:
            value = complex(math.inf)
        if not cmath.isfinite(value):
            raise NumericalError(f"kernel at s + conj(w) = {zsum} and alpha={space.alpha} "
                                 f"overflows double precision")
        return value
    return bergman


def kernel_value(space: SpaceId, w: HalfPlanePoint, s: HalfPlanePoint,
                 cfg: EvalConfig = _DEFAULT_CFG) -> complex:
    """Reproducing kernel k_w evaluated at s."""
    zsum = s.as_complex + w.as_complex.conjugate()
    if space.family == HARDY_DIRICHLET:
        return eval_zeta(zsum, cfg)
    if space.family == WEIGHTED_DIRICHLET:
        return eval_weighted_zeta(WeightedZetaParams(space.alpha), zsum, cfg)
    return _half_plane_kernel(space)(w.as_complex.conjugate(), s.as_complex)


def kernel_matrix(space: SpaceId, rows: Sequence[HalfPlanePoint],
                  cols: Sequence[HalfPlanePoint],
                  cfg: EvalConfig = _DEFAULT_CFG) -> np.ndarray:
    """K[l, j] = k_{cols[j]}(rows[l]), the kernel_value of every pair.

    The Dirichlet-series families go through the outer-form evaluators of
    zeta.py, which share one series length and one quadrature grid over
    the matrix: each entry is within cfg.tol of kernel_value, not bitwise
    equal to it.  The half-plane families are cheap and use kernel_value's
    own complex arithmetic entry by entry, so they match it bit for bit.
    Passing the same sequence as rows and cols halves the series work.
    """
    if len(rows) == 0 or len(cols) == 0:
        return np.zeros((len(rows), len(cols)), dtype=np.complex128)
    if space.family in (HARDY_DIRICHLET, WEIGHTED_DIRICHLET):
        s = np.array([p.as_complex for p in rows], dtype=np.complex128)
        w = s if cols is rows else np.array([p.as_complex for p in cols],
                                            dtype=np.complex128)
        if space.family == HARDY_DIRICHLET:
            return eval_zeta_outer(s, w, cfg)
        return eval_weighted_zeta_outer(WeightedZetaParams(space.alpha), s, w, cfg)
    kernel = _half_plane_kernel(space)
    wbar = [p.as_complex.conjugate() for p in cols]
    return np.array([[kernel(wb, p.as_complex) for wb in wbar]
                     for p in rows], dtype=np.complex128)


def _diagonal_norm(v: complex, w: HalfPlanePoint) -> float:
    """sqrt of the kernel diagonal v = k_w(w); NumericalError naming w for an
    imaginary residue of at least 1e-10 or a real part of at most 0."""
    if abs(v.imag) >= 1e-10:
        raise NumericalError(f"kernel diagonal at {w} has imaginary residue {v.imag:.3g}")
    if v.real <= 0:
        raise NumericalError(f"kernel diagonal at {w} is not positive: {v.real:.6g}")
    return math.sqrt(v.real)


def kernel_norm(space: SpaceId, w: HalfPlanePoint,
                cfg: EvalConfig = _DEFAULT_CFG) -> float:
    """sqrt of the kernel diagonal at w; the norm of the point evaluation."""
    return _diagonal_norm(kernel_value(space, w, w, cfg), w)


def pseudohyperbolic_distance(s: HalfPlanePoint, w: HalfPlanePoint) -> float:
    """rho(s, w) = |s - w| / |s + conj(w) - 1|, in [0, 1)."""
    sc, wc = s.as_complex, w.as_complex
    return abs(sc - wc) / abs(sc + wc.conjugate() - 1.0)
