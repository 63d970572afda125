"""Evaluators for the Riemann zeta function, log-weighted zeta sums, their
pole-subtracted remainders, and the gamma / incomplete-gamma functions that
back the tail integrals.

All evaluators target an absolute truncation error below the configured
tolerance; rounding adds at most a few ulp of the result magnitude on top.
The weighted sums are

    sum_{n>=1} n^{-s} * log(n+1)^{-alpha},   alpha <= 1, Re s > 1,

whose singular behaviour at s = 1 is gamma(1-alpha) * (s-1)^(alpha-1)
(a logarithm for alpha = 1).  The remainder evaluators subtract that
singular part without catastrophic cancellation by folding the subtraction
into the tail integral (a lower-incomplete-gamma series), so they stay
accurate arbitrarily close to s = 1.

The outer-form evaluators eval_zeta_outer and eval_weighted_zeta_outer
give the same series at every s_l + conj(w_j) of two point lists, as
matrix products with one series length N and one quadrature grid for the
whole matrix; each entry meets the scalar truncation budget, and the
products add rounding of about N u sum |terms| (see the section below).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

EULER_GAMMA = 0.5772156649015328606

# B_2, B_4, ..., B_26 (index k holds B_{2k}); enough for em_order up to 12
# plus one extra for the truncation bound.
_BERNOULLI = {
    1: 1.0 / 6.0,
    2: -1.0 / 30.0,
    3: 1.0 / 42.0,
    4: -1.0 / 30.0,
    5: 5.0 / 66.0,
    6: -691.0 / 2730.0,
    7: 7.0 / 6.0,
    8: -3617.0 / 510.0,
    9: 43867.0 / 798.0,
    10: -174611.0 / 330.0,
    11: 854513.0 / 138.0,
    12: -236364091.0 / 2730.0,
    13: 8553103.0 / 6.0,
}

_MAX_SPECIAL_ITER = 500


@dataclass(frozen=True)
class EvalConfig:
    """Accuracy knobs shared by the series evaluators.

    tol is an absolute error target for the truncation machinery,
    max_terms caps the summation length, em_order is the number of
    Bernoulli correction terms in the Euler-Maclaurin tail.
    """

    tol: float = 1e-10
    max_terms: int = 10**6
    em_order: int = 8

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol}")
        if self.max_terms < 16:
            raise DomainError(f"max_terms must be >= 16, got {self.max_terms}")
        if not 1 <= self.em_order <= 12:
            raise DomainError(f"em_order must be in [1, 12], got {self.em_order}")


@dataclass(frozen=True)
class WeightedZetaParams:
    """Weight exponent for the log-weighted zeta sums (alpha <= 1)."""

    alpha: float

    def __post_init__(self):
        if not self.alpha <= 1:
            raise DomainError(f"alpha must be <= 1, got {self.alpha}")


_DEFAULT_CFG = EvalConfig()


def _rising(s: complex, m: int) -> complex:
    """s (s+1) ... (s+m-1)."""
    out = 1.0 + 0.0j
    for j in range(m):
        out *= s + j
    return out


def _em_truncation_bound(s: complex, n: int, order: int) -> float:
    """Upper bound on the dropped Euler-Maclaurin remainder for x^-s tails.

    The remainder after `order` Bernoulli terms is bounded by the first
    omitted term times |s + 2q + 1| / (sigma + 2q + 1).  s and n may be
    numpy arrays (elementwise).
    """
    sigma = s.real
    q = order
    lead = abs(_BERNOULLI[q + 1]) / math.factorial(2 * q + 2)
    prod = 1.0
    for j in range(2 * q + 1):
        prod *= abs(s + j)
    scale = abs(s + 2 * q + 1) / (sigma + 2 * q + 1)
    floor = np.maximum(1.0, scale) if isinstance(scale, np.ndarray) else max(1.0, scale)
    return lead * prod * n ** (-(sigma + 2 * q + 1)) * floor


def _choose_em_length(s: complex, cfg: EvalConfig, budget: float) -> int:
    if not cmath.isfinite(s):
        raise DomainError(f"series length needs a finite s, got {s}")
    n = max(16, int(abs(s.imag) / 3) + 1)
    while n <= cfg.max_terms:
        if _em_truncation_bound(s, n, cfg.em_order) <= budget:
            return n
        n *= 2
    raise ConvergenceError(
        f"Euler-Maclaurin tail cannot reach tol={cfg.tol} within "
        f"max_terms={cfg.max_terms} at s={s}"
    )


def _power_sum(s: complex, n_last: int) -> complex:
    """sum_{n=1}^{n_last} n^-s via a vectorised power evaluation."""
    n = np.arange(1, n_last + 1, dtype=np.float64)
    return complex(np.sum(n ** (-complex(s))))


def _bernoulli_tail(s: complex, n: int, order: int) -> complex:
    """sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * n^(-s-2k+1); s may be an array."""
    total = 0.0 + 0.0j
    for k in range(1, order + 1):
        coeff = _BERNOULLI[k] / math.factorial(2 * k)
        total += coeff * _rising(s, 2 * k - 1) * n ** (-s - (2 * k - 1))
    return total


def eval_zeta(s: complex, cfg: EvalConfig = _DEFAULT_CFG) -> complex:
    """Riemann zeta via Euler-Maclaurin summation, valid for Re s > 0, s != 1.

    zeta(s) = sum_{n<=N} n^-s + N^(1-s)/(s-1) - N^-s/2 + Bernoulli terms,
    with N chosen adaptively from the remainder bound.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError(f"eval_zeta needs Re s > 0, got {s}")
    if abs(s - 1) < 1e-14:
        raise PoleError(f"s={s} is within the guard radius of the pole at 1")
    n = _choose_em_length(s, cfg, 0.5 * cfg.tol)
    partial = _power_sum(s, n)
    tail = n ** (1 - s) / (s - 1) - 0.5 * n ** (-s)
    return partial + tail + _bernoulli_tail(s, n, cfg.em_order)


def _expm1_ratio(w: complex) -> complex:
    """(e^w - 1) / w, stable near w = 0."""
    if abs(w) < 0.25:
        term = 1.0 + 0.0j
        total = 1.0 + 0.0j
        k = 1
        while True:
            term *= w / (k + 1)
            total += term
            if abs(term) < 1e-20:
                return total
            k += 1
    return (cmath.exp(w) - 1.0) / w


def eval_zeta_remainder(z: complex, cfg: EvalConfig = _DEFAULT_CFG) -> complex:
    """The entire part of zeta: h(z) = zeta(z) - 1/(z-1), for Re z > 0.

    The pole is cancelled analytically inside the Euler-Maclaurin tail:
    N^(1-z)/(z-1) - 1/(z-1) = -log(N) * phi((1-z) log N) with
    phi(w) = (e^w - 1)/w, so the formula is regular at z = 1.
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError(f"eval_zeta_remainder needs Re z > 0, got {z}")
    n = _choose_em_length(z, cfg, 0.5 * cfg.tol)
    log_n = math.log(n)
    partial = _power_sum(z, n)
    pole_free = -log_n * _expm1_ratio((1 - z) * log_n)
    return partial + pole_free - 0.5 * n ** (-z) + _bernoulli_tail(z, n, cfg.em_order)


# ---------------------------------------------------------------------------
# gamma and incomplete gamma
# ---------------------------------------------------------------------------

def eval_gamma(x: float) -> float:
    """Gamma function for real x > 0, below the double-precision overflow."""
    if not x > 0:
        raise DomainError(f"eval_gamma needs x > 0, got {x}")
    if x > 171.6:
        raise DomainError(f"gamma({x}) overflows double precision")
    try:
        return math.gamma(x)
    except OverflowError:  # x below about 5.6e-309, where gamma(x) ~ 1/x
        raise DomainError(f"gamma({x}) overflows double precision") from None


def _lower_gamma_series(a: float, z: complex) -> complex:
    """sum_{n>=0} z^n / (a (a+1) ... (a+n)); gamma_lower = z^a e^-z * this."""
    term = 1.0 / a
    total = term
    for n_it in range(1, _MAX_SPECIAL_ITER):
        term *= z / (a + n_it)
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            return total
    raise ConvergenceError(f"incomplete gamma series stalled at a={a}, z={z}")


def _upper_gamma_cf(a: float, z: complex) -> complex:
    """Continued fraction for Gamma(a, z), |z| large-ish; modified Lentz."""
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_SPECIAL_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return cmath.exp(-z) * z**a * h
    raise ConvergenceError(f"incomplete gamma continued fraction stalled at a={a}, z={z}")


def _exp_integral_e1(z: complex) -> complex:
    """E_1(z) = Gamma(0, z) for Re z > 0."""
    if abs(z) <= 1.5:
        # -euler_gamma - log z + sum (-1)^(k+1) z^k / (k k!)
        total = -EULER_GAMMA - cmath.log(z)
        term = 1.0 + 0.0j
        for k in range(1, _MAX_SPECIAL_ITER):
            term *= -z / k
            contrib = -term / k
            total += contrib
            if abs(contrib) < 1e-18 * max(1.0, abs(total)):
                return total
        raise ConvergenceError(f"E1 series stalled at z={z}")
    return _upper_gamma_cf(0.0, z)


def eval_upper_gamma(a: float, z: complex) -> complex:
    """Upper incomplete gamma Gamma(a, z) for Re z > 0 and real a >= 0.

    Power series (through the lower incomplete function) for |z| < a + 1,
    continued fraction otherwise.
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError(f"eval_upper_gamma needs Re z > 0, got {z}")
    if a < 0:
        # Recurse upward: Gamma(a, z) = (Gamma(a+1, z) - z^a e^-z) / a.
        shift = math.ceil(-a)
        val = eval_upper_gamma(a + shift, z)
        for j in range(shift - 1, -1, -1):
            aj = a + j
            val = (val - z**aj * cmath.exp(-z)) / aj
        return val
    if a == 0.0:
        return _exp_integral_e1(z)
    if abs(z) < a + 1.0:
        lower = z**a * cmath.exp(-z) * _lower_gamma_series(a, z)
        return eval_gamma(a) - lower
    return _upper_gamma_cf(a, z)


# ---------------------------------------------------------------------------
# weighted zeta: sum n^-s log(n+1)^-alpha
# ---------------------------------------------------------------------------


def _weight_partial_sum(alpha: float, s: complex, n_excl: int) -> complex:
    """sum_{n=1}^{n_excl - 1} n^-s log(n+1)^-alpha."""
    if n_excl <= 1:
        return 0.0 + 0.0j
    n = np.arange(1, n_excl, dtype=np.float64)
    return complex(np.sum(n ** (-complex(s)) * np.log(n + 1.0) ** (-alpha)))


def _weight_term_derivs(alpha: float, s, x: float):
    """g, g', g''' for g(x) = x^-s log(x+1)^-alpha at real x.

    s may be a complex scalar or a numpy array of them (elementwise).
    """
    u = x ** (-s)
    u1 = -s * u / x
    u2 = s * (s + 1) * u / (x * x)
    u3 = -s * (s + 1) * (s + 2) * u / (x * x * x)
    lg = math.log(x + 1.0)
    xp = x + 1.0
    m = lg**-alpha
    m1 = -alpha * lg ** (-alpha - 1) / xp
    m2 = (alpha * (alpha + 1) * lg ** (-alpha - 2) + alpha * lg ** (-alpha - 1)) / (xp * xp)
    m3 = -(
        alpha * (alpha + 1) * (alpha + 2) * lg ** (-alpha - 3)
        + 3 * alpha * (alpha + 1) * lg ** (-alpha - 2)
        + 2 * alpha * lg ** (-alpha - 1)
    ) / (xp * xp * xp)
    g = u * m
    g1 = u1 * m + u * m1
    g3 = u3 * m + 3 * u2 * m1 + 3 * u1 * m2 + u * m3
    return g, g1, g3


def _weighted_trunc_bound(alpha: float, s: complex, n: int, order: int) -> float:
    """Majorant for the first omitted Euler-Maclaurin term of the weighted tail.

    order is the number of derivative corrections retained (1 -> g',
    2 -> g' and g'''); the dropped term involves g^(3) resp. g^(5).  s and
    n may be numpy arrays (elementwise).
    """
    sigma = s.real
    k = 2 * order + 1  # derivative order of the first omitted term
    log = np.log if isinstance(n, np.ndarray) else math.log
    lg_lo, lg_hi = log(n), log(n + 1.0)
    lfac = lg_hi**-alpha if alpha <= 0 else lg_lo**-alpha
    prod = 1.0
    for j in range(k):
        prod *= abs(s) + j + abs(alpha)
    coeff = abs(_BERNOULLI[order + 1]) / math.factorial(2 * order + 2)
    return 2.0 * coeff * prod * n ** (-(sigma + k)) * lfac


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _log_shift_delta(alpha: float, x: np.ndarray) -> np.ndarray:
    """log(x+1)^-alpha - log(x)^-alpha without cancellation."""
    lg0 = np.log(x)
    return lg0**-alpha * np.expm1(-alpha * np.log1p(np.log1p(1.0 / x) / lg0))


def _shift_correction_integral(alpha: float, s: complex, n: int, tol: float) -> complex:
    """integral_n^inf x^-s (log(x+1)^-alpha - log(x)^-alpha) dx.

    Substituting x = n e^v turns the domain into [0, inf); the integrand
    decays like e^(-sigma v) and oscillates at frequency |Im s|, so a
    composite 8-point Gauss-Legendre rule with phase-resolving panels is
    accurate to far below tol.  Blocks of the v-axis are added until their
    contribution is negligible.
    """
    if alpha == 0.0:
        return 0.0 + 0.0j
    sigma = s.real
    freq = abs(s.imag) + 1.0
    h = min(0.5, 2.0 * math.pi / (4.0 * freq))
    block = 5.0 / min(sigma, 2.0)
    panels_per_block = max(1, math.ceil(block / h))
    one_minus_s = 1.0 - s

    total = 0.0 + 0.0j
    v_lo = 0.0
    for _ in range(64):
        edges = v_lo + (block / panels_per_block) * np.arange(panels_per_block + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1] - edges[0])
        v = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
        x = n * np.exp(v)
        vals = np.exp(one_minus_s * v) * _log_shift_delta(alpha, x)
        contrib = complex(np.sum((vals * np.tile(_GL_WEIGHTS, panels_per_block)))) * half
        contrib *= n ** complex(1.0 - s)
        total += contrib
        v_lo += block
        if abs(contrib) < 0.05 * tol:
            return total
    raise ConvergenceError(
        f"shift correction integral did not settle for alpha={alpha}, s={s}"
    )


def _choose_weighted_length(alpha: float, s: complex, cfg: EvalConfig, order: int,
                            budget: float) -> int:
    if not cmath.isfinite(s):
        raise DomainError(f"series length needs a finite s, got {s}")
    n = max(16, int(abs(s.imag) / 2) + 1)
    while n <= cfg.max_terms:
        try:
            if _weighted_trunc_bound(alpha, s, n, order) <= budget:
                return n
        except OverflowError:  # a large |alpha|: the bound passes double range
            pass
        n *= 2
    raise ConvergenceError(
        f"weighted tail cannot reach tol={cfg.tol} within "
        f"max_terms={cfg.max_terms} at alpha={alpha}, s={s}"
    )


def _weighted_regular_part(alpha: float, s: complex, cfg: EvalConfig):
    """Everything except the log-power tail integral.

    Returns (value, n) with value = partial sum + endpoint + Bernoulli
    corrections + shift-correction integral; the remaining tail piece is
    integral_n^inf x^-s log(x)^-alpha dx = (s-1)^(alpha-1) Gamma(1-alpha, w),
    w = (s-1) log n.
    """
    order = min(cfg.em_order, 2)
    n = _choose_weighted_length(alpha, s, cfg, order, cfg.tol / 3.0)
    partial = _weight_partial_sum(alpha, s, n)
    g, g1, g3 = _weight_term_derivs(alpha, s, float(n))
    endpoint = 0.5 * g - g1 / 12.0
    if order >= 2:
        endpoint += g3 / 720.0
    corr = _shift_correction_integral(alpha, s, n, cfg.tol / 3.0)
    return partial + endpoint + corr, n


def eval_weighted_zeta(p: WeightedZetaParams, s: complex,
                       cfg: EvalConfig = _DEFAULT_CFG) -> complex:
    """sum_{n>=1} n^-s log(n+1)^-alpha for Re s > 1.

    Truncated sum plus Euler-Maclaurin endpoint corrections plus a tail
    integral in closed form through the upper incomplete gamma function.
    """
    s = complex(s)
    if s.real <= 1:
        raise DomainError(f"eval_weighted_zeta needs Re s > 1, got {s}")
    regular, n = _weighted_regular_part(p.alpha, s, cfg)
    w = (s - 1) * math.log(n)
    if p.alpha == 1.0:
        tail = _exp_integral_e1(w)
    else:
        a = 1.0 - p.alpha
        tail = (s - 1) ** complex(p.alpha - 1) * eval_upper_gamma(a, w)
    return regular + tail


def eval_weighted_remainder(p: WeightedZetaParams, z: complex,
                            cfg: EvalConfig = _DEFAULT_CFG) -> complex:
    """Weighted zeta minus its singular part, stable down to z -> 1.

    For alpha < 1 the singular part is gamma(1-alpha) (z-1)^(alpha-1); for
    alpha = 1 it is log 1/(z-1).  Near z = 1 the subtraction is folded into
    the tail integral: the difference Gamma(a, w) - Gamma(a) is the lower
    incomplete gamma at w = (z-1) log N, whose series cancels the (z-1)
    powers exactly, so no large quantities are ever subtracted.
    """
    z = complex(z)
    if z.real <= 1:
        raise DomainError(f"eval_weighted_remainder needs Re z > 1, got {z}")
    alpha = p.alpha
    regular, n = _weighted_regular_part(alpha, z, cfg)
    log_n = math.log(n)
    w = (z - 1) * log_n
    if alpha == 1.0:
        if abs(w) <= 1.5:
            # E_1(w) + log(z-1) = -euler_gamma - log log n + sum (-1)^(k+1) w^k/(k k!)
            series = 0.0 + 0.0j
            term = 1.0 + 0.0j
            for k in range(1, _MAX_SPECIAL_ITER):
                term *= -w / k
                series -= term / k
                if abs(term) < 1e-18:
                    break
            return regular - EULER_GAMMA - math.log(log_n) + series
        return regular + _exp_integral_e1(w) + cmath.log(z - 1)
    a = 1.0 - alpha
    if abs(w) < a + 1.0:
        folded = log_n**a * cmath.exp(-w) * _lower_gamma_series(a, w)
        return regular - folded
    lead = eval_gamma(a) * (z - 1) ** complex(alpha - 1)
    return regular + (z - 1) ** complex(alpha - 1) * eval_upper_gamma(a, w) - lead


# ---------------------------------------------------------------------------
# outer form: every z = s_l + conj(w_j) of two point lists at once
# ---------------------------------------------------------------------------
#
# The kernel matrices of the Dirichlet-series spaces need the series at all
# pairwise sums z = s_l + conj(w_j).  Since n^-(s_l + conj(w_j)) =
# n^-s_l conj(n^-w_j), a truncated sum with weights c_n is the product
# A diag(c) B^H with A[l, n] = n^-s_l and B[j, n] = n^-w_j; so is the
# shift-correction quadrature on its nodes x.  The whole matrix shares one
# length N, the largest that the scalar doubling rule picks for any entry
# (re-checked for every entry at that N), and one quadrature grid, so every
# entry meets the scalar truncation budgets.  The values are not bitwise
# those of the scalar evaluators: each product adds rounding of at most
# about N u sum_n |c_n n^-Re z| (u the unit roundoff) to an entry, and the
# phases of A and B are rounded separately, which adds about
# (|Im s_l| + |Im w_j|) log N u per term.

# slice length along the term and node axes, so that no intermediate array
# holds more than (number of points) x _SLICE entries
_SLICE = 1024


def _outer_sum(s: np.ndarray, w: np.ndarray, log_x: np.ndarray,
               weights: np.ndarray) -> np.ndarray:
    """sum_i weights_i x_i^-(s_l + conj(w_j)) for all l, j, sliced along i.

    w may be the very array s, which then serves for both factors.
    """
    out = np.zeros((len(s), len(w)), dtype=np.complex128)
    for lo in range(0, len(log_x), _SLICE):
        lg = log_x[lo:lo + _SLICE]
        a = np.exp(np.multiply.outer(-s, lg))
        b = a if w is s else np.exp(np.multiply.outer(-w, lg))
        out += (a * weights[lo:lo + _SLICE]) @ b.conj().T
    return out


def _shared_length(z: np.ndarray, n: np.ndarray, bound, cfg: EvalConfig,
                   budget: float, failure) -> int:
    """One series length for all of z.

    Each entry doubles its own start length n until bound(z, n) <= budget,
    as the scalar rule does; the largest of these is then checked for every
    entry, and the doubling goes on until all entries meet the budget at
    one length.  failure(z_k) is the ConvergenceError message for an entry
    whose length would pass cfg.max_terms.
    """
    while True:
        over_cap = n > cfg.max_terms
        if over_cap.any():
            raise ConvergenceError(failure(complex(z[over_cap][0])))
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: not met
            over = ~(bound(z, n) <= budget)
        if over.any():
            n = np.where(over, 2 * n, n)
        elif n.min() < n.max():
            n = np.full(n.shape, n.max())
        else:
            return int(n.flat[0])


def _pair_sums(s, w, name: str):
    """(s, w, z) as complex arrays with z = s_l + conj(w_j); w stays the
    very array s when it was given as s."""
    same = w is s
    s = np.asarray(s, dtype=np.complex128)
    w = s if same else np.asarray(w, dtype=np.complex128)
    z = np.add.outer(s, np.conj(w))
    if not (np.all(np.isfinite(z)) and np.all(z.real > 1.0)):
        raise DomainError(f"{name} needs finite s + conj(w) with real part > 1")
    return s, w, z


def eval_zeta_outer(s, w, cfg: EvalConfig = _DEFAULT_CFG) -> np.ndarray:
    """Z[l, j] = zeta(s_l + conj(w_j)) for Re(s_l + conj(w_j)) > 1.

    eval_zeta's Euler-Maclaurin formula with one N for the whole matrix;
    each entry is within cfg.tol of eval_zeta at the same point.
    """
    s, w, z = _pair_sums(s, w, "eval_zeta_outer")
    n0 = np.maximum(16, (np.abs(z.imag) / 3).astype(np.int64) + 1)
    n = _shared_length(
        z, n0, lambda zz, nn: _em_truncation_bound(zz, nn, cfg.em_order), cfg,
        0.5 * cfg.tol,
        lambda zk: f"Euler-Maclaurin tail cannot reach tol={cfg.tol} within "
                   f"max_terms={cfg.max_terms} at s={zk}")
    terms = np.arange(1, n + 1, dtype=np.float64)
    out = _outer_sum(s, w, np.log(terms), np.ones(n))
    out += n ** (1 - z) / (z - 1) - 0.5 * n ** (-z)
    return out + _bernoulli_tail(z, n, cfg.em_order)


def _shift_correction_outer(alpha: float, s: np.ndarray, w: np.ndarray,
                            z: np.ndarray, n: int, tol: float) -> np.ndarray:
    """_shift_correction_integral at every z = s_l + conj(w_j), on one grid.

    The panels resolve the largest |Im z| and the blocks span the length
    the smallest Re z needs; a block's nodes x = n e^v enter the product
    with weights GL * half * delta(x) * x, since dx = x dv.  Blocks are
    added until the largest contribution of a block is below 0.05 tol.
    """
    if alpha == 0.0:
        return np.zeros(z.shape, dtype=np.complex128)
    freq = float(np.max(np.abs(z.imag))) + 1.0
    h = min(0.5, 2.0 * math.pi / (4.0 * freq))
    block = 5.0 / min(float(np.min(z.real)), 2.0)
    panels_per_block = max(1, math.ceil(block / h))
    half = 0.5 * block / panels_per_block
    mid = (block / panels_per_block) * (np.arange(panels_per_block) + 0.5)
    v_block = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    gl_half = np.tile(_GL_WEIGHTS, panels_per_block) * half

    total = np.zeros(z.shape, dtype=np.complex128)
    for k in range(64):
        x = n * np.exp(k * block + v_block)
        contrib = _outer_sum(s, w, np.log(x), gl_half * _log_shift_delta(alpha, x) * x)
        total += contrib
        if np.max(np.abs(contrib)) < 0.05 * tol:
            return total
    raise ConvergenceError(
        f"shift correction integral did not settle for alpha={alpha} on "
        f"{z.size} points"
    )


def _lower_gamma_series_array(a: float, z: np.ndarray) -> np.ndarray:
    """_lower_gamma_series elementwise on a 1-d array."""
    out = np.empty(z.shape, dtype=np.complex128)
    idx = np.arange(z.size)
    term = np.full(z.shape, 1.0 / a, dtype=np.complex128)
    total = term.copy()
    for n_it in range(1, _MAX_SPECIAL_ITER):
        if idx.size == 0:
            return out
        term *= z / (a + n_it)
        total += term
        done = np.abs(term) < 1e-18 * np.maximum(1.0, np.abs(total))
        out[idx[done]] = total[done]
        keep = ~done
        idx, z, term, total = idx[keep], z[keep], term[keep], total[keep]
    if idx.size == 0:
        return out
    raise ConvergenceError(f"incomplete gamma series stalled at a={a}, z={z[0]}")


def _exp_integral_e1_series_array(z: np.ndarray) -> np.ndarray:
    """The |z| <= 1.5 series of _exp_integral_e1 elementwise on a 1-d array."""
    out = np.empty(z.shape, dtype=np.complex128)
    idx = np.arange(z.size)
    total = -EULER_GAMMA - np.log(z)
    term = np.ones(z.shape, dtype=np.complex128)
    for k in range(1, _MAX_SPECIAL_ITER):
        if idx.size == 0:
            return out
        term *= -z / k
        contrib = -term / k
        total += contrib
        done = np.abs(contrib) < 1e-18 * np.maximum(1.0, np.abs(total))
        out[idx[done]] = total[done]
        keep = ~done
        idx, z, term, total = idx[keep], z[keep], term[keep], total[keep]
    if idx.size == 0:
        return out
    raise ConvergenceError(f"E1 series stalled at z={z[0]}")


def _upper_gamma_cf_array(a: float, z: np.ndarray) -> np.ndarray:
    """_upper_gamma_cf (modified Lentz) elementwise on a 1-d array."""
    tiny = 1e-300
    out = np.empty(z.shape, dtype=np.complex128)
    idx = np.arange(z.size)
    b = z + 1.0 - a
    c = np.full(z.shape, 1.0 / tiny, dtype=np.complex128)
    d = 1.0 / np.where(b != 0, b, tiny)
    h = d.copy()
    for i in range(1, _MAX_SPECIAL_ITER):
        if idx.size == 0:
            return out
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < 1e-16
        zd = z[done]
        out[idx[done]] = np.exp(-zd) * zd**a * h[done]
        keep = ~done
        idx, z, b, c, d, h = idx[keep], z[keep], b[keep], c[keep], d[keep], h[keep]
    if idx.size == 0:
        return out
    raise ConvergenceError(f"incomplete gamma continued fraction stalled at a={a}, z={z[0]}")


def _upper_gamma_array(a: float, z: np.ndarray) -> np.ndarray:
    """eval_upper_gamma(a, z) elementwise for a >= 0 and Re z > 0, with the
    scalar code's branches, stopping tests and iteration cap."""
    flat = z.ravel()
    out = np.empty(flat.shape, dtype=np.complex128)
    if a == 0.0:
        near = np.abs(flat) <= 1.5
        out[near] = _exp_integral_e1_series_array(flat[near])
    else:
        near = np.abs(flat) < a + 1.0
        zn = flat[near]
        out[near] = eval_gamma(a) - zn**a * np.exp(-zn) * _lower_gamma_series_array(a, zn)
    out[~near] = _upper_gamma_cf_array(a, flat[~near])
    return out.reshape(z.shape)


def eval_weighted_zeta_outer(p: WeightedZetaParams, s, w,
                             cfg: EvalConfig = _DEFAULT_CFG) -> np.ndarray:
    """Z[l, j] = eval_weighted_zeta(p, s_l + conj(w_j)) for Re > 1.

    The same pieces as the scalar evaluator (truncated sum, endpoint
    corrections, shift-correction integral, incomplete-gamma tail) with
    one N and one quadrature grid for the whole matrix; each entry is
    within cfg.tol of eval_weighted_zeta at the same point.
    """
    alpha = p.alpha
    s, w, z = _pair_sums(s, w, "eval_weighted_zeta_outer")
    order = min(cfg.em_order, 2)
    n0 = np.maximum(16, (np.abs(z.imag) / 2).astype(np.int64) + 1)
    n = _shared_length(
        z, n0, lambda zz, nn: _weighted_trunc_bound(alpha, zz, nn, order), cfg,
        cfg.tol / 3.0,
        lambda zk: f"weighted tail cannot reach tol={cfg.tol} within "
                   f"max_terms={cfg.max_terms} at alpha={alpha}, s={zk}")
    terms = np.arange(1, n, dtype=np.float64)
    out = _outer_sum(s, w, np.log(terms), np.log(terms + 1.0) ** (-alpha))
    g, g1, g3 = _weight_term_derivs(alpha, z, float(n))
    out += 0.5 * g - g1 / 12.0
    if order >= 2:
        out += g3 / 720.0
    out += _shift_correction_outer(alpha, s, w, z, n, cfg.tol / 3.0)
    tail = _upper_gamma_array(1.0 - alpha, (z - 1) * math.log(n))
    if alpha != 1.0:
        tail *= (z - 1) ** (alpha - 1)
    return out + tail
