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

Each series has one evaluator, over every s_l + conj(w_j) of two lists
of points with one series length N and one quadrature grid (see the
section "the series over an array of points"); eval_zeta_outer and
eval_weighted_zeta_outer are its public forms.  A plain list of points
z_k is the n x 1 form with w = [0].  The scalar entry points are one-point
calls of it that add their pole or tail term in scalar arithmetic.
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


def _em_truncation_bound(s: np.ndarray, n: np.ndarray, order: int) -> np.ndarray:
    """Upper bound on the dropped Euler-Maclaurin remainder for x^-s tails.

    The remainder after `order` Bernoulli terms is bounded by the first
    omitted term times |s + 2q + 1| / (sigma + 2q + 1), elementwise over
    the arrays s and n.
    """
    sigma = s.real
    q = order
    lead = abs(_BERNOULLI[q + 1]) / math.factorial(2 * q + 2)
    prod = 1.0
    for j in range(2 * q + 1):
        prod *= abs(s + j)
    scale = abs(s + 2 * q + 1) / (sigma + 2 * q + 1)
    return lead * prod * n ** (-(sigma + 2 * q + 1)) * np.maximum(1.0, scale)


def _bernoulli_tail(s: np.ndarray, n: int, order: int) -> np.ndarray:
    """sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * n^(-s-2k+1), elementwise over s.

    The rising product gains two factors per k, multiplied in the order
    that a product built afresh for each k would use.
    """
    total = 0.0 + 0.0j
    rising = 1.0 + 0.0j
    for k in range(1, order + 1):
        for j in range(max(0, 2 * k - 3), 2 * k - 1):
            rising = rising * (s + j)
        coeff = _BERNOULLI[k] / math.factorial(2 * k)
        total += coeff * rising * n ** (-s - (2 * k - 1))
    return total


# ---------------------------------------------------------------------------
# the series over an array of points
# ---------------------------------------------------------------------------
#
# Each series is evaluated over an array of points z with one length N, the
# largest that the doubling rule picks for any point (re-checked for every
# point at that N), and one quadrature grid, so every point meets the
# truncation budgets.  The points are the pairwise sums z = s_l + conj(w_j)
# that the kernel matrices of the Dirichlet-series spaces need (a plain list
# z_k is the column w = [0]).  Since n^-(s_l + conj(w_j)) = n^-s_l
# conj(n^-w_j), a truncated sum with weights c_n over the pairwise sums is
# the product A diag(c) B^H with A[l, n] = n^-s_l and B[j, n] = n^-w_j; so
# is the shift-correction quadrature on its nodes x.  Each product adds rounding
# of at most about N u sum_n |c_n n^-Re z| (u the unit roundoff) to an
# entry, and the phases of A and B are rounded separately, which adds about
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


def _shared_length(z: np.ndarray, div: float, bound, cfg: EvalConfig,
                   budget: float, failure) -> int:
    """One series length for all of z.

    Each entry starts at max(16, floor(|Im z| / div) + 1) and doubles until
    bound(z, n) <= budget; the largest of these lengths is then checked for
    every entry, and the doubling goes on until all entries meet the budget
    at one length.  failure(z_k) is the ConvergenceError message for an
    entry whose length would pass cfg.max_terms.
    """
    if not np.all(np.isfinite(z)):
        raise DomainError(f"series length needs a finite s, got {z[~np.isfinite(z)][0]}")
    # clipped at max_terms, which is over the cap anyway, because the int64
    # cast overflows once |Im z| passes about 2e19
    n = np.maximum(16, np.minimum(np.abs(z.imag) / div, cfg.max_terms).astype(np.int64) + 1)
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


def _series_points(s, w, name: str):
    """(s, w, z) as complex arrays with z = s_l + conj(w_j); w stays the
    very array s when it was given as s."""
    same = w is s
    s = np.asarray(s, dtype=np.complex128)
    w = s if same else np.asarray(w, dtype=np.complex128)
    z = np.add.outer(s, np.conj(w))
    bad = ~(np.isfinite(z) & (z.real > 1.0))
    if bad.any():
        raise DomainError(f"{name} needs finite s + conj(w) with real part > 1, got {z[bad][0]}")
    return s, w, z


def _one_point(s: complex):
    """(s, w, z) for the series at the single point s, unchecked: the 1 x 1
    form with w = [0], whose entry is s + conj(0) = s."""
    a = np.array([s])
    return a, np.zeros(1, dtype=np.complex128), a[:, None]


def _zeta_series(s: np.ndarray, w, z: np.ndarray, cfg: EvalConfig,
                 pole=None) -> np.ndarray:
    """eval_zeta's formula at every z = s_l + conj(w_j) with one N: the
    sum over n <= N, then pole(N) - N^-z/2, then the Bernoulli terms.
    pole(n) defaults to n^(1-z)/(z-1); it is added in that place because the
    kernel matrices' last bits depend on the order of the sums."""
    if z.size == 0:
        return np.zeros(z.shape, dtype=np.complex128)
    n = _shared_length(
        z, 3, lambda zz, nn: _em_truncation_bound(zz, nn, cfg.em_order), cfg,
        0.5 * cfg.tol,
        lambda zk: f"Euler-Maclaurin tail cannot reach tol={cfg.tol} within "
                   f"max_terms={cfg.max_terms} at s={zk}")
    terms = np.arange(1, n + 1, dtype=np.float64)
    out = _outer_sum(s, w, np.log(terms), np.ones(n))
    out += (n ** (1 - z) / (z - 1) if pole is None else pole(n)) - 0.5 * n ** (-z)
    return out + _bernoulli_tail(z, n, cfg.em_order)


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
    return complex(_zeta_series(*_one_point(s), cfg)[0, 0])


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

    def pole_free(n: int) -> complex:
        log_n = math.log(n)
        return -log_n * _expm1_ratio((1 - z) * log_n)

    return complex(_zeta_series(*_one_point(z), cfg, pole_free)[0, 0])


def eval_zeta_outer(s, w, cfg: EvalConfig = _DEFAULT_CFG) -> np.ndarray:
    """Z[l, j] = zeta(s_l + conj(w_j)) for Re(s_l + conj(w_j)) > 1.

    eval_zeta's Euler-Maclaurin formula with one N for the whole matrix;
    each entry is within cfg.tol of eval_zeta at the same point.
    """
    return _zeta_series(*_series_points(s, w, "eval_zeta_outer"), cfg)


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


def _weighted_trunc_bound(alpha: float, s: np.ndarray, n: np.ndarray,
                          order: int) -> np.ndarray:
    """Majorant for the first omitted Euler-Maclaurin term of the weighted tail.

    order is the number of derivative corrections retained (1 -> g',
    2 -> g' and g'''); the dropped term involves g^(3) resp. g^(5).
    Elementwise over the arrays s and n.
    """
    sigma = s.real
    k = 2 * order + 1  # derivative order of the first omitted term
    lg_lo, lg_hi = np.log(n), np.log(n + 1.0)
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


def _shift_correction(alpha: float, s: np.ndarray, w, z: np.ndarray, n: int,
                      tol: float) -> np.ndarray:
    """integral_n^inf x^-z (log(x+1)^-alpha - log(x)^-alpha) dx at every
    z = s_l + conj(w_j), on one grid.

    Substituting x = n e^v turns the domain into [0, inf); the integrand
    decays like e^(-Re z v) and oscillates at frequency |Im z|, so a
    composite 8-point Gauss-Legendre rule with panels that resolve the
    largest |Im z| is accurate to far below tol.  The v-axis is covered in
    blocks as long as the smallest Re z needs, added until the largest
    contribution of a block is below 0.05 tol; a block's nodes x = n e^v
    enter _outer_sum with weights GL * half * delta(x) * x, since dx = x dv.
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


def _weighted_regular(alpha: float, s: np.ndarray, w, z: np.ndarray,
                      cfg: EvalConfig):
    """(value, N) at every z = s_l + conj(w_j) with one N: the sum over
    n < N, the endpoint corrections and the shift-correction
    integral.  The rest is the tail integral_N^inf x^-z log(x)^-alpha dx =
    (z-1)^(alpha-1) Gamma(1-alpha, (z-1) log N)."""
    order = min(cfg.em_order, 2)
    n = _shared_length(
        z, 2, lambda zz, nn: _weighted_trunc_bound(alpha, zz, nn, order), cfg,
        cfg.tol / 3.0,
        lambda zk: f"weighted tail cannot reach tol={cfg.tol} within "
                   f"max_terms={cfg.max_terms} at alpha={alpha}, s={zk}")
    terms = np.arange(1, n, dtype=np.float64)
    out = _outer_sum(s, w, np.log(terms), np.log(terms + 1.0) ** (-alpha))
    g, g1, g3 = _weight_term_derivs(alpha, z, float(n))
    out += 0.5 * g - g1 / 12.0
    if order >= 2:
        out += g3 / 720.0
    out += _shift_correction(alpha, s, w, z, n, cfg.tol / 3.0)
    return out, n


def eval_weighted_zeta(p: WeightedZetaParams, s: complex,
                       cfg: EvalConfig = _DEFAULT_CFG) -> complex:
    """sum_{n>=1} n^-s log(n+1)^-alpha for Re s > 1.

    Truncated sum plus Euler-Maclaurin endpoint corrections plus a tail
    integral in closed form through the upper incomplete gamma function.
    """
    s = complex(s)
    if s.real <= 1:
        raise DomainError(f"eval_weighted_zeta needs Re s > 1, got {s}")
    regular, n = _weighted_regular(p.alpha, *_one_point(s), cfg)
    w = (s - 1) * math.log(n)
    if p.alpha == 1.0:
        tail = _exp_integral_e1(w)
    else:
        a = 1.0 - p.alpha
        tail = (s - 1) ** complex(p.alpha - 1) * eval_upper_gamma(a, w)
    return complex(regular[0, 0]) + tail


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
    regular, n = _weighted_regular(alpha, *_one_point(z), cfg)
    regular = complex(regular[0, 0])
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
# incomplete gamma over arrays, for the tails of the series over arrays
# ---------------------------------------------------------------------------

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


def _weighted_zeta_series(alpha: float, s: np.ndarray, w, z: np.ndarray,
                          cfg: EvalConfig) -> np.ndarray:
    """eval_weighted_zeta at every z = s_l + conj(w_j), with one N and one
    quadrature grid, and the tail through _upper_gamma_array."""
    if z.size == 0:
        return np.zeros(z.shape, dtype=np.complex128)
    out, n = _weighted_regular(alpha, s, w, z, cfg)
    tail = _upper_gamma_array(1.0 - alpha, (z - 1) * math.log(n))
    if alpha != 1.0:
        tail *= (z - 1) ** (alpha - 1)
    return out + tail


def eval_weighted_zeta_outer(p: WeightedZetaParams, s, w,
                             cfg: EvalConfig = _DEFAULT_CFG) -> np.ndarray:
    """Z[l, j] = eval_weighted_zeta(p, s_l + conj(w_j)) for Re > 1.

    The same pieces as the scalar evaluator (truncated sum, endpoint
    corrections, shift-correction integral, incomplete-gamma tail) with
    one N and one quadrature grid for the whole matrix; each entry is
    within cfg.tol of eval_weighted_zeta at the same point.
    """
    return _weighted_zeta_series(
        p.alpha, *_series_points(s, w, "eval_weighted_zeta_outer"), cfg)
