"""Evaluators for the Riemann zeta function, log-weighted zeta sums, their
pole-subtracted remainders, and the gamma / incomplete-gamma functions that
back the tail integrals.

All evaluators target an absolute truncation error below the configured
tolerance; rounding adds at most a few ulp of the result magnitude on top.
The weighted sums check that: at large negative alpha their parts cancel,
and they raise ConvergenceError where the estimated rounding of the parts,
less the share that scales with the result, passes the tolerance (see
_check_rounding).
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
z_k is the n x 1 form with w = [0].  The special function of the tails,
the incomplete gamma, also has one evaluator over arrays.  The scalar
entry points are one-point calls of these; the remainders add their
folded pole or tail term in scalar arithmetic.

The end terms at the series length N (the pole term N^(1-z)/(z-1),
-N^-z/2, the Bernoulli terms and the weighted endpoint derivatives) are
multiples of N^-z.  Since N^-(s_l + conj(w_j)) = N^-s_l conj(N^-w_j), N^-z
is one outer product of 2 powers per point, and each end term is that
factor times per-entry polynomial arithmetic in z, with
N^(-z-2k+1) = N^-z N^(1-2k); no complex power is taken per entry.  The
weighted sums' shift-correction quadrature runs on a grid sized by a
stated Gauss-Legendre error bound (see _shift_correction).
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

# unit roundoff of a double
_U = 2.0 ** -53


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


def _em_truncation_bound(s, order: int):
    """n -> upper bound on the dropped Euler-Maclaurin remainder for x^-s
    tails, elementwise over s and n.

    The remainder after `order` Bernoulli terms is bounded by the first
    omitted term times |s + 2q + 1| / (sigma + 2q + 1).  The factors that
    depend on s alone are computed here, once; the returned function only
    raises n to its power, in the same order of multiplication.
    """
    sigma = s.real
    q = order
    lead = abs(_BERNOULLI[q + 1]) / math.factorial(2 * q + 2)
    prod = 1.0
    for j in range(2 * q + 1):
        prod *= abs(s + j)
    scale = abs(s + 2 * q + 1) / (sigma + 2 * q + 1)
    front, power, back = lead * prod, -(sigma + 2 * q + 1), np.maximum(1.0, scale)
    return lambda n: front * n ** power * back


def _bernoulli_factor(s: np.ndarray, n: int, order: int) -> np.ndarray:
    """sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * n^(1-2k), elementwise over s:
    the Bernoulli terms of the Euler-Maclaurin tail divided by n^-s.

    The rising product gains two factors per k, multiplied in the order
    that a product built afresh for each k would use.
    """
    total = 0.0 + 0.0j
    rising = 1.0 + 0.0j
    for k in range(1, order + 1):
        for j in range(max(0, 2 * k - 3), 2 * k - 1):
            rising = rising * (s + j)
        total += _BERNOULLI[k] / math.factorial(2 * k) * float(n) ** (1 - 2 * k) * rising
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
# (|Im s_l| + |Im w_j|) log N u per term.  The end terms take their factor
# N^-z the same way, as _outer_sum at the one node N.

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
    bound(z)(n) <= budget; the largest of these lengths is then checked for
    every entry, and the doubling goes on until all entries meet the budget
    at one length.  bound(z) is called once, so what depends on z alone is
    not recomputed per doubling.  failure(z_k) is the ConvergenceError
    message for an entry whose length would pass cfg.max_terms.
    """
    if not np.all(np.isfinite(z)):
        raise DomainError(f"series length needs a finite s, got {z[~np.isfinite(z)][0]}")
    # clipped at max_terms, which is over the cap anyway, because the int64
    # cast overflows once |Im z| passes about 2e19
    n = np.maximum(16, np.minimum(np.abs(z.imag) / div, cfg.max_terms).astype(np.int64) + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: not met
        bound_at = bound(z)
        while True:
            over_cap = n > cfg.max_terms
            if over_cap.any():
                raise ConvergenceError(failure(complex(z[over_cap][0])))
            over = ~(bound_at(n) <= budget)
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
    sum over n <= N, then pole(N) - N^-z/2, then the Bernoulli terms, the
    end terms as multiples of the outer factor N^-z.  pole(n) defaults to
    n^(1-z)/(z-1) = n N^-z/(z-1); it is added in that place because the
    kernel matrices' last bits depend on the order of the sums."""
    if z.size == 0:
        return np.zeros(z.shape, dtype=np.complex128)
    n = _shared_length(
        z, 3, lambda zz: _em_truncation_bound(zz, cfg.em_order), cfg,
        0.5 * cfg.tol,
        lambda zk: f"Euler-Maclaurin tail cannot reach tol={cfg.tol} within "
                   f"max_terms={cfg.max_terms} at s={zk}")
    terms = np.arange(1, n + 1, dtype=np.float64)
    out = _outer_sum(s, w, np.log(terms), np.ones(n))
    p = _outer_sum(s, w, np.array([math.log(n)]), np.ones(1))
    out += (n * p / (z - 1) if pole is None else pole(n)) - 0.5 * p
    return out + p * _bernoulli_factor(z, n, cfg.em_order)


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


def _lower_gamma_series_array(a: float, z: np.ndarray) -> np.ndarray:
    """sum_{n>=0} z^n / (a (a+1) ... (a+n)) elementwise on a 1-d array, a > 0;
    the lower incomplete gamma is z^a e^-z times it.  An entry stops at its
    first term below 1e-18 max(1, |sum|); ConvergenceError if one needs
    _MAX_SPECIAL_ITER terms."""
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
    """E_1(z) = -euler_gamma - log z + sum_{k>=1} (-1)^(k+1) z^k / (k k!)
    elementwise on a 1-d array, for small |z|.  An entry stops at its first
    term below 1e-18 max(1, |sum|); ConvergenceError if one needs
    _MAX_SPECIAL_ITER terms."""
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
    """Gamma(a, z) = z^a e^-z / (z+1-a - 1(1-a) / (z+3-a - 2(2-a) / (z+5-a - ...)))
    elementwise on a 1-d array by modified Lentz, with 1e-300 for a vanishing
    denominator and z^a e^-z formed as exp(a log z - z), so that it is finite
    wherever the product is.  An entry stops at its first step factor delta
    with |delta - 1| < 1e-16; ConvergenceError if one needs _MAX_SPECIAL_ITER
    steps."""
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
        out[idx[done]] = np.exp(a * np.log(zd) - zd) * h[done]
        keep = ~done
        idx, z, b, c, d, h = idx[keep], z[keep], b[keep], c[keep], d[keep], h[keep]
    if idx.size == 0:
        return out
    raise ConvergenceError(f"incomplete gamma continued fraction stalled at a={a}, z={z[0]}")


def _upper_gamma_array(a: float, z: np.ndarray) -> np.ndarray:
    """Gamma(a, z) elementwise for a >= 0 and finite z with Re z > 0,
    unchecked: at a = 0, E_1(z) by its series at |z| <= 1.5; at a > 0,
    Gamma(a) minus the lower incomplete gamma by its series at |z| < a + 1,
    its prefactor z^a e^-z formed as exp(a log z - z); the continued
    fraction elsewhere."""
    flat = z.ravel()
    out = np.empty(flat.shape, dtype=np.complex128)
    if a == 0.0:
        near = np.abs(flat) <= 1.5
        out[near] = _exp_integral_e1_series_array(flat[near])
    else:
        near = np.abs(flat) < a + 1.0
        zn = flat[near]
        lower = np.exp(a * np.log(zn) - zn) * _lower_gamma_series_array(a, zn)
        out[near] = eval_gamma(a) - lower
    out[~near] = _upper_gamma_cf_array(a, flat[~near])
    return out.reshape(z.shape)


def eval_upper_gamma(a: float, z: complex) -> complex:
    """Upper incomplete gamma Gamma(a, z) for finite z with Re z > 0 and
    real a >= -_MAX_SPECIAL_ITER: a one-point call of _upper_gamma_array,
    for a < 0 at a + ceil(-a) and taken down to a by the recurrence
    Gamma(a, z) = (Gamma(a+1, z) - z^a e^-z) / a, with z^a e^-z formed as
    exp(a log z - z)."""
    z = complex(z)
    if not (math.isfinite(a) and a >= -_MAX_SPECIAL_ITER and cmath.isfinite(z) and z.real > 0):
        raise DomainError(f"eval_upper_gamma needs finite a >= -{_MAX_SPECIAL_ITER} and "
                          f"finite z with Re z > 0, got a={a}, z={z}")
    shift = max(0, math.ceil(-a))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: refused
            val = complex(_upper_gamma_array(a + shift, np.array([z]))[0])
        for j in range(shift - 1, -1, -1):
            val = (val - cmath.exp((a + j) * cmath.log(z) - z)) / (a + j)
        if cmath.isfinite(val):
            return val
    except OverflowError:  # z^(a+j) e^-z past the double range
        pass
    raise DomainError(f"eval_upper_gamma overflows double precision at a={a}, z={z}")


# ---------------------------------------------------------------------------
# weighted zeta: sum n^-s log(n+1)^-alpha
# ---------------------------------------------------------------------------


def _weight_term_derivs(alpha: float, s, x: float, u):
    """g, g', g''' for g(x) = x^-s log(x+1)^-alpha at real x, given the
    power u = x^-s: each is u times per-entry polynomial arithmetic in s.

    s and u may be complex scalars or numpy arrays of them (elementwise).
    """
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


def _weighted_trunc_bound(alpha: float, s, order: int):
    """n -> majorant for the first omitted Euler-Maclaurin term of the
    weighted tail, elementwise over s and n.

    order is the number of derivative corrections retained (1 -> g',
    2 -> g' and g'''); the dropped term involves g^(3) resp. g^(5).  The
    factors that depend on s alone are computed here, once; the returned
    function multiplies in the n-dependent ones in the same order.
    """
    sigma = s.real
    k = 2 * order + 1  # derivative order of the first omitted term
    prod = 1.0
    for j in range(k):
        prod *= abs(s) + j + abs(alpha)
    coeff = abs(_BERNOULLI[order + 1]) / math.factorial(2 * order + 2)
    front, power = 2.0 * coeff * prod, -(sigma + k)

    def at(n):
        lfac = np.log(n + 1.0) ** -alpha if alpha <= 0 else np.log(n) ** -alpha
        return front * n ** power * lfac
    return at


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
# the shift correction's blocks, at most, and its widest panel
_SHIFT_BLOCKS = 64
_MAX_PANEL = 0.5
# a ladder of Bernstein-ellipse parameters rho and the 8-point rule's error
# factor 64 / (15 (rho^2 - 1) rho^14) at each; see _shift_correction
_GL_RHO = np.geomspace(1.25, 64.0, 16)
_GL_ERR = 64.0 / (15.0 * (_GL_RHO ** 2 - 1.0) * _GL_RHO ** 14)


def _log_shift_delta(alpha: float, x: np.ndarray) -> np.ndarray:
    """log(x+1)^-alpha - log(x)^-alpha without cancellation."""
    lg0 = np.log(x)
    return lg0**-alpha * np.expm1(-alpha * np.log1p(np.log1p(1.0 / x) / lg0))


def _quadrature_bound(alpha: float, n: int, sigma: float, omega: float,
                      block: float, panels: np.ndarray) -> np.ndarray:
    """The Gauss-Legendre error bound of _shift_correction's docstring,
    summed over all _SHIFT_BLOCKS blocks, at each panel count per block of
    the array `panels`, with the best rho of _GL_RHO for each."""
    h = block / np.asarray(panels, dtype=np.float64)[:, None]
    a = 0.5 * (_GL_RHO + 1.0 / _GL_RHO)
    c = 0.25 * (_GL_RHO - 1.0 / _GL_RHO) * h
    lo = math.log(n) - 0.5 * (a - 1.0) * h
    hi = math.log(n) + block + 0.5 * (a - 1.0) * h
    k = np.arange(_SHIFT_BLOCKS)
    with np.errstate(all="ignore"):  # an inf or nan bound is not met
        later = np.sum(np.exp(-sigma * block * k)
                       * (1.0 + block * k / (math.log(n) + block)) ** max(0.0, -alpha))
        r = np.exp(-lo)
        e = r / ((1.0 - r) * lo)
        lam = lo ** -alpha if alpha > 0 else np.hypot(hi, c) ** -alpha
        m = (np.exp((1.0 - sigma) * lo + omega * c) * lam
             * abs(alpha) * e * (1.0 - e) ** -abs(alpha + 1.0))
        err = np.where((lo > 0.0) & (e < 1.0), _GL_ERR * m, np.inf)
        return 0.5 * block * later * np.min(err, axis=1)


def _panel_count(alpha: float, n: int, sigma: float, omega: float,
                 block: float, budget: float) -> int:
    """Panels per block for _shift_correction: the fewest, to within 1/16,
    with panel width at most _MAX_PANEL and _quadrature_bound <= budget.
    The bound falls as the count grows, so the count is found on a doubling
    ladder and then on sixteenths of the last doubling."""
    ladder = math.ceil(block / _MAX_PANEL) * 2 ** np.arange(25)
    met = _quadrature_bound(alpha, n, sigma, omega, block, ladder) <= budget
    if not met.any():
        raise ConvergenceError(
            f"shift correction quadrature cannot meet tol={budget:.3g} at "
            f"alpha={alpha}, n={n}, |Im z| up to {omega}")
    top = int(np.argmax(met))
    if top == 0:
        return int(ladder[0])
    fine = ladder[top - 1] * np.arange(17, 33) // 16
    met = _quadrature_bound(alpha, n, sigma, omega, block, fine) <= budget
    return int(fine[np.argmax(met)])


def _shift_correction(alpha: float, s: np.ndarray, w, z: np.ndarray, n: int,
                      tol: float) -> np.ndarray:
    """integral_n^inf x^-z (log(x+1)^-alpha - log(x)^-alpha) dx at every
    z = s_l + conj(w_j), on one grid.

    Substituting x = n e^v turns it into integral_0^inf F(v) dv with
    F(v) = x^(1-z) delta(x) and delta(x) = log(x+1)^-alpha - log(x)^-alpha.
    The v-axis is covered in blocks of length B = 5 / min(sigma, 2),
    sigma = min Re z, added until the largest contribution of a block is
    below 0.05 tol.  Each block is tiled by P panels of width h = B / P
    <= 1/2 with the 8-point Gauss-Legendre rule; its nodes x = n e^v enter
    _outer_sum with weights GL * h/2 * delta(x) * x, since dx = x dv.

    P is the fewest panels, to within 1/16, whose error bound summed over
    all _SHIFT_BLOCKS blocks is at most tol / 2 (the rest of tol is left to
    the blocks not added).  The bound: F is analytic but at v = -log n,
    where log(x)^-alpha branches, and at v = -log n + i pi (2j + 1), where
    x = -1; n >= 16.  If F is analytic inside the Bernstein ellipse with
    foci at a panel's ends and semi-axes a h/2, b h/2, where
    a, b = (rho +- 1/rho) / 2, and |F| <= M there, the 8-point rule errs
    on that panel by at most

        (h/2) 64 M / (15 (rho^2 - 1) rho^14)

    (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?", SIAM
    Rev. 50 (2008), Thm 4.5, at n = 7).  Every ellipse of block k lies in
    the box kB - d <= Re v <= (k+1)B + d, |Im v| <= c, with d = (a-1) h/2
    and c = b h/2.  On block 0's box, with l = log n - d the least
    Re log x, r = e^-l the largest |1/x|, L = |log n + B + d + i c| the
    largest |log x| and omega = max |Im z|:

        |x^(1-z)| <= e^((1 - sigma) l + omega c)        (|x| >= e^l > 1),
        delta = log(x)^-alpha ((1 + eps)^-alpha - 1) with
            eps = log(1 + 1/x) / log x, |eps| <= e = r / ((1 - r) l),
        |(1 + eps)^-alpha - 1| <= |alpha| e (1 - e)^-|alpha + 1|   (e < 1),
        |log(x)^-alpha| <= l^-alpha (alpha > 0), L^-alpha (alpha < 0),

    and M_0 is the product of these bounds.  Block k's box is block 0's
    moved by kB: l grows by kB, e falls to at most e^-kB times its value,
    and L grows by at most kB, a factor of at most 1 + kB / (log n + B)
    since L >= log n + B.  So M_k <= M_0 e^(-sigma kB)
    (1 + kB / (log n + B))^max(0, -alpha), and as each block's P panels
    have total width B, the summed bound is

        (B/2) 64 M_0 / (15 (rho^2 - 1) rho^14) sum_k e^(-sigma kB)
            (1 + kB / (log n + B))^max(0, -alpha),

    taken at the best rho of the ladder _GL_RHO (one with l <= 0 or
    e >= 1 is not used).  At the heights of a kernel matrix (|Im z| up to
    about 80, n a few hundred) this admits panels 1.2 to 1.4 periods
    2 pi / omega of the oscillation wide.
    """
    if alpha == 0.0:
        return np.zeros(z.shape, dtype=np.complex128)
    sigma = float(np.min(z.real))
    block = 5.0 / min(sigma, 2.0)
    panels_per_block = _panel_count(alpha, n, sigma, float(np.max(np.abs(z.imag))),
                                    block, 0.5 * tol)
    half = 0.5 * block / panels_per_block
    mid = (block / panels_per_block) * (np.arange(panels_per_block) + 0.5)
    v_block = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    gl_half = np.tile(_GL_WEIGHTS, panels_per_block) * half

    total = np.zeros(z.shape, dtype=np.complex128)
    for k in range(_SHIFT_BLOCKS):
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
    """(value, N, size) at every z = s_l + conj(w_j) with one N: the sum
    over n < N, the endpoint corrections and the shift-correction
    integral.  The rest is the tail integral_N^inf x^-z log(x)^-alpha dx =
    (z-1)^(alpha-1) Gamma(1-alpha, (z-1) log N).  The endpoint corrections
    are multiples of the outer factor N^-z.

    size = sum_{n<N} log(n+1)^-alpha n^-sigma, sigma the least Re z, is at
    least sum_n |log(n+1)^-alpha n^-z| at every entry: the scale of the
    rounding of the sum over n < N (see _check_rounding).
    """
    order = min(cfg.em_order, 2)
    n = _shared_length(
        z, 2, lambda zz: _weighted_trunc_bound(alpha, zz, order), cfg,
        cfg.tol / 3.0,
        lambda zk: f"weighted tail cannot reach tol={cfg.tol} within "
                   f"max_terms={cfg.max_terms} at alpha={alpha}, s={zk}")
    terms = np.arange(1, n, dtype=np.float64)
    log_terms = np.log(terms)
    weights = np.log(terms + 1.0) ** (-alpha)
    out = _outer_sum(s, w, log_terms, weights)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: refused
        size = float(np.sum(weights * np.exp(-float(np.min(z.real)) * log_terms)))
    power = _outer_sum(s, w, np.array([math.log(n)]), np.ones(1))
    g, g1, g3 = _weight_term_derivs(alpha, z, float(n), power)
    out += 0.5 * g - g1 / 12.0
    if order >= 2:
        out += g3 / 720.0
    out += _shift_correction(alpha, s, w, z, n, cfg.tol / 3.0)
    return out, n, size


def _check_rounding(alpha: float, value, moduli, n: int, size: float,
                    tol: float) -> None:
    """ConvergenceError where value, a sum of parts (the regular part, the
    tail and for a remainder the singular term) whose moduli sum to
    moduli, is not certain to tol.

    _outer_sum adds the N - 1 terms of the regular part, of moduli summing
    to at most size, in dot products of at most _SLICE terms and then adds
    the slices, so each term passes through at most
    c^2 = min(N, _SLICE) + N/_SLICE + 4 roundings (4 to form it).  The
    worst-case bound on the rounding of the sum is c^2 u size (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., eq. (4.4));
    the rule of thumb of its section 2.8, that independent roundings add
    up like sqrt(c^2) = c of them, gives the estimate c u size used here.
    Against mpmath at five points with |Im z| from 3 to 80 and alpha = -5
    to -12, the error is 0.5 to 14 u size wherever rounding dominates it,
    with c from 23 to 33; the estimate is 2.4 to 64 times the error there.
    The sum of the parts adds u moduli.

    Of that estimate, (c + 1) u |value| is rounding in proportion to the
    result, which any sum without cancellation carries: where the parts
    and terms all have one sign, size <= |value| and moduli = |value|.
    The rest,

        u (c (size - |value|) + moduli - |value|),

    is rounding that cancellation amplifies; where it passes tol the parts
    cancel more than a double can resolve.  At large negative alpha the
    terms grow like log(n)^-alpha, and the regular part and the tail like
    log(N)^-alpha, while their sum stays O(1).  The rounding of the
    exponent -z log n, about |z| log n u of each term, and of the tail's
    incomplete gamma are not counted, as for every series of this module.
    """
    c = math.sqrt(min(n, _SLICE) + n / _SLICE + 4)
    with np.errstate(over="ignore", invalid="ignore"):
        modulus = np.abs(value)
        excess = _U * (c * (size - modulus) + moduli - modulus)
    if not np.all(excess <= tol):
        worst = int(np.argmax(np.where(np.isnan(excess), np.inf, excess)))
        raise ConvergenceError(
            f"weighted sum at alpha={alpha} cancels beyond tol={tol}: rounding "
            f"up to {float(np.ravel(excess)[worst]):.3g} on a value of modulus "
            f"{float(np.ravel(modulus)[worst]):.3g}")


def _weighted_zeta_series(alpha: float, s: np.ndarray, w, z: np.ndarray,
                          cfg: EvalConfig) -> np.ndarray:
    """sum_{n>=1} n^-z log(n+1)^-alpha at every z = s_l + conj(w_j), with
    one N and one quadrature grid: _weighted_regular plus the tail
    (z-1)^(alpha-1) Gamma(1-alpha, (z-1) log N) through _upper_gamma_array
    (E_1((z-1) log N) at alpha = 1); refused by _check_rounding where the
    regular part and the tail cancel beyond tol."""
    if z.size == 0:
        return np.zeros(z.shape, dtype=np.complex128)
    out, n, size = _weighted_regular(alpha, s, w, z, cfg)
    tail = _upper_gamma_array(1.0 - alpha, (z - 1) * math.log(n))
    if alpha != 1.0:
        tail *= (z - 1) ** (alpha - 1)
    value = out + tail
    _check_rounding(alpha, value, np.abs(out) + np.abs(tail), n, size, cfg.tol)
    return value


def eval_weighted_zeta(p: WeightedZetaParams, s: complex,
                       cfg: EvalConfig = _DEFAULT_CFG) -> complex:
    """sum_{n>=1} n^-s log(n+1)^-alpha for Re s > 1.

    Truncated sum plus Euler-Maclaurin endpoint corrections plus a tail
    integral in closed form through the upper incomplete gamma function:
    the one-point call of _weighted_zeta_series.
    """
    s = complex(s)
    if s.real <= 1:
        raise DomainError(f"eval_weighted_zeta needs Re s > 1, got {s}")
    return complex(_weighted_zeta_series(p.alpha, *_one_point(s), cfg)[0, 0])


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
    regular, n, size = _weighted_regular(alpha, *_one_point(z), cfg)
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
            value = regular - EULER_GAMMA - math.log(log_n) + series
            parts = (regular, EULER_GAMMA, math.log(log_n), series)
        else:
            e1, log_z1 = eval_upper_gamma(0.0, w), cmath.log(z - 1)
            value = regular + e1 + log_z1
            parts = (regular, e1, log_z1)
    else:
        a = 1.0 - alpha
        if abs(w) < a + 1.0:
            series = complex(_lower_gamma_series_array(a, np.array([w]))[0])
            folded = log_n**a * cmath.exp(-w) * series
            value = regular - folded
            parts = (regular, folded)
        else:
            lead = eval_gamma(a) * (z - 1) ** complex(alpha - 1)
            tail = (z - 1) ** complex(alpha - 1) * eval_upper_gamma(a, w)
            value = regular + tail - lead
            parts = (regular, tail, lead)
    _check_rounding(alpha, value, sum(map(abs, parts)), n, size, cfg.tol)
    return value


def eval_weighted_zeta_outer(p: WeightedZetaParams, s, w,
                             cfg: EvalConfig = _DEFAULT_CFG) -> np.ndarray:
    """Z[l, j] = eval_weighted_zeta(p, s_l + conj(w_j)) for Re > 1.

    _weighted_zeta_series (truncated sum, endpoint corrections,
    shift-correction integral, incomplete-gamma tail) with one N and one
    quadrature grid for the whole matrix; each entry is within cfg.tol of
    eval_weighted_zeta, its one-point call, at the same point.
    """
    return _weighted_zeta_series(
        p.alpha, *_series_points(s, w, "eval_weighted_zeta_outer"), cfg)
