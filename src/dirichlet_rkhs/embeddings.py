"""Local embedding inequalities for Dirichlet polynomials.

Verifies, numerically, that the mean square of a Dirichlet polynomial over a
unit window on the critical line (or over a half-strip, with a power weight in
the distance to the boundary) is controlled by its coefficient-side norm.  The
line form integrates |f(1/2+it)|^2 over the window by a Gauss-Legendre rule
in t whose size follows a stated error bound, so a ratio costs O(QN) and the
sharp constant is the top eigenvalue of a Q x Q matrix.  The half-strip form
expands the squared modulus pairwise and integrates each term in closed form.
Adaptive quadrature is retained only as an independent cross-check oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, SizeError
from .spaces import HARDY_DIRICHLET, WEIGHTED_DIRICHLET, DirichletPolynomial, SpaceId
from .zeta import eval_gamma

LINE_DEGREE_CAP = 10_000
HALFSTRIP_DEGREE_CAP = 1_000
# coefficients in one random corpus: about 38 MB of Python complex tuples
_CORPUS_COEFFICIENT_CAP = 10**6

# beyond this height every n >= 2 term of the integrand is below 1e-16
STRIP_CUTOFF = 60.0 / math.log(2.0)

_EPS = float(np.finfo(np.float64).eps)

# a ladder of Bernstein-ellipse parameters rho; the line rule's error bound
# is taken at the best of them (see _line_rule)
_LINE_RHO = np.exp(np.linspace(0.01, 8.0, 400))
# complex entries of one (polynomials x terms x nodes) slice in
# line_embedding_ratios: 1 MiB
_LINE_SLICE = 1 << 16


@dataclass(frozen=True)
class EmbeddingResult:
    """Empirical embedding constant for one polynomial and one window."""

    ratio: float
    theta: float
    alpha: float | None
    quadrature_error: float

    def to_json_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "theta": self.theta,
            "alpha": self.alpha,
            "quadrature_error": self.quadrature_error,
        }


def _window_factor(lam: np.ndarray, theta: float) -> np.ndarray:
    """integral over t in [theta, theta+1] of e^{i t lam}, elementwise.

    Written via sin to keep e^{i lam} - 1 cancellation-free; the removable
    point lam = 0 evaluates to 1 exactly.
    """
    lam = np.asarray(lam, dtype=np.float64)
    num = -2.0 * np.sin(0.5 * lam) ** 2 + 1j * np.sin(lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(1j * theta * lam) * (num / (1j * lam))
    return np.where(lam == 0.0, 1.0 + 0.0j, out)


def _settle(total: complex, norm2: float, raw_error: float,
            theta: float, alpha: float | None) -> EmbeddingResult:
    # integrand is a squared modulus; a negative real part at error level is rounding
    ratio = total.real / norm2
    err = raw_error / norm2
    if ratio < 0.0 and abs(ratio) <= err:
        ratio = 0.0
    return EmbeddingResult(ratio=ratio, theta=float(theta), alpha=alpha,
                           quadrature_error=err)


def _check_theta(theta: float) -> None:
    if not math.isfinite(theta):
        raise DomainError(f"window anchor theta must be finite, got {theta}")


def _check_length(size: int, alpha: Optional[float] = None) -> None:
    """SizeError over the line cap, or the half-strip cap when alpha is given."""
    cap = LINE_DEGREE_CAP if alpha is None else HALFSTRIP_DEGREE_CAP
    if size > cap:
        raise SizeError(f"polynomial length {size} exceeds cap {cap}")


def _common_length(coeffs: list[np.ndarray]) -> int:
    sizes = sorted({a.shape[0] for a in coeffs})
    if len(sizes) > 1:
        raise DomainError(f"polynomials in one batch must share a length, got {sizes}")
    return sizes[0]


def line_embedding_ratio(f: DirichletPolynomial, theta: float) -> EmbeddingResult:
    """Mean square of f on the line Re s = 1/2 over [theta, theta+1].

    The integral is taken by the Gauss-Legendre form of
    line_embedding_ratios and divided by the squared coefficient norm
    sum |a_n|^2.
    """
    return line_embedding_ratios([f], theta)[0]


def line_embedding_ratios(polys: Sequence[DirichletPolynomial],
                          theta: float) -> list[EmbeddingResult]:
    """line_embedding_ratio of every polynomial in polys, in order.

    With W_n = a_n n^{-1/2}, |f(1/2+it)|^2 = |sum_n W_n e^{-it log n}|^2.  Its
    diagonal part integrates to sum |a_n|^2 / n, taken division-exact so that
    a single term yields ratio 1/n.  The rest is integrated by the Q-point
    Gauss-Legendre rule of _line_rule on [theta, theta+1]:

        sum_q omega_q (|F_q|^2 - sum_n |W_n E[n, q]|^2),
        F_q = sum_n W_n E[n, q],  E[n, q] = e^{-i t_q log n},

    which is exactly 0 for a single term.  quadrature_error holds, divided
    by sum |a_n|^2, (sum |W_n|)^2 times the sum of the rule's bound, the
    phase rounding 2 (|theta| + 1) log N u of t_q log n and 16 u for the
    rest of the rounding (u the machine epsilon).

    The nodes depend only on the common length and theta.  Each polynomial
    is reduced with the arithmetic and summation order of a one-polynomial
    call, in slices of _LINE_SLICE entries, so every result equals
    line_embedding_ratio(f, theta) bit for bit.  All polynomials must share
    one length; otherwise DomainError.
    """
    _check_theta(theta)
    coeffs = [np.asarray(f.coeffs, dtype=np.complex128) for f in polys]
    for a in coeffs:
        _check_length(a.shape[0])
    if not coeffs:
        return []
    size = _common_length(coeffs)
    a = np.array(coeffs)
    n = np.arange(1, size + 1, dtype=np.float64)
    nodes, weights, bound = _line_rule(size)
    lam = np.log(n)
    e = np.exp(-1j * np.outer(lam, theta + nodes))
    mod2 = a.real ** 2 + a.imag ** 2
    diag = np.sum(mod2 / n, axis=1)
    norms2 = np.sum(mod2, axis=1)
    w = a / np.sqrt(n)
    off = np.empty(len(coeffs))
    step = max(1, _LINE_SLICE // (size * nodes.size))
    for i in range(0, len(coeffs), step):
        terms = w[i:i + step, :, np.newaxis] * e[np.newaxis, :, :]
        f = np.sum(terms, axis=1)
        own = np.sum(terms.real ** 2 + terms.imag ** 2, axis=1)
        off[i:i + step] = np.sum((f.real ** 2 + f.imag ** 2 - own) * weights, axis=1)
    mass = np.sum(np.abs(w), axis=1) ** 2
    factor = bound + (16.0 + 2.0 * (abs(theta) + 1.0) * lam[-1]) * _EPS
    return [_settle(complex(d + o), float(nn), float(factor * m), theta, None)
            for d, o, nn, m in zip(diag, off, norms2, mass)]


@functools.lru_cache(maxsize=64)
def _line_rule(size: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Gauss-Legendre nodes in [0, 1], their weights, and the error bound
    of the line form for polynomials of length size.

    Each pair (m, n) integrates e^{i lam t}, lam = log(n/m), over a unit
    window.  Mapped to [-1, 1] it is analytic inside every Bernstein
    ellipse rho > 1, where |e^{i lam t}| <= exp(log N (rho - 1/rho) / 4),
    so the Q-point rule errs by at most (Trefethen, SIAM Rev. 50 (2008),
    Thm 4.5, with the half-length 1/2 of the window)

        (32/15) exp(log N (rho - 1/rho) / 4) / ((rho^2 - 1) rho^{2Q-2}).

    Q is the fewest nodes for which this, at the best rho of _LINE_RHO, is
    at most u; that bound is returned.  Q is 12 at N = 1000 and 13 at the
    cap N = 10 000.
    """
    rho = _LINE_RHO
    lead = (math.log(32.0 / 15.0) + math.log(size) * (rho - 1.0 / rho) / 4.0
            - np.log(rho * rho - 1.0))
    q = 1
    while (bound := float(np.exp(np.min(lead - (2 * q - 2) * np.log(rho))))) > _EPS:
        q += 1
    x, wq = np.polynomial.legendre.leggauss(q)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * wq
    nodes.setflags(write=False)  # shared by every caller through the cache
    weights.setflags(write=False)
    return nodes, weights, bound


def halfstrip_embedding_ratio(f: DirichletPolynomial, theta: float,
                              alpha: float) -> EmbeddingResult:
    """Weighted mean square of f (or of f' when 0 < alpha <= 1) over a half-strip.

    For alpha < 0 the integrand is |f(s)|^2 (sigma-1/2)^{-alpha-1} over
    sigma > 1/2, theta < t < theta+1; the sigma-integral per (m, n) pair is
    Gamma(-alpha)/log(mn)^{-alpha}.  For 0 < alpha <= 1 the derivative is
    integrated against (sigma-1/2)^{1-alpha} and the pair weight becomes
    Gamma(2-alpha) log(m) log(n)/log(mn)^{2-alpha}.  Both are divided by the
    squared norm sum |a_n|^2 log^alpha(n+1).
    """
    return halfstrip_embedding_ratios([f], theta, alpha)[0]


def halfstrip_embedding_ratios(polys: Sequence[DirichletPolynomial], theta: float,
                               alpha: float) -> list[EmbeddingResult]:
    """halfstrip_embedding_ratio of every polynomial in polys, in order.

    n, log n, the Gamma pair weight and the window factor depend only on the
    common length, theta and alpha, so they are built once per call.  Each
    polynomial is then reduced with the arithmetic of a one-polynomial call,
    so every result equals halfstrip_embedding_ratio(f, theta, alpha) bit for
    bit.  All polynomials must share one length; otherwise DomainError.
    """
    _check_theta(theta)
    if alpha == 0.0 or alpha > 1.0:
        raise DomainError("alpha must be nonzero and at most 1")
    coeffs = [np.asarray(f.coeffs, dtype=np.complex128) for f in polys]
    for a in coeffs:
        _check_length(a.shape[0], alpha)
        if alpha < 0.0 and a[0] != 0.0:
            raise DomainError("alpha < 0 requires a_1 = 0: the constant term meets "
                              "a non-integrable weight over the unbounded strip")
    if not coeffs:
        return []
    size = _common_length(coeffs)
    space = SpaceId(WEIGHTED_DIRICHLET, alpha)
    norms2 = [f.norm(space) ** 2 for f in polys]
    if size < 2:
        # constant polynomial: derivative branch integrates the zero function
        return [EmbeddingResult(0.0, float(theta), float(alpha), 0.0) for _ in polys]
    n = np.arange(2, size + 1, dtype=np.float64)
    root = np.sqrt(n)
    ln = np.log(n)
    lnmn = ln[:, np.newaxis] + ln[np.newaxis, :]
    fac = _window_factor(ln[np.newaxis, :] - ln[:, np.newaxis], theta)
    if alpha < 0.0:
        weight = eval_gamma(-alpha) / lnmn ** (-alpha)
    else:
        weight = eval_gamma(2.0 - alpha) / lnmn ** (2.0 - alpha)
    top = float(np.max(weight))
    out = []
    for a, norm2 in zip(coeffs, norms2):
        w = a[1:] / root
        if alpha < 0.0:
            core = w[:, np.newaxis] * np.conjugate(w)[np.newaxis, :]
        else:
            wl = w * ln
            core = wl[:, np.newaxis] * np.conjugate(wl)[np.newaxis, :]
        total = complex(np.sum(core * weight * fac))
        raw_err = 16.0 * _EPS * top * float(np.sum(np.abs(core)))
        raw_err += abs(total.imag)
        out.append(_settle(total, norm2, raw_err, theta, float(alpha)))
    return out


def line_embedding_sharp_constant(degree: int, theta: float = 0.0) -> float:
    """Sharp window constant: sup of the line ratio over length-degree polynomials.

    The rule of line_embedding_ratios writes the window's pair matrix as
    V Omega V^H, with V[n, q] = n^{-1/2} e^{-i t_q log n} and Omega the
    weights; its top eigenvalue is that of the Q x Q matrix
    Omega^{1/2} V^H V Omega^{1/2}.  (V^H V)[p, q] depends only on t_p - t_q,
    so it is formed at theta = 0 and the value is theta-invariant bit for
    bit; this, not the sample maximum of a random corpus, is the quantity the
    window-independence statement pins down.  By Weyl the rule moves it by
    at most the harmonic number H_N times _line_rule's bound.
    """
    _check_theta(theta)
    if degree < 1:
        raise DomainError("degree must be at least 1")
    _check_length(degree)
    n = np.arange(1, degree + 1, dtype=np.float64)
    nodes, weights, _ = _line_rule(degree)
    v = np.exp(-1j * np.outer(np.log(n), nodes)) / np.sqrt(n)[:, np.newaxis]
    root = np.sqrt(weights)
    m = (v.conj().T @ v) * np.outer(root, root)
    m = 0.5 * (m + m.conj().T)  # symmetrize away product rounding
    return float(np.linalg.eigvalsh(m)[-1])


def _derivative_value(f: DirichletPolynomial, s: complex) -> complex:
    n = np.arange(1, len(f.coeffs) + 1, dtype=np.float64)
    return complex(np.sum(np.asarray(f.coeffs, dtype=np.complex128)
                          * (-np.log(n)) * n ** (-complex(s))))


def line_embedding_quadrature(f: DirichletPolynomial, theta: float) -> EmbeddingResult:
    """Adaptive-quadrature oracle for line_embedding_ratio."""
    # imported here, so that importing the library does not load scipy
    from scipy import integrate

    norm2 = f.norm(SpaceId(HARDY_DIRICHLET)) ** 2

    def integrand(t: float) -> float:
        return abs(f.evaluate(0.5 + 1j * t)) ** 2

    val, err = integrate.quad(integrand, theta, theta + 1.0,
                              epsabs=1e-12, epsrel=1e-12, limit=200)
    return EmbeddingResult(val / norm2, float(theta), None, err / norm2)


def halfstrip_embedding_quadrature(f: DirichletPolynomial, theta: float,
                                   alpha: float) -> EmbeddingResult:
    """Adaptive-quadrature oracle for halfstrip_embedding_ratio.

    The sigma-integral runs in u = sigma - 1/2; the endpoint singularity
    u^{-alpha-1} at u = 0 is removed by the substitution u = v^{-1/alpha}
    on [0, 1] and the smooth remainder on [1, STRIP_CUTOFF] is integrated
    directly.
    """
    from scipy import integrate

    if alpha == 0.0 or alpha > 1.0:
        raise DomainError("alpha must be nonzero and at most 1")
    a = np.asarray(f.coeffs, dtype=np.complex128)
    if alpha < 0.0 and a[0] != 0.0:
        raise DomainError("alpha < 0 requires a_1 = 0: the constant term meets "
                          "a non-integrable weight over the unbounded strip")
    norm2 = f.norm(SpaceId(WEIGHTED_DIRICHLET, alpha)) ** 2
    if len(f.coeffs) < 2:
        return EmbeddingResult(0.0, float(theta), float(alpha), 0.0)

    if alpha < 0.0:
        p = -1.0 / alpha

        def inner(t: float) -> float:
            def near(v: float) -> float:
                u = v ** p
                return p * abs(f.evaluate(0.5 + u + 1j * t)) ** 2

            def far(u: float) -> float:
                return u ** (-alpha - 1.0) * abs(f.evaluate(0.5 + u + 1j * t)) ** 2

            lo, _ = integrate.quad(near, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
            hi, _ = integrate.quad(far, 1.0, STRIP_CUTOFF, epsabs=1e-13, epsrel=1e-12, limit=200)
            return lo + hi
    else:

        def inner(t: float) -> float:
            def g(u: float) -> float:
                return u ** (1.0 - alpha) * abs(_derivative_value(f, 0.5 + u + 1j * t)) ** 2

            val, _ = integrate.quad(g, 0.0, STRIP_CUTOFF, epsabs=1e-13, epsrel=1e-12, limit=200)
            return val

    val, err = integrate.quad(inner, theta, theta + 1.0,
                              epsabs=1e-11, epsrel=1e-10, limit=100)
    return EmbeddingResult(val / norm2, float(theta), float(alpha),
                           max(err, 1e-12) / norm2)


def random_polynomial_corpus(count: int, max_degree: int,
                             seed: int) -> list[DirichletPolynomial]:
    """Deterministic test corpus of random Dirichlet polynomials.

    Every element has exactly max_degree coefficients, drawn as standard
    complex Gaussians (real and imaginary parts N(0,1)/sqrt(2)) scaled by
    1/sqrt(max_degree), so the expected squared coefficient norm is 1.
    The same seed always reproduces the same corpus.  More than
    _CORPUS_COEFFICIENT_CAP coefficients in all is a SizeError, raised
    before anything is drawn.
    """
    if count < 0:
        raise DomainError("count must be nonnegative")
    if max_degree < 1:
        raise DomainError("max_degree must be at least 1")
    if count * max_degree > _CORPUS_COEFFICIENT_CAP:
        raise SizeError(f"corpus of {count} x {max_degree} coefficients exceeds cap "
                        f"{_CORPUS_COEFFICIENT_CAP}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(2.0 * max_degree)
    out = []
    for _ in range(count):
        z = (rng.standard_normal(max_degree) + 1j * rng.standard_normal(max_degree)) * scale
        while z[-1] == 0.0:  # measure zero, but canonical form needs a_N != 0
            z[-1] = (rng.standard_normal() + 1j * rng.standard_normal()) * scale
        out.append(DirichletPolynomial(tuple(z.tolist())))
    return out
