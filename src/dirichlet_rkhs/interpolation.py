"""Finite interpolation in the half-plane: explicit Lagrange-style
interpolants built from prime-power Blaschke products, and minimal-norm
interpolants solved through the kernel Gram system.

The product B(s) = prod_j (1 - p_j^(s_j - s)) vanishes to first order at
each node provided no node sits on another factor's zero lattice
{s_j + 2 pi i k / log p_j}; primes are chosen greedily so the lattices
clear all the other nodes.  The Lagrange interpolant is then
f_0(s) = sum_j a_j B_j(s) / B_j(s_j) with B_j the product omitting factor
j.  The minimal-norm route instead solves the (unnormalized) kernel moment
system and returns f = sum_j c_j k_{s_j}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ExhaustionError, NumericalError, SizeError
from .gram import gram_matrix, solve_hermitian_pd
from .spaces import (HARDY_DIRICHLET, HalfPlanePoint, PointSequence, SpaceId,
                     kernel_matrix, kernel_norm)
from .zeta import EvalConfig

_DEFAULT_CFG = EvalConfig()

BLASCHKE_NODE_CAP = 64
PRIME_SCAN_LIMIT = 10**4

KERNEL_COMBINATION = "KernelCombination"
BLASCHKE_LAGRANGE = "BlaschkeLagrange"


def _sieve(limit: int) -> list[int]:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i:: i] = False
    return [int(p) for p in np.nonzero(flags)[0]]


_PRIMES = _sieve(PRIME_SCAN_LIMIT)
_PRIME_SET = frozenset(_PRIMES)


def _lattice_clearance(anchor: complex, other: complex, log_p: float) -> float:
    """Distance from `other` to the lattice {anchor + 2 pi i k / log_p}."""
    d = other - anchor
    spacing = 2.0 * math.pi / log_p
    k = round(d.imag / spacing)
    return math.hypot(d.real, d.imag - k * spacing)


def select_primes(nodes: PointSequence) -> list[int]:
    """One prime per node such that each factor's zero lattice clears all
    other nodes by at least 1e-8; greedy first-fit over 2, 3, 5, ...
    """
    n = len(nodes)
    if n > BLASCHKE_NODE_CAP:
        raise SizeError(f"{n} nodes exceeds Blaschke cap {BLASCHKE_NODE_CAP}")
    pts = [p.as_complex for p in nodes.points]
    out = []
    for j in range(n):
        chosen = None
        for p in _PRIMES:
            log_p = math.log(p)
            if all(_lattice_clearance(pts[j], pts[l], log_p) >= 1e-8
                   for l in range(n) if l != j):
                chosen = p
                break
        if chosen is None:
            raise ExhaustionError(
                f"no prime below {PRIME_SCAN_LIMIT} clears node {j}"
            )
        out.append(chosen)
    return out


@dataclass(frozen=True)
class DirichletBlaschke:
    """B(s) = prod_j (1 - p_j^(s_j - s)) with one prime per node."""

    nodes: PointSequence
    primes: tuple[int, ...]

    def __post_init__(self):
        if len(self.primes) != len(self.nodes):
            raise SizeError("need exactly one prime per node")
        for p in self.primes:
            if p not in _PRIME_SET:
                raise DomainError(f"{p} is not a prime below {PRIME_SCAN_LIMIT}")

    def _factor(self, j: int, s: complex) -> complex:
        sj = self.nodes.points[j].as_complex
        try:
            return 1.0 - cmath.exp((sj - s) * math.log(self.primes[j]))
        except OverflowError:
            raise NumericalError(f"Blaschke factor {j} overflows double "
                                 f"precision at s={s}") from None

    def evaluate(self, s: complex) -> complex:
        out = 1.0 + 0.0j
        for j in range(len(self.primes)):
            out *= self._factor(j, s)
        return out

    def partial(self, j: int, s: complex) -> complex:
        """B_j(s): the product omitting factor j (never by division)."""
        out = 1.0 + 0.0j
        for l in range(len(self.primes)):
            if l != j:
                out *= self._factor(l, s)
        return out

    def derivative_at_node(self, j: int) -> complex:
        """B'(s_j) = log(p_j) * B_j(s_j); nonzero iff the zero is simple."""
        sj = self.nodes.points[j].as_complex
        return math.log(self.primes[j]) * self.partial(j, sj)

    def to_json_dict(self) -> dict:
        return {
            "nodes": [[p.sigma, p.t] for p in self.nodes.points],
            "primes": list(self.primes),
        }


def build_blaschke(nodes: PointSequence) -> DirichletBlaschke:
    return DirichletBlaschke(nodes, tuple(select_primes(nodes)))


@dataclass(frozen=True, eq=False)
class Interpolant:
    """A function interpolating prescribed values at the nodes.

    representation selects the evaluation rule:
      KernelCombination   f(s) = sum_j coefficients[j] * k_{nodes[j]}(s)
      BlaschkeLagrange    f(s) = sum_j coefficients[j] * B_j(s)

    targets and node residuals are retained for audit; admissibility is the
    weighted l2 size sqrt(sum |a_j|^2 / ||k_{s_j}||^2) recorded as a
    diagnostic (always finite for finite inputs, never gated on).
    """

    space: SpaceId
    nodes: PointSequence
    coefficients: tuple[complex, ...]
    representation: str
    targets: tuple[complex, ...]
    residuals: tuple[float, ...]
    admissibility: float
    norm: Optional[float] = None
    blaschke: Optional[DirichletBlaschke] = None

    def evaluate(self, s: complex, cfg: EvalConfig = _DEFAULT_CFG) -> complex:
        s = complex(s)
        if self.representation == BLASCHKE_LAGRANGE:
            return sum(c * self.blaschke.partial(j, s)
                       for j, c in enumerate(self.coefficients))
        row = kernel_matrix(self.space, (HalfPlanePoint(s.real, s.imag),),
                            self.nodes.points, cfg)[0].tolist()
        return sum(c * v for c, v in zip(self.coefficients, row))

    def to_json_dict(self) -> dict:
        out = {
            "space": {"family": self.space.family, "alpha": self.space.alpha},
            "nodes": [[p.sigma, p.t] for p in self.nodes.points],
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
            "representation": self.representation,
            "targets": [[a.real, a.imag] for a in self.targets],
            "residuals": list(self.residuals),
            "admissibility": self.admissibility,
            "norm": self.norm,
        }
        if self.blaschke is not None:
            out["primes"] = list(self.blaschke.primes)
        return out


def _admissibility(targets, norms) -> float:
    total = 0.0
    for a, norm in zip(targets, norms):
        total += abs(a) ** 2 / norm ** 2
    return math.sqrt(total)


def finite_interpolant(nodes: PointSequence, targets,
                       cfg: EvalConfig = _DEFAULT_CFG) -> Interpolant:
    """Explicit Lagrange interpolant through Blaschke partial products.

    The value space is the square-summable Dirichlet-series space (the
    interpolant is a finite Dirichlet polynomial over the semigroup
    generated by the selected primes).
    """
    targets = tuple(complex(a) for a in targets)
    if len(targets) != len(nodes):
        raise SizeError("need one target per node")
    blaschke = build_blaschke(nodes)
    coeffs = []
    for j, a in enumerate(targets):
        bj = blaschke.partial(j, nodes.points[j].as_complex)
        if abs(bj) < 1e-12:
            raise NumericalError(
                f"partial product at node {j} is {abs(bj):.3g}; zero not simple"
            )
        coeffs.append(a / bj)
    space = SpaceId(HARDY_DIRICHLET)
    interp = Interpolant(
        space=space, nodes=nodes, coefficients=tuple(coeffs),
        representation=BLASCHKE_LAGRANGE, targets=targets,
        residuals=(),
        admissibility=_admissibility(
            targets, [kernel_norm(space, p, cfg) for p in nodes.points]),
        blaschke=blaschke,
    )
    residuals = tuple(abs(interp.evaluate(p.as_complex, cfg) - a)
                      for p, a in zip(nodes.points, targets))
    object.__setattr__(interp, "residuals", residuals)
    return interp


def min_norm_interpolant(space: SpaceId, nodes: PointSequence, targets,
                         cfg: EvalConfig = _DEFAULT_CFG) -> Interpolant:
    """Minimal-norm solution of the moment problem f(s_j) = a_j.

    Solves the unnormalized kernel system K c = a through the normalized
    Gram matrix (K = D G D with D the diagonal of kernel norms), so the
    solve inherits the conditioning of the normalized problem.  The squared
    norm of the result is Re conj(a).c, minimal among all interpolants.
    """
    targets = np.asarray([complex(a) for a in targets], dtype=np.complex128)
    if len(targets) != len(nodes):
        raise SizeError("need one target per node")
    g = gram_matrix(space, nodes, cfg)
    d = np.array(g.norms)
    y = solve_hermitian_pd(g, targets / d)
    c = y / d
    norm_sq = float(np.real(np.conj(targets) @ c))
    interp = Interpolant(
        space=space, nodes=nodes, coefficients=tuple(complex(v) for v in c),
        representation=KERNEL_COMBINATION, targets=tuple(complex(a) for a in targets),
        residuals=(), admissibility=_admissibility(targets, g.norms),
        norm=math.sqrt(max(norm_sq, 0.0)),
    )
    kmat = g.entries * np.outer(d, d)
    resid = np.abs(kmat @ c - targets)
    object.__setattr__(interp, "residuals", tuple(float(r) for r in resid))
    return interp


def expand_dirichlet(interp: Interpolant, max_terms: int = 65536) -> list[tuple[int, complex]]:
    """Sparse Dirichlet-polynomial expansion of a Blaschke-Lagrange
    interpolant: pairs (n, coefficient) with f(s) = sum coeff * n^-s.

    Each factor 1 - p^(s_j - s) contributes frequencies {1, p}; the product
    lives on the multiplicative semigroup of the selected primes.  Raises
    SizeError if the expansion would exceed max_terms terms.
    """
    if interp.representation != BLASCHKE_LAGRANGE:
        raise DomainError("expansion applies to the Blaschke representation")
    b = interp.blaschke
    total: dict[int, complex] = {}
    for j, c in enumerate(interp.coefficients):
        if c == 0:
            continue
        terms: dict[int, complex] = {1: complex(c)}
        for l in range(len(b.primes)):
            if l == j:
                continue
            p = b.primes[l]
            scale = cmath.exp(b.nodes.points[l].as_complex * math.log(p))
            nxt: dict[int, complex] = {}
            for freq, coeff in terms.items():
                nxt[freq] = nxt.get(freq, 0.0) + coeff
                nxt[freq * p] = nxt.get(freq * p, 0.0) - coeff * scale
            if len(nxt) > max_terms:
                raise SizeError(f"expansion exceeds {max_terms} terms")
            terms = nxt
        for freq, coeff in terms.items():
            total[freq] = total.get(freq, 0.0) + coeff
    out = [(n, v) for n, v in sorted(total.items()) if v != 0]
    if not out:
        out = [(1, 0.0 + 0.0j)]
    return out
