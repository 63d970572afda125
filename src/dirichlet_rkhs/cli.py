"""Command-line front end.

Parses point-sequence and coefficient files, dispatches to the library, and
emits deterministic JSON reports (default) or CSV plot data (--format=csv).
Exit codes: 0 success, 1 computation error (machine-readable object on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .diagnostics import (almost_periodicity_probe, boas_bound, shapiro_shields_test,
                          space_tag)
from .embeddings import (_check_length, halfstrip_embedding_ratios,
                         line_embedding_ratios, random_polynomial_corpus)
from .errors import DirichletRkhsError, DomainError
from .gram import gram_matrix, smallest_eigenvalue
from .interpolation import build_blaschke, finite_interpolant, min_norm_interpolant
from .serialize import (emit_csv, emit_json, load_complex_list, load_point_sequence,
                        parse_complex_pair)
from .spaces import (BERGMAN_DIRICHLET, HARDY_DIRICHLET, HARDY_HALF_PLANE,
                     WEIGHTED_DIRICHLET, DirichletPolynomial, HalfPlanePoint, SpaceId,
                     kernel_norm, kernel_value, pseudohyperbolic_distance)
from .zeta import EvalConfig, WeightedZetaParams, eval_gamma, eval_weighted_zeta_outer

_SPACE_NAMES = {
    "h": HARDY_DIRICHLET,
    "h_alpha": WEIGHTED_DIRICHLET,
    "h2": HARDY_HALF_PLANE,
    "d_alpha": BERGMAN_DIRICHLET,
}


class UsageError(Exception):
    """Bad flag value or unreadable input file; maps to exit code 2."""


# A flag value that argparse should take as a value although it starts with
# "-": a number in any float() spelling (exponent forms, inf, nan), alone or
# as the first half of an re,im pair.  argparse's own pattern knows only
# -123 and -1.5, so "--target -1e-05" or "--s -inf,0" read as options.
_NUMBER = r"(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)"
_NEGATIVE_VALUE = re.compile(rf"^-{_NUMBER}(?:,[-+]?{_NUMBER})?$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage text and exit, and
    reads negative numbers in every float() spelling as values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _config(args) -> EvalConfig:
    return EvalConfig(tol=args.tol, max_terms=args.max_terms)


def _space(args) -> SpaceId:
    family = _SPACE_NAMES[args.space]
    needs_alpha = family in (WEIGHTED_DIRICHLET, BERGMAN_DIRICHLET)
    if needs_alpha and args.alpha is None:
        raise UsageError(f"--alpha is required for --space {args.space}")
    if not needs_alpha and args.alpha is not None:
        raise UsageError("--alpha applies only to --space h_alpha or d_alpha")
    try:
        return SpaceId(family, args.alpha) if needs_alpha else SpaceId(family)
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def _point(text: str, flag: str) -> HalfPlanePoint:
    try:
        z = parse_complex_pair(text)
        return HalfPlanePoint(z.real, z.imag)
    except DomainError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _load(loader, path: str):
    """loader(path), with an unreadable or malformed file as a usage error."""
    try:
        return loader(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def _cmd_kernel(args):
    space = _space(args)
    w = _point(args.w, "--w")
    s = _point(args.s, "--s")
    value = kernel_value(space, w, s, _config(args))
    payload = {"value": [value.real, value.imag]}
    rows = [[value.real, value.imag]]
    return payload, ["value_re", "value_im"], rows


def _cmd_gram(args):
    space = _space(args)
    seq = _load(load_point_sequence, args.points)
    g = gram_matrix(space, seq, _config(args))
    lam = smallest_eigenvalue(g)
    entries = [[[g.entries[l, j].real, g.entries[l, j].imag] for j in range(g.n)]
               for l in range(g.n)]
    payload = {
        "space": space_tag(space),
        "n": g.n,
        "smallest_eigenvalue": lam,
        "entries": entries,
    }
    rows = [[l, j, g.entries[l, j].real, g.entries[l, j].imag]
            for l in range(g.n) for j in range(g.n)]
    return payload, ["row", "col", "re", "im"], rows


def _cmd_diagnose(args):
    space = _space(args)
    seq = _load(load_point_sequence, args.points)
    cfg = _config(args)
    verdict, report = shapiro_shields_test(seq, args.delta_min, args.carleson_max, cfg)
    payload = report.to_json_dict()
    if space.family != HARDY_HALF_PLANE:
        payload["boas"][space_tag(space)] = boas_bound(space, seq, cfg)
    rows = [["separation", payload["separation"]],
            ["carleson", payload["carleson"]],
            ["blaschke_sum", payload["blaschke_sum"]]]
    for tag, val in payload["boas"].items():
        rows.append([f"boas:{tag}", val])
    rows.append(["verdict_h2", verdict])
    return payload, ["metric", "value"], rows


def _cmd_interpolate(args):
    space = _space(args)
    nodes = _load(load_point_sequence, args.nodes)
    targets = _load(load_complex_list, args.targets)
    if len(targets) != len(nodes):
        raise UsageError(f"{len(nodes)} nodes but {len(targets)} targets")
    cfg = _config(args)
    if args.method == "blaschke":
        if space.family != HARDY_DIRICHLET:
            raise UsageError("--method blaschke requires --space h")
        interp = finite_interpolant(nodes, targets, cfg)
    else:
        interp = min_norm_interpolant(space, nodes, targets, cfg)
    payload = interp.to_json_dict()
    rows = []
    for j, p in enumerate(nodes.points):
        c = interp.coefficients[j]
        a = interp.targets[j]
        rows.append([p.sigma, p.t, a.real, a.imag, c.real, c.imag,
                     interp.residuals[j]])
    return payload, ["node_sigma", "node_t", "target_re", "target_im",
                     "coeff_re", "coeff_im", "residual"], rows


def _cmd_blaschke(args):
    nodes = _load(load_point_sequence, args.nodes)
    product = build_blaschke(nodes)
    payload = product.to_json_dict()
    if args.eval is not None:
        z = parse_complex_pair(args.eval)
        val = product.evaluate(z)
        payload["point"] = [z.real, z.imag]
        payload["value"] = [val.real, val.imag]
    rows = [[p.sigma, p.t, q] for p, q in zip(nodes.points, product.primes)]
    return payload, ["node_sigma", "node_t", "prime"], rows


def _cmd_asymptotics(args):
    if args.alpha > 1.0:
        raise UsageError("--alpha must be at most 1")
    params = WeightedZetaParams(args.alpha)
    # s = 1 + 10^-k rounds to 1, outside the series' domain, from k = 16 on,
    # so the rows stop there and a large --kmax fails at once; all rows are
    # one column of the series' outer form, at w = 0
    ks = range(1, min(args.kmax, 16) + 1)
    values = eval_weighted_zeta_outer(params, [1.0 + 10.0 ** (-k) for k in ks], [0j],
                                      _config(args))[:, 0]
    out_rows = []
    csv_rows = []
    for k, value in zip(ks, values):
        eps = 10.0 ** (-k)
        value = complex(value)
        if args.alpha == 1.0:
            main = math.log(1.0 / eps)
        else:
            main = eval_gamma(1.0 - args.alpha) * eps ** (args.alpha - 1.0)
        remainder = abs(value - main)
        out_rows.append({"k": k, "eps": eps, "value": [value.real, value.imag],
                         "main_term": main, "remainder": remainder})
        csv_rows.append([args.alpha, k, eps, value.real, main, remainder])
    payload = {"alpha": args.alpha, "rows": out_rows}
    return payload, ["alpha", "k", "eps", "value_re", "main_term", "remainder"], csv_rows


def _cmd_embedding(args):
    if (args.coeffs is None) == (args.corpus_count is None):
        raise UsageError("exactly one of --coeffs or --corpus-count is required")
    if args.coeffs is not None:
        coeffs = _load(load_complex_list, args.coeffs)
        try:
            polys = [DirichletPolynomial(tuple(coeffs))]
        except DomainError as exc:
            raise UsageError(str(exc)) from None
    else:
        if args.corpus_count < 1:
            raise UsageError("--corpus-count must be at least 1")
        _check_length(args.max_degree, args.alpha)
        polys = random_polynomial_corpus(args.corpus_count, args.max_degree, args.seed)
        if args.alpha is not None and args.alpha < 0.0:
            # the alpha < 0 half-strip weight is integrable only when a_1 = 0
            if args.max_degree < 2:
                raise UsageError("--alpha < 0 sets a_1 = 0, so --max-degree "
                                 "must be at least 2")
            polys = [DirichletPolynomial((0j,) + f.coeffs[1:]) for f in polys]
    if args.alpha is None:
        results = line_embedding_ratios(polys, args.theta)
    else:
        results = halfstrip_embedding_ratios(polys, args.theta, args.alpha)
    rows = [[args.theta, args.alpha, f.degree, r.ratio]
            for f, r in zip(polys, results)]
    if len(results) == 1:
        payload = results[0].to_json_dict()
    else:
        payload = {
            "theta": args.theta,
            "alpha": args.alpha,
            "count": len(results),
            "max_ratio": max(r.ratio for r in results),
            "ratios": [r.ratio for r in results],
        }
    return payload, ["theta", "alpha", "degree", "ratio"], rows


def _cmd_probe(args):
    space = _space(args)
    s = _point(args.s, "--s")
    cfg = _config(args)
    tau = almost_periodicity_probe(space, s, args.t_max, args.target, cfg)
    payload = {"s": [s.sigma, s.t], "target": args.target, "t_max": args.t_max,
               "tau": tau, "correlation": None, "distance": None}
    if tau is not None:
        shifted = HalfPlanePoint(s.sigma, s.t + tau)
        corr = abs(kernel_value(space, shifted, s, cfg))
        corr /= kernel_norm(space, s, cfg) * kernel_norm(space, shifted, cfg)
        payload["correlation"] = corr
        payload["distance"] = pseudohyperbolic_distance(s, shifted)
    rows = [[payload["tau"], payload["correlation"], payload["distance"]]]
    return payload, ["tau", "correlation", "distance"], rows


_HANDLERS = {
    "kernel": _cmd_kernel,
    "gram": _cmd_gram,
    "diagnose": _cmd_diagnose,
    "interpolate": _cmd_interpolate,
    "blaschke": _cmd_blaschke,
    "asymptotics": _cmd_asymptotics,
    "embedding": _cmd_embedding,
    "probe": _cmd_probe,
}


def _add_common(sub, space: bool = True) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="output format (default json)")
    sub.add_argument("--tol", type=float, default=1e-10,
                     help="evaluation tolerance (default 1e-10)")
    sub.add_argument("--max-terms", type=int, default=1_000_000, dest="max_terms",
                     help="series length cap (default 1000000)")
    if space:
        sub.add_argument("--space", choices=sorted(_SPACE_NAMES), default="h",
                         help="function space: h (square-summable Dirichlet series), "
                              "h_alpha (log-weighted, needs --alpha), h2 (half-plane "
                              "Hardy), d_alpha (Bergman/Dirichlet scale, needs --alpha)")
        sub.add_argument("--alpha", type=float, default=None,
                         help="weight exponent for h_alpha / d_alpha")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dirichlet-rkhs",
        description="Reproducing-kernel computations for Hilbert spaces of "
                    "Dirichlet series: kernels, Gram spectra, interpolation, "
                    "embedding ratios, and almost-periodicity probes.")
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = subs.add_parser("kernel", help="evaluate a reproducing kernel k_w(s)",
                        epilog="CSV schema: value_re,value_im")
    _add_common(p)
    p.add_argument("--w", required=True, help="kernel anchor point as re,im")
    p.add_argument("--s", required=True, help="evaluation point as re,im")

    p = subs.add_parser("gram", help="normalized Gram matrix and smallest eigenvalue",
                        epilog="CSV schema: row,col,re,im (matrix entries)")
    _add_common(p)
    p.add_argument("--points", required=True,
                   help="JSON file: array of [sigma, t] pairs")

    p = subs.add_parser("diagnose",
                        help="interpolating-sequence certification report",
                        epilog="CSV schema: metric,value")
    _add_common(p)
    p.add_argument("--points", required=True,
                   help="JSON file: array of [sigma, t] pairs")
    p.add_argument("--delta-min", type=float, default=0.1, dest="delta_min",
                   help="separation threshold for the geometric verdict (default 0.1)")
    p.add_argument("--carleson-max", type=float, default=10.0, dest="carleson_max",
                   help="box-intensity threshold for the geometric verdict (default 10)")

    p = subs.add_parser("interpolate", help="interpolant through prescribed values",
                        epilog="CSV schema: node_sigma,node_t,target_re,target_im,"
                               "coeff_re,coeff_im,residual")
    _add_common(p)
    p.add_argument("--nodes", required=True, help="JSON file of [sigma, t] pairs")
    p.add_argument("--targets", required=True, help="JSON file of [re, im] pairs")
    p.add_argument("--method", choices=("minnorm", "blaschke"), default="minnorm",
                   help="minnorm: Gram solve; blaschke: explicit Lagrange form")

    p = subs.add_parser("blaschke", help="prime-power Blaschke-type product",
                        epilog="CSV schema: node_sigma,node_t,prime")
    _add_common(p, space=False)
    p.add_argument("--nodes", required=True, help="JSON file of [sigma, t] pairs")
    p.add_argument("--eval", default=None, help="also evaluate at this point (re,im)")

    p = subs.add_parser("asymptotics",
                        help="weighted zeta remainder scan approaching the pole",
                        epilog="CSV schema: alpha,k,eps,value_re,main_term,remainder")
    _add_common(p, space=False)
    p.add_argument("--alpha", type=float, required=True, help="weight exponent")
    p.add_argument("--kmax", type=int, default=5,
                   help="scan s = 1 + 10^-k for k = 1..kmax (default 5)")

    p = subs.add_parser("embedding", help="local embedding ratio of a polynomial "
                                          "or a random corpus",
                        epilog="CSV schema: theta,alpha,degree,ratio")
    _add_common(p, space=False)
    p.add_argument("--theta", type=float, default=0.0, help="window anchor")
    p.add_argument("--alpha", type=float, default=None,
                   help="half-strip weight; omit for the critical-line window "
                        "(alpha < 0 sets a_1 = 0 in every corpus polynomial)")
    p.add_argument("--coeffs", default=None,
                   help="JSON file of [re, im] coefficient pairs (single polynomial)")
    p.add_argument("--corpus-count", type=int, default=None, dest="corpus_count",
                   help="evaluate a random corpus of this many polynomials")
    p.add_argument("--max-degree", type=int, default=100, dest="max_degree",
                   help="corpus polynomial length (default 100)")
    p.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")

    p = subs.add_parser("probe", help="almost-periodicity probe for a vertical shift",
                        epilog="CSV schema: tau,correlation,distance")
    _add_common(p)
    p.add_argument("--s", required=True, help="base point as re,im")
    p.add_argument("--target", type=float, required=True,
                   help="kernel correlation to reach")
    p.add_argument("--t-max", type=float, default=1e4, dest="t_max",
                   help="scan window upper end (default 1e4, capped at 1e5)")

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.subcommand is None:
            raise UsageError(parser.format_usage().strip())
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except UsageError as exc:
        sys.stderr.write(emit_json({"error": "UsageError", "message": str(exc)}))
        return 2
    try:
        payload, header, rows = _HANDLERS[args.subcommand](args)
        text = emit_csv(header, rows) if args.format == "csv" else emit_json(payload)
    except UsageError as exc:
        sys.stderr.write(emit_json({"error": "UsageError", "message": str(exc)}))
        return 2
    except DirichletRkhsError as exc:
        sys.stderr.write(emit_json({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    sys.stdout.write(text)
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
