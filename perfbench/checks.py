"""Checks of every item's output, made apart from the program.

References: mpmath.zeta; a direct sum for the log-weighted zeta sums (see
weighted_ref); the closed-form half-plane kernels; closed-form embedding pair
matrices; numpy.linalg.eigvalsh.  In sequence_certify the series-side Gram
matrices are the ones the reports built (kept by the workload); sampled
entries of each are audited against the references and the reported bound
is checked against eigvalsh of it.  Only if a matrix was not kept does the
check rebuild it with the public gram_matrix.  No check compares against a
saved copy of earlier output.

check(workload, items, round_sizes) returns (failed, problems): failed[i] is
True where item i did not complete as the program's contract says, and
problems lists (i, message) for completed items whose output is wrong.
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np

import workloads

EPS = float(np.finfo(np.float64).eps)

# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def zeta_ref(z: complex) -> complex:
    return complex(mpmath.zeta(mpmath.mpc(z.real, z.imag)))


_N = 100_000
_LOG_N = np.log(np.arange(1, _N, dtype=np.float64))
_LOGLOG_N1 = np.log(np.log(np.arange(2, _N + 1, dtype=np.float64)))


def weighted_ref(alpha: float, z: complex) -> complex:
    """sum_{n>=1} n^-z log(n+1)^-alpha for Re z > 1.

    Direct (pairwise) sum for n < N = 1e5, then Euler-Maclaurin from N:
    f(N)/2 - f'(N)/12 plus the tail integral.  With
    log(x+1)^-a = log(x)^-a (1 - a / (x log x) + O(x^-2)), the integral is
    (z-1)^(a-1) Gamma(1-a, (z-1) log N) - a z^a Gamma(-a, z log N), the
    incomplete gammas by mpmath.gammainc.  The dropped terms are below 1e-11
    for |z| <= 1e4 and Re z >= 1.1.  (mpmath.nsum with Euler-Maclaurin was
    8.7e-7 off at alpha = -1, z = 1.3-12i and took 0.9 s.)
    """
    z = complex(z)
    partial = complex(np.sum(np.exp(-z * _LOG_N - alpha * _LOGLOG_N1)))
    x = float(_N)
    l1 = math.log(x + 1.0)
    f = x ** (-z) * l1 ** (-alpha)
    f1 = f * (-z / x - alpha / ((x + 1.0) * l1))
    zm = mpmath.mpc(z.real, z.imag)
    log_n = mpmath.log(_N)
    tail = (zm - 1) ** (alpha - 1) * mpmath.gammainc(1 - alpha, (zm - 1) * log_n)
    if alpha != 0.0:
        tail -= alpha * zm ** alpha * mpmath.gammainc(-alpha, zm * log_n)
    return partial + 0.5 * f - f1 / 12.0 + complex(tail)


def series_ref(alpha, z: complex) -> complex:
    """Kernel function of h (alpha None) or h_alpha at z = s + conj(w)."""
    return zeta_ref(z) if alpha is None else weighted_ref(alpha, z)


def bergman_constant(alpha: float) -> float:
    return -alpha * 2.0 ** (-alpha - 1.0) if alpha < 0 else 2.0 ** (alpha - 1.0) / (1.0 - alpha)


def halfplane_kernel(family: str, alpha, z):
    """H2: 1/(z-1); D_alpha (alpha < 1, alpha != 0): c_alpha (z-1)^(alpha-1)."""
    z = np.asarray(z, dtype=np.complex128)
    if family == "h2":
        return 1.0 / (z - 1.0)
    return bergman_constant(alpha) * np.exp((alpha - 1.0) * np.log(z - 1.0))


def as_complex(points) -> np.ndarray:
    p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return p[:, 0] + 1j * p[:, 1]


def halfplane_gram(family: str, alpha, s: np.ndarray) -> np.ndarray:
    """Normalized Gram G[l, j] = k_{s_j}(s_l) / (|k_j| |k_l|) from the closed form."""
    k = halfplane_kernel(family, alpha, s[:, None] + np.conj(s)[None, :])
    d = np.sqrt(np.real(np.diag(k)))
    return k / np.outer(d, d)


def lam_min(g: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(g)[0])


def separation(s: np.ndarray) -> float:
    a, b = s[:, None], s[None, :]
    rho = np.abs(a - b) / np.abs(a + np.conj(b) - 1.0)
    return float(np.min(rho[np.triu_indices(len(s), 1)]))


def window(lam: np.ndarray, theta: float) -> np.ndarray:
    """integral over t in [theta, theta+1] of e^{i t lam}; 1 at lam = 0."""
    lam = np.asarray(lam, dtype=np.float64)
    safe = np.where(lam == 0.0, 1.0, lam)
    val = np.exp(1j * theta * lam) * (np.sin(safe) + 2j * np.sin(0.5 * safe) ** 2) / safe
    return np.where(lam == 0.0, 1.0 + 0.0j, val)


def line_pair_matrix(degree: int, theta: float) -> np.ndarray:
    """K[m, n] = (mn)^-1/2 window(log n - log m); the mean square over the
    window is v^H K v with v = conj(a)."""
    n = np.arange(1, degree + 1, dtype=np.float64)
    ln = np.log(n)
    return window(ln[None, :] - ln[:, None], theta) / np.sqrt(np.outer(n, n))


def halfstrip_pair_matrix(degree: int, theta: float, alpha: float) -> np.ndarray:
    """The derivative form for 0 < alpha <= 1 on n >= 2: the integral of
    u^(1-alpha) |f'(1/2+u+it)|^2 over u > 0, theta < t < theta+1."""
    n = np.arange(2, degree + 1, dtype=np.float64)
    ln = np.log(n)
    lnmn = ln[:, None] + ln[None, :]
    return (np.outer(ln, ln) / np.sqrt(np.outer(n, n)) * math.gamma(2.0 - alpha)
            * lnmn ** (alpha - 2.0) * window(ln[None, :] - ln[:, None], theta))


def corpus(count: int, degree: int, seed: int) -> np.ndarray:
    """The documented corpus: rows of standard complex Gaussians / sqrt(degree)."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(2.0 * degree)
    rows = []
    for _ in range(count):
        z = (rng.standard_normal(degree) + 1j * rng.standard_normal(degree)) * scale
        while z[-1] == 0.0:
            z[-1] = (rng.standard_normal() + 1j * rng.standard_normal()) * scale
        rows.append(z)
    return np.array(rows).reshape(count, degree)


class PairForms:
    """Embedding pair matrices and their top eigenvalues, built once each."""

    def __init__(self):
        self._cache = {}

    def get(self, degree: int, theta: float, alpha):
        key = (degree, theta, alpha)
        if key not in self._cache:
            if alpha is None:
                m = line_pair_matrix(degree, theta)
                top = float(np.linalg.eigvalsh(m)[-1])
                weight = np.ones(degree)
            else:
                m = halfstrip_pair_matrix(degree, theta, alpha)
                weight = np.log(np.arange(1, degree + 1) + 1.0) ** alpha
                dm = 1.0 / np.sqrt(weight[1:])
                top = float(np.linalg.eigvalsh(m * np.outer(dm, dm))[-1])
            self._cache[key] = (m, top, weight)
        return self._cache[key]

    def ratios(self, coeffs: np.ndarray, theta: float, alpha):
        """(ratios, bound, rounding allowance) for rows of coefficients."""
        coeffs = np.atleast_2d(coeffs)
        degree = coeffs.shape[1]
        m, top, weight = self.get(degree, theta, alpha)
        v = np.conj(coeffs if alpha is None else coeffs[:, 1:])
        quad = np.real(np.sum(np.conj(v) * (v @ m.T), axis=1))
        norm2 = np.sum(np.abs(coeffs) ** 2 * weight, axis=1)
        mass = np.sum(np.abs(v) * (np.abs(v) @ np.abs(m).T), axis=1)
        return quad / norm2, top, 64.0 * EPS * mass / norm2


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# sequence_certify
# ---------------------------------------------------------------------------

SERIES_TOL = 1e-9     # program evaluators target 1e-10 absolute
LAMBDA_TOL = 1e-10    # reported bound squared against eigvalsh


def _series_gram(alpha, points) -> np.ndarray:
    from dirichlet_rkhs import gram, spaces
    seq = spaces.PointSequence(tuple(spaces.HalfPlanePoint(sg, t) for sg, t in points))
    if alpha is None:
        space = spaces.SpaceId(spaces.HARDY_DIRICHLET)
    else:
        space = spaces.SpaceId(spaces.WEIGHTED_DIRICHLET, alpha)
    return np.array(gram.gram_matrix(space, seq).entries)


def _sample_pairs(points, count: int):
    rng = np.random.default_rng(abs(hash(tuple(map(tuple, points)))) % 2**32)
    n = len(points)
    out = []
    while len(out) < count:
        l, j = (int(x) for x in rng.integers(0, n, 2))
        if l != j:
            out.append((l, j))
    return out


def _entry_ref(alpha, s: np.ndarray, l: int, j: int) -> complex:
    kl = series_ref(alpha, complex(2.0 * s[l].real, 0.0)).real
    kj = series_ref(alpha, complex(2.0 * s[j].real, 0.0)).real
    return series_ref(alpha, s[l] + np.conj(s[j])) / math.sqrt(kl * kj)


def check_certify(item) -> list[str]:
    pts = item.inputs["points"]
    alpha = item.inputs["alpha"]
    s = as_complex(pts)
    out = item.output
    rep = out["report"]
    bad = []
    m_ds, m_hp = rep["m_dirichlet_series"], rep["m_halfplane"]
    if rep["alpha"] != alpha:
        bad.append(f"alpha echoed as {rep['alpha']}")
    for name, m in (("m_dirichlet_series", m_ds), ("m_halfplane", m_hp)):
        if not (0.0 <= m <= 1.0 + 1e-12):
            bad.append(f"{name} = {m} outside [0, 1]")
    local = halfplane_gram("h2" if alpha is None else "d_alpha", alpha, s)
    lam = max(lam_min(local), 0.0)
    if not abs(m_hp * m_hp - lam) <= LAMBDA_TOL:
        bad.append(f"m_halfplane^2 {m_hp * m_hp!r} vs closed-form eigvalsh {lam!r}")
    series = out["series_gram"]
    if series is None or series.shape != (len(pts), len(pts)):
        series = _series_gram(alpha, pts)
    for l, j in _sample_pairs(pts, 2 if alpha is None else 1):
        ref = _entry_ref(alpha, s, l, j)
        if not abs(series[l, j] - ref) <= SERIES_TOL:
            bad.append(f"Gram entry ({l},{j}) {series[l, j]!r} vs reference {ref!r}")
    lam = max(lam_min(series), 0.0)
    if not abs(m_ds * m_ds - lam) <= LAMBDA_TOL:
        bad.append(f"m_dirichlet_series^2 {m_ds * m_ds!r} vs eigvalsh {lam!r}")
    ratio = m_ds / m_hp if m_hp > 0 else math.inf
    if not (ratio == rep["ratio"] or _close(rep["ratio"], ratio, 1e-12)):
        bad.append(f"ratio {rep['ratio']!r} vs {ratio!r}")
    if not _close(rep["separation"], separation(s), 1e-12):
        bad.append(f"separation {rep['separation']!r} vs {separation(s)!r}")
    bsum = float(np.sum(s.real - 0.5))
    if not _close(rep["blaschke_sum"], bsum, 1e-12):
        bad.append(f"blaschke_sum {rep['blaschke_sum']!r} vs {bsum!r}")
    if not (math.isfinite(rep["carleson"]) and rep["carleson"] > 0):
        bad.append(f"carleson {rep['carleson']!r}")
    if item.inputs["m_target"] is not None:
        bad += _check_split(pts, out["parts"], series, item.inputs["m_target"])
    return bad


def _check_split(pts, parts, gram: np.ndarray, m_target: float) -> list[str]:
    """The parts partition the sequence and each part's Gram has
    lambda_min >= m_target."""
    index = {(sg, t): i for i, (sg, t) in enumerate(pts)}
    bad = []
    seen = []
    for part in parts:
        idx = [index.get((sg, t)) for sg, t in part]
        if None in idx:
            bad.append("gershgorin: a part holds a point not in the sequence")
            continue
        seen += idx
        lam = lam_min(gram[np.ix_(idx, idx)])
        if lam < m_target - 1e-12:
            bad.append(f"gershgorin: part of {len(idx)} has lambda_min {lam!r} < {m_target}")
    if sorted(seen) != list(range(len(pts))):
        bad.append("gershgorin: parts do not partition the sequence")
    return bad


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------

def fault_contract_met(out: dict) -> bool:
    """Exit 1 or 2, empty stdout, exactly one JSON error object on stderr."""
    if out["exception"] is not None or out["code"] not in (1, 2) or out["stdout"]:
        return False
    try:
        obj = json.loads(out["stderr"])
    except ValueError:
        return False
    return isinstance(obj, dict) and "error" in obj and "message" in obj


def _csv_values(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().split("\n")[1:]]


def _kernel_ref(space: str, alpha, w: complex, s: complex) -> complex:
    z = s + w.conjugate()
    if space == "h":
        return zeta_ref(z)
    if space == "h_alpha":
        return weighted_ref(alpha, z)
    return complex(halfplane_kernel(space, alpha, z))


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, int(math.isqrt(p)) + 1))


def _blaschke_props(nodes: np.ndarray, primes: list[int]) -> list[str]:
    bad = [f"{p} is not prime" for p in primes if not _is_prime(p)]
    for j, p in enumerate(primes):
        spacing = 2.0 * math.pi / math.log(p)
        for l in range(len(nodes)):
            if l != j:
                d = nodes[l] - nodes[j]
                k = round(d.imag / spacing)
                if math.hypot(d.real, d.imag - k * spacing) < 1e-8:
                    bad.append(f"factor {j} (p={p}) vanishes near node {l}")
    return bad


def _factor(node: complex, p: int, z: complex) -> complex:
    return 1.0 - np.exp((node - z) * math.log(p))


def check_cli_item(item, state: dict) -> list[str]:
    inp, out = item.inputs, item.output
    bad = []
    if out["stderr"]:
        bad.append(f"stderr on exit 0: {out['stderr'][:100]!r}")
    kind = item.kind
    if kind == "kernel":
        if inp["format"] == "csv":
            re_, im_ = (float(v) for v in _csv_values(out["stdout"])[0])
            value = complex(re_, im_)
        else:
            value = complex(*json.loads(out["stdout"])["value"])
        ref = _kernel_ref(inp["space"], inp["alpha"], complex(*inp["w"]), complex(*inp["s"]))
        if not abs(value - ref) <= SERIES_TOL * max(1.0, abs(ref)):
            bad.append(f"kernel {inp['space']}: {value!r} vs reference {ref!r}")
        return bad
    payload = json.loads(out["stdout"])
    nodes = as_complex(inp.get("points", []))
    if kind == "gram":
        e = np.array(payload["entries"], dtype=np.float64)
        g = e[..., 0] + 1j * e[..., 1]
        if payload["n"] != len(nodes) or g.shape != (len(nodes), len(nodes)):
            return bad + [f"gram: shape {g.shape} for {len(nodes)} points"]
        if np.max(np.abs(g - g.conj().T)) > 0 or np.any(np.diag(g) != 1.0):
            bad.append("gram: not Hermitian with unit diagonal")
        lam = lam_min(g)
        if not abs(payload["smallest_eigenvalue"] - lam) <= LAMBDA_TOL:
            bad.append(f"gram: smallest_eigenvalue {payload['smallest_eigenvalue']!r} "
                       f"vs eigvalsh {lam!r}")
        if inp["space"] == "h2":
            ref = halfplane_gram("h2", None, nodes)
            if np.max(np.abs(g - ref)) > 1e-12:
                bad.append(f"gram h2: entries off by {np.max(np.abs(g - ref)):.3g}")
        else:
            for l, j in _sample_pairs(inp["points"], 2):
                ref = _entry_ref(None, nodes, l, j)
                if not abs(g[l, j] - ref) <= SERIES_TOL:
                    bad.append(f"gram h: entry ({l},{j}) {g[l, j]!r} vs mpmath {ref!r}")
            state[inp["tag"]] = lam
        return bad
    if kind == "diagnose":
        boas = payload["boas"]
        checks = [("HardyHalfPlane", max(lam_min(halfplane_gram("h2", None, nodes)), 0.0))]
        if inp["space"] == "h":
            if inp["tag"] not in state:
                return bad + ["diagnose h: no checked gram of the same points in this round"]
            checks.append(("HardyDirichlet", max(state[inp["tag"]], 0.0)))
        else:
            lam = lam_min(halfplane_gram("d_alpha", inp["alpha"], nodes))
            checks.append((f"BergmanDirichletHalfPlane:{inp['alpha']:g}", max(lam, 0.0)))
        for tag, lam in checks:
            m = boas.get(tag)
            if m is None or not (0.0 <= m <= 1.0 + 1e-12) or abs(m * m - lam) > LAMBDA_TOL:
                bad.append(f"diagnose: boas {tag} {m!r} vs eigvalsh {lam!r}")
        sep = separation(nodes)
        if not _close(payload["separation"], sep, 1e-12):
            bad.append(f"diagnose: separation {payload['separation']!r} vs {sep!r}")
        bsum = float(np.sum(nodes.real - 0.5))
        if not _close(payload["blaschke_sum"], bsum, 1e-12):
            bad.append(f"diagnose: blaschke_sum {payload['blaschke_sum']!r} vs {bsum!r}")
        verdict = payload["separation"] >= 0.1 and payload["carleson"] <= 10.0
        if payload["verdict_h2"] != verdict:
            bad.append("diagnose: verdict_h2 disagrees with the default thresholds")
        return bad
    if kind == "interpolate":
        a = as_complex(inp["targets"])
        c = as_complex(payload["coefficients"])
        if len(c) != len(nodes):
            return bad + [f"interpolate: {len(c)} coefficients for {len(nodes)} nodes"]
        if inp["method"] == "blaschke":
            primes = payload["primes"]
            bad += _blaschke_props(nodes, primes)
            values = []
            for l in range(len(nodes)):
                b_l = np.prod([_factor(nodes[m], primes[m], nodes[l])
                               for m in range(len(nodes)) if m != l])
                values.append(c[l] * b_l)
            resid = np.abs(np.array(values) - a)
        else:
            z = nodes[:, None] + np.conj(nodes)[None, :]
            if inp["space"] == "h2":
                k = halfplane_kernel("h2", None, z)
            else:
                k = np.array([[zeta_ref(complex(v)) for v in row] for row in z])
            resid = np.abs(k @ c - a)
            norm2 = float(np.real(np.conj(a) @ c))
            if not _close(payload["norm"] ** 2, norm2, 1e-8):
                bad.append(f"interpolate: norm {payload['norm']!r} vs sqrt {norm2!r}")
        worst = float(np.max(resid))
        if not worst <= 1e-8 * max(1.0, float(np.max(np.abs(a)))):
            bad.append(f"interpolate {inp['method']} {inp['space']}: residual {worst:.3g}")
        return bad
    if kind == "blaschke":
        primes = payload["primes"]
        z = complex(*payload["point"])
        ref = complex(np.prod([_factor(nodes[j], p, z) for j, p in enumerate(primes)]))
        value = complex(*payload["value"])
        if len(primes) != len(nodes) or not abs(value - ref) <= 1e-12 * max(1.0, abs(ref)):
            bad.append(f"blaschke: value {value!r} vs product {ref!r}")
        return bad + _blaschke_props(nodes, primes)
    if kind == "asymptotics":
        alpha = inp["alpha"]
        rows = payload["rows"]
        rems = []
        for k, row in enumerate(rows, start=1):
            eps = 10.0 ** (-k)
            main = math.log(1.0 / eps) if alpha == 1.0 else \
                math.gamma(1.0 - alpha) * eps ** (alpha - 1.0)
            value = complex(*row["value"])
            if row["k"] != k or not _close(row["eps"], eps, 1e-15) or \
                    not _close(row["main_term"], main, 1e-12):
                bad.append(f"asymptotics alpha={alpha}: row {k} eps or main term")
            if not _close(row["remainder"], abs(value - row["main_term"]), 1e-12, 1e-300):
                bad.append(f"asymptotics alpha={alpha}: row {k} remainder != |value - main|")
            rems.append(row["remainder"])
            if k == 1:
                ref = weighted_ref(alpha, complex(1.0 + eps))
                if not abs(value - ref) <= SERIES_TOL * max(1.0, abs(ref)):
                    bad.append(f"asymptotics alpha={alpha}: value at 1.1 {value!r} vs {ref!r}")
        if len(rems) != 5 or not all(math.isfinite(r) and r <= 50.0 * rems[0] for r in rems):
            bad.append(f"asymptotics alpha={alpha}: remainders {rems} not bounded")
        return bad
    if kind == "embedding":
        coeffs = as_complex(inp["coeffs"])
        ratios, top, allowance = state["forms"].ratios(coeffs, inp["theta"], inp["alpha"])
        r = payload["ratio"]
        if not _close(r, float(ratios[0]), 1e-10, 1e-13):
            bad.append(f"embedding: ratio {r!r} vs closed form {float(ratios[0])!r}")
        if r > top * (1.0 + 1e-12) + payload["quadrature_error"] + allowance[0]:
            bad.append(f"embedding: ratio {r!r} above the form's top eigenvalue {top!r}")
        return bad
    if kind == "probe":
        return bad + _check_probe_hit("h", None, inp["sigma"], inp["target"], inp["t_max"],
                                      payload["tau"], payload)
    return bad + [f"unknown item kind {kind}"]


def _correlation(space: str, alpha, sigma: float, tau: float) -> float:
    return abs(series_ref(alpha, complex(2.0 * sigma, tau))) / \
        series_ref(alpha, complex(2.0 * sigma, 0.0)).real


def _check_probe_hit(space, alpha, sigma, target, t_max, tau, payload=None) -> list[str]:
    if tau is None:
        return [f"probe {space} sigma={sigma}: no tau for target {target}"]
    if not 1.0 < tau <= t_max:
        return [f"probe: tau {tau!r} outside (1, {t_max}]"]
    corr = _correlation(space, alpha, sigma, tau)
    bad = []
    if corr < target - SERIES_TOL:
        bad.append(f"probe {space} sigma={sigma}: correlation {corr!r} at tau {tau!r} "
                   f"below target {target!r}")
    if payload is not None:
        dist = tau / abs(complex(2.0 * sigma - 1.0, -tau))
        if not _close(payload["correlation"], corr, 1e-8) or \
                not _close(payload["distance"], dist, 1e-12):
            bad.append(f"probe: correlation/distance {payload['correlation']!r}, "
                       f"{payload['distance']!r} vs {corr!r}, {dist!r}")
    return bad


# ---------------------------------------------------------------------------
# embedding_survey and probe_scan
# ---------------------------------------------------------------------------

def check_corpus(item, forms: PairForms) -> list[str]:
    inp = item.inputs
    payload = json.loads(item.output["stdout"])
    bad = []
    ratios = np.array(payload["ratios"], dtype=np.float64)
    if payload["count"] != inp["count"] or len(ratios) != inp["count"]:
        return [f"corpus: {len(ratios)} ratios for count {inp['count']}"]
    if payload["max_ratio"] != float(np.max(ratios)):
        bad.append("corpus: max_ratio is not the largest ratio")
    if payload["theta"] != inp["theta"] or payload["alpha"] != inp["alpha"]:
        bad.append("corpus: theta or alpha not echoed")
    a = corpus(inp["count"], inp["degree"], inp["seed"])
    ref, top, allowance = forms.ratios(a, inp["theta"], inp["alpha"])
    off = np.abs(ratios - ref) > 1e-13 + 1e-10 * np.abs(ref)
    if np.any(off):
        i = int(np.argmax(off))
        bad.append(f"corpus d={inp['degree']}: ratio {i} {float(ratios[i])!r} vs closed "
                   f"form {float(ref[i])!r}")
    over = ratios > top * (1.0 + 1e-12) + allowance
    if np.any(over):
        i = int(np.argmax(over))
        bad.append(f"corpus d={inp['degree']}: ratio {i} {float(ratios[i])!r} above the "
                   f"sharp constant {top!r}")
    return bad


def check_sharp(item, forms: PairForms) -> list[str]:
    degree, theta = item.inputs["degree"], item.inputs["theta"]
    value = item.output
    bad = []
    for th in (theta, 0.0):
        top = forms.get(degree, th, None)[1]
        if not _close(value, top, 1e-11):
            bad.append(f"sharp d={degree} theta={theta}: {value!r} vs eigvalsh at "
                       f"theta={th}: {top!r}")
    return bad


def check_probe(item) -> list[str]:
    inp = item.inputs
    tau = item.output
    if item.kind == "miss" and tau is None:
        best = workloads.KNOWN_WINDOW_BEST.get((inp["space"], inp["sigma"]))
        if best is None or inp["t_max"] > best[0] or inp["target"] <= best[1]:
            return [f"probe: miss at target {inp['target']} with no known window best above it"]
        return []
    bad = _check_probe_hit(inp["space"], inp["alpha"], inp["sigma"], inp["target"],
                           inp["t_max"], tau)
    if item.kind == "late_hit" and tau is not None and \
            abs(tau - workloads.LATE_HIT["tau"]) > 0.1:
        bad.append(f"probe: late hit tau {tau!r} not within 0.1 of {workloads.LATE_HIT['tau']}")
    return bad


def check(workload: str, items: list, round_sizes: list[int]):
    failed = [item.error is not None for item in items]
    problems = []
    forms = PairForms()
    start = 0
    for size in round_sizes:
        state = {"forms": forms}
        for i in range(start, start + size):
            item = items[i]
            if failed[i]:
                continue
            if workload in ("cli_mix", "embedding_survey") and item.kind != "sharp":
                out = item.output
                if item.kind == "fault":
                    failed[i] = not fault_contract_met(out)
                    continue
                if out["exception"] is not None or out["code"] != 0:
                    failed[i] = True
                    continue
            try:
                if workload == "sequence_certify":
                    bad = check_certify(item)
                elif workload == "cli_mix":
                    bad = check_cli_item(item, state)
                elif workload == "embedding_survey":
                    bad = check_sharp(item, forms) if item.kind == "sharp" \
                        else check_corpus(item, forms)
                else:
                    bad = check_probe(item)
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                bad = [f"unreadable output: {type(exc).__name__}: {exc}"]
            problems += [(i, msg) for msg in bad]
        start += size
    return failed, problems
