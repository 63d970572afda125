"""Layer baselines: the figures quoted under ROADMAP aim 1, measured again.

    python3 perfbench/baselines.py

Prints one line per figure and, last, one JSON object with all of them; the
same object goes to perfbench/_results/baselines.json.  Each figure is the
median of several timings (single runs for the multi-second ones).  Takes
about half a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from dirichlet_rkhs import (BERGMAN_DIRICHLET, HARDY_DIRICHLET, HARDY_HALF_PLANE,  # noqa: E402
                            WEIGHTED_DIRICHLET, HalfPlanePoint, PointSequence, SpaceId,
                            WeightedZetaParams, almost_periodicity_probe, eval_weighted_zeta,
                            eval_zeta, gram_matrix, line_embedding_ratio,
                            random_polynomial_corpus, smallest_eigenvalue)
from dirichlet_rkhs.parallel import map_ordered  # noqa: E402


def timed(fn, repeat: int, inner: int = 1) -> float:
    """Median seconds per call over `repeat` batches of `inner` calls."""
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


def main() -> int:
    out = {}

    def report(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.4g} {unit}", flush=True)

    report("eval_zeta@1.5+10i", 1e6 * timed(lambda: eval_zeta(1.5 + 10j), 7, 200), "us")
    report("eval_zeta@1.5+1000i", 1e6 * timed(lambda: eval_zeta(1.5 + 1000j), 7, 100), "us")
    params = WeightedZetaParams(0.5)
    report("eval_weighted_zeta(0.5)@2+10i",
           1e6 * timed(lambda: eval_weighted_zeta(params, 2 + 10j), 7, 50), "us")

    # a 128-point jittered lattice inside the equivalence-report window
    pts = workloads._lattice(np.random.default_rng(0), 128, cols=4, sigma0=0.7,
                             sigma_step=0.35, t_half=38.0)
    seq = PointSequence(tuple(HalfPlanePoint(s, t) for s, t in pts))
    for label, space in (("h", SpaceId(HARDY_DIRICHLET)),
                         ("h_alpha(0.5)", SpaceId(WEIGHTED_DIRICHLET, 0.5)),
                         ("h2", SpaceId(HARDY_HALF_PLANE)),
                         ("d_alpha(0.5)", SpaceId(BERGMAN_DIRICHLET, 0.5))):
        report(f"gram_matrix[{label}]@n=128", timed(lambda: gram_matrix(space, seq), 3), "s")

    h = SpaceId(HARDY_DIRICHLET)
    for n in (32, 64, 128):
        g = gram_matrix(h, PointSequence(seq.points[:n]))
        t0 = time.perf_counter()
        lam = smallest_eigenvalue(g)
        report(f"jacobi_smallest_eigenvalue@n={n}", time.perf_counter() - t0, "s")
        report(f"numpy_eigvalsh@n={n}",
               1e3 * timed(lambda: np.linalg.eigvalsh(g.entries), 7), "ms")
        report(f"lambda_min_abs_diff@n={n}",
               abs(lam - float(np.linalg.eigvalsh(g.entries)[0])), "1")

    t0 = time.perf_counter()
    tau = almost_periodicity_probe(h, HalfPlanePoint(0.75, 0.0), 3e3, 0.85)
    report("probe(sigma=0.75,target=0.85,t_max=3e3)", time.perf_counter() - t0, "s")
    report("probe_tau", tau, "1")

    polys = random_polynomial_corpus(400, 300, 0)
    saved = os.environ.get("DIRICHLET_RKHS_THREADS")
    try:
        for threads in (1, 2):
            os.environ["DIRICHLET_RKHS_THREADS"] = str(threads)
            t0 = time.perf_counter()
            map_ordered(lambda f: line_embedding_ratio(f, 0.0), polys)
            report(f"corpus_400x300@{threads}_threads", time.perf_counter() - t0, "s")
    finally:
        if saved is None:
            os.environ.pop("DIRICHLET_RKHS_THREADS", None)
        else:
            os.environ["DIRICHLET_RKHS_THREADS"] = saved

    os.makedirs(os.path.join(HERE, "_results"), exist_ok=True)
    with open(os.path.join(HERE, "_results", "baselines.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
