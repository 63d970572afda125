#!/usr/bin/env python3
"""Survey local-embedding ratios over a random polynomial corpus.

Prints per-theta corpus maxima next to the sharp spectral constant for the
same length, which is where the window-independence actually lives: the
corpus max drifts with the draw, the spectral constant does not.
"""

import argparse
import sys

from dirichlet_rkhs.embeddings import (line_embedding_ratios,
                                       line_embedding_sharp_constant,
                                       random_polynomial_corpus)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--max-degree", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--theta", type=float, action="append", default=None,
                    help="window widths to test (repeatable, default 0 1 10 100)")
    args = ap.parse_args(argv)

    thetas = args.theta if args.theta is not None else [0.0, 1.0, 10.0, 100.0]
    corpus = random_polynomial_corpus(args.count, args.max_degree, args.seed)

    print(f"# corpus: count={args.count} max_degree={args.max_degree} "
          f"seed={args.seed}")
    print("theta,corpus_max,corpus_mean,sharp_constant")
    for theta in thetas:
        ratios = [r.ratio for r in line_embedding_ratios(corpus, theta)]
        sharp = line_embedding_sharp_constant(args.max_degree, theta)
        print(f"{theta:g},{max(ratios):.12g},"
              f"{sum(ratios) / len(ratios):.12g},{sharp:.12g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
