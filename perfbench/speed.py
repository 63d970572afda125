"""Machine speed reference: times are scaled to the machine's quiet speed.

On the shared 2-core machine this benchmark was built on, the same code ran
up to 2x slower for stretches of milliseconds to seconds, at random and on
each core independently (another tenant on the sibling hardware thread;
steal time stayed near 0).  Raw run-to-run spreads of items_per_s reached
0.26-0.50.  So the workload process times fixed reference work, in the
benchmark's own code, at most every REFERENCE_EVERY_S seconds between items,
and each item's time is scaled by QUIET_REFERENCE_S / R, where R is the mean
of the reference times just before and just after the item, for the kind of
reference that matches the workload's code.  Scaled, the spreads fell to
0.01-0.10.  Raw times are kept in the result files.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# Each reference pass takes about this long on a quiet core of the 2-core
# machine the benchmark was built on (lower decile 5.8 and 6.0 ms).
QUIET_REFERENCE_S = 6.0e-3
REFERENCE_EVERY_S = 0.2

_A = np.random.default_rng(0).standard_normal((10, 10)) * (1.0 + 0.5j)
_A = _A + _A.conj().T
_V = np.linspace(0.0, 50.0, 20000)
_TAUS = np.linspace(1.0, 170.0, 256)
_LOGS = np.log(np.arange(1.0, 513.0))
_COEF = (np.arange(1.0, 513.0) ** -1.5).astype(np.complex128)

KINDS = ("interpreted", "vectorized")


def reference_seconds() -> tuple[float, float]:
    """Times of two passes of fixed work, one per kind of code:

    interpreted: small-array numpy in a Python loop, the shape of the
        program's eigensolver and evaluators, plus a short vectorized exp;
    vectorized: one large complex exp and product, the shape of the
        probe's surrogate scan.

    On this machine the slow stretches cost interpreted code about 2x and
    large vectorized arrays about 1.35x, so each workload is scaled by the
    kind that does its work.
    """
    t0 = time.perf_counter()
    for _ in range(12):
        a = _A.copy()
        for p in range(9):
            for q in range(p + 1, 10):
                c = 1.0 / (1.0 + abs(a[p, q]))
                col = a[:, p].copy()
                a[:, p] = c * col - 0.1 * a[:, q]
                a[:, q] = 0.1 * col + c * a[:, q]
    for _ in range(4):
        np.exp(-1j * _V * 1.7).sum()
    t1 = time.perf_counter()
    np.exp(-1j * np.outer(_TAUS, _LOGS)) @ _COEF
    return t1 - t0, time.perf_counter() - t1


def factors(refs: list[tuple], n_items: int, kind: str) -> list[float]:
    """Per item, QUIET_REFERENCE_S over the mean of the references of one kind
    taken just before and just after it.

    refs holds (index of the next item, interpreted s, vectorized s) in run
    order; the first is taken before item 0 and the last after the final
    item.
    """
    col = 1 + KINDS.index(kind)
    at = [ref[0] for ref in refs]
    out = []
    for i in range(n_items):
        j = bisect.bisect_right(at, i) - 1
        after = refs[j + 1][col] if j + 1 < len(refs) else refs[j][col]
        out.append(QUIET_REFERENCE_S / (0.5 * (refs[j][col] + after)))
    return out
