"""Thread-pool helpers.  No library module uses them: only the benchmark
harness (perfbench/tracing.py and perfbench/baselines.py) imports this
module, by name, so it goes when they are updated (ROADMAP item 2).

All library operations are pure, so ordinary thread mapping is safe; results
are always returned in input order regardless of completion order.  The
DIRICHLET_RKHS_THREADS environment variable caps the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import DomainError


def worker_count() -> int:
    raw = os.environ.get("DIRICHLET_RKHS_THREADS")
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise DomainError(f"DIRICHLET_RKHS_THREADS={raw!r} is not an integer") from None
        if cap < 1:
            raise DomainError("DIRICHLET_RKHS_THREADS must be at least 1")
        return cap
    return min(8, os.cpu_count() or 1)


def map_ordered(fn, items) -> list:
    """Apply fn to every item, preserving input order in the result."""
    items = list(items)
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
