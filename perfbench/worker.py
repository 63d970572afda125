"""Workload process: imports the program, says "ready", runs whole rounds.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/.  The first thing it does is import dirichlet_rkhs.cli, so
the time from spawn to the "ready" line is the program's set-up time.  With
--ready-only it exits there (an extra set-up sample).

The loop is closed and single-caller: the next item starts when the previous
one has returned.  Input preparation, output conversion and the speed
reference (speed.py) stay outside the timed region.  Untraced runs repeat
rounds until --seconds have passed; traced runs make --rounds rounds so that
their counts repeat.  Each finished item, then a closing record, is pickled
to a file that only run.py reads.
"""

import sys
import time

import dirichlet_rkhs.cli  # noqa: F401  -- the program's set-up, timed by run.py

sys.stdout.write("ready\n")
sys.stdout.flush()

import argparse  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402


def run(workload, seed: int, seconds: float, rounds: int | None, workdir: str,
        tracer, sink) -> dict:
    """Run whole rounds; pickle each finished item to sink, so that memory
    does not grow with the number of items."""
    n = 0
    round_sizes = []
    refs = []  # (index of the next item, interpreted s, vectorized s)
    last_ref = -float("inf")
    start = time.perf_counter()
    r = 0
    while True:
        batch = workload.make_round(seed, r, workdir)
        for item in batch:
            if time.perf_counter() - last_ref >= speed.REFERENCE_EVERY_S:
                refs.append((n, *speed.reference_seconds()))
                last_ref = time.perf_counter()
            if tracer is not None:
                tracer.item = n
            t0 = time.perf_counter()
            try:
                prepared = workload.prepare(item)
                t0 = time.perf_counter()
                result = workload.call(item, *prepared)
                item.seconds = time.perf_counter() - t0
                item.output = workload.output(result)
            except Exception as exc:  # the program's fault: counted as failed
                item.seconds = time.perf_counter() - t0
                item.error = f"{type(exc).__name__}: {exc}"
            pickle.dump(item, sink, protocol=pickle.HIGHEST_PROTOCOL)
            n += 1
        round_sizes.append(len(batch))
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    refs.append((n, *speed.reference_seconds()))
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"round_sizes": round_sizes, "refs": refs, "wall_s": wall,
            "peak_rss_mb": peak_kb / 1024.0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ready-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.ready_only:
        return 0
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    with open(args.out, "wb") as sink:
        result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                     args.rounds, args.workdir, tracer, sink)
        if tracer is not None:
            result["spans"] = tracer.spans
            result["span_names"] = tracer.names
        pickle.dump(result, sink, protocol=pickle.HIGHEST_PROTOCOL)
    sys.stdout.write("done\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
