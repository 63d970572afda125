"""Benchmark of dirichlet-rkhs: closed-loop workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in a fresh process (worker.py) with one caller that
issues the next item when the previous one returns, and with no more
compute threads than this machine's CPUs.  This process times the set-up,
then checks every item's output (checks.py) after the workload process has
ended, so checking never competes with the measured work.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a traced run (tracing.py).  Full results, and the
spans of a traced run, go to perfbench/_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import select
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "_results")
WORK = os.path.join(HERE, "_work")

SETUP_SAMPLES = 3          # fresh interpreters timed to "ready"; the median is setup_s
CHILD_DEADLINE_S = 150.0   # a run must end within 180 s, checks included


class BenchError(Exception):
    """The benchmark could not run or measure; no result is printed."""


def _metric_units(kind: str) -> dict:
    """Metric name -> unit, from BENCHMARK.json at the root of the checkout."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # one caller, and no more compute threads than CPUs: the pool gets one
    # worker per CPU and BLAS stays single-threaded inside each
    env["DIRICHLET_RKHS_THREADS"] = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise BenchError("workload process did not answer in time")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            line = proc.stdout.readline()  # unbuffered: reads no further than the line
            if not line:
                raise BenchError(f"workload process ended early (exit {proc.wait()})")
            return line.decode().strip()


def _spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start worker.py; return it once it is ready, with the seconds it took."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, bufsize=0, env=child_env(), cwd=ROOT)
    try:
        line = _read_line(proc, time.monotonic() + 60.0)
        if line != "ready":
            raise BenchError(f"unexpected line from workload process: {line!r}")
    except BaseException:
        _stop(proc)
        raise
    return proc, time.perf_counter() - t0


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout:
        proc.stdout.close()


def run_child(workload: str, seed: int, seconds: float, trace: int, rounds) -> tuple:
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, dt = _spawn(["--ready-only"])
        _stop(proc)
        setup.append(dt)
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "result.pickle")
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", workdir, "--out", out]
    if rounds is not None:
        args += ["--rounds", str(rounds)]
    try:
        proc, dt = _spawn(args)
        setup.append(dt)
        try:
            line = _read_line(proc, time.monotonic() + CHILD_DEADLINE_S)
            if line != "done" or proc.wait(timeout=30) != 0:
                raise BenchError(f"workload process failed: {line!r}")
        finally:
            _stop(proc)
        items = []
        with open(out, "rb") as fh:  # written by worker.py above, nothing else
            while not isinstance(obj := pickle.load(fh), dict):
                items.append(obj)
        result = dict(obj, items=items)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result, setup


def items_per_s(times: list[float], round_sizes: list[int]) -> float:
    """Items per round over the sum of per-position medians across rounds.

    Every round makes the same item kinds in the same order; taking each
    position's median over rounds before summing keeps a single item slowed
    by a neighbour on the machine out of the throughput.
    """
    size = round_sizes[0]
    per_position = [statistics.median(times[p::size]) for p in range(size)]
    return size / sum(per_position)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import checks
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload]
    rounds = max(1, int(seconds / wl.round_seconds)) if trace else None
    result, setup = run_child(workload, seed, seconds, trace, rounds)
    items, round_sizes = result["items"], result["round_sizes"]
    if len(set(round_sizes)) != 1:
        raise BenchError("rounds of unequal size")
    t0 = time.perf_counter()
    failed, problems = checks.check(workload, items, round_sizes)
    check_s = time.perf_counter() - t0
    for i, msg in problems[:20]:
        print(f"CHECK FAILED {workload} item {i} ({items[i].kind}): {msg}", file=sys.stderr)
    factors = speed.factors(result["refs"], len(items), wl.reference)
    times = [it.seconds * f for it, f in zip(items, factors)]
    if trace:
        layer = tracing.per_layer(result["spans"], result["span_names"], factors)
        layer["traced.items_per_s"] = items_per_s(times, round_sizes)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in _metric_units("per_layer").items()}
    else:
        values = {
            "items_per_s": items_per_s(times, round_sizes),
            "item_p50_ms": 1e3 * statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in _metric_units("end_to_end").items()}
    summary = {"correct": not problems, "attempted": len(items), "failed": sum(failed),
               "metrics": metrics}
    _save(workload, seed, trace, summary, result, setup, failed, problems, check_s, times)
    return summary


def _save(workload, seed, trace, summary, result, setup, failed, problems, check_s,
          times) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}")
    items = result["items"]
    record = dict(summary, workload=workload, seed=seed, wall_s=result["wall_s"],
                  check_s=check_s, setup_samples_s=setup, round_sizes=result["round_sizes"],
                  references=result["refs"],
                  items=[{"kind": it.kind, "seconds": it.seconds, "scaled_s": t,
                          "failed": f, "error": it.error}
                         for it, f, t in zip(items, failed, times)],
                  problems=[{"item": i, "message": m} for i, m in problems])
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        names = result["span_names"]
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for sid, key, t0, t1, parent, thread, item in result["spans"]:
                fh.write(json.dumps({"id": sid, "name": names[key], "start": t0, "end": t1,
                                     "parent": parent, "thread": thread, "item": item}))
                fh.write("\n")


def _print_summary(workload: str, summary: dict) -> None:
    print(f"{workload}: correct={summary['correct']} attempted={summary['attempted']} "
          f"failed={summary['failed']}")
    for name, m in summary["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="sequence_certify, cli_mix, embedding_survey, probe_scan or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "dirichlet_rkhs", "cli.py")):
        print(f"no program to measure: {SRC}/dirichlet_rkhs is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        summaries = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for n, summary in summaries.items():
        _print_summary(n, summary)
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {"correct": all(s["correct"] for s in summaries.values()),
                 "attempted": sum(s["attempted"] for s in summaries.values()),
                 "failed": sum(s["failed"] for s in summaries.values()),
                 "metrics": {f"{n}.{k}": v for n, s in summaries.items()
                             for k, v in s["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
