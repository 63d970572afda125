"""Self-test of the checks: unchanged outputs pass, perturbed outputs are rejected.

    python3 perfbench/selftest.py

For each workload, runs round 0 of seed 0 in this process, checks it (the
five known cli_mix faults must count as failed and nothing else), then
perturbs one output and requires the check to reject it:

  sequence_certify   a Boas bound whose lambda_min is off by 1e-6
  cli_mix            a gram smallest_eigenvalue off by 1e-6
  embedding_survey   a corpus ratio 0.1% above the sharp constant
  probe_scan         a tau whose correlation falls short of the target

Exit code 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def run_round(name: str, workdir: str) -> list:
    wl = workloads.WORKLOADS[name]
    items = wl.make_round(SEED, 0, workdir)
    for item in items:
        prepared = wl.prepare(item)
        try:
            item.output = wl.output(wl.call(item, *prepared))
        except Exception as exc:  # recorded as the worker would
            item.error = f"{type(exc).__name__}: {exc}"
    return items


def perturb_certify(items):
    rep = items[0].output["report"]
    rep["m_dirichlet_series"] = math.sqrt(rep["m_dirichlet_series"] ** 2 + 1e-6)
    return 0


def perturb_cli(items):
    i = next(i for i, it in enumerate(items) if it.kind == "gram" and it.inputs["space"] == "h")
    payload = json.loads(items[i].output["stdout"])
    payload["smallest_eigenvalue"] += 1e-6
    items[i].output["stdout"] = json.dumps(payload)
    return i


def perturb_embedding(items):
    i = next(i for i, it in enumerate(items)
             if it.kind == "corpus" and it.inputs["alpha"] is None)
    inp = items[i].inputs
    top = checks.PairForms().get(inp["degree"], inp["theta"], None)[1]
    payload = json.loads(items[i].output["stdout"])
    payload["ratios"][0] = top * 1.001
    payload["max_ratio"] = max(payload["ratios"])
    items[i].output["stdout"] = json.dumps(payload)
    return i


def perturb_probe(items):
    i = next(i for i, it in enumerate(items) if it.kind == "early_hit")
    inp = items[i].inputs
    tau = items[i].output
    while checks._correlation(inp["space"], inp["alpha"], inp["sigma"], tau) >= inp["target"]:
        tau += 0.25
    items[i].output = tau
    return i


PERTURB = {
    "sequence_certify": perturb_certify,
    "cli_mix": perturb_cli,
    "embedding_survey": perturb_embedding,
    "probe_scan": perturb_probe,
}


def main() -> int:
    workdir = os.path.join(HERE, "_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ok = True
    try:
        for name, perturb in PERTURB.items():
            items = run_round(name, workdir)
            sizes = [len(items)]
            failed, problems = checks.check(name, items, sizes)
            faults = [i for i, it in enumerate(items) if it.kind == "fault"]
            good = not problems and [i for i, f in enumerate(failed) if f] == faults
            print(f"{name}: unchanged round of {len(items)} items "
                  f"{'passes' if good else 'FAILS'} ({sum(failed)} failed as expected)")
            for i, msg in problems:
                print(f"    item {i}: {msg}")
            bad_items = copy.deepcopy(items)
            i = perturb(bad_items)
            _, problems = checks.check(name, bad_items, sizes)
            caught = any(j == i for j, _ in problems)
            print(f"{name}: perturbed item {i} ({bad_items[i].kind}) "
                  f"{'rejected' if caught else 'NOT REJECTED'}")
            for j, msg in problems:
                print(f"    item {j}: {msg}")
            ok = ok and good and caught
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
