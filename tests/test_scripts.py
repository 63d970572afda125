"""The scripts/ runners at reduced size, each in a fresh interpreter."""

import csv
import io
import os
import pathlib
import subprocess
import sys

import dirichlet_rkhs

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, *args):
    root = pathlib.Path(dirichlet_rkhs.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def test_equivalence_sweep_runs():
    rows = _run_script("run_equivalence_sweep.py", "--count", "2", "--points", "4",
                       "--alpha", "0.5")
    assert rows[0] == ["seq", "pairing", "m_series", "m_local", "ratio",
                       "separation", "carleson", "blaschke_sum"]
    assert [r[:2] for r in rows[1:]] == [["0", "plain"], ["0", "alpha=0.5"],
                                         ["1", "plain"], ["1", "alpha=0.5"]]


def test_embedding_survey_runs():
    rows = _run_script("run_embedding_survey.py", "--count", "5", "--max-degree", "20")
    assert rows[0] == ["theta", "corpus_max", "corpus_mean", "sharp_constant"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "10", "100"]


def test_periodicity_probe_runs():
    rows = _run_script("run_periodicity_probe.py", "--t-max", "200", "--target", "0.7")
    assert rows[0] == ["target", "tau", "seconds"]
    assert [r[0] for r in rows[1:]] == ["0.7"]
