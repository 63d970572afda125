"""Command-line behavior: golden outputs, exit codes, error objects."""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirichlet_rkhs
import dirichlet_rkhs.__main__
from dirichlet_rkhs.cli import main, run
from dirichlet_rkhs import cli
from dirichlet_rkhs.embeddings import (HALFSTRIP_DEGREE_CAP, LINE_DEGREE_CAP,
                                       halfstrip_embedding_ratio,
                                       random_polynomial_corpus)
from dirichlet_rkhs.errors import DomainError
from dirichlet_rkhs.parallel import map_ordered, worker_count
from dirichlet_rkhs.spaces import DirichletPolynomial

# name -> argv; paths are filled in from the fixtures directory at run time
GOLDEN_CASES = {
    "kernel_h.json": ["kernel", "--space", "h", "--w", "1,0", "--s", "1.5,-1"],
    "kernel_dalpha.csv": ["kernel", "--space", "d_alpha", "--alpha", "-1",
                          "--w", "1,0.5", "--s", "1.2,0", "--format", "csv"],
    "gram_h2_geometric.json": ["gram", "--space", "h2",
                               "--points", "{fix}/geometric.json"],
    "gram_h_nodes.csv": ["gram", "--space", "h",
                         "--points", "{fix}/nodes_small.json", "--format", "csv"],
    "diagnose_h2_geometric.json": ["diagnose", "--space", "h2",
                                   "--points", "{fix}/geometric.json",
                                   "--delta-min", "0.2", "--carleson-max", "10"],
    "diagnose_weighted_equidistributed.json": [
        "diagnose", "--space", "h_alpha", "--alpha", "-1",
        "--points", "{fix}/equidistributed.json"],
    "interpolate_minnorm.json": ["interpolate", "--space", "h",
                                 "--nodes", "{fix}/nodes_small.json",
                                 "--targets", "{fix}/targets_small.json"],
    "interpolate_blaschke.csv": ["interpolate", "--space", "h",
                                 "--method", "blaschke",
                                 "--nodes", "{fix}/nodes_small.json",
                                 "--targets", "{fix}/targets_small.json",
                                 "--format", "csv"],
    "blaschke_eval.json": ["blaschke", "--nodes", "{fix}/nodes_small.json",
                           "--eval", "2,0.5"],
    "asymptotics_half.json": ["asymptotics", "--alpha", "0.5", "--kmax", "5"],
    "embedding_single.json": ["embedding", "--coeffs", "{fix}/poly_small.json",
                              "--theta", "0.5"],
    "embedding_halfstrip.json": ["embedding", "--coeffs", "{fix}/poly_small.json",
                                 "--alpha", "0.5"],
    "embedding_corpus.csv": ["embedding", "--corpus-count", "5",
                             "--max-degree", "20", "--seed", "3",
                             "--format", "csv"],
    "probe_found.json": ["probe", "--space", "h", "--s", "1,0",
                         "--target", "0.8", "--t-max", "1000"],
    "probe_none.csv": ["probe", "--space", "h", "--s", "1,0",
                       "--target", "0.99", "--t-max", "50", "--format", "csv"],
}


def _argv(template, fixtures_dir):
    return [a.format(fix=fixtures_dir) for a in template]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_byte_identity(name, fixtures_dir, golden_dir, capsys):
    rc = run(_argv(GOLDEN_CASES[name], fixtures_dir))
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (golden_dir / name).read_text()


@pytest.mark.parametrize("name", [n for n in sorted(GOLDEN_CASES)
                                  if n.endswith(".json")])
def test_golden_json_is_valid(name, golden_dir):
    parsed = json.loads((golden_dir / name).read_text())
    assert isinstance(parsed, dict)


def test_console_script_matches_golden(golden_dir):
    # a fresh interpreter runs the package entry point without an install;
    # the console script declared in pyproject.toml calls the same main
    assert dirichlet_rkhs.__main__.main is main
    pyproject = (pathlib.Path(__file__).resolve().parent.parent
                 / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'dirichlet-rkhs = "dirichlet_rkhs.cli:main"' in scripts.splitlines()
    root = pathlib.Path(dirichlet_rkhs.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "dirichlet_rkhs",
                           *GOLDEN_CASES["kernel_h.json"]],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (golden_dir / "kernel_h.json").read_bytes()
    assert proc.stderr == b""


@pytest.mark.skipif(shutil.which("dirichlet-rkhs") is None,
                    reason="dirichlet-rkhs console script not installed on PATH")
def test_installed_console_script_matches_golden(golden_dir):
    proc = subprocess.run([shutil.which("dirichlet-rkhs"),
                           *GOLDEN_CASES["kernel_h.json"]],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == (golden_dir / "kernel_h.json").read_text()


def test_corpus_output_independent_of_workers(fixtures_dir, golden_dir,
                                              capsys, monkeypatch):
    monkeypatch.setenv("DIRICHLET_RKHS_THREADS", "1")
    rc = run(_argv(GOLDEN_CASES["embedding_corpus.csv"], fixtures_dir))
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (golden_dir / "embedding_corpus.csv").read_text()


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["kernel", "--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand(capsys):
    assert run(["bogus"]) == 2
    capsys.readouterr()


def test_missing_required_flag(capsys):
    assert run(["kernel", "--space", "h", "--w", "1,0"]) == 2
    capsys.readouterr()


def _stderr_error(capsys):
    err = capsys.readouterr().err
    return json.loads(err)


def test_point_outside_halfplane(capsys):
    rc = run(["kernel", "--space", "h", "--w", "0.3,0", "--s", "1,0"])
    assert rc == 2
    obj = _stderr_error(capsys)
    assert obj["error"] == "UsageError"
    assert "sigma" in obj["message"]


def test_alpha_flag_consistency(capsys):
    assert run(["kernel", "--space", "h", "--alpha", "1",
                "--w", "1,0", "--s", "1,0"]) == 2
    assert _stderr_error(capsys)["error"] == "UsageError"
    assert run(["kernel", "--space", "h_alpha", "--w", "1,0", "--s", "1,0"]) == 2
    assert _stderr_error(capsys)["error"] == "UsageError"
    assert run(["kernel", "--space", "h_alpha", "--alpha", "2",
                "--w", "1,0", "--s", "1,0"]) == 2
    capsys.readouterr()


def test_embedding_source_flags(fixtures_dir, capsys):
    assert run(["embedding"]) == 2
    capsys.readouterr()
    assert run(["embedding", "--coeffs", f"{fixtures_dir}/poly_small.json",
                "--corpus-count", "3"]) == 2
    capsys.readouterr()


def test_embedding_corpus_negative_alpha(capsys):
    # alpha < 0 needs a_1 = 0; the corpus path sets it
    rc = run(["embedding", "--corpus-count", "4", "--max-degree", "12",
              "--seed", "7", "--alpha", "-0.5", "--theta", "2"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    ratios = json.loads(captured.out)["ratios"]
    polys = random_polynomial_corpus(4, 12, 7)
    assert len(ratios) == len(polys)
    for ratio, f in zip(ratios, polys):
        g = DirichletPolynomial((0j,) + f.coeffs[1:])
        assert ratio == halfstrip_embedding_ratio(g, 2.0, -0.5).ratio
    assert run(["embedding", "--corpus-count", "2", "--max-degree", "1",
                "--alpha", "-0.5"]) == 2
    assert _stderr_error(capsys)["error"] == "UsageError"
    assert run(["embedding", "--corpus-count", "0"]) == 2
    assert _stderr_error(capsys)["error"] == "UsageError"


def test_embedding_corpus_length_refused_before_drawing(monkeypatch, capsys):
    # an over-cap --max-degree is refused before any corpus is allocated
    def never(*args):
        raise AssertionError("corpus drawn for an over-cap length")

    monkeypatch.setattr(cli, "random_polynomial_corpus", never)
    for extra, cap in (([], LINE_DEGREE_CAP), (["--alpha", "0.5"], HALFSTRIP_DEGREE_CAP),
                       (["--alpha", "-0.5"], HALFSTRIP_DEGREE_CAP)):
        rc = run(["embedding", "--corpus-count", "100000",
                  "--max-degree", str(cap + 1), *extra])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "SizeError",
            "message": f"polynomial length {cap + 1} exceeds cap {cap}"}


def test_gram_reports_nonpositive_kernel_diagonal(fixtures_dir, capsys):
    # the printed alpha = 1 kernel is negative on the diagonal at sigma = 1
    rc = run(["gram", "--space", "d_alpha", "--alpha", "1",
              "--points", f"{fixtures_dir}/geometric.json"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    obj = json.loads(captured.err)
    assert obj["error"] == "NumericalError"
    assert "HalfPlanePoint(sigma=1.0, t=0.0)" in obj["message"]


def test_blaschke_method_needs_hardy_space(fixtures_dir, capsys):
    rc = run(["interpolate", "--space", "h2", "--method", "blaschke",
              "--nodes", f"{fixtures_dir}/nodes_small.json",
              "--targets", f"{fixtures_dir}/targets_small.json"])
    assert rc == 2
    assert _stderr_error(capsys)["error"] == "UsageError"


def test_interpolate_length_mismatch(fixtures_dir, tmp_path, capsys):
    short = tmp_path / "one.json"
    short.write_text("[[1, 0]]\n")
    rc = run(["interpolate", "--space", "h",
              "--nodes", f"{fixtures_dir}/nodes_small.json",
              "--targets", str(short)])
    assert rc == 2
    assert "1 targets" in _stderr_error(capsys)["message"]


def test_unreadable_file(capsys):
    assert run(["gram", "--space", "h2", "--points", "/no/such/file.json"]) == 2
    assert _stderr_error(capsys)["error"] == "UsageError"


def test_computation_error_exit_one(capsys):
    rc = run(["probe", "--space", "h2", "--s", "1,0", "--target", "0.5"])
    assert rc == 1
    obj = _stderr_error(capsys)
    assert obj["error"] == "DomainError"


def test_ill_conditioned_exit_one(tmp_path, capsys):
    nodes = tmp_path / "nodes.json"
    nodes.write_text("[[1, 0], [1, 2e-9]]\n")
    targets = tmp_path / "targets.json"
    targets.write_text("[[1, 0], [0, 0]]\n")
    rc = run(["interpolate", "--space", "h2", "--nodes", str(nodes),
              "--targets", str(targets)])
    assert rc == 1
    assert _stderr_error(capsys)["error"] == "IllConditionedError"


def test_asymptotics_alpha_cap(capsys):
    assert run(["asymptotics", "--alpha", "2"]) == 2
    capsys.readouterr()


def test_asymptotics_rows_stop_where_s_rounds_to_one(capsys):
    # s = 1 + 10^-k is exactly 1 from k = 16 on: that row is refused, and
    # a huge --kmax is refused as fast
    for kmax in ("16", "1000000000"):
        assert run(["asymptotics", "--alpha", "0.5", "--kmax", kmax]) == 1
        assert _stderr_error(capsys)["error"] == "DomainError"
    assert run(["asymptotics", "--alpha", "0.5", "--kmax", "15"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 15


@pytest.mark.parametrize("template", [
    ["kernel", "--w", "1,inf", "--s", "1,0"],
    ["kernel", "--w", "1,nan", "--s", "1,0"],
    ["kernel", "--w", "1,1e300", "--s", "1,0"],
    ["kernel", "--space", "h2", "--w", "1,inf", "--s", "1,0"],
    ["kernel", "--space", "h2", "--w", "1,nan", "--s", "1,0"],
    ["kernel", "--space", "d_alpha", "--alpha", "0.5", "--w", "1,inf", "--s", "1,0"],
    ["probe", "--s", "0.75,0", "--target", "nan", "--t-max", "2"],
    ["probe", "--s", "0.75,0", "--target", "0.5", "--t-max", "nan"],
    ["embedding", "--coeffs", "{fix}/poly_small.json", "--theta", "inf"],
    ["embedding", "--coeffs", "{fix}/poly_small.json", "--theta=nan"],
    ["embedding", "--coeffs", "{fix}/poly_small.json", "--theta", "-inf"],
    ["kernel", "--w", "1,0", "--s", "-inf,0"],
])
def test_non_finite_input_is_refused(template, fixtures_dir, capsys):
    # certify or refuse: an error exit, nothing on stdout, one error object
    rc = run(_argv(template, fixtures_dir))
    captured = capsys.readouterr()
    assert rc in (1, 2)
    assert captured.out == ""
    obj = json.loads(captured.err)
    assert isinstance(obj, dict) and "error" in obj and "message" in obj


@pytest.mark.parametrize("template, flag, value", [
    (["probe", "--s", "1,0", "--t-max", "50"], "--target", "-1e-05"),
    (["kernel", "--space", "d_alpha", "--w", "1,0", "--s", "1.2,0.5"], "--alpha", "-2.5E-1"),
    (["embedding", "--coeffs", "{fix}/poly_small.json"], "--theta", "-1.5e+1"),
])
def test_negative_values_parse_in_both_forms(template, flag, value, fixtures_dir, capsys):
    # "--flag value" and "--flag=value" give the same bytes for negative
    # numbers in exponent form
    assert run(_argv(template, fixtures_dir) + [flag, value]) == 0
    spaced = capsys.readouterr()
    assert run(_argv(template, fixtures_dir) + [f"{flag}={value}"]) == 0
    joined = capsys.readouterr()
    assert spaced.err == joined.err == ""
    assert spaced.out == joined.out != ""


@pytest.mark.parametrize("argv", [
    ["kernel", "--w", "1,0", "--s", "-inf,0"],
    ["kernel", "--w", "-Infinity,0", "--s", "1,0"],
    ["probe", "--s", "1,0", "--target", "-inf"],
])
def test_negative_infinity_is_refused_as_non_finite(argv, capsys):
    rc = run(argv)
    obj = json.loads(capsys.readouterr().err)
    assert rc in (1, 2)
    assert "expected one argument" not in obj["message"]
    assert "finite" in obj["message"]


@pytest.mark.filterwarnings("error")
def test_far_height_gram_is_refused(tmp_path, capsys):
    # a point at t = 1e300 ends in one JSON error object, with no numpy
    # warning about the series length cast before it
    points = tmp_path / "far.json"
    points.write_text("[[1, 0], [1, 1e300]]")
    rc = run(["gram", "--points", str(points)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert json.loads(captured.err)["error"] == "ConvergenceError"


@pytest.mark.parametrize("template, error", [
    (["blaschke", "--nodes", "{fix}/nodes_small.json", "--eval", "-2.5e3,0"],
     "NumericalError"),
    (["asymptotics", "--alpha", "-2.5e3", "--kmax", "1"], "ConvergenceError"),
    (["gram", "--space", "h_alpha", "--alpha", "-2.5e3",
      "--points", "{fix}/geometric.json"], "ConvergenceError"),
    (["gram", "--space", "d_alpha", "--alpha", "-2.5e3",
      "--points", "{fix}/geometric.json"], "DomainError"),
    (["gram", "--space", "d_alpha", "--alpha", "-500",
      "--points", "{fix}/geometric.json"], "NumericalError"),
    (["embedding", "--corpus-count", "1", "--max-degree", "2", "--alpha", "-2.5e3"],
     "DomainError"),
    (["interpolate", "--space", "d_alpha", "--alpha=-2.225073858507203e-309",
      "--nodes", "{fix}/nodes_small.json", "--targets", "{fix}/targets_small.json"],
     "DomainError"),
    (["interpolate", "--space", "d_alpha", "--alpha=-5e-308",
      "--nodes", "{fix}/nodes_small.json", "--targets", "{fix}/targets_small.json"],
     "NumericalError"),
    (["kernel", "--w", "1,1e300", "--s", "1,0"], "ConvergenceError"),
    (["embedding", "--corpus-count", "100000", "--max-degree", "10000"], "SizeError"),
])
@pytest.mark.filterwarnings("error")
def test_overflowing_input_is_refused(template, error, fixtures_dir, capsys):
    # values far outside double range end in a library error, not an
    # OverflowError traceback or a numpy warning on stderr
    rc = run(_argv(template, fixtures_dir))
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert json.loads(captured.err)["error"] == error


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("DIRICHLET_RKHS_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("DIRICHLET_RKHS_THREADS", "zero")
    with pytest.raises(DomainError):
        worker_count()
    monkeypatch.setenv("DIRICHLET_RKHS_THREADS", "0")
    with pytest.raises(DomainError):
        worker_count()
    monkeypatch.delenv("DIRICHLET_RKHS_THREADS")
    assert worker_count() >= 1


def test_map_ordered_preserves_order(monkeypatch):
    items = list(range(20))
    assert map_ordered(lambda x: x * x, items) == [x * x for x in items]
    monkeypatch.setenv("DIRICHLET_RKHS_THREADS", "4")
    assert map_ordered(lambda x: -x, items) == [-x for x in items]


# argv fuzzing: every subcommand with well-formed flags, values drawn from
# bounded ranges (heights and --t-max at most 1e3) and now and then a
# non-finite value, a negative number in another spelling or a flag that
# does not fit; each argv passes its values either as --flag=value or as
# --flag value, which must read negative numbers as values too
FIXTURES_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
_RARE = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]).map(repr),
                  st.sampled_from(["-1e-05", "-2.5E-1", "-2.5E+3", "-.5", "-Infinity",
                                   "-NaN"]))


def _one_in_ten(rare, common):
    return st.integers(0, 9).flatmap(lambda k: rare if k == 0 else common)


def _num(lo, hi):
    return _one_in_ten(_RARE, st.floats(lo, hi).map(repr))


_HEIGHT = _num(-1e3, 1e3)
_POINT = st.builds("{},{}".format, _num(0.3, 4.0), _HEIGHT)
_ALPHA = st.one_of(_num(-2.0, 1.5), st.sampled_from(["-1", "-0.5", "0", "0.5", "1"]))


@st.composite
def _cli_argv(draw):
    sub = draw(st.sampled_from(["kernel", "gram", "diagnose", "interpolate",
                                "blaschke", "asymptotics", "embedding", "probe"]))
    spaced = draw(st.booleans())
    flags = {"format": draw(st.sampled_from(["json", "csv"]))}
    if sub not in ("blaschke", "asymptotics", "embedding"):
        flags["space"] = draw(st.sampled_from(["h", "h_alpha", "h2", "d_alpha"]))
        needs_alpha = flags["space"] in ("h_alpha", "d_alpha")
        if draw(_one_in_ten(st.just(not needs_alpha), st.just(needs_alpha))):
            flags["alpha"] = draw(_ALPHA)
    points = st.sampled_from(["geometric", "nodes_small", "equidistributed"])
    if sub == "kernel":
        flags.update(w=draw(_POINT), s=draw(_POINT))
    elif sub in ("gram", "diagnose"):
        flags["points"] = f"{FIXTURES_DIR}/{draw(points)}.json"
        if sub == "diagnose":
            flags.update({"delta-min": draw(_num(-0.5, 1.0)),
                          "carleson-max": draw(_num(-1.0, 20.0))})
    elif sub == "interpolate":
        flags.update(nodes=f"{FIXTURES_DIR}/nodes_small.json",
                     targets=f"{FIXTURES_DIR}/targets_small.json",
                     method=draw(st.sampled_from(["minnorm", "blaschke"])))
    elif sub == "blaschke":
        flags["nodes"] = f"{FIXTURES_DIR}/nodes_small.json"
        if draw(st.booleans()):
            flags["eval"] = draw(_POINT)
    elif sub == "asymptotics":
        flags.update(alpha=draw(_num(-2.0, 1.5)), kmax=str(draw(st.integers(-1, 6))))
    elif sub == "embedding":
        flags["theta"] = draw(_HEIGHT)
        if draw(st.booleans()):
            flags["alpha"] = draw(_ALPHA)
        if draw(st.booleans()):
            flags["coeffs"] = f"{FIXTURES_DIR}/poly_small.json"
        else:
            flags.update({"corpus-count": str(draw(st.integers(0, 4))),
                          "max-degree": str(draw(st.integers(0, 24))),
                          "seed": str(draw(st.integers(0, 99)))})
    elif sub == "probe":
        flags.update({"s": draw(_POINT), "target": draw(_num(-0.5, 1.5)),
                      "t-max": draw(_num(-10.0, 1e3))})
    argv = [sub]
    for flag, value in flags.items():
        argv += [f"--{flag}", value] if spaced else [f"--{flag}={value}"]
    return argv


@settings(max_examples=200, deadline=None)
@given(_cli_argv())
def test_cli_run_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 0:
        assert err == "", (argv, err)
        if "--format=json" in argv or "json" in argv:
            assert isinstance(json.loads(out), dict), argv
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows and all(len(r) == len(rows[0]) for r in rows), argv
    else:
        assert out == "", (argv, out)
        obj = json.loads(err)
        assert isinstance(obj, dict) and set(obj) == {"error", "message"}, (argv, err)
